"""SIMT thread programs for the core kernels.

These are the generator-function ("CUDA-style") versions of the encoding
kernels, runnable on :class:`repro.gpu.SimtDevice`.  They exist to
*validate the analytic cost model's assumptions* on small problem sizes:

* the loop-based kernel's per-word instruction count;
* the table-based kernel's shared-memory bank-conflict factor (~3 for
  random byte lookups, Sec. 5.1.3);
* coalescing of source-block loads and broadcast of coefficient loads
  (Sec. 4.2.1);
* the atomicMin pivot search of Sec. 5.4.2.

Data layout matches the real kernels: source blocks and coded output are
arrays of 4-byte words; coefficients are byte arrays.

Buffers expected in ``args``:
    ``coeffs``    (m*n,) uint8 — coefficient matrix, row-major.
    ``source``    (n*wpb,) uint32 — source blocks as packed words.
    ``out``       (m*wpb,) uint32 — coded output words.
    ``n``, ``wpb`` scalars — blocks per segment, words per block.
The table-based program additionally needs ``exp_table`` ((512,) uint8 in
global memory), ``log_coeffs`` and ``log_source`` (log-domain inputs),
and a shared array ``exp_s`` of 512 bytes.
"""

from __future__ import annotations

from repro.gf256.tables import EXP, INV, LOG_ZERO_SENTINEL, MUL_TABLE


def _mul_word_by_byte(word: int, coefficient: int) -> int:
    """Reference byte-by-word GF multiply on packed little-endian words."""
    result = 0
    for lane in range(4):
        byte = (word >> (8 * lane)) & 0xFF
        result |= int(MUL_TABLE[coefficient, byte]) << (8 * lane)
    return result


def loop_encode_program(ctx):
    """Loop-based encoding: one thread per output word (Fig. 2).

    Yields the memory traffic of the real kernel (coefficient broadcast,
    coalesced source loads, coalesced stores) and charges the calibrated
    ALU cost per word-mult; the product itself is computed with the
    reference multiplier, which is semantically identical to the
    shift-and-add loop.
    """
    n = ctx.args["n"]
    wpb = ctx.args["wpb"]
    g = ctx.global_tid
    if g >= ctx.args["total_words"]:
        return
    row, col = divmod(g, wpb)
    accumulator = 0
    for i in range(n):
        coefficient = yield ctx.gmem_load("coeffs", row * n + i)
        word = yield ctx.gmem_load("source", i * wpb + col)
        # 7.4-iteration shift-and-add loop, ~10 instructions each, plus
        # loop control (the cost model's 82 cycles per word-mult).
        yield ctx.alu(82)
        accumulator ^= _mul_word_by_byte(word, coefficient)
    yield ctx.gmem_store("out", row * wpb + col, accumulator)


def table_encode_program(ctx):
    """Table-based (TB-1 flavour) encoding with a shared exp table.

    Threads cooperatively stage the exp table into shared memory, then
    multiply in the log domain: one shared-memory exp lookup per byte —
    the lookup pattern whose bank conflicts the cost model charges for.
    """
    n = ctx.args["n"]
    wpb = ctx.args["wpb"]
    # Cooperative table load with coalesced global reads (Sec. 5.1).
    for j in range(ctx.tx, 512, ctx.bdim):
        value = yield ctx.gmem_load("exp_table", j)
        yield ctx.smem_store("exp_s", j, value)
    yield ctx.barrier()

    g = ctx.global_tid
    if g < ctx.args["total_words"]:
        row, col = divmod(g, wpb)
        accumulator = 0
        for i in range(n):
            log_c = yield ctx.gmem_load("log_coeffs", row * n + i)
            word = yield ctx.gmem_load("log_source", i * wpb + col)
            yield ctx.alu(4)  # combined zero test + adds (TB-2/3 folding)
            if log_c == LOG_ZERO_SENTINEL:
                continue
            product = 0
            for lane in range(4):
                log_lane = (word >> (8 * lane)) & 0xFF
                if log_lane == LOG_ZERO_SENTINEL:
                    continue
                value = yield ctx.smem_load("exp_s", log_c + log_lane)
                product |= value << (8 * lane)
            accumulator ^= product
        yield ctx.gmem_store("out", row * wpb + col, accumulator)
    # Threads past the tail still participated in the table load and the
    # barrier above, so no divergence is possible here.


def pivot_search_program(ctx):
    """atomicMin pivot search over one coefficient row (Sec. 5.4.2).

    Each thread inspects a strided share of the row and reports the
    lowest index holding a nonzero coefficient; the block-wide minimum
    lands in ``best[0]``.  If the row is all zero the result is
    ``length`` (the dependent-block signal of Sec. 3).
    """
    length = ctx.args["length"]
    if ctx.tx == 0:
        yield ctx.smem_store("best", 0, length)  # sentinel: "no pivot"
    yield ctx.barrier()
    for index in range(ctx.tx, length, ctx.bdim):
        value = yield ctx.gmem_load("row", index)
        yield ctx.alu()
        if value != 0:
            yield ctx.atomic_min("best", 0, index)
            break
    yield ctx.barrier()
    if ctx.tx == 0:
        best = yield ctx.smem_load("best", 0)
        yield ctx.gmem_store("pivot_out", 0, best)


def pack_words(blocks_u8):
    """Pack an (n, k) byte matrix into a flat little-endian uint32 array.

    The kernels' native data layout: block ``i`` occupies words
    ``[i*k/4, (i+1)*k/4)``.  ``k`` must be a multiple of 4.
    """
    import numpy as np

    flat = np.ascontiguousarray(blocks_u8.reshape(blocks_u8.shape[0], -1))
    return flat.view("<u4").reshape(-1)


def unpack_words(words_u32, rows: int):
    """Invert :func:`pack_words` back into a (rows, k) byte matrix."""
    import numpy as np

    flat = np.ascontiguousarray(words_u32).view(np.uint8)
    return flat.reshape(rows, -1)


#: The exp table as staged into device memory for the table-based kernels.
EXP_TABLE_U8 = EXP[:512].copy()


def gauss_jordan_decode_program(ctx):
    """Progressive Gauss–Jordan decoding as one thread block (Sec. 4.2.2).

    The faithful dataflow of the paper's single-segment decode kernel:
    threads own strided byte columns of the aggregate ``[C | x]`` matrix;
    each incoming coded block is forward-reduced against the pivots held
    so far (one barrier per pivot, the serialization the cost model
    charges), the leading nonzero coefficient is found with the
    atomicMin pivot search of Sec. 5.4.2, the row is normalized and
    back-eliminated, and linearly dependent rows reduce to zero and are
    discarded without any explicit check.

    Buffers in ``args``:
        ``incoming``  (m * width,) uint8 — m received rows of
                      ``width = n + k`` bytes (coefficients then payload).
        ``rows``      (n * width,) uint8 — RREF row storage (output).
        ``pivot_cols`` (n,) int64 — pivot column of each stored row (output).
        ``rank_out``  (1,) int64 — final rank (output).
        ``n``, ``width``, ``m`` scalars.
    Shared arrays: ``best`` (1, i8), ``state`` (2, i8) [rank, lead_inv].
    """
    n = ctx.args["n"]
    width = ctx.args["width"]
    m = ctx.args["m"]
    my_columns = list(range(ctx.tx, width, ctx.bdim))

    for received in range(m):
        base = received * width
        # --- forward-reduce against every pivot held so far.
        rank = yield ctx.smem_load("state", 0)
        for pivot_index in range(rank):
            pivot_col = yield ctx.gmem_load("pivot_cols", pivot_index)
            factor = yield ctx.gmem_load("incoming", base + pivot_col)
            yield ctx.barrier()  # factor read before the row changes
            if factor:
                for column in my_columns:
                    value = yield ctx.gmem_load("incoming", base + column)
                    row_value = yield ctx.gmem_load(
                        "rows", pivot_index * width + column
                    )
                    yield ctx.alu(2)
                    yield ctx.gmem_store(
                        "incoming",
                        base + column,
                        value ^ int(MUL_TABLE[factor, row_value]),
                    )
            yield ctx.barrier()  # row update drains before the next pivot

        # --- pivot search (atomicMin over the coefficient part).
        if ctx.tx == 0:
            yield ctx.smem_store("best", 0, n)
        yield ctx.barrier()
        for column in my_columns:
            if column >= n:
                break
            value = yield ctx.gmem_load("incoming", base + column)
            yield ctx.alu()
            if value:
                yield ctx.atomic_min("best", 0, column)
                break
        yield ctx.barrier()
        lead_col = yield ctx.smem_load("best", 0)
        if lead_col == n:
            # Zero coefficient row: linearly dependent, discard.
            yield ctx.barrier()
            continue

        # --- normalize by the inverse of the leading coefficient.
        if ctx.tx == 0:
            lead = yield ctx.gmem_load("incoming", base + lead_col)
            yield ctx.smem_store("state", 1, int(INV[lead]))
        yield ctx.barrier()
        lead_inv = yield ctx.smem_load("state", 1)
        if lead_inv != 1:
            for column in my_columns:
                value = yield ctx.gmem_load("incoming", base + column)
                yield ctx.alu()
                yield ctx.gmem_store(
                    "incoming", base + column, int(MUL_TABLE[lead_inv, value])
                )
        yield ctx.barrier()

        # --- back-eliminate the new pivot from every stored row.
        rank = yield ctx.smem_load("state", 0)
        for row_index in range(rank):
            factor = yield ctx.gmem_load("rows", row_index * width + lead_col)
            yield ctx.barrier()
            if factor:
                for column in my_columns:
                    row_value = yield ctx.gmem_load(
                        "rows", row_index * width + column
                    )
                    value = yield ctx.gmem_load("incoming", base + column)
                    yield ctx.alu(2)
                    yield ctx.gmem_store(
                        "rows",
                        row_index * width + column,
                        row_value ^ int(MUL_TABLE[factor, value]),
                    )
            yield ctx.barrier()

        # --- store the new row and advance the rank.
        for column in my_columns:
            value = yield ctx.gmem_load("incoming", base + column)
            yield ctx.gmem_store("rows", rank * width + column, value)
        if ctx.tx == 0:
            yield ctx.gmem_store("pivot_cols", rank, lead_col)
            yield ctx.smem_store("state", 0, rank + 1)
        yield ctx.barrier()

    rank = yield ctx.smem_load("state", 0)
    if ctx.tx == 0:
        yield ctx.gmem_store("rank_out", 0, rank)
