"""Pluggable GF(2^8) bulk-multiply engine.

Every bulk field operation in the library (batch encode, progressive
decode row reduction, recoding, matrix solves) funnels through one
:class:`Gf256Engine`, which owns two multiply backends:

* ``table`` — the classic per-inner-index gather from the dense 256x256
  product table (the seed formulation).  It is the portable oracle the
  other path is checked against, and the cheapest formulation for small
  products on a host without the compiled kernel, because nothing is
  amortized across rows.
* ``wide`` — the region-op dataflow: every output row is produced in a
  single fused multiply-accumulate pass per nonzero coefficient
  (:meth:`Gf256Engine.mul_add_region`), never materializing an
  intermediate product row.  The fast path is the compiled
  nibble-shuffle kernel of :mod:`repro.gf256.regionops` (the AVX-512
  shuffle-mul of arXiv:1909.02871: ``c*x = T_lo[c][x & 0xF] ^
  T_hi[c][x >> 4]`` with both 16-entry tables held in registers); when
  no C compiler is available the same dataflow runs as vectorized
  numpy over uint64 word views (SWAR doubling to build the two nibble
  tables, then one gather per nibble), so the backend exists — just
  slower — on every host.

The row-reduction primitives (:meth:`Gf256Engine.scaled_rows`,
:meth:`Gf256Engine.scaled_rows_xor`) gather in the log domain without
masks: the engine uses *padded* tables, ``LOG_PAD`` (uint16,
``LOG_PAD[0] = 512``) and ``EXP_PAD`` (1025 entries, zero beyond index
509), so any sum involving a zero operand lands in the zeroed tail of
``EXP_PAD`` and no sentinel comparison is ever needed — the same trick
as the paper's Table-based-3 remapping (Sec. 5.1.3), generalized to
batched numpy gathers.

Backend selection: ``auto`` (the default) applies the one rule in
:meth:`Gf256Engine.select_matmul_backend` — ``wide`` whenever the
compiled kernel loaded; without it, ``wide``'s SWAR fallback for
products of at least :data:`SWAR_MIN_ROWS` rows :data:`SWAR_MIN_WIDTH`
bytes wide and ``table`` below that.  A concrete backend can be
forced per engine or globally with :func:`set_backend`, or via the
``REPRO_GF_BACKEND`` environment variable — which is re-read every time
an engine is constructed (and by ``set_backend(None)``), not just at
import time, so tests and subprocesses can flip it without re-importing
the module.  Unknown names raise :class:`~repro.errors.FieldError`
listing :data:`BACKENDS`.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import FieldError
from repro.gf256 import regionops
from repro.gf256.tables import EXP, INV, LOG, MUL_TABLE

#: Environment variable consulted for the process-wide default backend.
BACKEND_ENV_VAR = "REPRO_GF_BACKEND"

#: Valid backend names (``auto`` defers to the per-shape rule).
BACKENDS = ("auto", "table", "wide")

#: Sentinel stored at ``LOG_PAD[0]``: large enough that any padded-log
#: sum involving a zero operand indexes the zeroed tail of ``EXP_PAD``.
LOG_PAD_SENTINEL = 512

#: Output rows at which ``auto`` without the compiled kernel switches
#: from ``table`` to the SWAR ``wide`` fallback (where building per-row
#: tables of multiples starts to amortize over the output rows).
SWAR_MIN_ROWS = 32

#: Row width below which the per-row tables of multiples are not worth
#: building (the doubling passes cost tens of numpy calls per inner index).
SWAR_MIN_WIDTH = 32

#: SWAR masks for uint64 word-parallel doubling (xtime on 8 lanes).
_WORD_LO = np.uint64(0x7F7F7F7F7F7F7F7F)
_WORD_HI = np.uint64(0x8080808080808080)
_WORD_POLY = np.uint64(0x1B)


def _build_padded_tables() -> tuple[np.ndarray, np.ndarray]:
    """Construct the maskless padded log/exp tables (see module docs)."""
    log_pad = LOG.astype(np.uint16)
    log_pad[0] = LOG_PAD_SENTINEL
    # Index range: nonzero+nonzero sums reach 508; any sum with one or
    # two sentinels spans 512..1024 and must decode to zero.
    exp_pad = np.zeros(2 * LOG_PAD_SENTINEL + 1, dtype=np.uint8)
    exp_pad[:510] = EXP[:510]
    return log_pad, exp_pad


LOG_PAD, EXP_PAD = _build_padded_tables()


def _as_u8(array: np.ndarray) -> np.ndarray:
    if array.dtype != np.uint8:
        raise FieldError(f"GF(2^8) arrays must be uint8, got {array.dtype}")
    return array


def multiples_table(row: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Return the (256, len(row)) table of every scalar multiple of ``row``.

    Built with seven doubling XOR passes instead of a 64 KB-table gather:
    ``out[c]`` for ``c`` in ``2^j .. 2^(j+1)-1`` is ``out[c - 2^j] ^ d_j``
    where ``d_j = x^j * row`` comes from the Rijndael doubling step.  All
    work is sequential SIMD XOR, which is what makes
    :meth:`Gf256Engine.scaled_rows` fast for many factors.
    """
    _as_u8(row)
    if out is None:
        out = np.empty((256, row.shape[0]), dtype=np.uint8)
    out[0] = 0
    out[1] = row
    doubled = row
    for j in range(1, 8):
        doubled = (doubled << 1) ^ (((doubled >> 7) & 1) * np.uint8(0x1B))
        size = 1 << j
        out[size] = doubled
        np.bitwise_xor(out[1:size], doubled, out=out[size + 1 : 2 * size])
    return out


def _xtime_words(words: np.ndarray) -> np.ndarray:
    """One Rijndael doubling step on uint64 words (8 GF bytes per lane)."""
    return ((words & _WORD_LO) << np.uint64(1)) ^ (
        ((words & _WORD_HI) >> np.uint64(7)) * _WORD_POLY
    )


def _nibble_tables_words(
    row: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> None:
    """Fill the 16-entry low/high nibble multiple tables of one word row.

    ``lo[c] = c * row`` for ``c`` in 0..15 and ``hi[c] = (c << 4) * row``,
    built with seven SWAR doubling passes — the numpy mirror of the
    compiled kernel's in-register shuffle tables.
    """
    lo[0] = 0
    lo[1] = row
    doubled = row
    for j in range(1, 4):
        doubled = _xtime_words(doubled)
        size = 1 << j
        lo[size] = doubled
        np.bitwise_xor(lo[1:size], doubled, out=lo[size + 1 : 2 * size])
    hi[0] = 0
    doubled = _xtime_words(doubled)  # 16 * row
    hi[1] = doubled
    for j in range(1, 4):
        doubled = _xtime_words(doubled)
        size = 1 << j
        hi[size] = doubled
        np.bitwise_xor(hi[1:size], doubled, out=hi[size + 1 : 2 * size])


def _contiguous_words(array: np.ndarray) -> np.ndarray:
    """Return ``array`` as a uint64 view, copying if misaligned."""
    contiguous = np.ascontiguousarray(array)
    if contiguous.ctypes.data % 8:
        contiguous = contiguous.copy()
    return contiguous.view(np.uint64)


class Gf256Engine:
    """Shape-aware dispatcher over the two multiply backends.

    Args:
        backend: one of :data:`BACKENDS`, or ``None`` to read the
            ``REPRO_GF_BACKEND`` environment variable (falling back to
            ``auto``).  The variable is evaluated here, at construction
            time — never cached at import.
    """

    def __init__(self, backend: str | None = None) -> None:
        self.set_backend(backend)

    @property
    def backend(self) -> str:
        """The configured backend name (``auto`` means per-shape choice)."""
        return self._backend

    @property
    def wide_kernel_available(self) -> bool:
        """True when the compiled region-op kernel backs the wide path."""
        return regionops.kernel_available()

    def set_backend(self, backend: str | None) -> None:
        """Force one backend for every operation.

        ``None`` re-reads the ``REPRO_GF_BACKEND`` environment variable
        (defaulting to ``auto`` when unset) — the same resolution as
        constructing a fresh engine.

        Raises:
            FieldError: for unknown backend names, listing the valid
                :data:`BACKENDS`.
        """
        if backend is None:
            backend = os.environ.get(BACKEND_ENV_VAR) or "auto"
        if backend not in BACKENDS:
            raise FieldError(
                f"unknown GF backend {backend!r}; expected one of {BACKENDS}"
            )
        self._backend = backend

    # -- backend selection -------------------------------------------------

    def select_matmul_backend(self, m: int, n: int, k: int) -> str:
        """Resolve the concrete backend for an (m, n) x (n, k) product.

        Under ``auto``: the compiled wide kernel whenever it loaded (the
        fused region pass beats the table gather from single-row
        products up — there is no table build to amortize); otherwise
        the SWAR ``wide`` fallback, whose per-inner-index nibble-table
        build needs enough output rows (and wide enough rows) to
        amortize, and the plain ``table`` gather for smaller products.
        """
        if self._backend != "auto":
            return self._backend
        if regionops.kernel_available() or (
            m >= SWAR_MIN_ROWS and k >= SWAR_MIN_WIDTH
        ):
            return "wide"
        return "table"

    # -- matrix product ----------------------------------------------------

    def matmul(
        self,
        a: np.ndarray,
        b: np.ndarray,
        *,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Matrix product over GF(2^8) (paper Eq. 1).

        Args:
            a: (m, n) uint8 coefficient matrix.
            b: (n, k) uint8 source matrix.
            out: optional (m, k) uint8 destination, overwritten in
                place and returned.  Rows must be contiguous but the
                row stride is free (a column sub-view of a larger
                matrix works) — the wide backend accumulates straight
                into it with no intermediate product matrix.

        Returns:
            The (m, k) uint8 product; byte-identical across backends.
        """
        _as_u8(a)
        _as_u8(b)
        if a.ndim != 2 or b.ndim != 2:
            raise FieldError("matmul requires 2-D operands")
        if a.shape[1] != b.shape[0]:
            raise FieldError(f"inner dimensions differ: {a.shape} x {b.shape}")
        m, n = a.shape
        k = b.shape[1]
        if out is not None:
            _as_u8(out)
            if out.shape != (m, k):
                raise FieldError(
                    f"matmul out shape {out.shape} != {(m, k)}"
                )
        if self.select_matmul_backend(m, n, k) == "wide":
            return self._matmul_wide(a, b, out)
        result = self._matmul_table(a, b)
        if out is None:
            return result
        out[:] = result
        return out

    def _matmul_table(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-inner-index dense-table gather (the seed formulation)."""
        m, n = a.shape
        out = np.zeros((m, b.shape[1]), dtype=np.uint8)
        for i in range(n):
            column = a[:, i]
            nonzero = np.nonzero(column)[0]
            if nonzero.size == 0:
                continue
            out[nonzero] ^= MUL_TABLE[column[nonzero]][:, b[i]]
        return out

    def _matmul_wide(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None
    ) -> np.ndarray:
        """Region-op matmul: one fused pass per (row, nonzero coeff)."""
        m, n = a.shape
        k = b.shape[1]
        if out is None:
            out = np.empty((m, k), dtype=np.uint8)
        if m == 0 or k == 0:
            out[:] = 0
            return out
        if regionops.kernel_available():
            regionops.matmul_into(
                out, np.ascontiguousarray(a), np.ascontiguousarray(b)
            )
            return out
        result = self._matmul_wide_numpy(a, b)
        out[:] = result
        return out

    def _matmul_wide_numpy(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The wide dataflow on uint64 word views (no compiled kernel).

        Same nibble decomposition as the kernel, vectorized with numpy:
        per inner index, build the 16-entry low/high nibble multiple
        tables with SWAR doubling over uint64 lanes, then accumulate a
        whole output column with two contiguous row gathers.  Row widths
        that are not a multiple of the 8-byte word are zero-padded into
        a scratch matrix once.
        """
        m, n = a.shape
        k = b.shape[1]
        out = np.zeros((m, k), dtype=np.uint8)
        if m == 0 or n == 0 or k == 0:
            return out
        width = ((k + 7) // 8) * 8
        if width != k:
            padded = np.zeros((n, width), dtype=np.uint8)
            padded[:, :k] = b
            b_words = padded.view(np.uint64)
            acc = np.zeros((m, width), dtype=np.uint8)
        else:
            b_words = _contiguous_words(b)
            acc = out
        acc_words = acc.view(np.uint64)
        words = width // 8
        lo = np.empty((16, words), dtype=np.uint64)
        hi = np.empty((16, words), dtype=np.uint64)
        a_lo = a & 0x0F
        a_hi = a >> 4
        for i in range(n):
            _nibble_tables_words(b_words[i], lo, hi)
            acc_words ^= lo[a_lo[:, i]]
            acc_words ^= hi[a_hi[:, i]]
        if acc is not out:
            out[:] = acc[:, :k]
        return out

    # -- region operations (the wide backend's primitive API) --------------

    def _resolve_region_backend(self) -> str:
        """Concrete backend for a single region op (no shape to weigh)."""
        if self._backend != "auto":
            return self._backend
        return "wide" if regionops.kernel_available() else "table"

    def mul_add_region(
        self, dst: np.ndarray, src: np.ndarray, coefficient: int
    ) -> None:
        """``dst ^= coefficient * src`` in place, one fused pass.

        The primitive every wide-path row operation is built from: no
        intermediate product array exists even in the numpy fallbacks.
        ``dst`` and ``src`` are 1-D contiguous uint8 rows of equal
        length.
        """
        _as_u8(dst)
        _as_u8(src)
        if dst.shape != src.shape or dst.ndim != 1:
            raise FieldError("mul_add_region requires equal-length 1-D rows")
        coefficient = int(coefficient)
        if coefficient == 0 or dst.shape[0] == 0:
            return
        if self._resolve_region_backend() != "wide":
            dst ^= MUL_TABLE[coefficient][src]
        elif regionops.kernel_available():
            regionops.mul_add_region(dst, src, coefficient)
        else:
            self._mul_add_region_words(dst, src, coefficient)

    def _mul_add_region_words(
        self, dst: np.ndarray, src: np.ndarray, coefficient: int
    ) -> None:
        """SWAR shift-and-add over uint64 words (wide numpy fallback)."""
        k = dst.shape[0]
        # The word loop mutates dst through a uint64 view, which only
        # aliases dst when it is contiguous and word-aligned; anything
        # else (odd tail bytes too) takes the uint8 doubling chain.
        split = (k // 8) * 8
        if not (dst.flags.c_contiguous and dst.ctypes.data % 8 == 0):
            split = 0
        if split:
            dst_words = dst[:split].view(np.uint64)
            doubled = _contiguous_words(src[:split]).copy()
            bits = coefficient
            while bits:
                if bits & 1:
                    dst_words ^= doubled
                bits >>= 1
                if bits:
                    doubled = _xtime_words(doubled)
        if split != k:
            tail_dst = dst[split:]
            product = np.zeros_like(tail_dst)
            doubled = src[split:]
            bits = coefficient
            while bits:
                if bits & 1:
                    product ^= doubled
                bits >>= 1
                if bits:
                    doubled = (doubled << 1) ^ (
                        ((doubled >> 7) & 1) * np.uint8(0x1B)
                    )
            tail_dst ^= product

    def axpy_rows(
        self, dst: np.ndarray, factors: np.ndarray, src: np.ndarray
    ) -> None:
        """``dst[r] ^= factors[r] * src`` for every row, in place.

        The back-elimination region op: one pass per nonzero factor,
        accumulating straight into the stored rows.  ``dst`` is (m, k)
        with contiguous rows, ``factors`` is (m,), ``src`` is (k,);
        zero factors are skipped.
        """
        _as_u8(dst)
        _as_u8(factors)
        _as_u8(src)
        if dst.ndim != 2 or dst.shape != (factors.shape[0], src.shape[0]):
            raise FieldError("axpy_rows requires dst of shape (m, k)")
        if dst.shape[0] == 0 or dst.shape[1] == 0:
            return
        if self._resolve_region_backend() == "wide" and (
            regionops.kernel_available()
        ):
            regionops.axpy_rows(
                dst, np.ascontiguousarray(factors), np.ascontiguousarray(src)
            )
            return
        live = np.nonzero(factors)[0]
        if live.size:
            dst[live] ^= self.scaled_rows(factors[live], src)

    def fold_rows(
        self, dst: np.ndarray, rows: np.ndarray, factors: np.ndarray
    ) -> None:
        """``dst ^= XOR_i factors[i] * rows[i]`` in place.

        The forward-reduction region op: the incoming row accumulates
        every live pivot's contribution without materializing the
        scaled-row matrix.  ``rows`` is (m, k) with contiguous rows,
        ``factors`` is (m,), ``dst`` is (k,); zero factors are skipped.
        """
        _as_u8(dst)
        _as_u8(rows)
        _as_u8(factors)
        if rows.ndim != 2 or rows.shape != (factors.shape[0], dst.shape[0]):
            raise FieldError("fold_rows requires rows of shape (m, k)")
        if rows.shape[0] == 0 or dst.shape[0] == 0:
            return
        if self._resolve_region_backend() == "wide" and (
            regionops.kernel_available()
        ):
            regionops.fold_rows(dst, rows, np.ascontiguousarray(factors))
            return
        live = np.nonzero(factors)[0]
        if live.size:
            dst ^= self.scaled_rows_xor(rows[live], factors[live])

    def eliminate_batch(
        self,
        incoming: np.ndarray,
        work: np.ndarray,
        held: int,
        pivot_cols: np.ndarray,
    ) -> np.ndarray:
        """Absorb a forward-reduced batch into an RREF matrix, in place.

        The progressive decoder's within-batch Gauss–Jordan loop.
        ``incoming`` is (m, 2n) ``[coefficients | transform]`` already
        reduced against the ``held`` live rows of ``work`` (n, 2n).
        Each row in turn is skipped when its coefficient side is zero;
        otherwise its first nonzero column becomes the pivot, transform
        column ``n + held`` is set, the row is normalized, the pivot is
        eliminated from the later batch rows and from ``work[:held]``,
        and the row is stored as ``work[held]`` with its pivot in
        ``pivot_cols[held]``.  The compiled kernel runs the whole loop
        in one call; without it the loop runs here over the region ops.

        Returns:
            The accepted batch indices (int64, ascending).

        Raises:
            ValueError: on a malformed operand, or when the batch holds
                more innovative rows than ``work`` has free slots.
        """
        if self._resolve_region_backend() == "wide" and (
            regionops.kernel_available()
        ):
            return regionops.eliminate_batch(incoming, work, held, pivot_cols)
        regionops.check_eliminate_operands(incoming, work, held, pivot_cols)
        n = work.shape[0]
        m = incoming.shape[0]
        accepted = []
        for idx in range(m):
            row = incoming[idx]
            support = np.flatnonzero(row[:n])
            if support.size == 0:
                continue
            if held == n:
                raise ValueError("batch rank exceeds the free rows of work")
            pivot_col = int(support[0])
            row[n + held] = 1
            lead = int(row[pivot_col])
            if lead != 1:
                row = self.mul_scalar(row, int(INV[lead]))
            if idx + 1 < m:
                column = incoming[idx + 1 :, pivot_col].copy()
                if column.any():
                    self.axpy_rows(incoming[idx + 1 :], column, row)
            if held:
                column = work[:held, pivot_col].copy()
                if column.any():
                    self.axpy_rows(work[:held], column, row)
            work[held] = row
            pivot_cols[held] = pivot_col
            accepted.append(idx)
            held += 1
        return np.array(accepted, dtype=np.int64)

    # -- row-reduction primitives (the decoder's kernels) ------------------

    def scaled_rows_xor(
        self, rows: np.ndarray, factors: np.ndarray
    ) -> np.ndarray:
        """Return ``XOR_i factors[i] * rows[i]`` in one batched pass.

        The materializing form of :meth:`fold_rows`: one padded-log
        gather plus an XOR reduction over all live pivots at once.
        Zero factors (and zero row bytes) contribute nothing, maskless.
        """
        _as_u8(rows)
        _as_u8(factors)
        sums = LOG_PAD[factors][:, None] + LOG_PAD[rows]
        return np.bitwise_xor.reduce(EXP_PAD[sums], axis=0)

    def scaled_rows(self, factors: np.ndarray, row: np.ndarray) -> np.ndarray:
        """Return the matrix ``factors[i] * row`` (one row per factor).

        The materializing form of :meth:`axpy_rows`: callers XOR the
        result into their stored rows.  Uses :func:`multiples_table`
        when there are enough factors to amortize it, otherwise a
        padded-log gather.
        """
        _as_u8(factors)
        _as_u8(row)
        if (
            factors.shape[0] >= SWAR_MIN_ROWS
            and row.shape[0] >= SWAR_MIN_WIDTH
        ):
            return multiples_table(row)[factors]
        sums = LOG_PAD[factors][:, None] + LOG_PAD[row][None, :]
        return EXP_PAD[sums]

    def mul_scalar(self, row: np.ndarray, coefficient: int) -> np.ndarray:
        """Return ``coefficient * row`` (dense-table gather)."""
        _as_u8(row)
        return MUL_TABLE[coefficient][row]


#: The process-wide engine instance every library hot path routes through.
ENGINE = Gf256Engine()


def get_engine() -> Gf256Engine:
    """Return the process-wide engine."""
    return ENGINE


def set_backend(backend: str | None) -> None:
    """Force the process-wide engine onto one backend.

    ``None`` re-reads ``REPRO_GF_BACKEND`` (default ``auto``), exactly
    like constructing a fresh engine.
    """
    ENGINE.set_backend(backend)


def get_backend() -> str:
    """Return the process-wide engine's configured backend name."""
    return ENGINE.backend
