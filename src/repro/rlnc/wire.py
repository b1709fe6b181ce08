"""Wire format for coded blocks: framing and integrity.

A practical deployment needs to ship coded blocks between machines.
This module defines the one compact, self-describing frame every writer
emits and every reader accepts:

```
offset  size  field
0       4     magic "RLNC"
4       1     version (2)
5       1     flags (bit 0: checksum present; bits 1-7: worker id + 1,
              0 = unstamped — see below)
6       4     segment_id        (big endian)
10      4     num_blocks n      (big endian)
14      4     block_size k      (big endian)
18      4     sequence          (big endian, wraps mod 2^32)
22      n     coefficient vector
22+n    k     payload
[22+n+k 8     digest64 trailer (big endian)  when flags bit 0 is set]
```

The trailer is an 8-byte multiply-accumulate digest (see
:func:`digest64`) that vectorizes across a whole batch — the serving
pipeline checksums hundreds of frames with three numpy passes instead
of one call per frame.  The version byte is always 2; a frame carrying
any other version (the retired version 1 included) is rejected as
malformed.

Frames may additionally be *worker-stamped*: a sharded serving cluster
records which worker produced each frame in the upper seven flag bits
(``worker_id + 1``, so zero keeps meaning "unstamped" and single-node
writers leave them clear).  :func:`frame_worker_id` recovers the stamp,
and the digest covers the flags byte, so a corrupted stamp is detected
like any other header damage.

Integrity failures surface through two *unpack modes*: strict mode
(default) raises :class:`~repro.errors.IntegrityError` on a checksum
mismatch and :class:`~repro.errors.WireError` on structural damage
(bad magic/version, torn frames, length fields that disagree with the
buffer — the parser bound-checks every length before slicing, so a
lying header can never over-read or crash inside numpy); lenient mode
(``strict=False``) drops the damaged frame, counts it in a
:class:`WireStats`, and keeps going — :func:`decode_stream` even
resynchronizes on the next magic marker after a frame whose framing is
unparseable.

Serialization is sized up front and packed in place: :func:`frame_size`
and :func:`stream_size` tell callers exactly how many bytes a frame or a
homogeneous batch occupies, :func:`pack_frame_into` writes one frame
into a caller-supplied buffer through a :class:`memoryview` (no
intermediate per-field ``bytes()`` copies), and :func:`pack_blocks` /
:func:`unpack_blocks` move whole :class:`~repro.rlnc.block.BlockBatch`
matrices through a single contiguous buffer — the batch path writes all
headers, sequences, coefficient rows and payload rows with strided
numpy assignments, and the intake path hands back coefficient/payload
matrices that are zero-copy views into the received buffer.  A batch
is byte-identical to :func:`encode_stream` over its rows.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.errors import IntegrityError, WireError
from repro.obs.registry import Counter, get_registry
from repro.obs.stats import CumulativeStats
from repro.rlnc.block import BlockBatch, CodedBlock

MAGIC = b"RLNC"
#: The frame version byte — the only version written or read.
VERSION2 = 2
FLAG_CHECKSUM = 0x01
#: Largest worker id a frame can carry (7 flag bits hold
#: ``worker_id + 1``, and 0 means "unstamped").
MAX_WORKER_ID = 126
_WORKER_SHIFT = 1
_HEADER = struct.Struct(">4sBBIIII")
_DIGEST = struct.Struct(">Q")
#: Header bytes are zero-padded to this width for the digest.
_HEADER_PAD = 24
_SEQ_OFFSET = 18  # big-endian u32 sequence inside the header

#: Fixed seed for the digest weight stream ("RLNC" as an integer) —
#: part of the wire format, never change it.
_WEIGHT_SEED = 0x524C4E43
_weight_cache = np.empty(0, dtype=np.uint64)

#: (registry id, metric name) -> counter handle.  The pack/unpack
#: functions are module-level, so handles are cached here instead of on
#: an instance; ``registry.reset()`` keeps cached handles live.
_metric_cache: dict[tuple[int, str], Counter] = {}


def _wire_counter(name: str) -> Counter:
    registry = get_registry()
    key = (id(registry), name)
    counter = _metric_cache.get(key)
    if counter is None:
        counter = registry.counter(name, component="wire")
        _metric_cache[key] = counter
    return counter


def _weights(count: int) -> np.ndarray:
    """First ``count`` odd 64-bit digest weights (cached, prefix-stable).

    Drawn sequentially from a fixed-seed PCG64 stream, so any prefix is
    independent of how many weights have ever been requested.
    """
    global _weight_cache
    if count > _weight_cache.shape[0]:
        size = max(count, 2 * _weight_cache.shape[0], 1024)
        rng = np.random.Generator(np.random.PCG64(_WEIGHT_SEED))
        drawn = rng.integers(0, 2**64, size=size, dtype=np.uint64)
        _weight_cache = drawn | np.uint64(1)
    return _weight_cache[:count]


def _pad_words(matrix: np.ndarray) -> np.ndarray:
    """View an (m, L) uint8 matrix as (m, ceil(L/8)) LE uint64 words.

    Rows are conceptually zero-padded to a multiple of 8 bytes; the
    fast path (contiguous rows, L % 8 == 0) is a pure reinterpreting
    view, anything else pays one copy.
    """
    m, length = matrix.shape
    width = ((length + 7) // 8) * 8
    if length != width or not matrix.flags.c_contiguous:
        padded = np.zeros((m, width), dtype=np.uint8)
        padded[:, :length] = matrix
        matrix = padded
    return matrix.view("<u8")


def _digest64_rows(
    headers: np.ndarray, coefficients: np.ndarray, payloads: np.ndarray
) -> np.ndarray:
    """Per-row 64-bit digests of (header, coefficients, payload) triples.

    The digest is a multiply-accumulate (Carter–Wegman style) hash over
    little-endian 64-bit words with fixed odd pseudo-random weights:

        D = sum_i w_i * word_i   (mod 2^64)

    Each part (padded header, padded coefficient row, padded payload
    row) consumes a disjoint slice of the weight stream, so the digest
    is position-sensitive within and across parts.  Because every
    weight is odd (invertible mod 2^64), corrupting any *single* 8-byte
    word — in particular any single bit flip — always changes the
    digest; multi-word corruptions escape with probability ~2^-64.
    Unlike a CRC, the whole computation is three vectorized numpy
    passes over the batch, which is what keeps the integrity trailer
    nearly free on the serve-round pack path.
    """
    hw = _pad_words(headers)
    cw = _pad_words(coefficients)
    pw = _pad_words(payloads)
    nh, nc, npw = hw.shape[1], cw.shape[1], pw.shape[1]
    weights = _weights(nh + nc + npw)
    # einsum fuses the multiply-accumulate without materialising the
    # (m, words) product matrix; uint64 arithmetic wraps mod 2^64.
    return (
        np.einsum("ij,j->i", hw, weights[:nh])
        + np.einsum("ij,j->i", cw, weights[nh : nh + nc])
        + np.einsum("ij,j->i", pw, weights[nh + nc :])
    )


def digest64(
    header: bytes, coefficients: np.ndarray, payload: np.ndarray
) -> int:
    """The integrity digest of one frame (see module docs)."""
    head = np.zeros(_HEADER_PAD, dtype=np.uint8)
    head[: len(header)] = np.frombuffer(header, dtype=np.uint8)
    return int(
        _digest64_rows(
            head.reshape(1, -1),
            coefficients.reshape(1, -1),
            payload.reshape(1, -1),
        )[0]
    )


@dataclass
class WireStats(CumulativeStats):
    """Counters a lenient unpack accumulates instead of raising.

    One instance per receive path (e.g. per peer connection) gives the
    per-source integrity accounting the quarantine layer reports.

    Accumulation is **explicit and cumulative**: the unpack functions
    only ever *add* to a stats object, across however many calls it is
    reused for — they never zero it behind the caller's back.  A caller
    that wants per-call (or per-round) figures takes a :meth:`snapshot`
    before the call and diffs with :meth:`delta`, or calls :meth:`reset`
    between calls.  (Earlier revisions left this ambiguous, and a reused
    decoder session's drop counters silently carried over between
    ``unpack`` calls while reading code expected fresh counts — the
    regression tests in ``tests/rlnc/test_wire.py`` pin the contract.)

    Attributes:
        frames_ok: frames that parsed and verified.
        checksum_failures: frames whose integrity trailer mismatched.
        malformed: structurally damaged frames (bad magic/version,
            torn framing, lying length fields, trailing junk).
    """

    frames_ok: int = 0
    checksum_failures: int = 0
    malformed: int = 0

    @property
    def frames_dropped(self) -> int:
        """Frames discarded by lenient unpacking."""
        return self.checksum_failures + self.malformed

    def merge(self, other: "WireStats") -> None:
        """Fold another stats object into this one."""
        self.frames_ok += other.frames_ok
        self.checksum_failures += other.checksum_failures
        self.malformed += other.malformed

    # -- registry write-through (one source of truth) ----------------------

    def record_ok(self, count: int = 1) -> None:
        """Count verified frames here *and* in the metrics registry."""
        self.frames_ok += count
        _wire_counter("wire_frames_ok").inc(count)

    def record_checksum_failure(self, count: int = 1) -> None:
        """Count integrity-trailer mismatches (field + registry)."""
        self.checksum_failures += count
        _wire_counter("wire_checksum_failures").inc(count)

    def record_malformed(self, count: int = 1) -> None:
        """Count structurally damaged frames (field + registry)."""
        self.malformed += count
        _wire_counter("wire_malformed_frames").inc(count)


def check_version(version: int) -> None:
    """Refuse any frame version but :data:`VERSION2`.

    The serving round entry points still accept a ``version`` keyword
    for callers that spell it out; this is its only check.

    Raises:
        WireError: ``version`` is not 2.
    """
    if version != VERSION2:
        raise WireError(
            f"unsupported frame version {version}; only {VERSION2} is written"
        )


def _worker_flag_bits(worker_id: int | None) -> int:
    """Flag bits carrying an optional worker stamp."""
    if worker_id is None:
        return 0
    if not 0 <= worker_id <= MAX_WORKER_ID:
        raise WireError(
            f"worker_id must be in [0, {MAX_WORKER_ID}], got {worker_id}"
        )
    return (worker_id + 1) << _WORKER_SHIFT


def frame_worker_id(data, offset: int = 0) -> int | None:
    """The worker id stamped on the frame at ``offset``, or ``None``.

    Unstamped frames return ``None``.

    Raises:
        WireError: if the bytes at ``offset`` are not a parseable
            frame header.
    """
    flags, _, _, _, _ = _parse_header(memoryview(data), offset)
    stamp = (flags >> _WORKER_SHIFT) & 0x7F
    return stamp - 1 if stamp else None


def frame_sequence(data, offset: int = 0) -> int:
    """The per-session sequence number of the frame at ``offset``.

    This is the in-flight *round tagging* primitive for pipelined
    serving: a server round stamps consecutive sequences per session, so
    a round's frames occupy one contiguous sequence span — the pipelined
    drivers read the span boundaries here (no extra header bytes) and
    verify rounds arrive in order and without overlap.

    Raises:
        WireError: if the bytes at ``offset`` are not a parseable
            frame header.
    """
    return _parse_header(memoryview(data), offset)[4]


def frame_size(num_blocks: int, block_size: int, *, checksum: bool = True) -> int:
    """Wire bytes for one framed block of this geometry."""
    trailer = _DIGEST.size if checksum else 0
    return _HEADER.size + num_blocks + block_size + trailer


def stream_size(
    num_frames: int, num_blocks: int, block_size: int, *, checksum: bool = True
) -> int:
    """Wire bytes for ``num_frames`` homogeneous frames (for preallocation)."""
    return num_frames * frame_size(num_blocks, block_size, checksum=checksum)


def pack_frame_into(
    block: CodedBlock,
    buffer,
    offset: int = 0,
    *,
    checksum: bool = True,
    sequence: int = 0,
    worker_id: int | None = None,
) -> int:
    """Write one frame into ``buffer`` at ``offset``; return bytes written.

    ``buffer`` is any writable buffer (``bytearray``, ``memoryview``,
    ``np.ndarray``).  The coefficient and payload arrays are copied into
    place through memoryview slice assignment — no intermediate
    ``bytes()`` objects are materialized.  ``sequence`` wraps mod 2^32;
    ``worker_id`` is the optional cluster stamp.
    """
    n, k = block.num_blocks, block.block_size
    size = frame_size(n, k, checksum=checksum)
    view = memoryview(buffer)
    if offset + size > len(view):
        raise WireError(
            f"buffer too small: need {offset + size} bytes, have {len(view)}"
        )
    flags = (FLAG_CHECKSUM if checksum else 0) | _worker_flag_bits(worker_id)
    _HEADER.pack_into(
        view,
        offset,
        MAGIC,
        VERSION2,
        flags,
        block.segment_id,
        n,
        k,
        sequence & 0xFFFFFFFF,
    )
    body = offset + _HEADER.size
    view[body : body + n] = block.coefficients
    view[body + n : body + n + k] = block.payload
    if checksum:
        digest = digest64(
            bytes(view[offset:body]), block.coefficients, block.payload
        )
        _DIGEST.pack_into(view, body + n + k, digest)
    _wire_counter("wire_frames_packed").inc()
    _wire_counter("wire_bytes_packed").inc(size)
    return size


def pack_blocks(
    batch: BlockBatch,
    *,
    checksum: bool = True,
    out=None,
    offset: int = 0,
    first_sequence: int = 0,
    worker_id: int | None = None,
) -> memoryview:
    """Serialize a whole batch into one contiguous buffer; return its view.

    All headers, sequences, coefficient rows and payload rows are
    written with strided numpy assignments into the (optionally
    caller-preallocated) buffer, and every frame's :func:`digest64` is
    computed in one vectorized pass.  Frames carry consecutive sequence
    numbers starting at ``first_sequence`` and the optional
    ``worker_id`` stamp in their flags.  When ``out`` is omitted a fresh
    ``bytearray`` of exactly :func:`stream_size` bytes is allocated;
    pass a reusable buffer (and an ``offset``) to pack several batches
    back to back without reallocating — the round-based serving pipeline
    packs every peer's blocks for one round into a single buffer this
    way.

    The bytes are identical to ``encode_stream(batch.rows(),
    first_sequence=first_sequence)`` (with the same stamp).
    """
    m = len(batch)
    n, k = batch.num_blocks, batch.block_size
    size_one = frame_size(n, k, checksum=checksum)
    total = m * size_one
    if out is None:
        if offset:
            raise WireError("offset requires a caller-supplied buffer")
        out = bytearray(total)
    view = memoryview(out)
    if offset + total > len(view):
        raise WireError(
            f"buffer too small: need {offset + total} bytes, have {len(view)}"
        )
    region = view[offset : offset + total]
    if m == 0:
        return region
    frames = np.frombuffer(region, dtype=np.uint8).reshape(m, size_one)
    flags = (FLAG_CHECKSUM if checksum else 0) | _worker_flag_bits(worker_id)
    packed = _HEADER.pack(MAGIC, VERSION2, flags, batch.segment_id, n, k, 0)
    head = _HEADER.size
    frames[:, :head] = np.frombuffer(packed, dtype=np.uint8)
    sequences = (
        np.uint64(first_sequence) + np.arange(m, dtype=np.uint64)
    ) & np.uint64(0xFFFFFFFF)
    frames[:, _SEQ_OFFSET : _SEQ_OFFSET + 4] = (
        sequences.astype(">u4").view(np.uint8).reshape(m, 4)
    )
    frames[:, head : head + n] = batch.coefficients
    body = head + n + k
    frames[:, head + n : body] = batch.payloads
    if checksum:
        digests = _digest64_rows(
            frames[:, :head], batch.coefficients, batch.payloads
        )
        frames[:, body : body + 8] = (
            digests.astype(">u8").view(np.uint8).reshape(m, 8)
        )
    _wire_counter("wire_frames_packed").inc(m)
    _wire_counter("wire_bytes_packed").inc(total)
    return region


def _parse_header(view: memoryview, offset: int):
    """Validate and read one frame header; never reads past the buffer.

    Returns ``(flags, segment_id, n, k, sequence)``.

    Raises:
        WireError: on truncation, bad magic, or unsupported version.
    """
    remaining = len(view) - offset
    if remaining < _HEADER.size:
        raise WireError(f"stream truncated at {remaining} bytes")
    if bytes(view[offset : offset + 4]) != MAGIC:
        raise WireError(f"bad magic {bytes(view[offset:offset + 4])!r}")
    version = view[offset + 4]
    if version != VERSION2:
        raise WireError(f"unsupported frame version {version}")
    _, _, flags, segment_id, n, k, sequence = _HEADER.unpack_from(view, offset)
    return flags, segment_id, n, k, sequence


def _verify_frame(view: memoryview, offset: int, n: int, k: int) -> bool:
    """Check one frame's integrity trailer; the frame must be in bounds."""
    body = offset + _HEADER.size
    (stored,) = _DIGEST.unpack_from(view, body + n + k)
    coefficients = np.frombuffer(view, dtype=np.uint8, count=n, offset=body)
    payload = np.frombuffer(view, dtype=np.uint8, count=k, offset=body + n)
    computed = digest64(bytes(view[offset:body]), coefficients, payload)
    return stored == computed


def unpack_frame(
    data,
    offset: int = 0,
    *,
    strict: bool = True,
    stats: WireStats | None = None,
) -> tuple[CodedBlock | None, int, int]:
    """Parse one frame at ``offset``; return ``(block, size, sequence)``.

    The incremental intake primitive: bound-checks every length field
    against the buffer before touching the body (a lying header raises
    :class:`~repro.errors.WireError` instead of over-reading), and
    handles integrity failures per the unpack mode — strict raises
    :class:`~repro.errors.IntegrityError`; lenient counts the failure in
    ``stats`` and returns ``(None, size, sequence)`` so the caller can
    skip exactly one frame and continue.  Structural damage (bad magic,
    unsupported version, lying lengths) raises
    :class:`~repro.errors.WireError` in both modes.
    """
    view = memoryview(data)
    flags, segment_id, n, k, sequence = _parse_header(view, offset)
    has_checksum = bool(flags & FLAG_CHECKSUM)
    size = frame_size(n, k, checksum=has_checksum)
    if offset + size > len(view):
        raise WireError(
            f"header length fields (n={n}, k={k}) exceed the buffer: frame "
            f"needs {size} bytes, {len(view) - offset} remain"
        )
    _wire_counter("wire_bytes_unpacked").inc(size)
    if has_checksum and not _verify_frame(view, offset, n, k):
        if strict:
            raise IntegrityError(
                f"checksum mismatch in frame at offset {offset} (n={n}, k={k})"
            )
        if stats is not None:
            stats.record_checksum_failure()
        return None, size, sequence
    body = offset + _HEADER.size
    coefficients = np.frombuffer(view, dtype=np.uint8, count=n, offset=body)
    payload = np.frombuffer(view, dtype=np.uint8, count=k, offset=body + n)
    if stats is not None:
        stats.record_ok()
    return (
        CodedBlock(
            coefficients=coefficients.copy(),
            payload=payload.copy(),
            segment_id=segment_id,
        ),
        size,
        sequence,
    )


@dataclass(frozen=True)
class ExpectedHeader:
    """The header a receiver expects on every frame of its slice.

    A receiver knows the segment it is fetching, the segment's geometry
    and whether its frames carry digests; :func:`unpack_blocks` checks
    each frame's fixed header bytes against these instead of against
    the stream's first frame.  The flags byte's worker stamp is free
    (the digest covers it); only its checksum bit must match.
    """

    segment_id: int
    num_blocks: int
    block_size: int
    checksum: bool = True

    def fixed_bytes(self) -> np.ndarray:
        """The header bytes before the sequence field, worker bits clear."""
        packed = _HEADER.pack(
            MAGIC,
            VERSION2,
            FLAG_CHECKSUM if self.checksum else 0,
            self.segment_id,
            self.num_blocks,
            self.block_size,
            0,
        )
        return np.frombuffer(packed[:_SEQ_OFFSET], dtype=np.uint8)


#: Mask applied to received fixed header bytes under an
#: :class:`ExpectedHeader`: everything but the worker stamp.
_EXPECT_MASK = np.full(_SEQ_OFFSET, 0xFF, dtype=np.uint8)
_EXPECT_MASK[5] = FLAG_CHECKSUM


def unpack_blocks(
    data,
    *,
    copy: bool = False,
    strict: bool = True,
    stats: WireStats | None = None,
    expect: ExpectedHeader | None = None,
) -> BlockBatch:
    """Parse a homogeneous frame stream into one :class:`BlockBatch`.

    This is the vectorized intake path: the whole buffer is viewed as an
    (m, frame_size) byte matrix, headers are validated with one batched
    comparison, digests are verified in one vectorized pass,
    and the returned coefficient/payload matrices are zero-copy strided
    views into ``data`` (pass ``copy=True`` to detach them, e.g. when
    the receive buffer will be reused).  The matrices feed
    :meth:`~repro.rlnc.decoder.ProgressiveDecoder.consume_batch`,
    :meth:`~repro.rlnc.decoder.TwoStageDecoder.add_batch` and
    :meth:`~repro.rlnc.recoder.Recoder.add_batch` directly.

    Without ``expect``, the stream's framing and reference header come
    from its first frame.  With ``expect`` (the receive path of a client
    or relay), they come from the receiver: every frame is checked
    against the expected header, so damage to any frame — the first
    included — stays local to that frame.

    In lenient mode (``strict=False``) damaged frames are dropped and
    counted in ``stats`` (the returned batch then holds copies of only
    the surviving rows), and a torn tail is counted as one malformed
    frame instead of raising.  Without ``expect``, a frame whose header
    bytes differ from the first frame's is malformed, and damage to the
    *first* frame's geometry fields raises :class:`WireError` in both
    modes.  With ``expect``, each frame whose header bytes differ from
    the expected ones is re-parsed on its own by :func:`unpack_frame`,
    so it is accounted exactly as that function and the receiver's
    segment/geometry check would account it — and a frame whose only
    damage left it parseable and matching (say, a cleared checksum
    flag) survives.  Clean frames never take that path.

    Raises:
        WireError: on empty input (without ``expect``), truncation, bad
            magic/version, or (strict) mismatched headers and torn
            streams.  Use :func:`decode_stream` for heterogeneous
            streams.
        IntegrityError: (strict) on any checksum failure.
    """
    view = memoryview(data)
    if expect is None:
        flags, segment_id, n, k, _ = _parse_header(view, 0)
        has_checksum = bool(flags & FLAG_CHECKSUM)
    else:
        segment_id = expect.segment_id
        n, k = expect.num_blocks, expect.block_size
        has_checksum = expect.checksum
    size_one = frame_size(n, k, checksum=has_checksum)
    tail = len(view) % size_one
    if tail and strict:
        raise WireError(
            f"stream length {len(view)} is not a multiple of the frame "
            f"size {size_one} (torn frame or mixed geometry)"
        )
    m = len(view) // size_one
    if tail and stats is not None:
        stats.record_malformed()
    if m == 0:
        # Lenient, and the only frame is torn (or nothing arrived).
        return BlockBatch(
            coefficients=np.empty((0, n), dtype=np.uint8),
            payloads=np.empty((0, k), dtype=np.uint8),
            segment_id=segment_id,
        )
    frames = np.frombuffer(view, dtype=np.uint8, count=m * size_one).reshape(
        m, size_one
    )
    # Sequence bytes legitimately differ per frame; everything before
    # them must match the reference header.
    fixed = frames[:, :_SEQ_OFFSET]
    if expect is None:
        matches = np.all(fixed == fixed[0], axis=1)
    else:
        matches = np.all((fixed & _EXPECT_MASK) == expect.fixed_bytes(), axis=1)
    headers_match = bool(matches.all())
    if not headers_match and strict:
        if expect is None:
            raise WireError(
                "heterogeneous stream: frame headers differ "
                "(use decode_stream)"
            )
        raise WireError("frame headers differ from the expected header")
    _wire_counter("wire_bytes_unpacked").inc(int(matches.sum()) * size_one)
    good = matches.copy()
    head = _HEADER.size
    body = head + n + k
    if has_checksum:
        digests = _digest64_rows(
            frames[:, :head],
            frames[:, head : head + n],
            frames[:, head + n : body],
        )
        stored = (
            np.ascontiguousarray(frames[:, body : body + 8])
            .view(">u8")
            .reshape(m)
        )
        verified = stored == digests
        bad = good & ~verified
        if bad.any():
            if strict:
                row = int(np.nonzero(bad)[0][0])
                raise IntegrityError(
                    f"checksum mismatch in frame {row}: stored "
                    f"{int(stored[row]):#018x}, computed "
                    f"{int(digests[row]):#018x}"
                )
            if stats is not None:
                stats.record_checksum_failure(int(bad.sum()))
            good &= verified
    if stats is not None:
        stats.record_ok(int(good.sum()))
    if not headers_match:
        if expect is None:
            if stats is not None:
                stats.record_malformed(int(m - int(matches.sum())))
        else:
            for row in np.flatnonzero(~matches):
                good[row] = _reparse(
                    view[row * size_one : (row + 1) * size_one], expect, stats
                )
    coefficients = frames[:, head : head + n]
    payloads = frames[:, head + n : body]
    if not good.all():
        coefficients = coefficients[good]
        payloads = payloads[good]
    elif copy:
        coefficients = coefficients.copy()
        payloads = payloads.copy()
    return BlockBatch(
        coefficients=coefficients, payloads=payloads, segment_id=segment_id
    )


def _reparse(frame, expect: ExpectedHeader, stats: WireStats | None) -> bool:
    """Account one frame whose header differs from ``expect``.

    The frame is parsed on its own exactly as a per-frame receiver
    would: :func:`unpack_frame` leniently, then the segment and
    geometry check.  Returns True when the frame survives both — its
    coefficient and payload bytes then sit at the expected offsets.
    """
    try:
        block, _, _ = unpack_frame(frame, strict=False, stats=stats)
    except WireError:
        if stats is not None:
            stats.record_malformed()
        return False
    if block is None:
        return False
    if (
        block.segment_id != expect.segment_id
        or block.num_blocks != expect.num_blocks
        or block.block_size != expect.block_size
    ):
        if stats is not None:
            stats.record_malformed()
        return False
    return True


def encode_frame(
    block: CodedBlock, *, checksum: bool = True, sequence: int = 0
) -> bytes:
    """Serialize one coded block to its wire frame."""
    buffer = bytearray(
        frame_size(block.num_blocks, block.block_size, checksum=checksum)
    )
    pack_frame_into(block, buffer, checksum=checksum, sequence=sequence)
    return bytes(buffer)


def decode_frame(frame: bytes) -> CodedBlock:
    """Parse one exact wire frame back into a coded block.

    Raises:
        WireError: on truncation, bad magic/version, or geometry/length
            mismatch.
        IntegrityError: on checksum failure.
    """
    view = memoryview(frame)
    flags, _, n, k, _ = _parse_header(view, 0)
    expected = frame_size(n, k, checksum=bool(flags & FLAG_CHECKSUM))
    if len(view) != expected:
        raise WireError(
            f"frame length {len(view)} does not match geometry "
            f"(n={n}, k={k}, expected {expected})"
        )
    block, _, _ = unpack_frame(view)
    return block


def encode_stream(
    blocks, *, checksum: bool = True, first_sequence: int = 0
) -> bytes:
    """Concatenate frames for a block stream (one up-front allocation).

    Sizes are computed first so the whole stream packs into a single
    buffer via :func:`pack_frame_into` — no per-block ``bytes()``
    intermediates.  Heterogeneous geometries are allowed.  Frames are
    stamped with consecutive sequence numbers.
    """
    blocks = list(blocks)
    sizes = [
        frame_size(block.num_blocks, block.block_size, checksum=checksum)
        for block in blocks
    ]
    buffer = bytearray(sum(sizes))
    offset = 0
    for index, (block, size) in enumerate(zip(blocks, sizes)):
        pack_frame_into(
            block,
            buffer,
            offset,
            checksum=checksum,
            sequence=first_sequence + index,
        )
        offset += size
    return bytes(buffer)


def decode_stream(
    data: bytes, *, strict: bool = True, stats: WireStats | None = None
) -> list[CodedBlock]:
    """Split a concatenated frame stream back into blocks.

    Frames are self-describing, so heterogeneous geometries are
    allowed; in strict mode a torn final frame or any
    integrity failure raises.  In lenient mode damaged frames are
    dropped and counted in ``stats``, and after a frame whose *framing*
    is unparseable (corrupted magic or length fields) the reader
    resynchronizes by scanning for the next magic marker — the
    behaviour a long-lived receive loop needs to survive arbitrary
    corruption.  For homogeneous streams, :func:`unpack_blocks` returns
    the same records as one zero-copy batch instead.
    """
    view = memoryview(data)
    blocks: list[CodedBlock] = []
    offset = 0
    while offset < len(view):
        try:
            block, size, _ = unpack_frame(view, offset, strict=strict, stats=stats)
        except IntegrityError:
            raise
        except WireError:
            if strict:
                raise
            if stats is not None:
                stats.record_malformed()
            # Resynchronize: scan for the next magic marker.
            next_magic = bytes(view[offset + 1 :]).find(MAGIC)
            if next_magic < 0:
                break
            offset += 1 + next_magic
            continue
        if block is not None:
            blocks.append(block)
        offset += size
    return blocks
