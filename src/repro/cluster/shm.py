"""Shared-memory block buffers: the cluster's zero-copy data plane.

The parallel cluster splits traffic into two planes.  Control messages
(requests, round commands, stats deltas) are small pickled tuples on a
command pipe; block payloads never ride that pipe.  Instead each worker
process owns one :class:`BlockRing` — a ``multiprocessing.shared_memory``
segment both sides map — and the worker's :class:`~repro.streaming.server
.StreamingServer` packs its round straight into the ring with the same
:func:`~repro.rlnc.wire.pack_blocks` fast path it uses in-process.  The
parent then hands clients ``memoryview`` slices of the mapped ring, so
the PR 2 zero-copy wire contract (pack into a reused buffer, unpack as
strided views) survives the process boundary without a single payload
byte being pickled.

Layout of one ring (offsets are absolute within the segment)::

    +-----------------------+----------------------------------------+
    |  inbox (segment_bytes)|  frame arena (capacity bytes)          |
    +-----------------------+----------------------------------------+
    0                       inbox_bytes                 inbox_bytes+capacity

* The **inbox** carries parent -> worker segment payloads on publish
  (the control message names only the geometry), so even the publish
  path moves block bytes through shared memory.
* The **frame arena** carries worker -> parent round output.  The
  worker reserves a contiguous span per round with :meth:`BlockRing.
  reserve`; spans wrap to the arena start when they would overflow,
  mirroring the single-process contract that a round's frames are valid
  only until that worker's next round.

Ownership: the parent *creates* rings and is the only side that ever
unlinks them (so a SIGKILLed worker can never strand a segment it
owned); workers *attach* by name.  Parent and workers share one
``resource_tracker`` process, and the parent's unlink unregisters each
name exactly once — no spurious leak warnings, no double unregister.
Ring names share the :data:`RING_NAME_PREFIX` so test harnesses can
sweep ``/dev/shm`` for leaks.

In-process workers use :meth:`BlockRing.private` instead: the same
layout over process-private memory, with nothing in ``/dev/shm``.
"""

from __future__ import annotations

import mmap
import os
import secrets
from multiprocessing import shared_memory

from repro.errors import ConfigurationError

#: Prefix of every shared-memory segment this module creates; the test
#: suite's teardown fixture reaps anything matching it in ``/dev/shm``.
RING_NAME_PREFIX = "repro-ring-"

#: Mappings whose close() hit a BufferError (a client still held frame
#: views).  Kept referenced so ``SharedMemory.__del__`` cannot fire a
#: second doomed close mid-run; each is retried — and usually succeeds,
#: the views having died — on the next ring close.
_pinned: list[shared_memory.SharedMemory] = []


def _sweep_pinned() -> None:
    still_pinned = []
    for shm in _pinned:
        try:
            shm.close()
        except BufferError:
            still_pinned.append(shm)
    _pinned[:] = still_pinned


class _PrivateMemory:
    """The ``SharedMemory`` surface a ring uses, over an anonymous private
    mapping (zero pages on first touch, as a shared segment has) that
    lives as long as the ring or any frame view exported from it."""

    def __init__(self, size: int) -> None:
        self.name = f"private-{secrets.token_hex(4)}"
        self.buf = memoryview(mmap.mmap(-1, size))

    def close(self) -> None:
        pass

    unlink = close


class BlockRing:
    """One worker's shared-memory segment: publish inbox + frame arena.

    Args:
        shm: the mapped segment.
        capacity: frame-arena bytes (everything past the inbox).
        inbox_bytes: bytes reserved at offset 0 for parent->worker
            segment publishes (one full media segment).
        owner: True on the creating (parent) side; only the owner
            unlinks.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        *,
        capacity: int,
        inbox_bytes: int,
        owner: bool,
    ) -> None:
        self._shm = shm
        self.capacity = capacity
        self.inbox_bytes = inbox_bytes
        self._owner = owner
        self._head = 0
        self._closed = False
        self._unlinked = False

    @classmethod
    def create(cls, *, capacity: int, inbox_bytes: int = 0) -> "BlockRing":
        """Create and map a fresh ring (parent side; owns the unlink)."""
        if capacity < 1:
            raise ConfigurationError(f"ring capacity must be >= 1, got {capacity}")
        name = f"{RING_NAME_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=inbox_bytes + capacity
        )
        return cls(shm, capacity=capacity, inbox_bytes=inbox_bytes, owner=True)

    @classmethod
    def private(cls, *, capacity: int, inbox_bytes: int = 0) -> "BlockRing":
        """A ring in process-private memory (in-process workers)."""
        shm = _PrivateMemory(inbox_bytes + capacity)
        return cls(shm, capacity=capacity, inbox_bytes=inbox_bytes, owner=True)

    @classmethod
    def attach(
        cls, name: str, *, capacity: int, inbox_bytes: int = 0
    ) -> "BlockRing":
        """Map an existing ring by name (worker side; never unlinks).

        Attaching re-registers the name with the ``resource_tracker``
        (Python < 3.13 has no ``track=False``), but parent and worker
        share one tracker process whose cache is a set — the duplicate
        registration dedups, and the parent's unlink performs the one
        unregister.  Unregistering here too would make that later
        unregister a tracker-side KeyError.
        """
        shm = shared_memory.SharedMemory(name=name)
        return cls(shm, capacity=capacity, inbox_bytes=inbox_bytes, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def buffer(self) -> memoryview:
        """The whole mapped segment (inbox + arena)."""
        return self._shm.buf

    @property
    def inbox(self) -> memoryview:
        """The publish inbox: the first ``inbox_bytes`` of the segment."""
        return self._shm.buf[: self.inbox_bytes]

    def reserve(self, size: int) -> int:
        """Claim a contiguous arena span; return its absolute offset.

        Spans are bump-allocated; a span that would overflow the arena
        wraps to the start, invalidating whatever a previous round left
        there — the same "valid until the next round" lifetime the
        in-process frames path promises.
        """
        if size > self.capacity:
            raise ConfigurationError(
                f"round needs {size} arena bytes but the ring holds "
                f"{self.capacity}; grow the ring before dispatching"
            )
        if self._head + size > self.capacity:
            self._head = 0
        offset = self.inbox_bytes + self._head
        self._head += size
        return offset

    def view(self, offset: int, length: int) -> memoryview:
        """A zero-copy slice of the segment (absolute ``offset``)."""
        return self._shm.buf[offset : offset + length]

    @property
    def closed(self) -> bool:
        """True once this side's mapping has been released (or pinned)."""
        return self._closed

    def close(self) -> None:
        """Unmap this side's view (best-effort: exported frame views may
        pin the mapping until they are garbage collected).

        Idempotent: supervisor restart cycles route a dying worker's
        ring through both the explicit teardown and the weakref
        finalizer, so a second close must neither double-pin the
        mapping nor re-raise the original ``BufferError``.  The pinned
        sweep always runs — every close is a chance to release
        mappings an earlier round's exported views kept alive.
        """
        _sweep_pinned()
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except BufferError:
            # A client still holds a frames memoryview from the last
            # round.  The file itself is reaped by unlink(); pin the
            # mapping so its __del__ doesn't retry the close and spray
            # "Exception ignored" noise — a later sweep releases it.
            _pinned.append(self._shm)

    def unlink(self) -> None:
        """Remove the backing segment (owner side only; idempotent).

        Only the first call touches the filesystem and the resource
        tracker — repeat unlinks across restart/teardown cycles are
        no-ops, never a double tracker unregister.
        """
        if not self._owner or self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass
