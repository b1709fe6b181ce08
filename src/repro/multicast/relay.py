"""Recoder-equipped relay nodes behind the unified serving protocol.

The defining move of network coding inside a distribution tree: an
interior node need not *decode* to serve — it buffers whatever coded
blocks reach it and emits fresh random combinations downstream
(:meth:`~repro.rlnc.recoder.Recoder.recode_matrix`, one pair of engine
matmuls per serving round).  "RLNC on Programmable Switches" puts this
recoding in the network fabric; here it lives behind the *same*
:class:`~repro.serving.ServingEndpoint` protocol as a
:class:`~repro.streaming.server.StreamingServer` and a
:class:`~repro.cluster.ServingCluster` — ``publish`` / ``connect`` /
``request_blocks`` / ``serve_round`` / ``stats_snapshot``, plus the
pipelined ``begin_round`` / ``collect_round`` pair — so a
:class:`~repro.streaming.client.ClientSession` (or another relay's
uplink) cannot tell a relay from an origin server, and any endpoint can
be an interior node of a multicast tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CapacityError, ConfigurationError
from repro.obs.registry import get_registry
from repro.obs.stats import CumulativeStats
from repro.rlnc.block import BlockBatch, Segment
from repro.rlnc.recoder import Recoder

# The packer stays importable here for code that wraps the relay's
# names; rounds pack through the shared RoundServer loop.
from repro.rlnc.wire import pack_blocks  # noqa: F401
from repro.streaming.server import RoundServer
from repro.streaming.session import MediaProfile


@dataclass
class RelayStats(CumulativeStats):
    """Aggregate accounting for one relay lifetime.

    The same explicit cumulative ``snapshot()/delta()/reset()`` contract
    as :class:`~repro.streaming.server.ServerStats` — the relay only
    ever adds to these counters.  ``bytes_served`` counts payload bytes
    (blocks × ``block_size``) on both round formats, as the server's
    does.
    """

    segments_published: int = 0
    blocks_ingested: int = 0
    blocks_recoded: int = 0
    recode_calls: int = 0
    blocks_served: int = 0
    bytes_served: int = 0
    rounds_served: int = 0
    sessions_evicted: int = 0


class RelayNode(RoundServer):
    """A recoding interior node implementing the serving protocol.

    The session table, request queue, round planning, fan-out, frame
    packing and ticket pair are the shared
    :class:`~repro.streaming.server.RoundServer` round; the relay
    contributes its buffer (servable once it holds a block of the
    segment) and its emission (one
    :meth:`~repro.rlnc.recoder.Recoder.recode_matrix` per segment per
    round — one mix-matrix draw, one pair of engine matmuls).

    Args:
        profile: media/coding configuration (shared by the whole tree).
        rng: randomness source for recoding mix coefficients; pass a
            seeded generator (``default_rng([seed, relay_index])``) for
            deterministic trees.
        name: label used in stats and error messages.
        per_peer_round_quota: most blocks one downstream peer may be
            granted per serving round (``None`` = unbounded).
        worker_id: optional cluster-style stamp carried on the frames
            this relay packs.
    """

    def __init__(
        self,
        profile: MediaProfile,
        *,
        rng: np.random.Generator | None = None,
        name: str = "relay",
        per_peer_round_quota: int | None = None,
        worker_id: int | None = None,
    ) -> None:
        super().__init__(
            profile,
            rng=rng,
            per_peer_round_quota=per_peer_round_quota,
            worker_id=worker_id,
        )
        self.name = name
        self._recoders: dict[int, Recoder] = {}
        self.stats = RelayStats()
        registry = get_registry()
        self._m_ingested = registry.counter("relay_blocks_ingested")
        self._m_recoded = registry.counter("relay_blocks_recoded")
        self._m_rounds = registry.counter("relay_rounds_served")
        self._m_bytes = registry.counter("relay_bytes_served")

    # -- upstream side ------------------------------------------------------

    def publish(self, segment: Segment) -> None:
        """Make a segment servable by seeding the recoder with originals.

        A relay holding the source data *is* a valid tree root: the n
        original blocks enter the buffer with identity coefficient rows,
        so every recoded emission is a uniformly random combination of
        the full segment — indistinguishable downstream from an origin
        server's encode.
        """
        if segment.params != self.profile.params:
            raise ConfigurationError(
                f"segment geometry {segment.params} does not match profile "
                f"{self.profile.params}"
            )
        recoder = self._recoder_for(segment.segment_id)
        n = self.profile.params.num_blocks
        recoder.add_batch(
            np.eye(n, dtype=np.uint8), np.ascontiguousarray(segment.blocks)
        )
        self.stats.segments_published += 1
        self.stats.blocks_ingested += n
        self._m_ingested.inc(n)

    def ingest(self, batch: BlockBatch) -> int:
        """Buffer upstream coded blocks for recombination; returns count.

        The relay's receive path: whatever an uplink unpacked from its
        parent's frames lands here (no decode; dependent blocks are
        kept too, and :meth:`rank` tells the uplink what they span).
        """
        recoder = self._recoder_for(batch.segment_id)
        count = len(batch)
        if count:
            recoder.add_batch(batch)
            self.stats.blocks_ingested += count
            self._m_ingested.inc(count)
        return count

    def held(self, segment_id: int) -> int:
        """Coded blocks buffered for a segment (0 when unknown)."""
        recoder = self._recoders.get(segment_id)
        return 0 if recoder is None else recoder.buffered

    def rank(self, segment_id: int) -> int:
        """Rank of the blocks buffered for a segment (0 when unknown)."""
        recoder = self._recoders.get(segment_id)
        return 0 if recoder is None else recoder.rank

    def _recoder_for(self, segment_id: int) -> Recoder:
        recoder = self._recoders.get(segment_id)
        if recoder is None:
            recoder = Recoder(self.profile.params, segment_id)
            self._recoders[segment_id] = recoder
        return recoder

    # -- RoundServer hooks ---------------------------------------------------

    def _require_servable(self, segment_id: int) -> None:
        if self.held(segment_id) == 0:
            raise CapacityError(
                f"relay {self.name!r} holds no blocks of segment "
                f"{segment_id} yet"
            )

    def _emit(
        self, segment_id: int, counts: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        total = sum(counts)
        batch = self._recoders[segment_id].recode_matrix(total, self._rng)
        self.stats.recode_calls += 1
        self.stats.blocks_recoded += total
        self._m_recoded.inc(total)
        return batch.coefficients, batch.payloads

    def stats_snapshot(self) -> dict:
        """A registry-shaped counters/gauges/histograms snapshot."""
        stats = self.stats
        return {
            "counters": {
                "relay_blocks_ingested": float(stats.blocks_ingested),
                "relay_blocks_recoded": float(stats.blocks_recoded),
                "relay_blocks_served": float(stats.blocks_served),
                "relay_bytes_served": float(stats.bytes_served),
                "relay_recode_calls": float(stats.recode_calls),
                "relay_rounds_served": float(stats.rounds_served),
                "relay_segments_published": float(stats.segments_published),
                "relay_sessions_evicted": float(stats.sessions_evicted),
            },
            "gauges": {
                "relay_queue_blocks": float(self.pending_blocks),
                "relay_queue_depth": float(len(self._queue)),
                "relay_segments_buffered": float(len(self._recoders)),
            },
            "histograms": {},
        }
