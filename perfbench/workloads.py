"""The three serving workloads the benchmark drives, closed loop.

Every workload is built from a seed and a size (``full`` is the measured
geometry, ``tiny`` keeps the benchmark's own tests fast) and advances in
rounds: :meth:`Workload.step` runs one round through the public
``ServingEndpoint`` / ``ClientSession`` API and returns the fetches that
finished in it.  A session begins its next segment in the round after
its previous one finished, so load is closed loop: a slower program
receives less of it.

Inputs (segment payloads, coding coefficients, fault schedules) derive
from the seed alone; the program only ever sees the generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.cluster import HashRing
from repro.errors import RetryExhaustedError
from repro.faults import FaultPlan
from repro.gpu.spec import GTX280
from repro.multicast.relay import RelayNode
from repro.multicast.tree import RelayUplink
from repro.rlnc.block import CodingParams, Segment
from repro.rlnc.wire import VERSION2
from repro.serving import ClientSession, ServingCluster, StreamingServer
from repro.streaming.session import MediaProfile

#: Per-workload geometry: ``full`` is what the benchmark measures.
GEOMETRY = {
    "bulk_fanout": {
        "full": {"n": 128, "k": 4096, "sessions": 32, "segments": 4},
        "tiny": {"n": 16, "k": 256, "sessions": 8, "segments": 2},
    },
    "lossy_relay": {
        "full": {"n": 32, "k": 1024, "relays": 2, "leaves": 16,
                 "quota": 4, "payloads": 16},
        "tiny": {"n": 8, "k": 128, "relays": 2, "leaves": 4,
                 "quota": 4, "payloads": 4},
    },
    "cluster_parallel": {
        "full": {"n": 64, "k": 4096, "sessions": 32, "segments": 32,
                 "quota": 16, "workers": 2},
        "tiny": {"n": 16, "k": 256, "sessions": 8, "segments": 8,
                 "quota": 4, "workers": 2},
    },
}

#: Per-hop transport faults of ``lossy_relay``.
DROP_RATE = 0.10
CORRUPT_RATE = 0.02
REORDER_WINDOW = 3


@dataclass
class Fetch:
    """One finished fetch: ``recovered`` is None when the fetch failed."""

    pass_index: int
    session: int
    latency_s: float
    recovered: bytes | None
    expected: bytes


def _payloads(seed: int, count: int, size: int) -> list[bytes]:
    return [
        np.random.default_rng([seed, 0x5E6, index]).bytes(size)
        for index in range(count)
    ]


class Workload:
    """Shared closed-loop bookkeeping; subclasses build and serve."""

    name = ""

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.geometry = GEOMETRY[self.name][size]
        self.params = CodingParams(self.geometry["n"], self.geometry["k"])
        self.profile = MediaProfile(params=self.params)
        self.segment_bytes = self.params.segment_bytes
        self.all_sessions: list[ClientSession] = []
        self._next_peer = 0

    def _connect(self, endpoint, **kwargs) -> ClientSession:
        session = ClientSession(endpoint, self._next_peer, **kwargs)
        self._next_peer += 1
        self.all_sessions.append(session)
        return session

    def setup(self) -> None:
        """Build the endpoint, publish, connect (what ``setup_s`` times)."""
        raise NotImplementedError

    def step(self) -> list[Fetch]:
        """Run one serving round; return the fetches it finished."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the endpoint (and any processes it owns)."""

    @property
    def slots(self) -> int:
        """Concurrent fetches: one per session (or leaf)."""
        raise NotImplementedError

    def in_flight(self) -> int:
        """Fetches begun but not finished."""
        raise NotImplementedError

    def worker_pids(self) -> list[int]:
        return []

    def control_bytes(self) -> int:
        return 0

    def model(self) -> dict[str, float]:
        """Cost-model figures so far (labelled ``model_*``, never gated)."""
        return {}


class _PerSessionLoop(Workload):
    """Sessions that each fetch segment after segment, independently."""

    def __init__(self, seed: int, size: str = "full") -> None:
        super().__init__(seed, size)
        self.payloads = _payloads(
            seed, self.geometry["segments"], self.segment_bytes
        )
        self.segment_ids = list(range(self.geometry["segments"]))

    def setup(self) -> None:
        self.all_sessions = []
        self._next_peer = 0
        self.build()
        count = self.geometry["sessions"]
        self.sessions = [self.new_session() for _ in range(count)]
        self._pass = [0] * count
        self._segment: list[int | None] = [None] * count
        self._began = [0.0] * count

    @property
    def slots(self) -> int:
        return self.geometry["sessions"]

    def in_flight(self) -> int:
        return sum(segment is not None for segment in self._segment)

    def build(self) -> None:
        raise NotImplementedError

    def new_session(self) -> ClientSession:
        raise NotImplementedError

    def segment_for(self, session: int, pass_index: int) -> int:
        return (session + pass_index) % self.geometry["segments"]

    def serve(self) -> dict:
        raise NotImplementedError

    def _fail(self, index: int, finished: list[Fetch]) -> None:
        finished.append(self._fetch(index, None))
        self.sessions[index] = self.new_session()

    def _fetch(self, index: int, recovered: bytes | None) -> Fetch:
        fetch = Fetch(
            pass_index=self._pass[index],
            session=index,
            latency_s=perf_counter() - self._began[index],
            recovered=recovered,
            expected=self.payloads[self._segment[index]],
        )
        self._pass[index] += 1
        self._segment[index] = None
        return fetch

    def step(self) -> list[Fetch]:
        finished: list[Fetch] = []
        for index, session in enumerate(self.sessions):
            if self._segment[index] is None:
                segment = self.segment_for(index, self._pass[index])
                self._segment[index] = segment
                self._began[index] = perf_counter()
                session.begin_segment(self.segment_ids[segment])
        for index, session in enumerate(self.sessions):
            try:
                session.pre_round()
            except RetryExhaustedError:
                self._fail(index, finished)
        frames = self.serve()
        for index, session in enumerate(self.sessions):
            if self._segment[index] is None:
                continue  # failed in pre_round; restarts next round
            try:
                session.intake(frames.get(session.peer_id))
            except RetryExhaustedError:
                self._fail(index, finished)
                continue
            if session.complete:
                segment = session.finish_segment(self.segment_bytes)
                finished.append(self._fetch(index, segment.to_bytes()))
        return finished


class BulkFanout(_PerSessionLoop):
    """One server at the paper geometry; peers share a few hot segments.

    32 sessions over 4 segments put 8 peers on each segment per round,
    so every round is four 1024-row coalesced encodes.  No loss and no
    quota: each fetch completes in one round.
    """

    name = "bulk_fanout"

    def build(self) -> None:
        self.server = StreamingServer(
            GTX280, self.profile, rng=np.random.default_rng([self.seed, 1])
        )
        for segment_id, data in enumerate(self.payloads):
            self.server.publish(
                Segment.from_bytes(data, self.params, segment_id)
            )

    def new_session(self) -> ClientSession:
        return self._connect(self.server)

    def serve(self) -> dict:
        return self.server.serve_round(format="frames", version=VERSION2)

    def model(self) -> dict[str, float]:
        return {"model_gpu_seconds": self.server.stats.gpu_seconds}


class ClusterParallel(_PerSessionLoop):
    """A two-process cluster; every session fetches its own segment.

    On pass ``p`` session ``i`` fetches segment ``(i + p) mod 32``, 16
    blocks per round as v2 frames, so each worker runs one small
    uncoalesced encode per peer.  Rounds are lock-step, split into
    ``begin_round`` (dispatch) and ``collect_round`` (barrier).

    Segment ids are picked so every worker owns the same number of
    segments.  With 32 ids the seeded hash ring puts anywhere from 16/16
    to 23/9 of them on the two workers, and the busier worker holds the
    barrier, so the seed alone would change the work a round waits for.
    """

    name = "cluster_parallel"

    def __init__(self, seed: int, size: str = "full") -> None:
        super().__init__(seed, size)
        self.cluster: ServingCluster | None = None
        self.placement = self._balanced_placement()
        self.segment_ids = sorted(self.placement)

    def _balanced_placement(self) -> dict[int, int]:
        """The lowest ids that put ``segments / workers`` on each worker.

        The ring is built as ``ServingCluster`` builds its own (same
        seed, default vnodes); ``build`` checks the cluster agrees.
        """
        workers = self.geometry["workers"]
        share = self.geometry["segments"] // workers
        ring = HashRing(seed=self.seed)
        for worker_id in range(workers):
            ring.add_worker(worker_id)
        placement: dict[int, int] = {}
        owned = [0] * workers
        segment_id = 0
        while len(placement) < share * workers:
            worker_id = ring.place(segment_id)
            if owned[worker_id] < share:
                owned[worker_id] += 1
                placement[segment_id] = worker_id
            segment_id += 1
        return placement

    def build(self) -> None:
        self.cluster = ServingCluster(
            GTX280,
            self.profile,
            num_workers=self.geometry["workers"],
            seed=self.seed,
            per_peer_round_quota=self.geometry["quota"],
            parallel=True,
        )
        for segment_id, data in zip(self.segment_ids, self.payloads):
            self.cluster.publish(
                Segment.from_bytes(data, self.params, segment_id)
            )
        if self.cluster.placement() != self.placement:
            self.close()
            raise RuntimeError("the cluster placed segments off the balance")

    def new_session(self) -> ClientSession:
        return self._connect(self.cluster)

    def serve(self) -> dict:
        ticket = self.cluster.begin_round(format="frames", version=VERSION2)
        return self.cluster.collect_round(ticket)

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.close()
            self.cluster = None

    def _workers(self) -> list:
        return [self.cluster.worker(w) for w in self.cluster.live_workers]

    def worker_pids(self) -> list[int]:
        return [worker.pid for worker in self._workers()]

    def control_bytes(self) -> int:
        return sum(
            worker.control_bytes_sent + worker.control_bytes_received
            for worker in self._workers()
        )

    def model(self) -> dict[str, float]:
        stats = self.cluster.stats
        return {
            "model_gpu_parallel_seconds": stats.gpu_parallel_seconds,
            "model_gpu_serial_seconds": stats.gpu_serial_seconds,
            "model_speedup": stats.model_speedup,
        }


class LossyRelay(Workload):
    """A root server feeding two recoding relays over lossy hops.

    Each relay serves 16 leaves; root and relays grant at most 4 blocks
    per peer per round, and every hop drops, corrupts and reorders
    frames on a seeded schedule.  All leaves fetch the same live
    segment, then move to the next: pass ``p`` publishes segment ``p``
    on the root and evicts ``p - 1``.  The rounds make the same calls
    as ``MulticastTree.distribute``, so each leaf's completion shows.
    """

    name = "lossy_relay"

    def __init__(self, seed: int, size: str = "full") -> None:
        super().__init__(seed, size)
        self.payloads = _payloads(
            seed, self.geometry["payloads"], self.segment_bytes
        )

    def _plan(self, hop: int) -> FaultPlan:
        return FaultPlan(
            seed=self.seed * 10_007 + hop,
            drop_rate=DROP_RATE,
            corrupt_rate=CORRUPT_RATE,
            reorder_window=REORDER_WINDOW,
        )

    def setup(self) -> None:
        self.all_sessions = []
        self._next_peer = 0
        geometry = self.geometry
        quota = geometry["quota"]
        self.root = StreamingServer(
            GTX280,
            self.profile,
            rng=np.random.default_rng([self.seed, 1]),
            per_peer_round_quota=quota,
        )
        self.relays: list[RelayNode] = []
        self.uplinks: list[RelayUplink] = []
        self.cohorts: list[list[ClientSession]] = []
        for i in range(geometry["relays"]):
            relay = RelayNode(
                self.profile,
                rng=np.random.default_rng([self.seed, 2, i]),
                name=f"relay{i}",
                per_peer_round_quota=quota,
                worker_id=i,
            )
            self.relays.append(relay)
            self.uplinks.append(
                RelayUplink(self.root, relay, i, fault_plan=self._plan(i))
            )
            self.cohorts.append(
                [self._leaf(relay) for _ in range(geometry["leaves"])]
            )
        self._pass = 0
        self._publish(0)
        self._begin_pass()

    def _leaf(self, relay: RelayNode) -> ClientSession:
        # Hop ids past the uplinks keep every leaf's schedule distinct.
        hop = self.geometry["relays"] + self._next_peer
        return self._connect(relay, fault_plan=self._plan(hop))

    def _publish(self, pass_index: int) -> None:
        data = self.payloads[pass_index % len(self.payloads)]
        self.root.publish(Segment.from_bytes(data, self.params, pass_index))

    def _begin_pass(self) -> None:
        self._done: set[tuple[int, int]] = set()
        self._began = perf_counter()
        for cohort in self.cohorts:
            for session in cohort:
                session.begin_segment(self._pass)

    def _finish(self, r: int, j: int, recovered: bytes | None) -> Fetch:
        self._done.add((r, j))
        return Fetch(
            pass_index=self._pass,
            session=r * self.geometry["leaves"] + j,
            latency_s=perf_counter() - self._began,
            recovered=recovered,
            expected=self.payloads[self._pass % len(self.payloads)],
        )

    def _fail(self, r: int, j: int) -> Fetch:
        fetch = self._finish(r, j, None)
        self.cohorts[r][j] = self._leaf(self.relays[r])
        return fetch

    def step(self) -> list[Fetch]:
        if len(self._done) == sum(len(c) for c in self.cohorts):
            self.root.evict_segment(self._pass)
            self._pass += 1
            self._publish(self._pass)
            self._begin_pass()
        segment_id = self._pass
        finished: list[Fetch] = []
        for uplink in self.uplinks:
            uplink.pre_round(segment_id)
        if self.root.pending_blocks > 0:
            frames = self.root.serve_round(format="frames", version=VERSION2)
            for uplink in self.uplinks:
                uplink.intake(segment_id, frames.get(uplink.peer_id))
        for r, (relay, cohort) in enumerate(zip(self.relays, self.cohorts)):
            if relay.held(segment_id) == 0:
                continue
            active = [j for j in range(len(cohort)) if (r, j) not in self._done]
            for j in list(active):
                try:
                    cohort[j].pre_round()
                except RetryExhaustedError:
                    finished.append(self._fail(r, j))
                    active.remove(j)
            served = (
                relay.serve_round(format="frames", version=VERSION2)
                if relay.pending_requests
                else {}
            )
            for j in active:
                session = cohort[j]
                try:
                    session.intake(served.get(session.peer_id))
                except RetryExhaustedError:
                    finished.append(self._fail(r, j))
                    continue
                if session.complete:
                    segment = session.finish_segment(self.segment_bytes)
                    finished.append(self._finish(r, j, segment.to_bytes()))
        return finished

    @property
    def slots(self) -> int:
        return self.geometry["relays"] * self.geometry["leaves"]

    def in_flight(self) -> int:
        return self.slots - len(self._done)

    def model(self) -> dict[str, float]:
        return {"model_gpu_seconds": self.root.stats.gpu_seconds}


WORKLOADS = {
    cls.name: cls for cls in (BulkFanout, LossyRelay, ClusterParallel)
}
