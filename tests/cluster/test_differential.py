"""Randomised differential test: both cluster transports agree, step by step.

One hypothesis state machine applies the same random sequence of
operations to a serial (in-process loopback) and a parallel (OS
process) cluster built from the same seed.  After every step the two
must agree on the returned bytes (or the error raised), the cluster
stats and every peer's :class:`~repro.cluster.ClusterPeerView`
counters.  The byte-exact suites in ``test_parallel.py`` pin
hand-picked sequences; this machine searches for the ones nobody
picked.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cluster import ServingCluster
from repro.errors import ReproError
from repro.gpu import GTX280
from repro.rlnc import CodingParams, Segment
from repro.streaming import MediaProfile
from tests.cluster.conftest import capped_workers

pytestmark = pytest.mark.timeout(240)

PROFILE = MediaProfile(params=CodingParams(8, 64))
SEGMENTS = st.integers(0, 5)
PEERS = st.integers(0, 2)
#: Initial workers; add_worker may grow the cluster by one beyond this.
WORKERS = capped_workers(2)


def segment(segment_id: int) -> Segment:
    return Segment.random(
        PROFILE.params,
        np.random.default_rng([11, segment_id]),
        segment_id=segment_id,
    )


def comparable(result):
    """A cluster call's outcome as plain, comparable values."""
    if not isinstance(result, dict):
        return result
    out = {}
    for key, value in result.items():
        if isinstance(value, list):  # format="batches"
            value = [
                (
                    batch.segment_id,
                    batch.coefficients.tobytes(),
                    batch.payloads.tobytes(),
                )
                for batch in value
            ]
        elif isinstance(value, (bytes, memoryview)):  # format="frames"
            value = bytes(value)
        out[key] = value
    return out


def counters(view):
    return (view.blocks_requested, view.blocks_received, view.blocks_pending)


class TransportsAgree(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.clusters = []
        for parallel in (False, True):
            self.clusters.append(
                ServingCluster(
                    GTX280,
                    PROFILE,
                    num_workers=WORKERS,
                    seed=3,
                    per_peer_round_quota=3,
                    max_pending_blocks=24,
                    parallel=parallel,
                )
            )
        #: peer -> the ClusterPeerView each cluster last returned
        self.views: dict[int, list] = {}

    def both(self, method: str, *args, **kwargs):
        """Call ``method`` on both clusters; require the same outcome."""
        outcomes = []
        for cluster in self.clusters:
            try:
                result = getattr(cluster, method)(*args, **kwargs)
            except ReproError as exc:
                outcomes.append(("raised", type(exc), str(exc)))
                continue
            outcomes.append(("returned", comparable(result)))
        serial, parallel = outcomes
        assert serial == parallel, (method, args, kwargs)
        return serial

    @initialize()
    def populate(self):
        # Start from a serving cluster so most asks are admissible;
        # segments 4 and 5 are left for the publish rule.
        for segment_id in range(4):
            self.both("publish", segment(segment_id))
        for peer in range(3):
            self.connect(peer)

    @rule(segment_id=SEGMENTS)
    def publish(self, segment_id):
        self.both("publish", segment(segment_id))

    @rule(peer=PEERS)
    def connect(self, peer):
        self.views[peer] = [cluster.connect(peer) for cluster in self.clusters]

    @rule(peer=PEERS)
    def disconnect(self, peer):
        if self.both("disconnect", peer)[0] == "returned":
            del self.views[peer]

    @rule(peer=PEERS, segment_id=SEGMENTS, count=st.integers(1, 4))
    def request(self, peer, segment_id, count):
        self.both("request_blocks", peer, segment_id, count)

    @rule(count=st.integers(1, 4))
    def request_everything(self, count):
        # Every connected peer asks for every placed segment: enough
        # load for quota carryover and per-worker shedding.
        for peer in sorted(self.views):
            for segment_id in sorted(self.clusters[0].placement()):
                self.both("request_blocks", peer, segment_id, count)

    @rule(format=st.sampled_from(["batches", "frames"]))
    def serve_round(self, format):
        self.both("serve_round", format=format)

    @rule(segment_id=SEGMENTS)
    def evict_segment(self, segment_id):
        if segment_id in self.clusters[0].placement():
            self.both("evict_segment", segment_id)

    @precondition(lambda self: self.clusters[0].num_workers > 0)
    @rule(pick=st.integers(0, 7))
    def kill_worker(self, pick):
        live = self.clusters[0].live_workers
        self.both("kill_worker", live[pick % len(live)])

    @precondition(lambda self: self.clusters[0].num_workers <= WORKERS)
    @rule()
    def add_worker(self):
        self.both("add_worker")

    @invariant()
    def same_state(self):
        serial, parallel = self.clusters
        assert serial.stats.as_dict() == parallel.stats.as_dict()
        assert serial.placement() == parallel.placement()
        assert serial.pending_blocks == parallel.pending_blocks
        for a, b in self.views.values():
            assert counters(a) == counters(b)

    def teardown(self):
        for cluster in self.clusters:
            cluster.close()


TransportsAgree.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
test_transports_agree = TransportsAgree.TestCase
