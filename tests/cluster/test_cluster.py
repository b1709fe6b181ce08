"""Tests for the sharded serving cluster: routing, failover, rollups."""

import os

import numpy as np
import pytest

from repro.cluster import ServingCluster, run_cluster_workload
from repro.cluster.worker import LoopbackWorker
from repro.errors import CapacityError, ConfigurationError, RetryLater
from repro.faults import WorkerChaosSpec, WorkerKillPlan
from repro.gpu import GTX280
from repro.rlnc import CodingParams, Segment, frame_worker_id
from repro.streaming import MediaProfile
from tests.cluster.conftest import capped_workers

SMALL_PROFILE = MediaProfile(params=CodingParams(8, 64))

#: Every seeded workload runs on both execution substrates.
BOTH_SUBSTRATES = pytest.mark.parametrize(
    "parallel", [False, True], ids=["serial", "parallel"]
)


def make_cluster(num_workers=4, seed=7, **kwargs):
    return ServingCluster(
        GTX280, SMALL_PROFILE, num_workers=num_workers, seed=seed, **kwargs
    )


def make_segment(segment_id=0, seed=1):
    return Segment.random(
        SMALL_PROFILE.params, np.random.default_rng(seed), segment_id=segment_id
    )


def publish_many(cluster, count):
    segments = [make_segment(i, seed=100 + i) for i in range(count)]
    for segment in segments:
        cluster.publish(segment)
    return segments


class TestPlacementRouting:
    @BOTH_SUBSTRATES
    def test_requests_land_on_the_owning_worker(self, parallel):
        with make_cluster(
            num_workers=capped_workers(4) if parallel else 4,
            parallel=parallel,
        ) as cluster:
            publish_many(cluster, 8)
            cluster.connect(1)
            placement = cluster.placement()
            for segment_id, owner in placement.items():
                before = cluster.worker(owner).pending_blocks
                cluster.request_blocks(1, segment_id, 2)
                assert cluster.worker(owner).pending_blocks == before + 2
            queued = sum(
                cluster.worker(w).pending_blocks for w in cluster.live_workers
            )
            assert queued == 2 * len(placement) == cluster.pending_blocks

    def test_placement_is_deterministic_given_seed(self):
        a = make_cluster(seed=5)
        b = make_cluster(seed=5)
        publish_many(a, 16)
        publish_many(b, 16)
        assert a.placement() == b.placement()

    def test_unplaced_segment_is_a_clean_capacity_error(self):
        cluster = make_cluster()
        cluster.connect(1)
        with pytest.raises(CapacityError):
            cluster.request_blocks(1, 99, 2)

    def test_double_publish_rejected(self):
        cluster = make_cluster()
        segment = make_segment(0)
        cluster.publish(segment)
        with pytest.raises(ConfigurationError):
            cluster.publish(segment)

    def test_unknown_peer_rejected(self):
        cluster = make_cluster()
        publish_many(cluster, 1)
        with pytest.raises(ConfigurationError):
            cluster.request_blocks(42, 0, 2)

    def test_disconnect_matches_single_server_contract(self):
        # Evicted peer -> CapacityError (clean rejection the retry loop
        # surfaces); never-connected stays ConfigurationError; reconnect
        # re-admits.  Same contract as StreamingServer.disconnect.
        cluster = make_cluster()
        publish_many(cluster, 1)
        cluster.connect(1)
        cluster.disconnect(1)
        with pytest.raises(CapacityError):
            cluster.request_blocks(1, 0, 2)
        cluster.connect(1)
        assert cluster.request_blocks(1, 0, 2) is None


class TestWorkerStamping:
    def test_v2_frames_carry_the_owning_workers_id(self):
        cluster = make_cluster()
        publish_many(cluster, 8)
        cluster.connect(1)
        placement = cluster.placement()
        for segment_id in placement:
            cluster.request_blocks(1, segment_id, 1)
        frames = cluster.serve_round(format="frames")
        stamped = set()
        payload = bytes(frames[1])
        offset = 0
        n, k = SMALL_PROFILE.params.num_blocks, SMALL_PROFILE.params.block_size
        from repro.rlnc import frame_size

        step = frame_size(n, k)
        while offset < len(payload):
            stamped.add(frame_worker_id(payload, offset))
            offset += step
        assert stamped == set(placement.values())


class TestAdmission:
    def test_cluster_level_retry_later(self):
        cluster = make_cluster(max_cluster_pending_blocks=4)
        publish_many(cluster, 2)
        cluster.connect(1)
        assert cluster.request_blocks(1, 0, 4) is None
        response = cluster.request_blocks(1, 1, 4)
        assert isinstance(response, RetryLater)
        assert cluster.stats.retry_later_responses == 1

    @BOTH_SUBSTRATES
    def test_worker_level_retry_later_propagates(self, parallel):
        with make_cluster(
            num_workers=capped_workers(4) if parallel else 4,
            max_pending_blocks=4,
            parallel=parallel,
        ) as cluster:
            publish_many(cluster, 1)
            cluster.connect(1)
            cluster.connect(2)
            owner = cluster.placement()[0]
            assert cluster.request_blocks(1, 0, 4) is None
            response = cluster.request_blocks(2, 0, 4)
            assert isinstance(response, RetryLater)
            stats = cluster.worker(owner).server_stats()
            assert stats["retry_later_responses"] == 1
            assert cluster.stats.retry_later_responses == 1


class TestEvictionWithdrawsPlacement:
    def test_cluster_eviction_stops_advertising(self):
        cluster = make_cluster()
        publish_many(cluster, 4)
        cluster.connect(1)
        cluster.evict_segment(2)
        assert 2 not in cluster.placement()
        assert cluster.stats.segments_withdrawn == 1
        with pytest.raises(CapacityError):
            cluster.request_blocks(1, 2, 1)

    def test_worker_local_eviction_notifies_the_router(self):
        # The PR 5 fix: a worker evicting behind the cluster's back
        # (live window sliding) must withdraw the ring advertisement.
        cluster = make_cluster()
        publish_many(cluster, 4)
        cluster.connect(1)
        owner = cluster.placement()[3]
        cluster.worker(owner).evict_segment(3)
        assert 3 not in cluster.placement()
        with pytest.raises(CapacityError):
            cluster.request_blocks(1, 3, 1)

    @BOTH_SUBSTRATES
    def test_stale_eviction_after_rebalance_keeps_new_owner(self, parallel):
        # add_worker evicts every migrated segment from its previous
        # owner; that owner's eviction event is stale and must not
        # un-place the newcomer's copy.
        with make_cluster(
            num_workers=capped_workers(2), parallel=parallel
        ) as cluster:
            publish_many(cluster, 16)
            before = cluster.placement()
            stored = {
                w: cluster.worker(w).server_stats()["segments_stored"]
                for w in cluster.live_workers
            }
            moved = cluster.add_worker()
            assert moved
            for segment_id, new_owner in moved.items():
                assert cluster.placement()[segment_id] == new_owner
            # The previous owners really evicted (so the stale events
            # fired), yet nothing was withdrawn and every moved segment
            # still serves from its new owner.
            for w, count in stored.items():
                lost = sum(1 for s in moved if before[s] == w)
                stats = cluster.worker(w).server_stats()
                assert stats["segments_stored"] == count - lost
            assert cluster.stats.segments_withdrawn == 0
            assert cluster.stored_segments == 16
            cluster.connect(1)
            for segment_id in moved:
                assert cluster.request_blocks(1, segment_id, 1) is None


class TestFailover:
    def test_rebalance_moves_only_the_dead_workers_segments(self):
        cluster = make_cluster(seed=5)
        publish_many(cluster, 16)
        before = cluster.placement()
        victims = [w for w in cluster.live_workers if w in before.values()]
        dead = victims[0]
        moved = cluster.kill_worker(dead)
        after = cluster.placement()
        assert set(moved) == {s for s, w in before.items() if w == dead}
        for segment_id, owner in before.items():
            if owner == dead:
                assert after[segment_id] != dead
            else:
                assert after[segment_id] == owner
        assert cluster.stats.segments_rebalanced == len(moved)
        assert cluster.stats.workers_killed == 1

    def test_rebalance_is_deterministic(self):
        runs = []
        for _ in range(2):
            cluster = make_cluster(seed=9)
            publish_many(cluster, 16)
            runs.append(cluster.kill_worker(cluster.live_workers[0]))
        assert runs[0] == runs[1]

    def test_moved_segments_are_servable_on_the_new_owner(self):
        cluster = make_cluster(seed=5)
        segments = publish_many(cluster, 8)
        cluster.connect(1)
        dead = cluster.placement()[segments[0].segment_id]
        moved = cluster.kill_worker(dead)
        for segment_id, new_owner in moved.items():
            assert cluster.request_blocks(1, segment_id, 2) is None
            assert cluster.worker(new_owner).pending_blocks >= 2

    def test_killing_the_last_worker_is_rejected(self):
        cluster = make_cluster(num_workers=1)
        publish_many(cluster, 1)
        with pytest.raises(ConfigurationError):
            cluster.kill_worker(0)

    def test_dead_worker_is_not_inspectable(self):
        cluster = make_cluster()
        cluster.kill_worker(2)
        with pytest.raises(ConfigurationError):
            cluster.worker(2)


class TestStatsRollup:
    def test_snapshot_has_worker_labels_and_cluster_counters(self):
        cluster = make_cluster(num_workers=2)
        publish_many(cluster, 4)
        cluster.connect(1)
        for segment_id in range(4):
            cluster.request_blocks(1, segment_id, 2)
        cluster.serve_round()
        snap = cluster.stats_snapshot()
        assert snap["counters"]['server_rounds_served{worker="0"}'] >= 0
        assert snap["counters"]["cluster_rounds_served"] == 1.0
        assert snap["gauges"]["cluster_live_workers"] == 2.0
        served = sum(
            snap["counters"][f'server_blocks_served{{worker="{w}"}}']
            for w in cluster.live_workers
        )
        assert served == snap["counters"]["cluster_blocks_served"] == 8.0

    @BOTH_SUBSTRATES
    def test_parallel_timeline_is_the_critical_path(self, parallel):
        with make_cluster(
            num_workers=capped_workers(4) if parallel else 4,
            parallel=parallel,
        ) as cluster:
            publish_many(cluster, 8)
            cluster.connect(1)
            for segment_id in range(8):
                cluster.request_blocks(1, segment_id, 4)
            cluster.serve_round()
            stats = cluster.stats
            per_worker = [
                cluster.worker(w).server_stats()["gpu_seconds"]
                for w in cluster.live_workers
            ]
            assert stats.gpu_serial_seconds == pytest.approx(sum(per_worker))
            assert stats.gpu_parallel_seconds == pytest.approx(max(per_worker))
            assert stats.model_speedup > 1.0


class TestSeededWorkloads:
    @BOTH_SUBSTRATES
    def test_64_sessions_over_4_workers_decode_byte_exactly(self, parallel):
        report = run_cluster_workload(
            num_workers=capped_workers(4) if parallel else 4,
            num_peers=64,
            num_segments=16,
            params=CodingParams(16, 256),
            seed=0,
            parallel=parallel,
        )
        assert report.parallel == parallel
        assert report.byte_exact
        assert not report.undecoded_peers
        assert not report.mismatched_peers
        assert report.stats.model_speedup > 1.0

    @BOTH_SUBSTRATES
    def test_soak_survives_worker_kill_at_twenty_percent(self, parallel):
        num_workers = capped_workers(4) if parallel else 4
        if num_workers < 2:
            pytest.skip("kill soak needs two workers under the cap")
        plan = WorkerKillPlan(
            seed=2, num_workers=num_workers, kill_at_progress=0.2
        )
        report = run_cluster_workload(
            num_workers=num_workers,
            num_peers=32,
            num_segments=16,
            params=CodingParams(16, 256),
            seed=2,
            per_peer_round_quota=2,
            kill_plan=plan,
            parallel=parallel,
        )
        assert report.killed_worker == plan.victim
        assert report.kill_round is not None and report.kill_round > 0
        assert plan.log[0].action == "worker_kill"
        # every moved segment belonged to the victim, and the survivors
        # finished every session byte-exactly with zero undecodables
        for segment_id in report.moved_segments:
            assert report.placement_before[segment_id] == plan.victim
        assert report.byte_exact
        assert not report.undecoded_peers
        assert report.stats.workers_killed == 1

    @BOTH_SUBSTRATES
    def test_workload_is_reproducible(self, parallel):
        kwargs = dict(
            num_workers=capped_workers(3) if parallel else 3,
            num_peers=6,
            num_segments=6,
            params=CodingParams(8, 64),
            seed=4,
            per_peer_round_quota=2,
            parallel=parallel,
        )
        a = run_cluster_workload(**kwargs)
        b = run_cluster_workload(**kwargs)
        assert a.rounds == b.rounds
        assert a.placement_before == b.placement_before
        assert a.stats.as_dict() == b.stats.as_dict()


class TestConstruction:
    def test_worker_count_bounds(self):
        with pytest.raises(ConfigurationError):
            make_cluster(num_workers=0)
        with pytest.raises(ConfigurationError):
            make_cluster(num_workers=128)

    def test_bad_cluster_admission_bound(self):
        with pytest.raises(ConfigurationError):
            make_cluster(max_cluster_pending_blocks=0)

    def test_in_process_workers_hold_no_os_resources(self):
        cluster = make_cluster()
        for worker_id in cluster.live_workers:
            handle = cluster.worker(worker_id)
            assert handle.pid is None
            assert not os.path.exists(f"/dev/shm/{handle.ring.name}")
        # A scheduled crash on an in-process worker would exit the caller.
        with pytest.raises(ConfigurationError):
            LoopbackWorker(
                0, GTX280, SMALL_PROFILE, chaos=WorkerChaosSpec("crash")
            )

    def test_failed_publish_rolls_back_placement(self):
        cluster = make_cluster()
        wrong = Segment.random(CodingParams(4, 64), np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            cluster.publish(wrong)
        assert cluster.stored_segments == 0


class TestElasticMembership:
    def test_add_worker_moves_only_the_newcomers_segments(self):
        cluster = make_cluster(num_workers=2)
        publish_many(cluster, 16)
        before = cluster.placement()
        moved = cluster.add_worker()
        after = cluster.placement()
        assert set(moved.values()) <= {2}
        # Everything that changed owners changed *to* the newcomer;
        # everything else stayed exactly where it was.
        changed = {
            sid for sid, owner in after.items() if before[sid] != owner
        }
        assert changed == set(moved)
        assert all(after[sid] == 2 for sid in changed)

    def test_remove_worker_restores_prior_placement(self):
        cluster = make_cluster(num_workers=2)
        publish_many(cluster, 16)
        before = cluster.placement()
        cluster.add_worker()
        cluster.remove_worker(2)
        assert cluster.placement() == before
        assert cluster.num_workers == 2

    def test_membership_accounting(self):
        cluster = make_cluster(num_workers=2)
        publish_many(cluster, 8)
        moved_up = cluster.add_worker()
        moved_down = cluster.remove_worker(2)
        stats = cluster.stats
        assert stats.workers_added == 1
        assert stats.workers_removed == 1
        assert stats.workers_killed == 0
        assert stats.segments_rebalanced == len(moved_up) + len(moved_down)
        counters = cluster.stats_snapshot()["counters"]
        assert counters["cluster_workers_added"] == 1
        assert counters["cluster_workers_removed"] == 1

    def test_next_worker_id_recycles_the_smallest_free_id(self):
        cluster = make_cluster(num_workers=3)
        assert cluster.next_worker_id() == 3
        cluster.kill_worker(1)
        assert cluster.next_worker_id() == 1

    def test_add_worker_rejects_live_and_out_of_range_ids(self):
        cluster = make_cluster(num_workers=2)
        with pytest.raises(ConfigurationError):
            cluster.add_worker(1)
        with pytest.raises(ConfigurationError):
            cluster.add_worker(128)
        with pytest.raises(ConfigurationError):
            cluster.add_worker(-1)

    def test_remove_last_worker_with_segments_is_rejected(self):
        cluster = make_cluster(num_workers=1)
        publish_many(cluster, 2)
        with pytest.raises(ConfigurationError):
            cluster.remove_worker(0)

    def test_peers_ride_through_grow_and_shrink(self):
        cluster = make_cluster(num_workers=2)
        publish_many(cluster, 8)
        cluster.connect(1)
        cluster.add_worker()
        # In-flight asks route to whoever owns the segment now.
        for segment_id in range(8):
            assert cluster.request_blocks(1, segment_id, 1) is None
        cluster.serve_round()
        cluster.remove_worker(2)
        for segment_id in range(8):
            assert cluster.request_blocks(1, segment_id, 1) is None
        cluster.serve_round()
        assert cluster.stats.blocks_served == 16

    @BOTH_SUBSTRATES
    def test_served_bytes_survive_scale_events(self, parallel):
        # The same seeded workload, static versus scaled mid-stream:
        # growing then shrinking the ring must never change the bytes
        # a decoding peer ends up with (coefficients are drawn per
        # worker, so equality is decoded-rank progress + block counts).
        cluster = make_cluster(
            num_workers=capped_workers(2), parallel=parallel
        )
        try:
            publish_many(cluster, 8)
            cluster.connect(1)
            for round_index in range(6):
                # Membership changes land between rounds (the harness
                # order): asks queued after them are never dropped.
                if round_index == 1:
                    cluster.add_worker()
                if round_index == 4:
                    cluster.remove_worker(max(cluster.live_workers))
                for segment_id in range(8):
                    cluster.request_blocks(1, segment_id, 1)
                cluster.serve_round()
            assert cluster.stats.blocks_served == 6 * 8
            assert cluster.pending_blocks == 0
        finally:
            cluster.close()
