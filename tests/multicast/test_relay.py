"""Tests for the recoding RelayNode serving endpoint."""

import numpy as np
import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.gpu import GTX280
from repro.multicast import RelayNode, RelayStats
from repro.rlnc import CodingParams, ProgressiveDecoder, Segment
from repro.rlnc.block import BlockBatch
from repro.rlnc.wire import frame_size, frame_worker_id, unpack_frame
from repro.streaming import StreamingServer
from repro.streaming.session import MediaProfile

PARAMS = CodingParams(8, 64)
PROFILE = MediaProfile(params=PARAMS)


def make_segment(segment_id=0, seed=1):
    return Segment.random(
        PARAMS, np.random.default_rng(seed), segment_id=segment_id
    )


def make_relay(seed=0, **kwargs):
    return RelayNode(PROFILE, rng=np.random.default_rng(seed), **kwargs)


def coded_batch(segment, count, seed=2):
    """Random coded blocks of a segment, as a relay would ingest them."""
    rng = np.random.default_rng(seed)
    from repro.rlnc import Encoder

    blocks = Encoder(segment, rng).encode_blocks(count)
    return BlockBatch(
        coefficients=np.stack([b.coefficients for b in blocks]),
        payloads=np.stack([b.payload for b in blocks]),
        segment_id=segment.segment_id,
    )


class TestBuffer:
    def test_publish_seeds_identity_originals(self):
        relay = make_relay()
        segment = make_segment()
        relay.publish(segment)
        assert relay.held(0) == PARAMS.num_blocks
        assert relay.stats.segments_published == 1
        assert relay.stats.blocks_ingested == PARAMS.num_blocks

    def test_publish_rejects_wrong_geometry(self):
        relay = make_relay()
        wrong = Segment.random(CodingParams(4, 64), np.random.default_rng(0))
        with pytest.raises(ConfigurationError, match="geometry"):
            relay.publish(wrong)

    def test_ingest_buffers_coded_blocks(self):
        relay = make_relay()
        segment = make_segment()
        kept = relay.ingest(coded_batch(segment, 5))
        assert kept == 5
        assert relay.held(0) == 5
        assert relay.held(99) == 0


class TestRequestValidation:
    def test_unknown_peer_rejected(self):
        relay = make_relay()
        relay.publish(make_segment())
        with pytest.raises(ConfigurationError, match="not connected"):
            relay.request_blocks(9, 0, 1)

    def test_evicted_peer_distinguished(self):
        relay = make_relay()
        relay.publish(make_segment())
        relay.connect(1)
        relay.disconnect(1)
        with pytest.raises(CapacityError, match="evicted"):
            relay.request_blocks(1, 0, 1)
        with pytest.raises(ConfigurationError):
            relay.disconnect(1)

    def test_empty_buffer_is_a_capacity_error(self):
        relay = make_relay()
        relay.connect(1)
        with pytest.raises(CapacityError, match="holds no blocks"):
            relay.request_blocks(1, 0, 1)

    def test_positive_counts_required(self):
        relay = make_relay()
        relay.publish(make_segment())
        relay.connect(1)
        with pytest.raises(ConfigurationError):
            relay.request_blocks(1, 0, 0)

    def test_disconnect_purges_queued_requests(self):
        relay = make_relay()
        relay.publish(make_segment())
        relay.connect(1)
        relay.connect(2)
        relay.request_blocks(1, 0, 3)
        relay.request_blocks(2, 0, 2)
        relay.disconnect(1)
        assert relay.pending_blocks == 2
        assert relay.stats.sessions_evicted == 1


class TestServeRound:
    def test_round_coalesces_one_recode_per_segment(self):
        relay = make_relay()
        relay.publish(make_segment())
        for peer in (1, 2, 3):
            relay.connect(peer)
            relay.request_blocks(peer, 0, 2)
        fanout = relay.serve_round()
        assert set(fanout) == {1, 2, 3}
        assert relay.stats.recode_calls == 1
        assert relay.stats.blocks_recoded == 6
        assert relay.pending_requests == 0

    def test_quota_carries_over(self):
        relay = make_relay(per_peer_round_quota=2)
        relay.publish(make_segment())
        relay.connect(1)
        relay.request_blocks(1, 0, 5)
        first = relay.serve_round()
        assert sum(len(batch) for batch in first[1]) == 2
        assert relay.pending_blocks == 3

    def test_recoded_blocks_from_full_buffer_decode(self):
        relay = make_relay()
        segment = make_segment()
        relay.publish(segment)
        relay.connect(1)
        relay.request_blocks(1, 0, PARAMS.num_blocks + 2)
        fanout = relay.serve_round()
        decoder = ProgressiveDecoder(PARAMS)
        for batch in fanout[1]:
            for block in batch:
                if decoder.is_complete:
                    break
                decoder.consume(block)
        assert decoder.is_complete
        recovered = decoder.recover_segment()
        assert np.array_equal(recovered.blocks, segment.blocks)

    def test_partial_buffer_preserves_rank(self):
        # The RLNC recoding argument: r buffered blocks yield emissions
        # of rank exactly r — no decode needed, no rank lost.
        relay = make_relay()
        segment = make_segment()
        relay.ingest(coded_batch(segment, 5))
        relay.connect(1)
        relay.request_blocks(1, 0, 12)
        fanout = relay.serve_round()
        decoder = ProgressiveDecoder(PARAMS)
        for batch in fanout[1]:
            for block in batch:
                decoder.consume(block)
        assert decoder.rank == 5

    def test_same_seed_relays_emit_identical_rounds(self):
        outputs = []
        for _ in range(2):
            relay = make_relay(seed=7)
            relay.publish(make_segment())
            relay.connect(1)
            relay.request_blocks(1, 0, 4)
            frames = relay.serve_round(format="frames")
            outputs.append(bytes(frames[1]))
        assert outputs[0] == outputs[1]

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown serve_round"):
            make_relay().serve_round(format="blocks")


class TestWireFrames:
    def test_frames_carry_sequences_and_worker_stamp(self):
        relay = make_relay(worker_id=3)
        relay.publish(make_segment())
        relay.connect(1)
        relay.request_blocks(1, 0, 2)
        wire = bytes(relay.serve_round(format="frames")[1])
        size = frame_size(PARAMS.num_blocks, PARAMS.block_size, checksum=True)
        sequences = []
        for i in range(2):
            frame = wire[i * size : (i + 1) * size]
            block, _, sequence = unpack_frame(frame)
            assert block.segment_id == 0
            assert frame_worker_id(frame) == 3
            sequences.append(sequence)
        assert sequences == [0, 1]

    def test_double_buffer_keeps_previous_round_valid(self):
        relay = make_relay()
        relay.publish(make_segment())
        relay.connect(1)
        relay.request_blocks(1, 0, 2)
        first = relay.serve_round(format="frames")[1]
        first_copy = bytes(first)
        relay.request_blocks(1, 0, 2)
        relay.serve_round(format="frames")
        # One more round in flight: round r's view still reads intact.
        assert bytes(first) == first_copy


class TestStats:
    def test_stats_snapshot_registry_shape(self):
        relay = make_relay()
        relay.publish(make_segment())
        relay.connect(1)
        relay.request_blocks(1, 0, 2)
        relay.serve_round(format="frames")
        snapshot = relay.stats_snapshot()
        counters = snapshot["counters"]
        assert counters["relay_rounds_served"] == 1.0
        assert counters["relay_blocks_recoded"] == 2.0
        assert counters["relay_bytes_served"] > 0
        assert snapshot["gauges"]["relay_segments_buffered"] == 1.0

    @pytest.mark.parametrize("format", ["batches", "frames"])
    def test_bytes_served_counts_payload_bytes(self, format):
        # Blocks x block_size on either format, the server's meaning.
        server = StreamingServer(GTX280, PROFILE, rng=np.random.default_rng(0))
        server.publish(make_segment())
        relay = make_relay()
        relay.publish(make_segment())
        for endpoint in (server, relay):
            endpoint.connect(1)
            endpoint.request_blocks(1, 0, 4)
            endpoint.serve_round(format=format)
        assert relay.stats.bytes_served == 4 * PARAMS.block_size
        assert server.stats.bytes_served == relay.stats.bytes_served
        counters = relay.stats_snapshot()["counters"]
        assert counters["relay_bytes_served"] == 4 * PARAMS.block_size

    def test_relay_stats_contract(self):
        stats = RelayStats(blocks_ingested=4)
        before = stats.snapshot()
        stats.blocks_ingested += 3
        assert stats.delta(before).blocks_ingested == 3
        cleared = stats.reset()
        assert cleared.blocks_ingested == 7
        assert stats.blocks_ingested == 0

    def test_session_counters_track_demand(self):
        relay = make_relay()
        relay.publish(make_segment())
        relay.connect(1)
        relay.request_blocks(1, 0, 3)
        assert relay.session_counters()[1] == (3, 0, 3)
        relay.serve_round()
        assert relay.session_counters()[1] == (3, 3, 0)
