"""Receive accounting of ``ClientSession.intake``, pinned frame by frame.

Every frame a session receives is classified exactly one way —
accepted into the decoder, dropped as a checksum failure, or dropped as
malformed — and the classification must be the one a direct lenient
:func:`~repro.rlnc.wire.unpack_frame` of that frame gives, followed by
the receiver's segment/geometry check.  The reference model below is
that per-frame loop written out; every test feeds the same wire bytes
to a real session and to the model and demands identical stats,
registry counters, corruption ledger and decoder state.
"""

import numpy as np
import pytest

from repro.errors import WireError
from repro.faults import FaultPlan
from repro.gpu import GTX280
from repro.obs.registry import get_registry
from repro.rlnc import CodingParams, Segment
from repro.rlnc.decoder import ProgressiveDecoder
from repro.rlnc.wire import WireStats, frame_size, unpack_frame
from repro.streaming import ClientSession, MediaProfile, StreamingServer

PARAMS = CodingParams(4, 16)
PROFILE = MediaProfile(params=PARAMS)
SEGMENT_ID = 0
UPSTREAM = "server"
FRAMES_PER_ROUND = 3

#: ``(rounds, nacks, frames_received, frames_ok, checksum_failures,
#: malformed, corruption_counts)`` of the fault soak's seed-7 fetch, as
#: the per-frame receive path accounted it.
SOAK_SEED7 = (3, 2, 17, 16, 1, 0, {UPSTREAM: 1})

#: Registry series the intake path writes through to.
WIRE_SERIES = (
    "wire_frames_ok",
    "wire_checksum_failures",
    "wire_malformed_frames",
    "wire_bytes_unpacked",
)


def _published_server():
    server = StreamingServer(GTX280, PROFILE, rng=np.random.default_rng(0))
    segment = Segment.random(
        PARAMS, np.random.default_rng(1), segment_id=SEGMENT_ID
    )
    server.publish_segment(segment)
    return server


def _round_frames(server, checksum):
    """One served round of FRAMES_PER_ROUND frames, split per frame."""
    peer = 10_000 + int(checksum)
    server.connect(peer)
    server.request_blocks(peer, SEGMENT_ID, FRAMES_PER_ROUND)
    wire = bytes(server.serve_round(format="frames", checksum=checksum)[peer])
    size = frame_size(PARAMS.num_blocks, PARAMS.block_size, checksum=checksum)
    assert len(wire) == FRAMES_PER_ROUND * size
    return [wire[i * size : (i + 1) * size] for i in range(FRAMES_PER_ROUND)]


@pytest.fixture(scope="module")
def server():
    return _published_server()


@pytest.fixture(scope="module")
def frames(server):
    return _round_frames(server, checksum=True)


@pytest.fixture(scope="module")
def plain_frames(server):
    return _round_frames(server, checksum=False)


def _registry_values():
    registry = get_registry()
    values = {
        name: registry.counter(name, component="wire").value
        for name in WIRE_SERIES
    }
    values["client_frames_received"] = registry.counter(
        "client_frames_received"
    ).value
    return values


def _registry_delta(before):
    after = _registry_values()
    return {name: after[name] - before[name] for name in after}


def classify(frame):
    """What a direct lenient ``unpack_frame`` makes of one frame."""
    try:
        block, _, _ = unpack_frame(frame, strict=False)
    except WireError:
        return "malformed"
    if block is None:
        return "checksum"
    if (
        block.segment_id != SEGMENT_ID
        or block.num_blocks != PARAMS.num_blocks
        or block.block_size != PARAMS.block_size
    ):
        return "malformed"
    return "accepted"


def reference_intake(wire, *, checksum=True, fault_plan=None):
    """The per-frame receive loop, written out frame by frame."""
    before = _registry_values()
    stats = WireStats()
    size = frame_size(PARAMS.num_blocks, PARAMS.block_size, checksum=checksum)
    frames = []
    if wire:
        count, tail = divmod(len(wire), size)
        if tail:
            stats.record_malformed()
        frames = [wire[i * size : (i + 1) * size] for i in range(count)]
    if fault_plan is not None and frames:
        frames = fault_plan.apply_frames(frames)
    accepted = []
    dropped = 0
    for frame in frames:
        try:
            block, _, _ = unpack_frame(frame, strict=False, stats=stats)
        except WireError:
            stats.record_malformed()
            block = None
        if block is not None and (
            block.segment_id != SEGMENT_ID
            or block.num_blocks != PARAMS.num_blocks
            or block.block_size != PARAMS.block_size
        ):
            stats.record_malformed()
            block = None
        if block is None:
            dropped += 1
        else:
            accepted.append(block)
    decoder = ProgressiveDecoder(PARAMS, SEGMENT_ID)
    innovative = 0
    if accepted:
        innovative = decoder.consume_batch(
            np.stack([block.coefficients for block in accepted]),
            np.stack([block.payload for block in accepted]),
            source=UPSTREAM,
        )
    delta = _registry_delta(before)
    delta["client_frames_received"] = len(frames)
    return {
        "wire": stats.as_dict(),
        "frames_received": len(frames),
        "innovative": innovative,
        "discarded": len(accepted) - innovative,
        "corruption": {UPSTREAM: dropped} if dropped else {},
        "registry": delta,
        "state": _decoder_state(decoder),
    }


def _decoder_state(decoder):
    """Materialized RREF plus the arrival-ordered control plane."""
    rows, pivots = decoder.dense_state()
    held = decoder.rank
    return (
        rows[:held].tobytes(),
        pivots,
        decoder._work[:held].tobytes(),
        decoder._raw_coefficients[:held].tobytes(),
    )


_peers = iter(range(1_000_000))


def session_intake(server, wire, *, checksum=True, fault_plan=None):
    """Feed ``wire`` to a fresh session; report what it accounted."""
    session = ClientSession(
        server,
        next(_peers),
        checksum=checksum,
        fault_plan=fault_plan,
        upstream=UPSTREAM,
    )
    session.begin_segment(SEGMENT_ID)
    before = _registry_values()
    innovative = session.intake(wire)
    delta = _registry_delta(before)
    stats = session.stats
    return {
        "wire": stats.wire.as_dict(),
        "frames_received": stats.frames_received,
        "innovative": innovative,
        "discarded": stats.blocks_discarded,
        "corruption": session.decoder.corruption_counts,
        "registry": delta,
        "state": _decoder_state(session.decoder),
    }


def session_outcome(report):
    """The one classification a single-frame delivery received."""
    if report["innovative"] + report["discarded"] == 1:
        return "accepted"
    if report["wire"]["checksum_failures"] == 1:
        return "checksum"
    assert report["wire"]["malformed"] == 1, report
    return "malformed"


def flipped(frame, bit):
    mangled = bytearray(frame)
    mangled[bit // 8] ^= 1 << (bit % 8)
    return bytes(mangled)


class TestSingleBitFlips:
    @pytest.mark.parametrize("checksum", [True, False], ids=["digest", "plain"])
    def test_every_bit_of_one_frame_classifies_like_unpack_frame(
        self, server, frames, plain_frames, checksum
    ):
        frame = (frames if checksum else plain_frames)[1]
        outcomes = set()
        for bit in range(8 * len(frame)):
            damaged = flipped(frame, bit)
            report = session_intake(server, damaged, checksum=checksum)
            expected = classify(damaged)
            assert session_outcome(report) == expected, bit
            assert report == reference_intake(damaged, checksum=checksum), bit
            outcomes.add(expected)
        if checksum:
            # The flags byte's checksum bit is the one flip a digest
            # cannot see: cleared, the frame parses as unchecked.
            assert outcomes == {"accepted", "checksum", "malformed"}
            assert classify(flipped(frame, 5 * 8)) == "accepted"
        else:
            assert "malformed" in outcomes

    def test_flip_inside_a_round_keeps_the_other_frames(self, server, frames):
        for bit in range(8 * len(frames[1])):
            wire = frames[0] + flipped(frames[1], bit) + frames[2]
            assert session_intake(server, wire) == reference_intake(wire), bit


class TestDeliveryShapes:
    def test_clean_round(self, server, frames):
        wire = b"".join(frames)
        report = session_intake(server, wire)
        assert report == reference_intake(wire)
        assert report["innovative"] == FRAMES_PER_ROUND
        assert report["wire"] == {
            "frames_ok": 3, "checksum_failures": 0, "malformed": 0
        }

    @pytest.mark.parametrize("wire", [None, b""], ids=["none", "empty"])
    def test_nothing_delivered(self, server, wire):
        report = session_intake(server, wire)
        assert report == reference_intake(wire)
        assert report["frames_received"] == 0

    def test_torn_tail_is_one_malformed_frame(self, server, frames):
        wire = b"".join(frames) + frames[0][:30]
        report = session_intake(server, wire)
        assert report == reference_intake(wire)
        assert report["wire"]["malformed"] == 1
        assert report["frames_received"] == FRAMES_PER_ROUND
        assert report["innovative"] == FRAMES_PER_ROUND

    def test_lone_partial_frame(self, server, frames):
        wire = frames[0][:30]
        report = session_intake(server, wire)
        assert report == reference_intake(wire)
        assert report["frames_received"] == 0

    def test_torn_middle_frame_misaligns_the_rest(self, server, frames):
        wire = frames[0] + frames[1][:30] + frames[2]
        report = session_intake(server, wire)
        assert report == reference_intake(wire)
        assert report["innovative"] == 1

    def test_dropped_frame(self, server, frames):
        wire = frames[0] + frames[2]
        report = session_intake(server, wire)
        assert report == reference_intake(wire)
        assert report["innovative"] == 2

    def test_duplicated_frame(self, server, frames):
        wire = frames[0] + frames[0] + frames[1] + frames[2]
        report = session_intake(server, wire)
        assert report == reference_intake(wire)
        assert report["discarded"] == 1

    def test_reordered_frames(self, server, frames):
        wire = frames[2] + frames[0] + frames[1]
        report = session_intake(server, wire)
        assert report == reference_intake(wire)
        assert report["state"] != session_intake(server, b"".join(frames))[
            "state"
        ]

    def test_foreign_segment_frame_is_malformed(self, server):
        other = StreamingServer(GTX280, PROFILE, rng=np.random.default_rng(4))
        other.publish_segment(
            Segment.random(PARAMS, np.random.default_rng(2), segment_id=5)
        )
        other.connect(0)
        other.request_blocks(0, 5, 1)
        foreign = bytes(other.serve_round(format="frames")[0])
        report = session_intake(server, foreign)
        assert report == reference_intake(foreign)
        assert report["wire"] == {
            "frames_ok": 1, "checksum_failures": 0, "malformed": 1
        }

    @pytest.mark.parametrize("seed", range(6))
    def test_fault_plan_round(self, server, frames, seed):
        wire = b"".join(frames) * 3

        def plan():
            return FaultPlan(
                seed=seed,
                drop_rate=0.2,
                corrupt_rate=0.3,
                duplicate_rate=0.2,
                reorder_window=3,
            )

        report = session_intake(server, wire, fault_plan=plan())
        assert report == reference_intake(wire, fault_plan=plan())


class TestSoakPin:
    def test_seed7_soak_accounting_is_pinned(self):
        """The fault soak's seed-7 fetch, exactly as the per-frame
        receive path accounted it."""
        profile = MediaProfile(params=CodingParams(16, 64))
        rng = np.random.default_rng(99)
        payload = rng.integers(
            0, 256, size=profile.params.segment_bytes, dtype=np.uint8
        ).tobytes()
        server = StreamingServer(
            GTX280, profile, rng=np.random.default_rng(0)
        )
        server.publish_segment(
            Segment.from_bytes(payload, profile.params, segment_id=0)
        )
        plan = FaultPlan(
            seed=7, drop_rate=0.20, corrupt_rate=0.01, reorder_window=3
        )
        client = ClientSession(server, peer_id=1, fault_plan=plan)
        client.begin_segment(0)
        while not client.complete:
            client.pre_round()
            client.intake(
                server.serve_round(format="frames").get(client.peer_id)
            )
        corruption = client.decoder.corruption_counts
        segment = client.finish_segment()
        assert segment.to_bytes() == payload
        stats = client.stats
        pinned = (
            stats.rounds,
            stats.nacks,
            stats.frames_received,
            stats.wire.frames_ok,
            stats.wire.checksum_failures,
            stats.wire.malformed,
            corruption,
        )
        assert pinned == SOAK_SEED7
        assert (
            stats.wire.checksum_failures + stats.wire.malformed
            == plan.counters.corrupted
        )

