"""Golden bytes for relay serving rounds.

The other relay tests check decodability and accounting, so they would
pass if the recode draw order, the grant fan-out or the round packing
changed.  These pin the sha256 of seeded relay rounds: frames rounds
over two segments with quota carryover and a worker stamp (with and
without digest trailers), and the coefficient and payload bytes of one
batches round.
"""

import hashlib

import numpy as np
import pytest

from repro.multicast import RelayNode
from repro.rlnc import CodingParams, Encoder, Segment
from repro.rlnc.block import BlockBatch
from repro.streaming.session import MediaProfile

PARAMS = CodingParams(8, 64)
PROFILE = MediaProfile(params=PARAMS)

FRAMES_ROUNDS_SHA256 = {
    True: [
        "e4414f319203160d39d216f797d3764df40c4d8e2c560f802020066c910f83cb",
        "08507f27d61a89f0bb1b914601798a92753fdf6ba079714ca641a124a7688409",
        "5a429a3148bb4c8e16c07bea44c7611fcdcc431d13f421f2049f8a2448ebafe7",
    ],
    False: [
        "75b68d64164d01ac8d9fe8cd4013378bf96c50f8d0c1a7856c1478f4b7a5fc7a",
        "6c22cd7b1dc5b7cbfdd6ad0f9fbe99cfa54c5d05eb567efdf7e3109edfa848a0",
        "a351c6dbf3722a1c520a9f098dcf5c912f115880ec1f58d3dec01dc121114b55",
    ],
}
BATCHES_ROUND_SHA256 = (
    "f9dd12a3d361b973773e2dc1efbbf645d9ef18babcd54966667acda277a674ff"
)


def make_relay(**kwargs):
    """A relay holding segment 0 as originals and segment 1 as 6 coded
    blocks (a partial buffer, as an uplink would leave it)."""
    relay = RelayNode(PROFILE, rng=np.random.default_rng(23), **kwargs)
    relay.publish(
        Segment.random(PARAMS, np.random.default_rng([23, 0]), segment_id=0)
    )
    source = Segment.random(PARAMS, np.random.default_rng([23, 1]), segment_id=1)
    blocks = Encoder(source, np.random.default_rng([23, 2])).encode_blocks(6)
    relay.ingest(
        BlockBatch(
            coefficients=np.stack([b.coefficients for b in blocks]),
            payloads=np.stack([b.payload for b in blocks]),
            segment_id=1,
        )
    )
    for peer_id in range(4):
        relay.connect(peer_id)
        relay.request_blocks(peer_id, peer_id % 2, 5 + peer_id)
    return relay


@pytest.mark.parametrize("checksum", [True, False])
def test_relay_frames_rounds_are_pinned(checksum):
    relay = make_relay(per_peer_round_quota=3, worker_id=5)
    digests = []
    for _ in range(3):
        frames = relay.serve_round(format="frames", checksum=checksum)
        digest = hashlib.sha256()
        for peer_id in sorted(frames):
            digest.update(peer_id.to_bytes(4, "big"))
            digest.update(bytes(frames[peer_id]))
        digests.append(digest.hexdigest())
    assert relay.pending_blocks == 0
    assert digests == FRAMES_ROUNDS_SHA256[checksum]


def test_relay_batches_round_is_pinned():
    relay = make_relay()
    fanout = relay.serve_round(format="batches")
    digest = hashlib.sha256()
    for peer_id in sorted(fanout):
        digest.update(peer_id.to_bytes(4, "big"))
        for batch in fanout[peer_id]:
            digest.update(batch.segment_id.to_bytes(4, "big"))
            digest.update(np.ascontiguousarray(batch.coefficients).tobytes())
            digest.update(np.ascontiguousarray(batch.payloads).tobytes())
    assert digest.hexdigest() == BATCHES_ROUND_SHA256
