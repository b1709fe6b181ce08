"""Golden bytes for the wire format.

The other wire tests round-trip, so they would pass if writer and reader
changed together.  These pin the sha256 of seeded frames: a change to
the header layout, the sequence or worker stamp, the digest weights or
the serve-round packing shows up here as a different digest.
"""

import hashlib

import numpy as np

from repro.gpu import GTX280
from repro.rlnc import (
    BlockBatch,
    CodedBlock,
    CodingParams,
    Segment,
    encode_frame,
    pack_blocks,
)
from repro.streaming import MediaProfile, StreamingServer

PACK_BLOCKS_SHA256 = (
    "1c4af3f5ce15a9e6b063c2034a52d5fb76864ce736af112359f7ff281cea76e4"
)
ENCODE_FRAME_SHA256 = (
    "b58c10e20676e9272266607764fe2765169a74bb76e02e2df045c9fdf5d50274"
)
SERVE_ROUND_SHA256 = (
    "74a59a42cac48a7e28400640021bf2d0128dab45eeaf515b20b1a25518c44908"
)


def sha256(data) -> str:
    return hashlib.sha256(bytes(data)).hexdigest()


def test_pack_blocks_bytes_are_pinned():
    rng = np.random.default_rng(2024)
    batch = BlockBatch(
        coefficients=rng.integers(0, 256, size=(5, 12), dtype=np.uint8),
        payloads=rng.integers(0, 256, size=(5, 40), dtype=np.uint8),
        segment_id=17,
    )
    packed = pack_blocks(batch, first_sequence=0xFFFFFFFE, worker_id=3)
    assert sha256(packed) == PACK_BLOCKS_SHA256


def test_encode_frame_bytes_are_pinned():
    rng = np.random.default_rng(7)
    block = CodedBlock(
        coefficients=rng.integers(0, 256, size=9, dtype=np.uint8),
        payload=rng.integers(0, 256, size=33, dtype=np.uint8),
        segment_id=5,
    )
    frame = encode_frame(block, sequence=123456)
    assert sha256(frame) == ENCODE_FRAME_SHA256


def test_serve_round_frames_are_pinned():
    profile = MediaProfile(params=CodingParams(8, 64))
    server = StreamingServer(
        GTX280,
        profile,
        rng=np.random.default_rng(11),
        per_peer_round_quota=3,
        worker_id=2,
    )
    for segment_id in range(2):
        server.publish_segment(
            Segment.random(
                profile.params,
                np.random.default_rng([11, segment_id]),
                segment_id=segment_id,
            )
        )
    for peer_id in range(3):
        server.connect(peer_id)
        server.request_blocks(peer_id, peer_id % 2, 4)
    frames = server.serve_round(format="frames")
    assert sorted(frames) == [0, 1, 2]
    digest = hashlib.sha256()
    for peer_id in sorted(frames):
        digest.update(peer_id.to_bytes(4, "big"))
        digest.update(bytes(frames[peer_id]))
    assert digest.hexdigest() == SERVE_ROUND_SHA256
