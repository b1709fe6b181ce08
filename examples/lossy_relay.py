"""End-to-end delivery over impaired hops through a recoding relay tree.

Source --(loss)--> relays --(loss, corruption)--> leaves, with every
block framed (with a digest trailer) on each wire hop.  Demonstrates the robustness
properties of Sec. 2 on the unified serving API: random linear coding
shrugs off loss, the :class:`~repro.multicast.RelayNode` interior nodes
refresh the stream by recoding without decoding, each hop's NACK loop
repairs its own losses, and the wire checksum catches the corruption
coding itself cannot see.

The relay is not wired by hand — it is a
:class:`~repro.serving.ServingEndpoint` like the origin server, so the
:class:`~repro.multicast.MulticastTree` stacks them freely.

Run:
    python examples/lossy_relay.py
"""

import numpy as np

from repro.faults import FaultPlan
from repro.gpu import GTX280
from repro.multicast import MulticastTree
from repro.rlnc import CodingParams, Segment
from repro.serving import StreamingServer
from repro.streaming.session import MediaProfile


def main() -> None:
    params = CodingParams(num_blocks=24, block_size=512)
    profile = MediaProfile(params=params)
    segment = Segment.random(params, np.random.default_rng(99))

    root = StreamingServer(GTX280, profile, rng=np.random.default_rng(7))
    root.publish(segment)

    # Impairments: 25% loss on the first relay's uplink, 15% loss plus
    # 5% corruption on one leaf hop under each relay.  Every hop repairs
    # itself locally through its NACK loop.
    tree = MulticastTree(
        root,
        profile,
        relays=2,
        leaves_per_relay=2,
        seed=5,
        uplink_fault_plans={0: FaultPlan(seed=11, drop_rate=0.25)},
        leaf_fault_plans={
            (0, 0): FaultPlan(seed=12, drop_rate=0.15, corrupt_rate=0.05),
            (1, 1): FaultPlan(seed=13, drop_rate=0.15, corrupt_rate=0.05),
        },
    )
    report = tree.distribute(segment)

    print(f"tree: {report.relays} recoding relays x "
          f"{report.leaves // report.relays} leaves, min-cut bound "
          f"{report.min_cut_bound} blocks/round")
    print(f"all {report.leaves} leaves decoded in {report.rounds} rounds; "
          f"relays emitted {report.blocks_recoded} fresh combinations")
    for name, stats in sorted(report.relay_stats.items()):
        print(f"  {name}: ingested {stats.blocks_ingested}, recoded "
              f"{stats.blocks_recoded} in {stats.rounds_served} rounds")

    # The integrity layer at work: damaged frames were caught by the
    # wire checksum and dropped (then repaired by NACK), never decoded.
    caught = sum(
        s.stats.wire.checksum_failures for s in tree.leaf_sessions
    )
    dropped = sum(
        u.wire.checksum_failures + u.wire.malformed for u in tree.uplinks
    )
    print(f"wire framing caught {caught} corrupted leaf-hop frames "
          f"(and uplinks dropped {dropped})")

    assert report.payload_ok, "a leaf decoded the wrong bytes"
    print("segment recovered byte-exactly at every leaf "
          "through the impaired tree")


if __name__ == "__main__":
    main()
