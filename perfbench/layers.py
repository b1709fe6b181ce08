"""Which program calls the traced run times, and the per-layer metrics.

Every wrapper is installed where the caller resolves the name, so the
program's own code runs unchanged between the wrappers.  Worker-side
encode and pack in ``cluster_parallel`` run in child processes the
parent cannot see; there they show up only as
``cluster.barrier_wait_ms``.
"""

from __future__ import annotations

import repro.multicast.relay as relay_module
import repro.multicast.tree as tree_module
import repro.streaming.client as client_module
import repro.streaming.server as server_module
from repro.cluster.cluster import ServingCluster
from repro.gf256.engine import Gf256Engine
from repro.kernels.encode import GpuEncoder
from repro.multicast.relay import RelayNode
from repro.multicast.tree import RelayUplink
from repro.rlnc.block import BlockBatch
from repro.rlnc.decoder import ProgressiveDecoder
from repro.rlnc.recoder import Recoder
from repro.streaming.client import ClientSession
from repro.streaming.scheduler import ServeRoundScheduler
from repro.streaming.server import StreamingServer

from tracer import LayerTracer

#: Self-time spans, by the metric name they report under.
SPANS = (
    "streaming.request",
    "streaming.serve",
    "streaming.plan",
    "streaming.intake_self",
    "kernels.encode",
    "rlnc.wire_pack",
    "rlnc.unpack_verify",
    "rlnc.decode_intake",
    "rlnc.materialize",
    "rlnc.recode",
    "cluster.dispatch",
    "cluster.barrier_wait",
    "multicast.uplink_intake",
    "multicast.relay_serve",
)

#: Per-layer metric name -> (unit, which direction is better).
PER_LAYER = {
    "streaming.request_ms": ("ms", "lower"),
    "streaming.requests": ("count", "higher"),
    "streaming.nacks": ("count", "lower"),
    "streaming.retry_later": ("count", "lower"),
    "streaming.queue_blocks_mean": ("blocks", "lower"),
    "streaming.serve_ms": ("ms", "lower"),
    "streaming.plan_ms": ("ms", "lower"),
    "streaming.rounds": ("count", "higher"),
    "streaming.intake_self_ms": ("ms", "lower"),
    "kernels.encode_ms": ("ms", "lower"),
    "kernels.encode_calls": ("count", "higher"),
    "kernels.rows_per_encode": ("rows", "higher"),
    "rlnc.wire_pack_ms": ("ms", "lower"),
    "rlnc.frames_packed": ("count", "higher"),
    "rlnc.unpack_verify_ms": ("ms", "lower"),
    "rlnc.frames_received": ("count", "higher"),
    "rlnc.frames_rejected": ("count", "lower"),
    "rlnc.decode_intake_ms": ("ms", "lower"),
    "rlnc.innovative_ratio": ("ratio", "higher"),
    "rlnc.materialize_ms": ("ms", "lower"),
    "rlnc.recode_ms": ("ms", "lower"),
    "rlnc.blocks_recoded": ("count", "higher"),
    "gf256.matmul_calls": ("count", "higher"),
    "gf256.matmul_mb": ("MB", "higher"),
    "gf256.region_calls": ("count", "higher"),
    "gf256.region_mb": ("MB", "higher"),
    "cluster.dispatch_ms": ("ms", "lower"),
    "cluster.barrier_wait_ms": ("ms", "lower"),
    "cluster.control_bytes": ("B", "lower"),
    "multicast.uplink_intake_ms": ("ms", "lower"),
    "multicast.relay_serve_ms": ("ms", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
}


def _rows(batch) -> int:
    return len(batch) if isinstance(batch, BlockBatch) else batch.shape[0]


def install(tracer: LayerTracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    counts = tracer.counts

    def timed(owner, attr, name, on_call=None):
        tracer.patch(owner, attr, lambda fn: tracer.timed(name, fn, on_call))

    def serve_entry(owner, attr, name, on_call=None):
        """A round entry point: sample the queue, then time the call."""

        def make(fn):
            inner = tracer.timed(name, fn, on_call)

            def sampled(endpoint, *args, **kwargs):
                counts["streaming.queue_samples"] += 1
                counts["streaming.queue_blocks"] += endpoint.pending_blocks
                return inner(endpoint, *args, **kwargs)

            return sampled

        tracer.patch(owner, attr, make)

    def on_round(args, kwargs, result):
        counts["streaming.rounds"] += 1

    # streaming
    timed(ClientSession, "pre_round", "streaming.request")
    timed(ClientSession, "intake", "streaming.intake_self")
    timed(ServeRoundScheduler, "plan_round", "streaming.plan")
    serve_entry(StreamingServer, "serve_round", "streaming.serve", on_round)

    # kernels
    def on_encode(args, kwargs, result):
        counts["kernels.encode_calls"] += 1
        counts["kernels.encode_rows"] += sum(args[2])

    timed(GpuEncoder, "encode_coalesced", "kernels.encode", on_encode)

    # rlnc
    def on_pack(args, kwargs, result):
        counts["rlnc.frames_packed"] += len(args[0])

    timed(server_module, "pack_blocks", "rlnc.wire_pack", on_pack)
    timed(relay_module, "pack_blocks", "rlnc.wire_pack", on_pack)

    def checked_unpack(fn):
        def unpack(*args, **kwargs):
            counts["rlnc.frames_received"] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts["rlnc.frames_rejected"] += 1
                raise
            if result[0] is None:
                counts["rlnc.frames_rejected"] += 1
            return result

        return tracer.timed("rlnc.unpack_verify", unpack)

    tracer.patch(client_module, "unpack_frame", checked_unpack)
    tracer.patch(tree_module, "unpack_frame", checked_unpack)

    def on_consume(args, kwargs, result):
        counts["rlnc.blocks_offered"] += _rows(args[1])
        counts["rlnc.blocks_innovative"] += result

    timed(ProgressiveDecoder, "consume_batch", "rlnc.decode_intake", on_consume)
    timed(ClientSession, "finish_segment", "rlnc.materialize")

    def on_recode(args, kwargs, result):
        counts["rlnc.blocks_recoded"] += args[1]

    timed(Recoder, "recode_matrix", "rlnc.recode", on_recode)

    # gf256: counts of calls and computed bytes moved, no time
    def on_matmul(args, kwargs, result):
        a, b = args[1], args[2]
        counts["gf256.matmul_calls"] += 1
        counts["gf256.matmul_bytes"] += a.size + b.size + result.size

    def on_region(dst_index, src_index):
        def on_call(args, kwargs, result):
            counts["gf256.region_calls"] += 1
            counts["gf256.region_bytes"] += (
                args[dst_index].size + args[src_index].size
            )

        return on_call

    def counted(attr, on_call):
        tracer.patch(Gf256Engine, attr, lambda fn: tracer.counted(fn, on_call))

    counted("matmul", on_matmul)
    counted("mul_add_region", on_region(1, 2))
    counted("axpy_rows", on_region(1, 3))
    counted("fold_rows", on_region(1, 2))

    # cluster
    serve_entry(ServingCluster, "begin_round", "cluster.dispatch", on_round)
    timed(ServingCluster, "collect_round", "cluster.barrier_wait")

    # multicast
    timed(RelayUplink, "intake", "multicast.uplink_intake")
    serve_entry(RelayNode, "serve_round", "multicast.relay_serve", on_round)


def per_layer(
    tracer: LayerTracer,
    *,
    wall_s: float,
    session_counts: dict[str, int],
    control_bytes: int,
    overhead: float,
) -> dict[str, float]:
    """Fold a traced phase into the per-layer metric values."""
    counts = tracer.counts
    values = {f"{name}_ms": tracer.ms(name) for name in SPANS}
    covered = sum(tracer.self_ns.values()) / 1e9
    encode_calls = counts["kernels.encode_calls"]
    offered = counts["rlnc.blocks_offered"]
    samples = counts["streaming.queue_samples"]
    values.update(
        {
            "streaming.requests": session_counts["requests"],
            "streaming.nacks": session_counts["nacks"],
            "streaming.retry_later": session_counts["retry_later"],
            "streaming.queue_blocks_mean": (
                counts["streaming.queue_blocks"] / samples if samples else 0.0
            ),
            "streaming.rounds": counts["streaming.rounds"],
            "kernels.encode_calls": encode_calls,
            "kernels.rows_per_encode": (
                counts["kernels.encode_rows"] / encode_calls
                if encode_calls
                else 0.0
            ),
            "rlnc.frames_packed": counts["rlnc.frames_packed"],
            "rlnc.frames_received": counts["rlnc.frames_received"],
            "rlnc.frames_rejected": counts["rlnc.frames_rejected"],
            "rlnc.innovative_ratio": (
                counts["rlnc.blocks_innovative"] / offered if offered else 0.0
            ),
            "rlnc.blocks_recoded": counts["rlnc.blocks_recoded"],
            "gf256.matmul_calls": counts["gf256.matmul_calls"],
            "gf256.matmul_mb": counts["gf256.matmul_bytes"] / 1e6,
            "gf256.region_calls": counts["gf256.region_calls"],
            "gf256.region_mb": counts["gf256.region_bytes"] / 1e6,
            "cluster.control_bytes": control_bytes,
            "trace.coverage": covered / wall_s,
            "trace.overhead": overhead,
        }
    )
    return {name: float(values[name]) for name in PER_LAYER}
