"""End-to-end serving benchmark: goodput and fetch latency per workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload bulk_fanout --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers
installed.  ``--trace 1`` runs the same seeded workload twice, first
untraced and then with the layer wrappers of ``layers.py`` installed,
each for half of ``--seconds``; it prints the per-layer metrics, the
tracing overhead, and checks that both runs recovered the same bytes.

Every recovered segment is compared with its origin bytes; a mismatch,
a traced/untraced digest mismatch or a leaked process or shared-memory
segment makes the run fail (``"correct": false``, exit status 1).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Settings that would change which code paths run; the benchmark
#: refuses to run with any of them set, so parent and change runs of a
#: comparison always execute the same backends.
REFUSED_ENV = ("REPRO_GF_BACKEND", "REPRO_WIDE_KERNEL", "REPRO_MP_START_METHOD")

#: Compiled region-op kernels, content-addressed, kept across runs so
#: the one-time compile is paid once per checkout, in the warm-up.
KERNEL_CACHE = ROOT / ".perfbench_cache" / "regionops"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 21

#: Fresh set-ups an untraced run measures, each for an equal share of
#: ``--seconds``; their fetches are pooled.  The cluster's parent-side
#: round time moves by 10-20% from one set-up to the next in the same
#: process; pooling several set-ups averages that out of a run.
SLICES = 5

#: Fetches a run must finish for p90 to have ten samples beyond it.
MIN_FETCHES = 100

END_TO_END = {
    "goodput_mb_s": "MB/s",
    "fetch_ms_p50": "ms",
    "fetch_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot produce a valid measurement."""


@dataclass
class Phase:
    """What one timed loop over a built workload observed."""

    wall_s: float = 0.0
    verify_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    verified_bytes: int = 0
    digests: dict[tuple[int, int], bytes] = field(default_factory=dict)
    session_counts: dict[str, int] = field(default_factory=dict)
    control_bytes: int = 0
    model: dict[str, float] = field(default_factory=dict)
    in_flight: int = 0

    @property
    def goodput(self) -> float:
        return self.verified_bytes / self.wall_s / 1e6

    def complete_passes(self, slots: int) -> int:
        """Leading passes in which every session slot finished a fetch."""
        passes = 0
        while all((passes, s) in self.digests for s in range(slots)):
            passes += 1
        return passes

    def digest(self, passes: int, slots: int) -> str:
        """sha256 over the recovered payloads of the first ``passes``."""
        total = hashlib.sha256()
        for p in range(passes):
            for s in range(slots):
                total.update(self.digests[(p, s)])
        return total.hexdigest()


def prepare_environment() -> Path:
    """Pin the run's configuration; return the benchmark's temp dir.

    Refuses settings that select code paths, points the matmul tune
    cache at a fresh private file (so a user's tune cache cannot change
    the ``auto`` backend) and the kernel cache inside the checkout.
    """
    refused = [name for name in REFUSED_ENV if name in os.environ]
    if refused:
        raise BenchError(
            f"refusing to run with {', '.join(refused)} set: unset it so "
            "every run measures the default code paths"
        )
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC}; run from a checkout")
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    os.environ["TMPDIR"] = str(scratch)  # the kernel compiler's temp files
    os.environ["REPRO_MATMUL_TUNE_CACHE"] = str(scratch / "matmul_tune.json")
    os.environ["REPRO_WIDE_KERNEL_CACHE"] = str(KERNEL_CACHE)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    return scratch


def warm_up() -> None:
    """Compile and load the region-op kernel outside any timing."""
    import repro
    from repro.gf256 import regionops
    from repro.obs.trace import tracing_enabled

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")
    if tracing_enabled():
        raise BenchError("in-program repro.obs tracing must stay disabled")
    regionops.kernel_available()


def fingerprint(workload) -> dict:
    """The host and configuration a result was measured on."""
    import numpy as np
    from repro.cluster.worker import default_start_method
    from repro.gf256 import regionops
    from repro.gf256.engine import ENGINE

    params = workload.params
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "simd_level": regionops.simd_level(),
        "wide_kernel": regionops.kernel_available(),
        "matmul_backend": ENGINE.select_matmul_backend(
            params.num_blocks, params.num_blocks, params.block_size
        ),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "start_method": default_start_method(),
    }


def _vm_hwm_mb(pid: int | str) -> float:
    """Peak resident set of a live process, from ``/proc``, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise BenchError(f"no VmHWM for process {pid}")


def _session_counts(sessions) -> dict[str, int]:
    return {
        "requests": sum(s.stats.requests_sent for s in sessions),
        "nacks": sum(s.stats.nacks for s in sessions),
        "retry_later": sum(s.stats.retry_later_responses for s in sessions),
    }


def measure(
    workload, seconds: float, tracer=None, phase: Phase | None = None
) -> Phase:
    """Drive a freshly set-up workload for ``seconds`` of wall time.

    Fetches still in flight at the deadline are neither attempted nor
    failed; every finished one is verified against its origin bytes
    before its session may begin the next segment.  Counts add to
    ``phase`` when one is given.
    """
    phase = Phase() if phase is None else phase
    control_before = workload.control_bytes()
    model_before = workload.model()
    if tracer is not None:
        import layers

        layers.install(tracer)
    try:
        start = perf_counter()
        deadline = start + seconds
        while True:
            finished = workload.step()
            verify_start = perf_counter()
            for fetch in finished:
                phase.attempted += 1
                key = (fetch.pass_index, fetch.session)
                if fetch.recovered is None:
                    phase.failed += 1
                    phase.digests[key] = b"failed"
                    continue
                if fetch.recovered != fetch.expected:
                    phase.failed += 1
                    phase.mismatched += 1
                    phase.digests[key] = b"mismatch"
                    continue
                phase.latencies.append(fetch.latency_s)
                phase.verified_bytes += len(fetch.recovered)
                phase.digests[key] = hashlib.sha256(fetch.recovered).digest()
            now = perf_counter()
            phase.verify_s += now - verify_start
            if now >= deadline:
                break
        phase.wall_s += perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    phase.in_flight += workload.in_flight()
    for name, count in _session_counts(workload.all_sessions).items():
        phase.session_counts[name] = phase.session_counts.get(name, 0) + count
    phase.control_bytes += workload.control_bytes() - control_before
    for name, value in workload.model().items():
        phase.model[name] = (
            phase.model.get(name, 0.0) + value - model_before.get(name, 0.0)
        )
    if "model_gpu_parallel_seconds" in phase.model:
        parallel = phase.model["model_gpu_parallel_seconds"]
        phase.model["model_speedup"] = (
            phase.model["model_gpu_serial_seconds"] / parallel
            if parallel
            else 1.0
        )
    return phase


def _warm_pass(workload, leaks: "LeakCheck") -> None:
    """Set up once and run rounds until the first fetch finishes."""
    workload.setup()
    leaks.watch(workload)
    try:
        while not workload.step():
            pass
    finally:
        workload.close()


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


class LeakCheck:
    """No worker process and no cluster ring may outlive a run.

    Rings are the shared-memory segments the cluster creates, named with
    ``RING_NAME_PREFIX``; other processes' segments are not counted.
    """

    SHM = Path("/dev/shm")

    def __init__(self) -> None:
        self.shm_before = self._shm()
        self.pids: set[int] = set()

    def _shm(self) -> set[str]:
        from repro.cluster.shm import RING_NAME_PREFIX

        if not self.SHM.is_dir():
            return set()
        return {
            entry.name
            for entry in self.SHM.iterdir()
            if entry.name.startswith(RING_NAME_PREFIX)
        }

    def watch(self, workload) -> None:
        self.pids.update(workload.worker_pids())

    def leaks(self) -> list[str]:
        import multiprocessing

        found = [f"child {p.pid}" for p in multiprocessing.active_children()]
        for pid in sorted(self.pids):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            found.append(f"worker process {pid}")
        found += [
            f"/dev/shm/{name}" for name in sorted(self._shm() - self.shm_before)
        ]
        return found


def _stop_resource_tracker() -> None:
    """Stop (and reap) the shared-memory bookkeeping process, if started."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_untraced(workload, seconds: float, leaks: LeakCheck):
    """Set up ``SETUP_REPS`` times; measure the last ``SLICES`` set-ups."""
    setups = []
    phase = Phase()
    rss = 0.0
    for rep in range(SETUP_REPS):
        gc.collect()
        start = perf_counter()
        workload.setup()
        setups.append(perf_counter() - start)
        leaks.watch(workload)
        try:
            if rep >= SETUP_REPS - SLICES:
                measure(workload, seconds / SLICES, phase=phase)
                rss = max(
                    rss,
                    _vm_hwm_mb("self")
                    + sum(_vm_hwm_mb(pid) for pid in workload.worker_pids()),
                )
        finally:
            workload.close()
    setups.sort()
    return phase, setups[len(setups) // 2], rss


def run_traced(workload, seconds: float, leaks: LeakCheck):
    """Untraced then traced runs of half the time each; same seed."""
    from tracer import LayerTracer

    phases = []
    tracer = LayerTracer()
    for traced in (False, True):
        gc.collect()
        workload.setup()
        leaks.watch(workload)
        try:
            phases.append(
                measure(workload, seconds / 2, tracer if traced else None)
            )
        finally:
            workload.close()
    return phases[0], phases[1], tracer


def report_line(name: str, value: float, unit: str) -> None:
    print(f"  {name:<28} {value:>14.6g} {unit}".rstrip())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every geometry (for the benchmark's own tests)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # Turn SIGTERM into SystemExit so every ``finally`` that closes a
    # cluster (and reaps its workers) runs on that way out too.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    try:
        scratch = prepare_environment()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args) -> int:
    warm_up()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise BenchError(
            f"unknown workload {args.workload!r}; "
            f"expected one of {', '.join(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload](args.seed, args.size)
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} size={args.size}"
    )
    print(f"fingerprint: {json.dumps(fingerprint(workload), sort_keys=True)}")
    leaks = LeakCheck()
    _warm_pass(workload, leaks)
    slots = workload.slots
    problems: list[str] = []
    if args.trace:
        plain, traced, tracer = run_traced(workload, args.seconds, leaks)
        main_phase = traced
        common = min(plain.complete_passes(slots), traced.complete_passes(slots))
        if common < 1:
            raise BenchError("traced and untraced runs share no complete pass")
        untraced_digest = plain.digest(common, slots)
        traced_digest = traced.digest(common, slots)
        print(
            f"digest: untraced {untraced_digest} traced {traced_digest} "
            f"over {common} passes"
        )
        if untraced_digest != traced_digest:
            problems.append("traced run recovered different bytes")
        import layers

        metrics = layers.per_layer(
            tracer,
            wall_s=traced.wall_s,
            session_counts=traced.session_counts,
            control_bytes=traced.control_bytes,
            overhead=plain.goodput / traced.goodput - 1.0,
        )
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
        for phase in (plain, traced):
            problems += _phase_problems(phase)
    else:
        main_phase, setup_s, rss = run_untraced(workload, args.seconds, leaks)
        problems += _phase_problems(main_phase)
        latencies = main_phase.latencies
        if len(latencies) < MIN_FETCHES:
            raise BenchError(
                f"only {len(latencies)} fetches finished; p90 needs "
                f"{MIN_FETCHES} (raise --seconds)"
            )
        metrics = {
            "goodput_mb_s": main_phase.goodput,
            "fetch_ms_p50": _percentile(latencies, 50) * 1e3,
            "fetch_ms_p90": _percentile(latencies, 90) * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": rss,
        }
        units = END_TO_END
        passes = main_phase.complete_passes(slots)
        print(
            f"digest: {main_phase.digest(passes, slots)} over {passes} passes"
        )
    leaked = leaks.leaks()
    problems += [f"leaked {leak}" for leak in leaked]
    if not leaked:
        # A leaked worker still holds the tracker's pipe, so stopping
        # the tracker would wait forever; exit reaps both instead.
        _stop_resource_tracker()

    phase = main_phase
    print(
        f"fetches: attempted {phase.attempted}, failed {phase.failed}, "
        f"byte mismatches {phase.mismatched}, latency samples "
        f"{len(phase.latencies)}, in flight at deadline {phase.in_flight}, "
        f"wall {phase.wall_s:.3f} s, verify {phase.verify_s:.3f} s"
    )
    print("metrics:")
    for name, value in metrics.items():
        report_line(name, value, units[name])
    print("cost model (prediction, not a metric):")
    for name, value in phase.model.items():
        report_line(name, value, "" if name == "model_speedup" else "s")
    if args.trace:
        for name in ("streaming.serve_ms", "cluster.barrier_wait_ms"):
            report_line(f"measured {name}", metrics[name], "ms")
    for problem in problems:
        print(f"FAILED: {problem}")
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": phase.attempted,
                "failed": phase.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def _phase_problems(phase: Phase) -> list[str]:
    problems = []
    if phase.mismatched:
        problems.append(f"{phase.mismatched} fetches recovered wrong bytes")
    if phase.attempted < 1:
        problems.append("no fetch finished")
    return problems


if __name__ == "__main__":
    sys.exit(main())
