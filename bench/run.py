"""Benchmark runner for the sketchbench library.

    python3 bench/run.py --workload agm-hard --seed 1 --seconds 25 --trace 0

Runs one workload in this single process: imports the library from ``src/``
next to this directory, sets the workload up several times, then times ops
until ``--seconds`` have passed, checking every op's result.  Between set-ups
and ops it times the reference kernels of ``calibration.py``, and the gated
times are scaled by the machine's slow-down they show.  The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it records the code version, the platform,
the seed, the workload's parameters and the sample counts.  ``--trace 0``
reports the end-to-end metrics with no tracing installed; ``--trace 1``
reports the per-layer metrics of a traced run and writes its spans to
``bench/out/``.  See ``bench/README.md``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

# One thread per process: numpy's BLAS must not start a pool of its own.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

try:
    import numpy as np
    import sketchbench
except ImportError as exc:
    sys.exit(f"bench: cannot import the library from {SRC}: {exc}")
if not Path(sketchbench.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"bench: imported sketchbench from {sketchbench.__file__}, not from {SRC}")

import calibration
import tracing
import workloads

#: A run sets the workload up at least this many times, and again until
#: ``SETUP_SECONDS`` have passed, and reports the median set-up.
SETUP_REPEATS = 3
SETUP_SECONDS = 4.0


def traced_op(i: int) -> bool:
    """Which ops of a traced run are traced: two of every four, so that the
    untraced ops between them give the tracing overhead on the same inputs'
    distribution (and agm-hard's alternating C0/C1 members split evenly)."""
    return i % 4 in (1, 2)


def git_sha(root: Path) -> str | None:
    """Commit of a git checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(src: Path) -> str:
    """Digest of every library source file, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def start_to_import_s() -> float:
    """Wall time of a fresh interpreter that starts and imports the library."""
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import sketchbench.cli"],
        check=True,
    )
    return perf_counter() - start


def run(
    workload: workloads.Workload,
    seconds: float,
    tracer: tracing.Tracer | None,
    setup_seconds: float = SETUP_SECONDS,
) -> tuple[dict, dict]:
    """Set up for ``setup_seconds``, time ops for ``seconds``, and return (result, record).

    With a tracer, the set-ups and two of every four ops run traced.
    """
    trace = tracer is not None
    probes = tracing.Instrumentation(tracer) if trace else None

    # The machine's slow-down before the first set-up, then after each set-up and op.
    calibration.warm_up()
    setup_slowdowns = [calibration.slowdown(workloads.SETUP_CALIBRATION)]
    import_times, setup_times = [], []
    setups_start = perf_counter()
    r = 0
    while r < SETUP_REPEATS or perf_counter() - setups_start < setup_seconds:
        import_times.append(start_to_import_s())
        with probes.installed() if trace else nullcontext():
            start = perf_counter()
            with tracer.root(f"setup{r}", "setup") if trace else nullcontext():
                workload.setup(tracer)
            setup_times.append(perf_counter() - start)
        setup_slowdowns.append(calibration.slowdown(workloads.SETUP_CALIBRATION))
        r += 1
    setup_totals = [a + b for a, b in zip(import_times, setup_times)]

    op_times: list[float] = []
    traced_times: list[float] = []
    untraced_times: list[float] = []
    checks: dict[str, int] = {}
    errors: list[str] = []
    failed = 0
    longest = 0
    op_slowdowns = [calibration.slowdown(workload.calibration)]
    phase_start = perf_counter()
    i = 0
    while i < workload.min_ops or perf_counter() - phase_start < seconds:
        traced = trace and traced_op(i)
        with probes.installed() if traced else nullcontext():
            start = perf_counter()
            try:
                with tracer.root(f"op{i}", "op") if traced else nullcontext():
                    broken, bits = workload.op(i, tracer if traced else None)
            except Exception as exc:  # an op that raises is a failed op; the run goes on
                broken, bits = ["raised"], 0
                if len(errors) < 5:
                    errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            elapsed = perf_counter() - start
        op_slowdowns.append(calibration.slowdown(workload.calibration))
        op_times.append(elapsed)
        (traced_times if traced else untraced_times).append(elapsed)
        for name in broken:
            checks[name] = checks.get(name, 0) + 1
        failed += bool(broken)
        longest = max(longest, bits)
        i += 1

    scaled_setups = calibration.scaled(setup_totals, setup_slowdowns)
    scaled_ops = calibration.scaled(op_times, op_slowdowns)
    attempted = len(op_times)
    allowed = workload.tolerated(attempted)
    correct = not workload.setup_failures and all(
        count <= allowed.get(name, 0) for name, count in checks.items()
    )

    if trace:
        metrics = {**tracing.layer_metrics(tracer), **workload.layer_extras(tracer)}
        traced_rate = len(traced_times) / sum(traced_times)
        untraced_rate = len(untraced_times) / sum(untraced_times)
        metrics["trace.ops_per_s"] = traced_rate
        metrics["trace.untraced_ops_per_s"] = untraced_rate
        metrics["trace.overhead"] = untraced_rate / traced_rate - 1
    else:
        metrics = {
            "setup_s": statistics.median(scaled_setups),
            "ops_per_s": attempted / sum(scaled_ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": (attempted - failed) / attempted,
            "msg_bits.max": float(longest),
        }

    record = {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "trace": int(trace),
        "params": workload.params,
        "git_sha": git_sha(ROOT),
        "src_sha256": source_sha256(SRC),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "samples": {
            "setup": len(setup_times),
            "ops": attempted,
            "traced_ops": len(traced_times),
            "untraced_ops": len(untraced_times),
        },
        "op_s.p50": statistics.median(op_times),
        "op_s.p90": statistics.quantiles(op_times, n=10, method="inclusive")[8],
        "import_times_s": import_times,
        "setup_times_s": setup_times,
        # The gated times before scaling.
        "measured": {
            "setup_s": statistics.median(setup_totals),
            "ops_per_s": attempted / sum(op_times),
        },
        "calibration": {
            "setup_kernels": workloads.SETUP_CALIBRATION,
            "op_kernels": workload.calibration,
            "setup_slowdowns": setup_slowdowns,
            "op_slowdown.p50": statistics.median(op_slowdowns),
            "op_slowdown.min": min(op_slowdowns),
            "op_slowdown.max": max(op_slowdowns),
        },
        "checks_failed": checks,
        "checks_allowed": allowed,
        "setup_failures": workload.setup_failures,
        "errors": errors,
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, record


def with_units(metrics: dict, declared: list[dict]) -> dict:
    """The declared metrics, in declaration order, each with its unit."""
    return {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=1, help="default 1; seed 4242 is held out for re-checking a claim"
    )
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else None
    result, record = run(workload, args.seconds, tracer)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    result["metrics"] = with_units(result["metrics"], declared)

    if args.trace:
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"record": record, "result": result, "spans": tracer.spans}))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
