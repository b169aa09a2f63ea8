"""Time the exact min-cut oracle, ``mincut.global_min_cut``, on fixed graphs.

    python3 scripts/mincut_layer.py [--out BENCH_mincut.json] [--baseline OTHER_CHECKOUT/src]

Imports the library from ``src/`` next to this directory and the benchmark's
workloads from ``bench/``, so the graphs are the ones the benchmark feeds the
oracle at seed 1:

- ``lb-reduce``: the compatible graphs of the first 20 ops of ``lb-reduce``;
- ``agm-hard``: the hard-family members of the first 10 ops of ``agm-hard``;
- ``cycle``: the 256-node cycle, lambda = 2;
- ``heavy-path``: the path 1-2-...-256 with multiplicity 3 on every edge,
  closed into a cycle by one single edge (256, 1), lambda = 4.

On the last two, each maximum-adjacency phase labels every vertex but the last
below the best cut, so each phase contracts one pair: the oracle's worst case.
Each graph records n, its edges (total multiplicity), lambda and the median
wall time of 21 calls in ms; each group also gets the median of its
graphs' medians.  ``--baseline`` loads ``sketchbench/mincut.py`` from another
checkout's ``src/`` and times it in the same process: each repeat calls both
versions, in alternating order, so that both see the same machine state.  The
two must agree on lambda, and each row gains ``baseline_ms``.  The report names each
version by the SHA-256 of its ``mincut.py``.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from sketchbench import lbgraph, mincut, reduction  # noqa: E402
from sketchbench.model import MultiGraph  # noqa: E402

SEED = 1
N = 256
REPEATS = 21


def lb_reduce_graphs(count: int = 20) -> list[MultiGraph]:
    workload = workloads.LbReduce(SEED)
    workload.setup(None)
    return [
        reduction.build_compatible_graph(workload.instance(i), workload.ctx)[0]
        for i in range(count)
    ]


def agm_hard_graphs(count: int = 10) -> list[MultiGraph]:
    workload = workloads.AgmHard(SEED)
    return [lbgraph.build_lb_graph(workload._member(i)[1])[0] for i in range(count)]


def cycle(n: int = N) -> MultiGraph:
    return MultiGraph(n, [(i, i % n + 1, 1) for i in range(1, n + 1)])


def heavy_path(n: int = N) -> MultiGraph:
    return MultiGraph(n, [(i, i + 1, 3) for i in range(1, n)] + [(n, 1, 1)])


def load_baseline(src: Path):
    """Another checkout's ``mincut`` module, importing the rest of this checkout's package."""
    spec = importlib.util.spec_from_file_location(
        "sketchbench.baseline_mincut", src / "sketchbench" / "mincut.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def measure(graph: MultiGraph, oracles: dict) -> dict:
    """Median ms per call of each oracle, calls alternating in order between repeats."""
    times = {name: [] for name in oracles}
    values = set()
    for r in range(REPEATS):
        for name, oracle in sorted(oracles.items(), reverse=r % 2 == 1):
            start = perf_counter()
            cut = oracle.global_min_cut(graph)
            times[name].append(perf_counter() - start)
            if mincut.crossing_value(graph, cut.side) != cut.value:
                raise SystemExit(f"{name}: side {sorted(cut.side)} does not certify {cut.value}")
            values.add(cut.value)
    if len(values) != 1:
        raise SystemExit(f"the oracles disagree on a graph: {sorted(values)}")
    row = {"n": graph.n, "edges": sum(m for _, _, m in graph.edges()), "lambda": values.pop()}
    for name, samples in times.items():
        row[name] = round(statistics.median(samples) * 1e3, 3)
    return row


def sha256(module) -> str:
    return hashlib.sha256(Path(module.__file__).read_bytes()).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_mincut.json")
    parser.add_argument("--baseline", type=Path, help="another checkout's src/ to time alongside")
    args = parser.parse_args()

    oracles = {"ms": mincut}
    if args.baseline is not None:
        oracles["baseline_ms"] = load_baseline(args.baseline)
    groups = {
        "lb-reduce": lb_reduce_graphs(),
        "agm-hard": agm_hard_graphs(),
        "cycle": [cycle()],
        "heavy-path": [heavy_path()],
    }
    for oracle in oracles.values():  # warm-up: first allocations
        oracle.global_min_cut(groups["cycle"][0])
    report = {
        "seed": SEED,
        "repeats": REPEATS,
        "mincut_sha256": {name: sha256(oracle) for name, oracle in oracles.items()},
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
        },
        "graphs": {
            name: [measure(g, oracles) for g in graphs] for name, graphs in groups.items()
        },
    }
    report["median_ms"] = {
        group: {name: round(statistics.median(row[name] for row in rows), 3) for name in oracles}
        for group, rows in report["graphs"].items()
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for group, medians in report["median_ms"].items():
        cells = "  ".join(f"{name} {ms:9.3f}" for name, ms in medians.items())
        print(f"{group:12s} {cells}   (median over {len(report['graphs'][group])} graphs)")


if __name__ == "__main__":
    main()
