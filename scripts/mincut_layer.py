"""Time the exact min-cut oracle, ``mincut.global_min_cut``, on fixed graphs.

    python3 scripts/mincut_layer.py [--out BENCH_mincut.json] [--baseline OTHER_CHECKOUT/src]

The first two groups are graphs the benchmark feeds the oracle at seed 1;
the rest are the oracle's worst cases:

- ``lb-reduce``: the compatible graphs of the first 20 ops of ``lb-reduce``;
- ``agm-hard``: the hard-family members of the first 10 ops of ``agm-hard``;
- ``cycle``: the 256-node cycle, lambda = 2;
- ``heavy-path``: the path 1-2-...-256 with multiplicity 3 on every edge,
  closed into a cycle by one single edge (256, 1), lambda = 4;
- ``cycle-2048``: the 2,048-node cycle, lambda = 2;
- ``torus-32x32``: the 32 x 32 torus with unit edges, lambda = 4;
- ``star-4096``: node 1 joined to each of the nodes 2..4096, lambda = 1.

On the cycles and the heavy path, each maximum-adjacency phase labels every
vertex but the last below the best cut, so each phase contracts one pair; the
oracle's heavy-edge pass contracts them first.  No edge of the torus passes
that pass's tests, so the torus times the phases alone.  The star times the
pass's merges into one large row.  Without the pass, ``cycle-2048`` takes
about 1 s per call and ``torus-32x32`` about 0.3 s on 2 CPUs, so a
``--baseline`` run against such a checkout takes about 35 s.  Each graph
records n, its edges (total multiplicity), lambda and one layer,
``global_min_cut_ms``.  Every call's side must certify its value by this
checkout's ``mincut.crossing_value``, and every call must give the same
lambda.  ``layer_record`` describes the repeats, ranges and
report.
"""

from time import perf_counter

import layer_record  # first: it pins the thread pools and puts src/ and bench/ on sys.path
import workloads
from sketchbench import lbgraph, mincut, reduction
from sketchbench.model import MultiGraph

SEED = 1
REPEATS = 20


def lb_reduce_graphs(count: int = 20) -> list[MultiGraph]:
    workload = workloads.LbReduce(SEED)
    workload.setup(None)
    return [reduction.build_compatible_graph(workload.instance(i), workload.ctx)[0] for i in range(count)]


def agm_hard_graphs(count: int = 10) -> list[MultiGraph]:
    workload = workloads.AgmHard(SEED)
    return [lbgraph.build_lb_graph(workload._member(i)[1])[0] for i in range(count)]


def cycle(n: int) -> MultiGraph:
    return MultiGraph(n, [(i, i % n + 1, 1) for i in range(1, n + 1)])


def heavy_path(n: int) -> MultiGraph:
    return MultiGraph(n, [(i, i + 1, 3) for i in range(1, n)] + [(n, 1, 1)])


def torus(side: int) -> MultiGraph:
    """The side x side grid with wrap-around, node (r, c) numbered r * side + c + 1."""

    def node(r: int, c: int) -> int:
        return r % side * side + c % side + 1

    edges = [(node(r, c), node(r, c + 1), 1) for r in range(side) for c in range(side)]
    edges += [(node(r, c), node(r + 1, c), 1) for r in range(side) for c in range(side)]
    return MultiGraph(side * side, edges)


def star(n: int) -> MultiGraph:
    return MultiGraph(n, [(1, v, 1) for v in range(2, n + 1)])


def measure(graph: MultiGraph, versions: dict) -> dict:
    """The row of one graph: its oracle spreads per version and its certified lambda."""

    def cut(name, package):
        start = perf_counter()
        result = package.mincut.global_min_cut(graph)
        elapsed = perf_counter() - start
        if mincut.crossing_value(graph, result.side) != result.value:
            raise SystemExit(f"{name}: side {sorted(result.side)} does not certify {result.value}")
        return {"global_min_cut_ms": elapsed * 1e3}, result.value

    spreads, value = layer_record.measure(versions, cut, REPEATS)
    return {"n": graph.n, "edges": sum(m for _, _, m in graph.edges()), "lambda": value, **spreads}


def record(versions: dict) -> tuple[dict, dict]:
    groups = {
        "lb-reduce": lb_reduce_graphs(),
        "agm-hard": agm_hard_graphs(),
        "cycle": [cycle(256)],
        "heavy-path": [heavy_path(256)],
        "cycle-2048": [cycle(2048)],
        "torus-32x32": [torus(32)],
        "star-4096": [star(4096)],
    }
    measure(groups["cycle"][0], versions)  # warm-up: first allocations
    rows = {name: [measure(graph, versions) for graph in graphs] for name, graphs in groups.items()}
    return {"seed": SEED, "repeats": REPEATS}, rows


if __name__ == "__main__":
    layer_record.main(__doc__, "BENCH_mincut.json", ("model", "mincut"), (("mincut", "global_min_cut"),), record)
