"""Exact global minimum edge cut on multigraphs.

Ground-truth oracle for k-edge connectivity.  Parallel edges are folded into
integer weights; the answer is exact, certified by one shore of an optimal cut.

The algorithm is Nagamochi-Ibaraki contraction (H. Nagamochi and T. Ibaraki,
"Computing edge-connectivity in multigraphs and capacitated graphs", SIAM J.
Discrete Math. 5(1), 1992).  ``best``, the lightest cut seen, starts as a
vertex of minimum weighted degree.  A phase lists the contracted graph's
vertices in a maximum-adjacency (MA) order v_1, ..., v_t: v_i is the vertex
most strongly attached to v_1..v_{i-1}, and that attachment is its label
r(v_i).  v_1..v_i is an MA order of the subgraph it induces, where v_i's degree
is r(v_i), and no cut lighter than the last vertex's degree separates the last
two vertices of an MA order (Stoer and Wagner, J. ACM 44(4), 1997).  So
lambda(v_{i-1}, v_i) >= r(v_i), lambda(x, y) being the fewest edges whose
removal separates x from y.  ``best`` takes the cut {v_t}, of weight r(v_t), if
lighter; then every v_i with r(v_i) >= best is contracted into v_{i-1}.  A cut
lighter than ``best`` separates none of these pairs, so it survives and the
answer stays exact.  v_t always qualifies; on the hard family's 256-node graphs
a phase removes most vertices, and 1-4 phases replace the n-1 that contracting
only (v_{t-1}, v_t) takes.

The contracted graph is a dict of adjacency dicts, first copied by
``MultiGraph.rows``, so memory grows with the edges, not with n^2, and
weights are Python integers of any size.  A phase grows its MA order with a
heap keyed (-attachment, id), so ties go to the smallest id.  Each run of
contracted vertices is merged into its head's dict, and ``groups`` maps each
head that has absorbed others to the original nodes it stands for.

The rows are copied as stored, not sorted, and nothing here depends on the
order of a row's entries.  A phase pushes the same heap entries in any row
order, and no two of them tie: distinct vertices have distinct ids, and a
vertex's attachment grows with each of its entries.  So the heap pops in one
order.  The starting cut is the least (weighted degree, id), and contraction
sums weights.  The value and the side therefore depend only on the graph,
not on the order its edges were added in.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .model import MultiGraph


class TooSmall(ValueError):
    """Minimum cut needs at least two nodes."""


@dataclass(frozen=True)
class CutResult:
    value: int
    side: frozenset[int]


def crossing_value(graph: MultiGraph, side) -> int:
    """Total multiplicity of edges with exactly one endpoint in ``side``."""
    n, side = graph.n, frozenset(side)
    # Checks each member of ``side``, never each node of the graph.
    if not (0 < len(side) < n and all(isinstance(u, int) and 1 <= u <= n for u in side)):
        raise ValueError("side must be a nonempty proper subset of the nodes 1..n")
    total = 0
    for u, v, m in graph.edges():
        if (u in side) != (v in side):
            total += m
    return total


def _ma_order(adj: dict[int, dict[int, int]]) -> list[tuple[int, int]]:
    """A maximum-adjacency order of ``adj`` from its smallest vertex, as (v_i, r(v_i)).

    r(v_1) is 0.  Ties go to the smallest id.  On a disconnected graph the
    order stops once the smallest vertex's component has grown.
    """
    attach = dict.fromkeys(adj, 0)  # of each vertex not yet grown
    heap = [(0, min(adj))]
    order = []
    pop, push, attachment = heapq.heappop, heapq.heappush, attach.get
    while attach and heap:
        # A vertex's freshest entry pops before its stale ones, so an entry
        # whose vertex has already grown is the only kind to skip.
        v = pop(heap)[1]
        label = attach.pop(v, None)
        if label is not None:
            order.append((v, label))
            for w, m in adj[v].items():
                r = attachment(w)
                if r is not None:
                    attach[w] = r = r + m
                    push(heap, (-r, w))
    return order


def global_min_cut(graph: MultiGraph) -> CutResult:
    """Exact minimum cut by Nagamochi-Ibaraki contraction, integer weights.

    A disconnected graph yields value 0 with node 1's connected component as
    the certified side: the first phase's MA order, grown from node 1, stops
    short when the graph is disconnected.
    """
    n = graph.n
    if n < 2:
        raise TooSmall(f"need at least 2 nodes, got {n}")

    # Weighted adjacency of the contracted graph, keyed by each group's head.
    adj = graph.rows()
    order = _ma_order(adj)
    if len(order) < n:
        return CutResult(0, frozenset(v for v, _ in order))
    # The original nodes of each head that stands for more than itself.
    groups: dict[int, frozenset[int]] = {}
    degrees = list(map(sum, map(dict.values, adj.values())))  # of nodes 1..n
    degree = min(degrees)
    best = CutResult(degree, frozenset({degrees.index(degree) + 1}))

    while True:
        bound = best.value  # as the phase began: never below the rule's threshold
        last, cut_of_phase = order[-1]
        if cut_of_phase < bound:
            best = CutResult(cut_of_phase, groups.get(last, frozenset({last})))
        # Runs v_{j+1}, ..., v_i to contract into v_j: each of their labels
        # reaches ``bound``, and v_t always joins its predecessor.  r(v_1) = 0
        # < bound, so v_1 is a head.
        runs: dict[int, list[int]] = {}
        for v, label in order:
            if label >= bound or v == last:
                runs.setdefault(head, []).append(v)
            else:
                head = v
        for head, run in runs.items():
            row, group = adj[head], {head, *run}
            for v in run:
                row.pop(v, None)
                for w, m in adj.pop(v).items():
                    if w not in group:
                        del adj[w][v]
                        row[w] = row.get(w, 0) + m
                        adj[w][head] = row[w]
            groups[head] = groups.get(head, frozenset({head})).union(*(groups.pop(v, (v,)) for v in run))
        if len(adj) == 1:
            return best
        order = _ma_order(adj)


def check_k(k: int) -> None:
    """Raise ValueError unless ``k`` is a positive connectivity threshold."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")


def is_k_edge_connected(graph: MultiGraph, k: int) -> bool:
    """True iff every cut has total multiplicity at least ``k``."""
    check_k(k)
    return global_min_cut(graph).value >= k
