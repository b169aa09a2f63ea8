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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MultiGraph


class TooSmall(ValueError):
    """Minimum cut needs at least two nodes."""


@dataclass(frozen=True)
class CutResult:
    value: int
    side: frozenset[int]


def crossing_value(graph: MultiGraph, side) -> int:
    """Total multiplicity of edges with exactly one endpoint in ``side``."""
    side = frozenset(side)
    # Stops at the first node outside ``side``, so never counts past |side| + 1.
    if not side or all(u in side for u in range(1, graph.n + 1)):
        raise ValueError("side must be a nonempty proper subset of the nodes")
    total = 0
    for u, v, m in graph.edges():
        if (u in side) != (v in side):
            total += m
    return total


def _component_of(graph: MultiGraph, start: int) -> frozenset[int]:
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in graph.neighborhood(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return frozenset(seen)


def global_min_cut(graph: MultiGraph) -> CutResult:
    """Exact minimum cut by Nagamochi-Ibaraki contraction, integer weights.

    A disconnected graph yields value 0 with one connected component as the
    certified side.
    """
    n = graph.n
    if n < 2:
        raise TooSmall(f"need at least 2 nodes, got {n}")

    component = _component_of(graph, 1)
    if len(component) < n:
        return CutResult(0, component)

    # Attachment of grown and contracted vertices: no sum of edge weights lifts
    # it back above an unpicked vertex's, which is never negative.  It sits on
    # the diagonal, so adding a vertex's row as it joins the grown set retires it.
    taken = np.iinfo(np.int64).min // 2
    # Weighted adjacency; rows/cols are contracted in place.  A degree, an
    # attachment or a grown vertex's excess over ``taken`` is at most the total
    # weight, so a total below -taken = 2**62 keeps every sum inside int64.
    us, vs, mults = zip(*graph.edges())  # connected, so at least one edge
    if sum(mults) >= -taken:
        raise ValueError("total edge multiplicity reaches 2**62, past the oracle's int64 range")
    weights = np.zeros((n, n), dtype=np.int64)
    heads, tails = np.array(us) - 1, np.array(vs) - 1
    weights[heads, tails] = mults
    weights[tails, heads] = mults

    rows = list(weights)  # row views: a list lookup is cheaper than ``weights[i, :]``
    groups = [frozenset({i + 1}) for i in range(n)]
    active = np.ones(n, dtype=bool)
    degrees = weights.sum(axis=1)
    best = CutResult(int(degrees.min()), groups[degrees.argmin()])
    np.fill_diagonal(weights, taken)

    while len(idx := np.flatnonzero(active)) > 1:
        # Maximum-adjacency order: grow from idx[0], always adding the vertex
        # most strongly connected to the grown set.  Grown and contracted
        # vertices sit at ``taken`` and are never picked again.
        attach = weights[idx[0], :].copy()
        attach[~active] = taken
        bound = best.value  # as the phase began: never below the rule's threshold
        pairs = []  # (v_{i-1}, v_i) with r(v_i) >= bound, in MA order
        last = idx[0]
        for _ in range(len(idx) - 1):
            nxt = attach.argmax()
            cut_of_phase = attach.item(nxt)
            if cut_of_phase >= bound:
                pairs.append((last, nxt))
            second_last, last = last, nxt
            attach += rows[nxt]
        if cut_of_phase < bound:
            best = CutResult(cut_of_phase, groups[last])
            pairs.append((second_last, last))
        # Contract each chain v_j, v_{j+1}, ..., v_i of consecutive pairs into v_j.
        chains: list[list] = []
        for u, v in pairs:
            if chains and chains[-1][-1] == u:
                chains[-1].append(v)
            else:
                chains.append([u, v])
        for head, *run in chains:
            merged = weights[run, :].sum(axis=0)
            weights[head, :] += merged
            weights[:, head] += merged
            weights[head, head] = taken
            weights[run, :] = 0
            weights[:, run] = 0
            active[run] = False
            groups[head] = groups[head].union(*(groups[v] for v in run))

    return best


def is_k_edge_connected(graph: MultiGraph, k: int) -> bool:
    """True iff every cut has total multiplicity at least ``k``."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return global_min_cut(graph).value >= k
