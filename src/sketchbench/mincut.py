"""Exact global minimum edge cut on multigraphs.

Ground-truth oracle for k-edge connectivity.  Parallel edges are folded into
integer weights; the answer is exact, certified by one shore of an optimal cut.
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
    if not side or side >= {i for i in range(1, graph.n + 1)}:
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
    """Exact minimum cut via maximum-adjacency contraction, integer weights.

    A disconnected graph yields value 0 with one connected component as the
    certified side.
    """
    n = graph.n
    if n < 2:
        raise TooSmall(f"need at least 2 nodes, got {n}")

    component = _component_of(graph, 1)
    if len(component) < n:
        return CutResult(0, component)

    # Weighted adjacency; rows/cols are contracted in place.
    weights = np.zeros((n, n), dtype=np.int64)
    for u, v, m in graph.edges():
        weights[u - 1, v - 1] = m
        weights[v - 1, u - 1] = m

    groups = [frozenset({i + 1}) for i in range(n)]
    active = np.ones(n, dtype=bool)
    # Attachment of grown and contracted vertices: no sum of edge weights lifts
    # it back above an unpicked vertex's, which is never negative.
    taken = np.iinfo(np.int64).min // 2
    best: CutResult | None = None

    # n - 1 phases, each on at least two active vertices, so ``best`` gets set.
    for _ in range(n - 1):
        idx = np.flatnonzero(active)
        # Maximum-adjacency order: grow from idx[0], always adding the vertex
        # most strongly connected to the grown set.  Grown and contracted
        # vertices sit at ``taken`` and are never picked again.
        attach = weights[idx[0], :].copy()
        attach[~active] = taken
        attach[idx[0]] = taken
        last = second_last = idx[0]
        for _ in range(len(idx) - 1):
            nxt = int(attach.argmax())
            second_last, last = last, nxt
            cut_of_phase = int(attach[nxt])
            attach += weights[nxt, :]
            attach[nxt] = taken
        if best is None or cut_of_phase < best.value:
            best = CutResult(cut_of_phase, groups[last])
        # Contract `last` into `second_last`.
        weights[second_last, :] += weights[last, :]
        weights[:, second_last] += weights[:, last]
        weights[second_last, second_last] = 0
        weights[last, :] = 0
        weights[:, last] = 0
        active[last] = False
        groups[second_last] = groups[second_last] | groups[last]

    return best


def is_k_edge_connected(graph: MultiGraph, k: int) -> bool:
    """True iff every cut has total multiplicity at least ``k``."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return global_min_cut(graph).value >= k
