"""Exact global minimum edge cut on multigraphs.

Ground-truth oracle for k-edge connectivity.  Parallel edges are folded into
integer weights; the answer is exact, certified by one shore of an optimal cut.

``best``, the lightest cut seen, starts as the least (weighted degree, id).
Two kinds of contraction then shrink the graph.  Each merges a pair that no
cut lighter than ``best`` separates, or that some minimum cut keeps together,
so the minimum of ``best`` and the contracted graph's cuts is the answer.

First, heavy edges: tests 1 and 2 of M. Padberg and G. Rinaldi ("An efficient
algorithm for the minimum capacity cut problem", Math. Programming 47, 1990),
run only where they can fire, as M. Henzinger, A. Noe, C. Schulz and D.
Strash do ("Practical minimum cut algorithms", ACM J. Exp. Algorithmics 23,
2018).  Let c(u, v) be the weight between u and v, and d(u) u's weighted
degree.

- Test 1, c(u, v) >= best: a cut that separates u from v weighs at least
  c(u, v), so it is no lighter than ``best``.
- Test 2, 2 c(u, v) >= d(u) at either end u: let S hold u but not v.  If
  S = {u}, it weighs d(u) >= best.  Otherwise moving u out of S drops u's
  edges to the far side, at least c(u, v) >= d(u) / 2, and adds its edges to
  the rest of S, at most d(u) - c(u, v), so the cut gets no heavier.  This needs ``best`` <= every
  vertex's degree, so each merged vertex's degree d(u) + d(v) - 2 c(u, v) is
  offered to ``best`` before the next test.

A sweep visits the vertices by ascending id.  A vertex still present merges
with its smallest-id neighbour that passes either test; the merged vertex is
then tested only on the edges it just gained, again taking the smallest id,
until none passes.  Re-testing its whole row instead would make a star
centred at node 1 quadratic.  The vertex with fewer distinct neighbours is
merged into the other, the tested vertex surviving a tie, so a merge costs
the shorter row.  A sweep that lowers ``best`` loosens test 1 at the vertices
it has passed, so the sweep repeats until ``best`` holds or one vertex is
left.  Connected members of the hard family almost always end as one vertex,
since each V-node's k hub edges pass a test; so do cycles, paths and stars.
On a unit-weight torus, whose every vertex has degree 4, neither test fires.

Then, on whatever is left, Nagamochi-Ibaraki phases (H. Nagamochi and T.
Ibaraki, "Computing edge-connectivity in multigraphs and capacitated graphs",
SIAM J. Discrete Math. 5(1), 1992).  A phase lists the contracted graph's
vertices in a maximum-adjacency (MA) order v_1, ..., v_t: v_i is the vertex
most strongly attached to v_1..v_{i-1}, and that attachment is its label
r(v_i).  v_1..v_i is an MA order of the subgraph it induces, where v_i's degree
is r(v_i), and no cut lighter than the last vertex's degree separates the last
two vertices of an MA order (Stoer and Wagner, J. ACM 44(4), 1997).  So
lambda(v_{i-1}, v_i) >= r(v_i), lambda(x, y) being the fewest edges whose
removal separates x from y.  ``best`` takes the cut {v_t}, of weight r(v_t), if
lighter; then every v_i with r(v_i) >= best is contracted into v_{i-1}.  A cut
lighter than ``best`` separates none of these pairs, so it survives and the
answer stays exact.  v_t always qualifies, so each phase removes a vertex.

A graph in which some node has no edge is disconnected: it gets value 0 and
node 1's component, found by a search over the edges from node 1, with no
per-node work.  Only a graph whose every node has an edge, so n <= 2m, reaches
the contractions.  Their graph is a dict of adjacency dicts, first copied by
``MultiGraph.rows``, so memory grows with the edges, not with n, and
weights are Python integers of any size.  Every phase grows its MA order from
the head that holds node 1, with a heap keyed (-attachment, id), so ties go
to the smallest id.  Each contracted vertex is merged into its head's dict,
and ``children`` lists the heads each head has absorbed.  A side is built
from it only when ``best`` improves or the graph proves disconnected.

The rows are copied as stored, not sorted, and nothing here depends on the
order of a row's entries.  A sweep picks a partner by id, and which of the
two survives by row length, then by which one is being tested.  A phase
pushes the same heap entries in any row order, and no two of them tie:
distinct vertices have distinct ids, and a vertex's attachment grows with each
of its entries.  So the heap pops in one order.  Both kinds of contraction sum
weights.  The value and the side therefore depend only on the graph, not on
the order its edges were added in.
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


def _members(children: dict[int, list[int]], heads) -> frozenset[int]:
    """The original nodes that ``heads`` stand for: each head and, in turn, every head it absorbed."""
    found, stack = [], list(heads)
    while stack:
        v = stack.pop()
        found.append(v)
        stack += children.get(v, ())
    return frozenset(found)


def _component(graph: MultiGraph, node: int) -> frozenset[int]:
    """The nodes joined to ``node`` by a path in ``graph``, ``node`` included."""
    found, stack = {node}, [node]
    while stack:
        for w in graph.neighborhood(stack.pop()):
            if w not in found:
                found.add(w)
                stack.append(w)
    return frozenset(found)


def _merge(adj: dict[int, dict[int, int]], head: int, v: int) -> dict[int, int]:
    """Contract ``v`` into ``head`` in place, summing parallel weights.

    Returns ``v``'s row less ``head``, each entry now the neighbour's weight
    to the merged vertex.
    """
    row, gained = adj[head], adj.pop(v)
    row.pop(v, None)
    gained.pop(head, None)
    for w, m in gained.items():
        other = adj[w]
        del other[v]
        gained[w] = other[head] = row[w] = row.get(w, 0) + m
    return gained


def _contract_heavy_edges(adj: dict[int, dict[int, int]]) -> tuple[CutResult, int, dict[int, list[int]]]:
    """Sweep Padberg-Rinaldi tests 1 and 2 over ``adj``, nodes 1..n, in place.

    Returns the best cut seen, the head that holds node 1, and ``children``:
    the heads each head has absorbed.
    """
    n = len(adj)
    degree = dict(zip(adj, map(sum, map(dict.values, adj.values()))))
    lightest = min(degree, key=degree.get)  # the smallest id of least degree: rows ascend
    best, root = CutResult(degree[lightest], frozenset({lightest})), 1
    children: dict[int, list[int]] = {}
    value, swept = best.value, None
    # A sweep that lowered ``best`` loosened test 1 at every vertex it had
    # passed, so it is swept again.
    while value != swept and len(adj) > 1:
        swept = value
        for v in range(1, n + 1):
            head, candidates = v, adj.get(v)
            while candidates:
                # c >= least is test 1, or test 2 at the head's end.
                d = degree[head]
                least, w = (d + 1) // 2, n + 1
                if value < least:
                    least = value
                for u, c in candidates.items():
                    if u < w and (c >= least or 2 * c >= degree[u]):
                        w = u
                if w > n:
                    break
                if len(adj[w]) > len(adj[head]):
                    head, w = w, head
                c = adj[head][w]
                candidates = _merge(adj, head, w)  # the edges the merged vertex just gained
                children.setdefault(head, []).append(w)
                d = degree[head] = degree[head] + degree.pop(w) - 2 * c
                if w == root:
                    root = head
                if d < value and len(adj) > 1:
                    best, value = CutResult(d, _members(children, [head])), d
    return best, root, children


def _ma_order(adj: dict[int, dict[int, int]], start: int = 1) -> list[tuple[int, int]]:
    """A maximum-adjacency order of ``adj`` from ``start``, as (v_i, r(v_i)).

    ``start`` must be a vertex of ``adj``; node 1, the default, is one of
    every uncontracted graph's.  r(v_1) is 0.  Ties go to the smallest id.  On
    a disconnected graph the order stops once ``start``'s component has grown.
    """
    attach = dict.fromkeys(adj, 0)  # of each vertex not yet grown
    heap = [(0, start)]
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
    """Exact minimum cut: heavy edges contracted, then Nagamochi-Ibaraki phases, integer weights.

    A disconnected graph yields value 0 with node 1's connected component as
    the certified side: found over the edges alone where some node has no
    edge, else by the first MA order, grown from the head that holds node 1,
    which stops short when the graph is disconnected.
    """
    n = graph.n
    if n < 2:
        raise TooSmall(f"need at least 2 nodes, got {n}")
    if graph.edge_node_count() < n:
        return CutResult(0, _component(graph, 1))

    # Weighted adjacency of the contracted graph, keyed by each group's head.
    adj = graph.rows()
    best, root, children = _contract_heavy_edges(adj)
    if len(adj) == 1:
        return best
    order = _ma_order(adj, root)
    if len(order) < len(adj):
        return CutResult(0, _members(children, [v for v, _ in order]))

    while True:
        bound = best.value  # as the phase began: never below the rule's threshold
        last, cut_of_phase = order[-1]
        if cut_of_phase < bound:
            best = CutResult(cut_of_phase, _members(children, [last]))
        # Contract v_{j+1}, ..., v_i into v_j where each of their labels
        # reaches ``bound``; v_t always joins its predecessor.  r(v_1) = 0 <
        # bound, so v_1, the root, stays a head.
        head = root
        for v, label in order[1:]:
            if label >= bound or v == last:
                _merge(adj, head, v)
                children.setdefault(head, []).append(v)
            else:
                head = v
        if len(adj) == 1:
            return best
        order = _ma_order(adj, root)


def check_k(k: int) -> None:
    """Raise ValueError unless ``k`` is a positive connectivity threshold."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")


def is_k_edge_connected(graph: MultiGraph, k: int) -> bool:
    """True iff every cut has total multiplicity at least ``k``."""
    check_k(k)
    return global_min_cut(graph).value >= k
