import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchbench.lbgraph import Condition, build_lb_graph, layout, random_spec
from sketchbench.mincut import (
    CutResult,
    TooSmall,
    _contract_heavy_edges,
    _ma_order,
    crossing_value,
    global_min_cut,
    is_k_edge_connected,
)
from sketchbench.model import Advice, MultiGraph


def brute_min_cut(g: MultiGraph) -> int:
    """Independent oracle: enumerate every cut with node n pinned outside."""
    edges = list(g.edges())
    u = np.array([e[0] - 1 for e in edges])
    v = np.array([e[1] - 1 for e in edges])
    mult = np.array([e[2] for e in edges], dtype=np.int64)
    sides = np.arange(1, 2 ** (g.n - 1))[:, None]
    crossing = ((sides >> u) & 1) != ((sides >> v) & 1)
    return int((crossing @ mult).min())


def random_graph(rng, n_max=12) -> MultiGraph:
    n = int(rng.integers(2, n_max + 1))
    g = MultiGraph(n)
    for _ in range(int(rng.integers(1, n * (n - 1) // 2 + 3))):
        a = int(rng.integers(1, n + 1))
        b = int(rng.integers(1, n + 1))
        if a != b:
            g.add_edge(a, b, int(rng.integers(1, 5)))
    if g.edge_slot_count() == 0:
        g.add_edge(1, 2, 1)
    return g


def star(n: int) -> MultiGraph:
    """Node 1 joined to each of the nodes 2..n by one edge."""
    return MultiGraph(n, [(1, v, 1) for v in range(2, n + 1)])


def torus_edges(side: int) -> list[tuple[int, int, int]]:
    """The side x side grid with wrap-around and unit edges, node (r, c) numbered r * side + c + 1."""

    def node(r: int, c: int) -> int:
        return r % side * side + c % side + 1

    edges = [(node(r, c), node(r, c + 1), 1) for r in range(side) for c in range(side)]
    return edges + [(node(r, c), node(r + 1, c), 1) for r in range(side) for c in range(side)]


def test_cycle_min_cut():
    g = MultiGraph(5, [(i, i % 5 + 1, 1) for i in range(1, 6)])
    assert global_min_cut(g).value == 2


def test_k4_min_cut():
    g = MultiGraph(4, [(u, v, 1) for u in range(1, 5) for v in range(u + 1, 5)])
    assert global_min_cut(g).value == 3
    assert is_k_edge_connected(g, 3)
    assert not is_k_edge_connected(g, 4)


def test_disconnected_returns_component():
    g = MultiGraph(6, [(1, 2, 1), (2, 3, 1), (1, 3, 1), (4, 5, 1), (5, 6, 1), (4, 6, 1)])
    res = global_min_cut(g)
    assert res.value == 0
    assert res.side == frozenset({1, 2, 3})
    assert not is_k_edge_connected(g, 1)


@pytest.mark.parametrize(
    "n, edges, side",
    [
        (4, [(2, 3, 5), (3, 4, 1)], {1}),
        (5, [(1, 2, 3), (2, 3, 1), (1, 3, 2)], {1, 2, 3}),
        (6, [(1, 6, 1), (6, 3, 2), (2, 4, 7), (4, 5, 1)], {1, 3, 6}),
    ],
    ids=["node-1-isolated", "others-isolated", "ids-interleaved"],
)
def test_disconnected_side_is_node_1s_component(n, edges, side):
    # The side is node 1's component even where another node has degree 0,
    # lighter than any cut around node 1's component could be.
    g = MultiGraph(n, edges)
    assert global_min_cut(g) == CutResult(0, frozenset(side))


def test_too_small():
    with pytest.raises(TooSmall):
        global_min_cut(MultiGraph(1))


def test_agreement_with_enumeration():
    rng = np.random.default_rng(777)
    for _ in range(500):
        g = random_graph(rng)
        res = global_min_cut(g)
        assert res.value == brute_min_cut(g)
        if 0 < len(res.side) < g.n:
            assert crossing_value(g, res.side) == res.value


def test_monotonicity():
    rng = np.random.default_rng(31)
    for _ in range(50):
        g = random_graph(rng)
        for k in range(2, 5):
            if is_k_edge_connected(g, k):
                assert is_k_edge_connected(g, k - 1)


def test_lb_instance_cut_value_and_side():
    # A C0 member of the family with two sigma edges into B: the optimal cut
    # is exactly those two edges and the B-side shore is certified.
    spec = random_spec(49, 3, seed=40, condition=Condition.C0)
    in_b = len(spec.w_neighbors[spec.sigma] & spec.b_side)
    assert in_b <= 2
    graph, _ = build_lb_graph(spec)
    res = global_min_cut(graph)
    assert res.value == in_b
    v_ids, _, _, u_b = layout(49)
    b_shore = spec.b_side | {u_b} | {
        v for v, role in spec.restrictions.items() if role is Advice.B_RESTRICTED
    }
    assert res.side in (b_shore, frozenset(range(1, 50)) - b_shore)
    assert crossing_value(graph, b_shore) == res.value


def shuffled_copy(graph: MultiGraph, rng) -> MultiGraph:
    """``graph`` rebuilt from its edges in a random order, each split into unit edges named from a random end."""
    units = [(u, v) for u, v, m in graph.edges() for _ in range(m)]
    copy = MultiGraph(graph.n)
    for i in rng.permutation(len(units)):
        u, v = units[i]
        copy.add_edge(*((u, v) if rng.random() < 0.5 else (v, u)))
    return copy


@pytest.mark.parametrize("seed", range(4))
def test_oracle_ignores_the_order_edges_were_added_in(seed):
    # The oracle copies the rows as stored, so its MA orders, and with them
    # the value and the certified side, must not depend on the order the
    # edges were written in.  Cycles and complete graphs tie everywhere.  The
    # value and side alone hardly show a tie broken by row order, so the
    # first phase's MA order is compared too.
    rng = np.random.default_rng(seed)
    graphs = [
        random_graph(rng),
        random_graph(rng),
        MultiGraph(12, [(i, i % 12 + 1, 1) for i in range(1, 13)]),
        MultiGraph(6, [(u, v, 2) for u, v in itertools.combinations(range(1, 7), 2)]),
        MultiGraph(9, [(1, 2, 1), (2, 3, 1), (4, 5, 2), (7, 8, 1)]),  # disconnected
        # Pendant vertices of equal degree on a K4, two of them on node 1.
        MultiGraph(8, [(u, v, 1) for u, v in itertools.combinations(range(1, 5), 2)] + [(1, 5, 1), (1, 6, 1), (2, 7, 1)]),
        star(40),
        # Node 1 passes tests with both 3 and 4, and merging either side
        # finds a different cut of weight 1.
        MultiGraph(5, [(1, 3, 1), (1, 4, 2), (2, 3, 1), (2, 5, 3)]),
        *(build_lb_graph(random_spec(64, 3, seed, condition=c))[0] for c in (Condition.C0, Condition.C1)),
    ]
    for graph in graphs:
        expected, order = global_min_cut(graph), _ma_order(graph.rows())
        for _ in range(4):
            copy = shuffled_copy(graph, rng)
            assert copy == graph
            assert _ma_order(copy.rows()) == order
            assert global_min_cut(copy) == expected


@st.composite
def multigraphs(draw, max_nodes=14):
    n = draw(st.integers(2, max_nodes))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(st.tuples(pairs, st.integers(1, 4)), max_size=3 * n))
    return MultiGraph(n, [(u, v, m) for (u, v), m in edges])


@settings(max_examples=300, deadline=None)
@given(multigraphs())
def test_agreement_with_networkx(g):
    nx = pytest.importorskip("networkx")
    res = global_min_cut(g)
    h = nx.Graph()
    h.add_nodes_from(range(1, g.n + 1))
    h.add_weighted_edges_from(g.edges())
    if nx.is_connected(h):
        value, _ = nx.stoer_wagner(h)
        assert res.value == value
    else:
        assert res.value == 0 and res.side == frozenset(nx.node_connected_component(h, 1))
    assert crossing_value(g, res.side) == res.value


def networkx_min_cut(g: MultiGraph) -> int:
    """Second implementation: networkx's Stoer-Wagner, 0 on a disconnected graph."""
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(1, g.n + 1))
    h.add_weighted_edges_from(g.edges())
    return nx.stoer_wagner(h)[0] if nx.is_connected(h) else 0


def assert_matches_networkx(g: MultiGraph) -> None:
    res = global_min_cut(g)
    assert res.value == networkx_min_cut(g)
    assert crossing_value(g, res.side) == res.value


@pytest.mark.parametrize("seed", range(4))
def test_sparse_multigraphs_agree_with_networkx(seed):
    # A random spanning tree plus up to 2n extra edges, multiplicities 1-3.
    rng = np.random.default_rng(seed)
    for _ in range(15):
        n = int(rng.integers(20, 121))
        g = MultiGraph(n)
        for v in range(2, n + 1):
            g.add_edge(v, int(rng.integers(1, v)), int(rng.integers(1, 4)))
        for _ in range(int(rng.integers(0, 2 * n + 1))):
            u, v = (int(x) for x in rng.integers(1, n + 1, size=2))
            if u != v:
                g.add_edge(u, v, int(rng.integers(1, 4)))
        assert_matches_networkx(g)


@pytest.mark.parametrize("n", [100, 256])
@pytest.mark.parametrize("condition", [Condition.C0, Condition.C1])
def test_hard_family_agrees_with_networkx(n, condition):
    # Seeds whose C0 members are connected (lambda 1-2), so contraction runs
    # rather than the disconnected-graph path.
    for seed in (1, 2):
        graph, _ = build_lb_graph(random_spec(n, 3, seed=seed, condition=condition))
        assert_matches_networkx(graph)


@pytest.mark.parametrize(
    "graph, value, left",
    [
        (MultiGraph(256, [(i, i % 256 + 1, 1) for i in range(1, 257)]), 2, 1),
        (MultiGraph(256, [(i, i + 1, 3) for i in range(1, 256)] + [(256, 1, 1)]), 4, 1),
        (MultiGraph(64, torus_edges(8)), 4, 64),
        # A path of weight-5 edges hung on node 64 passes test 1 and collapses
        # into it, so the pass stops partway.
        (MultiGraph(72, torus_edges(8) + [(v, v + 1, 5) for v in range(64, 72)]), 4, 64),
    ],
    ids=["cycle", "heavy-path", "torus-8x8", "torus-with-heavy-tail"],
)
def test_no_contraction_worst_case(graph, value, left):
    # The MA phases' worst cases.  On the cycle and the heavy path every label
    # but the last stays below the best cut, so a phase contracts one pair and
    # n-1 phases would run; every edge passes Padberg-Rinaldi test 2, so the
    # heavy-edge pass contracts both to one vertex first.  The torus's unit
    # edges and degree 4 pass neither test (1 < 4 and 2 < 4), so the phases
    # do all the work that the pass leaves, ``left`` vertices.
    assert global_min_cut(graph).value == value
    assert_matches_networkx(graph)
    adj = graph.rows()
    _contract_heavy_edges(adj)
    assert len(adj) == left


def test_star_centred_at_node_1():
    # Every leaf passes test 1 into node 1.  A merged vertex re-tested on its
    # whole row would rescan the hub's row after each of the 4,095 merges.
    g = star(4096)
    res = global_min_cut(g)
    assert res == CutResult(1, frozenset({2}))
    assert crossing_value(g, res.side) == 1


def python_min_cut(g: MultiGraph) -> int:
    """Brute force in Python integers: every side that holds node 1 and misses another."""
    rest = range(2, g.n + 1)
    return min(
        crossing_value(g, {1, *others})
        for size in range(g.n - 1)
        for others in itertools.combinations(rest, size)
    )


@pytest.mark.parametrize(
    "edges, value",
    [
        ([(1, 2, 2**62), (1, 3, 2**62), (2, 3, 2**62)], 2**63),  # once reported -2**63
        ([(1, 2, 2**61), (2, 3, 2**61)], 2**61),  # total exactly 2**62
        ([(1, 2, 2**63), (2, 3, 1)], 1),  # once a bare OverflowError
    ],
    ids=["triangle-2^62", "total-2^62", "edge-2^63"],
)
def test_oracle_is_exact_past_int64(edges, value):
    # Weights are Python integers, so no total is too large to add.
    g = MultiGraph(3, edges)
    res = global_min_cut(g)
    assert res.value == python_min_cut(g) == value
    assert crossing_value(g, res.side) == value
    assert is_k_edge_connected(g, 2) == (value >= 2)


@pytest.mark.parametrize("seed", range(6))
def test_near_int64_bound_matches_python_brute_force(seed):
    # Random connected multiplicities scaled to a total of 2**62 - 1;
    # Python integers give the reference.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if v == u + 1 or rng.random() < 0.5]
    shares = [int(x) for x in rng.integers(1, 1000, size=len(pairs))]
    limit = 2**62 - 1
    mults = [limit * share // sum(shares) for share in shares]
    mults[0] += limit - sum(mults)
    g = MultiGraph(n, [(u, v, m) for (u, v), m in zip(pairs, mults)])
    res = global_min_cut(g)
    assert res.value == python_min_cut(g)
    assert crossing_value(g, res.side) == res.value


@pytest.mark.parametrize("side", [{0}, {"a"}, {4}], ids=["zero", "str", "past-n"])
def test_crossing_value_refuses_side_outside_nodes(side):
    # None of these sides holds a node, so none is a cut of this path.
    g = MultiGraph(3, [(1, 2, 1), (2, 3, 1)])
    with pytest.raises(ValueError, match="proper subset"):
        crossing_value(g, side)


def test_oracle_memory_grows_with_edges_not_n_squared():
    # A 4096-node path: a dense n x n int64 matrix alone would take 128 MB.
    n = 4096
    g = MultiGraph(n, [(i, i + 1, 1) for i in range(1, n)])
    tracemalloc.start()
    try:
        res = global_min_cut(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.value == 1
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
