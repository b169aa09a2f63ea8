import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchbench.lbgraph import Condition, build_lb_graph, layout, random_spec
from sketchbench.model import (
    Advice,
    Decision,
    EMPTY_RANDOMNESS,
    EncodingOverflow,
    MultiGraph,
    SharedRandomness,
    SketchProtocol,
    Transcript,
    UnknownNode,
    execute,
    load_graph,
    node_view,
    save_graph,
)
from sketchbench.protocols import constant, full_information, truncation


def triangle():
    return MultiGraph(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)])


def test_multigraph_basics():
    g = triangle()
    assert g.multiplicity(1, 2) == g.multiplicity(2, 1) == 1
    assert g.neighborhood(1) == {2: 1, 3: 1}
    assert sum(g.neighborhood(1).values()) == 2


def test_parallel_edge_neighborhood():
    g = MultiGraph(2, [(1, 2, 3)])
    assert g.neighborhood(1) == {2: 3}
    assert sum(g.neighborhood(1).values()) == 3


def test_multigraph_rejects_bad_input():
    with pytest.raises(ValueError):
        MultiGraph(3, [(1, 1, 1)])
    with pytest.raises(UnknownNode):
        MultiGraph(3, [(1, 4, 1)])
    with pytest.raises(ValueError):
        MultiGraph(3, [(1, 2, 0)])
    with pytest.raises(UnknownNode):
        triangle().neighborhood(9)


@st.composite
def multigraphs(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    edge_count = draw(st.integers(min_value=1, max_value=20))
    g = MultiGraph(n)
    for _ in range(edge_count):
        u = draw(st.integers(min_value=1, max_value=n))
        v = draw(st.integers(min_value=1, max_value=n))
        if u != v:
            g.add_edge(u, v, draw(st.integers(min_value=1, max_value=4)))
    return g


@given(multigraphs())
@settings(max_examples=50, deadline=None)
def test_symmetric_access(g):
    for u, v, m in g.edges():
        assert g.multiplicity(u, v) == g.multiplicity(v, u) == m
        assert g.neighborhood(u)[v] == m
        assert g.neighborhood(v)[u] == m


@given(multigraphs())
@settings(max_examples=50, deadline=None)
def test_edges_match_pairwise_multiplicities(g):
    pairs = [(u, v, g.multiplicity(u, v)) for u in range(1, g.n + 1) for v in range(u + 1, g.n + 1)]
    expected = [edge for edge in pairs if edge[2]]
    assert list(g.edges()) == expected
    assert g.edge_slot_count() == len(expected)
    rebuilt = MultiGraph(g.n, reversed(expected))
    assert rebuilt == g


def test_lb_neighborhood_of_hub():
    # Hub u_A sees every A-node once plus k copies of each A-restricted node and sigma.
    spec = random_spec(49, 3, seed=5)
    graph, _ = build_lb_graph(spec)
    _, _, u_a, _ = layout(49)
    nbrs = graph.neighborhood(u_a)
    a_restricted = [v for v, role in spec.restrictions.items() if role is Advice.A_RESTRICTED]
    assert {w: nbrs[w] for w in sorted(spec.a_side)} == {w: 1 for w in sorted(spec.a_side)}
    for v in a_restricted + [spec.sigma]:
        assert nbrs[v] == 3
    assert set(nbrs) == set(a_restricted) | {spec.sigma} | spec.a_side


def test_graph_file_roundtrip(tmp_path):
    g = MultiGraph(4, [(1, 2, 2), (2, 4, 1), (1, 3, 5)])
    path = tmp_path / "g.txt"
    save_graph(g, path)
    text = path.read_text()
    assert text.splitlines()[0] == "n 4"
    assert text.splitlines()[1:] == ["1 2 2", "1 3 5", "2 4 1"]
    assert load_graph(path) == g


def test_graph_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 1\n")
    with pytest.raises(ValueError):
        load_graph(path)
    path.write_text("n 3\n2 1 1\n")
    with pytest.raises(ValueError):
        load_graph(path)
    path.write_text("n 3\n1 3 1\n1 2 1\n")
    with pytest.raises(ValueError):
        load_graph(path)


def test_full_information_two_node_parallel():
    g = MultiGraph(2, [(1, 2, 2)])
    t = execute(full_information(2, 2), g)
    assert t.decision is Decision.CONNECTED


def test_single_node_graph():
    g = MultiGraph(1)
    t = execute(constant(2), g)
    assert len(t.messages) == 1
    assert t.decision is Decision.CONNECTED
    t2 = execute(full_information(1, 2), g)
    assert t2.decision is Decision.CONNECTED


def test_truncation_transcript_matches_standalone_encodes():
    # Recompute each node's message directly from its view and compare.
    spec = random_spec(36, 3, seed=11)
    graph, advice = build_lb_graph(spec)
    proto = truncation(5, 36, 3)
    messages = dict(execute(proto, graph, advice).messages)
    for node in range(1, 37):
        view = node_view(graph, node, advice.get(node), 3)
        assert messages[node] == proto.encode(view, EMPTY_RANDOMNESS)


def test_execute_deterministic():
    spec = random_spec(36, 2, seed=2)
    graph, advice = build_lb_graph(spec)
    proto = truncation(4, 36, 2)
    t1 = execute(proto, graph, advice)
    t2 = execute(proto, graph, advice)
    assert t1 == t2


def test_encoding_overflow():
    over = SketchProtocol(
        name="over",
        k=1,
        max_bits=2,
        encode=lambda view, rand: "0101",
        decode=lambda msgs, rand: Decision.CONNECTED,
    )
    with pytest.raises(EncodingOverflow):
        execute(over, triangle())


def test_referee_never_sees_graph():
    # Two different graphs produce identical messages under the constant
    # protocol; the referee, fed messages only, cannot tell them apart.
    proto = constant(1)
    a = execute(proto, triangle())
    b = execute(proto, MultiGraph(3, [(1, 2, 4)]))
    assert a.messages == b.messages
    assert a.decision == b.decision


def test_transcript_json_roundtrip():
    t = execute(constant(2), triangle())
    assert Transcript.from_json(t.to_json()) == t


def test_shared_randomness_streams():
    r = SharedRandomness(7)
    a = r.generator("x", 1).integers(0, 1 << 30, 5)
    b = r.generator("x", 1).integers(0, 1 << 30, 5)
    c = r.generator("x", 2).integers(0, 1 << 30, 5)
    assert list(a) == list(b)
    assert list(a) != list(c)
    assert EMPTY_RANDOMNESS.is_empty
    with pytest.raises(ValueError):
        EMPTY_RANDOMNESS.generator("x")
