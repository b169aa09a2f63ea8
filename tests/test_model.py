import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchbench import model
from sketchbench.lbgraph import Condition, build_lb_graph, layout, random_spec
from sketchbench.model import (
    NUMPY_CHECK_MIN_BITS,
    Advice,
    Decision,
    EMPTY_RANDOMNESS,
    EncodingOverflow,
    MultiGraph,
    SharedRandomness,
    SketchProtocol,
    UnknownNode,
    check_bits,
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
    # The header is exactly "n <count>": "n 3 7" once loaded as n=3.
    for header in ("n 3 7", "n 3 x", "n", "n3", "m 3"):
        path.write_text(f"{header}\n1 2 1\n")
        with pytest.raises(ValueError, match="header"):
            load_graph(path)


def test_load_graph_allocates_for_edges_not_header(tmp_path):
    # A header alone costs no memory per node: adjacency is kept only for
    # nodes with an edge.  Building a row per node peaked near 131 MB here.
    path = tmp_path / "wide.txt"
    path.write_text("n 1000000\n")
    tracemalloc.start()
    try:
        graph = load_graph(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.n == 1_000_000 and graph.edge_slot_count() == 0
    assert graph.neighborhood(1_000_000) == {}
    assert peak < 2**20, peak


_GRAPH_LINES = ["n 5", "1 2 2", "1 3 5", "2 4 1", "4 5 3"]
_tokens = st.sampled_from(["n", "0", "1", "2", "5", "6", "-1", "+3", "1.5", "x", "9" * 25]) | st.text(max_size=4)


@st.composite
def mutated_graph_files(draw):
    """A valid graph file with a few tokens or lines replaced, added, dropped or swapped."""
    lines = [line.split() for line in _GRAPH_LINES]
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["replace", "insert", "drop-token", "drop-line", "copy-line", "swap"]))
        if kind == "replace" and lines[i]:
            lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(_tokens)
        elif kind == "insert":
            lines[i].insert(draw(st.integers(0, len(lines[i]))), draw(_tokens))
        elif kind == "drop-token" and lines[i]:
            del lines[i][draw(st.integers(0, len(lines[i]) - 1))]
        elif kind == "drop-line":
            del lines[i]
        elif kind == "copy-line":
            lines.insert(draw(st.integers(0, len(lines))), list(lines[i]))
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(" ".join(tokens) for tokens in lines) + "\n"


@given(mutated_graph_files() | st.text(max_size=40))
@settings(max_examples=300, deadline=None)
def test_load_graph_fuzz_raises_only_named_errors(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.txt"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    try:
        graph = load_graph(path)
    except (ValueError, UnknownNode):
        return
    # A file that loads is decoded whole: its header is n and nothing else,
    # and its edge lines are the graph's edges.
    header, *lines = [line.split() for line in path.read_text(encoding="utf-8").split("\n") if line.strip()]
    assert len(header) == 2 and header[0] == "n" and int(header[1]) == graph.n
    assert [tuple(map(int, line)) for line in lines] == list(graph.edges())


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


def _emitting(message) -> SketchProtocol:
    """A protocol whose every node sends ``message``."""
    return SketchProtocol(
        name="emit",
        k=1,
        max_bits=10**6,
        encode=lambda view, rand: message,
        decode=lambda msgs, rand: Decision.CONNECTED,
    )


@pytest.mark.parametrize(
    "message,named",
    [("2", "'2' at index 0"), ("0 1", "' ' at index 1"), ("+01", "'+' at index 0"),
     ("0_1", "'_' at index 1"), ("é", "'é' at index 0"), (3, "int"), (None, "NoneType")],
)
def test_execute_refuses_non_bit_message(message, named):
    with pytest.raises(ValueError, match="not a bit string") as err:
        execute(_emitting(message), triangle())
    assert named in str(err.value)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("bad", ["2", "\x00", "é"], ids=["digit", "nul", "non-ascii"])
def test_execute_refuses_long_message_with_one_bad_character(where, bad):
    # Above NUMPY_CHECK_MIN_BITS the alphabet is checked by the numpy pass; the
    # error names the index and shows a bounded prefix, not the whole message.
    length = 3 * NUMPY_CHECK_MIN_BITS + 1
    index = {"first": 0, "middle": length // 2, "last": length - 1}[where]
    message = "01" * (length // 2) + "1"
    message = message[:index] + bad + message[index + 1 :]
    with pytest.raises(ValueError, match=re.escape(f"{bad!r} at index {index} of {length}")) as err:
        execute(_emitting(message), triangle())
    assert len(str(err.value)) < 200


@st.composite
def near_bit_strings(draw):
    """Bit strings on both sides of NUMPY_CHECK_MIN_BITS, some with characters replaced."""
    length = draw(st.integers(0, 2 * NUMPY_CHECK_MIN_BITS) | st.sampled_from(
        [NUMPY_CHECK_MIN_BITS - 1, NUMPY_CHECK_MIN_BITS, NUMPY_CHECK_MIN_BITS + 1]))
    pattern = draw(st.integers(0, 2**64 - 1))
    chars = [str(pattern >> (i % 64) & 1) for i in range(length)]
    for _ in range(draw(st.integers(0, 3)) if length else 0):
        chars[draw(st.integers(0, length - 1))] = draw(st.characters())
    return "".join(chars)


@given(near_bit_strings())
@settings(max_examples=300, deadline=None)
def test_check_bits_accepts_exactly_bit_strings(bits):
    if set(bits) <= {"0", "1"}:
        assert check_bits(bits) is bits
    else:
        with pytest.raises(ValueError, match="not a bit string"):
            check_bits(bits)


def test_check_bits_refuses_under_optimize_flag():
    # ``python -O`` strips assert statements; both alphabet checks must still refuse.
    code = (
        "from sketchbench.model import NUMPY_CHECK_MIN_BITS as L, check_bits\n"
        "for bits in ('2', '0' * L + '2', None):\n"
        "    try:\n"
        "        check_bits(bits)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(f'accepted {bits!r:.20}')\n"
    )
    src = str(Path(model.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stdout + result.stderr
