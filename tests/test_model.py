import copy
import itertools
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchbench import model
from sketchbench.lbgraph import Condition, build_lb_graph, layout, random_spec, role_view
from sketchbench.model import (
    Advice,
    Bits,
    Decision,
    EMPTY_RANDOMNESS,
    EncodingOverflow,
    MultiGraph,
    NodeView,
    SharedRandomness,
    SketchProtocol,
    UnknownNode,
    check_bits,
    execute,
    load_graph,
    node_view,
    save_graph,
)
from sketchbench.protocols import (
    constant,
    full_information,
    full_information_bits,
    hash_bits,
    parity,
    toy_two_bit,
    truncation,
    view_payload,
)


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


@pytest.mark.parametrize(
    "edge, error, message",
    [
        ((0, 2, 1), UnknownNode, "0"),
        ((4, 2, 1), UnknownNode, "4"),
        ((1, 0, 1), UnknownNode, "0"),
        ((1, 4, 1), UnknownNode, "4"),
        ((2, 2, 1), ValueError, "self-loop at node 2"),
        ((1, 2, 0), ValueError, "multiplicity must be >= 1, got 0"),
        ((1, 2, -3), ValueError, "multiplicity must be >= 1, got -3"),
    ],
    ids=["u-0", "u-n+1", "v-0", "v-n+1", "self-loop", "mult-0", "mult-negative"],
)
def test_add_edge_refusals_leave_the_graph_unchanged(edge, error, message):
    # A node check comes first, the u end before the v end; a refused edge
    # adds no row, not even an empty one.
    g = triangle()
    with pytest.raises(error, match=message):
        g.add_edge(*edge)
    assert g == triangle() and sorted(g._adj) == [1, 2, 3]


@pytest.mark.parametrize(
    "u, row, error, message",
    [
        (0, {2: 1}, UnknownNode, "0"),
        (4, {2: 1}, UnknownNode, "4"),
        (4, {}, UnknownNode, "4"),
        (1, {2: 1, 0: 1}, UnknownNode, "0"),
        (1, {2: 1, 4: 1}, UnknownNode, "4"),
        (2, {3: 1, 2: 1}, ValueError, "self-loop at node 2"),
        (1, {2: 1, 3: 0}, ValueError, "multiplicity must be >= 1, got 0"),
        (1, {3: -3, 2: 1}, ValueError, "multiplicity must be >= 1, got -3"),
        # Entries are checked in the row's order: the first bad one is named.
        (1, {4: 0, 0: 1}, UnknownNode, "4"),
        (1, {3: 0, 1: 1}, ValueError, "multiplicity must be >= 1, got 0"),
    ],
    ids=[
        "u-0", "u-n+1", "u-n+1-empty-row", "v-0", "v-n+1", "self-loop", "mult-0", "mult-negative",
        "first-entry-named", "first-entry-named-2",
    ],
)
def test_add_row_refuses_what_add_edge_refuses_and_writes_nothing(u, row, error, message):
    g = triangle()
    with pytest.raises(error, match=message):
        g.add_row(u, row)
    assert g == triangle() and sorted(g._adj) == [1, 2, 3]


def test_rows_copy_every_node_row():
    g = MultiGraph(5, [(3, 5, 2), (3, 1, 1), (4, 3, 3)])
    rows = g.rows()
    assert list(rows) == [1, 2, 3, 4, 5]
    assert rows == {1: {3: 1}, 2: {}, 3: {5: 2, 1: 1, 4: 3}, 4: {3: 3}, 5: {3: 2}}
    assert list(rows[3]) == [5, 1, 4]  # as written, not sorted
    rows[3][2] = 7
    rows[2][3] = 7
    assert g == MultiGraph(5, [(3, 5, 2), (3, 1, 1), (4, 3, 3)]) and g.neighborhood(2) == {}


@pytest.mark.parametrize("node", [0, 4, -1])
def test_node_view_refuses_unknown_node(node):
    with pytest.raises(UnknownNode):
        node_view(triangle(), node, None, 1)


def test_node_view_entries_ascending():
    g = MultiGraph(5, [(3, 5, 2), (3, 1, 1), (4, 3, 3)])
    assert node_view(g, 3, Advice.SIGMA, 2) == (3, ((1, 1), (4, 3), (5, 2)), Advice.SIGMA, 5, 2)
    assert node_view(g, 2, None, 2).neighbors == ()
    # node_view skips NodeView's arity check; it must still build what the checked constructor builds.
    for view, checked in (
        (node_view(g, 3, Advice.SIGMA, 2), NodeView(3, ((1, 1), (4, 3), (5, 2)), Advice.SIGMA, 5, 2)),
        (node_view(g, 2, None, 2), NodeView(2, (), None, 5, 2)),
    ):
        assert type(view) is NodeView and view == checked


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


@given(multigraphs(), st.data())
@settings(max_examples=50, deadline=None)
def test_add_row_adds_each_entry_as_add_edge_does(g, data):
    # Onto a graph with edges already, so that rows add to existing
    # multiplicities; either end's row reads the sum.
    u = data.draw(st.integers(min_value=1, max_value=g.n))
    others = [v for v in range(1, g.n + 1) if v != u]
    row = data.draw(st.dictionaries(st.sampled_from(others), st.integers(min_value=1, max_value=4)))
    by_row, by_edges = copy.deepcopy(g), copy.deepcopy(g)
    by_row.add_row(u, row)
    for v, mult in row.items():
        by_edges.add_edge(u, v, mult)
    assert by_row == by_edges
    assert list(by_row.edges()) == list(by_edges.edges())
    assert sorted(by_row._adj) == sorted(by_edges._adj)  # an empty row adds no node


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
    # Every number is spelled as save_graph writes it.  int() reads each of
    # these: the first file once loaded as a 10-node graph with edge (1, 2, 3).
    for text, line in (
        ("n 1_0\n1 +2 \u0663\n", "n 1_0"),
        ("n 03\n1 2 1\n", "n 03"),
        ("n +3\n1 2 1\n", "n +3"),
        ("n 10\n1 +2 3\n", "1 +2 3"),
        ("n 10\n1 2 \u0663\n", "1 2 \u0663"),
        ("n 10\n01 2 1\n", "01 2 1"),
        ("n 10\n1 2 1_0\n", "1 2 1_0"),
    ):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(repr(line))):
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
_tokens = st.sampled_from(
    ["n", "0", "1", "2", "5", "6", "-1", "+3", "01", "1_0", "\u0663", "1.5", "x", "9" * 25]
) | st.text(max_size=4)


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
    # A file that loads is decoded whole and spelled as save_graph writes it:
    # its header is n and nothing else, and its edge lines are the graph's edges.
    header, *lines = [line.split() for line in path.read_text(encoding="utf-8").split("\n") if line.strip()]
    assert header == ["n", str(graph.n)]
    assert lines == [[str(x) for x in edge] for edge in graph.edges()]


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
    n, k = 36, 3
    spec = random_spec(n, k, seed=11)
    graph, advice = build_lb_graph(spec)
    proto = truncation(5, n, k)
    messages = dict(execute(proto, graph, advice).messages)
    views = [node_view(graph, node, advice.get(node), k) for node in range(1, n + 1)]
    for view in views:
        assert messages[view.id] == proto.encode(view, EMPTY_RANDOMNESS)
        # The text definition: the payload's last 5 bits, zero-padded on the left.
        full = "".join(f"{byte:08b}" for byte in view_payload(view).encode("utf-8"))
        assert str(messages[view.id]) == full[-5:].rjust(5, "0")
    # Every width against the whole payload's integer: within the last entry,
    # across byte and entry boundaries, the whole payload, one bit past it and
    # the budget; on every view of the member, the hubs' with their many
    # entries among them, and on views with no neighbors.
    _, _, u_a, u_b = layout(n)
    assert min(len(views[hub - 1].neighbors) for hub in (u_a, u_b)) > 8
    bare = [NodeView(1, (), None, n, k), NodeView(2, (), Advice.SIGMA, n, k)]
    for view in views + bare:
        payload = view_payload(view).encode()
        for bits in (1, 3, 8, 9, 40, 41, 8 * len(payload), 8 * len(payload) + 1, full_information_bits(n)):
            expected = int.from_bytes(payload, "big") & ((1 << bits) - 1)
            assert truncation(bits, n, k).encode(view, EMPTY_RANDOMNESS) == Bits.from_int(expected, bits)


def test_toy2_matches_hash_bits():
    # One protocol object, so one role-hash cache, serves both sizes: a role
    # message is the hash of (id, role, smallest W-neighbor), whatever n is.
    proto = toy_two_bit(2)
    for n in (64, 256):
        v_ids, w_ids, _, _ = layout(n)
        for node, advice in itertools.product((v_ids[0], v_ids[len(v_ids) // 2], v_ids[-1]), Advice):
            for size in range(4):
                for w_neighbors in itertools.combinations(w_ids, size):
                    expected = hash_bits(2, "role", node, advice.value, min(w_neighbors, default=0))
                    for _ in range(2):  # the first call fills the cache, the second reads it
                        assert proto.encode(role_view(node, w_neighbors, advice, n, 2), EMPTY_RANDOMNESS) == expected
        # Nodes without advice hash their whole view; advised ones take the role formula.
        graph, advice_of = build_lb_graph(random_spec(n, 2, seed=n))
        transcript = execute(proto, graph, advice_of)
        for node, message in transcript.messages:
            view = node_view(graph, node, advice_of.get(node), 2)
            if view.advice is None:
                assert message == hash_bits(2, "raw", node, view.neighbors)
            else:
                low = min((v for v, _ in view.neighbors if v in w_ids), default=0)
                assert message == hash_bits(2, "role", node, view.advice.value, low)
    # No unadvised node of a family graph has 0 or 1 entries, so the text's
    # "()" and "((v, m),)" forms are asked for here, with a hub-sized view.
    for neighbors in ((), ((7, 1),), ((7, 2),), ((300, 5),), tuple((v, 1 + v % 3) for v in range(2, 402, 2))):
        view = NodeView(1, neighbors, None, 512, 2)
        for _ in range(2):  # the first call fills the entry cache, the second reads it
            assert proto.encode(view, EMPTY_RANDOMNESS) == hash_bits(2, "raw", 1, neighbors)


_sorted_entries = st.dictionaries(st.integers(1, 10**6), st.integers(1, 50), max_size=40).map(
    lambda row: tuple(sorted(row.items()))
)


@given(st.integers(1, 10**6), st.lists(_sorted_entries, min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_toy2_unadvised_matches_hash_bits(node, views):
    # One protocol object per example, so later views reuse entries cached by earlier ones.
    proto = toy_two_bit(2)
    for neighbors in views + views:
        assert proto.encode(NodeView(node, neighbors, None, 10**6, 2), EMPTY_RANDOMNESS) == hash_bits(
            2, "raw", node, neighbors
        )


_message_lengths = st.sampled_from((0, 1, 7, 8, 9))


@given(st.lists(_message_lengths.flatmap(lambda n: st.integers(0, (1 << n) - 1).map(lambda v: Bits.from_int(v, n)))))
@settings(max_examples=200, deadline=None)
def test_parity_referee_counts_every_one_bit(messages):
    # The referee counts the one bits of all messages at once; padding is zero, so the
    # count is the sum of each message's own.
    ones = sum(str(bits).count("1") for bits in messages)
    expected = Decision.CONNECTED if ones % 2 == 0 else Decision.NOT_CONNECTED
    for proto in (parity(2), truncation(9, 4, 2), toy_two_bit(2)):
        assert proto.decode(list(enumerate(messages, 1)), EMPTY_RANDOMNESS) is expected


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
        encode=lambda view, rand: Bits.from_str("0101"),
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
    # The text parser names the first bad character, or the type of a non-str;
    # execute refuses any message that is not a Bits, naming its type.
    with pytest.raises(ValueError, match="not a bit string") as err:
        Bits.from_str(message)
    assert named in str(err.value)
    with pytest.raises(ValueError, match=f"not a bit string: got {type(message).__name__}"):
        execute(_emitting(message), triangle())


@pytest.mark.parametrize(
    "message,named",
    [("01", "got str"), ((b"\x40", 2), "got tuple"), (Bits(b"\x41", 2), "nonzero padding"),
     (Bits(b"\x01", 8), None), (Bits(b"\x40\x00", 2), "2 bytes for 2 bits"),
     (Bits(b"", 1), "0 bytes for 1 bits"), (Bits(bytearray(b"\x40"), 2), "data bytearray"),
     (Bits(b"\x40", True), "length True"), (Bits(b"", -1), "length -1")],
    ids=["str", "tuple", "padding", "whole-byte", "extra-byte", "missing-byte", "bytearray", "bool",
         "negative"],
)
def test_execute_refuses_malformed_bits(message, named):
    # A Bits built by hand must hold exactly ceil(length / 8) bytes of zero
    # padding and an int length; a well-formed one passes unchanged.
    if named is None:
        assert execute(_emitting(message), triangle()).messages[0][1] is message
        return
    with pytest.raises(ValueError, match="not a bit string") as err:
        execute(_emitting(message), triangle())
    assert named in str(err.value)


def test_check_message_trusts_only_the_shared_short_messages(monkeypatch):
    # A shared short message is well-formed, so check_message reads only its
    # length; an equal Bits that is another object still goes through
    # check_bits, and a malformed one is refused.
    assert all(check_bits(bits) is bits for bits in model._SHORT.values())
    checked = []
    monkeypatch.setattr(model, "check_bits", lambda bits: checked.append(bits) or check_bits(bits))
    shared = Bits.from_str("01")
    assert shared is model._SHORT[1, 2]
    assert model.check_message(_emitting(shared), 1, shared) is shared
    assert checked == []
    copy = Bits(b"\x40", 2)
    assert copy == shared and copy is not shared
    assert model.check_message(_emitting(copy), 1, copy) is copy
    assert checked == [copy]
    with pytest.raises(ValueError, match="nonzero padding"):
        execute(_emitting(Bits(b"\x41", 2)), triangle())


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("bad", ["2", "\x00", "é"], ids=["digit", "nul", "non-ascii"])
def test_execute_refuses_long_message_with_one_bad_character(where, bad):
    # The parser's error names the index and shows a bounded prefix, not the
    # whole text; execute refuses the text itself for its type.
    length = 6145
    index = {"first": 0, "middle": length // 2, "last": length - 1}[where]
    message = "01" * (length // 2) + "1"
    message = message[:index] + bad + message[index + 1 :]
    with pytest.raises(ValueError, match=re.escape(f"{bad!r} at index {index} of {length}")) as err:
        Bits.from_str(message)
    assert len(str(err.value)) < 200
    with pytest.raises(ValueError, match="got str") as err:
        execute(_emitting(message), triangle())
    assert len(str(err.value)) < 200


@st.composite
def near_bit_strings(draw):
    """Bit strings of up to 4,096 characters, some with characters replaced."""
    length = draw(st.integers(0, 4096) | st.sampled_from([7, 8, 9, 2047, 2048, 2049]))
    pattern = draw(st.integers(0, 2**64 - 1))
    chars = [str(pattern >> (i % 64) & 1) for i in range(length)]
    for _ in range(draw(st.integers(0, 3)) if length else 0):
        chars[draw(st.integers(0, length - 1))] = draw(st.characters())
    return "".join(chars)


@given(near_bit_strings())
@settings(max_examples=300, deadline=None)
def test_check_bits_accepts_exactly_bit_strings(text):
    if set(text) <= {"0", "1"}:
        bits = Bits.from_str(text)
        assert check_bits(bits) is bits and str(bits) == text
    else:
        with pytest.raises(ValueError, match="not a bit string"):
            Bits.from_str(text)


#: Lengths 0..80, drawn within one of a multiple of 8 as often as anywhere.
_BIT_LENGTHS = st.integers(0, 80) | st.sampled_from([n for n in range(81) if n % 8 in (7, 0, 1)])


@st.composite
def bit_text_pairs(draw):
    """Two bit strings; often one extends a prefix of the other, where padding could blur them."""
    a = draw(_BIT_LENGTHS.flatmap(lambda n: st.text("01", min_size=n, max_size=n)))
    if draw(st.booleans()):
        b = draw(_BIT_LENGTHS.flatmap(lambda n: st.text("01", min_size=n, max_size=n)))
    else:
        b = a[: draw(st.integers(0, len(a)))] + draw(st.text("01", max_size=9))
    return a, b


@given(bit_text_pairs())
@settings(max_examples=500, deadline=None)
def test_bits_order_and_identity_match_text(pair):
    a, b = pair
    pa, pb = Bits.from_str(a), Bits.from_str(b)
    assert (pa < pb, pa == pb, pa > pb) == (a < b, a == b, a > b)
    assert sorted([pb, pa]) == [Bits.from_str(t) for t in sorted([b, a])]
    if a == b:
        assert hash(pa) == hash(pb)
    for text, bits in zip(pair, (pa, pb)):
        assert (str(bits), len(bits), repr(bits)) == (text, len(text), repr(text))
        assert check_bits(bits) is bits
        assert pickle.loads(pickle.dumps(bits)) == copy.deepcopy(bits) == bits


def test_check_bits_refuses_under_optimize_flag():
    # ``python -O`` strips assert statements; the parser and the message check must still refuse.
    code = (
        "from sketchbench.model import Bits, check_bits\n"
        "for text in ('2', '0' * 6145 + '2', None):\n"
        "    try:\n"
        "        Bits.from_str(text)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(f'parsed {text!r:.20}')\n"
        "for bits in ('01', None, Bits(b'\\x41', 2), Bits(b'', 1)):\n"
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
