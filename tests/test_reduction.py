import hashlib
import itertools
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from sketchbench.lbgraph import SpecError, layout, role_view
from sketchbench.mincut import is_k_edge_connected
from sketchbench.model import Advice, Bits, Decision, EMPTY_RANDOMNESS, MultiGraph, execute, node_view
from sketchbench.overlap import InvalidInstance, OverlapInstance, answer, enumerate_valid_instances, vector_on
from sketchbench.protocols import constant, full_information, make_protocol, protocol_name, toy_two_bit
from sketchbench.reduction import (
    NotEnoughGoodNodes,
    ProtocolMismatch,
    ReductionContext,
    alice_bob_bits,
    alice_messages,
    bob_messages,
    build_compatible_graph,
    build_context,
    charlie_decide,
    charlie_messages,
    check_instance,
    reduction_size,
    simulate,
    verify_fidelity,
)
from sketchbench.setfam import PartitionContext, SeparatedPairRecord, SetFamily, verify_record


@pytest.fixture(scope="module")
def toy_ctx():
    return build_context(toy_two_bit(2), m=6, s=3, k=2, seed=42)


@pytest.fixture(scope="module")
def lb_ctx():
    # The lb-reduce workload's context: toy2 at m=96, s=48, k=2, 4 trials.
    return build_context(toy_two_bit(2), m=96, s=48, k=2, seed=1, trials=4)


def some_instances(m, s, step):
    return list(itertools.islice(enumerate_valid_instances(m, s), 0, None, step))


def random_instances(m, s, count, seed):
    """Valid instances with random supports and bits, half of them yes-instances."""
    rng = np.random.default_rng(seed)
    instances = []
    for i in range(count):
        order = [int(j) + 1 for j in rng.permutation(m)]
        sigma, only_x, only_y = order[0], order[1:s], order[s : 2 * s - 1]
        x_bits = {j: int(b) for j, b in zip(only_x, rng.integers(0, 2, size=s - 1))}
        y_bits = {j: int(b) for j, b in zip(only_y, rng.integers(0, 2, size=s - 1))}
        x_bits[sigma], y_bits[sigma] = i % 2, 1 - i % 2
        instances.append(OverlapInstance.make(vector_on(m, x_bits), vector_on(m, y_bits), m, s))
    return instances


def party_messages_from_graph(vector, ctx, protocol, alice):
    """One party's W-node messages from its whole local graph, built edge by edge.

    The construction the context's pre-computed wiring replaced: the side's
    clique, each side node's hub edge, and each support coordinate's pair
    edges into the side, S1 for Alice's bit 0 and S0 for her bit 1, the
    other way round for Bob.
    """
    _, _, u_a, u_b = layout(ctx.n)
    side, hub = (ctx.a_side, u_a) if alice else (ctx.b_side, u_b)
    graph = MultiGraph(ctx.n)
    ordered = sorted(side)
    for w1, w2 in itertools.combinations(ordered, 2):
        graph.add_edge(w1, w2, 1)
    for w in ordered:
        graph.add_edge(hub, w, 1)
    for i in vector.support:
        record = ctx.record_of(i)
        chosen = record.s1 if (vector[i] == 0) == alice else record.s0
        for w in chosen:
            if w in side:
                graph.add_edge(ctx.node_of(i), w, 1)
    return [(w, protocol.encode(node_view(graph, w, None, ctx.k), EMPTY_RANDOMNESS)) for w in ordered]


def assert_party_messages_match_graph(ctx, vectors, alice):
    # full_information's message is the view's whole text, so equal messages
    # mean equal views.
    party = alice_messages if alice else bob_messages
    for proto in (toy_two_bit(ctx.k), full_information(ctx.n, ctx.k)):
        for vector in vectors:
            assert party(vector, ctx, proto) == party_messages_from_graph(vector, ctx, proto, alice)


def test_party_messages_match_party_graph_exhaustive(toy_ctx):
    # Each party's messages depend on its own vector alone, so the distinct
    # vectors of all 5,760 instances cover every instance.
    instances = list(enumerate_valid_instances(6, 3))
    assert len(instances) == 5760
    assert_party_messages_match_graph(toy_ctx, {inst.x for inst in instances}, alice=True)
    assert_party_messages_match_graph(toy_ctx, {inst.y for inst in instances}, alice=False)


def test_party_messages_match_party_graph_random(lb_ctx):
    instances = random_instances(96, 48, 50, seed=7)
    assert_party_messages_match_graph(lb_ctx, [inst.x for inst in instances], alice=True)
    assert_party_messages_match_graph(lb_ctx, [inst.y for inst in instances], alice=False)


@pytest.mark.parametrize("name", ["toy_ctx", "lb_ctx"])
def test_fixed_messages_match_fresh_encodes(name, request):
    ctx = request.getfixturevalue(name)
    proto = toy_two_bit(ctx.k)
    v_ids = layout(ctx.n)[0]
    assert list(ctx.fixed_messages) == list(v_ids)
    for v in v_ids:
        view = role_view(v, (), Advice.A_RESTRICTED, ctx.n, ctx.k)
        assert ctx.fixed_messages[v] == proto.encode(view, EMPTY_RANDOMNESS)


def test_simulation_faithful_on_random_instances(lb_ctx):
    proto = toy_two_bit(2)
    for inst in random_instances(96, 48, 10, seed=8):
        assert verify_fidelity(inst, lb_ctx, proto)


def test_replace_rederives_the_party_wiring(toy_ctx):
    # The wiring follows the partition: swapping the sides swaps the parties'.
    swapped = replace(
        toy_ctx, partition=replace(toy_ctx.partition, a_side=toy_ctx.b_side, b_side=toy_ctx.a_side)
    )
    assert list(swapped.alice.tails) == sorted(toy_ctx.b_side)
    assert list(swapped.bob.tails) == sorted(toy_ctx.a_side)
    assert swapped.fixed_messages is toy_ctx.fixed_messages


@pytest.mark.parametrize(
    "protocol",
    [
        toy_two_bit(3),
        constant(2),
        replace(toy_two_bit(2), name="toy2-copy"),
    ],
    ids=["k", "other-protocol", "name"],
)
def test_charlie_refuses_another_protocol(toy_ctx, protocol):
    # The fixed messages are the context protocol's; a protocol of another
    # name or k would mix its messages with them.
    inst = next(enumerate_valid_instances(6, 3))
    with pytest.raises(ProtocolMismatch, match=r"^protocol .* on a context built for 'toy2' with k=2$"):
        charlie_messages(inst.x.support, inst.y.support, toy_ctx, protocol)
    with pytest.raises(ValueError):
        simulate(inst, toy_ctx, protocol)


def test_charlie_accepts_a_traced_copy_of_its_protocol(toy_ctx):
    # A copy with a wrapped encoder keeps the name and k, and the messages.
    proto = toy_two_bit(2)
    calls = []

    def counted(view, rand):
        calls.append(view.id)
        return proto.encode(view, rand)

    inst = next(enumerate_valid_instances(6, 3))
    supports = (inst.x.support, inst.y.support)
    traced = replace(proto, encode=counted)
    assert charlie_messages(*supports, toy_ctx, traced) == charlie_messages(*supports, toy_ctx, proto)
    _, _, u_a, u_b = layout(toy_ctx.n)
    assert calls == [u_a, u_b]  # only the hubs are encoded


def test_reduction_size():
    assert reduction_size(6) == 16
    assert reduction_size(9) == 24


def test_build_context_constant():
    ctx = build_context(constant(2), m=6, s=3, k=2, seed=1)
    assert len(ctx.good_ids) == 6
    assert ctx.good_ids == tuple(sorted(ctx.good_ids))


def test_build_context_full_information_fails():
    with pytest.raises(NotEnoughGoodNodes):
        build_context(full_information(reduction_size(6), 2), m=6, s=3, k=2, seed=1)


def test_context_records_reverify(toy_ctx):
    proto = toy_two_bit(2)
    for i in range(1, toy_ctx.m + 1):
        rec = toy_ctx.partition.good[toy_ctx.node_of(i)]
        assert verify_record(rec, proto, toy_ctx.a_side, toy_ctx.b_side, toy_ctx.n, toy_ctx.k)


def test_charlie_messages_golden(toy_ctx):
    # Charlie's messages for the first instance of each of the 180 support
    # pairs, pinned before the role map replaced the per-function role rules.
    proto = toy_two_bit(2)
    digest, seen = hashlib.sha256(), set()
    for inst in enumerate_valid_instances(6, 3):
        supports = (inst.x.support, inst.y.support)
        if supports not in seen:
            seen.add(supports)
            digest.update(repr(charlie_messages(*supports, toy_ctx, proto)).encode())
    assert len(seen) == 180
    assert digest.hexdigest()[:16] == "8e45c579305ff9bf"


def test_simulate_golden(toy_ctx):
    # The verdict and the assembled messages of all 5,760 instances, pinned
    # before the parties stopped sorting each W-node's V-ends.
    proto = toy_two_bit(2)
    digest, count = hashlib.sha256(), 0
    for inst in enumerate_valid_instances(6, 3):
        digest.update(repr(simulate(inst, toy_ctx, proto)).encode())
        count += 1
    assert count == 5760
    assert digest.hexdigest()[:16] == "da2b649c3c658eda"


def test_compatible_graph_golden(toy_ctx):
    # Edges and advice of the compatible graph of all 5,760 instances, pinned
    # before the role map replaced the per-function role rules.
    digest, count = hashlib.sha256(), 0
    for inst in enumerate_valid_instances(6, 3):
        graph, advice = build_compatible_graph(inst, toy_ctx)
        roles = sorted((v, a.value) for v, a in advice.items() if a)
        digest.update(repr((list(graph.edges()), roles)).encode())
        count += 1
    assert count == 5760
    assert digest.hexdigest()[:16] == "2f551d95d1dc4f43"


@pytest.mark.parametrize("name", ["const", "full", "parity", "toy2", "trunc:3"])
def test_protocol_name_is_its_registry_key(name):
    # The name recorded in a context report rebuilds the protocol.
    assert make_protocol(name, 16, 2).name == name


@pytest.mark.parametrize("name", ["trunc:03", "trunc:\u0663", "trunc:+3", "trunc:1_0", "trunc:0", "trunc:", "toy2:"])
def test_protocol_name_refuses_other_spellings(name):
    # int() reads "03", "+3", "1_0" and the Arabic-Indic digit three, but the
    # protocol built from them would be named "trunc:3" or "trunc:10", so the
    # report's parameters and the context's protocol would disagree.
    with pytest.raises(ValueError, match="is unknown"):
        protocol_name(name)


def test_truncation_is_refused_past_the_full_information_budget():
    # A payload within the full-information budget has no bit beyond it, so a
    # longer truncation adds only zero padding; asking for one is refused
    # before any mask or message is built.
    limit = full_information(16, 2).max_bits
    assert limit == 8 * (32 + 16 * 16)
    assert make_protocol(f"trunc:{limit}", 16, 2).max_bits == limit
    for bits in (limit + 1, 200_000_000):
        with pytest.raises(ValueError, match=rf"trunc:{bits} is longer than the full-information budget, {limit} bits at n=16"):
            make_protocol(f"trunc:{bits}", 16, 2)


def test_alice_messages_match_compatible_graph(toy_ctx):
    proto = toy_two_bit(2)
    inst = next(enumerate_valid_instances(6, 3))
    msgs = dict(alice_messages(inst.x, toy_ctx, proto))
    graph, _ = build_compatible_graph(inst, toy_ctx)
    for w in sorted(toy_ctx.a_side):
        view_nbrs = tuple(sorted(graph.neighborhood(w).items()))
        from sketchbench.model import NodeView

        view = NodeView(id=w, neighbors=view_nbrs, advice=None, n=toy_ctx.n, k=toy_ctx.k)
        assert msgs[w] == proto.encode(view, EMPTY_RANDOMNESS)


def test_alice_invariant_under_projection_equal_flip(toy_ctx):
    # Flipping a coordinate whose pair has identical A-projections leaves
    # Alice's wiring unchanged.  The partition search never pins such a pair
    # (its members split on A by size), so one is put in place by hand: two
    # family members that differ only on B.
    proto = toy_two_bit(2)
    x = next(enumerate_valid_instances(6, 3)).x
    i = x.support[0]
    flipped = vector_on(6, {j: 1 - x[j] if j == i else x[j] for j in x.support})

    def a_projection(member):
        return tuple(w for w in member if w in toy_ctx.a_side)

    s0, s1 = next(
        (s, t)
        for s, t in itertools.combinations(toy_ctx.family.members, 2)
        if a_projection(s) == a_projection(t)
    )
    good = dict(toy_ctx.partition.good)
    good[toy_ctx.node_of(i)] = replace(good[toy_ctx.node_of(i)], s0=s0, s1=s1)
    shared = replace(toy_ctx, partition=replace(toy_ctx.partition, good=good))
    assert alice_messages(flipped, shared, proto) == alice_messages(x, shared, proto)
    # The pinned pair's A-projections differ, so there the same flip is seen.
    assert alice_messages(flipped, toy_ctx, proto) != alice_messages(x, toy_ctx, proto)


def test_bob_mirror_symmetry(toy_ctx):
    proto = toy_two_bit(2)
    inst = next(enumerate_valid_instances(6, 3))
    y_jb = {j: inst.y[j] for j in inst.y.support}
    msgs = dict(bob_messages(inst.y, toy_ctx, proto))
    graph, _ = build_compatible_graph(inst, toy_ctx)
    for w in sorted(toy_ctx.b_side):
        nbrs = graph.neighborhood(w)
        from sketchbench.model import NodeView

        view = NodeView(
            id=w, neighbors=tuple(sorted(nbrs.items())), advice=None, n=toy_ctx.n, k=toy_ctx.k
        )
        assert msgs[w] == proto.encode(view, EMPTY_RANDOMNESS)
    # Y=1 at sigma wires the connected-side neighborhood into B
    if y_jb[inst.sigma] == 1:
        s1 = toy_ctx.record_of(inst.sigma).s1
        node = toy_ctx.node_of(inst.sigma)
        for w in set(s1) & toy_ctx.b_side:
            assert graph.multiplicity(node, w) == 1


def test_compatible_graph_rules(toy_ctx):
    inst = OverlapInstance.make(
        vector_on(6, {1: 0, 2: 1, 3: 0}), vector_on(6, {3: 1, 4: 0, 6: 1}), 6, 3
    )
    graph, advice = build_compatible_graph(inst, toy_ctx)
    v_ids, _, u_a, u_b = layout(toy_ctx.n)
    sigma_node = toy_ctx.node_of(3)
    assert advice[sigma_node] is Advice.SIGMA
    # coordinate 5 is in neither support: k hub-A edges only
    idle = toy_ctx.node_of(5)
    assert graph.neighborhood(idle) == {u_a: 2}
    # B-side coordinates hang off hub B
    for j in (4, 6):
        assert graph.multiplicity(toy_ctx.node_of(j), u_b) == 2
        assert graph.multiplicity(toy_ctx.node_of(j), u_a) == 0
    # answer yes instance: sigma wired with its connected-side neighborhood
    s1 = toy_ctx.record_of(3).s1
    assert answer(inst)
    assert set(w for w in graph.neighborhood(sigma_node) if w != u_a) == set(s1)
    assert is_k_edge_connected(graph, 2)


def test_compatible_graph_no_instance(toy_ctx):
    inst = OverlapInstance.make(
        vector_on(6, {1: 0, 2: 1, 3: 1}), vector_on(6, {3: 0, 4: 0, 6: 1}), 6, 3
    )
    graph, _ = build_compatible_graph(inst, toy_ctx)
    assert not answer(inst)
    assert not is_k_edge_connected(graph, 2)
    s0 = toy_ctx.record_of(3).s0
    from sketchbench.mincut import global_min_cut

    assert global_min_cut(graph).value == len(set(s0) & toy_ctx.b_side) <= 1


def test_fidelity_subsample(toy_ctx):
    proto = toy_two_bit(2)
    for inst in some_instances(6, 3, 37):
        assert verify_fidelity(inst, toy_ctx, proto)


def test_fidelity_names_mutated_node(toy_ctx):
    import copy

    proto = toy_two_bit(2)
    inst = next(enumerate_valid_instances(6, 3))
    broken = copy.deepcopy(toy_ctx)
    node = broken.node_of(inst.sigma)
    rec = broken.partition.good[node]
    sigma = rec.witnesses[0]
    flipped = Bits(bytes([sigma.data[0] ^ 0x80]) + sigma.data[1:], len(sigma))
    broken.partition.good[node] = replace(rec, witnesses=(flipped, *rec.witnesses[1:]))
    assert not verify_fidelity(inst, broken, proto)
    assert check_instance(inst, broken, proto).mismatches == [node]


def test_fidelity_names_dropped_trailing_node(toy_ctx, monkeypatch):
    import sketchbench.reduction as reduction

    proto = toy_two_bit(2)
    inst = next(enumerate_valid_instances(6, 3))
    honest = reduction.simulate

    def dropping(*args):
        verdict, assembled = honest(*args)
        return verdict, assembled[:-1]

    monkeypatch.setattr(reduction, "simulate", dropping)
    assert check_instance(inst, toy_ctx, proto).mismatches == [toy_ctx.n]
    assert not verify_fidelity(inst, toy_ctx, proto)


def test_fidelity_compares_ids_too(toy_ctx, monkeypatch):
    # The right bits under the wrong id are a mismatch, named by the simulated id.
    import sketchbench.reduction as reduction

    proto = toy_two_bit(2)
    inst = next(enumerate_valid_instances(6, 3))
    honest = reduction.simulate

    def relabelling(*args):
        verdict, assembled = honest(*args)
        return verdict, [(toy_ctx.n + 1, assembled[0][1]), *assembled[1:]]

    monkeypatch.setattr(reduction, "simulate", relabelling)
    assert check_instance(inst, toy_ctx, proto).mismatches == [toy_ctx.n + 1]


def test_checked_run_holds_the_simulation_and_the_compatible_graph(toy_ctx):
    proto = toy_two_bit(2)
    for inst in some_instances(6, 3, 577):
        run = check_instance(inst, toy_ctx, proto)
        assert (run.verdict, run.assembled) == simulate(inst, toy_ctx, proto)
        assert run.graph == build_compatible_graph(inst, toy_ctx)[0]
        assert run.mismatches == []


def test_constant_protocol_trivially_faithful():
    ctx = build_context(constant(2), m=6, s=3, k=2, seed=1)
    inst = next(enumerate_valid_instances(6, 3))
    assert verify_fidelity(inst, ctx, constant(2))


def test_charlie_rejects_bad_supports(toy_ctx):
    proto = toy_two_bit(2)
    with pytest.raises(InvalidInstance):
        charlie_decide((1, 2, 3), (1, 2, 6), [], [], toy_ctx, proto)


@pytest.mark.parametrize(
    "supp_x, supp_y", [((0, 1, 2), (2, 3, 4)), ((1, 2, 7), (3, 4, 7))], ids=["index-0", "index-m+1"]
)
def test_charlie_rejects_support_outside_1_to_m(toy_ctx, supp_x, supp_y):
    # Index 0 would wrap to the host of coordinate m through a negative list
    # index, and m+1 lies past good_ids.  No ternary vector holds such an
    # index, so build_compatible_graph gets a stand-in carrying the supports.
    proto = toy_two_bit(2)
    instance = SimpleNamespace(x=SimpleNamespace(support=supp_x), y=SimpleNamespace(support=supp_y))
    for call in (
        lambda: charlie_messages(supp_x, supp_y, toy_ctx, proto),
        lambda: charlie_decide(supp_x, supp_y, [], [], toy_ctx, proto),
        lambda: build_compatible_graph(instance, toy_ctx),
    ):
        with pytest.raises(InvalidInstance, match=r"^\[support\] not an s=3 subset of \[1\.\.6\]"):
            call()


@pytest.mark.parametrize("m, s", [(7, 3), (6, 2)], ids=["index-past-m", "short-support"])
def test_every_entry_point_checks_supports(toy_ctx, m, s):
    # Each public entry checks its supports once and the private steps trust
    # them, so each must refuse, itself, an instance valid at another (m, s).
    proto = toy_two_bit(2)
    inst = next(i for i in enumerate_valid_instances(m, s) if max(i.x.support + i.y.support) == m)
    supports = (inst.x.support, inst.y.support)
    for call in (
        lambda: simulate(inst, toy_ctx, proto),
        lambda: check_instance(inst, toy_ctx, proto),
        lambda: verify_fidelity(inst, toy_ctx, proto),
        lambda: build_compatible_graph(inst, toy_ctx),
        lambda: charlie_messages(*supports, toy_ctx, proto),
        lambda: charlie_decide(*supports, [], [], toy_ctx, proto),
    ):
        with pytest.raises(InvalidInstance, match=r"^\[support\] not an s=3 subset of \[1\.\.6\]"):
            call()


@pytest.mark.parametrize("encode", [alice_messages, bob_messages], ids=["alice", "bob"])
@pytest.mark.parametrize(
    "bad", [vector_on(7, {2: 1, 5: 0, 7: 1}), vector_on(6, {2: 1, 5: 0})], ids=["index-past-m", "short-support"]
)
def test_party_messages_check_their_support(toy_ctx, encode, bad):
    with pytest.raises(InvalidInstance, match=r"^\[support\] not an s=3 subset of \[1\.\.6\]"):
        encode(bad, toy_ctx, toy_two_bit(2))


def test_charlie_reads_only_supports(toy_ctx):
    # Two instances sharing supports but differing in off-sigma bits give
    # Charlie identical inputs, hence identical node messages.
    proto = toy_two_bit(2)
    a = OverlapInstance.make(vector_on(6, {1: 0, 2: 0, 3: 0}), vector_on(6, {3: 1, 4: 0, 6: 0}), 6, 3)
    b = OverlapInstance.make(vector_on(6, {1: 1, 2: 1, 3: 0}), vector_on(6, {3: 1, 4: 1, 6: 1}), 6, 3)
    assert charlie_messages(a.x.support, a.y.support, toy_ctx, proto) == charlie_messages(
        b.x.support, b.y.support, toy_ctx, proto
    )


def test_accounting_exact(toy_ctx):
    proto = toy_two_bit(2)
    w_count = len(toy_ctx.a_side | toy_ctx.b_side)
    for inst in some_instances(6, 3, 101):
        bits = alice_bob_bits(
            alice_messages(inst.x, toy_ctx, proto), bob_messages(inst.y, toy_ctx, proto)
        )
        assert bits == w_count * proto.max_bits
        assert bits <= w_count * proto.max_bits


@pytest.mark.parametrize("name", ["toy2", "const", "parity", "trunc:3"])
def test_every_assembled_message_is_max_bits_long(name):
    # Each registered protocol that the chain can run sends exactly max_bits
    # per node; ``full`` has no context to run on.
    proto = make_protocol(name, reduction_size(6), 2)
    ctx = build_context(proto, m=6, s=2, k=2, seed=0)
    for inst in some_instances(6, 2, 97):
        assert {len(bits) for _, bits in check_instance(inst, ctx, proto).assembled} == {proto.max_bits}


def test_forced_full_information_context_decides_correctly():
    # Degenerate two-member family with one pair shared by every pinned node;
    # the referee reconstructs the graph from the higher-id endpoints, so the
    # simulated decision still matches the instance answer on every input.
    m, s, k = 6, 3, 2
    n = reduction_size(m)
    _, w_ids, _, _ = layout(n)
    w = sorted(w_ids)
    a_side, b_side = frozenset(w[:2]), frozenset(w[2:])
    s0 = tuple(sorted(list(a_side) + [w[2]]))
    s1 = tuple(sorted([w[0]] + list(b_side)))
    family = SetFamily(ground=tuple(w), d=3, members=tuple(sorted((s0, s1))))
    proto = full_information(n, k)

    def enc(node, nbrs, advice):
        return proto.encode(role_view(node, nbrs, advice, n, k), EMPTY_RANDOMNESS)

    records = {
        v: SeparatedPairRecord(
            node=v,
            s0=s0,
            s1=s1,
            witnesses=(
                enc(v, s0, Advice.SIGMA),
                enc(v, [x for x in s0 if x in a_side], Advice.A_RESTRICTED),
                enc(v, [x for x in s0 if x in b_side], Advice.B_RESTRICTED),
            ),
        )
        for v in range(1, m + 1)
    }
    ctx = ReductionContext(
        m=m,
        s=s,
        k=k,
        n=n,
        partition=PartitionContext(a_side=a_side, b_side=b_side, family=family, good=records),
        good_ids=tuple(range(1, m + 1)),
        protocol_name=proto.name,
        fixed_messages={v: enc(v, (), Advice.A_RESTRICTED) for v in layout(n)[0]},
    )
    for inst in some_instances(6, 3, 23):
        got, _ = simulate(inst, ctx, proto)
        assert got == answer(inst)


def test_toy_protocol_fails_somewhere(toy_ctx):
    proto = toy_two_bit(2)
    for inst in enumerate_valid_instances(6, 3):
        got, _ = simulate(inst, toy_ctx, proto)
        if got != answer(inst):
            return
    pytest.fail("short-sketch protocol decided every instance correctly")


def test_simulate_builds_charlie_messages_once(toy_ctx, monkeypatch):
    import sketchbench.reduction as reduction

    calls = []
    honest = reduction.charlie_messages

    def counted(*args):
        calls.append(args)
        return honest(*args)

    monkeypatch.setattr(reduction, "charlie_messages", counted)
    proto = toy_two_bit(2)
    inst = next(enumerate_valid_instances(6, 3))
    verdict, assembled = simulate(inst, toy_ctx, proto)
    assert len(calls) == 1
    assert len(assembled) == toy_ctx.n
    assert verdict == (proto.decode(tuple(assembled), EMPTY_RANDOMNESS) is Decision.CONNECTED)


@pytest.mark.parametrize(
    "message, error",
    [(Bits(b"\x41", 2), "nonzero padding"), (Bits.from_str("000"), "budget 2")],
    ids=["padding", "over-budget"],
)
def test_simulate_checks_messages_like_execute(toy_ctx, message, error):
    # The referee of the three-party simulation sees only messages that the
    # honest execution would also let through.
    proto = replace(toy_two_bit(2), encode=lambda view, rand: message)
    inst = next(enumerate_valid_instances(6, 3))
    with pytest.raises(ValueError, match=error):
        simulate(inst, toy_ctx, proto)
    graph, advice = build_compatible_graph(inst, toy_ctx)
    with pytest.raises(ValueError, match=error):
        execute(proto, graph, advice)


def test_build_context_refuses_infeasible_parameters():
    # At s = 0 no instance exists, so a context would serve an empty sweep.
    with pytest.raises(InvalidInstance, match=r"^\[parameters\]"):
        build_context(toy_two_bit(2), m=6, s=0, k=2, seed=42)


@pytest.mark.parametrize(
    "protocol, s, message",
    [
        (toy_two_bit(2), 0, r"^\[parameters\]"),
        (toy_two_bit(2), 99, r"^\[parameters\]"),
        (toy_two_bit(3), 3, r"^protocol decides k=3, context asked for k=2$"),
    ],
    ids=["s-0", "s-99", "protocol"],
)
def test_context_rejects_parameters_and_protocol(protocol, s, message):
    with pytest.raises(ValueError, match=message):
        build_context(protocol, m=6, s=s, k=2, seed=42)


def _off_family(ctx, a_side=None, b_side=None, **changes):
    partition = replace(ctx.partition, a_side=a_side or ctx.a_side, b_side=b_side or ctx.b_side)
    return replace(ctx, partition=partition, **changes)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda ctx: _off_family(ctx, n=99),
        lambda ctx: _off_family(ctx, k=3),
        lambda ctx: _off_family(ctx, a_side=ctx.a_side | {min(ctx.b_side)}),
        lambda ctx: _off_family(ctx, a_side=ctx.a_side | {99}),
        lambda ctx: _off_family(
            ctx, a_side=ctx.a_side | {max(ctx.b_side)}, b_side=ctx.b_side - {max(ctx.b_side)}
        ),
    ],
    ids=["n", "k", "B-id-in-A", "A-id-outside-W", "B-below-k"],
)
def test_context_rejects_fields_off_the_family(toy_ctx, mutate):
    # A context put off its family must not run on a graph outside the
    # family, nor fail later as UnknownNode: the compatible graph's family
    # check refuses it by name.
    inst = next(enumerate_valid_instances(toy_ctx.m, toy_ctx.s))
    build_compatible_graph(inst, toy_ctx)
    with pytest.raises(SpecError) as err:
        build_compatible_graph(inst, mutate(toy_ctx))
    assert err.value.rule == "sizes"


def test_context_rejects_record_key_inside_w(toy_ctx):
    # A coordinate hosted at a W id gives that id a V-node role, here sigma's
    # in the first instance, which the compatible graph's family check refuses.
    w = min(toy_ctx.family.ground)
    good = dict(toy_ctx.partition.good)
    good[w] = good.pop(toy_ctx.good_ids[0])
    ctx = replace(
        toy_ctx,
        partition=replace(toy_ctx.partition, good=good),
        good_ids=(w,) + toy_ctx.good_ids[1:],
    )
    inst = next(enumerate_valid_instances(ctx.m, ctx.s))
    assert inst.sigma == 1
    with pytest.raises(SpecError, match=rf"^\[sizes\] sigma={w} outside V$"):
        build_compatible_graph(inst, ctx)
