import hashlib
import itertools
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchbench.lbgraph import Condition, SpecError, forced_condition, layout, role_entries, role_inputs, role_view
from sketchbench.model import EMPTY_RANDOMNESS, Advice, Bits, Decision, NodeView, SketchProtocol
from sketchbench.protocols import (
    constant,
    full_information,
    make_protocol,
    parity,
    toy_two_bit,
    truncation,
)
from sketchbench.reduction import NotEnoughGoodNodes, build_context, reduction_size
from sketchbench.setfam import (
    BrokenPairRecord,
    NoGoodPartition,
    RoleCodes,
    SetFamily,
    choose_partition,
    common_block,
    complete_family,
    find_separated_pair,
    message_partitions,
    random_family,
    verify_record,
    PartitionContext,
    SeparatedPairRecord,
)

N16 = 256  # canonical node count carrying a 16-element W
V16, W16, _, _ = layout(N16)


def fam40(seed=11) -> SetFamily:
    return random_family(W16, 3, 40, seed=seed)


def partitions_of_split(proto, node, fam, a_side, b_side):
    """The node's role messages by input under one split, in ``Advice`` order, and that split's common block."""
    columns = list(zip(*(role_inputs(member, a_side, b_side) for member in fam.members)))
    keys = [sorted(set(column)) for column in columns]
    entries = [[role_entries(key, advice, N16, 2) for key in role_keys] for role_keys, advice in zip(keys, Advice)]
    coded = message_partitions(proto, node, entries, N16, 2)
    assert len(coded) == len(Advice)
    for role in coded:
        assert list(role.alphabet) == sorted(set(role.alphabet))  # code order is Bits order
    indices = [np.array([role_keys.index(key) for key in column]) for role_keys, column in zip(keys, columns)]
    block = tuple(fam.members[i] for i in common_block(coded, indices))
    messages = [{key: role.message(i) for i, key in enumerate(role_keys)} for role_keys, role in zip(keys, coded)]
    return (*messages, block)


def separated_pair(block, a_side, b_side, k):
    """``find_separated_pair`` on members: sorted, classified by ``forced_condition``, positions mapped back."""
    members = sorted(block)
    classes = [forced_condition(s, a_side, b_side, k) for s in members]
    pair = find_separated_pair(range(len(members)), classes)
    return None if pair is None else (members[pair[0]], members[pair[1]])


def blocks(messages):
    """One role's inputs grouped by message, each block in canonical order."""
    grouped = {}
    for key in sorted(messages):
        grouped.setdefault(messages[key], []).append(key)
    return {bits: tuple(keys) for bits, keys in grouped.items()}


def test_partitions_full_information_singletons():
    fam = fam40()
    a_side = frozenset(list(W16)[:8])
    b_side = frozenset(W16) - a_side
    ps, pa, pb, block = partitions_of_split(full_information(N16, 2), 5, fam, a_side, b_side)
    assert all(len(group) == 1 for group in blocks(ps).values())
    assert all(len(group) == 1 for group in blocks(pa).values())
    assert block == (min(ps, key=ps.get),)  # every triple is distinct: the smallest wins


def test_partitions_constant_single_block():
    fam = fam40()
    a_side = frozenset(list(W16)[:8])
    b_side = frozenset(W16) - a_side
    ps, pa, pb, block = partitions_of_split(constant(2), 5, fam, a_side, b_side)
    assert len(blocks(ps)) == len(blocks(pa)) == len(blocks(pb)) == 1
    assert block == fam.members


def test_partitions_truncation_block_budget():
    fam = fam40()
    a_side = frozenset(list(W16)[:8])
    b_side = frozenset(W16) - a_side
    ps, pa, pb, _ = partitions_of_split(toy_two_bit(2), 5, fam, a_side, b_side)
    for part, keys in ((ps, fam.members), (pa, None), (pb, None)):
        assert 1 < len(blocks(part)) <= 4
        covered = sum(len(block) for block in blocks(part).values())
        expect = len(keys) if keys is not None else len({k for b in blocks(part).values() for k in b})
        assert covered == expect
    assert sum(len(b) for b in blocks(ps).values()) == len(fam.members)
    # Truncation keeps only the tail of each role view, which is its hub's
    # entry, so it puts every member in one block.
    ps, pa, pb, _ = partitions_of_split(truncation(2, N16, 2), 5, fam, a_side, b_side)
    assert len(blocks(ps)) == len(blocks(pa)) == len(blocks(pb)) == 1


def test_pigeonhole_floor_parity():
    fam = fam40()
    a_side = frozenset(list(W16)[:8])
    b_side = frozenset(W16) - a_side
    proto = parity(2)
    _, _, _, block = partitions_of_split(proto, 5, fam, a_side, b_side)
    floor = math.ceil(len(fam.members) / 2 ** (3 * proto.max_bits))
    assert len(block) >= floor == 5


def test_partitions_require_determinism():
    from sketchbench.agm import make_agm_protocol

    fam = fam40()
    a_side = frozenset(list(W16)[:8])
    with pytest.raises(ValueError, match="empty source"):
        partitions_of_split(make_agm_protocol(N16, 2, 0.1), 5, fam, a_side, frozenset(W16) - a_side)


def test_blocks_are_message_consistent():
    fam = fam40()
    a_side = frozenset(list(W16)[:8])
    b_side = frozenset(W16) - a_side
    proto = toy_two_bit(2)
    ps, pa, pb, _ = partitions_of_split(proto, 9, fam, a_side, b_side)
    assert len(blocks(ps)) > 1 and len(blocks(pb)) > 1
    for bits, members in blocks(ps).items():
        for member in members:
            view = role_view(9, member, Advice.SIGMA, N16, 2)
            assert proto.encode(view, EMPTY_RANDOMNESS) == bits
    for bits, keys in blocks(pb).items():
        for key in keys:
            view = role_view(9, key, Advice.B_RESTRICTED, N16, 2)
            assert proto.encode(view, EMPTY_RANDOMNESS) == bits


def test_find_separated_pair_cases():
    a_side = frozenset({1, 2, 3})
    b_side = frozenset({4, 5, 6})
    # all members inside A: no connected-side witness
    assert separated_pair([(1, 2, 3)], a_side, b_side, 2) is None
    # one member of each kind
    pair = separated_pair([(1, 2, 4), (1, 4, 5)], a_side, b_side, 2)
    assert pair == ((1, 2, 4), (1, 4, 5))
    # preference: S0 keeping a nonempty B-projection wins over an all-A one
    pair = separated_pair([(1, 2, 3), (2, 3, 4), (1, 4, 5)], a_side, b_side, 2)
    assert pair == ((2, 3, 4), (1, 4, 5))
    # positions are scanned in the block's order, unsorted, and only looked up in the classes
    classes = [Condition.C1, Condition.C0, None, Condition.C1, Condition.C0]
    assert find_separated_pair([1, 3, 4], classes) == (1, 3)
    assert find_separated_pair([4, 3, 1], classes) == (4, 3)
    assert find_separated_pair([0, 2, 3], classes) is None


def test_find_separated_pair_pins_no_s0_without_b_edge():
    # Every candidate with >= k members in A lies wholly in A: a B-restricted
    # node wired by it would have no B-edge, so the block pins nothing.
    a_side, b_side = frozenset({1, 2, 3, 4}), frozenset({5, 6, 7})
    block = [(1, 2, 3), (1, 2, 4), (2, 3, 4), (1, 5, 6), (4, 6, 7)]
    assert separated_pair(block, a_side, b_side, 2) is None
    assert separated_pair(block + [(3, 4, 7)], a_side, b_side, 2) == ((3, 4, 7), (1, 5, 6))


def test_find_separated_pair_unequal_sizes_pin_nothing():
    # (1, 4) has at most k-1 ids in A yet fewer than k in B, so it fails the
    # S1 half; choose_partition refuses such members before any search.
    a_side, b_side = frozenset({1, 2, 3}), frozenset({4, 5, 6})
    assert separated_pair([(1, 2, 4), (1, 4)], a_side, b_side, 2) is None


@st.composite
def split_blocks(draw):
    """(block of (2k-1)-subsets, A, B, k) for a random split of a random ground set."""
    k = draw(st.integers(2, 4))
    ground = range(1, 2 * k + draw(st.integers(0, 4)) + 1)
    a_side = frozenset(draw(st.sets(st.sampled_from(ground), min_size=k, max_size=len(ground) - k)))
    member = st.sets(st.sampled_from(ground), min_size=2 * k - 1, max_size=2 * k - 1)
    block = draw(st.lists(member.map(lambda s: tuple(sorted(s))), unique=True, max_size=10))
    return block, a_side, frozenset(ground) - a_side, k


@given(split_blocks())
@settings(max_examples=300, deadline=None)
def test_find_separated_pair_takes_the_first_of_each_half(case):
    block, a_side, b_side, k = case
    forced = {s: forced_condition(s, a_side, b_side, k) for s in block}
    c0 = sorted(s for s in block if forced[s] is Condition.C0)
    c1 = sorted(s for s in block if forced[s] is Condition.C1)
    pair = separated_pair(block, a_side, b_side, k)
    assert (pair is not None) == bool(c0 and c1)
    if pair is not None:
        assert pair == (c0[0], c1[0])
    # On (2k-1)-subsets the halves are the earlier counts: >= k in A with a
    # B-edge, and at most k-1 in A.
    assert c0 == sorted(s for s in block if len(a_side.intersection(s)) >= k and b_side.intersection(s))
    assert c1 == sorted(s for s in block if len(a_side.intersection(s)) <= k - 1)


def test_choose_partition_raises_on_corrupted_record(monkeypatch):
    # A record whose sigma message disagrees with a fresh encode is refused
    # by a named error, not an assert that python -O would strip.
    import sketchbench.setfam as setfam

    honest = setfam.message_partitions

    def corrupted(*args):
        sigma, role_a, role_b = honest(*args)
        # Flip each sigma message's first bit.
        flipped = tuple(Bits(bytes([b.data[0] ^ 0x80]) + b.data[1:], len(b)) for b in sigma.alphabet)
        return sigma._replace(alphabet=flipped), role_a, role_b

    monkeypatch.setattr(setfam, "message_partitions", corrupted)
    with pytest.raises(BrokenPairRecord, match="re-verification"):
        choose_partition(constant(2), fam40(), N16, 2, trials=1, seed=5)


def test_choose_partition_verifies_returned_records_once(monkeypatch):
    # Records of the trials that lose are dropped unchecked; each record of
    # the returned trial is verified exactly once.
    import sketchbench.setfam as setfam

    verified = []
    honest = setfam.verify_record

    def counting(record, *args):
        verified.append(record.node)
        return honest(record, *args)

    monkeypatch.setattr(setfam, "verify_record", counting)
    ctx = choose_partition(toy_two_bit(2), fam40(), N16, 2, trials=8, seed=5)
    assert ctx.good
    assert len(verified) == len(ctx.good)
    assert sorted(verified) == sorted(ctx.good)


def test_find_separated_pair_classification_sweep():
    a_side = frozenset({1, 2, 3})
    b_side = frozenset({4, 5, 6, 7})
    members = list(itertools.combinations(range(1, 8), 3))
    for size in (1, 2, 3):
        for chosen in itertools.combinations(members, size):
            has_c0 = any(len(set(s) & a_side) >= 2 and set(s) & b_side for s in chosen)
            has_c1 = any(len(set(s) & a_side) <= 1 for s in chosen)
            pair = separated_pair(chosen, a_side, b_side, 2)
            assert (pair is not None) == (has_c0 and has_c1)
            if pair:
                s0, s1 = pair
                assert len(set(s0) & a_side) >= 2 >= 1 >= len(set(s1) & a_side)


def test_choose_partition_constant_all_good():
    fam = fam40()
    ctx = choose_partition(constant(2), fam, N16, 2, trials=2, seed=5)
    assert len(ctx.good) == len(V16)


def test_choose_partition_full_information_fails():
    fam = fam40()
    with pytest.raises(NoGoodPartition):
        choose_partition(full_information(N16, 2), fam, N16, 2, trials=2, seed=5)


def test_choose_partition_toy_records_reverify():
    fam = fam40()
    proto = toy_two_bit(2)
    ctx = choose_partition(proto, fam, N16, 2, trials=32, seed=5)
    assert len(ctx.good) >= 1
    assert all(
        verify_record(rec, proto, ctx.a_side, ctx.b_side, N16, 2)
        for rec in ctx.good.values()
    )


def test_choose_partition_deterministic():
    fam = fam40()
    proto = toy_two_bit(2)
    a = choose_partition(proto, fam, N16, 2, trials=4, seed=9)
    b = choose_partition(proto, fam, N16, 2, trials=4, seed=9)
    assert a.a_side == b.a_side and a.good.keys() == b.good.keys()


def test_record_mutation_fails_reverify():
    fam = fam40()
    proto = toy_two_bit(2)
    ctx = choose_partition(proto, fam, N16, 2, trials=8, seed=5)
    node, rec = next(iter(ctx.good.items()))
    data = rec.message_sigma.data
    broken = replace(rec, message_sigma=Bits(bytes([data[0] ^ 0x80]) + data[1:], len(rec.message_sigma)))
    assert not verify_record(broken, proto, ctx.a_side, ctx.b_side, N16, 2)


@pytest.fixture(scope="module")
def toy_partition():
    return choose_partition(toy_two_bit(2), fam40(), N16, 2, trials=4, seed=9)


@pytest.mark.parametrize("role", ["sigma", "a", "b"])
@pytest.mark.parametrize("bad", ["2x", "0 1", 3, None])
def test_partition_context_rejects_malformed_witness(toy_partition, role, bad):
    # A witness that is not a bit string fails the re-verification every
    # record of a chosen partition passes, without raising, instead of
    # reaching the referee.
    proto, ctx = toy_two_bit(2), toy_partition
    record = next(iter(ctx.good.values()))
    assert verify_record(record, proto, ctx.a_side, ctx.b_side, N16, 2)
    broken = replace(record, **{f"message_{role}": bad})
    assert not verify_record(broken, proto, ctx.a_side, ctx.b_side, N16, 2)


@pytest.mark.parametrize("d", [4, 5])
def test_choose_partition_rejects_wrong_member_size(d):
    # At (m, s, k) = (30, 3, 2), sigma neighborhoods have 2k-1 = 3 members;
    # a complete family of larger members is refused at entry.
    n = reduction_size(30)
    family = complete_family(layout(n)[1], d)
    with pytest.raises(ValueError, match="size 2k-1 = 3"):
        choose_partition(toy_two_bit(2), family, n, 2, 2, seed=1)


def test_choose_partition_refuses_an_empty_family():
    empty = SetFamily(ground=tuple(W16), d=3, members=())
    with pytest.raises(ValueError, match="family is empty"):
        choose_partition(toy_two_bit(2), empty, N16, 2, trials=1, seed=0)


@pytest.mark.parametrize("member", [(300, 301, 302), (W16[0], W16[1], V16[-1])], ids=["above-n", "in-V"])
def test_choose_partition_refuses_a_member_outside_w(member):
    # Ids above n would be encoded into views of nodes that do not exist.
    fam = fam40()
    bad = replace(fam, members=fam.members + (member,))
    with pytest.raises(ValueError, match=rf"member \({member[0]}, .* not a subset of W = {W16[0]}\.\.{W16[-1]}"):
        choose_partition(toy_two_bit(2), bad, N16, 2, trials=1, seed=0)


def test_choose_partition_refuses_repeated_members():
    fam = fam40()
    with pytest.raises(ValueError, match="distinct"):
        choose_partition(toy_two_bit(2), replace(fam, members=fam.members * 2), N16, 2, trials=1, seed=0)


def test_common_block_groups_codes_beyond_a_dense_table():
    # Three alphabets of 2^14 codes: 2^42 possible triples, so a table per
    # triple would not fit in memory.  Two groups of three tie; the smaller
    # triple wins, and the block comes back as ascending positions.
    width, count = 2**14, 5000
    rng = np.random.default_rng(3)
    alphabet = tuple(Bits.from_int(code, 14) for code in range(width))
    sigma = RoleCodes(alphabet, rng.integers(0, width, size=count))
    role_a = RoleCodes(alphabet, rng.integers(0, width, size=count))
    role_b = RoleCodes(alphabet, rng.integers(0, width, size=count))
    roles = (sigma, role_a, role_b)
    indices = (np.arange(count), rng.permutation(count), rng.permutation(count))
    for group, triple in (([40, 7, 4000], (9, 9, 9)), ([5, 2500, 4999], (9, 9, 8))):
        for i in group:
            for role, index, code in zip(roles, indices, triple):
                role.codes[index[i]] = code
    members = tuple((i,) for i in range(count))
    groups = {}
    for i in range(count):
        triple = tuple(role.message(index[i]) for role, index in zip(roles, indices))
        groups.setdefault(triple, []).append(members[i])
    expect = min(groups.items(), key=lambda item: (-len(item[1]), item[0]))[1]
    assert len(expect) == 3 and len(groups) > count - 10
    block = common_block(roles, indices)
    assert block.tolist() == [5, 2500, 4999] and [members[i] for i in block] == expect
    # Three alphabets of 2^21: the joined codes would overflow int64.
    wide = RoleCodes(range(2**21), sigma.codes)
    with pytest.raises(ValueError, match="do not fit in int64"):
        common_block((wide, wide, wide), indices)


def test_message_partitions_returns_codes_in_advice_order():
    # The encoder sends only its role's place in Advice, so each role's
    # alphabet is one message and shows which role's codes came back where.
    order = list(Advice)
    proto = SketchProtocol(
        name="role", k=2, max_bits=2,
        encode=lambda view, _rand: Bits.from_int(order.index(view.advice), 2),
        decode=lambda *_: Decision.CONNECTED,
    )
    a_side, b_side = frozenset(W16[:8]), frozenset(W16[8:])
    assert role_inputs((W16[0], W16[8], W16[9]), a_side, b_side) == (
        (W16[0], W16[8], W16[9]), (W16[0],), (W16[8], W16[9])
    )
    inputs = [[(w,) for w in W16[:count]] for count in (3, 1, 2)]
    entries = [[role_entries(key, advice, N16, 2) for key in keys] for keys, advice in zip(inputs, Advice)]
    coded = message_partitions(proto, 9, entries, N16, 2)
    assert [role.alphabet for role in coded] == [(Bits.from_int(i, 2),) for i in range(len(Advice))]
    assert [role.codes.tolist() for role in coded] == [[0, 0, 0], [0], [0, 0]]
    with pytest.raises(ValueError):  # one list of inputs per role, no fewer
        message_partitions(proto, 9, entries[:2], N16, 2)


def test_choose_partition_refuses_no_trials():
    with pytest.raises(ValueError, match="trials must be positive"):
        choose_partition(toy_two_bit(2), fam40(), N16, 2, trials=0, seed=0)


def test_complete_family():
    fam = complete_family(range(11, 15), 3)
    assert len(fam.members) == 4
    assert fam.members == tuple(itertools.combinations(range(11, 15), 3))


def reference_choose_partition(protocol, family, w_ids, k, trials, seed):
    """The partition search written out trial by trial, every role view encoded afresh."""
    w_sorted = tuple(sorted(w_ids))
    v_count = w_sorted[0] - 1
    n = v_count + len(w_sorted) + 2
    u_a, u_b = n - 1, n

    def enc(node, neighbors, hub, advice):
        entries = tuple(sorted([(w, 1) for w in neighbors] + [(hub, k)]))
        return protocol.encode(NodeView(node, entries, advice, n, k), EMPTY_RANDOMNESS)

    best = None
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
        while True:
            mask = rng.random(len(w_sorted)) < 0.5
            a_side = frozenset(w for w, pick in zip(w_sorted, mask) if pick)
            b_side = frozenset(w_sorted) - a_side
            if len(a_side) >= k and len(b_side) >= k:
                break
        good = {}
        for node in range(1, v_count + 1):
            proj = {
                s: (tuple(w for w in s if w in a_side), tuple(w for w in s if w in b_side))
                for s in family.members
            }
            msg_s = {s: enc(node, s, u_a, Advice.SIGMA) for s in family.members}
            msg_a = {pa: enc(node, pa, u_a, Advice.A_RESTRICTED) for pa, _ in proj.values()}
            msg_b = {pb: enc(node, pb, u_b, Advice.B_RESTRICTED) for _, pb in proj.values()}
            groups = {}
            for s, (pa, pb) in proj.items():
                groups.setdefault((msg_s[s], msg_a[pa], msg_b[pb]), []).append(s)
            triple = min(groups, key=lambda t: (-len(groups[t]), t))
            # The pair rule: the group's first C0 member and first C1 member, in sorted order.
            group = sorted(groups[triple])
            forced = [forced_condition(s, a_side, b_side, k) for s in group]
            if Condition.C0 in forced and Condition.C1 in forced:
                s0, s1 = group[forced.index(Condition.C0)], group[forced.index(Condition.C1)]
                good[node] = SeparatedPairRecord(node, s0, s1, *triple)
        if best is None or len(good) > len(best.good):
            best = PartitionContext(a_side=a_side, b_side=b_side, family=family, good=good)
    return best


@pytest.mark.parametrize("n", [N16, 100])
@pytest.mark.parametrize("name", ["const", "parity", "toy2", "trunc:2", "full"])
def test_choose_partition_matches_per_trial_reference(name, n):
    _, w_ids, _, _ = layout(n)
    proto = make_protocol(name, n, 2)
    # The last case lists the second case's family in reverse: the search must not depend on member order.
    for fam_seed, seed, trials, step in ((11, 5, 1, 1), (12, 9, 2, 1), (13, 21, 3, 1), (12, 9, 2, -1)):
        fam = random_family(w_ids, 3, 24, seed=fam_seed)
        fam = replace(fam, members=fam.members[::step])
        expect = reference_choose_partition(proto, fam, w_ids, 2, trials, seed)
        if not expect.good:
            with pytest.raises(NoGoodPartition):
                choose_partition(proto, fam, n, 2, trials, seed)
            continue
        got = choose_partition(proto, fam, n, 2, trials, seed)
        assert got.to_json() == expect.to_json()


@pytest.mark.parametrize(
    "seed, prefix",
    [
        (33007519, "156eaebcc143e3cd"),
        (532733673, "7442a7dc9c3a9da6"),
        (1359935555, "8a7899dec8eb36ee"),
    ],
)
def test_build_context_golden(seed, prefix):
    # Digests of the contexts the per-trial search produced before the role
    # messages were shared across trials, less the family's overlap-bound key.
    ctx = build_context(make_protocol("toy2", 256, 2), 96, 48, 2, seed, trials=4)
    assert hashlib.sha256(ctx.to_json().encode()).hexdigest()[:16] == prefix


def test_choose_partition_classifies_each_member_once_per_trial(monkeypatch):
    # The search asks for each member's forced condition once per trial; the
    # re-verification asks again for both members of each returned record.
    import sketchbench.setfam as setfam

    calls = []
    honest = setfam.forced_condition

    def counting(*args):
        calls.append(args[0])
        return honest(*args)

    monkeypatch.setattr(setfam, "forced_condition", counting)
    fam = fam40()
    ctx = choose_partition(toy_two_bit(2), fam, N16, 2, trials=4, seed=5)
    assert ctx.good
    assert len(calls) == 4 * len(fam.members) + 2 * len(ctx.good)


def test_choose_partition_encodes_each_view_once(monkeypatch):
    import sketchbench.setfam as setfam

    proto = toy_two_bit(2)
    outside = Counter()
    inside = []
    verify = setfam.verify_record

    def counting_encode(view, rand):
        if not inside:
            outside[(view.id, view.advice, view.neighbors)] += 1
        return proto.encode(view, rand)

    def counting_verify(*args):
        inside.append(True)
        try:
            return verify(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(setfam, "verify_record", counting_verify)
    fam = fam40()
    ctx = choose_partition(replace(proto, encode=counting_encode), fam, N16, 2, trials=4, seed=5)
    assert ctx.good
    assert max(outside.values()) == 1
    sigma_views = sum(advice is Advice.SIGMA for _, advice, _ in outside)
    assert sigma_views == len(V16) * len(fam.members)


def test_record_without_b_edge_fails_check():
    # S0 = (29, 30, 31) lies wholly in A, so a B-restricted node wired by it
    # would have no B-edge.  find_separated_pair never builds such a record,
    # and the checker refuses it too, while it accepts S0 = (29, 30, 32).
    n, k = 36, 2
    w_ids = layout(n)[1]
    a_side = frozenset({29, 30, 31})
    b_side = frozenset(w_ids) - a_side
    zero = Bits.from_str("0")
    for s0, shaped in (((29, 30, 31), False), ((29, 30, 32), True)):
        record = SeparatedPairRecord(
            node=1, s0=s0, s1=(29, 32, 33), message_sigma=zero, message_a=zero, message_b=zero
        )
        assert verify_record(record, constant(2), a_side, b_side, n, k) is shaped


def test_choose_partition_refuses_k_below_2():
    with pytest.raises(SpecError) as err:
        choose_partition(constant(1), complete_family(W16, 1), N16, 1, trials=1, seed=0)
    assert err.value.rule == "sizes"


def test_randomized_protocol_refused_at_its_first_encode():
    # Every view is encoded with the empty randomness source, which a
    # randomized protocol refuses on its first draw, before any record is made.
    from sketchbench.agm import make_agm_protocol

    with pytest.raises(ValueError, match="empty source"):
        choose_partition(make_agm_protocol(N16, 2, 0.1), fam40(), N16, 2, trials=1, seed=0)
    with pytest.raises(ValueError, match="empty source"):
        build_context(make_agm_protocol(reduction_size(6), 2, 0.1), m=6, s=3, k=2, seed=0)


def degk(k: int) -> SketchProtocol:
    """Negative control: each V-node sends [its W-neighbours >= k], every other node 0.

    The referee always answers CONNECTED, so it is wrong on every C0 member.
    The A-restricted role's bit is [|S & A| >= k], which the pair rule makes 1
    on S0 and 0 on S1: no common block holds a separated pair.
    """

    def encode(view: NodeView, _rand) -> Bits:
        v_ids, w_ids, _, _ = layout(view.n)
        degree = sum(v in w_ids for v, _ in view.neighbors) if view.id in v_ids else 0
        return Bits.from_int(int(degree >= view.k), 1)

    def decode(_messages, _rand) -> Decision:
        return Decision.CONNECTED

    return SketchProtocol(name="degk", k=k, max_bits=1, encode=encode, decode=decode)


@pytest.mark.parametrize("m, s", [(6, 3), (9, 4)])
def test_threshold_bit_pins_no_node(m, s):
    # One role bit, [|S & A| >= k], takes a wrong protocol out of the chain's reach.
    n, k = reduction_size(m), 2
    family = complete_family(layout(n)[1], 2 * k - 1)
    with pytest.raises(NoGoodPartition):
        choose_partition(degk(k), family, n, k, trials=4, seed=1)
    with pytest.raises(NotEnoughGoodNodes) as caught:
        build_context(degk(k), m, s, k, seed=1, trials=4)
    assert caught.value.found == 0
