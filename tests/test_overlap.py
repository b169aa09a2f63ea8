import functools
import hashlib
import itertools
import json
import math
import time
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchbench import overlap
from sketchbench.overlap import (
    BlockPropertyViolated,
    HypothesisViolated,
    InvalidInstance,
    OverlapInstance,
    TernaryVector,
    answer,
    appb_encode,
    appb_protocol,
    attack,
    build_blocks,
    check_parameters,
    check_support,
    cycle_successors,
    enumerate_valid_instances,
    fills,
    full_support_protocol,
    shared_index,
    truncated_protocol,
    validate_instance,
    vector_on,
)


def test_validate_figure_instance():
    x = TernaryVector.from_string("10**1***")
    y = TernaryVector.from_string("****0*01")
    assert validate_instance(x, y, 8, 3) == 5
    inst = OverlapInstance.make(x, y, 8, 3)
    assert answer(inst) is False  # (1, 0) at the shared index means no


def test_validate_rejects_double_overlap():
    x = vector_on(8, {1: 0, 2: 0, 5: 1})
    y = vector_on(8, {2: 1, 5: 0, 7: 0})
    with pytest.raises(InvalidInstance) as err:
        validate_instance(x, y, 8, 3)
    assert err.value.name == "P2"


def test_validate_rejects_equal_bits():
    x = vector_on(8, {1: 0, 2: 0, 5: 1})
    y = vector_on(8, {5: 1, 7: 0, 8: 0})
    with pytest.raises(InvalidInstance) as err:
        validate_instance(x, y, 8, 3)
    assert err.value.name == "P1"


def test_validate_rejects_wrong_support_size():
    x = vector_on(8, {1: 0, 2: 0})
    y = vector_on(8, {5: 1, 7: 0, 8: 0})
    with pytest.raises(InvalidInstance) as err:
        validate_instance(x, y, 8, 3)
    assert err.value.name == "support"


def test_answer_cases():
    yes = OverlapInstance.make(vector_on(8, {1: 0, 2: 0, 5: 0}), vector_on(8, {5: 1, 7: 0, 8: 0}), 8, 3)
    assert answer(yes) is True
    no = OverlapInstance.make(vector_on(8, {1: 0, 2: 0, 5: 1}), vector_on(8, {5: 0, 7: 0, 8: 0}), 8, 3)
    assert answer(no) is False
    # Hand-built, unvalidated: (0, 1) at sigma is yes; equal bits, or sigma off either support, is no.
    x, y = vector_on(8, {1: 0, 5: 0}), vector_on(8, {1: 1, 5: 0, 7: 1})
    assert [answer(OverlapInstance(x, y, sigma)) for sigma in (1, 5, 7, 3)] == [True, False, False, False]
    assert answer(OverlapInstance(y, x, 7)) is False


def test_vector_string_roundtrip():
    v = TernaryVector.from_string("10**1***")
    assert v.to_string() == "10**1***"
    assert v.support == (1, 2, 5)
    assert v.bits == "101"


def test_cycle_partition_m8():
    # Intervals (1, 2, 3), (4, 5, 6), (7, 8), each walked as a cycle.
    phi = cycle_successors(8)
    assert phi == {1: 2, 2: 3, 3: 1, 4: 5, 5: 6, 6: 4, 7: 8, 8: 7}
    for start in (1, 4):
        assert phi[phi[phi[start]]] == start


def test_cycle_partition_tail_singleton():
    phi = cycle_successors(7)
    assert sorted(phi) == list(range(1, 8))
    assert phi[7] == 1
    for b, succ in phi.items():
        assert succ != b


def test_build_blocks_total_m9():
    blocks = build_blocks(9, 4)
    assert len(blocks) == math.comb(9, 4)
    phi = cycle_successors(9)
    for subset, i in blocks.items():
        assert i in subset and phi[i] in subset


def test_build_blocks_rejects_fixed_point(monkeypatch):
    # Subsets meeting only at 1 would both drop 1 if phi fixed it.
    import sketchbench.overlap as overlap

    monkeypatch.setattr(overlap, "cycle_successors", lambda m: {i: i for i in range(1, m + 1)})
    with pytest.raises(BlockPropertyViolated, match="fixes 1"):
        build_blocks(9, 4)


def test_build_blocks_property_b():
    for m in (7, 8, 9):
        blocks = build_blocks(m, 4)
        for left, right in itertools.combinations(blocks, 2):
            if len(set(left) & set(right)) == 1:
                assert blocks[left] != blocks[right]


def test_build_blocks_hypothesis_violated():
    with pytest.raises(HypothesisViolated):
        build_blocks(9, 3)


def test_appb_encode_drop_mechanics():
    def keeping(*positions):
        return overlap._message_tables(9, 3, lambda support: positions)

    v = vector_on(9, {1: 1, 2: 0, 3: 1})
    assert appb_encode(v, keeping(1, 2)) == "01"
    assert appb_encode(v, keeping(2)) == "1"
    zero = vector_on(9, {1: 0, 2: 0, 3: 0})
    assert appb_encode(zero, keeping(0, 2)) == "00"
    # s = 2 truncates to nothing; s < 2 leaves no protocol to build.
    assert truncated_protocol(9, 2).alice_encode(vector_on(9, {4: 1, 6: 0})) == ""
    with pytest.raises(ValueError):
        truncated_protocol(9, 1)


def test_appb_encode_collisions_two_per_message():
    proto = appb_protocol(9, 4)
    support = (1, 2, 3, 4)
    seen = {}
    for bits in itertools.product((0, 1), repeat=4):
        msg = proto.alice_encode(vector_on(9, dict(zip(support, bits))))
        seen.setdefault(msg, []).append(bits)
    assert len(seen) == 8
    assert all(len(v) == 2 for v in seen.values())


def test_appb_role_swap_flips_answer():
    proto = appb_protocol(9, 4)
    x = vector_on(9, {1: 0, 2: 0, 3: 0, 9: 0})
    y = vector_on(9, {4: 0, 5: 0, 6: 0, 9: 1})
    inst = OverlapInstance.make(x, y, 9, 4)
    swapped = OverlapInstance.make(y, x, 9, 4)
    assert answer(inst) != answer(swapped)
    decoded = proto.charlie_decode(x.support, y.support, proto.alice_encode(x), proto.bob_encode(y))
    decoded_swap = proto.charlie_decode(y.support, x.support, proto.alice_encode(y), proto.bob_encode(x))
    assert decoded != decoded_swap


@given(st.integers(min_value=7, max_value=12), st.data())
@settings(max_examples=40, deadline=None)
def test_appb_message_length_property(m, data):
    s = data.draw(st.integers(min_value=math.ceil(m / 3) + 1, max_value=math.ceil(m / 2)))
    proto = appb_protocol(m, s)
    support = tuple(sorted(data.draw(
        st.sets(st.integers(min_value=1, max_value=m), min_size=s, max_size=s)
    )))
    bits = data.draw(st.tuples(*([st.integers(0, 1)] * s)))
    msg = proto.alice_encode(vector_on(m, dict(zip(support, bits))))
    assert len(msg) == s - 1


def test_attack_appb_finds_nothing():
    assert attack(appb_protocol(9, 4), 9, 4) is None


def test_attack_truncation_replays():
    proto = truncated_protocol(9, 4)
    cex = attack(proto, 9, 4)
    assert cex is not None
    assert cex.wrong
    assert len(set(cex.supp_x) & set(cex.supp_y)) == 1
    for x_str, y_str in cex.wrong:
        inst = OverlapInstance.make(
            TernaryVector.from_string(x_str), TernaryVector.from_string(y_str), 9, 4
        )
        msg_a = proto.alice_encode(inst.x)
        msg_b = proto.bob_encode(inst.y)
        assert msg_a == cex.msg_a and msg_b == cex.msg_b
        assert proto.charlie_decode(inst.x.support, inst.y.support, msg_a, msg_b) != answer(inst)


def test_attack_full_support_finds_nothing():
    assert attack(full_support_protocol(9, 4), 9, 4) is None


def test_instance_json_roundtrip():
    inst = OverlapInstance.make(
        vector_on(8, {1: 0, 2: 0, 5: 1}), vector_on(8, {5: 0, 7: 1, 8: 0}), 8, 3
    )
    again = OverlapInstance.from_json(inst.to_json())
    assert again == inst


def test_instance_json_rejects_malformed_input():
    good = {"m": 8, "s": 3, "X": "00**1***", "Y": "****0*10"}
    cases = {
        "not json": "{",
        "not an object": "[8, 3]",
        "missing key": json.dumps({k: v for k, v in good.items() if k != "Y"}),
        "string m": json.dumps({**good, "m": "8"}),
        "bool s": json.dumps({**good, "s": True}),
        "non-string vector": json.dumps({**good, "X": [0, 0, 1]}),
        "bad character": json.dumps({**good, "X": "00**2***"}),
    }
    for label, text in cases.items():
        with pytest.raises(InvalidInstance) as err:
            OverlapInstance.from_json(text)
        assert err.value.name == "format", label
    for short in ("00**1**", "001"):
        with pytest.raises(InvalidInstance) as err:
            OverlapInstance.from_json(json.dumps({**good, "X": short}))
        assert err.value.name == "support"
    with pytest.raises(InvalidInstance) as err:
        OverlapInstance.from_json(json.dumps({**good, "s": 5}))
    assert err.value.name == "parameters"


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=3), children, max_size=4),
    max_leaves=8,
)
_field = st.one_of(_json_values, st.integers(-3, 12), st.text(alphabet="01*", max_size=12))
_instance_objects = st.fixed_dictionaries({}, optional={"m": _field, "s": _field, "X": _field, "Y": _field})


@given(st.one_of(_instance_objects.map(json.dumps), _json_values.map(json.dumps), st.text(max_size=40)))
@settings(max_examples=150, deadline=None)
def test_instance_json_fuzz_raises_only_named_errors(text):
    try:
        inst = OverlapInstance.from_json(text)
    except InvalidInstance as err:
        assert err.name in {"format", "parameters", "support", "P1", "P2"}
    else:
        assert OverlapInstance.from_json(inst.to_json()) == inst


@given(st.one_of(st.text(alphabet="01*", max_size=12), st.text(max_size=12), _json_values))
@settings(max_examples=150, deadline=None)
def test_vector_string_fuzz_raises_only_named_errors(value):
    try:
        vector = TernaryVector.from_string(value)
    except InvalidInstance as err:
        assert err.name == "format"
    else:
        assert vector.to_string() == value


@pytest.mark.parametrize(
    "length,support,bits",
    [
        (3, (1, 2), "0"),
        (3, (2, 1), "01"),
        (3, (1, 4), "01"),
        (3, (0, 1), "01"),
        (3, (1,), "2"),
        (3, [1], "0"),
        ("3", (1,), "0"),
    ],
)
def test_vector_rejects_inconsistent_fields(length, support, bits):
    with pytest.raises(InvalidInstance) as err:
        TernaryVector(length, support, bits)
    assert err.value.name == "format"


class _Index(IntEnum):
    TWO = 2


@pytest.mark.parametrize(
    "support, accepted",
    [
        ((1, 2, 3), True),
        ((4, 5, 6), True),
        ((1, _Index.TWO, 6), True),  # an int subclass other than bool counts as an int
        ((True, 2, 3), False),
        ((1, 2.0, 3), False),
        ([1, 2, 3], False),
        ((2, 1, 3), False),
        ((1, 1, 3), False),
        ((0, 1, 2), False),
        ((1, 2, 7), False),
        ((1, 2), False),
        ((1, 2, 3, 4), False),
    ],
    ids=["low", "high", "int-subclass", "bool", "float", "list", "unsorted", "repeated", "0", "m+1", "short", "long"],
)
def test_check_support_accepts_exactly_ascending_s_subsets(support, accepted):
    if accepted:
        check_support(support, 6, 3)
    else:
        with pytest.raises(InvalidInstance) as err:
            check_support(support, 6, 3)
        assert err.value.name == "support"


def _two_pass_is_support(support, m):
    # The two-pass definition the single pass replaced.
    return (
        isinstance(support, tuple)
        and all(isinstance(i, int) and not isinstance(i, bool) and 1 <= i <= m for i in support)
        and all(a < b for a, b in zip(support, support[1:]))
    )


@given(
    st.one_of(
        st.lists(st.one_of(st.integers(-2, 9), st.booleans(), st.floats(0, 9), st.just(_Index.TWO)), max_size=6),
        st.lists(st.integers(-2, 9), max_size=6).map(tuple),
        st.lists(st.integers(-2, 9), max_size=6).map(sorted).map(tuple),
        st.lists(st.one_of(st.integers(-2, 9), st.booleans(), st.floats(0, 9)), max_size=6).map(tuple),
    ),
    st.integers(0, 8),
)
@settings(max_examples=300, deadline=None)
def test_is_support_matches_two_pass_definition(support, m):
    assert overlap._is_support(support, m) == _two_pass_is_support(support, m)


@given(st.text(alphabet="01*", max_size=12), st.data())
@settings(max_examples=200, deadline=None)
def test_vector_matches_per_character_reference(text, data):
    ref = [None if ch == "*" else int(ch) for ch in text]
    v = TernaryVector.from_string(text)
    assert v.length == len(text)
    assert v.to_string() == text
    assert v.support == tuple(i + 1 for i, e in enumerate(ref) if e is not None)
    assert v.bits == "".join(str(e) for e in ref if e is not None)
    assert [v[i] for i in range(1, len(text) + 1)] == ref
    for outside in (0, len(text) + 1):
        with pytest.raises(IndexError):
            v[outside]
    assigned = vector_on(len(text), {i + 1: e for i, e in enumerate(ref) if e is not None})
    assert assigned == v and hash(assigned) == hash(v)
    other = data.draw(st.one_of(st.just(text), st.text(alphabet="01*", max_size=12)))
    w = TernaryVector.from_string(other)
    assert (v == w) == (text == other)
    if v == w:
        assert hash(v) == hash(w)


_appb = functools.cache(appb_protocol)


@functools.cache
def _sweep(m, s):
    """One pass over the (m, s) enumeration: its count, the SHA-256 prefix of its order
    and contents, how many instances appb sends other than s-1 bits for or misdecodes,
    and the first such instance."""
    proto = _appb(m, s)
    h = hashlib.sha256()
    count = wrong_length = misdecoded = 0
    first_wrong = None
    for inst in enumerate_valid_instances(m, s):
        h.update(f"{inst.x.to_string()} {inst.y.to_string()} {inst.sigma}\n".encode())
        count += 1
        msg_a = proto.alice_encode(inst.x)
        msg_b = proto.bob_encode(inst.y)
        bad_length = len(msg_a) != s - 1 or len(msg_b) != s - 1
        bad_decode = proto.charlie_decode(inst.x.support, inst.y.support, msg_a, msg_b) != answer(inst)
        wrong_length += bad_length
        misdecoded += bad_decode
        if (bad_length or bad_decode) and first_wrong is None:
            first_wrong = inst.to_json()
    return count, h.hexdigest()[:16], wrong_length, misdecoded, first_wrong


@pytest.mark.parametrize("m,s", [(7, 4), (8, 4), (9, 4)])
def test_appb_exhaustive_correctness(m, s):
    count, _, wrong_length, misdecoded, first_wrong = _sweep(m, s)
    assert count > 0
    assert (wrong_length, misdecoded, first_wrong) == (0, 0, None)


@pytest.mark.parametrize(
    "m,s,count,digest",
    [
        (7, 4, 17_920, "bdd2cc0acfd90760"),
        (8, 4, 143_360, "85a7423f87de86bf"),
        (9, 4, 645_120, "1fdf01beb7de5cce"),
    ],
)
def test_enumeration_golden(m, s, count, digest):
    """Order and contents of the sweep, pinned to the per-instance construction it replaced."""
    seen, got, *_ = _sweep(m, s)
    assert (seen, got) == (count, digest)


def test_appb_tables_after_a_full_sweep_hold_at_most_s_patterns(monkeypatch):
    # A full (9, 4) sweep encodes every fill of every support.  appb's
    # supports share one table per dropped position: at most s tables of
    # 2^s messages each, not one per support.
    m, s = 9, 4
    assert _sweep(m, s)[0] > 0
    seen = []
    monkeypatch.setattr(overlap, "appb_encode", lambda vector, tables: seen.append(tables))
    _appb(m, s).alice_encode(vector_on(m, {1: 0, 2: 0, 3: 0, 4: 0}))
    (tables,) = seen
    patterns = {id(table): table for table in tables.values()}.values()
    assert len(tables) == math.comb(m, s)
    assert len(patterns) <= s
    assert all(len(table) == 2**s for table in patterns)
    assert sum(map(len, patterns)) <= s * 2**s


#: Each protocol's kept positions K(S), written out from its definition.
KEPT = {
    "appb": lambda support, blocks, s: tuple(p for p, i in enumerate(support) if i != blocks[support]),
    "trunc": lambda support, blocks, s: tuple(range(s - 2)),
    "full": lambda support, blocks, s: tuple(range(s)),
}


@pytest.mark.parametrize("m, s", [(6, 3), (7, 4), (9, 4), (9, 5)])
@pytest.mark.parametrize("name", sorted(KEPT))
def test_messages_are_the_bits_at_the_kept_positions(name, m, s):
    assert set(KEPT) == set(overlap.OVERLAP_PROTOCOLS)
    proto, blocks = overlap.OVERLAP_PROTOCOLS[name](m, s), build_blocks(m, s)
    for support in itertools.combinations(range(1, m + 1), s):
        positions = KEPT[name](support, blocks, s)
        for v in fills(m, support):
            message = "".join(v.bits[p] for p in positions)
            assert proto.alice_encode(v) == proto.bob_encode(v) == message, (support, v.bits)


def test_enumeration_shares_fills():
    instances = list(enumerate_valid_instances(7, 4))
    vectors = {id(inst.x) for inst in instances} | {id(inst.y) for inst in instances}
    assert len(vectors) == math.comb(7, 4) * 2**4
    assert len({id(inst) for inst in instances}) == len(instances)


def test_fills_in_product_order():
    support = (2, 5, 7)
    assert fills(8, support) == tuple(
        vector_on(8, dict(zip(support, bits))) for bits in itertools.product((0, 1), repeat=3)
    )


def test_appb_protocol_encode_matches_searched_position():
    blocks = build_blocks(9, 4)
    proto = appb_protocol(9, 4)
    for support in blocks:
        pos = support.index(blocks[support])
        for v in fills(9, support):
            assert proto.alice_encode(v) == v.bits[:pos] + v.bits[pos + 1 :]


@pytest.mark.parametrize(
    "make,m,s,digest",
    [
        (appb_protocol, 9, 4, "d0ca8c126206"),
        (truncated_protocol, 9, 4, "43d91885f90b"),
        (full_support_protocol, 9, 4, "621d86ac5d22"),
        (appb_protocol, 10, 5, "90cc8cce745a"),
        (truncated_protocol, 10, 5, "e6e13eb22bdf"),
        (full_support_protocol, 10, 5, "bc5e1a50d7d5"),
    ],
)
def test_protocol_messages_golden(make, m, s, digest):
    """Every message of every fill, pinned to the per-protocol encoders they replaced."""
    proto = make(m, s)
    h = hashlib.sha256()
    for support in itertools.combinations(range(1, m + 1), s):
        for v in fills(m, support):
            h.update((proto.alice_encode(v) + "|" + proto.bob_encode(v) + "\n").encode())
    assert h.hexdigest()[:12] == digest


def test_attack_truncation_golden():
    cex = attack(truncated_protocol(9, 4), 9, 4)
    assert (cex.sigma, cex.supp_x, cex.supp_y) == (6, (1, 2, 3, 6), (4, 5, 6, 7))
    assert [v.to_string() for v in (cex.x, cex.x_hat, cex.y, cex.y_hat)] == [
        "000**0***",
        "000**1***",
        "***0000**",
        "***0010**",
    ]
    assert (cex.msg_a, cex.msg_b) == ("00", "00")
    assert cex.wrong == (("000**0***", "***0010**"),)


@pytest.mark.parametrize("make", [appb_protocol, truncated_protocol, full_support_protocol])
@pytest.mark.parametrize("supp_y", [(5, 6, 7, 8), (3, 4, 7, 8)])
def test_decoders_reject_broken_overlap(make, supp_y):
    """Disjoint supports (P1) and supports sharing two indices (P2) are named by ``shared_index``, not decoded."""
    proto = make(9, 4)
    msg = "0" * proto.max_bits
    with pytest.raises(InvalidInstance) as err:
        proto.charlie_decode((1, 2, 3, 4), supp_y, msg, msg)
    with pytest.raises(InvalidInstance) as rule:
        shared_index((1, 2, 3, 4), supp_y)
    assert (err.value.name, str(err.value)) == (rule.value.name, str(rule.value))
    assert err.value.name == ("P2" if set(supp_y) & {1, 2, 3, 4} else "P1")


def test_appb_decoder_rejects_unknown_support():
    for make in (appb_protocol, truncated_protocol, full_support_protocol):
        proto = make(9, 4)
        for bad in ((1, 2, 3), (1, 2, 3, 10), (2, 1, 3, 4), (0, 1, 2, 3)):
            with pytest.raises(InvalidInstance) as err:
                proto.charlie_decode(bad, (3, 4, 5, 6), "000", "000")
            assert err.value.name == "support", (make.__name__, bad)
        with pytest.raises(InvalidInstance) as err:
            proto.alice_encode(vector_on(9, {1: 0, 2: 1, 3: 0}))
        assert err.value.name == "support", make.__name__


def test_full_support_protocol_builds_supports_on_first_use():
    # C(40, 20) supports: building each up front would take far longer than this.
    start = time.perf_counter()
    proto = full_support_protocol(40, 20)
    x = vector_on(40, {i: 0 for i in range(1, 21)})
    y = vector_on(40, {i: 1 for i in range(20, 40)})
    inst = OverlapInstance.make(x, y, 40, 20)
    decoded = proto.charlie_decode(x.support, y.support, proto.alice_encode(x), proto.bob_encode(y))
    assert decoded is True and answer(inst) is True
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("m, s", [(1, 1), (5, 3), (6, 3), (9, 5)])
def test_check_parameters_accepts_feasible(m, s):
    check_parameters(m, s)


@pytest.mark.parametrize("m, s", [(5, 4), (6, 4), (6, 0), (0, 1), (6, -1), (6, True), (6.0, 3), ("6", 3)])
def test_check_parameters_refuses_infeasible(m, s):
    # Two s-subsets of [m] share exactly one index only when 1 <= s <= ceil(m/2).
    with pytest.raises(InvalidInstance, match=r"^\[parameters\]"):
        check_parameters(m, s)


def test_sweep_and_attack_refuse_infeasible_parameters():
    # At (5, 4) no two supports meet in exactly one index, so a sweep would
    # check nothing and an attack returning None would read as "correct".
    with pytest.raises(InvalidInstance, match=r"^\[parameters\]"):
        next(enumerate_valid_instances(5, 4))
    with pytest.raises(InvalidInstance, match=r"^\[parameters\]"):
        attack(full_support_protocol(9, 4), 5, 4)


@pytest.mark.parametrize("m, s", [(5, 4), (12, 8)])
@pytest.mark.parametrize("make", [appb_protocol, truncated_protocol, full_support_protocol])
def test_builders_check_parameters_first(monkeypatch, make, m, s):
    # Refused before any work of size C(m, s), such as the block map.
    def unreachable(*args):
        raise AssertionError("build_blocks reached")

    monkeypatch.setattr(overlap, "build_blocks", unreachable)
    with pytest.raises(InvalidInstance, match=r"^\[parameters\]"):
        make(m, s)


@pytest.mark.parametrize(
    "make, m, s, dropped",
    [
        (appb_protocol, 7, 4, lambda support, blocks: {blocks[support]}),
        (appb_protocol, 9, 4, lambda support, blocks: {blocks[support]}),
        (truncated_protocol, 9, 4, lambda support, blocks: set(support[-2:])),
        (full_support_protocol, 8, 4, lambda support, blocks: set()),
    ],
)
def test_unkept_is_support_minus_kept_set(make, m, s, dropped):
    # The indices the attack may flip are exactly S minus K(S): appb drops
    # its block index, trunc all but the first s-2 positions, full nothing.
    proto, blocks = make(m, s), build_blocks(m, s)
    for support in itertools.combinations(range(1, m + 1), s):
        for encode in (proto.alice_encode, proto.bob_encode):
            assert set(overlap._unkept(encode, m, support)) == dropped(support, blocks), support


@pytest.mark.parametrize("supp_y, name", [((4, 5, 6), "P1"), ((1, 2, 6), "P2")])
def test_shared_index_names_the_broken_promise(supp_y, name):
    assert shared_index((1, 2, 3), (3, 5, 6)) == 3
    with pytest.raises(InvalidInstance) as err:
        shared_index((1, 2, 3), supp_y)
    assert err.value.name == name
