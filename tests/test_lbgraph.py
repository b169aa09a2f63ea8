import dataclasses
import hashlib
import itertools

import pytest

from sketchbench.lbgraph import (
    Condition,
    LBGraphSpec,
    SpecError,
    build_lb_graph,
    check_sizes,
    condition_of,
    forced_condition,
    hub_of,
    layout,
    random_spec,
    role_entries,
    role_rule,
    role_view,
    sigma_neighborhood_sweep,
    validate,
    verify_dichotomy,
)
from sketchbench.mincut import is_k_edge_connected
from sketchbench.model import Advice, MultiGraph, node_view


def make_spec_49(sigma_in_a: int) -> LBGraphSpec:
    # n=49, k=3: |W|=7 split 4/3, sigma's 5 W-edges with `sigma_in_a` into A.
    v_ids, w_ids, _, _ = layout(49)
    w = list(w_ids)
    a_side, b_side = frozenset(w[:4]), frozenset(w[4:])
    sigma = 1
    restrictions = {}
    w_neighbors = {}
    for v in list(v_ids)[1:]:
        if v % 2 == 0:
            restrictions[v] = Advice.A_RESTRICTED
            w_neighbors[v] = frozenset(w[: v % 5])
        else:
            restrictions[v] = Advice.B_RESTRICTED
            w_neighbors[v] = frozenset(w[4 : 5 + v % 3])
    w_neighbors[sigma] = frozenset(w[:sigma_in_a] + w[4 : 4 + (5 - sigma_in_a)])
    return LBGraphSpec(
        n=49, k=3, sigma=sigma, a_side=a_side, b_side=b_side,
        restrictions=restrictions, w_neighbors=w_neighbors,
    )


def test_c0_member_not_connected():
    spec = make_spec_49(sigma_in_a=3)
    assert condition_of(spec) is Condition.C0
    graph, _ = build_lb_graph(spec)
    assert not is_k_edge_connected(graph, 3)
    assert verify_dichotomy(spec)


def test_c1_member_connected():
    spec = make_spec_49(sigma_in_a=2)
    assert condition_of(spec) is Condition.C1
    graph, _ = build_lb_graph(spec)
    assert is_k_edge_connected(graph, 3)
    assert verify_dichotomy(spec)


def test_a_restricted_empty_neighborhood_valid():
    spec = make_spec_49(sigma_in_a=3)
    empty_nodes = [
        v for v, role in spec.restrictions.items()
        if role is Advice.A_RESTRICTED and not spec.w_neighbors[v]
    ]
    assert empty_nodes
    graph, _ = build_lb_graph(spec)
    _, _, u_a, _ = layout(49)
    for v in empty_nodes:
        assert graph.neighborhood(v) == {u_a: 3}


def test_structure_rules():
    spec = make_spec_49(sigma_in_a=3)
    graph, advice = build_lb_graph(spec)
    v_ids, _, u_a, u_b = layout(49)
    # cliques on A and B
    for side in (spec.a_side, spec.b_side):
        for x, y in itertools.combinations(sorted(side), 2):
            assert graph.multiplicity(x, y) == 1
    # hub edges
    for w in spec.a_side:
        assert graph.multiplicity(u_a, w) == 1
        assert graph.multiplicity(u_b, w) == 0
    for w in spec.b_side:
        assert graph.multiplicity(u_b, w) == 1
    # role wiring and advice
    assert advice[spec.sigma] is Advice.SIGMA
    assert graph.multiplicity(spec.sigma, u_a) == 3
    for v, role in spec.restrictions.items():
        assert advice[v] is role
        hub = u_a if role is Advice.A_RESTRICTED else u_b
        assert graph.multiplicity(v, hub) == 3
    for w in list(spec.a_side) + list(spec.b_side) + [u_a, u_b]:
        assert advice[w] is None


def test_degree_accounting():
    spec = make_spec_49(sigma_in_a=3)
    graph, _ = build_lb_graph(spec)
    _, _, u_a, u_b = layout(49)
    n_a = sum(1 for r in spec.restrictions.values() if r is Advice.A_RESTRICTED)
    n_b = sum(1 for r in spec.restrictions.values() if r is Advice.B_RESTRICTED)
    assert sum(graph.neighborhood(u_a).values()) == len(spec.a_side) + 3 * (n_a + 1)
    assert sum(graph.neighborhood(u_b).values()) == len(spec.b_side) + 3 * n_b


def test_condition_of_counts():
    spec_k3 = make_spec_49(sigma_in_a=3)
    assert condition_of(spec_k3) is Condition.C0
    spec_k3b = make_spec_49(sigma_in_a=2)
    assert condition_of(spec_k3b) is Condition.C1
    # k=2: |S∩A|=2 of 3 leaves only one B-edge -> C0
    spec_k2 = random_spec(36, 2, seed=1, condition=Condition.C0)
    assert len(spec_k2.w_neighbors[spec_k2.sigma] & spec_k2.a_side) >= 2
    assert condition_of(spec_k2) is Condition.C0


def test_spec_errors_name_rules():
    spec = make_spec_49(sigma_in_a=3)

    bad = make_spec_49(3)
    bad.w_neighbors[bad.sigma] = frozenset(list(bad.a_side)[:2])
    with pytest.raises(SpecError) as err:
        build_lb_graph(bad)
    assert err.value.rule == "C0/C1"

    bad = make_spec_49(3)
    b_node = next(v for v, r in bad.restrictions.items() if r is Advice.B_RESTRICTED)
    bad.w_neighbors[b_node] = frozenset()
    with pytest.raises(SpecError) as err:
        build_lb_graph(bad)
    assert err.value.rule == "E4"

    bad = make_spec_49(3)
    a_node = next(v for v, r in bad.restrictions.items() if r is Advice.A_RESTRICTED)
    bad.w_neighbors[a_node] = frozenset(list(bad.b_side)[:1])
    with pytest.raises(SpecError) as err:
        build_lb_graph(bad)
    assert err.value.rule == "E3"

    # A non-sigma node whose restriction is sigma's role, with a neighborhood
    # legal for sigma: only the check that the role is a restricted one
    # refuses it.
    bad = make_spec_49(3)
    v = next(iter(bad.restrictions))
    bad.restrictions[v] = Advice.SIGMA
    bad.w_neighbors[v] = bad.w_neighbors[bad.sigma]
    assert len(bad.w_neighbors[v]) == 2 * bad.k - 1
    with pytest.raises(SpecError) as err:
        build_lb_graph(bad)
    assert err.value.rule == "sizes"

    bad = make_spec_49(3)
    bad.a_side, bad.b_side = frozenset(list(bad.a_side)[:2]), bad.b_side
    with pytest.raises(SpecError) as err:
        build_lb_graph(bad)
    assert err.value.rule == "sizes"

    with pytest.raises(SpecError) as err:
        random_spec(36, 4, seed=1)  # 2k > isqrt(n): check_sizes refuses
    assert err.value.rule == "sizes"


def subsets(ground):
    return itertools.chain.from_iterable(itertools.combinations(ground, size) for size in range(len(ground) + 1))


@pytest.mark.parametrize("w_count, k", [(6, 2), (6, 3), (7, 2), (7, 3)])
def test_role_rule_matches_the_pair_counts(w_count, k):
    # Every split of W with both sides >= k and every (2k-1)-subset S: the
    # condition S forces is the pair rule's counts, written here as the
    # reference.  Every subset of W is legal A-restricted iff it lies in A,
    # and B-restricted iff it is nonempty and lies in B.
    ground = range(1, w_count + 1)
    for a in subsets(ground):
        a_side = frozenset(a)
        b_side = frozenset(ground) - a_side
        if len(a_side) < k or len(b_side) < k:
            continue
        for s in itertools.combinations(ground, 2 * k - 1):
            in_a, in_b = len(a_side.intersection(s)), len(b_side.intersection(s))
            forced = forced_condition(s, a_side, b_side, k)
            assert (forced is Condition.C0) == (in_a >= k and 1 <= in_b <= k - 1)
            assert (forced is Condition.C1) == (in_a <= k - 1 and in_b >= k)
        for nbrs in subsets(ground):
            legal_a = role_rule(Advice.A_RESTRICTED, nbrs, a_side, b_side, k) is None
            legal_b = role_rule(Advice.B_RESTRICTED, nbrs, a_side, b_side, k) is None
            legal_sigma = role_rule(Advice.SIGMA, nbrs, a_side, b_side, k) is None
            assert legal_a == a_side.issuperset(nbrs)
            assert legal_b == (bool(nbrs) and b_side.issuperset(nbrs))
            assert legal_sigma == (len(nbrs) == 2 * k - 1)


@pytest.mark.parametrize("field, value", [("n", "36"), ("n", 36.0), ("k", None), ("k", 2.0)])
def test_spec_sizes_refused_by_check_sizes(field, value):
    spec = dataclasses.replace(random_spec(36, 2, seed=1), **{field: value})
    with pytest.raises(SpecError) as err:
        validate(spec)
    assert err.value.rule == "sizes"


def test_exhaustive_sweep_36_2():
    base = random_spec(36, 2, seed=7)
    specs = list(sigma_neighborhood_sweep(base))
    assert len(specs) == 20  # C(6,3)
    conditions = {condition_of(s) for s in specs}
    assert conditions == {Condition.C0, Condition.C1}
    assert all(verify_dichotomy(s) for s in specs)


def test_random_specs_valid_and_dichotomy():
    for seed in range(30):
        spec = random_spec(49, 3, seed=seed)
        assert verify_dichotomy(spec)


def test_random_spec_golden():
    # Thirty specs at n=256, k=3, free and forced to each side, pinned while
    # each candidate W-node still drew its own scalar.
    digest = hashlib.sha256()
    for seed in range(10):
        for condition in (None, Condition.C0, Condition.C1):
            digest.update(random_spec(256, 3, seed, condition=condition).to_json().encode())
    assert digest.hexdigest()[:16] == "933d894ff348f46a"


def edge_built(spec: LBGraphSpec):
    """The family's rules wired one ``add_edge`` per edge: the reference ``build_lb_graph`` is checked against."""
    validate(spec)
    n, k = spec.n, spec.k
    v_ids, _, u_a, u_b = layout(n)
    graph = MultiGraph(n)
    for side, hub in ((spec.a_side, u_a), (spec.b_side, u_b)):
        for x, y in itertools.combinations(sorted(side), 2):
            graph.add_edge(x, y, 1)
        for w in sorted(side):
            graph.add_edge(hub, w, 1)
    advice = {i: None for i in range(1, n + 1)}
    for v in v_ids:
        for w in sorted(spec.w_neighbors.get(v, frozenset())):
            graph.add_edge(v, w, 1)
        advice[v] = Advice.SIGMA if v == spec.sigma else spec.restrictions[v]
        graph.add_edge(v, u_b if advice[v] is Advice.B_RESTRICTED else u_a, k)
    return graph, advice


def assert_built_by_edges(spec: LBGraphSpec):
    graph, advice = build_lb_graph(spec)
    ref_graph, ref_advice = edge_built(spec)
    assert graph == ref_graph
    assert list(graph.edges()) == list(ref_graph.edges())
    assert all(graph.neighborhood(v) == ref_graph.neighborhood(v) for v in range(1, spec.n + 1))
    assert list(advice.items()) == list(ref_advice.items())


@pytest.mark.parametrize("n, k", [(36, 2), (64, 3)])
def test_rows_build_the_edge_reference_over_a_sweep(n, k):
    # Every sigma neighborhood of one base member: C(6, 3) = 20 at n=36 and
    # C(8, 5) = 56 at n=64, on both sides of the dichotomy.
    specs = list(sigma_neighborhood_sweep(random_spec(n, k, seed=3)))
    assert len(specs) == {36: 20, 64: 56}[n]
    assert {condition_of(spec) for spec in specs} == {Condition.C0, Condition.C1}
    for spec in specs:
        assert_built_by_edges(spec)


@pytest.mark.parametrize("condition", [Condition.C0, Condition.C1])
@pytest.mark.parametrize("n, k", [(36, 2), (100, 4), (256, 2)])
def test_rows_build_the_edge_reference_on_random_members(n, k, condition):
    for seed in range(6):
        assert_built_by_edges(random_spec(n, k, seed, condition=condition))


@pytest.mark.parametrize("n, k", [(36, 2), (64, 3), (100, 4)])
def test_role_view_matches_built_graph(n, k):
    # The role rule the set-family search and Charlie use agrees with the
    # honest graph on every V-node, sigma included, on both sides of the
    # dichotomy; the node's entries are role_entries, which take no node.
    v_ids, _, _, _ = layout(n)
    for seed in range(4):
        for condition in (Condition.C0, Condition.C1):
            spec = random_spec(n, k, seed, condition=condition)
            graph, advice = build_lb_graph(spec)
            for v in v_ids:
                view = node_view(graph, v, advice[v], k)
                assert view == role_view(v, spec.w_neighbors[v], advice[v], n, k)
                assert view.neighbors == role_entries(spec.w_neighbors[v], advice[v], n, k)


@pytest.mark.parametrize("n, k", [(36, 2), (64, 3), (100, 4)])
def test_hub_of_matches_built_graph(n, k):
    # Every V-node's k parallel edges go to hub_of its advice, and it has no
    # edge to the other hub.
    v_ids, _, u_a, u_b = layout(n)
    for seed in range(4):
        for condition in (Condition.C0, Condition.C1):
            spec = random_spec(n, k, seed, condition=condition)
            graph, advice = build_lb_graph(spec)
            for v in v_ids:
                hub = hub_of(advice[v], n)
                other = u_b if hub == u_a else u_a
                assert (graph.multiplicity(v, hub), graph.multiplicity(v, other)) == (k, 0)


def test_check_sizes_is_the_float_rule_on_integers():
    # 2k <= isqrt(n) admits the same integer (n, k) as 2 <= k <= sqrt(n)/2.
    for n in range(0, 1100):
        for k in range(-1, 20):
            try:
                check_sizes(n, k)
            except SpecError as err:
                assert err.rule == "sizes"
                assert not 2 <= k <= 0.5 * n**0.5, (n, k)
            else:
                assert 2 <= k <= 0.5 * n**0.5, (n, k)
