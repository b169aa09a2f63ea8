"""The hard graph family for k-edge connectivity.

Members live on node sets V, W = A ∪ B, and two hubs u_A, u_B.  A and B induce
cliques wired to their hub.  Each V-node is sigma, A-restricted or
B-restricted, with k parallel edges to the hub of its role, and ``role_rule``
is the one rule for its legal W-neighborhood: exactly 2k-1 ids of W for sigma,
all in A for A-restricted, at least one and all in B for B-restricted.
Whether the graph is k-edge connected turns on sigma alone:
``sigma_condition`` is C1 iff at least k of its W-edges land in B, else C0.
``validate`` and ``condition_of`` apply these rules to a member, and the
set-family search to each candidate sigma neighborhood S through
``forced_condition``: the condition S forces when each of its ``role_inputs``
(S, S∩A, S∩B) is legal.  On (2k-1)-subsets that is C0 iff |S∩A| >= k and
1 <= |S∩B| <= k-1, and C1 iff |S∩A| <= k-1 and |S∩B| >= k.

So the chain cannot pin a protocol with a restricted-role bit [|S∩A| >= k]:
a separated pair has |S0∩A| >= k > |S1∩A|, so its members differ in that role
and never share a common block.  ``degk`` in ``tests/test_setfam.py`` is one:
each V-node sends [its W-neighbours >= k], and its always-connected referee
is wrong on every C0 member, yet no node is pinned for it
(``test_threshold_bit_pins_no_node``).

``check_sizes`` is the one rule for the (n, k) at which the family exists,
``hub_of`` the one rule for the hub a V-node's k parallel edges go to, and
``role_entries`` the one rule for the neighbor entries a V-node has in a given
role.  Those entries do not depend on the node, so the set-family search
builds them once per candidate neighborhood and wraps them in each node's
view; ``role_view`` is that wrapping for one node, and the search's record
checks and Charlie's simulation build V-node views with it.  Charlie's hub
views are built directly, each V-node attached to the hub ``hub_of`` names.
``build_lb_graph`` writes the same rules as whole rows of a ``MultiGraph``,
independently of these helpers and of any pre-computed context, so that
fidelity checks compare the simulation with an honest graph.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Collection, Iterable, Optional

import numpy as np

from .mincut import is_k_edge_connected
from .model import Advice, MultiGraph, NodeView


Member = tuple[int, ...]  # a W-neighborhood, ascending ids


class SpecError(ValueError):
    """A graph description violates one of the family rules."""

    def __init__(self, rule: str, message: str):
        super().__init__(f"[{rule}] {message}")
        self.rule = rule


class Condition(Enum):
    C0 = "C0"  # at least k of sigma's W-edges land in A: not k-edge connected
    C1 = "C1"  # at least k land in B: k-edge connected


@functools.cache
def layout(n: int) -> tuple[range, range, int, int]:
    """Canonical id layout: (V ids, W ids, u_A, u_B).

    V occupies 1..n-|W|-2, W the next |W| = isqrt(n) ids, and the hubs are
    n-1 and n.  Cached: encoders look it up once per node view.
    """
    w = math.isqrt(n)
    v_count = n - w - 2
    return range(1, v_count + 1), range(v_count + 1, v_count + w + 1), n - 1, n


def check_sizes(n: int, k: int) -> None:
    """Raise ``SpecError("sizes")`` unless n, k are integers, 2 <= k and |W| = isqrt(n) >= 2k."""
    if not (isinstance(n, int) and isinstance(k, int) and 2 <= k and 2 * k <= math.isqrt(max(n, 0))):
        raise SpecError("sizes", f"need integers 2 <= k and 2k <= isqrt(n); got k={k!r}, n={n!r}")


def hub_of(advice: Optional[Advice], n: int) -> int:
    """The hub a V-node with this advice attaches to: u_B if B-restricted, else u_A."""
    _, _, u_a, u_b = layout(n)
    return u_b if advice is Advice.B_RESTRICTED else u_a


def role_entries(
    w_neighbors: Iterable[int], advice: Optional[Advice], n: int, k: int
) -> tuple[tuple[int, int], ...]:
    """The neighbor entries of a V-node's view, given its W-edges and role.

    One edge to each W-neighbor, then k parallel edges to ``hub_of(advice)``.
    The hubs have the largest ids, so the hub entry comes last.  The entries
    do not depend on which V-node holds them.
    """
    entries = [(w, 1) for w in sorted(w_neighbors)]
    entries.append((hub_of(advice, n), k))
    return tuple(entries)


#: Bound once: the rules below run per V-node or member, and an ``Enum``
#: attribute lookup costs about 150 ns.
_ROLES = _SIGMA, _A_RESTRICTED, _B_RESTRICTED = tuple(Advice)
_C0, _C1 = Condition


def role_rule(
    advice: Advice, w_neighbors: Collection[int], a_side: frozenset[int], b_side: frozenset[int], k: int
) -> Optional[str]:
    """The ``SpecError`` rule ("C0/C1", "E3" or "E4") that ``w_neighbors``, distinct ids, break in the role, or None."""
    if advice is _A_RESTRICTED:
        return None if a_side.issuperset(w_neighbors) else "E3"
    if advice is _B_RESTRICTED:
        return None if w_neighbors and b_side.issuperset(w_neighbors) else "E4"
    return None if len(w_neighbors) == 2 * k - 1 and a_side.union(b_side).issuperset(w_neighbors) else "C0/C1"


def sigma_condition(w_neighbors: Iterable[int], b_side: frozenset[int], k: int) -> Condition:
    """C1 iff at least k of sigma's W-edges land in B, else C0."""
    return _C1 if len(b_side.intersection(w_neighbors)) >= k else _C0


def role_inputs(member: Member, a_side: frozenset[int], b_side: frozenset[int]) -> tuple[Member, Member, Member]:
    """A candidate sigma neighborhood's input in each role, in ``Advice`` order: itself, S∩A, S∩B."""
    return member, tuple(filter(a_side.__contains__, member)), tuple(filter(b_side.__contains__, member))


def forced_condition(member: Member, a_side: frozenset[int], b_side: frozenset[int], k: int) -> Optional[Condition]:
    """The condition ``member`` forces as sigma's neighborhood, or None if one of its role inputs is illegal."""
    for advice, nbrs in zip(_ROLES, role_inputs(member, a_side, b_side)):
        if role_rule(advice, nbrs, a_side, b_side, k) is not None:
            return None
    return sigma_condition(member, b_side, k)


def role_view(
    node: int, w_neighbors: Iterable[int], advice: Optional[Advice], n: int, k: int
) -> NodeView:
    """The view of V-node ``node`` in a family member, given its W-edges and role."""
    return tuple.__new__(NodeView, (node, role_entries(w_neighbors, advice, n, k), advice, n, k))


@dataclass
class LBGraphSpec:
    """Symbolic description of one family member."""

    n: int
    k: int
    sigma: int
    a_side: frozenset[int]
    b_side: frozenset[int]
    restrictions: dict[int, Advice] = field(default_factory=dict)
    w_neighbors: dict[int, frozenset[int]] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "k": self.k,
                "sigma": self.sigma,
                "A": sorted(self.a_side),
                "B": sorted(self.b_side),
                "restrictions": {str(v): adv.value for v, adv in sorted(self.restrictions.items())},
                "w_neighbors": {str(v): sorted(s) for v, s in sorted(self.w_neighbors.items())},
            },
            indent=2,
        )


def validate(spec: LBGraphSpec) -> None:
    """Check every family rule; raise SpecError naming the violated one."""
    n, k = spec.n, spec.k
    check_sizes(n, k)  # then |V| = n - isqrt(n) - 2 >= 10
    v_ids, w_ids, _, _ = layout(n)

    # Sizes are compared before sets are built, so a huge n is never laid out.
    if len(spec.a_side) + len(spec.b_side) != len(w_ids) or spec.a_side | spec.b_side != set(w_ids):
        raise SpecError("sizes", "A and B must partition W")
    if len(spec.a_side) < k or len(spec.b_side) < k:
        raise SpecError("sizes", f"|A| and |B| must both be >= k={k}")
    if spec.sigma not in v_ids:
        raise SpecError("sizes", f"sigma={spec.sigma} outside V")

    expect_roles = set(v_ids) - {spec.sigma}
    if set(spec.restrictions) != expect_roles:
        raise SpecError("sizes", "restrictions must cover exactly V minus sigma")

    sigma, restrictions, a_side, b_side = spec.sigma, spec.restrictions, spec.a_side, spec.b_side
    neighbors_of, empty = spec.w_neighbors.get, frozenset()
    for v in v_ids:
        role = _SIGMA if v == sigma else restrictions[v]
        if v != sigma and role is not _A_RESTRICTED and role is not _B_RESTRICTED:
            raise SpecError("sizes", f"node {v} has invalid role {role}")
        nbrs = neighbors_of(v, empty)
        broken = role_rule(role, nbrs, a_side, b_side, k)
        if broken is not None:
            raise SpecError(broken, f"node {v} cannot have W-neighbours {sorted(nbrs)} as {role.value}")


def condition_of(spec: LBGraphSpec) -> Condition:
    """The member's side of the dichotomy, ``sigma_condition`` of sigma's W-neighborhood."""
    return sigma_condition(spec.w_neighbors[spec.sigma], spec.b_side, spec.k)


def build_lb_graph(spec: LBGraphSpec) -> tuple[MultiGraph, dict[int, Optional[Advice]]]:
    """Materialize the spec as a multigraph plus the per-node advice map.

    The graph is written as rows, each edge once.  A hub's row holds its
    side's W-nodes and the V-nodes attached to it, k edges each: u_B the
    B-restricted ones, u_A sigma and the A-restricted ones.  A W-node's row
    holds the later W-nodes of its side and its V-neighbors.
    """
    validate(spec)
    n, k = spec.n, spec.k
    v_ids, _, u_a, u_b = layout(n)
    advice: dict[int, Optional[Advice]] = dict.fromkeys(range(1, n + 1))
    advice.update(spec.restrictions)
    advice[spec.sigma] = Advice.SIGMA

    rows: dict[int, dict[int, int]] = {u_a: {}, u_b: {}}
    for v in v_ids:
        rows[u_b if advice[v] is _B_RESTRICTED else u_a][v] = k
    for side, hub in ((spec.a_side, u_a), (spec.b_side, u_b)):
        ordered = sorted(side)
        rows[hub].update(dict.fromkeys(ordered, 1))
        for i, w in enumerate(ordered):
            rows[w] = dict.fromkeys(ordered[i + 1 :], 1)
    for v, nbrs in spec.w_neighbors.items():
        if v in v_ids:  # validate reads no other node's entry, so none is wired
            for w in nbrs:
                rows[w][v] = 1

    graph = MultiGraph(n)
    for u, row in rows.items():
        graph.add_row(u, row)
    return graph, advice


def verify_dichotomy(spec: LBGraphSpec) -> bool:
    """Oracle check: the graph is k-edge connected exactly when C1 holds."""
    graph, _ = build_lb_graph(spec)
    return is_k_edge_connected(graph, spec.k) == (condition_of(spec) is Condition.C1)


def random_spec(n: int, k: int, seed: int, condition: Optional[Condition] = None) -> LBGraphSpec:
    """Sample a valid spec; optionally force the side of the dichotomy."""
    check_sizes(n, k)
    rng = np.random.default_rng(seed)
    v_ids, w_ids, _, _ = layout(n)
    w_sorted = list(w_ids)
    split = int(rng.integers(k, len(w_sorted) - k + 1))
    a_side = frozenset(w_sorted[:split])
    b_side = frozenset(w_sorted[split:])

    sigma = int(rng.integers(1, len(v_ids) + 1))
    restrictions: dict[int, Advice] = {}
    w_neighbors: dict[int, frozenset[int]] = {}
    a_sorted = sorted(a_side)
    b_sorted = sorted(b_side)
    for v in v_ids:
        if v == sigma:
            continue
        # rng.random(size) draws what size scalar calls would, one per candidate W-node.
        if rng.random() < 0.5:
            restrictions[v] = _A_RESTRICTED
            w_neighbors[v] = frozenset(itertools.compress(a_sorted, (rng.random(len(a_sorted)) < 0.4).tolist()))
        else:
            restrictions[v] = _B_RESTRICTED
            picks = list(itertools.compress(b_sorted, (rng.random(len(b_sorted)) < 0.4).tolist()))
            if not picks:
                picks = [b_sorted[int(rng.integers(0, len(b_sorted)))]]
            w_neighbors[v] = frozenset(picks)

    d = 2 * k - 1
    if condition is None:
        chosen = rng.choice(w_sorted, size=d, replace=False)
    else:
        if condition is Condition.C0:
            lo, hi = k, min(d, len(a_side))
        else:
            lo, hi = max(0, d - len(b_side)), k - 1
        in_a = int(rng.integers(lo, hi + 1))
        from_a = rng.choice(a_sorted, size=in_a, replace=False)
        from_b = rng.choice(b_sorted, size=d - in_a, replace=False)
        chosen = list(from_a) + list(from_b)
    w_neighbors[sigma] = frozenset(int(x) for x in chosen)

    spec = LBGraphSpec(
        n=n,
        k=k,
        sigma=sigma,
        a_side=a_side,
        b_side=b_side,
        restrictions=restrictions,
        w_neighbors=w_neighbors,
    )
    validate(spec)
    if condition is not None and condition_of(spec) is not condition:
        raise SpecError("C0/C1", "sampled neighborhood does not realize the requested condition")
    return spec


def sigma_neighborhood_sweep(base: LBGraphSpec):
    """Yield one spec per possible sigma W-neighborhood, all else fixed."""
    w_all = sorted(base.a_side | base.b_side)
    d = 2 * base.k - 1
    for subset in itertools.combinations(w_all, d):
        nbrs = dict(base.w_neighbors)
        nbrs[base.sigma] = frozenset(subset)
        yield replace(base, w_neighbors=nbrs)
