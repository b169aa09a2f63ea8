"""The hard graph family for k-edge connectivity.

Members live on node sets V, W = A ∪ B, and two hubs u_A, u_B.  A and B induce
cliques wired to their hub; every V-node is either A-restricted (W-edges only
into A, possibly none, plus k parallel hub-A edges), B-restricted (at least one
W-edge into B plus k parallel hub-B edges), or the determining node sigma,
which has exactly 2k-1 W-edges and k parallel hub-A edges.  Whether the graph
is k-edge connected is decided entirely by how sigma's W-edges split between
A and B.

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
from typing import Iterable, Optional

import numpy as np

from .mincut import is_k_edge_connected
from .model import Advice, MultiGraph, NodeView


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


def role_view(
    node: int, w_neighbors: Iterable[int], advice: Optional[Advice], n: int, k: int
) -> NodeView:
    """The view of V-node ``node`` in a family member, given its W-edges and role."""
    return NodeView(node, role_entries(w_neighbors, advice, n, k), advice, n, k)


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
    w_set = spec.a_side | spec.b_side

    # Sizes are compared before sets are built, so a huge n is never laid out.
    if len(spec.a_side) + len(spec.b_side) != len(w_ids) or w_set != set(w_ids):
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
        nbrs = neighbors_of(v, empty)
        if v == sigma:
            if len(nbrs) != 2 * k - 1:
                raise SpecError(
                    "C0/C1", f"sigma must have exactly {2 * k - 1} W-edges, got {len(nbrs)}"
                )
            if not nbrs <= w_set:
                raise SpecError("C0/C1", f"sigma neighborhood leaves W: {sorted(nbrs - w_set)}")
            continue
        role = restrictions[v]
        if role is Advice.A_RESTRICTED:
            if not nbrs <= a_side:
                raise SpecError("E3", f"A-restricted node {v} has edges outside A")
        elif role is Advice.B_RESTRICTED:
            if not nbrs:
                raise SpecError("E4", f"B-restricted node {v} needs at least one B-edge")
            if not nbrs <= b_side:
                raise SpecError("E4", f"B-restricted node {v} has edges outside B")
        else:
            raise SpecError("sizes", f"node {v} has invalid role {role}")


def condition_of(spec: LBGraphSpec) -> Condition:
    """C1 iff at least k of sigma's W-edges land in B; exactly one case holds."""
    in_b = len(spec.w_neighbors[spec.sigma] & spec.b_side)
    return Condition.C1 if in_b >= spec.k else Condition.C0


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
        rows[u_b if advice[v] is Advice.B_RESTRICTED else u_a][v] = k
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
        if rng.random() < 0.5:
            restrictions[v] = Advice.A_RESTRICTED
            picks = [w for w in a_sorted if rng.random() < 0.4]
            w_neighbors[v] = frozenset(picks)
        else:
            restrictions[v] = Advice.B_RESTRICTED
            picks = [w for w in b_sorted if rng.random() < 0.4]
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
