"""Three-party simulation of a sketching protocol on the hard graph family.

A valid unique-overlap instance is translated into a member of the family:
Alice wires the A-side of the partition according to her vector, Bob the
B-side, and Charlie produces sketches for the hubs and every V-node without
ever reading a vector entry.  One role map read off the two supports gives
each V-node its advice and, at a support host, its pair record's witness;
Charlie wires the hubs by ``lbgraph.hub_of`` and encodes the other V-nodes
from ``lbgraph.role_view``, and ``build_compatible_graph`` takes its roles
from the same map.  The referee's decision on the assembled messages answers
the instance, and the assembly is bit-identical to the honest execution.
Building a context checks (m, s) with ``overlap.check_parameters``; its JSON
is a report, written and never read back.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations, zip_longest
from operator import attrgetter
from typing import Optional, Sequence

from .lbgraph import LBGraphSpec, build_lb_graph, hub_of, layout, role_view
from .model import (
    Advice,
    Bits,
    Decision,
    EMPTY_RANDOMNESS,
    MultiGraph,
    NodeView,
    SketchProtocol,
    check_message,
    execute,
    node_view,
)
from .overlap import OverlapInstance, check_parameters, check_support, shared_index
from .setfam import (
    NoGoodPartition,
    PartitionContext,
    SeparatedPairRecord,
    SetFamily,
    choose_partition,
    neighborhood_family,
)


class NotEnoughGoodNodes(RuntimeError):
    def __init__(self, found: int, needed: int):
        super().__init__(f"only {found} nodes acquired pairs, need {needed}")
        self.found = found
        self.needed = needed


def reduction_size(m: int) -> int:
    """Number of graph nodes used to host an m-coordinate instance."""
    return 2 * math.ceil(4 * m / 3)


@dataclass
class ReductionContext:
    """Everything the three parties pre-compute before seeing an instance."""

    m: int
    s: int
    k: int
    n: int
    partition: PartitionContext
    good_ids: tuple[int, ...]  # instance coordinate i lives at node good_ids[i-1]
    protocol_name: str

    @property
    def a_side(self) -> frozenset[int]:
        return self.partition.a_side

    @property
    def b_side(self) -> frozenset[int]:
        return self.partition.b_side

    @property
    def family(self) -> SetFamily:
        return self.partition.family

    def node_of(self, coordinate: int) -> int:
        return self.good_ids[coordinate - 1]

    def record_of(self, coordinate: int) -> SeparatedPairRecord:
        """The pair record of the node hosting ``coordinate``: S0, S1 and witnesses."""
        return self.partition.good[self.node_of(coordinate)]

    def to_json(self) -> str:
        return json.dumps(
            {
                "m": self.m,
                "s": self.s,
                "k": self.k,
                "n": self.n,
                "good_ids": list(self.good_ids),
                "protocol": self.protocol_name,
                "partition": self.partition.to_json_obj(),
            },
            indent=2,
        )


def build_context(
    protocol: SketchProtocol,
    m: int,
    s: int,
    k: int,
    seed: int,
    trials: int = 32,
    family: Optional[SetFamily] = None,
) -> ReductionContext:
    """Choose the partition and pin the first m nodes carrying pairs."""
    check_parameters(m, s)
    if protocol.k != k:
        raise ValueError(f"protocol decides k={protocol.k}, context asked for k={k}")
    n = reduction_size(m)
    if family is None:
        family = neighborhood_family(layout(n)[1], k)
    try:
        partition = choose_partition(protocol, family, n, k, trials, seed)
    except NoGoodPartition:
        raise NotEnoughGoodNodes(0, m) from None
    good_sorted = sorted(partition.good)
    if len(good_sorted) < m:
        raise NotEnoughGoodNodes(len(good_sorted), m)
    return ReductionContext(
        m=m,
        s=s,
        k=k,
        n=n,
        partition=partition,
        good_ids=tuple(good_sorted[:m]),
        protocol_name=protocol.name,
    )


def _pair_ends(ctx: ReductionContext, vector, coordinate: int, alice: bool) -> list[int]:
    """W-ends of the pair edges one party wires for a coordinate, on its own side.

    Alice's bit 0 selects S1 and her bit 1 selects S0; Bob's bits select the
    other way round.
    """
    record = ctx.record_of(coordinate)
    chosen = record.s1 if (vector[coordinate] == 0) == alice else record.s0
    side = ctx.a_side if alice else ctx.b_side
    return [w for w in chosen if w in side]


def _party_messages(
    vector, ctx: ReductionContext, protocol: SketchProtocol, alice: bool
) -> list[tuple[int, Bits]]:
    """Sketches of one side's W-nodes, computed from that party's local wiring.

    The party's graph holds its side's clique, the hub edge for every node of
    the side, and for each coordinate in its support the pair edges into the
    side.
    """
    _, _, u_a, u_b = layout(ctx.n)
    side, hub = (ctx.a_side, u_a) if alice else (ctx.b_side, u_b)
    check_support(vector.support, ctx.m, ctx.s)
    graph = MultiGraph(ctx.n)
    ordered = sorted(side)
    for w1, w2 in combinations(ordered, 2):
        graph.add_edge(w1, w2, 1)
    for w in ordered:
        graph.add_edge(hub, w, 1)
    for i in vector.support:
        for w in _pair_ends(ctx, vector, i, alice):
            graph.add_edge(ctx.node_of(i), w, 1)
    return [
        (w, protocol.encode(node_view(graph, w, None, ctx.k), EMPTY_RANDOMNESS))
        for w in ordered
    ]


def alice_messages(
    x, ctx: ReductionContext, protocol: SketchProtocol
) -> list[tuple[int, Bits]]:
    """Sketches of the A-side nodes, computed from Alice's local wiring."""
    return _party_messages(x, ctx, protocol, alice=True)


def bob_messages(
    y, ctx: ReductionContext, protocol: SketchProtocol
) -> list[tuple[int, Bits]]:
    """Mirror of Alice on the B-side."""
    return _party_messages(y, ctx, protocol, alice=False)


def _roles(
    supp_x: tuple[int, ...], supp_y: tuple[int, ...], ctx: ReductionContext
) -> dict[int, tuple[Advice, Optional[Bits]]]:
    """Every V-node's advice and, at a support host, its witness message; ascending ids.

    Read off the supports alone: the shared index's host is sigma, the hosts
    of Bob's other indices are B-restricted, every other V-node A-restricted.
    Each support must be an ascending s-subset of 1..m, else InvalidInstance.
    """
    for support in (supp_x, supp_y):
        check_support(support, ctx.m, ctx.s)
    sigma = shared_index(supp_x, supp_y)
    roles = dict.fromkeys(layout(ctx.n)[0], (Advice.A_RESTRICTED, None))
    for advice, support, witness in (
        (Advice.A_RESTRICTED, supp_x, attrgetter("message_a")),
        (Advice.B_RESTRICTED, supp_y, attrgetter("message_b")),
        (Advice.SIGMA, (sigma,), attrgetter("message_sigma")),
    ):
        for i in support:
            roles[ctx.node_of(i)] = (advice, witness(ctx.record_of(i)))
    return roles


def charlie_messages(
    supp_x: tuple[int, ...],
    supp_y: tuple[int, ...],
    ctx: ReductionContext,
    protocol: SketchProtocol,
) -> list[tuple[int, Bits]]:
    """Sketches for both hubs and every V-node, from supports and witnesses only."""
    roles = _roles(supp_x, supp_y, ctx)
    _, _, u_a, u_b = layout(ctx.n)

    messages = []
    for hub, side in ((u_a, ctx.a_side), (u_b, ctx.b_side)):
        # V ids precede W ids, so the entries come out ascending.
        attached = [(v, ctx.k) for v, (advice, _) in roles.items() if hub_of(advice, ctx.n) == hub]
        view = NodeView(hub, tuple(attached + [(w, 1) for w in sorted(side)]), None, ctx.n, ctx.k)
        messages.append((hub, protocol.encode(view, EMPTY_RANDOMNESS)))
    for v, (advice, witness) in roles.items():
        if witness is None:
            witness = protocol.encode(role_view(v, (), advice, ctx.n, ctx.k), EMPTY_RANDOMNESS)
        messages.append((v, witness))
    return messages


def charlie_decide(
    supp_x: tuple[int, ...],
    supp_y: tuple[int, ...],
    msgs_a: list[tuple[int, Bits]],
    msgs_b: list[tuple[int, Bits]],
    ctx: ReductionContext,
    protocol: SketchProtocol,
) -> tuple[bool, list[tuple[int, Bits]]]:
    """Assemble every sketch, check it as ``execute`` does, and feed it to the referee.

    Returns (yes iff the referee says connected, the assembled messages).
    """
    assembled = sorted(msgs_a + msgs_b + charlie_messages(supp_x, supp_y, ctx, protocol))
    for node, bits in assembled:
        check_message(protocol, node, bits)
    decision = protocol.decode(tuple(assembled), EMPTY_RANDOMNESS)
    return decision is Decision.CONNECTED, assembled


def simulate(
    instance: OverlapInstance, ctx: ReductionContext, protocol: SketchProtocol
) -> tuple[bool, list[tuple[int, Bits]]]:
    """Full three-party run: returns (answer, every message the referee sees)."""
    msgs_a = alice_messages(instance.x, ctx, protocol)
    msgs_b = bob_messages(instance.y, ctx, protocol)
    return charlie_decide(instance.x.support, instance.y.support, msgs_a, msgs_b, ctx, protocol)


def build_compatible_graph(
    instance: OverlapInstance, ctx: ReductionContext
) -> tuple[MultiGraph, dict[int, Optional[Advice]]]:
    """The family member determined by the instance through the stored pairs."""
    roles = _roles(instance.x.support, instance.y.support, ctx)
    restrictions = {v: advice for v, (advice, _) in roles.items() if advice is not Advice.SIGMA}
    (sigma_node,) = roles.keys() - restrictions.keys()
    w_neighbors: dict[int, frozenset[int]] = {}
    for vector, alice in ((instance.x, True), (instance.y, False)):
        for i in vector.support:
            v = ctx.node_of(i)
            w_neighbors[v] = w_neighbors.get(v, frozenset()).union(_pair_ends(ctx, vector, i, alice))

    spec = LBGraphSpec(
        n=ctx.n,
        k=ctx.k,
        sigma=sigma_node,
        a_side=ctx.a_side,
        b_side=ctx.b_side,
        restrictions=restrictions,
        w_neighbors=w_neighbors,
    )
    return build_lb_graph(spec)


def fidelity_mismatches(
    instance: OverlapInstance, ctx: ReductionContext, protocol: SketchProtocol
) -> list[int]:
    """Node ids whose simulated message differs from the honest execution."""
    _, assembled = simulate(instance, ctx, protocol)
    graph, advice = build_compatible_graph(instance, ctx)
    return mismatched_nodes(assembled, execute(protocol, graph, advice).messages)


def mismatched_nodes(
    assembled: Sequence[tuple[int, Bits]], honest: Sequence[tuple[int, Bits]]
) -> list[int]:
    """Node ids where two message lists differ.

    Messages are compared position by position, ids included; a node that one
    list has and the other lacks counts as a mismatch.
    """
    return [
        real_node if node is None else node
        for (node, sim_bits), (real_node, real_bits) in zip_longest(
            assembled, honest, fillvalue=(None, None)
        )
        if node != real_node or sim_bits != real_bits
    ]


def verify_fidelity(
    instance: OverlapInstance, ctx: ReductionContext, protocol: SketchProtocol
) -> bool:
    """True iff the referee's simulated input is bit-identical to the honest one."""
    return not fidelity_mismatches(instance, ctx, protocol)


def alice_bob_bits(
    msgs_a: list[tuple[int, Bits]], msgs_b: list[tuple[int, Bits]]
) -> int:
    """Total bits the two wiring parties send."""
    return sum(len(bits) for _, bits in msgs_a) + sum(len(bits) for _, bits in msgs_b)
