"""Three-party simulation of a sketching protocol on the hard graph family.

A valid unique-overlap instance is translated into a member of the family:
Alice wires the A-side of the partition according to her vector, Bob the
B-side, and Charlie produces sketches for the hubs and every V-node without
ever reading a vector entry.  One role map read off the two supports gives
each V-node its advice and, at a support host, its pair record's witness;
Charlie wires the hubs by ``lbgraph.hub_of`` and sends the other V-nodes'
messages, and ``build_compatible_graph`` takes its roles from the same map.
The referee's decision on the assembled messages answers the instance, and
the assembly is bit-identical to the honest execution: ``check_instance`` is
the one run that checks both, for every caller.

What does not depend on the instance is computed once, in the context:
Charlie's message for each V-node outside both supports (A-restricted, no
W-edges, encoded by ``build_context``), and for each wiring party the W-ends
of every coordinate's pair edges under either bit and each of its W-nodes'
view entries other than those pair edges.  A party's W-node views are then
assembled from these pieces, with no graph built.  ``build_compatible_graph``
and ``execute`` read none of them, so ``check_instance`` checks the
pre-computed pieces on every instance it runs.  Building a context checks
(m, s) with ``overlap.check_parameters``; its JSON is a report, written and
never read back.

A context needs pinned nodes, so the run cannot refute a protocol whose
restricted-role messages carry the bit [|S∩A| >= k] (``lbgraph``'s docstring
says why): ``build_context`` finds no pinned node for ``degk``, though its
referee is wrong on every C0 member (``test_threshold_bit_pins_no_node``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import zip_longest
from operator import attrgetter
from typing import NamedTuple, Optional

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
)
from .overlap import OverlapInstance, TernaryVector, check_parameters, check_support, shared_index
from .setfam import (
    Entries,
    NoGoodPartition,
    PartitionContext,
    SeparatedPairRecord,
    SetFamily,
    WITNESS_FIELDS,
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


class PartyWiring(NamedTuple):
    """What one wiring party fixes before it sees its vector.

    ``tails`` maps each W-node of the party's side, ascending, to the entries
    of its view that no instance changes: one edge to each other node of the
    side, then one to the side's hub.  ``ends[i - 1][bit]`` holds the W-ends
    on the side of coordinate i's pair edges when the party's bit at i is
    ``bit``.
    """

    tails: dict[int, Entries]
    ends: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


class ProtocolMismatch(ValueError):
    """A protocol other than the one a context was built for."""


@dataclass
class ReductionContext:
    """Everything the three parties pre-compute before seeing an instance.

    ``fixed_messages`` maps every V-node to its message when it hosts no
    support coordinate: the A-restricted view with no W-edges, encoded by
    the protocol named ``protocol_name``.  ``alice`` and ``bob`` are each
    wiring party's ``PartyWiring``; they follow from ``partition`` and
    ``good_ids`` alone, so they are derived on construction and again on
    every ``dataclasses.replace``.
    """

    m: int
    s: int
    k: int
    n: int
    partition: PartitionContext
    good_ids: tuple[int, ...]  # instance coordinate i lives at node good_ids[i-1]
    protocol_name: str
    fixed_messages: dict[int, Bits] = field(repr=False)
    alice: PartyWiring = field(init=False, repr=False, compare=False)
    bob: PartyWiring = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _, _, u_a, u_b = layout(self.n)
        self.alice = self._wiring(self.a_side, u_a, alice=True)
        self.bob = self._wiring(self.b_side, u_b, alice=False)

    def _wiring(self, side: frozenset[int], hub: int, alice: bool) -> PartyWiring:
        ordered = sorted(side)
        tails = {w: (*((x, 1) for x in ordered if x != w), (hub, 1)) for w in ordered}
        ends = tuple(
            tuple(_pair_ends(self.record_of(i), bit, alice, side) for bit in (0, 1))
            for i in range(1, self.m + 1)
        )
        return PartyWiring(tails, ends)

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
) -> ReductionContext:
    """Choose the partition and pin the first m nodes carrying pairs."""
    check_parameters(m, s)
    if protocol.k != k:
        raise ValueError(f"protocol decides k={protocol.k}, context asked for k={k}")
    n = reduction_size(m)
    try:
        partition = choose_partition(protocol, neighborhood_family(layout(n)[1], k), n, k, trials, seed)
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
        fixed_messages={
            v: protocol.encode(role_view(v, (), Advice.A_RESTRICTED, n, k), EMPTY_RANDOMNESS)
            for v in layout(n)[0]
        },
    )


def _pair_ends(record: SeparatedPairRecord, bit: int, alice: bool, side: frozenset[int]) -> tuple[int, ...]:
    """W-ends on ``side`` of the pair edges one party wires for a coordinate holding ``bit``.

    Alice's bit 0 selects S1 and her bit 1 selects S0; Bob's bits select the
    other way round.
    """
    chosen = record.s1 if (bit == 0) == alice else record.s0
    return tuple(filter(side.__contains__, chosen))


def _check_vectors(ctx: ReductionContext, *vectors) -> None:
    """Raise ``InvalidInstance("support")`` unless each vector's support is an ascending s-subset of 1..m.

    A ``TernaryVector`` of length m checked its support against 1..m when it
    was built, so only the support's size is left; any other vector's support
    is walked in full.  The public entry points that take vectors check them
    here, ``charlie_messages`` walks its bare supports, and ``_party_messages``
    and ``_roles`` trust what their callers checked.
    """
    for vector in vectors:
        if not (isinstance(vector, TernaryVector) and vector.length == ctx.m and len(vector.support) == ctx.s):
            check_support(vector.support, ctx.m, ctx.s)


def _party_messages(
    vector, ctx: ReductionContext, protocol: SketchProtocol, alice: bool
) -> list[tuple[int, Bits]]:
    """Sketches of one side's W-nodes, computed from that party's local wiring.

    The party's graph holds its side's clique, the hub edge for every node of
    the side, and for each coordinate in its support the pair edges into the
    side.  A W-node's view is the V-ends its vector wires to it, ascending,
    then its fixed tail from the context's ``PartyWiring``.  The caller has
    checked the support.
    """
    wiring = ctx.alice if alice else ctx.bob
    wired: dict[int, list[tuple[int, int]]] = {w: [] for w in wiring.tails}
    for i in vector.support:
        v = ctx.node_of(i)
        for w in wiring.ends[i - 1][vector[i]]:
            wired[w].append((v, 1))
    return [
        (w, protocol.encode(NodeView(w, (*sorted(wired[w]), *tail), None, ctx.n, ctx.k), EMPTY_RANDOMNESS))
        for w, tail in wiring.tails.items()
    ]


def alice_messages(
    x, ctx: ReductionContext, protocol: SketchProtocol
) -> list[tuple[int, Bits]]:
    """Sketches of the A-side nodes, computed from Alice's local wiring."""
    _check_vectors(ctx, x)
    return _party_messages(x, ctx, protocol, alice=True)


def bob_messages(
    y, ctx: ReductionContext, protocol: SketchProtocol
) -> list[tuple[int, Bits]]:
    """Mirror of Alice on the B-side."""
    _check_vectors(ctx, y)
    return _party_messages(y, ctx, protocol, alice=False)


def _roles(
    supp_x: tuple[int, ...], supp_y: tuple[int, ...], ctx: ReductionContext
) -> dict[int, tuple[Advice, int, Optional[Bits]]]:
    """Every V-node's advice, its hub and, at a support host, its witness message; ascending ids.

    Read off the supports alone: the shared index's host is sigma, the hosts
    of Bob's other indices are B-restricted, every other V-node A-restricted.
    The hub is ``hub_of(advice)``, looked up once per advice, not per node.
    The caller has checked the supports.
    """
    sigma = shared_index(supp_x, supp_y)
    nodes, records = ctx.good_ids, ctx.partition.good
    roles = dict.fromkeys(layout(ctx.n)[0], (Advice.A_RESTRICTED, hub_of(Advice.A_RESTRICTED, ctx.n), None))
    for advice, support in (
        (Advice.A_RESTRICTED, supp_x),
        (Advice.B_RESTRICTED, supp_y),
        (Advice.SIGMA, (sigma,)),
    ):
        hub, witness = hub_of(advice, ctx.n), attrgetter(WITNESS_FIELDS[advice])
        for i in support:
            v = nodes[i - 1]
            roles[v] = (advice, hub, witness(records[v]))
    return roles


def charlie_messages(
    supp_x: tuple[int, ...],
    supp_y: tuple[int, ...],
    ctx: ReductionContext,
    protocol: SketchProtocol,
) -> list[tuple[int, Bits]]:
    """Sketches for both hubs and every V-node, from supports and witnesses only.

    Only the hubs are encoded: a support host sends its record's witness, and
    every other V-node the context's fixed message.  Those were encoded by
    the context's protocol, so a protocol of another name or k is refused
    with ``ProtocolMismatch``.  Each support must be an ascending s-subset of
    1..m, else ``InvalidInstance("support")``.
    """
    for support in (supp_x, supp_y):
        check_support(support, ctx.m, ctx.s)
    if (protocol.name, protocol.k) != (ctx.protocol_name, ctx.k):
        raise ProtocolMismatch(
            f"protocol {protocol.name!r} with k={protocol.k} on a context built for "
            f"{ctx.protocol_name!r} with k={ctx.k}"
        )
    roles = _roles(supp_x, supp_y, ctx)
    _, _, u_a, u_b = layout(ctx.n)
    attached: dict[int, list[tuple[int, int]]] = {u_a: [], u_b: []}
    for v, (_, hub, _) in roles.items():
        attached[hub].append((v, ctx.k))

    messages = []
    for hub, wiring in ((u_a, ctx.alice), (u_b, ctx.bob)):
        # V ids precede W ids, so the entries come out ascending.
        entries = (*attached[hub], *((w, 1) for w in wiring.tails))
        messages.append((hub, protocol.encode(NodeView(hub, entries, None, ctx.n, ctx.k), EMPTY_RANDOMNESS)))
    fixed = ctx.fixed_messages
    messages.extend((v, fixed[v] if witness is None else witness) for v, (_, _, witness) in roles.items())
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
    _check_vectors(ctx, instance.x, instance.y)
    roles = _roles(instance.x.support, instance.y.support, ctx)
    restrictions = {v: advice for v, (advice, _, _) in roles.items() if advice is not Advice.SIGMA}
    (sigma_node,) = roles.keys() - restrictions.keys()
    nodes, records = ctx.good_ids, ctx.partition.good
    w_neighbors: dict[int, frozenset[int]] = {}
    for vector, alice, side in ((instance.x, True, ctx.a_side), (instance.y, False, ctx.b_side)):
        for i, bit in zip(vector.support, map(int, vector.bits)):
            v = nodes[i - 1]
            ends = _pair_ends(records[v], bit, alice, side)
            w_neighbors[v] = w_neighbors.get(v, frozenset()).union(ends)

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


class CheckedRun(NamedTuple):
    """``simulate``'s verdict and messages, the compatible graph, and the ids where its honest run differs."""

    verdict: bool
    assembled: list[tuple[int, Bits]]
    graph: MultiGraph
    mismatches: list[int]


def check_instance(
    instance: OverlapInstance, ctx: ReductionContext, protocol: SketchProtocol
) -> CheckedRun:
    """Run the three parties on one instance and compare their messages with the honest execution.

    Messages are compared position by position, ids included; a node that one
    list has and the other lacks counts as a mismatch.
    """
    verdict, assembled = simulate(instance, ctx, protocol)
    graph, advice = build_compatible_graph(instance, ctx)
    honest = execute(protocol, graph, advice).messages
    mismatches = [
        real if node is None else node
        for (node, bits), (real, real_bits) in zip_longest(assembled, honest, fillvalue=(None, None))
        if node != real or bits != real_bits
    ]
    return CheckedRun(verdict, assembled, graph, mismatches)


def verify_fidelity(
    instance: OverlapInstance, ctx: ReductionContext, protocol: SketchProtocol
) -> bool:
    """True iff the referee's simulated input is bit-identical to the honest one."""
    return not check_instance(instance, ctx, protocol).mismatches


def alice_bob_bits(
    msgs_a: list[tuple[int, Bits]], msgs_b: list[tuple[int, Bits]]
) -> int:
    """Total bits the two wiring parties send."""
    return sum(len(bits) for _, bits in msgs_a) + sum(len(bits) for _, bits in msgs_b)
