"""Candidate neighborhood families and message partitions.

Given a deterministic protocol, each candidate W-neighborhood of a V-node
induces a message in each of the node's possible roles, the members of
``model.Advice``, encoded from a view over ``lbgraph.role_entries``.  The
roles are data: ``lbgraph.role_inputs`` gives a neighborhood's input to each
role under a split, and the search loops over ``Advice`` without naming a
role.  Each role gives a map from input to message, kept as each input's rank
among the role's distinct messages; neighborhoods whose messages agree in
every role form a common block and are indistinguishable to the referee.  A
separated pair inside such a block pins the node: S0 forces the graph
disconnected below k (C0), S1 forces it k-edge connected (C1), yet the node's
messages cannot tell them apart.  Which condition a member forces, and so
which protocols the chain cannot pin, is ``lbgraph``'s rule, stated in its
module docstring and asked through ``lbgraph.forced_condition``.

Splits of W are sampled once (``lbgraph.check_sizes`` vets (n, k)), each
member is classified once per split, and the role entries of every distinct
input of each role are built once, since they do not depend on the node.
Blocks and pairs are member positions in canonical (sorted) order.  Each node
encodes each role's distinct views once across trials, with
``EMPTY_RANDOMNESS``, so a randomized protocol is refused at its first
encode, before any record is made.
Only the winning trial's records are re-verified from scratch, by
``verify_record``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .lbgraph import Condition, Member, check_sizes, forced_condition, layout, role_entries, role_inputs, role_view
from .model import Advice, Bits, EMPTY_RANDOMNESS, NodeView, SketchProtocol


class NoGoodPartition(RuntimeError):
    """No sampled partition produced a single node with an indistinguishable pair."""


class BrokenPairRecord(RuntimeError):
    """A separated pair failed a property its construction should guarantee."""


@dataclass(frozen=True)
class SetFamily:
    """Distinct d-subsets of a ground set W, each in ascending ids: the candidate neighborhoods."""

    ground: tuple[int, ...]
    d: int
    members: tuple[Member, ...]

    def to_json_obj(self) -> dict:
        return {
            "ground": list(self.ground),
            "d": self.d,
            "members": [list(s) for s in self.members],
        }


def complete_family(w_ids: Iterable[int], d: int) -> SetFamily:
    """All d-subsets of W."""
    ground = tuple(sorted(w_ids))
    members = tuple(itertools.combinations(ground, d))
    return SetFamily(ground=ground, d=d, members=members)


def random_family(w_ids: Iterable[int], d: int, size: int, seed: int) -> SetFamily:
    """``size`` distinct random d-subsets of W."""
    ground = tuple(sorted(w_ids))
    if not 1 <= size <= math.comb(len(ground), d):
        raise ValueError(f"size {size} outside 1..{math.comb(len(ground), d)}, the d-subsets of W")
    rng = np.random.default_rng(seed)
    kept: set[Member] = set()
    while len(kept) < size:
        kept.add(tuple(sorted(int(x) for x in rng.choice(ground, size=d, replace=False))))
    return SetFamily(ground=ground, d=d, members=tuple(sorted(kept)))


def neighborhood_family(
    w_ids: Iterable[int], k: int, size: Optional[int] = None, seed: int = 0
) -> SetFamily:
    """Candidate sigma neighborhoods, the (2k-1)-subsets of W.

    ``size`` random ones if given, else all of them, refused above 4,096.
    """
    ground, d = tuple(w_ids), 2 * k - 1
    if size is not None:
        return random_family(ground, d, size, seed)
    if math.comb(len(ground), d) > 4096:
        raise ValueError(f"over 4096 {d}-subsets of W; sample a family with --family-size")
    return complete_family(ground, d)


class RoleCodes(NamedTuple):
    """One role's messages on its inputs: the distinct messages in ``Bits`` order, and each input's rank."""

    alphabet: tuple[Bits, ...]
    codes: np.ndarray  # int64, one per input, in input order

    def message(self, i: int) -> Bits:
        return self.alphabet[self.codes[i]]


Entries = tuple[tuple[int, int], ...]  # a view's neighbor entries, ``lbgraph.role_entries``


def message_partitions(
    protocol: SketchProtocol, node: int, entries: Sequence[Sequence[Entries]], n: int, k: int
) -> tuple[RoleCodes, ...]:
    """The node's rank-coded message on every input of each role, one ``RoleCodes`` per ``Advice``.

    ``entries`` holds one list per role, in ``Advice`` order, of its inputs'
    neighbor entries.  They do not depend on the node, so they are built once
    for all nodes; here each is only wrapped in the node's ``NodeView`` with
    its role's advice and encoded.  The inputs passed in are the distinct ones
    of every split under consideration, so one call serves all of a node's
    trials and encodes each distinct view once.  Codes rank the distinct
    messages in ``Bits`` order, so comparing codes compares messages.
    """
    encode = protocol.encode

    def coded(inputs: Sequence[Entries], advice: Advice) -> RoleCodes:
        messages = [
            encode(tuple.__new__(NodeView, (node, entries, advice, n, k)), EMPTY_RANDOMNESS) for entries in inputs
        ]
        alphabet = sorted(set(messages))
        rank = {bits: code for code, bits in enumerate(alphabet)}
        return RoleCodes(tuple(alphabet), np.fromiter(map(rank.__getitem__, messages), np.int64, len(messages)))

    return tuple(coded(inputs, advice) for inputs, advice in zip(entries, Advice, strict=True))


def common_block(roles: Sequence[RoleCodes], indices: Sequence[np.ndarray]) -> np.ndarray:
    """Positions, ascending, of the largest set of members on which every role's message agrees.

    Member i is lifted to its message tuple through each role's code of its
    input, ``role.codes[index[i]]`` for each role and its index array.  The
    codes are folded into one int64 in mixed radix, the first role most
    significant, so that code order is the tuple's ``Bits`` order; members
    are grouped by it with ``np.unique``, which allocates per member rather
    than per possible tuple, and the largest group wins, ties broken by the
    lexicographically smallest tuple.
    Pigeonhole floor: with the three roles of L-bit messages, the result has
    at least |S| / 2^(3L) members.
    """
    widths = math.prod(len(role.alphabet) for role in roles)
    if widths > np.iinfo(np.int64).max:
        raise ValueError(f"{widths} message tuples do not fit in int64 codes")
    joined = np.zeros(len(indices[0]), np.int64)
    for role, index in zip(roles, indices, strict=True):
        joined *= len(role.alphabet)
        joined += role.codes[index]
    values, counts = np.unique(joined, return_counts=True)
    best = values[np.argmax(counts)]  # the first largest group: the smallest tuple among them
    return np.flatnonzero(joined == best)


def find_separated_pair(block: Iterable[int], classes: Sequence[Optional[Condition]]) -> Optional[tuple[int, int]]:
    """The block's first position whose member forces C0 and its first forcing C1, if both exist.

    ``classes[i]`` is ``lbgraph.forced_condition`` of member i; positions
    ascend in canonical order.  A block whose every candidate for S0 lies
    wholly in A pins nothing: None.
    """
    first: dict[Optional[Condition], int] = {}
    for i in block:
        first.setdefault(classes[i], i)
        if Condition.C0 in first and Condition.C1 in first:
            return first[Condition.C0], first[Condition.C1]
    return None


@dataclass(frozen=True)
class SeparatedPairRecord:
    """An indistinguishable separated pair for one node, with the witness message of each role.

    ``witnesses`` holds, in ``Advice`` order, the message both members give
    in each role.
    """

    node: int
    s0: Member
    s1: Member
    witnesses: tuple[Bits, Bits, Bits]


def verify_record(
    record: SeparatedPairRecord,
    protocol: SketchProtocol,
    a_side: frozenset[int],
    b_side: frozenset[int],
    n: int,
    k: int,
) -> bool:
    """Recheck the pair's shape, then re-encode every witness through ``protocol.encode``.

    Nothing the search computed is trusted: not its splits' classes, its
    role entries or its message codes.  A protocol's own memo, such as
    ``toy2``'s role-hash cache, is part of its encoder; that cache is pinned
    against ``hash_bits`` by ``tests/test_model.py::test_toy2_matches_hash_bits``.
    """
    s0, s1 = set(record.s0), set(record.s1)
    forced = (forced_condition(s0, a_side, b_side, k), forced_condition(s1, a_side, b_side, k))
    return forced == (Condition.C0, Condition.C1) and all(
        protocol.encode(role_view(record.node, nbrs, advice, n, k), EMPTY_RANDOMNESS) == witness
        for member in (s0, s1)
        for advice, nbrs, witness in zip(Advice, role_inputs(member, a_side, b_side), record.witnesses, strict=True)
    )


@dataclass
class PartitionContext:
    """A chosen W-partition together with every node's indistinguishable pair."""

    a_side: frozenset[int]
    b_side: frozenset[int]
    family: SetFamily
    good: dict[int, SeparatedPairRecord] = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "A": sorted(self.a_side),
            "B": sorted(self.b_side),
            "family": self.family.to_json_obj(),
            "records": {
                str(node): {
                    "S0": list(rec.s0),
                    "S1": list(rec.s1),
                    "witness": dict(zip(("sigma", "a", "b"), map(str, rec.witnesses))),  # Advice order
                }
                for node, rec in sorted(self.good.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)


def _sample_split(
    w_ids: Sequence[int], k: int, seed: int, trial: int
) -> tuple[frozenset[int], frozenset[int]]:
    """One trial's uniform W-split, resampled until both sides reach size k."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
    for _ in range(1000):
        mask = rng.random(len(w_ids)) < 0.5
        a_side = frozenset(w for w, pick in zip(w_ids, mask) if pick)
        b_side = frozenset(w_ids) - a_side
        if len(a_side) >= k and len(b_side) >= k:
            return a_side, b_side
    raise ValueError("could not sample a partition with both sides of size >= k")


def choose_partition(
    protocol: SketchProtocol,
    family: SetFamily,
    n: int,
    k: int,
    trials: int,
    seed: int,
) -> PartitionContext:
    """Sample W-partitions and keep the one giving the most pinned nodes.

    V and W are the ``lbgraph.layout`` ids of an n-node family member.  Each
    trial assigns W-members to A or B uniformly (resampling until both sides
    reach size k).  All trials' splits, every member's ``role_inputs`` under
    them and the role entries of each role's distinct inputs are fixed
    first, with each trial's member -> input index array per role, and each
    member, in sorted order, is classified once per trial; then each node
    encodes each role's distinct views once across all trials, and per trial
    records an indistinguishable separated pair wherever the common block
    contains both kinds.  The first trial with the most pinned nodes wins,
    and each of its records is re-verified from scratch; a failure raises
    BrokenPairRecord.  Trial seeds are derived by counter, so the result is
    a pure function of the inputs.
    ``family`` must hold distinct (2k-1)-subsets of W, the candidate sigma
    neighborhoods, and at least one of them, and ``trials`` must be
    positive, else ValueError.
    """
    check_sizes(n, k)
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    v_ids, w_ids, _, _ = layout(n)
    members = sorted(family.members)  # ascending positions are canonical order
    if not members:
        raise ValueError("the family is empty: no candidate sigma neighborhood")
    if any(len(member) != 2 * k - 1 for member in members):
        raise ValueError(f"family members must be sigma neighborhoods of size 2k-1 = {2 * k - 1}")
    w_set = set(w_ids)
    outside = next((member for member in members if not w_set.issuperset(member)), None)
    if outside is not None:
        raise ValueError(f"family member {outside} is not a subset of W = {w_ids[0]}..{w_ids[-1]}")
    if len(set(members)) != len(members):
        raise ValueError("family members must be distinct")

    splits = [_sample_split(w_ids, k, seed, trial) for trial in range(trials)]
    # inputs[t][r]: each member's input to role r under trial t's split.
    inputs = [tuple(zip(*(role_inputs(member, *split) for member in members))) for split in splits]
    keys = [sorted(set().union(*column)) for column in zip(*inputs)]
    ranks = [{key: i for i, key in enumerate(role_keys)} for role_keys in keys]
    indices = [
        [np.array([rank[key] for key in column], dtype=np.int64) for rank, column in zip(ranks, trial)]
        for trial in inputs
    ]
    entries = [[role_entries(key, advice, n, k) for key in role_keys] for role_keys, advice in zip(keys, Advice)]
    # classes[t][i]: the condition member i forces under trial t's split.
    classes = [[forced_condition(member, *split, k) for member in members] for split in splits]
    goods: list[dict[int, SeparatedPairRecord]] = [{} for _ in splits]
    for node in v_ids:
        roles = message_partitions(protocol, node, entries, n, k)
        for trial_indices, trial_classes, good in zip(indices, classes, goods):
            pair = find_separated_pair(common_block(roles, trial_indices), trial_classes)
            if pair is None:
                continue
            i, j = pair
            witnesses = tuple(role.message(index[i]) for role, index in zip(roles, trial_indices))
            good[node] = SeparatedPairRecord(node, members[i], members[j], witnesses)

    if not any(goods):
        raise NoGoodPartition(
            f"no node acquired an indistinguishable pair in {trials} trials"
        )
    best = max(range(trials), key=lambda trial: len(goods[trial]))  # first of the largest
    a_side, b_side = splits[best]
    for node, record in goods[best].items():
        if not verify_record(record, protocol, a_side, b_side, n, k):
            raise BrokenPairRecord(f"record of node {node} fails re-verification: {record}")
    return PartitionContext(a_side=a_side, b_side=b_side, family=family, good=goods[best])
