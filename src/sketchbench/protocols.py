"""Reference sketching protocols.

A grab bag of deterministic protocols used to drive the verification
pipelines: the full-information baseline, constant and parity toys, bit
truncation, and a two-bit toy whose role messages depend only on the smallest
hub-range neighbor (so role partitions collapse predictably).
"""

from __future__ import annotations

import functools
from hashlib import blake2b

from .lbgraph import layout
from .mincut import global_min_cut
from .model import Bits, Decision, MultiGraph, NodeView, SketchProtocol, canonical_int


def view_payload(view: NodeView) -> str:
    adv = view.advice.value if view.advice is not None else "none"
    nbrs = ",".join(f"{v}x{m}" for v, m in view.neighbors)
    return f"{view.id}|{adv}|{nbrs}"


def _digest_bits(nbits: int, text: str) -> Bits:
    """The low ``nbits`` bits of the 8-byte blake2b digest of ``text``."""
    digest = blake2b(text.encode(), digest_size=8).digest()
    return Bits.from_int(int.from_bytes(digest, "big") % (1 << nbits), nbits)


def hash_bits(nbits: int, *key) -> Bits:
    """``nbits`` bits hashed from the text ``repr(key)``, ``key`` being the tuple of the other arguments.

    ``toy_two_bit``'s path for views without advice builds this same text
    itself; ``test_toy2_matches_hash_bits`` pins the two together.
    """
    return _digest_bits(nbits, repr(key))


def _parity_decision(messages, _rand) -> Decision:
    """Referee of ``parity``, ``trunc:<bits>`` and ``toy2``: CONNECTED iff the messages hold an even number of ones."""
    # Padding bits are zero, so the one bits of the data bytes, bits[0], are the messages'.
    ones = int.from_bytes(b"".join([bits[0] for _, bits in messages]), "big").bit_count()
    return Decision.CONNECTED if ones % 2 == 0 else Decision.NOT_CONNECTED


def full_information_bits(n: int) -> int:
    """The full-information budget at n nodes: 32 bytes plus 16 per node."""
    return 8 * (32 + 16 * n)


def full_information(n: int, k: int) -> SketchProtocol:
    """Every node ships its whole view; the referee rebuilds the graph exactly.

    Each undirected edge is read off the higher-id endpoint's claim; on a
    genuine execution both endpoints agree, so this reconstructs the input
    graph and the referee recomputes the exact minimum cut.
    """

    def encode(view: NodeView, _rand) -> Bits:
        data = view_payload(view).encode()
        return Bits(data, 8 * len(data))

    def decode(messages, _rand) -> Decision:
        n_nodes = len(messages)
        if n_nodes < 2:
            return Decision.CONNECTED
        graph = MultiGraph(n_nodes)
        for node, (data, length) in messages:
            if length % 8:
                raise ValueError("bit length not a multiple of 8")
            _id, _adv, nbrs = data.decode().split("|")
            if not nbrs:
                continue
            for entry in nbrs.split(","):
                v, m = entry.split("x")
                v, m = int(v), int(m)
                if v < node:
                    graph.add_edge(v, node, m)
        return (
            Decision.CONNECTED
            if global_min_cut(graph).value >= k
            else Decision.NOT_CONNECTED
        )

    return SketchProtocol(
        name="full",
        k=k,
        max_bits=full_information_bits(n),
        encode=encode,
        decode=decode,
    )


def constant(k: int) -> SketchProtocol:
    """Every node emits the single bit 0; the referee always answers connected."""

    def encode(_view, _rand) -> Bits:
        return Bits.from_int(0, 1)

    def decode(_messages, _rand) -> Decision:
        return Decision.CONNECTED

    return SketchProtocol(name="const", k=k, max_bits=1, encode=encode, decode=decode)


def truncation(bits: int, n: int, k: int) -> SketchProtocol:
    """Last ``bits`` bits of the full-information payload, zero-padded to length.

    The tail encodes the view's last entry, that of its largest neighbor.  On
    every lower-bound role view that neighbor is a hub with multiplicity k, so
    up to that entry's length the message is one constant for all of them.

    ``bits`` above ``full_information_bits(n)`` is refused with ValueError:
    a payload within that budget has no bit beyond it, so a longer message
    adds only zero padding.
    """
    limit = full_information_bits(n)
    if bits > limit:
        raise ValueError(f"protocol: trunc:{bits} is longer than the full-information budget, {limit} bits at n={n}")

    mask = (1 << bits) - 1

    def encode(view: NodeView, _rand) -> Bits:
        return Bits.from_int(int.from_bytes(view_payload(view).encode(), "big") & mask, bits)

    return SketchProtocol(name=f"trunc:{bits}", k=k, max_bits=bits, encode=encode, decode=_parity_decision)


def parity(k: int) -> SketchProtocol:
    """One bit: parity of the multiplicity-weighted neighbor id sum."""

    def encode(view: NodeView, _rand) -> Bits:
        return Bits.from_int(sum(v * m for v, m in view.neighbors) & 1, 1)

    return SketchProtocol(name="parity", k=k, max_bits=1, encode=encode, decode=_parity_decision)


def toy_two_bit(k: int) -> SketchProtocol:
    """Two-bit toy: role messages keyed on the smallest W-range neighbor.

    Nodes without advice hash their full view, so hub and clique messages
    track the graph.  Advised nodes hash (id, role, min W-neighbor) only,
    which makes neighborhoods sharing their minimum indistinguishable.

    That triple is the whole input of an advised node's message, so each
    protocol object caches the role hash on (id, advice value, min
    W-neighbor, 0 if none) for as long as the object lives: ``hash_bits``
    runs once per key.  On the hard family's views at one n, where only
    V-nodes are advised, the cache holds at most |V| * 3 * (|W| + 1)
    entries (12,138 at n=256).

    A view without advice hashes the text ``repr(("raw", id, neighbors))``,
    as ``hash_bits(2, "raw", id, neighbors)`` does, but builds it from the
    ``repr`` of each (neighbor, multiplicity) entry, cached per protocol
    object for as long as it lives and keyed on the entry itself, so
    ``repr`` runs once per distinct entry.  Entries are pairs of ints, whose
    text depends only on their value.  On graphs of n nodes the cache holds
    at most n times the distinct multiplicities entries: 2n on the hard
    family's, whose multiplicities are 1 and k.
    """
    role = functools.cache(functools.partial(hash_bits, 2, "role"))
    entry = functools.cache(repr)

    def encode(view: NodeView, _rand) -> Bits:
        node, neighbors, advice, n, _ = view
        if advice is None:
            # The tuple's own repr: entries joined by ", ", one entry keeps a trailing comma.
            body = ", ".join(map(entry, neighbors))
            if len(neighbors) == 1:
                body += ","
            return _digest_bits(2, f"('raw', {node!r}, ({body}))")
        w_ids = layout(n)[1]
        start, stop = w_ids.start, w_ids.stop
        low = 0
        for v, _ in neighbors:
            if start <= v < stop and (not low or v < low):
                low = v
        return role(node, advice._value_, low)

    return SketchProtocol(name="toy2", k=k, max_bits=2, encode=encode, decode=_parity_decision)


#: Sketch protocols by name, built from (n, k); ``trunc:<bits>`` is parsed apart.
PROTOCOLS = {
    "const": lambda n, k: constant(k),
    "full": full_information,
    "parity": lambda n, k: parity(k),
    "toy2": lambda n, k: toy_two_bit(k),
}


def protocol_name(name: str) -> str:
    """``name`` if ``make_protocol`` builds a protocol so named (not 'trunc:03'), else ValueError."""
    if isinstance(name, str):
        prefix, _, bits = name.partition(":")
        if name in PROTOCOLS or (prefix == "trunc" and (canonical_int(bits) or 0) >= 1):
            return name
    raise ValueError(f"protocol: {name!r} is unknown; known: {', '.join(PROTOCOLS)}, trunc:<bits>")


def make_protocol(name: str, n: int, k: int) -> SketchProtocol:
    """Build a named protocol: a key of ``PROTOCOLS``, or trunc:<bits>."""
    if protocol_name(name) in PROTOCOLS:
        return PROTOCOLS[name](n, k)
    return truncation(int(name.partition(":")[2]), n, k)
