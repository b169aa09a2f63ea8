"""Execution model for one-shot distributed graph sketching.

Every node of an undirected multigraph observes its 1-hop neighborhood, emits a
single message, and a referee decides k-edge connectivity from the sorted
message list alone.  A message is a packed ``Bits``, bytes plus a bit length;
its '0'/'1' text appears only in written reports.  Protocols are pluggable
(encoder, decoder) pairs; execution is a pure function of (protocol, graph,
advice, shared randomness).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from hashlib import blake2b
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np


class UnknownNode(KeyError):
    """Node id outside 1..n."""


class EncodingOverflow(ValueError):
    """A node emitted more bits than the protocol's budget."""


class Advice(Enum):
    """Role knowledge revealed to a node on top of its neighbor list."""

    SIGMA = "sigma"
    A_RESTRICTED = "a_restricted"
    B_RESTRICTED = "b_restricted"


class Decision(Enum):
    CONNECTED = "connected"
    NOT_CONNECTED = "not_connected"


#: Characters of a refused message text that its error shows.
_SHOWN_BITS = 32


class Bits(tuple):
    """A message: bytes, most significant bit first and zero-padded to a whole byte, plus a bit length.

    A ``Bits`` is the immutable pair ``(data, length)``, so equality, hashing
    and ordering are tuple's, and they agree with those of the '0'/'1' text:
    zero padding makes equal texts pack to equal bytes, and comparing the
    bytes, then the lengths, orders texts lexicographically with a proper
    prefix first.  ``len()`` is the bit length; ``str()`` and ``repr()`` are
    the text's.  The constructor trusts its arguments; ``check_bits`` checks
    the byte count and the padding.
    """

    __slots__ = ()

    def __new__(cls, data: bytes, length: int) -> Bits:
        return tuple.__new__(cls, (data, length))

    @classmethod
    def from_int(cls, value: int, length: int) -> Bits:
        """The ``length`` bits of ``value`` (0 <= value < 2**length), most significant first."""
        shared = _SHORT.get((value, length))
        if shared is not None:
            return shared
        pad = -length % 8
        return cls((value << pad).to_bytes((length + pad) // 8, "big"), length)

    @classmethod
    def from_str(cls, text: str) -> Bits:
        """Parse '0'/'1' text, most significant bit first; ValueError names the first other character."""
        if not isinstance(text, str):
            raise ValueError(f"not a bit string: got {type(text).__name__}")
        # Two count() scans run several times faster than strip("01"), which
        # looks up every character in its strip set; int(text, 2) alone would
        # also accept '_', '+' and surrounding blanks.
        if text.count("0") + text.count("1") != len(text):
            bad = next(i for i, c in enumerate(text) if c not in "01")
            shown = text[:_SHOWN_BITS] + ("..." if len(text) > _SHOWN_BITS else "")
            raise ValueError(
                f"not a bit string: {text[bad]!r} at index {bad} of {len(text)} characters, "
                f"starting {shown!r}"
            )
        return cls.from_int(int(text or "0", 2), len(text))

    @property
    def data(self) -> bytes:
        return self[0]

    def __len__(self) -> int:
        return self[1]

    def __str__(self) -> str:
        data, length = self
        # The leading 1 byte keeps the leading zeros through bin().
        return bin(int.from_bytes(b"\x01" + data, "big"))[3 : 3 + length]

    def __repr__(self) -> str:
        return repr(str(self))

    def __getnewargs__(self) -> tuple[bytes, int]:
        # copy and pickle rebuild through __new__(cls, data, length).
        return tuple(self)


#: One shared ``Bits`` per value of every length up to 8, so that a short
#: message costs a dict lookup to build.
_SHORT: dict[tuple[int, int], Bits] = {}
_SHORT.update(
    ((value, length), Bits.from_int(value, length)) for length in range(9) for value in range(1 << length)
)
#: The identities of ``_SHORT``'s objects, which ``check_message`` takes as
#: checked: ``_SHORT`` keeps them alive, so no other object has their ids, and
#: a ``Bits`` is immutable.
_SHORT_IDS = frozenset(map(id, _SHORT.values()))


def check_bits(bits: Bits) -> Bits:
    """Return ``bits`` if it is a well-formed ``Bits``; raise ValueError otherwise.

    Well-formed: ``bytes`` data of exactly ceil(length / 8) bytes whose
    padding bits are zero, and a non-negative ``int`` length.
    """
    if not isinstance(bits, Bits):
        raise ValueError(f"not a bit string: got {type(bits).__name__}")
    data, length = bits
    if type(data) is not bytes or type(length) is not int or length < 0:
        raise ValueError(f"not a bit string: data {type(data).__name__}, length {length!r}")
    if len(data) != (length + 7) // 8:
        raise ValueError(f"not a bit string: {len(data)} bytes for {length} bits")
    if length % 8 and data[-1] & (0xFF >> length % 8):
        raise ValueError(f"not a bit string: nonzero padding after {length} bits")
    return bits


_NO_NEIGHBORS: dict[int, int] = {}


class MultiGraph:
    """Undirected multigraph on node ids 1..n with positive edge multiplicities.

    No self-loops.  Edge access is symmetric: ``multiplicity(u, v)`` equals
    ``multiplicity(v, u)``.  Adjacency is kept only for nodes with an edge, so
    a graph costs memory in its edges, not in n.
    """

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]] = ()):
        if n < 1:
            raise ValueError(f"node count must be positive, got {n}")
        self.n = n
        # Written through ``[]``, which adds a node's row at its first edge;
        # read through ``get``, which adds nothing.
        self._adj: defaultdict[int, dict[int, int]] = defaultdict(dict)
        for u, v, m in edges:
            self.add_edge(u, v, m)

    def _check_node(self, u: int) -> None:
        if not (1 <= u <= self.n):
            raise UnknownNode(u)

    def _check_edge(self, u: int, v: int, mult: int) -> None:
        """Raise ``UnknownNode`` for an end outside 1..n, u before v, else ValueError for a self-loop or mult < 1."""
        if not 1 <= u <= self.n:
            raise UnknownNode(u)
        if not 1 <= v <= self.n:
            raise UnknownNode(v)
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if mult < 1:
            raise ValueError(f"multiplicity must be >= 1, got {mult}")

    def add_edge(self, u: int, v: int, mult: int = 1) -> None:
        self._check_edge(u, v, mult)
        row_u, row_v = self._adj[u], self._adj[v]
        row_u[v] = row_u.get(v, 0) + mult
        row_v[u] = row_v.get(u, 0) + mult

    def add_row(self, u: int, row: Mapping[int, int]) -> None:
        """Add an edge of multiplicity ``row[v]`` between ``u`` and each ``v`` in ``row``.

        Refuses what ``add_edge`` refuses, for ``u`` and then entry by entry
        in ``row``'s order, before it writes anything.  One call per row
        saves the graph builders a method call and a row lookup per edge.
        """
        n = self.n
        if not 1 <= u <= n:
            raise UnknownNode(u)
        for v, mult in row.items():
            if not (1 <= v <= n and v != u and mult >= 1):
                self._check_edge(u, v, mult)
        if not row:
            return
        adj = self._adj
        row_u = adj[u]
        for v, mult in row.items():
            row_v = adj[v]
            # Rows are symmetric, so one read gives both ends' multiplicity.
            row_u[v] = row_v[u] = row_v.get(u, 0) + mult

    def multiplicity(self, u: int, v: int) -> int:
        self._check_node(u)
        self._check_node(v)
        return self._adj.get(u, _NO_NEIGHBORS).get(v, 0)

    def neighborhood(self, node: int) -> dict[int, int]:
        """Neighbor multiset of ``node`` as {neighbor: multiplicity}, ascending ids."""
        self._check_node(node)
        adj = self._adj.get(node, _NO_NEIGHBORS)
        return {v: adj[v] for v in sorted(adj)}

    def rows(self) -> dict[int, dict[int, int]]:
        """A copy of every node's {neighbor: multiplicity} row, nodes 1..n ascending, an isolated node's empty.

        Unlike ``neighborhood``, a row's entries are not sorted: they keep the
        order the edges were written in.
        """
        get = self._adj.get
        return {v: get(v, _NO_NEIGHBORS).copy() for v in range(1, self.n + 1)}

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """All edges as (u, v, mult) with u < v, ascending."""
        for u in sorted(self._adj):
            adj = self._adj[u]
            for v in sorted(w for w in adj if w > u):
                yield u, v, adj[v]

    def edge_slot_count(self) -> int:
        return sum(map(len, self._adj.values())) // 2

    def edge_node_count(self) -> int:
        """How many nodes have at least one edge."""
        return len(self._adj)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, edges={self.edge_slot_count()})"


# The bulk builders (``lbgraph.role_view``, ``setfam.message_partitions`` and
# the parties in ``reduction``) and the per-op ``node_view`` build views as
# ``tuple.__new__(NodeView, (...))``: the ``NamedTuple``'s own ``__new__`` is
# Python code that costs about twice as much, one set-family search builds
# hundreds of thousands of views, and every ``execute`` builds one per node.
# That call skips the arity check, which
# ``tests/test_source.py::test_node_view_builders_pass_every_field`` makes up
# for: each such call must pass a tuple of one element per field.
class NodeView(NamedTuple):
    """Everything a node knows when it encodes: its id, 1-hop multiset, advice, (n, k)."""

    id: int
    neighbors: tuple[tuple[int, int], ...]  # (neighbor id, multiplicity), ascending
    advice: Optional[Advice]
    n: int
    k: int


def node_view(graph: MultiGraph, node: int, advice: Optional[Advice], k: int) -> NodeView:
    """``node``'s view in ``graph``: its (neighbor, multiplicity) entries in ascending id order."""
    n = graph.n
    if not 1 <= node <= n:
        raise UnknownNode(node)
    return tuple.__new__(NodeView, (node, tuple(sorted(graph._adj.get(node, _NO_NEIGHBORS).items())), advice, n, k))


class SharedRandomness:
    """Seed-addressed shared pseudorandom source.

    All parties holding the same seed derive identical generators for the same
    labels.  Deterministic protocols receive the empty source (seed ``None``)
    and must not draw from it.
    """

    __slots__ = ("seed",)

    def __init__(self, seed: Optional[int] = None):
        self.seed = seed

    @property
    def is_empty(self) -> bool:
        return self.seed is None

    def generator(self, *labels) -> np.random.Generator:
        if self.is_empty:
            raise ValueError("empty randomness source has no streams")
        tag = blake2b(repr(labels).encode(), digest_size=8).digest()
        key = int.from_bytes(tag, "big")
        return np.random.default_rng(np.random.SeedSequence(entropy=self.seed, spawn_key=(key,)))

    def __repr__(self) -> str:
        return f"SharedRandomness(seed={self.seed})"


EMPTY_RANDOMNESS = SharedRandomness(None)


@dataclass(frozen=True)
class SketchProtocol:
    """A one-shot sketching algorithm: per-node encoder plus referee decoder.

    ``encode`` must be a pure function of (view, randomness) and stay within
    ``max_bits``, which ``check_message`` enforces.  ``decode`` sees only the
    sorted (id, message) list and the shared randomness, never the graph.
    ``k`` is the connectivity threshold the decoder answers for.  A
    deterministic protocol never draws from its randomness, so it runs on
    ``EMPTY_RANDOMNESS``; a randomized one is refused at its first draw from
    that source, which raises ValueError.
    """

    name: str
    k: int
    max_bits: int
    encode: Callable[[NodeView, SharedRandomness], Bits]
    decode: Callable[[Sequence[tuple[int, Bits]], SharedRandomness], Decision]


@dataclass(frozen=True)
class Transcript:
    """One execution: per-node messages sorted by id, plus the referee decision."""

    messages: tuple[tuple[int, Bits], ...]
    decision: Decision


def check_message(protocol: SketchProtocol, node: int, bits: Bits) -> Bits:
    """Return ``bits`` if it is a well-formed message within the protocol's budget.

    Raises ValueError (from ``check_bits``) or ``EncodingOverflow``; every
    path that hands messages to a referee checks them here.  A message that is
    one of ``_SHORT``'s shared objects is well-formed by construction, so only
    its length is read; every other message goes through ``check_bits``.
    """
    length = bits[1] if id(bits) in _SHORT_IDS else check_bits(bits)[1]
    if length > protocol.max_bits:
        raise EncodingOverflow(f"node {node} emitted {length} bits, budget {protocol.max_bits}")
    return bits


def execute(
    protocol: SketchProtocol,
    graph: MultiGraph,
    advice_map: Optional[Mapping[int, Optional[Advice]]] = None,
    randomness: Optional[SharedRandomness] = None,
) -> Transcript:
    """Run one round of the sketching model and return the transcript.

    Every node encodes its own view, in id order; the referee decodes the
    sorted message list.  Re-running with identical inputs yields a
    byte-identical transcript.
    """
    randomness = randomness if randomness is not None else EMPTY_RANDOMNESS
    advice_map = advice_map or {}

    encode, advice_of, k = protocol.encode, advice_map.get, protocol.k
    messages = tuple([
        (node, check_message(protocol, node, encode(node_view(graph, node, advice_of(node), k), randomness)))
        for node in range(1, graph.n + 1)
    ])
    return Transcript(messages=messages, decision=protocol.decode(messages, randomness))


def save_graph(graph: MultiGraph, path) -> None:
    """Write the text format: header ``n <count>``, then ``u v m`` lines, u < v ascending."""
    lines = [f"n {graph.n}"]
    lines.extend(f"{u} {v} {m}" for u, v, m in graph.edges())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def canonical_int(token: str) -> Optional[int]:
    """The int that ``str`` writes as ``token``, else None: ``int`` alone also reads '01', '+2' and '1_0'."""
    try:
        value = int(token)
    except ValueError:
        return None
    return value if str(value) == token else None


def load_graph(path) -> MultiGraph:
    """Read the ``save_graph`` format; a malformed file raises ValueError or UnknownNode."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split() if lines else []
    n = canonical_int(header[1]) if len(header) == 2 and header[0] == "n" else None
    if n is None:
        raise ValueError(f"graph file must start with a 'n <count>' header, got {' '.join(header)!r}")
    graph = MultiGraph(n)
    prev = None
    for ln in lines[1:]:
        parts = [canonical_int(token) for token in ln.split()]
        if len(parts) != 3 or None in parts:
            raise ValueError(f"malformed edge line: {ln!r}")
        u, v, m = parts
        if not u < v:
            raise ValueError(f"edge line must have u < v: {ln!r}")
        if prev is not None and (u, v) <= prev:
            raise ValueError(f"edge lines must be strictly ascending: {ln!r}")
        prev = (u, v)
        graph.add_edge(u, v, m)
    return graph
