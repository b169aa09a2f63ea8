"""Linear connectivity sketches and the k-fold forest-peeling decoder.

Each node sketches its signed edge-incidence vector at several geometric
sampling levels; cell triples (sum, id-weighted sum, fingerprint) live in a
prime field, so sketches of node sets add up to sketches of their boundary.
The referee peels k edge-disjoint spanning forests out of the k independent
sketch stacks and decides k-edge connectivity exactly on the union
certificate.  Peeling runs Borůvka one (stack, round) at a time: it sums that
round's cells per component, subtracts the earlier forests' edges that cross
between components (an edge inside one component cancels), and extracts one
edge per component in a single array pass.  A stack ends at its first round
whose component sketches are zero in every cell.  When no component has a
boundary edge left, every later round is zero too, so the stop changes
nothing; it differs from running every round only when a live boundary's
triple, fingerprint included, vanishes at every level of every repetition of
that round at once, a fingerprint collision of the kind that every 1-sparse
test already risks.

Nothing is tabulated over the n^2 edge slots.  The shared randomness fixes one
64-bit key per sampling configuration and a fingerprint base; only the slots
being summed are hashed, with a SplitMix64 finalizer keyed per configuration.
A slot's depth under a configuration is the deepest sampling level that keeps
it, read off the hash's leading zeros.  One kernel, ``_level_sums``, sums
signed slot updates into cells by owner, for encoding (a node's incidence) and
forest subtraction (each component's crossing earlier-forest edges) alike: one
histogram by (owner, configuration, depth, cell), one suffix sum over depths
and one reduction mod PRIME, with no (configuration, level, slot) mask.
Fingerprint powers are two lookups in split tables, base^lo and base^(hi *
2^h), with about sqrt(n(n - 1)) entries each.  Encode memory is O(configs *
(levels + degree)).

Everything one run's (n, k, delta, seed) fixes is derived once, by ``_run``:
the dimensions, the keys and base, the power tables, and the kernel's
histogram bin offsets and depth-to-level suffix matrix.  Every node's encode
and the decode of a run share that one record.

A message is the node's cells as big-endian 32-bit words in array order,
(stacks, rounds, reps, levels, 3), packed into a ``Bits`` by one ``tobytes``;
no '0'/'1' text is built.  The decoder reads the cells in the message bytes
and never copies a whole transcript.  One pass over the messages, in place,
refuses with a ``DecodeError`` naming the node a message that is not a
``Bits``, has the wrong length or holds a cell outside the field, in any
round.  Each Borůvka round then gathers its own (n, reps, levels, 3) cells,
one contiguous byte range of every message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .mincut import global_min_cut
from .model import Bits, Decision, MultiGraph, NodeView, SharedRandomness, SketchProtocol

#: Field modulus; cell values stay below 2^31 so uint64 products are exact.
PRIME = (1 << 31) - 1

#: Calibrated upper bound on the failure rate of one boundary-edge recovery
#: attempt (one component, one round, all repetitions); see the Monte Carlo
#: checks in the test suite.
SAMPLER_ATTEMPT_FAILURE = 0.15

_CELLS_PER_TRIPLE = 3
_CELL_BITS = 32


class DecodeError(ValueError):
    """Malformed sketch message."""


@dataclass(frozen=True)
class SketchConfig:
    """Derived sketch dimensions for (n, k, delta)."""

    n: int
    stacks: int
    rounds: int
    reps: int
    levels: int

    @classmethod
    def make(cls, n: int, k: int, delta: float) -> "SketchConfig":
        if not 0 < delta < 0.5:
            raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
        if n < 1 or k < 1:
            raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
        if n * (n - 1) >= PRIME:
            # slot_of(n - 1, n, n) = n(n - 1) is the largest slot; _extract_edges
            # recovers slots modulo PRIME, so every slot must lie below it
            # (n <= 46,341).
            raise ValueError(f"n={n}: edge slot n(n-1) = {n * (n - 1)} is not below the field size {PRIME}")
        if (k - 1) * (n - 1) > 1 << 22:
            # A decoder component sums up to (k-1)(n-1) earlier-forest edges; see _level_sums.
            raise ValueError(f"(k-1)(n-1) = {(k - 1) * (n - 1)} exceeds 2^22, the exact float64 sum bound")
        log_n = max(1, math.ceil(math.log2(max(n, 2))))
        return cls(
            n=n,
            stacks=k,
            rounds=log_n + 2,
            reps=max(2, math.ceil(math.log2(1 / delta))),
            levels=2 * log_n + 2,
        )

    @property
    def configs(self) -> int:
        return self.stacks * self.rounds * self.reps

    @property
    def triples(self) -> int:
        return self.configs * self.levels

    @property
    def bits(self) -> int:
        return self.triples * _CELLS_PER_TRIPLE * _CELL_BITS


def budget_bits(n: int, k: int, delta: float) -> int:
    """Exact message length; grows as O(k log^2 n log(1/delta))."""
    return SketchConfig.make(n, k, delta).bits


def slot_of(u: int, v: int, n: int) -> int:
    """Edge slot index of (u, v), u < v, in [1, n^2]."""
    if not 1 <= u < v <= n:
        raise ValueError(f"need 1 <= u < v <= n, got ({u}, {v})")
    return (u - 1) * n + v


def pair_of_slot(slot: int, n: int) -> Optional[tuple[int, int]]:
    u, r = divmod(slot - 1, n)
    u, v = u + 1, r + 1
    if 1 <= u < v <= n:
        return u, v
    return None


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_PRIME = np.uint64(PRIME)


def _slot_hashes(keys: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """uint64 (configs, slots): the SplitMix64 finalizer of each slot offset by each config's key."""
    z = keys[:, None] + slots * _GOLDEN
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _depths(hashes: np.ndarray, levels: int) -> np.ndarray:
    """The deepest sampling level, 0..levels-1, that keeps each hashed slot.

    Level l keeps a slot when the top l bits of its hash are zero, so with
    probability 2^-l; level 0 keeps every slot, and a slot kept at level l is
    kept at every level below.  The depth is the hash's count of leading
    zeros, capped at levels - 1.  It is read off the binary exponent of the
    hash's top 53 bits, which a float64 holds exactly (levels <= 34 < 53).
    """
    exponent = np.frexp((hashes >> np.uint64(11)).astype(np.float64))[1]  # bit length - 11, or 0
    return np.minimum(53 - exponent, levels - 1)


def _geometric(ratio: int, count: int) -> np.ndarray:
    """uint64 ratio^i mod PRIME for i < count, by doubling the filled prefix."""
    out = np.ones(count, dtype=np.uint64)
    filled = 1
    while filled < count:
        take = min(filled, count - filled)
        out[filled : filled + take] = out[:take] * np.uint64(ratio) % PRIME
        ratio = ratio * ratio % PRIME
        filled += take
    out.flags.writeable = False
    return out


def _power_tables(base: int, n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(h, base^lo for lo < 2^h, base^(hi * 2^h) for hi <= n(n-1) >> h), h half the slots' width.

    Every slot s <= n(n - 1) splits as hi * 2^h + lo, so base^s is one entry
    of each table; both hold about sqrt(n(n - 1)) entries.
    """
    largest = n * (n - 1)
    half = (largest.bit_length() + 1) // 2
    return half, _geometric(base, 1 << half), _geometric(pow(base, 1 << half, PRIME), (largest >> half) + 1)


class _Run(NamedTuple):
    """What one (n, k, delta, seed) fixes: the encoder's and the decoder's shared state."""

    cfg: SketchConfig
    keys: np.ndarray  # uint64, one hash key per configuration
    base: int  # the fingerprint base
    powers: tuple[int, np.ndarray, np.ndarray]  # _power_tables(base, n)
    offsets: np.ndarray  # (configs, 3, 1): the first histogram bin of each (config, cell) at depth 0
    suffix: np.ndarray  # float64 (3 levels, 3 levels): row (d, j) adds into column (l, j) for every level l <= d


@lru_cache(maxsize=8)
def _run(n: int, k: int, delta: float, seed: Optional[int]) -> _Run:
    """The run's dimensions, hash keys, fingerprint base and the tables they fix, arrays read-only.

    Slot hashes and fingerprint powers are computed on demand from these, for
    the slots being summed only (see ``_slot_hashes`` and ``_powers``).  An
    invalid argument or the empty source (seed None) raises on every call.
    """
    cfg = SketchConfig.make(n, k, delta)
    if seed is None:
        raise ValueError("sketching needs shared randomness; got the empty source")
    rng = SharedRandomness(seed).generator("agm-keys", n, cfg.stacks, cfg.rounds, cfg.reps, cfg.levels)
    keys = rng.integers(0, 1 << 64, size=cfg.configs, dtype=np.uint64, endpoint=False)
    base = int(rng.integers(2, PRIME))
    offsets = (np.arange(cfg.configs) * (3 * cfg.levels))[:, None, None] + np.arange(3)[:, None]
    suffix = np.kron(np.tril(np.ones((cfg.levels, cfg.levels))), np.eye(3))
    for table in (keys, offsets, suffix):
        table.flags.writeable = False
    return _Run(cfg, keys, base, _power_tables(base, n), offsets, suffix)


def _powers(run: _Run, slots: np.ndarray) -> np.ndarray:
    """base**slot mod PRIME per uint64 slot in 0..n(n-1), from the run's split power tables."""
    half, low, high = run.powers
    return low[slots & np.uint64((1 << half) - 1)] * high[slots >> np.uint64(half)] % PRIME


def _mod(x: np.ndarray) -> np.ndarray:
    """Reduce uint64 x mod PRIME in place; numpy divides by a constant faster than it takes ``%``."""
    x -= x // _PRIME * _PRIME
    return x


#: Histogram rows, one per (owner, config), that ``_level_sums`` turns into
#: level sums per matrix product, so that its temporaries stay below 0.5 MB
#: each (rows of at most 3 * 34 cells).
_ROWS_PER_PRODUCT = 512


def _level_sums(
    run: _Run, keys: np.ndarray, slots: np.ndarray, signed: np.ndarray, owner: int | np.ndarray, owners: int
) -> np.ndarray:
    """uint64 cells (owners, len(keys), levels, 3) of signed slot updates, mod PRIME.

    ``keys`` are the run's keys of the configs summed: all of them, or one
    round's.  Update i adds signed[i] * (1, slots[i], base^slots[i]) to the
    cells of owner[i], or of ``owner`` if it is an int, at every level of each
    config that keeps the slot; ``signed`` holds multiplicities mod PRIME, each
    below PRIME, so it is its own count term.  Each (config, slot) pair gets
    its depth; one ``bincount`` sums the terms by (owner, config, depth, cell),
    and products with the run's suffix matrix, a block of rows at a time, turn
    depths into levels, up to the deepest slot only.  Each block's cells are
    written back over its own histogram rows, read as uint64, so the
    histogram is the only array of the result's size; its bins past the
    deepest slot are 0.0, which reads as 0.  Exact in float64 while no owner
    has more than 2^22 updates, as 2^22 terms below 2^31 sum below 2^53: a
    node has fewer than n, a decoder component at most one per earlier forest
    edge, (k-1)(n-1), which ``SketchConfig.make`` bounds by 2^22.
    """
    configs, levels = len(keys), run.cfg.levels
    terms = np.empty((3, len(slots)), dtype=np.uint64)  # signed * (1, slot, base^slot) mod PRIME
    terms[0] = signed
    np.multiply(slots, signed, out=terms[1])
    np.multiply(_powers(run, slots), signed, out=terms[2])
    _mod(terms[1:])
    depth = _depths(_slot_hashes(keys, slots), levels)
    width = 3 * (int(depth.max(initial=-1)) + 1)  # the cells of levels 0..deepest
    # (configs, 3, slots); a scalar owner shifts only the (configs, 3, 1) offsets.
    bins = depth[:, None, :] * 3 + (run.offsets[:configs] + owner * (configs * levels * 3))
    weights = np.tile(terms.astype(np.float64).ravel(), configs)
    hist = np.bincount(bins.ravel(), weights, minlength=owners * configs * levels * 3).reshape(owners * configs, -1)
    cells, suffix = hist.view(np.uint64), run.suffix[:width, :width]
    for first in range(0, len(hist), _ROWS_PER_PRODUCT):
        rows = slice(first, first + _ROWS_PER_PRODUCT)
        cells[rows, :width] = _mod((hist[rows, :width] @ suffix).astype(np.uint64))
    return cells.reshape(owners, configs, levels, 3)


def _sketch_cells(run: _Run, incident: Sequence[tuple[int, int]]) -> np.ndarray:
    """Cell array (configs, levels, 3) of signed slot updates, one row per config key."""
    slots = np.fromiter((e for e, _ in incident), dtype=np.uint64, count=len(incident))
    signed = np.fromiter((c % PRIME for _, c in incident), dtype=np.uint64, count=len(incident))
    return _level_sums(run, run.keys, slots, signed, 0, 1)[0]


def _incidence(view: NodeView) -> list[tuple[int, int]]:
    """Signed slot updates of a node: +mult below the diagonal, -mult above."""
    out = []
    for v, mult in view.neighbors:
        if view.id < v:
            out.append((slot_of(view.id, v, view.n), mult))
        else:
            out.append((slot_of(v, view.id, view.n), -mult))
    return out


def node_sketch(
    view: NodeView, seeds: SharedRandomness, k: int, delta: float
) -> np.ndarray:
    """Raw cell array of one node's incidence vector, from the run's cached ``_run`` record."""
    run = _run(view.n, k, delta, seeds.seed)
    cfg = run.cfg
    return _sketch_cells(run, _incidence(view)).reshape(cfg.stacks, cfg.rounds, cfg.reps, cfg.levels, 3)


def _cells_to_bits(cells: np.ndarray) -> Bits:
    """One message: every cell as a big-endian uint32, in array order."""
    return Bits(cells.astype(">u4").tobytes(), cells.size * _CELL_BITS)


def _message_rows(messages: Sequence[tuple[int, Bits]], cfg: SketchConfig) -> list[memoryview]:
    """The message bytes of nodes 1..n, in node order, each checked in place.

    A message must be a ``Bits`` of cfg.bits bits held in ``bytes``, and
    every cell must lie below PRIME: one maximum over the message's
    big-endian cells, read from its bytes in place, checks it.
    """
    rows: list[memoryview] = [None] * len(messages)
    for node, bits in messages:
        if not isinstance(bits, Bits):
            raise DecodeError(f"a message must be Bits, got {type(bits).__name__}")
        data, length = bits
        # cfg.bits is a whole number of bytes, so a matching byte count leaves no padding.
        if length != cfg.bits or type(data) is not bytes or len(data) * 8 != cfg.bits:
            raise DecodeError(f"expected {cfg.bits} bits, got {length!r} bits in a {type(data).__name__}")
        if np.frombuffer(data, ">u4").max() >= PRIME:
            raise DecodeError(f"node {node}'s message holds a cell outside the field of size {PRIME}")
        rows[node - 1] = memoryview(data)
    return rows


def agm_encode(view: NodeView, seeds: SharedRandomness, k: int, delta: float) -> Bits:
    """One node's message: k independent spanning-forest sketch stacks."""
    return _cells_to_bits(node_sketch(view, seeds, k, delta))


def _extract_edges(cells: np.ndarray, run: _Run) -> np.ndarray:
    """uint64 slot recovered from each (reps, levels, 3) slice of ``cells``, 0 where none is.

    A slice yields its first 1-sparse triple in row order: a nonzero count c
    whose inverse turns the id sum into the slot of a pair 1 <= u < v <= n, and
    a fingerprint equal to c * base^slot.  Cells lie in [0, PRIME), so every
    nonzero count has an inverse.
    """
    n = run.cfg.n
    flat = cells.reshape(len(cells), -1, 3)
    out = np.zeros(len(cells), dtype=np.uint64)
    where, row = np.nonzero(flat[:, :, 0])  # row-major: by slice, then by row
    if not len(where):  # every count is zero, as at a component with no boundary edge
        return out
    cnt, ids, fp = flat[where, row].T
    # Counts are small signed degrees, so few distinct values need an inverse.
    distinct, which = np.unique(cnt, return_inverse=True)
    inverse = np.array([pow(c, -1, PRIME) for c in distinct.tolist()], dtype=np.uint64)
    slot = ids * inverse[which] % PRIME
    u, v = np.divmod(slot - np.uint64(1), np.uint64(n))  # pair_of_slot, less one on each side
    ok = (slot > 0) & (u < v)
    where, cnt, fp, slot = where[ok], cnt[ok], fp[ok], slot[ok]
    ok = cnt * _powers(run, slot) % PRIME == fp
    found, first = np.unique(where[ok], return_index=True)
    out[found] = slot[ok][first]
    return out


def _component_sketches(
    cells: np.ndarray,
    run: _Run,
    keys: np.ndarray,
    component: np.ndarray,
    earlier: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """uint64 sketches (components, reps, levels, 3) of one round, earlier forests subtracted.

    ``cells`` is the round's big-endian uint32 (n, reps, levels, 3) slice of every node,
    ``keys`` the run's keys of the round's reps configs and ``component[node - 1]``
    the node's label in 0..c-1.  ``earlier`` holds the slots claimed by earlier forests and
    their multiplicities, below PRIME.  A component's sketch is the sum of its
    nodes' cells.  An earlier edge counts only when its ends lie in different
    components: inside one, its +1 at u and -1 at v cancel.  ``_level_sums``
    sums the crossing edges' updates with the components as owners, in its
    histogram's memory, and they are added into the component sums in place:
    a round holds the sums and that histogram.
    """
    n = len(cells)
    order = np.argsort(component, kind="stable")
    starts = np.searchsorted(component[order], np.arange(component.max() + 1))
    if len(starts) == n:  # every node alone, as in round 0: the labels are the node order
        sums = cells.astype(np.uint64)
    else:
        sums = np.add.reduceat(cells[order], starts, axis=0, dtype=np.uint64)
    slots, counts = earlier
    ends = (slots - np.uint64(1)).astype(np.intp)
    cu, cv = component[ends // n], component[ends % n]
    cross = cu != cv
    if cross.any():
        # Taking an edge out adds -count at its u end and +count at its v end
        # (u < v holds it as +1, v as -1); the added cells lie below 2^31.
        slots, counts = np.tile(slots[cross], 2), np.concatenate([PRIME - counts[cross], counts[cross]])
        owner = np.concatenate([cu[cross], cv[cross]])
        sums += _level_sums(run, keys, slots, counts, owner, len(sums))
    return _mod(sums)


def _peel_forest(rows: list[memoryview], run: _Run, stack: int, used: dict[int, int]) -> list[int]:
    """One spanning forest from stack ``stack`` of the messages ``rows``, less the edges in ``used``.

    Borůvka: each round gathers its (n, reps, levels, 3) cells, one byte
    range of every message, sketches every component's boundary on them,
    extracts one edge per component and merges along the extracted edges in
    slot order.  ``used`` maps each slot claimed by earlier forests to its
    multiplicity.

    The stack ends at its first round whose sketches are zero in every cell.
    When no component has a boundary edge left, that round and every later
    one are exactly zero, so the forest is the same.  Otherwise the round is
    zero only if a live boundary's triple (count, id sum, fingerprint
    sum c * base^slot) vanishes mod PRIME at level 0, which keeps every slot,
    and at every other level of every repetition, while every other
    component's does too: the fingerprint risk each 1-sparse test already
    takes.  Only then might a later round, with other keys, have found an
    edge.  A round whose sketches are nonzero but yield no edge is skipped,
    and the next round runs.
    """
    cfg = run.cfg
    n, reps, levels = len(rows), cfg.reps, cfg.levels
    config_bytes = levels * _CELLS_PER_TRIPLE * _CELL_BITS // 8
    earlier = (np.array(list(used), dtype=np.uint64), np.array(list(used.values()), dtype=np.uint64))
    component = np.arange(n)  # node - 1 -> its component's label
    forest: list[int] = []

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for rnd in range(cfg.rounds):
        count = int(component.max()) + 1
        if count == 1:
            break
        config = (stack * cfg.rounds + rnd) * reps  # the round's first config, in key and message order
        start, stop = config * config_bytes, (config + reps) * config_bytes
        cells = np.frombuffer(b"".join(map(itemgetter(slice(start, stop)), rows)), ">u4").reshape(n, reps, levels, 3)
        sketches = _component_sketches(cells, run, run.keys[config : config + reps], component, earlier)
        if not sketches.any():  # no boundary left to sample, bar a fingerprint collision
            break
        proposals = _extract_edges(sketches, run)
        del cells, sketches  # the round's bytes and sums go before the next round gathers its own
        if not proposals.any():  # no edge to merge along: the components stay as they are
            continue
        parent = list(range(count))  # over this round's component labels
        for slot in np.unique(proposals[proposals != 0]).tolist():
            u, v = pair_of_slot(slot, n)
            ru, rv = find(int(component[u - 1])), find(int(component[v - 1]))
            if ru == rv:
                continue
            parent[rv] = ru
            forest.append(slot)
        roots = np.array([find(c) for c in range(count)])
        component = np.unique(roots, return_inverse=True)[1][component]
    return forest


def agm_decide_kconn(
    messages: Sequence[tuple[int, Bits]],
    seeds: SharedRandomness,
    n: int,
    k: int,
    delta: float,
) -> Decision:
    """Peel k forests from the sketches and decide on the union certificate.

    Stack s peels its forest from G less the edges of the forests of stacks
    below s; ``_component_sketches`` subtracts those edges at each component's
    boundary, one round at a time.  Every message is checked first, whole and
    in place, so a bad cell in a round that peeling never reaches is refused
    too; each round then reads its own cells out of the message bytes.
    """
    if sorted(node for node, _ in messages) != list(range(1, n + 1)):
        raise DecodeError("need exactly one message per node 1..n")
    if n == 1:
        return Decision.CONNECTED
    run = _run(n, k, delta, seeds.seed)
    rows = _message_rows(messages, run.cfg)

    used: dict[int, int] = {}  # slot -> multiplicity claimed by earlier forests
    for stack in range(run.cfg.stacks):
        forest = _peel_forest(rows, run, stack, used)
        for slot in forest:
            used[slot] = used.get(slot, 0) + 1

    certificate = MultiGraph(n)
    for slot, count in used.items():
        u, v = pair_of_slot(slot, n)
        certificate.add_edge(u, v, count)
    if not used:
        return Decision.NOT_CONNECTED
    value = global_min_cut(certificate).value
    return Decision.CONNECTED if value >= k else Decision.NOT_CONNECTED


def make_agm_protocol(n: int, k: int, delta: float) -> SketchProtocol:
    """Wrap the sketch stack as a pluggable protocol for the execution model."""

    def encode(view: NodeView, rand: SharedRandomness) -> Bits:
        return agm_encode(view, rand, k, delta)

    def decode(messages, rand: SharedRandomness) -> Decision:
        return agm_decide_kconn(messages, rand, len(messages), k, delta)

    return SketchProtocol(
        name=f"agm(k={k},delta={delta})",
        k=k,
        max_bits=budget_bits(n, k, delta),
        encode=encode,
        decode=decode,
    )
