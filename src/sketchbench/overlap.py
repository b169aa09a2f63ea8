"""The unique-overlap three-party problem.

Alice and Bob hold ternary vectors of length m whose supports (size s each)
share exactly one index, and the two bits at that index differ.  Charlie knows
both supports but neither vector; after one simultaneous message from each
party he must say whether the shared index carries (0, 1).

Every protocol here is a kept-index map: for each support S a party sends its
bits on a kept set K(S) of S, and Charlie reads the shared index's bit from
whichever message kept it.  Such a protocol is correct iff the cover condition
σ ∈ K(S) ∪ K(T) holds whenever S ∩ T = {σ}.  ``appb`` keeps S minus one index
chosen by a block map and so sends s-1 bits whenever s exceeds a third of m;
``trunc`` keeps the first s-2 positions and ``full`` all of S.

An exhaustive attack breaks any one-way protocol at small scale wherever the
cover condition fails.  It groups each support's fills by message once; an
index outside K(S) is one where two fills of a class disagree, and two
supports meeting in an index outside both kept sets give two instances with
the same messages but opposite answers.

Each promise has one rule, which every builder, sweep, attack and loader
calls: ``check_parameters`` for (m, s), ``check_support`` for a support and
``shared_index`` for the overlap.  Vectors fix their support and support bits
when built, and the sweep shares each support's 2^s fills among instances.

A message is one table lookup.  Each protocol keeps one table per kept-position
pattern, mapping a fill's bits to its message and filled on first use; every
support with that pattern shares it.  ``appb`` has at most s patterns (the
dropped position), ``trunc`` and ``full`` one each, so a protocol holds at most
s·2^s messages however many supports it encodes.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional


class InvalidInstance(ValueError):
    """Instance violates a promise or is malformed; ``name`` is the violated property."""

    def __init__(self, name: str, message: str):
        super().__init__(f"[{name}] {message}")
        self.name = name


class HypothesisViolated(ValueError):
    """The protocol's parameter requirement s > ceil(m/3) fails."""


class BlockPropertyViolated(RuntimeError):
    """A block-map or attack invariant broke: no cycle pair, a fixed point, a failed replay."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_support(support, m: int) -> bool:
    """True iff ``support`` is an ascending tuple of integers in 1..m."""
    if not isinstance(support, tuple):
        return False
    previous = 0  # each index must exceed the one before, the first 0
    for i in support:
        if isinstance(i, bool) or not isinstance(i, int) or not previous < i <= m:
            return False
        previous = i
    return True


def check_support(support, m: int, s: int) -> None:
    """Raise ``InvalidInstance("support")`` unless ``support`` is an ascending s-subset of 1..m."""
    if not (_is_support(support, m) and len(support) == s):
        raise InvalidInstance("support", f"not an s={s} subset of [1..{m}]: {support!r}")


@dataclass(frozen=True)
class TernaryVector:
    """Length-m vector over {0, 1, unset}, held as its support and support bits.

    ``support`` is the ascending tuple of 1-based set indices and ``bits`` the
    '0'/'1' string of their bits in support order.  Both are fixed at
    construction, which rejects an inconsistent triple with
    ``InvalidInstance("format", ...)``; ``x[i]`` is an O(1) lookup that reads
    None off the support.  Equality and hashing compare (length, support, bits).
    """

    length: int
    support: tuple[int, ...]
    bits: str
    _bit_at: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        support, bits = self.support, self.bits
        if not (
            _is_int(self.length)
            and _is_support(support, self.length)
            and isinstance(bits, str)
            and len(bits) == len(support)
            and bits.count("0") + bits.count("1") == len(bits)
        ):
            raise InvalidInstance(
                "format", f"not a ternary vector: length={self.length!r}, support={support!r}, bits={bits!r}"
            )
        object.__setattr__(self, "_bit_at", dict(zip(support, map(int, bits))))

    @classmethod
    def from_string(cls, text: str) -> "TernaryVector":
        """Parse one character per index: '0', '1' or '*' (unset)."""
        if not isinstance(text, str) or text.count("0") + text.count("1") + text.count("*") != len(text):
            raise InvalidInstance("format", f"vector characters must be 0, 1 or *: {text!r}")
        support = tuple(i for i, ch in enumerate(text, 1) if ch != "*")
        return cls(len(text), support, text.replace("*", ""))

    def to_string(self) -> str:
        chars = ["*"] * self.length
        for i, bit in zip(self.support, self.bits):
            chars[i - 1] = bit
        return "".join(chars)

    def __getitem__(self, index: int) -> Optional[int]:
        """1-based entry access; None off the support."""
        bit = self._bit_at.get(index)
        if bit is None and not 1 <= index <= self.length:
            raise IndexError(f"index {index!r} outside 1..{self.length}")
        return bit


def vector_on(m: int, assignment: dict[int, int]) -> TernaryVector:
    """Build a vector with the given {1-based index: bit} entries set."""
    support = tuple(sorted(assignment))
    return TernaryVector(m, support, "".join(str(assignment[i]) for i in support))


def fills(m: int, support: tuple[int, ...]) -> tuple[TernaryVector, ...]:
    """The 2^s vectors on ``support``, in ``itertools.product((0, 1), repeat=s)`` order."""
    return tuple(
        TernaryVector(m, support, "".join(bits))
        for bits in itertools.product("01", repeat=len(support))
    )


def check_parameters(m, s) -> None:
    """Raise ``InvalidInstance("parameters")`` unless two s-subsets of [m] can share just one index."""
    if not (_is_int(m) and _is_int(s) and 1 <= s <= (m + 1) // 2):
        raise InvalidInstance("parameters", f"need integers 1 <= s <= ceil(m/2); got m={m!r}, s={s!r}")


def validate_instance(x: TernaryVector, y: TernaryVector, m: int, s: int) -> int:
    """Check the promises and return the unique shared index."""
    check_parameters(m, s)
    if x.length != m or y.length != m:
        raise InvalidInstance("support", f"vectors must have length {m}")
    for vector in (x, y):
        check_support(vector.support, m, s)
    sigma = shared_index(x.support, y.support)
    if x[sigma] == y[sigma]:
        raise InvalidInstance("P1", f"bits at shared index {sigma} must differ")
    return sigma


def shared_index(supp_x: tuple[int, ...], supp_y: tuple[int, ...]) -> int:
    """The one index both supports hold; none shared is P1, several P2."""
    common = set(supp_x).intersection(supp_y)
    if len(common) != 1:
        raise InvalidInstance("P2" if common else "P1", f"supports share {sorted(common)}, not one index")
    return common.pop()


@dataclass(slots=True)
class OverlapInstance:
    x: TernaryVector
    y: TernaryVector
    sigma: int

    @classmethod
    def make(cls, x: TernaryVector, y: TernaryVector, m: int, s: int) -> "OverlapInstance":
        return cls(x=x, y=y, sigma=validate_instance(x, y, m, s))

    def to_json(self) -> str:
        return json.dumps(
            {
                "m": self.x.length,
                "s": len(self.x.support),
                "X": self.x.to_string(),
                "Y": self.y.to_string(),
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "OverlapInstance":
        """Parse and validate; malformed input raises ``InvalidInstance("format", ...)``."""
        try:
            obj = json.loads(text)
        except (TypeError, ValueError) as exc:
            raise InvalidInstance("format", f"instance is not JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise InvalidInstance("format", f"instance must be a JSON object, got {type(obj).__name__}")
        missing = [key for key in ("m", "s", "X", "Y") if key not in obj]
        if missing:
            raise InvalidInstance("format", f"instance lacks {missing}")
        if not (_is_int(obj["m"]) and _is_int(obj["s"])):
            raise InvalidInstance("format", f"m and s must be integers: {obj['m']!r}, {obj['s']!r}")
        return cls.make(
            TernaryVector.from_string(obj["X"]),
            TernaryVector.from_string(obj["Y"]),
            obj["m"],
            obj["s"],
        )


def answer(instance: OverlapInstance) -> bool:
    """True (yes) iff the shared index carries (0, 1); an index off a support carries neither."""
    sigma = instance.sigma
    return instance.x._bit_at.get(sigma) == 0 and instance.y._bit_at.get(sigma) == 1


def cycle_successors(m: int) -> dict[int, int]:
    """The successor map phi on 1..m, cut into length-3 intervals and cycled.

    The last interval may be shorter; a length-1 tail maps to index 1 so that
    no element is its own successor.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    successors: dict[int, int] = {}
    for start in range(1, m + 1, 3):
        block = tuple(range(start, min(start + 3, m + 1)))
        successors.update(zip(block, block[1:] + block[:1]))
    if len(block) == 1:
        successors[block[0]] = 1
    return successors


def build_blocks(m: int, s: int) -> dict[tuple[int, ...], int]:
    """Assign every s-subset of [m] a dropped index i with {i, phi(i)} inside it.

    The assignment is total whenever s exceeds ceil(m/3): some cycle then holds
    two subset elements, one of which is the other's successor.  Overlaps are
    repaired by always assigning the smallest qualifying i, so subsets meeting
    in a single element σ always drop different indices: were both to drop σ,
    phi(σ) would lie in both.  That needs phi(i) != i, which is checked here.
    """
    if s <= math.ceil(m / 3):
        raise HypothesisViolated(
            f"need s > ceil(m/3); got s={s}, ceil(m/3)={math.ceil(m / 3)}"
        )
    phi = cycle_successors(m)
    assignment: dict[tuple[int, ...], int] = {}
    for subset in itertools.combinations(range(1, m + 1), s):
        inside = set(subset)
        chosen = next((i for i in subset if phi[i] in inside), None)
        if chosen is None:
            raise BlockPropertyViolated(f"no cycle pair inside subset {subset}")
        if phi[chosen] == chosen:
            raise BlockPropertyViolated(f"phi fixes {chosen}, chosen for subset {subset}")
        assignment[subset] = chosen
    return assignment


def appb_encode(vector: TernaryVector, tables: dict[tuple[int, ...], dict[str, str]]) -> str:
    """The vector's bits at its support's kept positions, in message order.

    ``tables`` maps each support to its kept-position pattern's table, which
    maps support bits to the message; every protocol here encodes through
    this one function.
    """
    return tables[vector.support][vector.bits]


@dataclass(frozen=True)
class OneWayProtocol:
    """Simultaneous one-way protocol: two encoders and Charlie's decoder.

    Encoders see only their own vector; the decoder sees both supports and the
    two messages, nothing else.  A message is '0'/'1' text of at most s bits
    that Charlie reads one index at a time; it never reaches the sketching
    model, so it is not a packed ``model.Bits``.
    """

    name: str
    max_bits: int
    alice_encode: Callable[[TernaryVector], str]
    bob_encode: Callable[[TernaryVector], str]
    charlie_decode: Callable[[tuple[int, ...], tuple[int, ...], str, str], bool]


class _Lazy(dict):
    """Key -> ``make(key)``, built and kept on first use."""

    def __init__(self, make: Callable[[object], object]):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class _PerSupport(_Lazy):
    """A ``_Lazy`` keyed by supports that refuses all but ascending s-subsets of [1..m]."""

    def __init__(self, m: int, s: int, make: Callable[[tuple[int, ...]], object]):
        super().__init__(make)
        self.m, self.s = m, s

    def __missing__(self, support):
        check_support(support, self.m, self.s)
        return super().__missing__(support)


def _message_tables(
    m: int, s: int, kept: Callable[[tuple[int, ...]], tuple[int, ...]]
) -> dict[tuple[int, ...], dict[str, str]]:
    """Support -> its pattern's table, support bits -> the bits at ``kept(support)``.

    Supports that keep the same positions share one table, and both maps
    fill on first use.
    """
    patterns = _Lazy(lambda positions: _Lazy(lambda bits: "".join(bits[p] for p in positions)))
    return _PerSupport(m, s, lambda support: patterns[kept(support)])


def _kept_index_protocol(
    name: str, m: int, s: int, max_bits: int, kept: Callable[[tuple[int, ...]], tuple[int, ...]]
) -> OneWayProtocol:
    """Both parties send their bits at ``kept(support)``, positions in message order.

    Charlie reads the shared index's bit from the message that kept it: Alice's
    0 or Bob's 1 means yes, and a shared index neither message kept means no.
    """

    def entry(support):
        """(bit mask of the support, {kept index: its position in the message})."""
        return sum(1 << i for i in support), {support[p]: j for j, p in enumerate(kept(support))}

    tables, entries = _message_tables(m, s, kept), _PerSupport(m, s, entry)

    def encode(vector: TernaryVector) -> str:
        return appb_encode(vector, tables)

    def decode(supp_x, supp_y, msg_a, msg_b) -> bool:
        (mask_a, at_a), (mask_b, at_b) = entries[supp_x], entries[supp_y]
        common = mask_a & mask_b
        if common and not common & (common - 1):
            sigma = common.bit_length() - 1
        else:
            sigma = shared_index(supp_x, supp_y)  # raises P1 or P2: no index shared, or several
        if sigma in at_a:
            return msg_a[at_a[sigma]] == "0"  # Bob's bit is the other one
        return sigma in at_b and msg_b[at_b[sigma]] == "1"

    return OneWayProtocol(
        name=name, max_bits=max_bits, alice_encode=encode, bob_encode=encode, charlie_decode=decode
    )


def appb_protocol(m: int, s: int) -> OneWayProtocol:
    """The drop-one-bit protocol: s-1 bits per party, correct for s > ceil(m/3)."""
    check_parameters(m, s)
    blocks = build_blocks(m, s)

    def kept(support):
        drop = support.index(blocks[support])
        return tuple(p for p in range(s) if p != drop)

    return _kept_index_protocol(f"appb(m={m},s={s})", m, s, s - 1, kept)


def truncated_protocol(m: int, s: int) -> OneWayProtocol:
    """Sends only the first s-2 support bits; undershoots the budget."""
    check_parameters(m, s)
    if s < 2:
        raise ValueError(f"need s >= 2, got {s}")
    positions = tuple(range(s - 2))
    return _kept_index_protocol(f"trunc(m={m},s={s})", m, s, s - 2, lambda support: positions)


def full_support_protocol(m: int, s: int) -> OneWayProtocol:
    """Sends all s support bits; trivially correct, collision-free."""
    check_parameters(m, s)
    positions = tuple(range(s))
    return _kept_index_protocol(f"full(m={m},s={s})", m, s, s, lambda support: positions)


#: Overlap protocols by name, each built from (m, s).
OVERLAP_PROTOCOLS = {
    "appb": appb_protocol,
    "trunc": truncated_protocol,
    "full": full_support_protocol,
}


def make_overlap_protocol(name: str, m: int, s: int) -> OneWayProtocol:
    if name not in OVERLAP_PROTOCOLS:
        raise ValueError(f"unknown overlap protocol {name!r}")
    return OVERLAP_PROTOCOLS[name](m, s)


def enumerate_valid_instances(m: int, s: int) -> Iterator[OverlapInstance]:
    """All valid instances: ordered support pairs sharing one index, all bit fills.

    The order is Alice's support, the shared index in it, Bob's other indices,
    Alice's fill, then Bob's fill of his other indices.  Each support's 2^s
    fills are built once and shared by every instance that uses them.
    Infeasible (m, s) raises at the first ``next()``, by ``check_parameters``.
    """
    check_parameters(m, s)
    supports = list(itertools.combinations(range(1, m + 1), s))
    vectors = {support: fills(m, support) for support in supports}
    # Bob's fills split by the bit at each position: by_bit[support][pos][bit].
    by_bit = {
        support: tuple(
            tuple(tuple(v for v in vs if v.bits[pos] == bit) for bit in "01")
            for pos in range(s)
        )
        for support, vs in vectors.items()
    }
    for supp_x in supports:
        rest = [i for i in range(1, m + 1) if i not in supp_x]
        for pos_x, sigma in enumerate(supp_x):
            for others in itertools.combinations(rest, s - 1):
                supp_y = tuple(sorted(others + (sigma,)))
                y_fills = by_bit[supp_y][supp_y.index(sigma)]
                for x in vectors[supp_x]:
                    for y in y_fills[x.bits[pos_x] == "0"]:  # Bob's bit at sigma differs
                        yield OverlapInstance(x, y, sigma)


@dataclass(frozen=True)
class Counterexample:
    """Two valid input combinations a protocol cannot tell apart plus the failure."""

    sigma: int
    supp_x: tuple[int, ...]
    supp_y: tuple[int, ...]
    x: TernaryVector
    x_hat: TernaryVector
    y: TernaryVector
    y_hat: TernaryVector
    msg_a: str
    msg_b: str
    wrong: tuple[tuple[str, str], ...]  # (X string, Y string) combos answered wrongly


def _unkept(
    encode: Callable[[TernaryVector], str], m: int, support: tuple[int, ...]
) -> dict[int, tuple[str, TernaryVector, TernaryVector]]:
    """Each index of S outside K(S), mapped to (message, x, x_hat) differing there.

    The fills are grouped by message once.  An index is unkept when some class
    disagrees there: the first such class in message order gives the message,
    its first fill x and the first later fill x_hat that differs from x at the
    index.  Fills come in ``to_string`` order, and so does each class.
    """
    classes: dict[str, list[TernaryVector]] = {}
    for vec in fills(m, support):
        classes.setdefault(encode(vec), []).append(vec)
    unkept: dict[int, tuple[str, TernaryVector, TernaryVector]] = {}
    for message in sorted(classes):
        first, *rest = classes[message]
        for other in rest:
            for i in support:
                if i not in unkept and other[i] != first[i]:
                    unkept[i] = (message, first, other)
    return unkept


def attack(protocol: OneWayProtocol, m: int, s: int) -> Optional[Counterexample]:
    """Exhaustive collision hunt; any returned counterexample replays to a failure.

    Each party's unkept indices are read per support from ``_unkept``.
    Supports meeting exactly in an index unkept on both sides yield two valid
    instances with identical messages but opposite answers, so the decoder
    must be wrong on one; the failing combination is verified by direct
    execution before returning.
    """
    check_parameters(m, s)
    if math.comb(m, s) * (2 ** s) > 2_000_000:
        raise ValueError(f"(m={m}, s={s}) too large for exhaustive enumeration")
    supports = list(itertools.combinations(range(1, m + 1), s))
    alice_unkept = {supp: _unkept(protocol.alice_encode, m, supp) for supp in supports}
    if protocol.bob_encode is protocol.alice_encode:  # one encoder: Bob's map is Alice's
        bob_unkept = alice_unkept
    else:
        bob_unkept = {supp: _unkept(protocol.bob_encode, m, supp) for supp in supports}

    for supp_x in supports:
        set_x = set(supp_x)
        for supp_y in supports:
            common = set_x & set(supp_y)
            if len(common) != 1:
                continue
            sigma = next(iter(common))
            if sigma not in alice_unkept[supp_x] or sigma not in bob_unkept[supp_y]:
                continue
            msg_a, x, x_hat = alice_unkept[supp_x][sigma]
            msg_b, y, y_hat = bob_unkept[supp_y][sigma]
            if x[sigma] ^ y[sigma] == 1:
                combos = [(x, y), (x_hat, y_hat)]
            else:
                combos = [(x, y_hat), (x_hat, y)]
            # Every combination sends the same two messages, so one decode covers them.
            decoded = protocol.charlie_decode(supp_x, supp_y, msg_a, msg_b)
            wrong = []
            for cx, cy in combos:
                inst = OverlapInstance.make(cx, cy, m, s)
                if decoded != answer(inst):
                    wrong.append((cx.to_string(), cy.to_string()))
            if not wrong:
                raise BlockPropertyViolated(
                    "collision candidate failed to replay; attack bookkeeping is broken"
                )
            return Counterexample(
                sigma=sigma,
                supp_x=supp_x,
                supp_y=supp_y,
                x=x,
                x_hat=x_hat,
                y=y,
                y_hat=y_hat,
                msg_a=msg_a,
                msg_b=msg_b,
                wrong=tuple(wrong),
            )
    return None

