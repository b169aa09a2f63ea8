"""The unique-overlap three-party problem.

Alice and Bob hold ternary vectors of length m whose supports (size s each)
share exactly one index, and the two bits at that index differ.  Charlie knows
both supports but neither vector; after one simultaneous message from each
party he must say whether the shared index carries (0, 1).  This module
provides the instance model, a deterministic protocol that gets away with s-1
bits per party whenever s exceeds a third of m, and an exhaustive attack that
hunts for message collisions breaking any given one-way protocol at small
scale.

A vector stores its support and its support bits, fixed when it is built, so
the encoders read them without re-scanning the m entries.  The exhaustive
sweep builds the 2^s fills of each support once and pairs those shared
vectors into instances.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .model import Bits


class InvalidInstance(ValueError):
    """Instance violates a promise or is malformed; ``name`` is the violated property."""

    def __init__(self, name: str, message: str):
        super().__init__(f"[{name}] {message}")
        self.name = name


class HypothesisViolated(ValueError):
    """The protocol's parameter requirement s > ceil(m/3) fails."""


class BlockPropertyViolated(RuntimeError):
    """Both parties dropped the shared index; unreachable for a sound block map."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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
            and isinstance(support, tuple)
            and isinstance(bits, str)
            and len(bits) == len(support)
            and bits.count("0") + bits.count("1") == len(bits)
            and all(_is_int(i) and 1 <= i <= self.length for i in support)
            and all(a < b for a, b in zip(support, support[1:]))
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

    def support_bits(self) -> str:
        """The set bits read off in support order."""
        return self.bits

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


def validate_instance(x: TernaryVector, y: TernaryVector, m: int, s: int) -> int:
    """Check the promises and return the unique shared index."""
    if s > (m + 1) // 2:
        raise InvalidInstance("parameters", f"support size s={s} must not exceed ceil(m/2)={(m + 1) // 2}")
    if x.length != m or y.length != m:
        raise InvalidInstance("support", f"vectors must have length {m}")
    if len(x.support) != s or len(y.support) != s:
        raise InvalidInstance(
            "support", f"supports must have size {s}, got {len(x.support)} and {len(y.support)}"
        )
    common = set(x.support) & set(y.support)
    if len(common) > 1:
        raise InvalidInstance("P2", f"supports share {len(common)} indices: {sorted(common)}")
    if not common:
        raise InvalidInstance("P1", "supports share no index")
    sigma = common.pop()
    if x[sigma] == y[sigma]:
        raise InvalidInstance("P1", f"bits at shared index {sigma} must differ")
    return sigma


def shared_index(supp_x: tuple[int, ...], supp_y: tuple[int, ...]) -> int:
    """Charlie's view of the promise: the one index both supports hold, else P2."""
    common = set(supp_x).intersection(supp_y)
    if len(common) != 1:
        raise InvalidInstance("P2", f"supports share {len(common)} indices")
    return common.pop()


@dataclass(frozen=True)
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
    """True (yes) iff the shared index carries (0, 1)."""
    return instance.x[instance.sigma] == 0 and instance.y[instance.sigma] == 1


@dataclass(frozen=True)
class CyclePartition:
    """[1..m] cut into length-3 intervals (last one may be shorter), cycled.

    The successor map walks each interval cyclically; a length-1 tail maps to
    index 1 so that no element is its own successor.
    """

    m: int
    intervals: tuple[tuple[int, ...], ...]
    successors: dict[int, int]

    @classmethod
    def build(cls, m: int) -> "CyclePartition":
        if m < 2:
            raise ValueError(f"need m >= 2, got {m}")
        intervals = []
        successors: dict[int, int] = {}
        for start in range(1, m + 1, 3):
            block = tuple(range(start, min(start + 3, m + 1)))
            intervals.append(block)
            if len(block) == 1:
                successors[block[0]] = 1
            else:
                for pos, b in enumerate(block):
                    successors[b] = block[(pos + 1) % len(block)]
        return cls(m=m, intervals=tuple(intervals), successors=successors)

    def phi(self, b: int) -> int:
        return self.successors[b]


def build_blocks(m: int, s: int) -> dict[tuple[int, ...], int]:
    """Assign every s-subset of [m] a dropped index i with {i, phi(i)} inside it.

    The assignment is total whenever s exceeds ceil(m/3): some cycle then holds
    two subset elements, one of which is the other's successor.  Overlaps are
    repaired by always assigning the smallest qualifying i, so subsets meeting
    in a single element always drop different indices.
    """
    if s <= math.ceil(m / 3):
        raise HypothesisViolated(
            f"need s > ceil(m/3); got s={s}, ceil(m/3)={math.ceil(m / 3)}"
        )
    cycles = CyclePartition.build(m)
    assignment: dict[tuple[int, ...], int] = {}
    for subset in itertools.combinations(range(1, m + 1), s):
        inside = set(subset)
        chosen = next(
            (i for i in subset if cycles.phi(i) in inside), None
        )
        if chosen is None:
            raise BlockPropertyViolated(f"no cycle pair inside subset {subset}")
        assignment[subset] = chosen
    return assignment


def appb_encode(
    vector: TernaryVector,
    blocks: dict[tuple[int, ...], int],
    positions: Optional[dict[tuple[int, ...], int]] = None,
) -> Bits:
    """Support bits in ascending index order, with the assigned bit dropped.

    ``positions`` maps each support to where its dropped index sits in it, as
    ``appb_protocol`` precomputes once; without it the position is searched.
    """
    support = vector.support
    pos = support.index(blocks[support]) if positions is None else positions[support]
    bits = vector.bits
    return bits[:pos] + bits[pos + 1 :]


def _drop_entry(support: tuple[int, ...], blocks: dict[tuple[int, ...], int]) -> tuple[int, int]:
    """(bit mask of the support, position of its dropped index in it)."""
    return sum(1 << i for i in support), support.index(blocks[support])


def _read_shared(
    supp_x: tuple[int, ...],
    supp_y: tuple[int, ...],
    msg_a: Bits,
    msg_b: Bits,
    entry_a: tuple[int, int],
    entry_b: tuple[int, int],
) -> bool:
    """Reconstruct the shared bits from whichever message kept them.

    ``entry_a`` and ``entry_b`` are the supports' ``_drop_entry`` values.  At
    most one party dropped the shared index (the block map guarantees it), so
    its bit is read from the other message and the partner's bit follows from
    the differing-bits promise.
    """
    (mask_a, drop_a), (mask_b, drop_b) = entry_a, entry_b
    common = mask_a & mask_b
    if not common or common & (common - 1):
        raise InvalidInstance("P2", f"supports share {common.bit_count()} indices")
    sigma = common.bit_length() - 1
    pos = supp_x.index(sigma)
    if pos != drop_a:
        return int(msg_a[pos if pos < drop_a else pos - 1]) == 0  # Bob's bit is the other one
    pos = supp_y.index(sigma)
    if pos == drop_b:
        raise BlockPropertyViolated("both parties dropped the shared index")
    return int(msg_b[pos if pos < drop_b else pos - 1]) == 1


@dataclass(frozen=True)
class OneWayProtocol:
    """Simultaneous one-way protocol: two encoders and Charlie's decoder.

    Encoders see only their own vector; the decoder sees both supports and the
    two messages, nothing else.
    """

    name: str
    max_bits: int
    alice_encode: Callable[[TernaryVector], Bits]
    bob_encode: Callable[[TernaryVector], Bits]
    charlie_decode: Callable[[tuple[int, ...], tuple[int, ...], Bits, Bits], bool]


def appb_protocol(m: int, s: int) -> OneWayProtocol:
    """The drop-one-bit protocol: s-1 bits per party, correct for s > ceil(m/3).

    Each support's drop position is found once here; encoding is then a slice
    and decoding reads the shared index's bit by position.
    """
    blocks = build_blocks(m, s)
    entries = {support: _drop_entry(support, blocks) for support in blocks}
    positions = {support: drop for support, (_, drop) in entries.items()}

    def encode(vector: TernaryVector) -> Bits:
        return appb_encode(vector, blocks, positions)

    def decode(supp_x, supp_y, msg_a, msg_b) -> bool:
        try:
            entry_a, entry_b = entries[supp_x], entries[supp_y]
        except KeyError as exc:
            raise InvalidInstance("support", f"not an s={s} subset of [1..{m}]: {exc.args[0]!r}") from exc
        return _read_shared(supp_x, supp_y, msg_a, msg_b, entry_a, entry_b)

    return OneWayProtocol(
        name=f"appb(m={m},s={s})",
        max_bits=s - 1,
        alice_encode=encode,
        bob_encode=encode,
        charlie_decode=decode,
    )


def truncated_protocol(m: int, s: int, keep: Optional[int] = None) -> OneWayProtocol:
    """Sends only the first ``keep`` (default s-2) support bits; undershoots the budget."""
    keep = s - 2 if keep is None else keep
    if not 0 <= keep < s:
        raise ValueError(f"keep must lie in [0, s), got {keep}")

    def encode(vector: TernaryVector) -> Bits:
        return vector.bits[:keep]

    def decode(supp_x, supp_y, msg_a, msg_b) -> bool:
        sigma = shared_index(supp_x, supp_y)
        pos = supp_x.index(sigma)
        if pos < keep:
            x_bit = int(msg_a[pos])
            return x_bit == 0
        pos = supp_y.index(sigma)
        if pos < keep:
            y_bit = int(msg_b[pos])
            return y_bit == 1
        return False  # blind guess once both bits are truncated away

    return OneWayProtocol(
        name=f"trunc(m={m},s={s},keep={keep})",
        max_bits=keep,
        alice_encode=encode,
        bob_encode=encode,
        charlie_decode=decode,
    )


def full_support_protocol(m: int, s: int) -> OneWayProtocol:
    """Sends all s support bits; trivially correct, collision-free."""

    def encode(vector: TernaryVector) -> Bits:
        return vector.bits

    def decode(supp_x, supp_y, msg_a, msg_b) -> bool:
        sigma = shared_index(supp_x, supp_y)
        return int(msg_a[supp_x.index(sigma)]) == 0 and int(msg_b[supp_y.index(sigma)]) == 1

    return OneWayProtocol(
        name=f"full(m={m},s={s})",
        max_bits=s,
        alice_encode=encode,
        bob_encode=encode,
        charlie_decode=decode,
    )


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
    """
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
    msg_a: Bits
    msg_b: Bits
    wrong: tuple[tuple[str, str], ...]  # (X string, Y string) combos answered wrongly


def _flip_classes(
    encode: Callable[[TernaryVector], Bits], m: int, support: tuple[int, ...]
) -> dict[Bits, list[TernaryVector]]:
    classes: dict[Bits, list[TernaryVector]] = {}
    for vec in fills(m, support):
        classes.setdefault(encode(vec), []).append(vec)
    return classes


def _flipped_indices(classes: dict[Bits, list[TernaryVector]], support) -> dict[int, Bits]:
    """Map each index that flips inside some message class to that message."""
    flipped: dict[int, Bits] = {}
    for message in sorted(classes):
        members = classes[message]
        if len(members) < 2:
            continue
        for i in support:
            if i in flipped:
                continue
            seen = {v[i] for v in members}
            if len(seen) > 1:
                flipped[i] = message
    return flipped


def attack(protocol: OneWayProtocol, m: int, s: int) -> Optional[Counterexample]:
    """Exhaustive collision hunt; any returned counterexample replays to a failure.

    For each support the inputs are grouped by message; an index is flipped
    when two same-message inputs disagree there.  Supports meeting exactly in
    an index flipped on both sides yield two valid instances with identical
    messages but opposite answers, so the decoder must be wrong on one; the
    failing combination is verified by direct execution before returning.
    """
    if math.comb(m, s) * (2 ** s) > 2_000_000:
        raise ValueError(f"(m={m}, s={s}) too large for exhaustive enumeration")
    supports = list(itertools.combinations(range(1, m + 1), s))
    alice_flips: dict[tuple[int, ...], dict[int, Bits]] = {}
    alice_classes = {}
    bob_flips: dict[tuple[int, ...], dict[int, Bits]] = {}
    bob_classes = {}
    for supp in supports:
        alice_classes[supp] = _flip_classes(protocol.alice_encode, m, supp)
        alice_flips[supp] = _flipped_indices(alice_classes[supp], supp)
        bob_classes[supp] = _flip_classes(protocol.bob_encode, m, supp)
        bob_flips[supp] = _flipped_indices(bob_classes[supp], supp)

    for supp_x in supports:
        set_x = set(supp_x)
        for supp_y in supports:
            common = set_x & set(supp_y)
            if len(common) != 1:
                continue
            sigma = next(iter(common))
            if sigma not in alice_flips[supp_x] or sigma not in bob_flips[supp_y]:
                continue
            msg_a = alice_flips[supp_x][sigma]
            msg_b = bob_flips[supp_y][sigma]
            x, x_hat = _pair_differing_at(alice_classes[supp_x][msg_a], sigma)
            y, y_hat = _pair_differing_at(bob_classes[supp_y][msg_b], sigma)
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


def _pair_differing_at(members: list[TernaryVector], index: int) -> tuple[TernaryVector, TernaryVector]:
    ordered = sorted(members, key=lambda v: v.to_string())
    for a, b in itertools.combinations(ordered, 2):
        if a[index] != b[index]:
            return a, b
    raise BlockPropertyViolated(f"no pair differs at flipped index {index}")
