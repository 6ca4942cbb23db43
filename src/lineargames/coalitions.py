"""Coalitions over an ordered voter set and the shift order on them.

Voters are indexed 1..n with voter n the strongest.  A coalition is a
subset of voters stored as a bitmask (bit i-1 set iff voter i belongs).
The shift order compares coalitions member-by-member on their decreasing
index listings; the full poset of all 2^n coalitions under this order is
graded by the sum of member indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

MAX_VOTERS = 16


class CoalitionError(ValueError):
    """Raised on invalid coalition construction or mismatched voter counts."""


@dataclass(frozen=True, order=True)
class Coalition:
    """An immutable subset of voters 1..n, encoded as a bitmask."""

    n: int
    mask: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_VOTERS:
            raise CoalitionError(f"voter count {self.n} out of range 1..{MAX_VOTERS}")
        if self.mask < 0 or self.mask >> self.n:
            raise CoalitionError(f"member outside 1..{self.n} in mask {self.mask:b}")

    @classmethod
    def from_members(cls, n: int, members) -> "Coalition":
        mask = 0
        for i in members:
            if not 1 <= i <= n:
                raise CoalitionError(f"voter {i} outside 1..{n}")
            if mask >> (i - 1) & 1:
                raise CoalitionError(f"duplicate voter {i}")
            mask |= 1 << (i - 1)
        return cls(n, mask)

    def members(self) -> tuple[int, ...]:
        """Member indices in decreasing order (the canonical listing)."""
        return tuple(i for i in range(self.n, 0, -1) if self.mask >> (i - 1) & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, voter: int) -> bool:
        return 1 <= voter <= self.n and bool(self.mask >> (voter - 1) & 1)

    def __iter__(self):
        return iter(self.members())

    def complement(self) -> "Coalition":
        return Coalition(self.n, ((1 << self.n) - 1) ^ self.mask)

    def rank(self) -> int:
        """Sum of member indices; the grading of the coalitions poset."""
        return sum(self.members())

    def with_voter(self, i: int) -> "Coalition":
        return Coalition(self.n, self.mask | 1 << (i - 1))

    def without_voter(self, i: int) -> "Coalition":
        return Coalition(self.n, self.mask & ~(1 << (i - 1)))

    def __str__(self) -> str:
        return format_coalition(self)

    def __repr__(self) -> str:
        return f"Coalition({self.n}, {format_coalition(self)!r})"


def grand_coalition(n: int) -> Coalition:
    return Coalition(n, (1 << n) - 1)


def empty_coalition(n: int) -> Coalition:
    return Coalition(n, 0)


def shift_leq(a: Coalition, b: Coalition) -> bool:
    """True iff b dominates a in the shift order.

    Writing both member lists in decreasing order, requires |a| <= |b| and
    b_i >= a_i positionwise.  O(n) by pairing the sorted listings.
    """
    if a.n != b.n:
        raise CoalitionError(f"voter counts differ: {a.n} vs {b.n}")
    return shift_leq_masks(a.mask, b.mask, a.n)


def shift_leq_masks(a_mask: int, b_mask: int, n: int) -> bool:
    """shift_leq on raw bitmasks (hot path for enumeration loops)."""
    if a_mask.bit_count() > b_mask.bit_count():
        return False
    # Walk indices from strongest down, pairing k-th largest members.
    deficit = 0  # how many b-members seen but not yet matched by an a-member
    for i in range(n - 1, -1, -1):
        deficit += b_mask >> i & 1
        if a_mask >> i & 1:
            if deficit == 0:
                return False
            deficit -= 1
    return True


@lru_cache(maxsize=None)
def canonical_order(n: int) -> tuple[int, ...]:
    """All 2^n coalition masks by rank, then by decreasing member list."""

    def key(mask):
        members = tuple(i for i in range(n, 0, -1) if mask >> (i - 1) & 1)
        return (sum(members), members)

    return tuple(sorted(range(1 << n), key=key))


def cover_successors_mask(mask: int, n: int) -> list[int]:
    """Masks covering `mask` in the coalitions poset (rank +1 moves).

    Covers are: add voter 1, or bump one member i to i+1 when i+1 is free.
    """
    out = []
    if not mask & 1:
        out.append(mask | 1)
    for i in range(1, n):  # bump voter i -> i+1 (bits i-1 -> i)
        if mask >> (i - 1) & 1 and not mask >> i & 1:
            out.append(mask & ~(1 << (i - 1)) | 1 << i)
    return out


def cover_predecessors_mask(mask: int, n: int) -> list[int]:
    """Masks covered by `mask` (rank -1 moves): inverse of the successors."""
    out = []
    if mask & 1:
        out.append(mask & ~1)
    for i in range(2, n + 1):  # lower voter i -> i-1 when i-1 is free
        if mask >> (i - 1) & 1 and not mask >> (i - 2) & 1:
            out.append(mask & ~(1 << (i - 1)) | 1 << (i - 2))
    return out


@dataclass(frozen=True)
class CoalitionPoset:
    """The full shift-order poset on all 2^n coalitions, with Hasse covers."""

    n: int
    covers: tuple[tuple[int, ...], ...]  # covers[mask] = masks covering mask

    @property
    def elements(self) -> list[Coalition]:
        return [Coalition(self.n, m) for m in range(1 << self.n)]

    def rank(self, a: Coalition) -> int:
        return a.rank()

    def cover_pairs(self) -> list[tuple[Coalition, Coalition]]:
        return [
            (Coalition(self.n, lo), Coalition(self.n, hi))
            for lo in range(1 << self.n)
            for hi in self.covers[lo]
        ]

    def rank_counts(self) -> list[int]:
        """Number of coalitions of each rank 0 .. n(n+1)/2."""
        top = self.n * (self.n + 1) // 2
        counts = [0] * (top + 1)
        for m in range(1 << self.n):
            counts[Coalition(self.n, m).rank()] += 1
        return counts


@lru_cache(maxsize=None)
def build_m_poset(n: int) -> CoalitionPoset:
    """Build the coalitions poset with its Hasse diagram for 1 <= n <= 16."""
    if not 1 <= n <= MAX_VOTERS:
        raise CoalitionError(f"voter count {n} out of range 1..{MAX_VOTERS}")
    covers = tuple(
        tuple(sorted(cover_successors_mask(m, n))) for m in range(1 << n)
    )
    return CoalitionPoset(n, covers)


def rank_generating_coefficients(n: int) -> list[int]:
    """Coefficients of prod_{i=1..n} (1 + q^i), computed by polynomial expansion."""
    poly = [1]
    for i in range(1, n + 1):
        new = poly + [0] * i
        for j, c in enumerate(poly):
            new[j + i] += c
        poly = new
    return poly


def format_coalition(a: Coalition) -> str:
    """Canonical text: digit string for n <= 9, braced decreasing list otherwise."""
    ms = a.members()
    if not ms:
        return "{}"
    if a.n <= 9:
        return "".join(str(i) for i in ms)
    return "{" + ",".join(str(i) for i in ms) + "}"


def parse_coalition(text: str, n: int) -> Coalition:
    """Parse the coalition grammar: digitstring | "{" int ("," int)* "}" | "{}"."""
    text = text.strip()
    if not text:
        raise CoalitionError("empty coalition text")
    if text.startswith("{"):
        if not text.endswith("}"):
            raise CoalitionError(f"unterminated coalition {text!r}")
        body = text[1:-1].strip()
        if not body:
            return empty_coalition(n)
        try:
            members = [int(tok) for tok in body.split(",")]
        except ValueError as exc:
            raise CoalitionError(f"bad coalition {text!r}") from exc
    else:
        if n > 9:
            raise CoalitionError("digit-string shorthand requires n <= 9")
        if not text.isdigit():
            raise CoalitionError(f"bad coalition {text!r}")
        members = [int(ch) for ch in text]
    if any(members[i] <= members[i + 1] for i in range(len(members) - 1)):
        raise CoalitionError(f"members must be strictly decreasing in {text!r}")
    return Coalition.from_members(n, members)
