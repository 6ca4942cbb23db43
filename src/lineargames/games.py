"""Linear simple games as filters of the coalitions poset.

A game is stored as its winning bitmap: an int over the 2^n coalition
masks, bit m set iff mask m wins.  The bitmap is a filter (an up-set of the
shift order) that holds the grand coalition and not the empty one.  Games
are equal iff their voter counts and bitmaps are, and each cover move of
the games poset adds or removes one bit.  The generators, the shift-minimal
winning coalitions, are derived from the bitmap on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coalitions import (
    MAX_VOTERS,
    Coalition,
    CoalitionError,
    canonical_order,
    cover_predecessors_mask,
    cover_successors_mask,
    format_coalition,
    grand_coalition,
    parse_coalition,
)


class GameError(ValueError):
    """Raised on invalid game construction or queries."""


def _up_closure(bits: int, n: int) -> int:
    """The up-set of the masks in `bits`.  Every cover successor has a
    larger mask number, so one ascending pass closes the set."""
    for m in range(1 << n):
        if bits >> m & 1:
            for up in cover_successors_mask(m, n):
                bits |= 1 << up
    return bits


def _shift_minimal(bits: int, n: int) -> list[int]:
    """The masks in `bits` that cover no mask in `bits`, in canonical order:
    the generators of the filter `bits`."""
    return [
        m
        for m in canonical_order(n)
        if bits >> m & 1
        and not any(bits >> lo & 1 for lo in cover_predecessors_mask(m, n))
    ]


def _complements(bits: int, n: int) -> int:
    """Bitmap with bit m set iff the complement of mask m is in `bits`:
    complementing a mask reverses its position among the 2^n."""
    return int(f"{bits:0{1 << n}b}"[::-1], 2)


class LinearGame:
    """A linear simple game: the up-set of the given coalitions."""

    __slots__ = ("n", "_bits", "_generators")

    def __init__(self, n: int, generators) -> None:
        bits = 0
        for g in generators:
            if not isinstance(g, Coalition):
                g = Coalition(n, g)
            elif g.n != n:
                raise GameError(f"generator {g} has voter count {g.n}, expected {n}")
            bits |= 1 << g.mask
        if not bits:
            raise GameError("a game needs at least one generator")
        if bits & 1:
            raise GameError("the empty coalition cannot win")
        self.n, self._bits, self._generators = n, _up_closure(bits, n), None

    @classmethod
    def _from_bitmap(cls, n: int, bits: int) -> "LinearGame":
        """The game whose winning bitmap is `bits`, which must be a filter."""
        v = object.__new__(cls)
        v.n, v._bits, v._generators = n, bits, None
        return v

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearGame)
            and self.n == other.n
            and self._bits == other._bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self._bits))

    def __str__(self) -> str:
        return format_game(self)

    def __repr__(self) -> str:
        return f"LinearGame({self.n}, {format_game(self)!r})"

    @property
    def generators(self) -> tuple[Coalition, ...]:
        """The shift-minimal winning coalitions, in canonical order."""
        if self._generators is None:
            self._generators = tuple(
                Coalition(self.n, m) for m in _shift_minimal(self._bits, self.n)
            )
        return self._generators

    # -- winning-set machinery ------------------------------------------

    def winning_bitmap(self) -> int:
        """Bitmap over all 2^n coalition masks; bit m set iff mask m wins."""
        return self._bits

    def is_winning(self, a: Coalition) -> bool:
        if a.n != self.n:
            raise GameError(f"coalition over {a.n} voters in {self.n}-voter game")
        return bool(self._bits >> a.mask & 1)

    def rank(self) -> int:
        """Number of losing coalitions: 2^n - |W|."""
        return (1 << self.n) - self._bits.bit_count()

    # -- structure -------------------------------------------------------

    def shift_maximal_losing(self) -> list[Coalition]:
        """Shift-maximal elements of the losing ideal, excluding the empty set.

        An empty result means the empty coalition is the only loser (the
        game just below the excluded all-winning boundary).
        """
        bits, n = self._bits, self.n
        return [
            Coalition(n, m)
            for m in canonical_order(n)
            if m
            and not bits >> m & 1
            and all(bits >> up & 1 for up in cover_successors_mask(m, n))
        ]

    def dual(self) -> "LinearGame":
        """The dual game: A wins in the dual iff its complement loses here."""
        every = (1 << (1 << self.n)) - 1
        return LinearGame._from_bitmap(
            self.n, every ^ _complements(self._bits, self.n)
        )

    def classify(self) -> dict:
        """Proper / strong / self-dual verdicts over all complement pairs."""
        bits, comp = self._bits, _complements(self._bits, self.n)
        proper = not bits & comp
        strong = bits | comp == (1 << (1 << self.n)) - 1
        return {"proper": proper, "strong": strong, "self_dual": proper and strong}

    def desirability(self, i: int, j: int) -> str:
        """Compare voters i and j: 'more', 'equal', or 'less' desirable."""
        if i == j or not (1 <= i <= self.n and 1 <= j <= self.n):
            raise GameError(f"need two distinct voters in 1..{self.n}")
        i_geq_j = self._at_least_as_desirable(i, j)
        j_geq_i = self._at_least_as_desirable(j, i)
        if i_geq_j and j_geq_i:
            return "equal"
        if i_geq_j:
            return "more"
        if j_geq_i:
            return "less"
        raise GameError(
            f"voters {i} and {j} incomparable; game is not linear"
        )  # unreachable for games built from antichains of the shift order

    def _at_least_as_desirable(self, i: int, j: int) -> bool:
        """S + j wins implies S + i wins, for every S avoiding i and j."""
        bits = self._bits
        bi, bj = 1 << (i - 1), 1 << (j - 1)
        return not any(
            bits >> (s | bj) & 1 and not bits >> (s | bi) & 1
            for s in range(1 << self.n)
            if not s & (bi | bj)
        )

    def dummies(self) -> list[int]:
        """Voters appearing in no minimal winning coalition: no winning
        coalition loses when they leave it."""
        bits = self._bits
        return [
            i
            for i in range(self.n, 0, -1)
            if not any(
                bits >> m & 1 and not bits >> (m & ~(1 << (i - 1))) & 1
                for m in range(1 << self.n)
            )
        ]

    def hierarchy(self) -> "Hierarchy":
        return hierarchy(self)

    def induce(self, m: int) -> "LinearGame":
        """The game on m >= n voters obtained by adding m - n dummies.

        The dummies are the weakest voters, so a coalition wins iff its
        members above them win here: each winning bit becomes a block.
        """
        if not self.n <= m <= MAX_VOTERS:
            raise GameError(f"cannot induce from {self.n} to {m} voters")
        shift = m - self.n
        block = (1 << (1 << shift)) - 1
        bits = 0
        for w in range(1 << self.n):
            if self._bits >> w & 1:
                bits |= block << (w << shift)
        return LinearGame._from_bitmap(m, bits)


@dataclass(frozen=True)
class Hierarchy:
    """Desirability classes of a linear game, strongest class first."""

    classes: tuple[tuple[int, ...], ...]  # contiguous runs, strongest first
    dummies: tuple[int, ...]
    power_composition: tuple[int, ...] = field(init=False)
    extended_composition: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        nontrivial = tuple(
            len(c) for c in self.classes if not set(c) <= set(self.dummies)
        )
        object.__setattr__(self, "power_composition", nontrivial)
        object.__setattr__(
            self, "extended_composition", nontrivial + (len(self.dummies),)
        )

    @property
    def k(self) -> int:
        return len(self.power_composition)


def hierarchy(v: LinearGame) -> Hierarchy:
    """Split voters n..1 into maximal runs of equally desirable voters."""
    runs: list[list[int]] = [[v.n]]
    for i in range(v.n - 1, 0, -1):
        if v.desirability(i + 1, i) == "equal":
            runs[-1].append(i)
        else:
            runs.append([i])
    dummies = tuple(v.dummies())
    return Hierarchy(tuple(tuple(r) for r in runs), dummies)


def consensus_game(n: int) -> LinearGame:
    return LinearGame(n, [grand_coalition(n)])


def weakest_voter_game(n: int) -> LinearGame:
    """The rank-1 game where every nonempty coalition wins."""
    return LinearGame(n, [Coalition.from_members(n, [1])])


def j_covers(v: LinearGame) -> list[LinearGame]:
    """Games covering v in the linear games poset: remove one generator."""
    bits = v.winning_bitmap()
    return [
        LinearGame._from_bitmap(v.n, bits & ~(1 << g.mask))
        for g in v.generators
        # removing the last winner would leave the excluded trivial game
        if bits != 1 << g.mask
    ]


def j_covered(v: LinearGame) -> list[LinearGame]:
    """Games covered by v: add one shift-maximal losing coalition."""
    bits = v.winning_bitmap()
    return [
        LinearGame._from_bitmap(v.n, bits | 1 << b.mask)
        for b in v.shift_maximal_losing()
    ]


def game_from_winning_bitmap(bits: int, n: int) -> LinearGame:
    """The game with an explicit winning bitmap, which must be a filter of
    the coalitions poset holding the grand coalition and not the empty one."""
    if not 1 <= n <= MAX_VOTERS:
        raise GameError(f"voter count {n} out of range 1..{MAX_VOTERS}")
    if bits & 1:
        raise GameError("the empty coalition cannot win")
    if not bits >> ((1 << n) - 1) & 1:
        raise GameError("the grand coalition must win")
    if bits >> (1 << n) or _up_closure(bits, n) != bits:
        raise GameError(f"bitmap {bits:#x} is not a filter of {n}-voter coalitions")
    return LinearGame._from_bitmap(n, bits)


# -- text and JSON forms ---------------------------------------------------


def format_game(v: LinearGame) -> str:
    return "<" + ";".join(format_coalition(g) for g in v.generators) + ">"


def parse_game(text: str, n: int) -> LinearGame:
    """Parse `"<" coalition (";" coalition)* ">"`, commas also accepted
    between digit-string generators for the paper's `<65, 4321>` style."""
    text = text.strip()
    if not (text.startswith("<") and text.endswith(">")):
        raise GameError(f"game text must be <...>, got {text!r}")
    body = text[1:-1].strip()
    if not body:
        raise GameError("empty generator list")
    sep = ";" if ";" in body or "{" in body else ","
    parts = [p.strip() for p in body.split(sep)]
    try:
        gens = [parse_coalition(p, n) for p in parts]
    except CoalitionError as exc:
        raise GameError(str(exc)) from exc
    return LinearGame(n, gens)


def game_to_json(v: LinearGame) -> dict:
    return {"n": v.n, "generators": [list(g.members()) for g in v.generators]}


def game_from_json(obj: dict) -> LinearGame:
    n = obj["n"]
    return LinearGame(
        n, [Coalition.from_members(n, members) for members in obj["generators"]]
    )
