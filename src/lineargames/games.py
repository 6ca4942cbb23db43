"""Linear simple games as filters of the coalitions poset.

A game is stored as its winning bitmap: an int over the 2^n coalition
masks, bit m set iff mask m wins.  The bitmap is a filter (an up-set of the
shift order) that holds the grand coalition and not the empty one.  Games
are equal iff their voter counts and bitmaps are, and each cover move of
the games poset adds or removes one bit.

A cover move of the coalitions poset shifts a whole bitmap.  A cached
per-n table holds one (offset, source bitmap) pair per move: offset 1 from
the masks without voter 1, offset 2^(i-1) from the masks holding voter i
but not voter i+1.  The masks one move above a set B are then the OR of
`(B & source) << offset`, those one move below the OR of
`(B >> offset) & source`.  So the generators (the winners no move reaches
from a winner) and the shift-maximal losers (the nonempty losers no move
leaves the losers from) are bit sets, listed in canonical order on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .coalitions import (
    MAX_VOTERS,
    Coalition,
    CoalitionError,
    canonical_order,
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


@lru_cache(maxsize=None)
def _holding(n: int) -> tuple[int, ...]:
    """Entry i - 1 is the bitmap of the masks that hold voter i: from the
    top, 2^(i-1) set bits and 2^(i-1) clear ones, repeated."""
    return tuple(
        int(("1" * (1 << k) + "0" * (1 << k)) * (1 << (n - 1 - k)), 2) for k in range(n)
    )


@lru_cache(maxsize=None)
def _moves(n: int) -> tuple[tuple[int, int], ...]:
    """The (offset, source bitmap) pair of each cover move on n voters: add
    voter 1 to a mask without it, or move voter k + 1 up to a free k + 2."""
    has = _holding(n)
    return ((1, ~has[0]),) + tuple((1 << k, has[k] & ~has[k + 1]) for k in range(n - 1))


def _generator_set(bits: int, n: int) -> int:
    """The masks of the filter `bits` that cover no mask in it."""
    up = 0
    for offset, source in _moves(n):
        up |= (bits & source) << offset
    return bits & ~up


def _loser_set(bits: int, n: int) -> int:
    """The nonempty masks outside the filter `bits` whose every cover
    successor is in it."""
    losing = (1 << (1 << n)) - 1 ^ bits
    down = 0
    for offset, source in _moves(n):
        down |= losing >> offset & source
    return losing & ~down & ~1


@lru_cache(maxsize=None)
def _positions(n: int) -> dict[int, int]:
    """Position of each mask in `canonical_order(n)`."""
    return {m: p for p, m in enumerate(canonical_order(n))}


def _canonical_masks(bits: int, n: int) -> list[int]:
    """The masks in the bit set `bits`, in canonical order."""
    masks = []
    while bits:
        masks.append((bits & -bits).bit_length() - 1)
        bits &= bits - 1
    return sorted(masks, key=_positions(n).__getitem__)


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
                Coalition(self.n, m)
                for m in _canonical_masks(_generator_set(self._bits, self.n), self.n)
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
        n = self.n
        return [Coalition(n, m) for m in _canonical_masks(_loser_set(self._bits, n), n)]

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
        """S + j wins implies S + i wins, for every S avoiding i and j:
        bit S of `bits >> 2^(j-1)` says whether S + j wins."""
        bits, has = self._bits, _holding(self.n)
        avoiding = ~has[i - 1] & ~has[j - 1]
        return not bits >> (1 << (j - 1)) & ~(bits >> (1 << (i - 1))) & avoiding

    def dummies(self) -> list[int]:
        """Voters appearing in no minimal winning coalition: no winning
        coalition loses when they leave it."""
        bits, has = self._bits, _holding(self.n)
        return [
            i
            for i in range(self.n, 0, -1)
            if not (bits & has[i - 1]) >> (1 << (i - 1)) & ~bits
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
        width = 1 << (m - self.n)
        text = f"{self._bits:0{1 << self.n}b}"
        return LinearGame._from_bitmap(m, int("".join(c * width for c in text), 2))


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
        for g in v.generators  # cached on v: cheaper than the bit set
        # removing the last winner would leave the excluded trivial game
        if bits != 1 << g.mask
    ]


def j_covered(v: LinearGame) -> list[LinearGame]:
    """Games covered by v: add one shift-maximal losing coalition."""
    bits, n = v.winning_bitmap(), v.n
    return [
        LinearGame._from_bitmap(n, bits | 1 << b)
        for b in _canonical_masks(_loser_set(bits, n), n)
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
