"""Linear simple games as filters of the coalitions poset.

A game is stored by its generators: the antichain of shift-minimal winning
coalitions.  The winning set is the up-set of the generators, so the game
is monotone by construction, the grand coalition always wins and the empty
coalition always loses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .coalitions import (
    Coalition,
    CoalitionError,
    cover_predecessors_mask,
    cover_successors_mask,
    empty_coalition,
    format_coalition,
    grand_coalition,
    parse_coalition,
    shift_leq_masks,
)


class GameError(ValueError):
    """Raised on invalid game construction or queries."""


def _canonical_key(n: int, mask: int):
    return (Coalition(n, mask).rank(), Coalition(n, mask).members())


class LinearGame:
    """A linear simple game given by its shift-minimal winning coalitions."""

    __slots__ = ("n", "generators", "_winning", "_hash")

    def __init__(self, n: int, generators) -> None:
        coals = [g if isinstance(g, Coalition) else Coalition(n, g) for g in generators]
        if not coals:
            raise GameError("a game needs at least one generator")
        for g in coals:
            if g.n != n:
                raise GameError(f"generator {g} has voter count {g.n}, expected {n}")
        # Drop dominated generators so the set is an antichain.
        minimal = []
        for g in coals:
            if any(
                h.mask != g.mask and shift_leq_masks(h.mask, g.mask, n) for h in coals
            ):
                continue
            if g not in minimal:
                minimal.append(g)
        if minimal == [empty_coalition(n)]:
            raise GameError("the empty coalition cannot win")
        minimal.sort(key=lambda g: _canonical_key(n, g.mask))
        self.n = n
        self.generators = tuple(minimal)
        self._winning = None
        self._hash = hash((n, self.generators))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearGame)
            and self.n == other.n
            and self.generators == other.generators
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return format_game(self)

    def __repr__(self) -> str:
        return f"LinearGame({self.n}, {format_game(self)!r})"

    # -- winning-set machinery ------------------------------------------

    def winning_bitmap(self) -> int:
        """Bitmap over all 2^n coalition masks; bit m set iff mask m wins.

        Computed once per game by checking each coalition against the
        generators; cached (games are immutable).
        """
        if self._winning is None:
            n = self.n
            gens = [g.mask for g in self.generators]
            bits = 0
            for m in range(1 << n):
                if any(shift_leq_masks(g, m, n) for g in gens):
                    bits |= 1 << m
            self._winning = bits
        return self._winning

    def is_winning(self, a: Coalition) -> bool:
        if a.n != self.n:
            raise GameError(f"coalition over {a.n} voters in {self.n}-voter game")
        return any(
            shift_leq_masks(g.mask, a.mask, self.n) for g in self.generators
        )

    def winning_coalitions(self) -> list[Coalition]:
        bits = self.winning_bitmap()
        return [Coalition(self.n, m) for m in range(1 << self.n) if bits >> m & 1]

    def rank(self) -> int:
        """Number of losing coalitions: 2^n - |W|."""
        return (1 << self.n) - self.winning_bitmap().bit_count()

    # -- structure -------------------------------------------------------

    def minimal_winning(self) -> list[Coalition]:
        """Winning coalitions no single-voter removal of which still wins."""
        bits = self.winning_bitmap()
        out = []
        for m in range(1, 1 << self.n):
            if not bits >> m & 1:
                continue
            ok = True
            for i in range(self.n):
                if m >> i & 1 and bits >> (m & ~(1 << i)) & 1:
                    ok = False
                    break
            if ok:
                out.append(Coalition(self.n, m))
        out.sort(key=lambda c: _canonical_key(self.n, c.mask))
        return out

    def shift_maximal_losing(self) -> list[Coalition]:
        """Shift-maximal elements of the losing ideal, excluding the empty set.

        An empty result means the empty coalition is the only loser (the
        game just below the excluded all-winning boundary).
        """
        bits = self.winning_bitmap()
        n = self.n
        out = []
        for m in range(1, 1 << n):
            if bits >> m & 1:
                continue
            if all(bits >> up & 1 for up in cover_successors_mask(m, n)):
                out.append(Coalition(n, m))
        out.sort(key=lambda c: _canonical_key(n, c.mask))
        return out

    def dual(self) -> "LinearGame":
        """The dual game: A wins in the dual iff its complement loses here."""
        bits = self.winning_bitmap()
        n = self.n
        full = (1 << n) - 1
        dual_bits = 0
        for m in range(1 << n):
            if not bits >> (full ^ m) & 1:
                dual_bits |= 1 << m
        # Shift-minimal elements of the dual winning set.
        gens = [
            Coalition(n, m)
            for m in range(1, 1 << n)
            if dual_bits >> m & 1
            and not any(
                dual_bits >> lo & 1 for lo in cover_predecessors_mask(m, n)
            )
        ]
        return LinearGame(n, gens)

    def classify(self) -> dict:
        """Proper / strong / self-dual verdicts over all complement pairs."""
        bits = self.winning_bitmap()
        full = (1 << self.n) - 1
        proper = True
        strong = True
        for m in range(1 << self.n):
            a = bits >> m & 1
            b = bits >> (full ^ m) & 1
            if a and b:
                proper = False
            if not a and not b:
                strong = False
            if not proper and not strong:
                break
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
        bits = self.winning_bitmap()
        bi, bj = 1 << (i - 1), 1 << (j - 1)
        rest = [k for k in range(self.n) if k not in (i - 1, j - 1)]
        for sub in range(1 << len(rest)):
            s = 0
            for t, k in enumerate(rest):
                if sub >> t & 1:
                    s |= 1 << k
            if bits >> (s | bj) & 1 and not bits >> (s | bi) & 1:
                return False
        return True

    def dummies(self) -> list[int]:
        """Voters appearing in no minimal winning coalition."""
        used = 0
        for c in self.minimal_winning():
            used |= c.mask
        return [i for i in range(self.n, 0, -1) if not used >> (i - 1) & 1]

    def hierarchy(self) -> "Hierarchy":
        return hierarchy(self)

    def induce(self, m: int) -> "LinearGame":
        """The game on m >= n voters obtained by adding m - n dummies."""
        if m < self.n:
            raise GameError(f"cannot induce down from {self.n} to {m} voters")
        shift = m - self.n
        return LinearGame(m, [Coalition(m, g.mask << shift) for g in self.generators])


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
    out = []
    bits = v.winning_bitmap()
    for g in v.generators:
        remaining = bits & ~(1 << g.mask)
        if remaining == 0:
            continue  # removing the last winner would leave the excluded trivial game
        gens = _minimal_of_bitmap(remaining, v.n)
        out.append(LinearGame(v.n, gens))
    return out


def j_covered(v: LinearGame) -> list[LinearGame]:
    """Games covered by v: add one shift-maximal losing coalition."""
    out = []
    for b in v.shift_maximal_losing():
        out.append(LinearGame(v.n, list(v.generators) + [b]))
    return out


def _minimal_of_bitmap(bits: int, n: int) -> list[Coalition]:
    return [
        Coalition(n, m)
        for m in range(1, 1 << n)
        if bits >> m & 1
        and not any(bits >> lo & 1 for lo in cover_predecessors_mask(m, n))
    ]


def game_from_winning_bitmap(bits: int, n: int) -> LinearGame:
    """Rebuild a game from an explicit winning bitmap (must be a filter)."""
    if bits & 1:
        raise GameError("the empty coalition cannot win")
    if not bits >> ((1 << n) - 1) & 1:
        raise GameError("the grand coalition must win")
    return LinearGame(n, _minimal_of_bitmap(bits, n))


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
