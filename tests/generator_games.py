"""Reference copy of the generator-based game construction that
`lineargames.games` used before a game was stored as its winning bitmap.

The code below is kept verbatim: `LinearGame.__init__` drops dominated
generators pairwise with `shift_leq_masks`, `winning_bitmap` tests every
coalition against every generator, and `dual`, `j_covers` and `j_covered`
rebuild each game from a generator list.  The differential
tests in `test_games_differential.py` require the bitmap construction to
agree with this code on every game they build.
"""

from lineargames.coalitions import (
    Coalition,
    cover_predecessors_mask,
    cover_successors_mask,
    empty_coalition,
    shift_leq_masks,
)
from lineargames.games import GameError


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

    def rank(self) -> int:
        """Number of losing coalitions: 2^n - |W|."""
        return (1 << self.n) - self.winning_bitmap().bit_count()

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
