"""Deciding weightedness of linear games.

A game is weighted iff weights and a quota exist with every generator at
or above the quota and every shift-maximal losing coalition strictly
below it.  That system is decided by the exact LP engine; a positive
verdict comes with an exact realization, a negative one can be
complemented by a trade-robustness failure certificate.

Every quota-weight LP in the package is built here, from the generating
half-spaces of the realization polytope.  `weight_system` declares q,
w1..wn and w1 + ... + wn = 1; `polytope_system` adds one row per
`HalfSpace`; the facet, footprint and chain LPs add the same rows in
equal or strict form.  No row bounds q itself: the dummy face and the
verticals make every weight nonnegative, so q <= w_A <= 1 follows from a
top row and q > w_B >= 0 from a bottom row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .coalitions import Coalition, canonical_order, empty_coalition, format_coalition
from .exactlp import LinearSystem, LPError, strictly_feasible
from .games import GameError, LinearGame, format_game, game_from_winning_bitmap


@dataclass(frozen=True)
class Realization:
    """An exact quota and normalized ordered weight vector.

    `weights[i-1]` is the weight of voter i (so the tuple is ascending in
    voter index, descending weights read right to left in display form).
    """

    q: Fraction
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if not 0 < self.q <= 1:
            raise GameError(f"quota {self.q} outside (0, 1]")
        if sum(self.weights) != 1:
            raise GameError("weights must sum to 1")
        if self.weights[0] < 0:
            raise GameError("weights must be nonnegative")
        if any(
            self.weights[i] > self.weights[i + 1]
            for i in range(len(self.weights) - 1)
        ):
            raise GameError("weights must be ascending in voter index")

    @property
    def n(self) -> int:
        return len(self.weights)

    def coalition_weight(self, a: Coalition) -> Fraction:
        return sum((self.weights[i - 1] for i in a.members()), Fraction(0))

    def __str__(self) -> str:
        return format_realization(self)


def format_realization(r: Realization) -> str:
    ws = ",".join(str(w) for w in reversed(r.weights))
    return f"({r.q}: {ws})"


def parse_realization(text: str) -> Realization:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise GameError(f"realization text must be (q: w_n,...,w_1), got {text!r}")
    head, _, tail = text[1:-1].partition(":")
    if not tail:
        raise GameError(f"missing ':' in realization {text!r}")
    try:
        q = Fraction(head.strip())
        ws = tuple(Fraction(tok.strip()) for tok in tail.split(","))
    except ZeroDivisionError:
        raise GameError(f"zero denominator in realization {text!r}") from None
    return Realization(q, tuple(reversed(ws)))


def realization_to_json(r: Realization) -> dict:
    frac = lambda f: [f.numerator, f.denominator]
    return {"q": frac(r.q), "w": [frac(w) for w in reversed(r.weights)]}


def normalized_realization(quota, raw_weights) -> Realization:
    """Scale an unnormalized integer/rational certificate to total weight 1.

    `raw_weights` is given strongest voter first, matching the paper's
    (q: w_n, ..., w_1) display order.
    """
    ws = [Fraction(w) for w in raw_weights]
    total = sum(ws)
    return Realization(Fraction(quota) / total, tuple(w / total for w in reversed(ws)))


# -- the realization polytope and its LP -------------------------------------

TOP = "top"
BOTTOM = "bottom"
VERTICAL = "vertical"
DUMMY_FACE = "dummy_face"


@dataclass(frozen=True)
class HalfSpace:
    """One generating constraint of a realization polytope.

    top(A): q <= w_A (closed);  bottom(B): q > w_B (open);
    vertical(i): w_{i+1} >= w_i;  dummy_face: w_1 >= 0.
    """

    kind: str
    coalition: Optional[Coalition] = None
    index: Optional[int] = None

    def describe(self) -> str:
        if self.kind == TOP:
            return f"top q = w_{format_coalition(self.coalition)}"
        if self.kind == BOTTOM:
            if self.coalition.mask == 0:
                return "bottom q = 0"
            return f"bottom q = w_{format_coalition(self.coalition)}"
        if self.kind == VERTICAL:
            return f"vertical w_{self.index + 1} = w_{self.index}"
        return "vertical w_1 = 0"

    def terms(self) -> dict[str, int]:
        """The constraint read as terms >= 0 (terms > 0 for a bottom)."""
        if self.kind == TOP:
            return difference_terms(self.coalition.mask, q=-1)
        if self.kind == BOTTOM:
            return difference_terms(0, self.coalition.mask, q=1)
        if self.kind == VERTICAL:
            return difference_terms(1 << self.index, 1 << (self.index - 1))
        return difference_terms(1)


def difference_terms(plus: int, minus: int = 0, q: int = 0) -> dict[str, int]:
    """LP terms of w_A - w_B + q * q for coalition masks A and B."""
    terms = {"q": q} if q else {}
    i = 0
    while (plus | minus) >> i:
        c = (plus >> i & 1) - (minus >> i & 1)
        if c:
            terms[f"w{i + 1}"] = c
        i += 1
    return terms


def simplex_halfspaces(n: int) -> list[HalfSpace]:
    """The vertical and dummy faces: w_n >= ... >= w_1 >= 0."""
    out = [HalfSpace(VERTICAL, index=i) for i in range(1, n)]
    out.append(HalfSpace(DUMMY_FACE))
    return out


def generating_halfspaces(v: LinearGame) -> list[HalfSpace]:
    """Tops over the generators, bottoms under the shift-maximal losing
    coalitions (or q > 0 when only the empty coalition loses), then the
    simplex faces."""
    out = [HalfSpace(TOP, coalition=g) for g in v.generators]
    losers = v.shift_maximal_losing() or [empty_coalition(v.n)]
    out.extend(HalfSpace(BOTTOM, coalition=b) for b in losers)
    return out + simplex_halfspaces(v.n)


def weight_system(n: int) -> LinearSystem:
    """Variables q, w1..wn and the normalization w1 + ... + wn = 1."""
    sys = LinearSystem()
    sys.var("q")
    for i in range(1, n + 1):
        sys.var(f"w{i}")
    sys.eq(difference_terms((1 << n) - 1), 1)
    return sys


def add_halfspace(sys: LinearSystem, hs: HalfSpace, mode: str = "weak") -> None:
    """mode 'weak' adds hs as written, 'strict' makes it strict, 'equal'
    puts the point on its hyperplane."""
    terms = hs.terms()
    if mode == "equal":
        sys.eq(terms, 0)
    elif mode == "strict" or hs.kind == BOTTOM:
        sys.gt(terms, 0)
    else:
        sys.geq(terms, 0)


def polytope_system(v: LinearGame) -> LinearSystem:
    """The realization polytope of v as an LP system over q, w1..wn."""
    sys = weight_system(v.n)
    for hs in generating_halfspaces(v):
        add_halfspace(sys, hs)
    return sys


def point_weights(point: dict[str, Fraction], n: int) -> tuple[Fraction, ...]:
    return tuple(point[f"w{i}"] for i in range(1, n + 1))


_weighted_cache: dict[LinearGame, Optional[Realization]] = {}


def is_weighted(v: LinearGame) -> Optional[Realization]:
    """An exact realization if the game is weighted, else None.

    Only generators (weight >= quota) and shift-maximal losing coalitions
    (weight < quota) enter the LP; monotonicity makes the rest redundant.
    """
    if v in _weighted_cache:
        return _weighted_cache[v]
    point = strictly_feasible(polytope_system(v))
    result = None
    if point is not None:
        result = Realization(point["q"], point_weights(point, v.n))
        _check_realization(v, result)
    _weighted_cache[v] = result
    return result


def _check_realization(v: LinearGame, r: Realization) -> None:
    if not verify_realization(v, r):
        raise LPError(f"LP point {r} does not realize {format_game(v)}")


def verify_realization(v: LinearGame, r: Realization) -> bool:
    """Exhaustive check: weight-at-or-above-quota matches winning exactly.

    Runs in integers: q and the weights are scaled to a common denominator
    once, and each coalition's weight is one smaller coalition's plus the
    weight of its lowest voter.
    """
    if r.n != v.n:
        raise GameError(f"realization over {r.n} voters for {v.n}-voter game")
    d = lcm(r.q.denominator, *(w.denominator for w in r.weights))
    q = r.q.numerator * (d // r.q.denominator)
    weights = [w.numerator * (d // w.denominator) for w in r.weights]
    sums = [0] * (1 << v.n)
    for m in range(1, 1 << v.n):
        low = m & -m
        sums[m] = sums[m ^ low] + weights[low.bit_length() - 1]
    realized = "".join("1" if s >= q else "0" for s in reversed(sums))
    return int(realized, 2) == v.winning_bitmap()


# -- trade robustness --------------------------------------------------------


@dataclass(frozen=True)
class TradeCertificate:
    """A trade-robustness failure: winning multiset X rearranged into an
    all-losing multiset Y with per-voter counts conserved."""

    winning_list: tuple[Coalition, ...]
    losing_list: tuple[Coalition, ...]

    def __str__(self) -> str:
        xs = ", ".join(format_coalition(c) for c in self.winning_list)
        ys = ", ".join(format_coalition(c) for c in self.losing_list)
        return f"X = {{{xs}}} -> Y = {{{ys}}}"


def check_certificate(v: LinearGame, c: TradeCertificate) -> bool:
    if len(c.winning_list) != len(c.losing_list) or not c.winning_list:
        return False
    counts_x = [0] * v.n
    counts_y = [0] * v.n
    for a in c.winning_list:
        if a.n != v.n or not v.is_winning(a):
            return False
        for i in a.members():
            counts_x[i - 1] += 1
    for b in c.losing_list:
        if b.n != v.n or v.is_winning(b):
            return False
        for i in b.members():
            counts_y[i - 1] += 1
    return counts_x == counts_y


def find_trade_failure(
    v: LinearGame, max_coalitions: int = 3
) -> Optional[TradeCertificate]:
    """Search for a trade failure with |X| = |Y| <= max_coalitions.

    Complete at the given bound; None proves nothing (is_weighted does).
    Search order: increasing |X|, then coalition rank order, so results
    are deterministic.
    """
    if max_coalitions < 2:
        raise GameError("trade search needs a bound of at least 2")
    n = v.n
    bits = v.winning_bitmap()
    winning = [m for m in canonical_order(n) if bits >> m & 1]
    losing = [m for m in canonical_order(n) if not bits >> m & 1]
    for j in range(2, max_coalitions + 1):
        for xs in itertools.combinations_with_replacement(winning, j):
            counts = [0] * n
            for m in xs:
                for i in range(n):
                    counts[i] += m >> i & 1
            ys = _losing_rearrangement(counts, j, losing, bits, n)
            if ys is not None:
                cert = TradeCertificate(
                    tuple(Coalition(n, m) for m in xs),
                    tuple(Coalition(n, m) for m in ys),
                )
                if not check_certificate(v, cert):
                    raise LPError(f"trade search produced a bad certificate {cert}")
                return cert
    return None


def _losing_rearrangement(counts, j, losing, bits, n):
    """DFS for j losing coalitions with the given per-voter counts."""

    def rec(remaining, slots, start):
        if slots == 0:
            return [] if all(c == 0 for c in remaining) else None
        if any(c > slots for c in remaining):
            return None
        support = 0
        for i in range(n):
            if remaining[i] > 0:
                support |= 1 << i
        must = 0  # voters that must appear in every remaining coalition
        for i in range(n):
            if remaining[i] == slots:
                must |= 1 << i
        for idx in range(start, len(losing)):
            m = losing[idx]
            if m & ~support or must & ~m:
                continue
            nxt = remaining[:]
            for i in range(n):
                if m >> i & 1:
                    nxt[i] -= 1
            sub = rec(nxt, slots - 1, idx)
            if sub is not None:
                return [m] + sub
        return None

    return rec(list(counts), j, 0)


# -- the footprint method ----------------------------------------------------


def footprint_weighted_cover(v: LinearGame, a: Coalition):
    """Decide weightedness of the cover u of v with W_u = W_v minus {a}.

    Feasibility of: some weight in the footprint of P_v has w_a strictly
    below every generator of u.  Returns (True, Realization-of-u) or
    (False, None).
    """
    if a not in v.generators:
        raise GameError(f"{a} is not a generator of {v}")
    if is_weighted(v) is None:
        raise GameError(f"{v} is not weighted")
    remaining = v.winning_bitmap() & ~(1 << a.mask)
    if remaining == 0:
        raise GameError("removing the only winning coalition leaves no game")
    u = game_from_winning_bitmap(remaining, v.n)
    sys = polytope_system(v)
    for g in u.generators:
        sys.lt(difference_terms(a.mask, g.mask), 0)  # w_a - w_g < 0
    point = strictly_feasible(sys)
    if point is None:
        return False, None
    weights = point_weights(point, v.n)
    w_a = sum(weights[i - 1] for i in a.members())
    w_min = min(
        sum(weights[i - 1] for i in g.members()) for g in u.generators
    )
    realization = Realization((w_a + w_min) / 2, weights)
    _check_realization(u, realization)
    return True, realization


def footprint_weighted_covered(u: LinearGame, b: Coalition):
    """Decide weightedness of the game below u obtained by letting b win.

    Mirror of footprint_weighted_cover: some weight in the footprint of
    P_u must put w_b strictly above every shift-maximal losing coalition
    of the lower game.
    """
    if b not in u.shift_maximal_losing():
        raise GameError(f"{b} is not shift-maximal losing in {u}")
    if is_weighted(u) is None:
        raise GameError(f"{u} is not weighted")
    v = game_from_winning_bitmap(u.winning_bitmap() | 1 << b.mask, u.n)
    sys = polytope_system(u)
    lower_losers = v.shift_maximal_losing()
    for c in lower_losers:
        sys.gt(difference_terms(b.mask, c.mask), 0)  # w_b - w_c > 0
    if not lower_losers:
        sys.gt(difference_terms(b.mask), 0)  # only the empty coalition loses below b
    point = strictly_feasible(sys)
    if point is None:
        return False, None
    weights = point_weights(point, u.n)
    coal_w = lambda c: sum(weights[i - 1] for i in c.members())
    w_top = min(coal_w(g) for g in v.generators)
    losers = v.shift_maximal_losing()
    w_low = max((coal_w(c) for c in losers), default=Fraction(0))
    realization = Realization((w_top + w_low) / 2, weights)
    _check_realization(v, realization)
    return True, realization
