"""Exact geometry of the realization polytope of a weighted game.

The polytope lives in quota-weight space: closed on top facets (winning
hyperplanes), open on bottom facets (losing hyperplanes), with vertical
facets over the weight-equality and zero-weight faces of the simplex.
Every facet decision is a strict-feasibility LP: a constraint is a facet
iff a point exists on its hyperplane with all other generating
constraints strict.

The half-spaces and their LP rows are defined in `weightedness`, which
builds every quota-weight LP; `polytope_constraints` here is the same
half-space list behind a check that the game is weighted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .coalitions import Coalition, format_coalition
from .exactlp import strictly_feasible
from .games import GameError, Hierarchy, LinearGame, game_from_winning_bitmap
from .weightedness import (
    BOTTOM,
    DUMMY_FACE,
    TOP,
    VERTICAL,
    HalfSpace,
    Realization,
    add_halfspace,
    coalition_sums,
    difference_terms,
    generating_halfspaces,
    is_weighted,
    mask_weight,
    polytope_system,
    weight_system,
)


class GenericityError(ValueError):
    """Raised when a weight vector has tied coalition sums."""

    def __init__(self, a: Coalition, b: Coalition):
        self.tied_pair = (a, b)
        super().__init__(
            f"weights not generic: coalitions {format_coalition(a)} and "
            f"{format_coalition(b)} have equal weight"
        )


@dataclass(frozen=True)
class PolytopeReport:
    game: LinearGame
    top_facets: tuple[Coalition, ...]
    bottom_facets: tuple[Coalition, ...]
    vertical_facets: tuple[HalfSpace, ...]
    witness_points: dict  # HalfSpace -> (q, weights) on that hyperplane
    classes_k: int

    @property
    def facet_count(self) -> int:
        return (
            len(self.top_facets) + len(self.bottom_facets) + len(self.vertical_facets)
        )

    @property
    def degree_d(self) -> int:
        """Top plus bottom facet count: the game's degree in the weighted
        games poset (counting the trivial boundary neighbors at the two
        poset extremes)."""
        return len(self.top_facets) + len(self.bottom_facets)

    def to_json(self) -> dict:
        frac = lambda f: [f.numerator, f.denominator]
        facets = []
        for hs, (q, ws) in self.witness_points.items():
            entry = {"kind": hs.kind}
            if hs.coalition is not None:
                entry["coalition"] = list(hs.coalition.members())
            if hs.index is not None:
                entry["index"] = hs.index
            entry["witness"] = {
                "q": frac(q),
                "w": [frac(w) for w in reversed(ws)],
            }
            facets.append(entry)
        from .games import game_to_json

        return {
            "game": game_to_json(self.game),
            "facets": facets,
            "counts": {
                "top": len(self.top_facets),
                "bottom": len(self.bottom_facets),
                "vertical": len(self.vertical_facets),
                "total": self.facet_count,
                "n": self.game.n,
                "k": self.classes_k,
                "d": self.degree_d,
            },
        }


def polytope_constraints(v: LinearGame) -> list[HalfSpace]:
    """The irredundant generating half-spaces of the realization polytope."""
    if is_weighted(v) is None:
        raise GameError(f"{v} is unweighted: empty polytope")
    return generating_halfspaces(v)


def classify_facets(v: LinearGame) -> PolytopeReport:
    """Facet classification by relative-interior witness LPs.

    A generating constraint is a facet iff its hyperplane meets the
    polytope's closure with all other generating constraints strict; the
    polytope is full-dimensional, so this is exact.
    """
    constraints = polytope_constraints(v)
    tops, bottoms, verticals = [], [], []
    witnesses = {}
    for candidate in constraints:
        sys = weight_system(v.n)
        add_halfspace(sys, candidate, "equal")
        for other in constraints:
            if other is not candidate:
                add_halfspace(sys, other, "strict")
        point = strictly_feasible(sys)
        if point is None:
            continue
        witnesses[candidate] = (point[0], point[1:])
        if candidate.kind == TOP:
            tops.append(candidate.coalition)
        elif candidate.kind == BOTTOM:
            bottoms.append(candidate.coalition)
        else:
            verticals.append(candidate)
    return PolytopeReport(
        game=v,
        top_facets=tuple(tops),
        bottom_facets=tuple(bottoms),
        vertical_facets=tuple(verticals),
        witness_points=witnesses,
        classes_k=v.hierarchy().k,
    )


def facets_containing_point(
    report: PolytopeReport, q: Fraction, weights: tuple[Fraction, ...]
) -> list[HalfSpace]:
    """Facet hyperplanes on which the given quota-weight point lies."""
    out = []
    for a in report.top_facets:
        if q == mask_weight(weights, a.mask):
            out.append(HalfSpace(TOP, coalition=a))
    for b in report.bottom_facets:
        if q == mask_weight(weights, b.mask):
            out.append(HalfSpace(BOTTOM, coalition=b))
    for hs in report.vertical_facets:
        if hs.kind == VERTICAL:
            if weights[hs.index] == weights[hs.index - 1]:
                out.append(hs)
        elif weights[0] == 0:
            out.append(hs)
    return out


# -- footprints and hierarchies ----------------------------------------------


def footprint_hierarchy(v: LinearGame) -> Hierarchy:
    """Hierarchy via the smallest subsimplex meeting the footprint.

    Candidate subsimplices are tried in increasing dimension; each is an
    equality pattern on the weights (classes equal within parts, trailing
    voters zero) tested jointly with the polytope constraints.
    """
    if is_weighted(v) is None:
        raise GameError(f"{v} is unweighted: empty footprint")
    n = v.n
    for k in range(1, n + 1):
        for vertices in itertools.combinations(range(1, n + 1), k):
            sys = polytope_system(v)
            _add_subsimplex_equalities(sys, n, vertices)
            if strictly_feasible(sys) is not None:
                return _hierarchy_from_vertices(n, vertices)
    raise GameError(f"no subsimplex meets the footprint of {v}")  # unreachable


def _add_subsimplex_equalities(sys, n, vertices) -> None:
    # vertices (i_1 < ... < i_k): the strongest i_1 voters share a weight,
    # the next i_2 - i_1 share one, ...; voters beyond i_k weigh zero.
    bounds = [0] + list(vertices)
    for lo, hi in zip(bounds, bounds[1:]):
        # voters n-lo, ..., n-hi+1 form one class
        for t in range(n - hi + 1, n - lo):
            sys.eq(difference_terms(n, 1 << t, 1 << (t - 1)), 0)
    for t in range(1, n - vertices[-1] + 1):
        sys.eq(difference_terms(n, 1 << (t - 1)), 0)


def _hierarchy_from_vertices(n, vertices) -> Hierarchy:
    classes = []
    bounds = [0] + list(vertices)
    for lo, hi in zip(bounds, bounds[1:]):
        classes.append(tuple(range(n - lo, n - hi, -1)))
    dummies = tuple(range(n - vertices[-1], 0, -1))
    if dummies:
        classes.append(dummies)
    return Hierarchy(tuple(classes), dummies)


# -- vertical chains and corners ----------------------------------------------


def vertical_chain(weights, n: int) -> list[LinearGame]:
    """Games traversed by raising the quota over a generic weight vector.

    `weights` is given strongest voter first.  Returns the 2^n - 1 games
    from the weakest-voter game to consensus; consecutive games differ by
    one coalition switching from winning to losing.
    """
    ws = tuple(Fraction(w) for w in weights)
    if len(ws) != n:
        raise GameError(f"expected {n} weights, got {len(ws)}")
    per_voter = tuple(reversed(ws))  # per_voter[i-1] = voter i
    Realization(Fraction(1), per_voter)  # validates normalization and order
    sums = coalition_sums(per_voter)
    seen: dict[Fraction, int] = {}
    for m, s in enumerate(sums):
        if s in seen:
            raise GenericityError(Coalition(n, seen[s]), Coalition(n, m))
        seen[s] = m
    order = sorted(range(1 << n), key=lambda m: sums[m])
    games = []
    bits = (1 << (1 << n)) - 1  # all coalitions winning, then peel upward
    for m in order[:-1]:  # crossing h_m turns coalition m losing
        bits &= ~(1 << m)
        games.append(game_from_winning_bitmap(bits, n))
    return games


def quota_intervals(weights, n: int) -> list[tuple[Fraction, Fraction]]:
    """Half-open quota intervals (lo, hi] matching vertical_chain's games."""
    ws = tuple(Fraction(w) for w in weights)
    sums = sorted(coalition_sums(tuple(reversed(ws))))
    return list(zip(sums, sums[1:]))


def symmetric_games_above_corner(n: int, j: int):
    """The j symmetric games above corner p_j, with their quota intervals."""
    if not 1 <= j <= n:
        raise GameError(f"corner index {j} outside 1..{n}")
    out = []
    for t in range(1, j + 1):
        gen = Coalition.from_members(n, range(n - j + 1, n - j + t + 1))
        game = LinearGame(n, [gen])
        out.append((game, (Fraction(t - 1, j), Fraction(t, j))))
    return out


# -- dual reflection -----------------------------------------------------------


def interior_point(v: LinearGame):
    """A strictly interior quota-weight point of the realization polytope."""
    sys = weight_system(v.n)
    for hs in polytope_constraints(v):
        add_halfspace(sys, hs, "strict")
    sys.lt(difference_terms(v.n, 0, q=1), 1)  # q < 1
    point = strictly_feasible(sys)
    if point is None:
        raise GameError(f"{v} has no interior realization")
    return point[0], point[1:]


def _strictly_inside(v: LinearGame, q: Fraction, ws) -> bool:
    if not 0 < q < 1:
        return False
    if any(q >= mask_weight(ws, g.mask) for g in v.generators):
        return False
    if any(q <= mask_weight(ws, b.mask) for b in v.shift_maximal_losing()):
        return False
    if any(ws[i] >= ws[i + 1] for i in range(v.n - 1)) or ws[0] <= 0:
        return False
    return True


def dual_reflection_check(v: LinearGame, sample_count: int = 8) -> bool:
    """Sampled check that reflecting the interior about q = 1/2 lands in
    the dual's interior; for self-dual games also checks that top and
    bottom facet coalitions swap under complementation."""
    dual = v.dual()
    if is_weighted(dual) is None:
        return False
    q0, w0 = interior_point(v)
    samples = [(q0, w0)]
    report = classify_facets(v)
    for q1, w1 in report.witness_points.values():
        if len(samples) >= sample_count:
            break
        mid_q = (q0 + q1) / 2
        mid_w = tuple((a + b) / 2 for a, b in zip(w0, w1))
        samples.append((mid_q, mid_w))
    for q, ws in samples:
        if not _strictly_inside(v, q, ws):
            return False
        if not _strictly_inside(dual, 1 - q, ws):
            return False
    if dual == v:
        tops = {a.complement().mask for a in report.top_facets}
        bottoms = {b.mask for b in report.bottom_facets}
        if tops != bottoms:
            return False
    return True
