"""Differential tests: the integer simplex against the rational reference.

`fraction_simplex` holds the Fraction tableau the integer one replaced.
Both run Bland's rule on the same columns from the same starting basis, so
they must agree exactly on the verdict and on the point, not just on
feasibility.
"""

from fractions import Fraction
from math import lcm
from unittest import mock

from hypothesis import given, settings, strategies as st

from lineargames import build_poset, exactlp
from lineargames.weightedness import (
    add_halfspace,
    generating_halfspaces,
    polytope_system,
    weight_system,
)
from lineargames.exactlp import EQ, LEQ, LT, LinearSystem, LPError, solve

import fraction_simplex


def reference_simplex(nvars, rows, margin):
    """`exactlp._simplex_solve`'s contract over the reference tableau."""
    objective = None
    if margin:
        objective = ((0,) * (nvars - 1) + (1,), "max")
    status, point, _ = fraction_simplex._simplex_solve(nvars, rows, objective)
    if status == "unbounded":
        raise LPError("phase two unbounded on a capped margin")
    return point if status == "feasible" else None


def reference_solve(system: LinearSystem):
    with mock.patch.object(exactlp, "_simplex_solve", reference_simplex):
        return solve(system)


def assert_same(system: LinearSystem):
    got, want = solve(system), reference_solve(system)
    assert got == want, (system, got, want)
    return got


# Small values make ties, degeneracy and redundancy likely; huge ones
# check that nothing is rounded or truncated on the way to integer rows.
coefficients = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.builds(
        Fraction, st.integers(-(10**30), 10**30), st.integers(1, 7**20)
    ),
)


def integer_row(coeffs, rhs):
    """The rational row `coeffs . x ? rhs` times the lcm of its coefficient
    denominators: `int` coefficients, the rhs still a Fraction."""
    k = lcm(*(a.denominator for a in coeffs))
    return [int(a * k) for a in coeffs], rhs * k


@st.composite
def systems(draw):
    nvars = draw(st.integers(1, 4))
    sys = LinearSystem(nvars)
    vector = st.lists(coefficients, min_size=nvars, max_size=nvars)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["row", "zero", "copy"]))
        if kind == "copy" and rows:
            # A redundant row: a positive multiple of an earlier one.
            coeffs, rel, rhs = draw(st.sampled_from(rows))
            k = draw(st.integers(1, 4))
            row = ([a * k for a in coeffs], rel, rhs * k)
        else:
            if kind == "row":
                coeffs, rhs = integer_row(draw(vector), draw(coefficients))
            else:
                coeffs, rhs = [0] * nvars, draw(coefficients)
            row = (coeffs, draw(st.sampled_from([LEQ, EQ, LT])), rhs)
        rows.append(row)
        sys.add(*row)
    if draw(st.booleans()):
        for j in range(nvars):  # a box, so the region is bounded
            bound = draw(st.integers(1, 10))
            e = [0] * nvars
            e[j] = 1
            sys.leq(e, bound)
            sys.leq([-a for a in e], bound)
    return sys


@settings(max_examples=400, deadline=None)
@given(systems())
def test_random_systems_match_reference(system):
    assert_same(system)


def test_polytope_systems_of_j5_match_reference():
    games = build_poset(5).nodes
    assert len(games) == 117
    for v in games:
        result = assert_same(polytope_system(v))
        assert result.feasible  # every game on 5 voters is weighted
        # The same half-spaces all strict: many strict rows in the margin
        # pass, as in `interior_point`.
        sys = weight_system(v.n)
        for hs in generating_halfspaces(v):
            add_halfspace(sys, hs, "strict")
        assert assert_same(sys).feasible


def test_artificials_enter_at_their_rows_scale():
    # Two artificial rows with scales 2 and 3, from their rhs denominators.
    # Seeding an artificial with 1 instead of its row's scale reweights the
    # phase-one costs of the two rows, and Bland's rule then reaches
    # another vertex.
    sys = LinearSystem(3)
    sys.eq([2, -2, 0], Fraction(-3, 2))
    sys.eq([2, 2, 2], Fraction(2, 3))
    sys.leq([2, -1, 0], 0)
    assert assert_same(sys).point == (Fraction(-5, 24), Fraction(13, 24), 0)
