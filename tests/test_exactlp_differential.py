"""Differential tests: the integer simplex against the rational reference.

`fraction_simplex` holds the Fraction tableau the integer one replaced.
Both run Bland's rule on the same columns from the same starting basis, so
they must agree exactly on status, point and optimum, not just on the
optimal value.
"""

from fractions import Fraction
from unittest import mock

from hypothesis import given, settings, strategies as st

from lineargames import build_poset, exactlp
from lineargames.weightedness import polytope_system
from lineargames.exactlp import EQ, LEQ, LT, Constraint, LinearSystem, solve

import fraction_simplex


def reference_solve(system: LinearSystem):
    with mock.patch.object(
        exactlp, "_simplex_solve", fraction_simplex._simplex_solve
    ):
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


@st.composite
def systems(draw):
    nvars = draw(st.integers(1, 4))
    sys = LinearSystem(variables=[f"x{j}" for j in range(nvars)])
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
            coeffs = draw(vector) if kind == "row" else [Fraction(0)] * nvars
            row = (
                coeffs,
                draw(st.sampled_from([LEQ, EQ, LT])),
                draw(coefficients),
            )
        rows.append(row)
        sys.constraints.append(Constraint(tuple(row[0]), row[1], row[2]))
    if draw(st.booleans()):
        for j in range(nvars):  # a box, so most optima are bounded
            bound = draw(st.integers(1, 10))
            sys.leq({f"x{j}": 1}, bound)
            sys.geq({f"x{j}": 1}, -bound)
    sense = draw(st.sampled_from([None, "max", "min"]))
    if sense is not None:
        sys.objective = (tuple(draw(vector)), sense)
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
        sys = polytope_system(v)
        sys.maximize({"q": 1, "w1": -1})
        assert assert_same(sys).feasible


def test_artificials_enter_at_their_rows_scale():
    # Two artificial rows with integer scales 2 and 4.  Seeding an
    # artificial with 1 instead of its row's scale reweights the phase-one
    # costs of the two rows, and Bland's rule then reaches another vertex.
    sys = LinearSystem(variables=["x", "y", "z"])
    sys.eq({"x": Fraction(-1, 2), "y": -1, "z": 1}, -2)
    sys.eq({"x": Fraction(1, 4), "y": Fraction(3, 2), "z": -1}, -1)
    sys.leq({"x": Fraction(-1, 2), "y": -1}, Fraction(2, 3))
    assert assert_same(sys).point == {"x": 8, "y": -2, "z": 0}
