import random
from fractions import Fraction

import pytest

from lineargames import LinearSystem, LPError, solve, strictly_feasible
from lineargames.exactlp import EQ, LEQ, LT

from oracles import lp_vertex_oracle


def geq(sys, coeffs, rhs):
    sys.leq([-a for a in coeffs], -rhs)


def gt(sys, coeffs, rhs):
    sys.lt([-a for a in coeffs], -rhs)


def box(sys, bound=10):
    """|x_j| <= bound for every column, so feasible regions are polytopes."""
    for j in range(sys.ncols):
        e = [0] * sys.ncols
        e[j] = 1
        sys.leq(e, bound)
        geq(sys, e, -bound)


def satisfies(point, c) -> bool:
    lhs = sum(a * x for a, x in zip(c.coeffs, point))
    if c.rel == LEQ:
        return lhs <= c.rhs
    if c.rel == LT:
        return lhs < c.rhs
    return lhs == c.rhs


class TestBasics:
    def test_strict_contradiction(self):
        sys = LinearSystem(1)
        sys.lt([1], 0)
        gt(sys, [1], 0)
        assert solve(sys).status == "infeasible"
        assert strictly_feasible(sys) is None

    def test_weak_boundary_vs_strict(self):
        sys = LinearSystem(1)
        sys.leq([1], 0)
        geq(sys, [1], 0)
        assert solve(sys).point == (0,)
        sys2 = LinearSystem(1)
        sys2.leq([1], 0)
        gt(sys2, [1], 0)
        assert solve(sys2).status == "infeasible"

    def test_strict_point_is_strict(self):
        sys = LinearSystem(2)
        sys.eq([1, 1], 1)
        gt(sys, [1, -1], 0)
        gt(sys, [0, 1], 0)
        point = strictly_feasible(sys)
        assert point is not None
        a, b = point
        assert a + b == 1
        assert a > b > 0

    def test_equality_only(self):
        sys = LinearSystem(2)
        sys.eq([1, 1], 3)
        sys.eq([1, -1], 1)
        res = solve(sys)
        assert res.point == (2, 1)

    def test_free_variables_go_negative(self):
        sys = LinearSystem(1)
        sys.leq([1], -5)
        res = solve(sys)
        assert res.feasible and res.point[0] <= -5

    def test_arity_validation(self):
        sys = LinearSystem(2)
        with pytest.raises(LPError):
            sys.leq([1], 0)
        assert sys.constraints == []

    def test_unknown_variable_rejected(self):
        # A coefficient for a column past the declared count.
        sys = LinearSystem(2)
        with pytest.raises(LPError):
            sys.add([1, 0, 1], LEQ, 0)

    def test_declare_after_rows_rejected(self):
        # The column count is fixed: once rows exist, a row for a further
        # column is refused and leaves the system as it was.
        sys = LinearSystem(1)
        sys.leq([1], 0)
        with pytest.raises(LPError):
            sys.leq([1, 1], 0)
        assert len(sys.constraints) == 1
        assert solve(sys).point == (0,)

    @pytest.mark.parametrize(
        "coeffs, rel, rhs",
        [
            ([1, 2, 3], LEQ, 0),  # wrong length
            ([1, Fraction(1, 2)], LEQ, 0),  # non-int coefficient
            ([1, 0.5], EQ, 0),  # float coefficient
            ([1, 2], ">=", 0),  # unknown relation
            ([1, 2], LT, 0.5),  # float rhs
        ],
    )
    def test_malformed_row_rejected_when_added(self, coeffs, rel, rhs):
        sys = LinearSystem(2)
        with pytest.raises(LPError):
            sys.add(coeffs, rel, rhs)
        assert sys.constraints == []


class TestExactness:
    def test_returned_points_satisfy_all_rows_exactly(self):
        rnd = random.Random(7)
        for trial in range(200):
            nvars = rnd.randint(1, 4)
            sys = LinearSystem(nvars)
            for _ in range(rnd.randint(1, 6)):
                coeffs = [rnd.randint(-4, 4) for _ in range(nvars)]
                rhs = Fraction(rnd.randint(-6, 6), rnd.randint(1, 3))
                add = rnd.choice(
                    [sys.leq, sys.eq, lambda c, r: geq(sys, c, r)]
                )
                add(coeffs, rhs)
            box(sys)
            res = solve(sys)
            if not res.feasible:
                continue
            for c in sys.constraints:
                assert satisfies(res.point, c)

    def test_determinism(self):
        def build():
            sys = LinearSystem(2)
            sys.leq([2, 1], 4)
            sys.leq([1, 3], 6)
            gt(sys, [1, 0], 0)
            gt(sys, [0, 1], 0)
            return solve(sys)

        first = build()
        assert first.feasible
        for _ in range(3):
            assert build() == first


class TestAgainstVertexOracle:
    def test_random_small_systems(self):
        rnd = random.Random(2024)
        for trial in range(120):
            nvars = rnd.randint(1, 4)
            sys = LinearSystem(nvars)
            rows = []
            for _ in range(rnd.randint(1, 5)):
                coeffs = [rnd.randint(-3, 3) for _ in range(nvars)]
                rhs = rnd.randint(-5, 5)
                # oracle rows are "coeffs . x >= rhs"
                rows.append((coeffs, rhs))
                geq(sys, coeffs, rhs)
            box(sys)
            res = solve(sys)
            feasible, _ = lp_vertex_oracle(rows, nvars)
            assert res.feasible == feasible, (trial, sys)
            if feasible:
                for c in sys.constraints:
                    assert satisfies(res.point, c), (trial, sys, res)

    def test_strict_feasibility_vs_oracle(self):
        # Strict system feasible iff the weak region is full-dimensional
        # enough to move off every strict hyperplane; cross-check by
        # shrinking each strict row by tiny exact margins.
        rnd = random.Random(99)
        for trial in range(80):
            nvars = rnd.randint(1, 3)
            sys = LinearSystem(nvars)
            rows = []
            for _ in range(rnd.randint(1, 4)):
                coeffs = [rnd.randint(-2, 2) for _ in range(nvars)]
                rhs = rnd.randint(-3, 3)
                gt(sys, coeffs, rhs)
                rows.append((coeffs, rhs))
            box(sys)
            point = strictly_feasible(sys)
            margin = Fraction(1, 10**9)
            shifted = [(c, r + margin) for c, r in rows]
            feasible, _ = lp_vertex_oracle(shifted, nvars)
            if point is not None:
                for coeffs, rhs in rows:
                    val = sum(a * x for a, x in zip(coeffs, point))
                    assert val > rhs
            else:
                # Soundness: a point of the margin-shifted weak system would
                # satisfy every strict row strictly, so none may exist.
                assert not feasible


class TestDegeneracy:
    def test_redundant_equalities(self):
        sys = LinearSystem(2)
        sys.eq([1, 1], 2)
        sys.eq([2, 2], 4)  # redundant copy
        geq(sys, [1, 0], 0)
        geq(sys, [0, 1], 0)
        gt(sys, [1, -1], 0)
        res = solve(sys)
        assert res.feasible
        for c in sys.constraints:
            assert satisfies(res.point, c)

    def test_zero_rows(self):
        sys = LinearSystem(1)
        sys.leq([0], 0)  # 0 <= 0, trivially true
        res = solve(sys)
        assert res.feasible

    def test_no_rows(self):
        sys = LinearSystem(2)
        assert solve(sys).point == (0, 0)

    def test_infeasible_zero_row(self):
        sys = LinearSystem(1)
        sys.leq([0], -1)  # 0 <= -1
        assert solve(sys).status == "infeasible"

    def test_cycling_guard_highly_degenerate(self):
        # Many constraints active at once; Bland's rule must terminate in
        # the margin pass too.
        sys = LinearSystem(3)
        for a in (1, 2, 3):
            for b in (1, 2):
                sys.leq([a, b, 1], 0)
        geq(sys, [1, 0, 0], -1)
        geq(sys, [0, 1, 0], -1)
        geq(sys, [0, 0, 1], -1)
        gt(sys, [1, 1, 1], -3)
        res = solve(sys)
        assert res.feasible
        for c in sys.constraints:
            assert satisfies(res.point, c)
