import random
from fractions import Fraction

import pytest

from lineargames import LinearSystem, LPError, solve, strictly_feasible
from lineargames.exactlp import Constraint, LEQ, _simplex_solve

from oracles import lp_vertex_oracle


def system(names):
    sys = LinearSystem()
    for nm in names:
        sys.var(nm)
    return sys


class TestBasics:
    def test_maximize_margin(self):
        sys = system(["x", "eps"])
        sys.geq({"x": 1, "eps": -1}, 0)  # x >= eps
        sys.leq({"x": 1}, 1)
        sys.leq({"eps": 1}, 1)
        sys.maximize({"eps": 1})
        res = solve(sys)
        assert res.feasible
        assert res.optimum == 1
        assert res.point["x"] == 1

    def test_strict_contradiction(self):
        sys = system(["x"])
        sys.lt({"x": 1}, 0)
        sys.gt({"x": 1}, 0)
        assert solve(sys).status == "infeasible"
        assert strictly_feasible(sys) is None

    def test_weak_boundary_vs_strict(self):
        sys = system(["x"])
        sys.leq({"x": 1}, 0)
        sys.geq({"x": 1}, 0)
        assert solve(sys).point == {"x": 0}
        sys2 = system(["x"])
        sys2.leq({"x": 1}, 0)
        sys2.gt({"x": 1}, 0)
        assert solve(sys2).status == "infeasible"

    def test_strict_point_is_strict(self):
        sys = system(["a", "b"])
        sys.eq({"a": 1, "b": 1}, 1)
        sys.gt({"a": 1, "b": -1}, 0)
        sys.gt({"b": 1}, 0)
        point = strictly_feasible(sys)
        assert point is not None
        assert point["a"] + point["b"] == 1
        assert point["a"] > point["b"] > 0

    def test_unbounded(self):
        sys = system(["x"])
        sys.geq({"x": 1}, 0)
        sys.maximize({"x": 1})
        assert solve(sys).status == "unbounded"

    def test_equality_only(self):
        sys = system(["x", "y"])
        sys.eq({"x": 1, "y": 1}, 3)
        sys.eq({"x": 1, "y": -1}, 1)
        res = solve(sys)
        assert res.point == {"x": 2, "y": 1}

    def test_free_variables_go_negative(self):
        sys = system(["x"])
        sys.leq({"x": 1}, -5)
        sys.maximize({"x": 1})
        res = solve(sys)
        assert res.feasible and res.optimum == -5

    def test_minimize(self):
        sys = system(["x"])
        sys.geq({"x": 1}, Fraction(7, 3))
        sys.minimize({"x": 1})
        assert solve(sys).optimum == Fraction(7, 3)

    def test_arity_validation(self):
        sys = system(["x"])
        sys.constraints.append(
            Constraint((Fraction(1), Fraction(2)), LEQ, Fraction(0))
        )
        with pytest.raises(LPError):
            solve(sys)

    def test_unknown_variable_rejected(self):
        sys = system(["x"])
        with pytest.raises(LPError):
            sys.leq({"y": 1}, 0)

    def test_declare_after_rows_rejected(self):
        sys = system(["x"])
        sys.leq({"x": 1}, 0)
        with pytest.raises(LPError):
            sys.var("y")


class TestExactness:
    def test_returned_points_satisfy_all_rows_exactly(self):
        rnd = random.Random(7)
        for trial in range(200):
            nvars = rnd.randint(1, 4)
            names = [f"x{i}" for i in range(nvars)]
            sys = system(names)
            for _ in range(rnd.randint(1, 6)):
                terms = {
                    nm: Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
                    for nm in names
                }
                rhs = Fraction(rnd.randint(-6, 6), rnd.randint(1, 3))
                rnd.choice([sys.leq, sys.geq, sys.eq])(terms, rhs)
            for nm in names:  # box so feasible regions are polytopes
                sys.leq({nm: 1}, 10)
                sys.geq({nm: 1}, -10)
            res = solve(sys)
            if not res.feasible:
                continue
            for c in sys.constraints:
                lhs = sum(
                    a * res.point[nm]
                    for a, nm in zip(c.coeffs, sys.variables)
                )
                if c.rel == "<=":
                    assert lhs <= c.rhs
                else:
                    assert lhs == c.rhs

    def test_determinism(self):
        def build():
            sys = system(["x", "y"])
            sys.leq({"x": 2, "y": 1}, 4)
            sys.leq({"x": 1, "y": 3}, 6)
            sys.geq({"x": 1}, 0)
            sys.geq({"y": 1}, 0)
            sys.maximize({"x": 1, "y": 1})
            return solve(sys)

        first = build()
        for _ in range(3):
            again = build()
            assert again.point == first.point
            assert again.optimum == first.optimum


class TestAgainstVertexOracle:
    def test_random_small_systems(self):
        rnd = random.Random(2024)
        for trial in range(120):
            nvars = rnd.randint(1, 4)
            names = [f"x{i}" for i in range(nvars)]
            sys = system(names)
            rows = []
            for _ in range(rnd.randint(1, 5)):
                coeffs = [Fraction(rnd.randint(-3, 3)) for _ in names]
                rhs = Fraction(rnd.randint(-5, 5))
                # oracle rows are "coeffs . x >= rhs"
                rows.append((coeffs, rhs))
                sys.geq(dict(zip(names, coeffs)), rhs)
            for nm in names:
                sys.leq({nm: 1}, 10)
                sys.geq({nm: 1}, -10)
            objective = [Fraction(rnd.randint(-3, 3)) for _ in names]
            sys.maximize(dict(zip(names, objective)))
            res = solve(sys)
            feasible, best = lp_vertex_oracle(rows, nvars, objective)
            assert res.feasible == feasible, (trial, sys)
            if feasible:
                assert res.optimum == best, (trial, sys)

    def test_strict_feasibility_vs_oracle(self):
        # Strict system feasible iff the weak region is full-dimensional
        # enough to move off every strict hyperplane; cross-check by
        # shrinking each strict row by tiny exact margins.
        rnd = random.Random(99)
        for trial in range(80):
            nvars = rnd.randint(1, 3)
            names = [f"x{i}" for i in range(nvars)]
            sys = system(names)
            rows = []
            for _ in range(rnd.randint(1, 4)):
                coeffs = [Fraction(rnd.randint(-2, 2)) for _ in names]
                rhs = Fraction(rnd.randint(-3, 3))
                sys.gt(dict(zip(names, coeffs)), rhs)
                rows.append((coeffs, rhs))
            for nm in names:
                sys.leq({nm: 1}, 10)
                sys.geq({nm: 1}, -10)
            point = strictly_feasible(sys)
            margin = Fraction(1, 10**9)
            shifted = [(c, r + margin) for c, r in rows]
            feasible, _ = lp_vertex_oracle(shifted, nvars)
            if point is not None:
                for coeffs, rhs in rows:
                    val = sum(
                        a * point[nm] for a, nm in zip(coeffs, names)
                    )
                    assert val > rhs
            else:
                # Soundness: a point of the margin-shifted weak system would
                # satisfy every strict row strictly, so none may exist.
                assert not feasible


class TestDegeneracy:
    def test_redundant_equalities(self):
        sys = system(["x", "y"])
        sys.eq({"x": 1, "y": 1}, 2)
        sys.eq({"x": 2, "y": 2}, 4)  # redundant copy
        sys.geq({"x": 1}, 0)
        sys.geq({"y": 1}, 0)
        sys.maximize({"x": 1})
        res = solve(sys)
        assert res.optimum == 2

    def test_zero_rows(self):
        sys = system(["x"])
        sys.leq({"x": 0}, 0)  # 0 <= 0, trivially true
        res = solve(sys)
        assert res.feasible

    def test_no_rows(self):
        sys = system(["x", "y"])
        assert solve(sys).point == {"x": 0, "y": 0}
        sys.maximize({"x": 1})
        assert solve(sys).status == "unbounded"

    def test_infeasible_zero_row(self):
        sys = system(["x"])
        sys.leq({"x": 0}, -1)  # 0 <= -1
        assert solve(sys).status == "infeasible"

    def test_cycling_guard_highly_degenerate(self):
        # Many constraints active at the optimum; Bland's rule must terminate.
        sys = system(["x", "y", "z"])
        for a in (1, 2, 3):
            for b in (1, 2):
                sys.leq({"x": a, "y": b, "z": 1}, 0)
        sys.geq({"x": 1}, -1)
        sys.geq({"y": 1}, -1)
        sys.geq({"z": 1}, -1)
        sys.maximize({"x": 1, "y": 1, "z": 1})
        res = solve(sys)
        assert res.feasible
