"""Exact rational linear programming.

All arithmetic is over `fractions.Fraction`; there is no floating-point
path anywhere, so verdicts on ties and strict inequalities are exact.
Strict constraints are decided by the shared-margin transform: a single
margin variable is added to every strict row and maximized; the system is
strictly feasible iff the optimal margin is positive.

The simplex core is a dense two-phase tableau with Bland's anti-cycling
pivot rule.  Free variables are split into positive and negative parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

LEQ = "<="
EQ = "="
LT = "<"  # strict

_REL_SET = {LEQ, EQ, LT}


class LPError(ValueError):
    """Malformed system (arity mismatch, unknown relation)."""


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    rel: str
    rhs: Fraction


@dataclass
class LinearSystem:
    """A system over named free variables with weak, equality, and strict rows.

    Rows are entered through the helper methods as {name: coeff} mappings;
    `a >= b` style rows should be entered negated (`-a <= -b`, `-a < -b`).
    """

    variables: list[str] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    objective: Optional[tuple[tuple[Fraction, ...], str]] = None  # (coeffs, 'max'|'min')
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._index = {name: j for j, name in enumerate(self.variables)}

    def var(self, name: str) -> int:
        if name not in self._index:
            if self.constraints or self.objective:
                raise LPError("declare all variables before adding rows")
            self._index[name] = len(self.variables)
            self.variables.append(name)
        return self._index[name]

    def _vector(self, terms: dict[str, Fraction]) -> tuple[Fraction, ...]:
        vec = [Fraction(0)] * len(self.variables)
        for name, c in terms.items():
            j = self._index.get(name)
            if j is None:
                raise LPError(f"unknown variable {name!r}")
            vec[j] += Fraction(c)
        return tuple(vec)

    def add(self, terms: dict[str, Fraction], rel: str, rhs) -> None:
        if rel not in _REL_SET:
            raise LPError(f"unknown relation {rel!r}")
        self.constraints.append(Constraint(self._vector(terms), rel, Fraction(rhs)))

    def leq(self, terms, rhs) -> None:
        self.add(terms, LEQ, rhs)

    def geq(self, terms, rhs) -> None:
        neg = {k: -Fraction(v) for k, v in terms.items()}
        self.add(neg, LEQ, -Fraction(rhs))

    def eq(self, terms, rhs) -> None:
        self.add(terms, EQ, rhs)

    def lt(self, terms, rhs) -> None:
        self.add(terms, LT, rhs)

    def gt(self, terms, rhs) -> None:
        neg = {k: -Fraction(v) for k, v in terms.items()}
        self.add(neg, LT, -Fraction(rhs))

    def maximize(self, terms: dict[str, Fraction]) -> None:
        self.objective = (self._vector(terms), "max")

    def minimize(self, terms: dict[str, Fraction]) -> None:
        self.objective = (self._vector(terms), "min")


@dataclass(frozen=True)
class LPResult:
    status: str  # 'feasible' | 'infeasible' | 'unbounded'
    point: Optional[dict[str, Fraction]] = None
    optimum: Optional[Fraction] = None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def solve(system: LinearSystem) -> LPResult:
    """Exact verdict on a linear system, optimizing its objective if any.

    Strict rows are satisfied strictly by any returned point.  When strict
    rows and an objective are both present, the objective is optimized
    with the shared margin pinned at half its maximal value (the margin's
    sign, not its size, is the meaningful quantity).
    """
    nvars = len(system.variables)
    for c in system.constraints:
        if len(c.coeffs) != nvars:
            raise LPError("constraint arity does not match variable count")

    strict_rows = [c for c in system.constraints if c.rel == LT]
    if not strict_rows:
        return _solve_weak(system, system.constraints, system.objective)

    # Margin pass: maximize eps added to every strict row, capped at 1.
    eps_idx = nvars
    rows = []
    for c in system.constraints:
        if c.rel == LT:
            rows.append(Constraint(c.coeffs + (Fraction(1),), LEQ, c.rhs))
        else:
            rows.append(Constraint(c.coeffs + (Fraction(0),), c.rel, c.rhs))
    cap = tuple([Fraction(0)] * nvars) + (Fraction(1),)
    rows.append(Constraint(cap, LEQ, Fraction(1)))
    floor = tuple([Fraction(0)] * nvars) + (Fraction(-1),)
    rows.append(Constraint(floor, LEQ, Fraction(0)))  # eps >= 0
    obj = (cap, "max")

    status, x, opt = _simplex_solve(nvars + 1, rows, obj)
    if status == "infeasible" or (status == "feasible" and opt <= 0):
        return LPResult("infeasible")
    if status == "unbounded":  # cannot happen: eps is capped
        raise LPError("margin pass unbounded despite cap")

    if system.objective is None:
        point = dict(zip(system.variables, x[:nvars]))
        return LPResult("feasible", point)

    # Pin the margin at half its optimum, then optimize the real objective.
    half = opt / 2
    pinned = rows[:-2] + [Constraint(floor, LEQ, -half)]
    user = (system.objective[0] + (Fraction(0),), system.objective[1])
    status, x, opt = _simplex_solve(nvars + 1, pinned, user)
    if status != "feasible":
        return LPResult(status)
    point = dict(zip(system.variables, x[:nvars]))
    return LPResult("feasible", point, opt)


def strictly_feasible(system: LinearSystem):
    """A point meeting all weak rows and all strict rows strictly, or None."""
    result = solve(system)
    return result.point if result.feasible else None


# -- simplex core -----------------------------------------------------------


def _solve_weak(system, rows, objective) -> LPResult:
    status, x, opt = _simplex_solve(len(system.variables), rows, objective)
    if status != "feasible":
        return LPResult(status)
    return LPResult("feasible", dict(zip(system.variables, x)), opt)


def _simplex_solve(nvars, rows, objective):
    """min/max over free variables; returns (status, point, optimum).

    Free variables are split (x = u - w), slacks added for inequalities,
    then a two-phase dense simplex with Bland's rule runs on Fractions.
    """
    nslack = sum(1 for r in rows if r.rel == LEQ)
    ncols = 2 * nvars + nslack
    A, b, slack_basis = [], [], []
    si = 0
    for r in rows:
        row = [Fraction(0)] * ncols
        for j, a in enumerate(r.coeffs):
            row[2 * j] = Fraction(a)
            row[2 * j + 1] = -Fraction(a)
        slack_col = None
        if r.rel == LEQ:
            slack_col = 2 * nvars + si
            row[slack_col] = Fraction(1)
            si += 1
        rhs = Fraction(r.rhs)
        if rhs < 0:
            row = [-a for a in row]
            rhs = -rhs
            slack_col = None  # slack coefficient is now -1, unusable as basis
        A.append(row)
        b.append(rhs)
        slack_basis.append(slack_col)

    if objective is None:
        cost = [Fraction(0)] * ncols
        sense = "min"
    else:
        coeffs, sense = objective
        cost = [Fraction(0)] * ncols
        for j, a in enumerate(coeffs):
            cost[2 * j] = Fraction(a)
            cost[2 * j + 1] = -Fraction(a)
    if sense == "max":
        cost = [-a for a in cost]

    tab = _Tableau(A, b)
    if not tab.phase_one(slack_basis):
        return "infeasible", None, None
    status, opt = tab.phase_two(cost)
    if status == "unbounded":
        return "unbounded", None, None
    xs = tab.solution()
    point = [xs[2 * j] - xs[2 * j + 1] for j in range(nvars)]
    if objective is None:
        return "feasible", point, None
    return "feasible", point, (-opt if sense == "max" else opt)


class _Tableau:
    """Dense simplex tableau over Fractions with Bland's pivot rule."""

    def __init__(self, A, b):
        self.m = len(A)
        self.ncols = len(A[0]) if A else 0
        self.A = [row[:] for row in A]
        self.b = b[:]
        self.basis: list[int] = []

    def phase_one(self, slack_basis) -> bool:
        # Slacks seed the basis where possible; artificials fill the rest
        # and their sum is minimized.
        n0 = self.ncols
        self.basis = [0] * self.m
        art_rows = [i for i in range(self.m) if slack_basis[i] is None]
        for i in range(self.m):
            if slack_basis[i] is not None:
                self.basis[i] = slack_basis[i]
        for t, i in enumerate(art_rows):
            for k in range(self.m):
                self.A[k].append(Fraction(1) if k == i else Fraction(0))
            self.basis[i] = n0 + t
        self.ncols += len(art_rows)
        if not art_rows:
            return True
        cost = [Fraction(0)] * n0 + [Fraction(1)] * len(art_rows)
        status, opt = self._optimize(cost)
        if status != "feasible":  # the artificial sum is bounded below by 0
            raise LPError("phase one reported an unbounded artificial sum")
        if opt != 0:
            return False
        self._purge_artificials(n0)
        return True

    def _purge_artificials(self, n0: int) -> None:
        # Pivot artificials out of the basis; drop redundant zero rows.
        i = 0
        while i < self.m:
            if self.basis[i] >= n0:
                pivot_col = next(
                    (j for j in range(n0) if self.A[i][j] != 0), None
                )
                if pivot_col is None:
                    del self.A[i], self.b[i], self.basis[i]
                    self.m -= 1
                    continue
                self._pivot(i, pivot_col)
            i += 1
        for row in self.A:
            del row[n0:]
        self.ncols = n0

    def phase_two(self, cost):
        return self._optimize(cost)

    def _optimize(self, cost):
        while True:
            # Reduced costs for the current basis.
            y = [cost[self.basis[i]] for i in range(self.m)]
            entering = None
            for j in range(self.ncols):
                if j in self.basis:
                    continue
                red = cost[j] - sum(y[i] * self.A[i][j] for i in range(self.m))
                if red < 0:
                    entering = j
                    break  # Bland: lowest index wins
            if entering is None:
                obj = sum(
                    cost[self.basis[i]] * self.b[i] for i in range(self.m)
                )
                return "feasible", obj
            # Ratio test, ties broken by lowest basis index (Bland).
            leave, best = None, None
            for i in range(self.m):
                a = self.A[i][entering]
                if a > 0:
                    ratio = self.b[i] / a
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and self.basis[i] < self.basis[leave])
                    ):
                        leave, best = i, ratio
            if leave is None:
                return "unbounded", None
            self._pivot(leave, entering)

    def _pivot(self, row: int, col: int) -> None:
        piv = self.A[row][col]
        self.A[row] = [a / piv for a in self.A[row]]
        self.b[row] /= piv
        for i in range(self.m):
            if i != row and self.A[i][col] != 0:
                f = self.A[i][col]
                self.A[i] = [a - f * p for a, p in zip(self.A[i], self.A[row])]
                self.b[i] -= f * self.b[row]
        self.basis[row] = col

    def solution(self) -> list[Fraction]:
        xs = [Fraction(0)] * self.ncols
        for i, j in enumerate(self.basis):
            xs[j] = self.b[i]
        return xs
