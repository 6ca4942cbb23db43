"""Exact rational linear programming.

The API is over `fractions.Fraction`: rows, right-hand sides, returned
points and optima.  There is no floating-point path anywhere, so verdicts
on ties and strict inequalities are exact.  Strict constraints are decided
by the shared-margin transform: a single margin variable is added to every
strict row and maximized; the system is strictly feasible iff the optimal
margin is positive.

The simplex core is a dense two-phase tableau with Bland's anti-cycling
pivot rule.  Free variables are split into positive and negative parts.
The tableau holds Python `int` rows: each row is scaled once to integers
and kept as a positive multiple of its rational row (fraction-free
elimination with row gcds), so every sign and ratio test, and therefore
every pivot and vertex, is the one the rational tableau would take.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
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

    Free variables are split (x = u - w) and slacks added for inequalities.
    Each row, with its rhs, is scaled once to integers by the lcm of its
    denominators; the two-phase simplex with Bland's rule then runs on
    `int` rows, and only the returned point and optimum are Fractions.
    """
    nslack = sum(1 for r in rows if r.rel == LEQ)
    ncols = 2 * nvars + nslack
    A, b, scales, slack_basis = [], [], [], []
    si = 0
    for r in rows:
        scale = lcm(r.rhs.denominator, *(a.denominator for a in r.coeffs))
        row = [0] * ncols
        for j, a in enumerate(r.coeffs):
            row[2 * j] = a.numerator * (scale // a.denominator)
            row[2 * j + 1] = -row[2 * j]
        slack_col = None
        if r.rel == LEQ:
            slack_col = 2 * nvars + si
            row[slack_col] = scale
            si += 1
        rhs = r.rhs.numerator * (scale // r.rhs.denominator)
        if rhs < 0:
            row = [-a for a in row]
            rhs = -rhs
            slack_col = None  # slack coefficient now negative: not a basis
        A.append(row)
        b.append(rhs)
        scales.append(scale)
        slack_basis.append(slack_col)

    # Only the signs of reduced costs steer the simplex, so the cost row
    # may be scaled by any positive factor.
    cost = [0] * ncols
    if objective is not None:
        coeffs, sense = objective
        denom = lcm(*(a.denominator for a in coeffs))
        if sense == "max":
            denom = -denom
        for j, a in enumerate(coeffs):
            cost[2 * j] = a.numerator * (denom // a.denominator)
            cost[2 * j + 1] = -cost[2 * j]

    tab = _Tableau(A, b, ncols)
    if not tab.phase_one(slack_basis, scales):
        return "infeasible", None, None
    if tab.phase_two(cost) == "unbounded":
        return "unbounded", None, None
    xs = tab.solution()
    point = [xs[2 * j] - xs[2 * j + 1] for j in range(nvars)]
    if objective is None:
        return "feasible", point, None
    return "feasible", point, sum(
        (a * x for a, x in zip(objective[0], point)), Fraction(0)
    )


def _eliminate(row, rhs, prow, prhs, col):
    """`row - (row[col] / prow[col]) * prow`, times `prow[col]` > 0, then
    divided by the gcd of its entries: a positive multiple of the rational
    update, so every sign and ratio is the rational tableau's."""
    p, f = prow[col], row[col]
    row = [a * p - f * c for a, c in zip(row, prow)]
    rhs = rhs * p - f * prhs
    g = gcd(rhs, *row)
    if g > 1:
        row = [a // g for a in row]
        rhs //= g
    return row, rhs


class _Tableau:
    """Dense simplex tableau on integer rows with Bland's pivot rule.

    Row i stands for the rational row `A[i] / s`, `b[i] / s`, where the
    scale s > 0 is the row's entry in its basic column.  The ratio test
    compares `b[i] * A[l][k]` with `b[l] * A[i][k]`, which is the rational
    comparison of `b / a` with both scales cancelled.
    """

    def __init__(self, A, b, ncols):
        self.m = len(A)
        self.ncols = ncols
        self.A = A
        self.b = b
        self.basis: list[int] = []

    def phase_one(self, slack_basis, scales) -> bool:
        # Slacks seed the basis where possible; artificials fill the rest
        # and their sum is minimized.  An artificial enters its row at the
        # row's scale, i.e. with rational coefficient 1.
        n0 = self.ncols
        self.basis = [0] * self.m
        art_rows = [i for i in range(self.m) if slack_basis[i] is None]
        for i in range(self.m):
            if slack_basis[i] is not None:
                self.basis[i] = slack_basis[i]
        for row in self.A:
            row.extend([0] * len(art_rows))
        for t, i in enumerate(art_rows):
            self.A[i][n0 + t] = scales[i]
            self.basis[i] = n0 + t
        self.ncols += len(art_rows)
        if not art_rows:
            return True
        status, art_sum = self._optimize([0] * n0 + [1] * len(art_rows))
        if status != "feasible":  # the artificial sum is bounded below by 0
            raise LPError("phase one reported an unbounded artificial sum")
        if art_sum != 0:
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

    def phase_two(self, cost) -> str:
        return self._optimize(cost)[0]

    def _optimize(self, cost):
        """Run Bland's rule from the current basis.  Returns the status and
        the reduced-cost row's rhs, a positive multiple of minus the
        objective value."""
        # Reduced costs `cost - sum_i cost[basis[i]] * row_i`, computed once
        # and then updated on each pivot.  Basic columns stay exactly 0.
        z, zb = cost[:], 0
        for i, j in enumerate(self.basis):
            if z[j] != 0:
                z, zb = _eliminate(z, zb, self.A[i], self.b[i], j)
        while True:
            # Bland: the lowest column with a negative reduced cost enters.
            entering = next((j for j, c in enumerate(z) if c < 0), None)
            if entering is None:
                return "feasible", zb
            # Ratio test, ties broken by lowest basis index (Bland).
            leave = None
            for i in range(self.m):
                a = self.A[i][entering]
                if a > 0:
                    if leave is None:
                        leave = i
                        continue
                    lhs = self.b[i] * self.A[leave][entering]
                    rhs = self.b[leave] * a
                    if lhs < rhs or (
                        lhs == rhs and self.basis[i] < self.basis[leave]
                    ):
                        leave = i
            if leave is None:
                return "unbounded", None
            self._pivot(leave, entering)
            z, zb = _eliminate(z, zb, self.A[leave], self.b[leave], entering)

    def _pivot(self, row: int, col: int) -> None:
        if self.A[row][col] < 0:
            # Only when purging an artificial, whose row has rhs 0: flip the
            # row so that its new scale is positive.
            self.A[row] = [-a for a in self.A[row]]
            self.b[row] = -self.b[row]
        prow, prhs = self.A[row], self.b[row]
        for i in range(self.m):
            if i != row and self.A[i][col] != 0:
                self.A[i], self.b[i] = _eliminate(
                    self.A[i], self.b[i], prow, prhs, col
                )
        self.basis[row] = col

    def solution(self) -> list[Fraction]:
        xs = [Fraction(0)] * self.ncols
        for i, j in enumerate(self.basis):
            xs[j] = Fraction(self.b[i], self.A[i][j])
        return xs
