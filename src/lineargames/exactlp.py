"""Exact feasibility of linear systems with strict rows.

A `LinearSystem` is a column count and rows of Python `int` coefficients:
column j holds the coefficient of the free variable x_j.  Each row has a
relation in {<=, =, <} and an `int` or `fractions.Fraction` right-hand
side.  `solve` decides whether some point meets every weak row and every
strict row strictly, and returns one as a tuple of Fractions.  There is
no floating-point path anywhere, so verdicts on ties and strict
inequalities are exact.

Strict rows are decided by the shared-margin transform: a single margin
variable is added to every strict row and raised as far as it goes,
capped at 1; the system is strictly feasible iff the largest margin is
positive.  The margin is the only quantity the solver ever optimizes.

The simplex core is a dense two-phase tableau with Bland's anti-cycling
pivot rule.  Free variables are split into positive and negative parts.
Each row, with its rhs, is scaled once to integers by the rhs's
denominator and kept as a positive multiple of its rational row
(fraction-free elimination with row gcds), so every sign and ratio test,
and therefore every pivot and vertex, is the one the rational tableau
would take.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Optional

LEQ = "<="
EQ = "="
LT = "<"  # strict

_RELATIONS = (LEQ, EQ, LT)


class LPError(ValueError):
    """Malformed row (wrong length, non-int coefficient, unknown relation
    or rhs type), or a failed self-check of the solver."""


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[int, ...]
    rel: str
    rhs: int | Fraction


@dataclass
class LinearSystem:
    """Weak, equality and strict rows over `ncols` free variables.

    `a >= b` style rows should be entered negated (`-a <= -b`, `-a < -b`).
    """

    ncols: int
    constraints: list[Constraint] = field(default_factory=list)

    @property
    def variables(self) -> range:
        """The column indices."""
        return range(self.ncols)

    def add(self, coeffs, rel: str, rhs) -> None:
        coeffs = tuple(coeffs)
        if len(coeffs) != self.ncols:
            raise LPError(f"row of {len(coeffs)} coefficients for {self.ncols} columns")
        if not all(isinstance(a, int) for a in coeffs):
            raise LPError(f"row coefficients must be int, got {coeffs!r}")
        if rel not in _RELATIONS:
            raise LPError(f"unknown relation {rel!r}")
        if not isinstance(rhs, (int, Fraction)):
            raise LPError(f"rhs must be int or Fraction, got {rhs!r}")
        self.constraints.append(Constraint(coeffs, rel, rhs))

    def leq(self, coeffs, rhs) -> None:
        self.add(coeffs, LEQ, rhs)

    def eq(self, coeffs, rhs) -> None:
        self.add(coeffs, EQ, rhs)

    def lt(self, coeffs, rhs) -> None:
        self.add(coeffs, LT, rhs)


@dataclass(frozen=True)
class LPResult:
    status: str  # 'feasible' | 'infeasible'
    point: Optional[tuple[Fraction, ...]] = None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def solve(system: LinearSystem) -> LPResult:
    """Exact verdict on a linear system, with a point if it is feasible.

    The point satisfies every strict row strictly.
    """
    n = system.ncols
    rows = system.constraints
    margin = any(c.rel == LT for c in rows)
    if margin:
        # Margin pass: raise eps, added to every strict row, up to its cap 1.
        rows = [
            Constraint(c.coeffs + (1,), LEQ, c.rhs)
            if c.rel == LT
            else Constraint(c.coeffs + (0,), c.rel, c.rhs)
            for c in rows
        ]
        rows.append(Constraint((0,) * n + (1,), LEQ, 1))
        rows.append(Constraint((0,) * n + (-1,), LEQ, 0))  # eps >= 0
    x = _simplex_solve(n + 1 if margin else n, rows, margin)
    if x is None or (margin and x[n] <= 0):
        return LPResult("infeasible")
    return LPResult("feasible", tuple(x[:n]))


def strictly_feasible(system: LinearSystem):
    """A point meeting all weak rows and all strict rows strictly, or None."""
    result = solve(system)
    return result.point if result.feasible else None


# -- simplex core -----------------------------------------------------------


def _simplex_solve(nvars, rows, margin):
    """A feasible point over free variables, or None.

    With `margin` the last variable is the margin, and the point gives it
    its largest value, which must be bounded.  Free variables are split
    (x = u - w) and slacks added for inequalities.  Each row, with its rhs,
    is scaled once to integers by the rhs's denominator; the two-phase
    simplex with Bland's rule then runs on `int` rows, and only the
    returned point is Fractions.
    """
    nslack = sum(1 for r in rows if r.rel == LEQ)
    ncols = 2 * nvars + nslack
    A, b, scales, slack_basis = [], [], [], []
    si = 0
    for r in rows:
        scale = r.rhs.denominator
        row = [0] * ncols
        for j, a in enumerate(r.coeffs):
            row[2 * j] = a * scale
            row[2 * j + 1] = -row[2 * j]
        slack_col = None
        if r.rel == LEQ:
            slack_col = 2 * nvars + si
            row[slack_col] = scale
            si += 1
        rhs = r.rhs.numerator
        if rhs < 0:
            row = [-a for a in row]
            rhs = -rhs
            slack_col = None  # slack coefficient now negative: not a basis
        A.append(row)
        b.append(rhs)
        scales.append(scale)
        slack_basis.append(slack_col)

    # Only the signs of reduced costs steer the simplex: raising the
    # margin u - w is lowering the cost w - u.
    cost = [0] * ncols
    if margin:
        cost[2 * nvars - 2], cost[2 * nvars - 1] = -1, 1

    tab = _Tableau(A, b, ncols)
    if not tab.phase_one(slack_basis, scales):
        return None
    if tab.phase_two(cost) == "unbounded":
        raise LPError("phase two unbounded on a capped margin")
    xs = tab.solution()
    return [xs[2 * j] - xs[2 * j + 1] for j in range(nvars)]


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
        # and their sum is brought down as far as it goes.  An artificial
        # enters its row at the row's scale, i.e. with rational coefficient 1.
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
        the reduced-cost row's rhs, a positive multiple of minus the cost
        at the current vertex."""
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
