"""Reference copy of the rational simplex core that `lineargames.exactlp`
ran before its tableau moved to integer rows.

`_simplex_solve` and `_Tableau` below are kept verbatim: a dense two-phase
tableau over `fractions.Fraction` with Bland's rule.  The differential tests
in `test_exactlp_differential.py` require the integer solver to return the
same (status, point, optimum) as this code on every system they build.
"""

from fractions import Fraction

from lineargames.exactlp import LEQ, LPError


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
