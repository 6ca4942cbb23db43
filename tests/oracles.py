"""Independent brute-force oracles used to cross-check the library.

Everything here is written from first principles (definitions only), on
purpose duplicating no library code paths: set-comparison definitions of
the shift order and desirability, exhaustive winning-set enumeration, and
exact vertex enumeration for both LP systems and polytope facets.
"""

from fractions import Fraction
from itertools import combinations

from lineargames import BOTTOM, TOP, VERTICAL, Coalition, LinearGame
from lineargames.geometry import polytope_constraints


def brute_shift_leq(a_members, b_members) -> bool:
    """A <= B iff |A| <= |B| and a_i <= b_i on decreasing listings."""
    a = sorted(a_members, reverse=True)
    b = sorted(b_members, reverse=True)
    if len(a) > len(b):
        return False
    return all(x <= y for x, y in zip(a, b))


def brute_up_set(n: int, gens) -> set[int]:
    """Masks of the coalitions shift-above some member list in `gens`."""
    out = set()
    for m in range(1 << n):
        members = [i + 1 for i in range(n) if m >> i & 1]
        if any(brute_shift_leq(g, members) for g in gens):
            out.add(m)
    return out


def brute_winning_masks(v: LinearGame) -> set[int]:
    """Winning set computed directly from the up-set definition."""
    return brute_up_set(v.n, [g.members() for g in v.generators])


def brute_at_least_as_desirable(v: LinearGame, i: int, j: int) -> bool:
    """Definition check: S+j winning implies S+i winning, all S avoiding both."""
    win = brute_winning_masks(v)
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    for m in range(1 << v.n):
        if m & (bi | bj):
            continue
        if (m | bj) in win and (m | bi) not in win:
            return False
    return True


def brute_realizes(v: LinearGame, r) -> bool:
    """Definition check of a realization: every coalition wins iff the
    Fraction sum of its members' weights is at least q."""
    win = brute_winning_masks(v)
    for m in range(1 << v.n):
        weight = sum(
            (w for i, w in enumerate(r.weights) if m >> i & 1), Fraction(0)
        )
        if (weight >= r.q) != (m in win):
            return False
    return True


def _gauss_solve(mat, rhs):
    """Unique exact solution of a square-ish system, or None."""
    m = [row[:] + [r] for row, r in zip(mat, rhs)]
    cols = len(m[0]) - 1
    piv = []
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pv = m[r][c]
        m[r] = [a / pv for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        piv.append(c)
        r += 1
        if r == len(m):
            break
    for i in range(r, len(m)):
        if m[i][cols] != 0:
            return None
    if r < cols:
        return None
    x = [Fraction(0)] * cols
    for i, c in enumerate(piv):
        x[c] = m[i][cols]
    return x


def _affine_rank(points) -> int:
    if not points:
        return -1
    base = points[0]
    vecs = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    rank = 0
    width = len(base)
    m = [v[:] for v in vecs]
    for c in range(width):
        p = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        pv = m[rank][c]
        m[rank] = [a / pv for a in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def lp_vertex_oracle(rows, nvars, objective=None, box=10):
    """Feasibility / bounded optimum over {x : row . x >= rhs} by vertex
    enumeration.  `rows` are (coeffs, rhs) weak inequalities; box bounds
    |x_i| <= box are appended so the region is a polytope.  Returns
    (feasible, optimum) where optimum is the max of objective . x.
    """
    all_rows = [(list(c), Fraction(r)) for c, r in rows]
    for i in range(nvars):
        e = [Fraction(0)] * nvars
        e[i] = Fraction(1)
        all_rows.append((e[:], Fraction(-box)))
        e2 = [Fraction(-x) for x in e]
        all_rows.append((e2, Fraction(-box)))
    feasible = False
    best = None
    for sub in combinations(range(len(all_rows)), nvars):
        mat = [all_rows[i][0] for i in sub]
        rhs = [all_rows[i][1] for i in sub]
        x = _gauss_solve(mat, rhs)
        if x is None:
            continue
        if all(
            sum(a * b for a, b in zip(c, x)) >= r for c, r in all_rows
        ):
            feasible = True
            if objective is not None:
                val = sum(a * b for a, b in zip(objective, x))
                if best is None or val > best:
                    best = val
    return feasible, best


def facet_oracle(v: LinearGame):
    """Facets of the closure of the realization polytope, by exact vertex
    enumeration: a generating constraint is a facet iff its tight vertex
    set has affine rank dim - 1."""
    n = v.n
    hss = polytope_constraints(v)
    rows = [_halfspace_row(hs, n) for hs in hss]
    eqvec = [Fraction(0)] + [Fraction(1)] * n
    dim = n  # affine dimension after the normalization equality
    verts = set()
    for sub in combinations(range(len(rows)), dim):
        mat = [eqvec] + [rows[i] for i in sub]
        rhs = [Fraction(1)] + [Fraction(0)] * dim
        x = _gauss_solve(mat, rhs)
        if x is None:
            continue
        if all(sum(a * b for a, b in zip(row, x)) >= 0 for row in rows):
            verts.add(tuple(x))
    verts = sorted(verts)
    facets = []
    for k, row in enumerate(rows):
        tight = [
            vt for vt in verts
            if sum(a * b for a, b in zip(row, vt)) == 0
        ]
        if _affine_rank(tight) == dim - 1:
            facets.append(hss[k])
    return verts, facets


def _halfspace_row(hs, n):
    """Coefficients over (q, w_1, ..., w_n) of the half-space read as
    row . x >= 0: top w_A - q, bottom q - w_B, vertical w_{i+1} - w_i,
    dummy face w_1."""
    row = [Fraction(0)] * (n + 1)
    if hs.kind == TOP:
        row[0] = Fraction(-1)
        for i in hs.coalition.members():
            row[i] = Fraction(1)
    elif hs.kind == BOTTOM:
        row[0] = Fraction(1)
        for i in hs.coalition.members():
            row[i] = Fraction(-1)
    elif hs.kind == VERTICAL:
        row[hs.index + 1] = Fraction(1)
        row[hs.index] = Fraction(-1)
    else:
        row[1] = Fraction(1)
    return row


def random_linear_game(rnd, n: int) -> LinearGame:
    """A deterministic pseudo-random linear game: random antichain seed."""
    while True:
        count = rnd.randint(1, 3)
        gens = [
            Coalition(n, rnd.randint(1, (1 << n) - 1)) for _ in range(count)
        ]
        try:
            return LinearGame(n, gens)
        except Exception:
            continue
