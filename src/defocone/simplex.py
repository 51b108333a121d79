"""Exact rational linear programming.

Textbook two-phase simplex over Fractions with Bland's pivot rule, which
guarantees termination without perturbation.  The tableau is one matrix:
the constraint rows [A | b], then the row [reduced costs | -value].  Phase
one's cost row is priced out as minus the column sums; every later step is
a pivot on the tableau through `exact.pivot`.  A program with no objective,
as `feasible` poses, stops after phase one.  It serves the vertex check on
polytope input, in hull coordinates with h + 1 rows for a hull of
dimension h, at desk scale, so exactness beats speed; no question about a
deformation cone solves an LP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exact import Vec, pivot

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LinearProgram:
    """min objective . x subject to eq rows (= rhs) and le rows (<= rhs).

    Variables are free unless ``nonneg`` is set, in which case all of them
    are constrained to be >= 0 (this keeps tableaus small for callers whose
    variables are naturally nonnegative, e.g. convex combination weights).
    """

    n: int
    objective: tuple = ()
    eq: list = field(default_factory=list)
    le: list = field(default_factory=list)
    nonneg: bool = False

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("variable count must be nonnegative")
        obj = tuple(x if type(x) is Fraction else Fraction(x) for x in self.objective or (0,) * self.n)
        if len(obj) != self.n:
            raise ValueError("objective has wrong dimension")
        self.objective = obj
        self.eq, self.le = ([(tuple(x if type(x) is Fraction else Fraction(x) for x in row),
                              b if type(b) is Fraction else Fraction(b)) for row, b in rows] for rows in (self.eq, self.le))
        for row, _ in self.eq + self.le:
            if len(row) != self.n:
                raise ValueError("constraint row has wrong dimension")


@dataclass
class LPResult:
    status: str
    value: Fraction | None = None
    point: Vec | None = None


def _bland_loop(t, basis):
    """Minimize over the tableau t by Bland's rule; returns the status."""
    ncols = len(t[-1]) - 1
    while True:
        col = next((j for j in range(ncols) if t[-1][j] < 0), None)
        if col is None:
            return OPTIMAL
        best = None
        for i in range(len(t) - 1):
            if t[i][col] > 0:
                key = (t[i][-1] / t[i][col], basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            return UNBOUNDED
        pivot(t, best[1], col)
        basis[best[1]] = col


def _solve_standard(A, b, c):
    """min c.x st A x = b, x >= 0.  Returns (status, value, point)."""
    m, n = len(A), len(c)
    # Phase 1: rows [A | I | b] with b >= 0 and the artificial columns I, with
    # the cost row priced out: minus the column sums of A and b, 0 over I.
    t = []
    for i, (row, bi) in enumerate(zip(A, b)):
        if bi < 0:
            row, bi = [-x for x in row], -bi
        t.append(list(row) + [Fraction(1 if j == i else 0) for j in range(m)] + [bi])
    sums = [-sum((row[j] for row in t), Fraction(0)) for j in (*range(n), -1)]
    t.append(sums[:-1] + [Fraction(0)] * m + sums[-1:])
    basis = list(range(n, n + m))
    status = _bland_loop(t, basis)
    assert status == OPTIMAL  # phase-1 objective is bounded below by 0
    if t[-1][-1] != 0:
        return INFEASIBLE, None, None
    if any(c):  # with no cost to minimize, phase one's point is optimal
        # Drive leftover artificials out of the basis; a row with no
        # structural entry left is redundant.
        drop_rows = []
        for i in range(m):
            if basis[i] >= n:
                col = next((j for j in range(n) if t[i][j] != 0), None)
                if col is None:
                    drop_rows.append(i)
                else:
                    pivot(t, i, col)
                    basis[i] = col
        for i in reversed(drop_rows):
            del t[i], basis[i]
        # Phase 2 on the structural columns, with the cost row priced out.
        t = [row[:n] + row[-1:] for row in t[:-1]] + [list(c) + [Fraction(0)]]
        for i, j in enumerate(basis):
            pivot(t, i, j)
        if _bland_loop(t, basis) == UNBOUNDED:
            return UNBOUNDED, None, None
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = t[i][-1]
    return OPTIMAL, -t[-1][-1], tuple(x)


def solve(lp: LinearProgram) -> LPResult:
    n = lp.n
    if n == 0:
        ok = all(rhs == 0 for _, rhs in lp.eq) and all(rhs >= 0 for _, rhs in lp.le)
        return LPResult(OPTIMAL, Fraction(0), ()) if ok else LPResult(INFEASIBLE)
    # Standard-form columns: either x_j >= 0 directly, or the split x = u - v.
    width = n if lp.nonneg else 2 * n

    def widen(row):
        return list(row) if lp.nonneg else [y for x in row for y in (x, -x)]

    A = [widen(row) for row, _ in lp.eq]
    b = [rhs for _, rhs in lp.eq]
    nle = len(lp.le)
    for k, (row, rhs) in enumerate(lp.le):
        A.append(widen(row) + [Fraction(0)] * k + [Fraction(1)] + [Fraction(0)] * (nle - k - 1))
        b.append(rhs)
    # pad rows without slack entries up to the full column count
    A = [row + [Fraction(0)] * (width + nle - len(row)) for row in A]
    c = widen(lp.objective) + [Fraction(0)] * nle
    status, value, point = _solve_standard(A, b, c)
    if status != OPTIMAL:
        return LPResult(status)
    x = point[:n] if lp.nonneg else tuple(point[2 * j] - point[2 * j + 1] for j in range(n))
    return LPResult(OPTIMAL, value, x)


def feasible(lp: LinearProgram) -> bool:
    """Whether some point meets lp's constraints."""
    return solve(lp).status != INFEASIBLE
