"""Exact rational linear programming.

Textbook two-phase simplex over Fractions with Bland's pivot rule, which
guarantees termination without perturbation.  Both phases share one
tableau: the constraint rows [A | b], signed so that b >= 0, then the row
[reduced costs | -value].  Phase one's cost row is priced out as minus the
column sums of [A | b]; every later step is a pivot on the tableau through
`exact.pivot`.  Artificial variables are only basis labels, with no
columns, so one that leaves the basis is dropped for good (Bertsimas and
Tsitsiklis, Introduction to Linear Optimization, 3.5).  That is sound: any
point of A x = b, x >= 0 has every artificial at 0, so phase one's minimum
is 0 exactly when the program is feasible, with or without the dropped
ones; and Bland's rule ends on each fixed program while the column set
only shrinks, at most m times.  A program with no objective, as
`feasible` poses, stops after phase one.  It serves the vertex check on
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
        # the least ratio, ties to the least basis label
        rows = [(t[i][-1] / t[i][col], basis[i], i) for i in range(len(t) - 1) if t[i][col] > 0]
        if not rows:
            return UNBOUNDED
        r = min(rows)[2]
        pivot(t, r, col)
        basis[r] = col


def _solve_standard(A, b, c):
    """min c.x st A x = b, x >= 0.  Returns (status, value, point)."""
    m, n = len(A), len(c)
    # Phase 1: rows [A | b] with b >= 0, under the cost row priced out as
    # minus the column sums; artificial i is only the basis label n + i.
    t = [list(row) + [bi] if bi >= 0 else [-x for x in row] + [-bi] for row, bi in zip(A, b)]
    t.append([-sum((row[j] for row in t), Fraction(0)) for j in range(n + 1)])
    basis = list(range(n, n + m))
    status = _bland_loop(t, basis)
    assert status == OPTIMAL  # phase-1 objective is bounded below by 0
    if t[-1][-1] != 0:
        return INFEASIBLE, None, None
    if any(c):  # with no cost to minimize, phase one's point is optimal
        # Drive leftover artificials out of the basis.  A row with no
        # structural entry left is redundant: all zeros, no pivot touches it.
        for i in range(m):
            col = next((j for j in range(n) if t[i][j] != 0), None) if basis[i] >= n else None
            if col is not None:
                pivot(t, i, col)
                basis[i] = col
        # Phase 2 on the same rows, with the cost row priced out.
        t[-1] = list(c) + [Fraction(0)]
        for i, j in enumerate(basis):
            if j < n:
                pivot(t, i, j)
        if _bland_loop(t, basis) == UNBOUNDED:
            return UNBOUNDED, None, None
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = t[i][-1]
    return OPTIMAL, -t[-1][-1], tuple(x)


def solve(lp: LinearProgram) -> LPResult:
    # Standard-form columns: x_j >= 0 directly or the split x = u - v, then
    # one slack per inequality row.
    nle = len(lp.le)

    def widen(row, k=None):
        cols = list(row) if lp.nonneg else [y for x in row for y in (x, -x)]
        return cols + [Fraction(s == k) for s in range(nle)]

    A = [widen(row) for row, _ in lp.eq] + [widen(row, k) for k, (row, _) in enumerate(lp.le)]
    status, value, point = _solve_standard(A, [rhs for _, rhs in lp.eq + lp.le], widen(lp.objective))
    if status != OPTIMAL:
        return LPResult(status)
    x = point[:lp.n] if lp.nonneg else tuple(point[2 * j] - point[2 * j + 1] for j in range(lp.n))
    return LPResult(OPTIMAL, value, x)


def feasible(lp: LinearProgram) -> bool:
    """Whether some point meets lp's constraints."""
    return solve(lp).status != INFEASIBLE
