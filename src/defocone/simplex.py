"""Exact rational feasibility.

Phase one of the textbook simplex over Fractions with Bland's pivot rule,
which guarantees termination without perturbation.  The tableau is the
constraint rows [A | b], signed so that b >= 0, then the row [reduced
costs | -value], priced out as minus the column sums of [A | b]; every
step is a pivot on the tableau through `exact.pivot`.  Artificial
variables are only basis labels, with no columns, so one that leaves the
basis is dropped for good (Bertsimas and Tsitsiklis, Introduction to
Linear Optimization, 3.5).  That is sound: any point of A x = b, x >= 0
has every artificial at 0, so the minimum of their sum is 0 exactly when
the program is feasible, with or without the dropped ones, and the basic
solution there is a feasible point; and Bland's rule ends on each fixed
program while the column set only shrinks, at most m times.  It serves the
vertex check on polytope input, in hull coordinates with h + 1 rows for a
hull of dimension h, at desk scale, so exactness beats speed; no question
about a deformation cone solves an LP, so a program has no objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exact import Vec, pivot


@dataclass
class LinearProgram:
    """The constraints eq rows (= rhs) and le rows (<= rhs) on n variables.

    Variables are free unless ``nonneg`` is set, in which case all of them
    are constrained to be >= 0 (this keeps tableaus small for callers whose
    variables are naturally nonnegative, e.g. convex combination weights).
    """

    n: int
    eq: list = field(default_factory=list)
    le: list = field(default_factory=list)
    nonneg: bool = False

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("variable count must be nonnegative")
        self.eq, self.le = ([(tuple(x if type(x) is Fraction else Fraction(x) for x in row),
                              b if type(b) is Fraction else Fraction(b)) for row, b in rows] for rows in (self.eq, self.le))
        for row, _ in self.eq + self.le:
            if len(row) != self.n:
                raise ValueError("constraint row has wrong dimension")


def _phase_one(A, b, n: int) -> Vec | None:
    """A point x >= 0 with A x = b, for A with n columns, or None."""
    m = len(A)
    # rows [A | b] with b >= 0, under the cost row priced out as minus the
    # column sums; artificial i is only the basis label n + i
    t = [list(row) + [bi] if bi >= 0 else [-x for x in row] + [-bi] for row, bi in zip(A, b)]
    t.append([-sum((row[j] for row in t), Fraction(0)) for j in range(n + 1)])
    basis = list(range(n, n + m))
    while (col := next((j for j in range(n) if t[-1][j] < 0), None)) is not None:
        # the least ratio, ties to the least basis label; some entry is
        # positive, as the sum of the artificials is bounded below by 0
        r = min((t[i][-1] / t[i][col], basis[i], i) for i in range(m) if t[i][col] > 0)[2]
        pivot(t, r, col)
        basis[r] = col
    if t[-1][-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = t[i][-1]
    return tuple(x)


def solve(lp: LinearProgram) -> Vec | None:
    """A point that meets lp's constraints, or None when there is none."""
    # Standard-form columns: x_j >= 0 directly or the split x = u - v, then
    # one slack per inequality row.
    nle = len(lp.le)

    def widen(row, k=None):
        cols = list(row) if lp.nonneg else [y for x in row for y in (x, -x)]
        return cols + [Fraction(s == k) for s in range(nle)]

    A = [widen(row) for row, _ in lp.eq] + [widen(row, k) for k, (row, _) in enumerate(lp.le)]
    point = _phase_one(A, [rhs for _, rhs in lp.eq + lp.le], (lp.n if lp.nonneg else 2 * lp.n) + nle)
    if point is None:
        return None
    return point[:lp.n] if lp.nonneg else tuple(point[2 * j] - point[2 * j + 1] for j in range(lp.n))


def feasible(lp: LinearProgram) -> bool:
    """Whether some point meets lp's constraints."""
    return solve(lp) is not None
