"""Exact rational scalars, vectors and matrices.

Scalars are `fractions.Fraction` (arbitrary precision, always gcd-reduced
with positive denominator, so equality is structural).  Vectors are tuples
of Fractions, matrices are lists of row lists.  Every elimination that
returns reduced or echelon rows, here and in the simplex tableau, goes
through one Gauss-Jordan step, `pivot`, which scales only the nonzeros of
the pivot row and updates each row from its first nonzero column on: in
`rref` that is the pivot column, so only the trailing block is touched.
`rref` eliminates a copy of its rows that shares the Fractions it is given
and converts only other entries.  It can stop at the echelon form, from
which `nullspace` reads its kernel by back-substitution.
`rank` counts pivots fraction-free; `parallel` and one-vector `in_span`
eliminate nothing.  Pivots are the first nonzero entry, scanning columns
left to right and rows top to bottom, so results are reproducible.
`primitive` names a direction by coprime integers, for the double
description and the deduction engine's direction keys.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

Vec = tuple[Fraction, ...]

_RAT_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def parse_rat(text: str) -> Fraction:
    """Parse the text form ``"p"`` or ``"p/q"`` (q > 0). Decimals rejected."""
    if not isinstance(text, str) or not _RAT_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)


def rat_str(x: Fraction) -> str:
    return str(Fraction(x))


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_scale(c, a: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * x for x in a)


def vec_dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


def parallel(a: Vec, b: Vec) -> bool:
    """True iff a and b are linearly dependent (either may be zero), by one
    pass against the first nonzero entry of a.  ValueError on vectors of
    different lengths."""
    if len(a) != len(b):
        raise ValueError("vectors of different lengths")
    i = next((i for i, x in enumerate(a) if x != 0), None)
    return i is None or all(a[i] * y == x * b[i] for x, y in zip(a, b))


def primitive(v) -> tuple[int, ...]:
    """The positive multiple of a nonzero rational vector with coprime
    integer entries."""
    d = math.lcm(*(x.denominator for x in v))
    v = [x.numerator * (d // x.denominator) for x in v]
    g = math.gcd(*v)
    return tuple(x // g for x in v)


def pivot(m, r: int, c: int, below: bool = False) -> None:
    """One Gauss-Jordan step on m, a list of distinct row lists the caller
    owns: scale row r so that m[r][c] == 1, leaving its zeros as they are,
    then clear column c from every other row (with ``below``, only from the
    rows after r), in place from the pivot row's first nonzero column on;
    left of it x - f*y is x."""
    row = m[r]
    if row[c] != 1:
        inv = 1 / row[c]
        m[r] = row = [inv * x if x else x for x in row]
    lo = next(j for j, x in enumerate(row) if x)
    tail = row[lo:]
    for i in range(r + 1 if below else 0, len(m)):
        if i != r and m[i][c] != 0:
            f = m[i][c]
            m[i][lo:] = [x - f * y for x, y in zip(m[i][lo:], tail)]


def rref(rows, ncols: int | None = None, echelon: bool = False):
    """Reduced row echelon form, or with ``echelon`` the row echelon form
    with unit pivots: each pivot column is cleared only below its pivot, so
    the entries above the pivots are left as they are.  Both forms have the
    same pivot columns.

    Returns (rows, pivot_columns).  Accepts an empty row list when
    ``ncols`` is given.  The copy it eliminates shares the entries that are
    Fractions (``type(x) is Fraction``); only the others go through Fraction.
    """
    m = [[x if type(x) is Fraction else Fraction(x) for x in r] for r in rows]
    ncols = _width(m, ncols)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot(m, r, c, below=echelon)
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m[: len(pivots)]], pivots


def _width(m, ncols: int | None) -> int:
    if ncols is None:
        if not m:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(m[0])
    if any(len(r) != ncols for r in m):
        raise ValueError("matrix is not rectangular")
    return ncols


def rank(rows, ncols: int | None = None) -> int:
    """Rank over Q, with `rref`'s pivot rule and errors, by fraction-free
    elimination (Bareiss 1968) on rows scaled to integers by the lcm of their
    denominators: every entry stays an integer minor of that matrix, so the
    division by the previous pivot is exact."""
    m = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in r] for r in rows]
    ncols = _width(m, ncols)
    m = [[x.numerator * (d // x.denominator) for x in r]
         for r in m if any(r) for d in [math.lcm(*(x.denominator for x in r))]]
    count, prev = 0, 1
    for c in range(ncols):
        if count == len(m):
            break
        p = next((i for i in range(count, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[count], m[p] = m[p], m[count]
        top, a = m[count], m[count][c]
        for i in range(count + 1, len(m)):
            b = m[i][c]
            m[i] = [(a * x - b * y) // prev for x, y in zip(m[i], top)]
        prev, count = a, count + 1
    return count


def nullspace(rows, ncols: int) -> list[Vec]:
    """Deterministic kernel basis, pivot-normalized.

    Each basis vector has a 1 in one free column and zeros in the other
    free columns; the empty matrix yields the standard basis.  That vector
    is unique, so it is read from the echelon form by back-substitution,
    from the last pivot row up, skipping zero terms: v[p] is minus the sum
    of row[j] * v[j] over the columns j after the row's pivot p.
    """
    echelon, pivots = rref(rows, ncols, echelon=True)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis: list[Vec] = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        nonzero = [f]
        for row, p in zip(reversed(echelon), reversed(pivots)):
            s = sum(row[j] * v[j] for j in nonzero if row[j])
            if s:
                v[p] = -s
                nonzero.append(p)
        basis.append(tuple(v))
    return basis


def in_span(vectors: list[Vec], target: Vec) -> bool:
    """True iff target lies in the linear span of the given vectors; one
    nonzero vector spans a line, so that case is `parallel`."""
    vectors = list(vectors)
    if is_zero_vec(target):
        return True
    if len(vectors) == 1 and not is_zero_vec(vectors[0]):
        return parallel(vectors[0], target)
    cols = len(target)
    return rank(vectors + [target], cols) == rank(vectors, cols)


def affine_rank(points: list[Vec]) -> int:
    """Dimension of the affine span of the points (-1 for the empty set)."""
    if not points:
        return -1
    base = points[0]
    return rank([vec_sub(p, base) for p in points[1:]], len(base))
