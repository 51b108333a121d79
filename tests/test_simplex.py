"""Exact feasibility: spec examples, a degenerate instance, Farkas'
alternative, and a differential check against a reference phase one with
separate b and cost lists."""

import random
from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from defocone import simplex
from defocone.simplex import LinearProgram, feasible, solve


def meets(lp: LinearProgram, x) -> bool:
    """Whether x is a point of lp's constraints, checked exactly."""
    def dot(row):
        return sum((a * b for a, b in zip(row, x)), Fraction(0))

    return (len(x) == lp.n and all(type(c) is Fraction for c in x) and (not lp.nonneg or min(x, default=0) >= 0)
            and all(dot(row) == b for row, b in lp.eq) and all(dot(row) <= b for row, b in lp.le))


def test_infeasible_pair():
    assert solve(LinearProgram(n=1, le=[((1,), -1), ((-1,), 0)])) is None


def test_unit_square_corner():
    # the one point of the unit square with x + y >= 2
    lp = LinearProgram(n=2, le=[((1, 0), 1), ((0, 1), 1), ((-1, 0), 0), ((0, -1), 0), ((-1, -1), -2)])
    assert solve(lp) == (1, 1)


def test_unbounded():
    # the half-line x >= 0 of a free variable: phase one stops at a point
    lp = LinearProgram(n=1, le=[((-1,), 0)])
    assert solve(lp) == (0,) and meets(lp, solve(lp))


def test_feasibility_examples():
    # {x = 1, x <= 0} infeasible
    assert not feasible(LinearProgram(n=1, eq=[((1,), 1)], le=[((1,), 0)]))
    # empty constraint set in dimension 2
    assert feasible(LinearProgram(n=2))


def test_square_diagonal_has_no_supporting_functional():
    # c.a = c.c = s and c.w <= s - 1 for the two other corners of a square:
    # no functional exposes the diagonal as a face
    a, b, c, d = (0, 0), (1, 0), (1, 1), (0, 1)
    rows_eq = [((a[0], a[1], -1), 0), ((c[0], c[1], -1), 0)]
    rows_le = [((b[0], b[1], -1), -1), ((d[0], d[1], -1), -1)]
    assert not feasible(LinearProgram(n=3, eq=rows_eq, le=rows_le))
    # sanity: an actual edge does admit one
    rows_eq = [((a[0], a[1], -1), 0), ((b[0], b[1], -1), 0)]
    rows_le = [((c[0], c[1], -1), -1), ((d[0], d[1], -1), -1)]
    assert feasible(LinearProgram(n=3, eq=rows_eq, le=rows_le))


BEALE_ROWS = [
    ((Fraction(1, 4), -60, Fraction(-1, 25), 9), 0),
    ((Fraction(1, 2), -90, Fraction(-1, 50), 3), 0),
    ((0, 0, 1, 0), 1),
]
BEALE_COST = (Fraction(-3, 4), 150, Fraction(-1, 50), 6)


def test_beale_cycling_instance_terminates():
    """Beale's rows, on which the textbook rule cycles, are degenerate at 0,
    and Bland's rule ends on them in phase one too.  Their program's minimum
    cost is -1/20, at (1/25, 0, 1, 0): adding cost <= -1/20 leaves that
    point, and cost <= -1/19 leaves none."""
    lp = LinearProgram(n=4, le=BEALE_ROWS, nonneg=True)
    assert solve(lp) == (Fraction(2, 125), 0, 1, Fraction(1, 250)) and meets(lp, solve(lp))
    at_min = LinearProgram(n=4, le=BEALE_ROWS + [(BEALE_COST, Fraction(-1, 20))], nonneg=True)
    assert solve(at_min) == (Fraction(1, 25), 0, 1, 0) and meets(at_min, solve(at_min))
    assert solve(LinearProgram(n=4, le=BEALE_ROWS + [(BEALE_COST, Fraction(-1, 19))], nonneg=True)) is None


coef = st.integers(min_value=-5, max_value=5)


@given(st.lists(st.tuples(st.lists(coef, min_size=2, max_size=2), st.integers(-8, 8)), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_farkas_alternative(rows):
    """Exactly one of {x >= 0 : A x <= b} and {y >= 0 : A^T y >= 0,
    b . y <= -1} is feasible (Farkas' lemma, scaled), and a returned point
    meets its program."""
    primal = LinearProgram(n=2, le=rows, nonneg=True)
    dual = LinearProgram(
        n=len(rows),
        le=[(tuple(-row[j] for row, _ in rows), 0) for j in range(2)] + [(tuple(b for _, b in rows), -1)],
        nonneg=True,
    )
    points = [solve(primal), solve(dual)]
    assert sum(x is not None for x in points) == 1
    assert all(meets(lp, x) for lp, x in zip((primal, dual), points) if x is not None)


# ---------------------------------------------------------------------------
# reference: the same phase one and Bland's rule over the full tableau, the
# artificial columns kept, with b and the reduced costs kept in side lists
# that each pivot updates by hand


def _ref_pivot(A, b, cost, basis, r, col):
    piv = A[r][col]
    inv = 1 / piv
    A[r] = [inv * x for x in A[r]]
    b[r] *= inv
    for i in range(len(A)):
        if i != r and A[i][col] != 0:
            f = A[i][col]
            A[i] = [x - f * y for x, y in zip(A[i], A[r])]
            b[i] -= f * b[r]
    if cost[col] != 0:
        f = cost[col]
        for j in range(len(A[r])):
            cost[j] -= f * A[r][j]
        cost[-1] -= f * b[r]
    basis[r] = col


def _ref_phase_one(A, b, n):
    """A point x >= 0 with A x = b, for A with n columns, or None."""
    m = len(A)
    A = [list(row) for row in A]
    b = list(b)
    for i in range(m):
        if b[i] < 0:
            A[i] = [-x for x in A[i]]
            b[i] = -b[i]
    tab = [A[i] + [Fraction(1 if j == i else 0) for j in range(m)] for i in range(m)]
    basis = list(range(n, n + m))
    cost = [Fraction(0)] * n + [Fraction(1)] * m + [Fraction(0)]
    for i in range(m):
        for j in range(n + m):
            cost[j] -= tab[i][j]
        cost[-1] -= b[i]
    while True:
        col = next((j for j in range(n + m) if cost[j] < 0), None)
        if col is None:
            break
        best = None
        for i in range(m):
            if tab[i][col] > 0:
                key = (b[i] / tab[i][col], basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        _ref_pivot(tab, b, cost, basis, best[1], col)
    if cost[-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = b[i]
    return tuple(x)


def _random_lp(rng: random.Random) -> LinearProgram:
    """1-5 free or nonnegative variables, 0-3 equality rows (sometimes a
    repeated or scaled copy, so phase one ends with artificials in the
    basis) and 0-5 inequality rows.  Half of the programs take their
    right-hand sides from a point with small entries, so they are feasible
    and often degenerate there."""
    n = rng.randint(1, 5)
    x0 = [rng.randint(0, 2) for _ in range(n)] if rng.random() < 0.5 else None

    def row():
        return tuple(rng.randint(-3, 3) for _ in range(n))

    def rhs(a, slack):
        if x0 is None:
            return rng.randint(-3, 3)
        return sum(p * q for p, q in zip(a, x0)) + slack

    eq = [(a, rhs(a, 0)) for a in (row() for _ in range(rng.randint(0, 3)))]
    if eq and rng.random() < 0.4:
        a, b = rng.choice(eq)
        k = rng.choice((1, -1, 2))
        eq.insert(rng.randint(0, len(eq)), (tuple(k * x for x in a), k * b))
    le = [(a, rhs(a, rng.randint(0, 2))) for a in (row() for _ in range(rng.randint(0, 5)))]
    return LinearProgram(n=n, eq=eq, le=le, nonneg=rng.random() < 0.5)


def test_solve_matches_reference_simplex(monkeypatch):
    """On 3000 seeded programs with equality and inequality rows, free and
    nonnegative variables, `solve` returns the reference phase one's point,
    Fraction for Fraction, or None with it; each point meets its program
    exactly, both verdicts occur, and `feasible` is whether a point came."""
    rng = random.Random(20261018)
    lps = [_random_lp(rng) for _ in range(3000)]
    got = [solve(lp) for lp in lps]
    assert all(meets(lp, x) for lp, x in zip(lps, got) if x is not None)
    assert [feasible(lp) for lp in lps] == [x is not None for x in got]
    assert 500 < sum(x is None for x in got) < 2500
    monkeypatch.setattr(simplex, "_phase_one", _ref_phase_one)
    assert got == [solve(lp) for lp in lps]


def test_phase_one_runs_on_a_b_over_the_cost_row(monkeypatch):
    """Artificial variables are basis labels with no column: every tableau
    phase one pivots on has n + 1 columns for the n standard-form columns."""
    runs = []
    phase_one, pivot = simplex._phase_one, simplex.pivot

    def wrapped_phase_one(A, b, n):
        runs.append((n + 1, []))
        return phase_one(A, b, n)

    def wrapped_pivot(t, r, col):
        runs[-1][1].append({len(row) for row in t})
        return pivot(t, r, col)

    monkeypatch.setattr(simplex, "_phase_one", wrapped_phase_one)
    monkeypatch.setattr(simplex, "pivot", wrapped_pivot)
    rng = random.Random(20261018)
    for _ in range(200):
        solve(_random_lp(rng))
    assert all(w == {width} for width, widths in runs for w in widths)
    assert sum(len(widths) for _, widths in runs) > 200


def test_programs_with_no_variables():
    """With n = 0, every program with up to two equality and two inequality
    rows over the right-hand sides -1, 0 and 2, free or nonnegative: the
    empty point exactly when every equality right-hand side is 0 and every
    inequality one is at least 0, and None otherwise."""
    programs = 0
    for neq, nle, nonneg in product(range(3), range(3), (False, True)):
        for rhs in product((-1, 0, 2), repeat=neq + nle):
            lp = LinearProgram(n=0, eq=[((), r) for r in rhs[:neq]], le=[((), r) for r in rhs[neq:]], nonneg=nonneg)
            ok = all(r == 0 for r in rhs[:neq]) and all(r >= 0 for r in rhs[neq:])
            assert solve(lp) == (() if ok else None)
            assert feasible(lp) == ok
            programs += 1
    assert programs == 338
