"""Exact LP: spec examples, anti-cycling, duality spot check, and a
differential check against a reference simplex with separate b and cost
lists."""

import random
from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from defocone import simplex
from defocone.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LPResult,
    feasible,
    solve,
)


def test_min_x_nonnegative():
    lp = LinearProgram(n=1, objective=(1,), le=[((-1,), 0)])
    res = solve(lp)
    assert res.status == OPTIMAL and res.value == 0 and res.point == (0,)


def test_infeasible_pair():
    lp = LinearProgram(n=1, objective=(1,), le=[((1,), -1), ((-1,), 0)])
    assert solve(lp).status == INFEASIBLE


def test_unit_square_corner():
    lp = LinearProgram(
        n=2,
        objective=(-1, -1),
        le=[((1, 0), 1), ((0, 1), 1), ((-1, 0), 0), ((0, -1), 0)],
    )
    res = solve(lp)  # max x + y is 2
    assert res.status == OPTIMAL and -res.value == 2 and res.point == (1, 1)


def test_unbounded():
    lp = LinearProgram(n=1, objective=(-1,), le=[((-1,), 0)])
    assert solve(lp).status == UNBOUNDED


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


def test_beale_cycling_instance_terminates():
    lp = LinearProgram(
        n=4,
        objective=(Fraction(-3, 4), 150, Fraction(-1, 50), 6),
        le=[
            ((Fraction(1, 4), -60, Fraction(-1, 25), 9), 0),
            ((Fraction(1, 2), -90, Fraction(-1, 50), 3), 0),
            ((0, 0, 1, 0), 1),
        ],
        nonneg=True,
    )
    res = solve(lp)
    assert res.status == OPTIMAL
    assert res.value == Fraction(-1, 20)


coef = st.integers(min_value=-5, max_value=5)


@given(
    st.lists(st.tuples(st.lists(coef, min_size=2, max_size=2), st.integers(0, 8)), min_size=1, max_size=4),
    st.lists(coef, min_size=2, max_size=2),
)
@settings(max_examples=40, deadline=None)
def test_weak_and_strong_duality(rows, obj):
    """min c.x st A x >= b ... posed as max b.y st A^T y <= c, y >= 0 for
    the primal min c.x st A x >= b, x >= 0 (hand-built dual)."""
    # primal: min c.x, -A x <= -b, x >= 0
    primal = LinearProgram(
        n=2,
        objective=obj,
        le=[(tuple(-a for a in row), -rhs) for row, rhs in rows],
        nonneg=True,
    )
    pres = solve(primal)
    dual = LinearProgram(
        n=len(rows),
        objective=tuple(-rhs for _, rhs in rows),  # max b.y as min -b.y
        le=[
            (tuple(rows[i][0][j] for i in range(len(rows))), obj[j])
            for j in range(2)
        ],
        nonneg=True,
    )
    dres = solve(dual)
    if pres.status == OPTIMAL and dres.status == OPTIMAL:
        assert pres.value == -dres.value
    if pres.status == UNBOUNDED:
        assert dres.status == INFEASIBLE
    if dres.status == UNBOUNDED:
        assert pres.status == INFEASIBLE


# ---------------------------------------------------------------------------
# reference: the same two phases and Bland's rule, with b and the reduced
# costs kept in side lists that each pivot updates by hand


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


def _ref_bland_loop(A, b, cost, basis):
    """Minimize; cost holds reduced costs (last entry = -objective value)."""
    ncols = len(cost) - 1
    while True:
        col = next((j for j in range(ncols) if cost[j] < 0), None)
        if col is None:
            return OPTIMAL
        best = None
        for i in range(len(A)):
            if A[i][col] > 0:
                ratio = b[i] / A[i][col]
                key = (ratio, basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            return UNBOUNDED
        _ref_pivot(A, b, cost, basis, best[1], col)


def _ref_solve_standard(A, b, c):
    """min c.x st A x = b, x >= 0.  Returns (status, value, point)."""
    m, n = len(A), len(c)
    A = [list(row) for row in A]
    b = list(b)
    for i in range(m):
        if b[i] < 0:
            A[i] = [-x for x in A[i]]
            b[i] = -b[i]
    art = list(range(n, n + m))
    tab = [A[i] + [Fraction(1 if j == i else 0) for j in range(m)] for i in range(m)]
    basis = art[:]
    cost = [Fraction(0)] * (n + m) + [Fraction(0)]
    for j in range(n, n + m):
        cost[j] = Fraction(1)
    for i in range(m):
        for j in range(n + m):
            cost[j] -= tab[i][j]
        cost[-1] -= b[i]
    status = _ref_bland_loop(tab, b, cost, basis)
    assert status == OPTIMAL
    if -cost[-1] != 0:
        return INFEASIBLE, None, None
    drop_rows = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is None:
                drop_rows.append(i)
            else:
                _ref_pivot(tab, b, cost, basis, i, col)
    for i in sorted(drop_rows, reverse=True):
        del tab[i], b[i], basis[i]
    tab = [row[:n] for row in tab]
    cost = list(c) + [Fraction(0)]
    for i, bi in enumerate(basis):
        if cost[bi] != 0:
            f = cost[bi]
            for j in range(n):
                cost[j] -= f * tab[i][j]
            cost[-1] -= f * b[i]
    status = _ref_bland_loop(tab, b, cost, basis)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = b[i]
    return OPTIMAL, -cost[-1], tuple(x)


def _random_lp(rng: random.Random) -> LinearProgram:
    """1-5 free or nonnegative variables, 0-3 equality rows (sometimes a
    repeated or scaled copy, so phase 1 leaves artificials to drive out or
    rows to drop) and 0-5 inequality rows, the objective negated half the
    time.  Half of the LPs take their right-hand sides from a point with
    small entries, so they are feasible and often degenerate there."""
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
    obj = row()
    if rng.random() < 0.5:
        obj = tuple(-x for x in obj)
    return LinearProgram(n=n, objective=obj, eq=eq, le=le, nonneg=rng.random() < 0.5)


def test_solve_matches_reference_simplex(monkeypatch):
    rng = random.Random(20261018)
    lps = [_random_lp(rng) for _ in range(600)]
    got = [solve(lp) for lp in lps]
    monkeypatch.setattr(simplex, "_solve_standard", _ref_solve_standard)
    want = [solve(lp) for lp in lps]
    assert got == want
    statuses = {r.status for r in got}
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def test_feasible_is_a_zero_objective_solve(monkeypatch):
    """`feasible` keeps its old definition, a zero-objective `solve` that is
    optimal, and that solve, which stops after phase one, returns the value
    and point of the reference's two phases."""
    rng = random.Random(20261018)
    lps = [_random_lp(rng) for _ in range(600)]
    zero = [LinearProgram(lp.n, (0,) * lp.n, lp.eq, lp.le, lp.nonneg) for lp in lps]
    got = [solve(lp) for lp in zero]
    assert [feasible(lp) for lp in lps] == [r.status == OPTIMAL for r in got]
    assert {r.status for r in got} == {OPTIMAL, INFEASIBLE}
    monkeypatch.setattr(simplex, "_solve_standard", _ref_solve_standard)
    assert got == [solve(lp) for lp in zero]


def test_both_phases_run_on_a_b_over_the_cost_row(monkeypatch):
    """Artificial variables are basis labels with no column: every tableau
    `_bland_loop` minimizes, in phase one as in phase two, has n + 1 columns
    for the n standard-form columns."""
    runs = []
    solve_standard, bland_loop = simplex._solve_standard, simplex._bland_loop

    def standard(A, b, c):
        runs.append((len(c) + 1, []))
        return solve_standard(A, b, c)

    def loop(t, basis):
        runs[-1][1].append({len(row) for row in t})
        return bland_loop(t, basis)

    monkeypatch.setattr(simplex, "_solve_standard", standard)
    monkeypatch.setattr(simplex, "_bland_loop", loop)
    rng = random.Random(20261018)
    for _ in range(200):
        solve(_random_lp(rng))
    assert all(widths and all(w == {width} for w in widths) for width, widths in runs)
    assert {len(widths) for _, widths in runs} == {1, 2}  # phase two ran too


def test_programs_with_no_variables():
    """With n = 0, every program with up to two equality and two inequality
    rows over the right-hand sides -1, 0 and 2, free or nonnegative: optimal
    at value 0 and the empty point exactly when every equality right-hand
    side is 0 and every inequality one is at least 0, and infeasible
    otherwise."""
    programs = 0
    for neq, nle, nonneg in product(range(3), range(3), (False, True)):
        for rhs in product((-1, 0, 2), repeat=neq + nle):
            lp = LinearProgram(n=0, eq=[((), r) for r in rhs[:neq]], le=[((), r) for r in rhs[neq:]], nonneg=nonneg)
            ok = all(r == 0 for r in rhs[:neq]) and all(r >= 0 for r in rhs[neq:])
            assert solve(lp) == (LPResult(OPTIMAL, Fraction(0), ()) if ok else LPResult(INFEASIBLE))
            assert feasible(lp) == ok
            programs += 1
    assert programs == 338
