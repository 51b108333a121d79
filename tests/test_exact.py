"""Exact arithmetic substrate."""

import functools
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defocone.constructions import bipartite_truncation, complete_bipartite, complete_graph, graphical_zonotope
from defocone.corpus import corpus
from defocone.ddcore import dd_rays
from defocone.exact import (
    affine_rank,
    in_span,
    nullspace,
    parallel,
    parse_rat,
    pivot,
    rank,
    rat_str,
    rref,
    vec_dot,
    vec_sub,
)
from defocone.framework import cycle_basis, cycle_equation_rows, edge_key, labelled_points, walk_edges
from defocone.report import DEDUCTION_PROVABLE
from defocone.simplex import OPTIMAL, LinearProgram, solve

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)


def test_parse_grammar():
    assert parse_rat("3") == 3
    assert parse_rat("-7/2") == Fraction(-7, 2)
    for bad in ("0.5", "1/0", "1/-2", "+3", "", "a", "1e3"):
        with pytest.raises(ValueError):
            parse_rat(bad)


def test_format_is_canonical():
    assert rat_str(Fraction(4, 2)) == "2"
    assert rat_str(Fraction(-3, 6)) == "-1/2"


@given(rationals)
def test_parse_roundtrip(x):
    assert parse_rat(rat_str(x)) == x


@given(rationals, rationals)
def test_arithmetic_never_rounds(a, b):
    if a != 0 and b != 0:
        assert (a / b) * (b / a) == 1


def test_nullspace_examples():
    # symmetric kernel of a single difference row
    assert nullspace([[1, -1]], 2) == [(Fraction(1), Fraction(1))]
    # trivial kernel of the identity
    assert nullspace([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3) == []
    # empty matrix: standard basis of the full space
    ns = nullspace([], 2)
    assert ns == [(1, 0), (0, 1)]


def test_nullspace_triangle_cycle_matrix():
    # cycle equations of a triangle framework: two independent equations in
    # three unknowns, kernel spanned by the all-ones vector
    a, b, c = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
    rows = [
        [b[0] - a[0], c[0] - b[0], a[0] - c[0]],
        [b[1] - a[1], c[1] - b[1], a[1] - c[1]],
    ]
    ns = nullspace(rows, 3)
    assert len(ns) == 1
    v = ns[0]
    assert v[0] == v[1] == v[2] != 0


def test_rank_examples():
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1 if i == j else 0 for j in range(4)] for i in range(4)]) == 4
    assert rank([[1, 2, 3], [2, 4, 6], [0, 1, 0]]) == 2


small_matrices = st.lists(
    st.lists(rationals, min_size=1, max_size=5),
    min_size=1,
    max_size=5,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@given(small_matrices)
@settings(max_examples=60, deadline=None)
def test_rank_nullity_and_kernel_membership(rows):
    n = len(rows[0])
    ns = nullspace(rows, n)
    assert rank(rows, n) + len(ns) == n
    for v in ns:
        for row in rows:
            assert vec_dot(tuple(row), v) == 0
    # basis vectors are independent: each has a 1 where the others are 0
    assert rank(ns, n) == len(ns)


def _rank_case(rnd):
    """A random matrix for the rank sweep, with its column count.

    The shape is wide, tall or square, and may have no rows.  Rows are small
    combinations of a few basis rows, so ranks fall short of the shape, with
    zero rows and duplicate rows mixed in.  A third of the cases have
    numerators and denominators of about 40 digits.  Each entry is given as
    a Fraction, as its text form or, when integral, as an int.
    """
    nrows, ncols = rnd.choice(
        [(rnd.randint(0, 3), rnd.randint(4, 9)), (rnd.randint(4, 9), rnd.randint(1, 3)),
         (rnd.randint(1, 6), rnd.randint(1, 6))]
    )
    size = 10**40 if rnd.random() < 1 / 3 else 4
    basis = [
        [Fraction(rnd.randint(-size, size), rnd.randint(1, size)) for _ in range(ncols)]
        for _ in range(rnd.randint(1, max(1, min(nrows, ncols))))
    ]
    rows = []
    for _ in range(nrows):
        u = rnd.random()
        if u < 0.15:
            rows.append([Fraction(0)] * ncols)
        elif u < 0.3 and rows:
            rows.append(list(rnd.choice(rows)))
        else:
            coef = [rnd.randint(-2, 2) for _ in basis]
            rows.append([sum(c * b[j] for c, b in zip(coef, basis)) for j in range(ncols)])
    forms = [lambda x: x, str, lambda x: int(x) if x.denominator == 1 else x]
    return [[rnd.choice(forms)(Fraction(x)) for x in row] for row in rows], ncols


def test_rank_agrees_with_rref_pivot_count():
    rnd = random.Random(20261018)
    deficient = 0
    for _ in range(1500):
        rows, ncols = _rank_case(rnd)
        expected = len(rref(rows, ncols)[1])
        assert rank(rows, ncols) == expected, (rows, ncols)
        if rows:
            assert rank(rows) == expected, rows
        deficient += expected < min(len(rows), ncols)
    assert deficient > 300


def _rref_nullspace(rows, ncols):
    """The reference kernel: read each basis vector off the full reduced
    form, v[p] = -row[f] for each pivot row and free column f."""
    reduced, pivots = rref(rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def test_nullspace_by_back_substitution_matches_the_reduced_form():
    """Seeded random matrices, wide, tall, square and empty, with zero,
    duplicate and rank-deficient rows, long entries given as int, str and
    Fraction, each also thinned to a sparse copy.  The echelon form has
    `rref`'s pivot columns, unit pivots and zeros left of and below them."""
    rnd = random.Random(20261019)
    substituted = 0
    for _ in range(1500):
        rows, ncols = _rank_case(rnd)
        sparse = [[x if rnd.random() < 0.4 else 0 for x in row] for row in rows]
        for case in (rows, sparse):
            kernel = nullspace(case, ncols)
            assert kernel == _rref_nullspace(case, ncols), (case, ncols)
            assert all(type(x) is Fraction for v in kernel for x in v)
            substituted += any(sum(1 for x in v if x) > 1 for v in kernel)
            echelon, pivots = rref(case, ncols, echelon=True)
            assert pivots == rref(case, ncols)[1]
            for k, (row, p) in enumerate(zip(echelon, pivots)):
                assert row[p] == 1 and not any(row[:p]) and not any(r[p] for r in echelon[k + 1:])
    assert substituted > 1000


def test_echelon_form_keeps_the_entries_above_its_pivots():
    assert rref([[1, 1], [0, 1]], echelon=True) == ([(1, 1), (0, 1)], [0, 1])
    assert rref([[0, 2, 4], [1, 1, 1]], echelon=True) == ([(1, 1, 1), (0, 1, 2)], [0, 1])
    assert rref([[2, 4], [1, 2]], echelon=True) == ([(1, 2)], [0])


def _all_coordinate_rows(fw, cycles):
    """The reference system: one row per cycle per ambient coordinate, in
    cycle order, then a forced-zero row per degenerate edge."""
    eidx = {e: i for i, e in enumerate(fw.edges)}
    rows = []
    for walk in cycles:
        acc = [[Fraction(0)] * fw.dim for _ in fw.edges]
        for u, v in walk_edges(walk):
            i = eidx[edge_key(u, v)]
            acc[i] = [a + s for a, s in zip(acc[i], vec_sub(fw.point(v), fw.point(u)))]
        rows += [[acc[i][k] for i in range(len(fw.edges))] for k in range(fw.dim)]
    return rows + [[Fraction(e == f) for f in fw.edges] for e in sorted(fw.degenerate_edges)]


@functools.cache
def cycle_system_kernels(fw):
    """The one reference for a framework's deformation basis, the reduced
    form's kernel of `_all_coordinate_rows` (every ambient coordinate, edge
    order), beside `nullspace` of the hull-coordinate rows as built and
    whether rows were left out in hull coordinates.  Computed once per
    framework and shared by every test that checks a basis against it."""
    cycles, n = cycle_basis(fw), len(fw.edges)
    reference_rows, rows = _all_coordinate_rows(fw, cycles), cycle_equation_rows(fw, cycles)
    return tuple(_rref_nullspace(reference_rows, n)), tuple(nullspace(rows, n)), len(rows) < len(reference_rows)


def test_nullspace_matches_the_reduced_form_on_cycle_systems():
    """The cycle equations `deformation_space` eliminates, as built: the
    corpus, the members the deduction engine proves, P/Q_2,3, P_1,5 and
    the K4 and K_{2,3} zonotopes."""
    fws = [e.framework for e in corpus().values()]
    fws += [bipartite_truncation(n, m, kind).framework for kind, n, m in [*DEDUCTION_PROVABLE, ("P", 1, 5)]]
    fws += [graphical_zonotope(g).framework() for g in (complete_graph(4), complete_bipartite(2, 3))]
    dims = set()
    for fw in fws:
        reference, kernel, _ = cycle_system_kernels(fw)
        assert kernel == reference
        assert all(type(x) is Fraction for v in kernel for x in v)
        dims.add(len(kernel))
    assert {1, 2, 3} <= dims


def test_rank_entries_stay_minors():
    """Bareiss's exact division by the previous pivot keeps every entry a
    minor of the input, so below Hadamard's bound.  Cross-multiplying
    without it gives the same rank, but entries double in length each
    step: on this 18x18 matrix its peak memory is about 30 times larger."""
    rnd = random.Random(1968)
    n = 18
    rows = [[rnd.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    hadamard = math.prod(math.isqrt(sum(x * x for x in r)) + 1 for r in rows)
    matrix_bytes = n * (sys.getsizeof([0] * n) + n * sys.getsizeof(hadamard))
    tracemalloc.start()
    try:
        assert rank(rows) == n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * matrix_bytes, (peak, matrix_bytes)


@pytest.mark.parametrize(
    "rows, ncols, message",
    [
        ([], None, "ncols required"),
        ([[1, 2], [3]], None, "not rectangular"),
        ([[1, 2], [3, 4]], 3, "not rectangular"),
        ([[Fraction(1, 2)]], 2, "not rectangular"),
    ],
)
def test_rank_raises_what_rref_raises(rows, ncols, message):
    for fn in (rank, rref):
        with pytest.raises(ValueError, match=message):
            fn(rows, ncols)


def test_one_shot_iterables():
    assert rank(iter([[1, 0], [0, 1]]), 2) == 2
    assert nullspace(iter([[1, 0]]), 2) == [(0, 1)]
    assert in_span(iter([(1, 0)]), (1, 0))


def _dense_pivot(m, r, c, below=False):
    """The reference step: the Gauss-Jordan step that updates every row
    across its full width."""
    row = m[r]
    if row[c] != 1:
        inv = 1 / row[c]
        m[r] = row = [inv * x for x in row]
    for i in range(r + 1 if below else 0, len(m)):
        if i != r and m[i][c] != 0:
            f = m[i][c]
            m[i] = [x - f * y for x, y in zip(m[i], row)]


def test_pivot_matches_the_dense_step():
    """Seeded random Fraction matrices, dense and sparse, short and long
    entries, through chains of pivots at random nonzero entries in both
    modes.  Half the pivot rows are zeroed left of the pivot column, as in
    `rref`; the others keep nonzeros there, as a simplex pivot row may.
    After every step the matrix is the dense step's, Fraction for Fraction."""
    rnd = random.Random(20261020)
    seen = set()
    for _ in range(600):
        nrows, ncols = rnd.randint(1, 7), rnd.randint(1, 8)
        density, size = rnd.choice([0.3, 0.6, 1.0]), rnd.choice([5, 10**20])
        m = [[Fraction(rnd.randint(-size, size), rnd.randint(1, size)) if rnd.random() < density else Fraction(0)
              for _ in range(ncols)] for _ in range(nrows)]
        want = [list(row) for row in m]
        for _ in range(rnd.randint(1, 4)):
            cells = [(r, c) for r in range(nrows) for c in range(ncols) if m[r][c]]
            if not cells:
                break
            r, c = rnd.choice(cells)
            if rnd.random() < 0.5:
                m[r][:c] = want[r][:c] = [Fraction(0)] * c
            below = rnd.random() < 0.5
            seen.add((density, next(j for j, x in enumerate(m[r]) if x) < c, below))
            pivot(m, r, c, below)
            _dense_pivot(want, r, c, below)
            assert m == want
            assert all(type(x) is Fraction for row in m for x in row)
    assert len(seen) == 12


def test_eliminations_leave_the_callers_rows_unchanged():
    """`pivot` updates rows in place, so its callers hand it copies: the
    caller's rows, as lists of Fractions, come back as they went in."""
    rnd = random.Random(24)
    for _ in range(20):
        rows = [[Fraction(rnd.randint(1, 6), rnd.randint(1, 3)) for _ in range(4)] for _ in range(3)]
        rows += [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
        before, lists = [list(row) for row in rows], list(rows)
        rref(rows)
        rref(rows, echelon=True)
        nullspace(rows, 4)
        dd_rays(rows, 4)
        lp = LinearProgram(4, [-1] * 4, eq=[(rows[0], 1)], le=[(row, 9) for row in rows[1:]], nonneg=True)
        assert solve(lp).status == OPTIMAL
        assert rows == before and all(a is b for a, b in zip(rows, lists))


class _Rational(Fraction):
    """A Fraction subclass: equal to its value as a Fraction, but not of its type."""


# Each entry type: how it writes a Fraction, and which Fractions it can hold.
_ENTRY_TYPES = {
    "Fraction": (lambda x: x, lambda x: True),
    "int": (int, lambda x: x.denominator == 1),
    "bool": (bool, lambda x: x in (0, 1)),
    "text": (str, lambda x: True),
    "subclass": (_Rational, lambda x: True),
}


def _exact_results(rows, points, entry):
    """(indices, entries) of everything the exact layers return for one
    matrix and one point set, given with `entry` applied to every Fraction:
    `rref` in both modes, `nullspace`, `dd_rays` on the rows and the unit
    rows, an LP on the rows and its normalized fields, `labelled_points`.
    The entries are nested tuples whose leaves should all be Fractions."""
    ncols = len(rows[0])
    cone = rows + [[Fraction(i == j) for j in range(ncols)] for i in range(ncols)]
    rows, cone = ([[entry(x) for x in r] for r in m] for m in (rows, cone))
    reduced, pivots = rref(rows)
    echelon, echelon_pivots = rref(rows, echelon=True)
    rays = dd_rays(cone, ncols)
    lp = LinearProgram(ncols, rows[-1], eq=[(rows[0], rows[0][0])], le=[(r, r[-1]) for r in rows[1:]], nonneg=True)
    result = solve(lp)
    ids, coords = labelled_points((label, [entry(x) for x in p]) for label, p in points.items())
    indices = (pivots, echelon_pivots, [tight for _, tight in rays], result.status, ids)
    optimum = (result.value, result.point) if result.status == OPTIMAL else ()
    entries = (reduced, echelon, nullspace(rows, ncols), [ray for ray, _ in rays],
               (lp.objective, lp.eq, lp.le), optimum, coords)
    return indices, entries


def _leaves(obj):
    if isinstance(obj, (tuple, list)):
        for x in obj:
            yield from _leaves(x)
    else:
        yield obj


def test_every_entry_type_gives_the_same_fractions():
    """The same seeded matrices and points, given as Fractions, ints, bools,
    "p/q" text and a Fraction subclass wherever the type can hold them,
    give equal results in every exact layer, and every entry of those
    results is a Fraction itself, never a subclass: the layers keep only
    entries of type Fraction and convert all others."""
    rnd = random.Random(2025)
    draws = {
        "0/1": lambda: Fraction(rnd.randint(0, 1)),
        "integer": lambda: Fraction(rnd.randint(-4, 4)),
        "rational": lambda: Fraction(rnd.randint(-9, 9), rnd.randint(1, 6)),
    }
    seen = set()
    for _ in range(90):
        draw = draws[rnd.choice(sorted(draws))]
        nrows, ncols = rnd.randint(1, 5), rnd.randint(1, 5)
        rows = [[draw() for _ in range(ncols)] for _ in range(nrows)]
        points = {f"v{i}": [draw() for _ in range(ncols)] for i in range(rnd.randint(1, 4))}
        want = _exact_results(rows, points, lambda x: x)
        for name, (entry, holds) in _ENTRY_TYPES.items():
            if all(holds(x) for r in [*rows, *points.values()] for x in r):
                seen.add(name)
                indices, entries = _exact_results(rows, points, entry)
                assert (indices, entries) == want, name
                assert all(type(x) is Fraction for x in _leaves(entries)), name
    assert seen == set(_ENTRY_TYPES)


def test_rref_shares_the_fractions_it_is_given_and_pivot_keeps_zeros():
    """`rref` copies the rows but not their Fraction entries, and `pivot`
    scales only the nonzeros of the pivot row."""
    x, y = Fraction(2, 3), Fraction(-5, 7)
    reduced, _ = rref([[Fraction(1), x, y]])
    assert reduced[0][1] is x and reduced[0][2] is y
    zero = Fraction(0)
    m = [[Fraction(2), zero, Fraction(4)]]
    pivot(m, 0, 0)
    assert m == [[1, 0, 2]] and m[0][1] is zero


def test_rref_deterministic_pivots():
    rows = [[0, 2, 4], [1, 1, 1]]
    reduced, pivots = rref(rows)
    assert pivots == [0, 1]
    assert reduced[0][0] == 1 and reduced[1][1] == 1


def test_span_and_parallel():
    assert in_span([(1, 0), (0, 1)], (5, -3))
    assert not in_span([(1, 1)], (1, 2))
    assert parallel((2, 4), (1, 2))
    assert parallel((0, 0), (1, 2))
    assert not parallel((1, 0), (1, 1))


def test_parallel_refuses_vectors_of_different_lengths():
    for a, b in (((1, 0), (1, 0, 5)), ((1, 0, 0), (1, 0))):
        with pytest.raises(ValueError, match="different lengths"):
            parallel(a, b)


def test_one_vector_span_and_parallel_match_the_rank_definition():
    """`parallel` and the one-vector `in_span` eliminate nothing; both must
    answer as ranks do, on zero, repeated, antiparallel and rational-multiple
    directions and on unrelated ones."""
    rnd = random.Random(23)
    seen = set()
    for _ in range(400):
        n = rnd.randint(1, 4)
        base = [tuple(Fraction(rnd.randint(-3, 3), rnd.randint(1, 3)) for _ in range(n)) for _ in range(2)]
        pool = [(Fraction(0),) * n]
        for v in base:
            c = Fraction(rnd.randint(-5, 5), rnd.randint(1, 4))
            pool += [v, tuple(-x for x in v), tuple(c * x for x in v)]
        v, t = rnd.choice(pool), rnd.choice(pool)
        both = rank([v, t], n)
        assert in_span([v], t) == (both == rank([v], n)), (v, t)
        assert parallel(v, t) == (both <= 1), (v, t)
        seen.add((rank([v], n), both))
    assert seen == {(0, 0), (0, 1), (1, 1), (1, 2)}


def test_affine_rank():
    assert affine_rank([]) == -1
    assert affine_rank([(Fraction(1), Fraction(1))]) == 0
    pts = [(0, 0), (1, 0), (2, 0)]
    assert affine_rank([tuple(map(Fraction, p)) for p in pts]) == 1
