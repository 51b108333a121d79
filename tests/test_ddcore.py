"""The integer double description against the Fraction one it replaced."""

import random
from fractions import Fraction

import pytest

from defocone.constructions import bipartite_truncation
from defocone.corpus import corpus
from defocone.ddcore import canonical_ray, dd_rays
from defocone.exact import rank, rref, vec_dot
from defocone.polytope import facets

# ---------------------------------------------------------------------------
# the reference: the Fraction double description, with incidences taken by
# one dot product per row and ray, as `polytope.facets` used to take them


def _reference_canonical(r):
    j = next(i for i, x in enumerate(r) if x != 0)
    return tuple(x / abs(r[j]) for x in r)


def _reference_simplicial(rows, dim):
    chosen = rref(list(zip(*rows)), len(rows))[1]
    if len(chosen) < dim:
        raise ValueError("cone is not pointed (constraint rows do not span)")
    mat = [list(rows[i]) for i in chosen]
    aug = [row + [Fraction(1 if i == j else 0) for j in range(dim)] for i, row in enumerate(mat)]
    reduced, _ = rref(aug, 2 * dim)
    return chosen, [tuple(reduced[i][dim + j] for i in range(dim)) for j in range(dim)]


def reference_dd_rays(rows, dim):
    rows = [tuple(Fraction(x) for x in r) for r in rows if any(x != 0 for x in r)]
    if dim == 0:
        return []
    if not rows:
        raise ValueError("cone is not pointed (no constraints)")
    chosen, rays = _reference_simplicial(rows, dim)
    tight = [{i for i in chosen if vec_dot(rows[i], r) == 0} for r in rays]
    for j in [i for i in range(len(rows)) if i not in chosen]:
        vals = [vec_dot(rows[j], r) for r in rays]
        new_rays, new_tight = [], []
        for p in [i for i, v in enumerate(vals) if v > 0]:
            for q in [i for i, v in enumerate(vals) if v < 0]:
                common = tight[p] & tight[q]
                if rank([rows[i] for i in common], dim) != dim - 2:
                    continue
                r = tuple(vals[p] * x - vals[q] * y for x, y in zip(rays[q], rays[p]))
                new_rays.append(_reference_canonical(r))
                new_tight.append(common | {j})
        keep = [i for i, v in enumerate(vals) if v >= 0]
        rays = [rays[i] for i in keep] + new_rays
        tight = [tight[i] | ({j} if vals[i] == 0 else set()) for i in keep] + new_tight
    return sorted({_reference_canonical(r) for r in rays})


def dot_incidence(rows, ray):
    return frozenset(i for i, row in enumerate(rows) if vec_dot(tuple(map(Fraction, row)), ray) == 0)


def assert_matches_reference(rows, dim):
    got = dd_rays(rows, dim)
    assert [ray for ray, _ in got] == reference_dd_rays(rows, dim)
    for ray, tight in got:
        assert all(isinstance(x, Fraction) for x in ray)
        assert tight == dot_incidence(rows, ray)
    return got


# ---------------------------------------------------------------------------
# inputs


def _random_cone(rng, dim):
    """Rows of a pointed cone with interior point e_0, plus zero, duplicate,
    scaled and redundant rows, shuffled."""
    def entry():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    rows = [tuple([Fraction(rng.randint(1, 5), rng.randint(1, 3))] + [entry() for _ in range(dim - 1)])
            for _ in range(dim + rng.randint(1, 6))]
    for _ in range(rng.randint(0, 2)):
        rows.append((Fraction(0),) * dim)
    for _ in range(rng.randint(0, 2)):
        rows.append(rng.choice(rows))
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(rows, 2)
        c = Fraction(rng.randint(1, 3), rng.randint(1, 3))
        rows.append(tuple(x + c * y for x, y in zip(a, b)))
    for _ in range(rng.randint(0, 1)):
        rows.append(tuple(Fraction(rng.randint(1, 3)) * x for x in rng.choice(rows)))
    rng.shuffle(rows)
    return rows


def _polytopes():
    out = [(name, e.polytope) for name, e in sorted(corpus().items()) if e.polytope is not None]
    for kind in "PQ":
        for n, m in ((n, m) for n in range(1, 5) for m in range(1, 5) if n + m <= 5):
            if kind == "Q" and n * m <= 2:
                continue
            p = bipartite_truncation(n, m, kind).polytope
            if 2 <= len(p.vertex_ids) <= 45:
                out.append((f"{kind}_{n},{m}", p))
    return out


# ---------------------------------------------------------------------------
# tests


def test_canonical_ray_is_exact_on_integer_input():
    assert canonical_ray((2, 4)) == (1, 2)
    assert canonical_ray((0, -3, 6)) == (0, -1, 2)
    for r in ((2, 4), (0, -3, 6), (Fraction(-2, 3), 1), (5,)):
        got = canonical_ray(r)
        assert all(type(x) is Fraction for x in got), got
        assert abs(next(x for x in got if x != 0)) == 1
    with pytest.raises(ValueError, match="zero ray"):
        canonical_ray((0, 0))


def test_random_cones_match_the_fraction_reference():
    rng = random.Random(20261018)
    total = 0
    for k in range(120):
        dim = 2 + k % 5
        got = assert_matches_reference(_random_cone(rng, dim), dim)
        total += len(got)
    assert total > 400  # the cones are not trivial


def test_incidences_use_the_callers_row_numbering():
    # the square cone: four facet rays; row 1 is zero, row 4 duplicates row 0
    rows = [(1, 1, 0), (0, 0, 0), (1, -1, 0), (1, 0, 1), (1, 1, 0), (1, 0, -1)]
    got = assert_matches_reference(rows, 3)
    assert len(got) == 4
    assert all({1} < tight for _, tight in got)
    assert sum(0 in tight and 4 in tight for _, tight in got) == 2


def test_facets_match_the_dot_product_incidence():
    for name, p in _polytopes():
        _, hbasis, ys = p.hull_frame
        rows = [(Fraction(1),) + y for y in ys]
        assert_matches_reference(rows, len(hbasis) + 1)
        expected = sorted(
            (frozenset(p.vertex_ids[i] for i in dot_incidence(rows, ray))
             for ray in reference_dd_rays(rows, len(hbasis) + 1)),
            key=sorted,
        )
        assert [f.vertex_ids for f in facets(p)] == expected, name


@pytest.mark.parametrize(
    "rows, dim, message",
    [
        ([], 2, "no constraints"),
        ([(0, 0), (Fraction(0), 0)], 2, "no constraints"),
        ([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 3, "do not span"),
    ],
)
def test_errors_match_the_reference(rows, dim, message):
    for fn in (dd_rays, reference_dd_rays):
        with pytest.raises(ValueError, match=message):
            fn(rows, dim)


def test_no_dimension_means_no_rays():
    assert dd_rays([(), ()], 0) == reference_dd_rays([(), ()], 0) == []
