"""Double description: extreme rays of {t : row . t >= 0 for all rows}.

Incremental insertion starting from a simplicial subcone picked from the
first full-rank subset of constraint rows.  Adjacency of rays is decided
algebraically: two rays are adjacent when their common tight constraints
have rank dim-2, which fewer than dim-2 of them never have.  The cone must
be pointed (the rows span the dual space); callers guarantee that or get a
ValueError.

Rows and rays are primitive integer vectors, which changes no cone.  Each
ray carries the rows tight at it, exactly: a new ray is a positive sum of
two old ones, tight where both are and at the inserted row.  `dd_rays`
returns these incidences with the rays.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ResourceLimitError
from .exact import Vec, primitive, rank, rref

# Rays one insertion may hold, kept and new together.  The most the report,
# the census, the benchmark workloads and the tests reach is 52.
MAX_DD_RAYS = 1000


def canonical_ray(r) -> Vec:
    j = next((i for i, x in enumerate(r) if x != 0), None)
    if j is None:
        raise ValueError("zero ray")
    scale = Fraction(1) / abs(r[j])
    return tuple(scale * x for x in r)


def _initial_simplicial(rows, dim):
    """Greedy full-rank row subset and the rays of the cone they cut, as
    primitive integer vectors.

    The rows a left-to-right scan finds independent are the pivot columns
    of the RREF of the transposed rows."""
    chosen = rref(list(zip(*rows)), len(rows))[1]
    if len(chosen) < dim:
        raise ValueError("cone is not pointed (constraint rows do not span)")
    mat = [list(rows[i]) for i in chosen]
    aug = [row + [Fraction(1 if i == j else 0) for j in range(dim)] for i, row in enumerate(mat)]
    reduced, pivots = rref(aug, 2 * dim)
    assert pivots == list(range(dim))
    return chosen, [primitive([reduced[i][dim + j] for i in range(dim)]) for j in range(dim)]


def dd_rays(rows, dim: int) -> list[tuple[Vec, frozenset[int]]]:
    """Extreme rays, canonically scaled and sorted, each with the indices of
    the rows tight at it.  Zero rows are tight at every ray.

    ResourceLimitError as soon as one insertion holds more than MAX_DD_RAYS
    rays."""
    rows = [tuple(Fraction(x) for x in r) for r in rows]
    zero = frozenset(i for i, r in enumerate(rows) if not any(r))
    live = [i for i in range(len(rows)) if i not in zero]
    if dim == 0:
        return []
    if not live:
        raise ValueError("cone is not pointed (no constraints)")
    rows = [primitive(rows[i]) for i in live]
    chosen, rays = _initial_simplicial(rows, dim)
    # ray k is a column of the inverse: it meets chosen row i in 0 unless i is the k-th
    tight = [set(chosen) - {i} for i in chosen]
    for j in [i for i in range(len(rows)) if i not in chosen]:
        a = rows[j]
        vals = [sum(x * y for x, y in zip(a, r)) for r in rays]
        keep_idx = [i for i, v in enumerate(vals) if v >= 0]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        new_rays: list[tuple[int, ...]] = []
        new_tight: list[set[int]] = []
        for p in pos:
            for q in neg:
                common = tight[p] & tight[q]
                if len(common) < dim - 2 or rank([rows[i] for i in common], dim) != dim - 2:
                    continue
                r = [vals[p] * x - vals[q] * y for x, y in zip(rays[q], rays[p])]
                g = math.gcd(*r)
                new_rays.append(tuple(x // g for x in r))
                new_tight.append(common | {j})
                if len(keep_idx) + len(new_rays) > MAX_DD_RAYS:
                    raise ResourceLimitError(f"double description guard: more than {MAX_DD_RAYS} rays")
        rays = [rays[i] for i in keep_idx] + new_rays
        tight = [tight[i] | ({j} if vals[i] == 0 else set()) for i in keep_idx] + new_tight
    seen = {}
    for r, t in zip(rays, tight):
        seen[canonical_ray(r)] = frozenset(live[i] for i in t) | zero
    return sorted(seen.items())
