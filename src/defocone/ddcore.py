"""Double description: extreme rays of {t : row . t >= 0 for all rows}.

Incremental insertion starting from a simplicial subcone picked from the
first full-rank subset of constraint rows.  Adjacency of rays is decided
algebraically: two rays are adjacent when their common tight constraints
have rank dim-2.  The cone must be pointed (the rows span the dual space);
callers guarantee that or get a ValueError.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import Vec, rank, rref, vec_dot


def canonical_ray(r) -> Vec:
    j = next((i for i, x in enumerate(r) if x != 0), None)
    if j is None:
        raise ValueError("zero ray")
    scale = 1 / abs(r[j])
    return tuple(scale * x for x in r)


def _initial_simplicial(rows, dim):
    """Greedy full-rank row subset and the rays of the cone they cut.

    The rows a left-to-right scan finds independent are the pivot columns
    of the RREF of the transposed rows."""
    chosen = rref(list(zip(*rows)), len(rows))[1]
    if len(chosen) < dim:
        raise ValueError("cone is not pointed (constraint rows do not span)")
    mat = [list(rows[i]) for i in chosen]
    aug = [row + [Fraction(1 if i == j else 0) for j in range(dim)] for i, row in enumerate(mat)]
    reduced, pivots = rref(aug, 2 * dim)
    assert pivots == list(range(dim))
    inv_cols = [tuple(reduced[i][dim + j] for i in range(dim)) for j in range(dim)]
    return chosen, inv_cols


def dd_rays(rows, dim: int) -> list[Vec]:
    """Extreme rays, canonically scaled and sorted. Zero rows are ignored."""
    rows = [tuple(Fraction(x) for x in r) for r in rows if any(x != 0 for x in r)]
    if dim == 0:
        return []
    if not rows:
        raise ValueError("cone is not pointed (no constraints)")
    chosen, rays = _initial_simplicial(rows, dim)
    tight: list[set[int]] = []
    for r in rays:
        tight.append({i for i in chosen if vec_dot(rows[i], r) == 0})
    order = [i for i in range(len(rows)) if i not in chosen]
    for j in order:
        a = rows[j]
        vals = [vec_dot(a, r) for r in rays]
        keep_idx = [i for i, v in enumerate(vals) if v >= 0]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        new_rays: list[Vec] = []
        new_tight: list[set[int]] = []
        for p in pos:
            for q in neg:
                common = tight[p] & tight[q]
                if rank([rows[i] for i in common], dim) != dim - 2:
                    continue
                r = tuple(vals[p] * x - vals[q] * y for x, y in zip(rays[q], rays[p]))
                new_rays.append(canonical_ray(r))
                new_tight.append(common | {j})
        rays = [rays[i] for i in keep_idx] + new_rays
        tight = [tight[i] | ({j} if vals[i] == 0 else set()) for i in keep_idx] + new_tight
    seen = {}
    for r, t in zip(rays, tight):
        seen[canonical_ray(r)] = t
    return sorted(seen)
