#!/usr/bin/env python3
"""Census of the truncated bipartite zonotopes within a vertex budget.

For each member: f-vector, deformed-permutahedron check, the two-value
coordinate test, the exact cone dimension, and whether the deduction
engine alone certifies indecomposability.  A compact view of how the
family behaves as n + m grows.  A member past a resource guard gets a
`guard: <reason>` row and the census goes on.
"""

import argparse
import time

from defocone.constructions import bipartite_truncation
from defocone.corpus import facet_flats
from defocone.deduction import conclude_indecomposable, saturate
from defocone.errors import ResourceLimitError
from defocone.framework import dc_dimension
from defocone.polytope import f_vector, is_deformed_permutahedron, matroid_coordinate_test


def _member_row(n: int, m: int, kind: str) -> str:
    tr = bipartite_truncation(n, m, kind)
    f = f_vector(tr.polytope)
    if len(tr.polytope.vertex_ids) > 1:
        dp = is_deformed_permutahedron(tr.polytope)[0]
        coord = matroid_coordinate_test(tr.polytope)
    else:
        dp, coord = True, True
    dim = dc_dimension(tr.framework)
    st = saturate(tr.framework)
    flats = facet_flats(tr.polytope) if len(tr.polytope.vertex_ids) > 2 else None
    deduced, _ = conclude_indecomposable(st, flats)
    return f"{str(f):>22} {str(dp):>8} {str(coord):>8} {dim:>4} {str(deduced):>8}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-total", type=int, default=5, help="largest n+m")
    args = ap.parse_args(argv)
    header = f"{'member':>8} {'f-vector':>22} {'defperm':>8} {'2-coord':>8} {'dim':>4} {'deduced':>8} {'secs':>6}"
    print(header)
    print("-" * len(header))
    for total in range(2, args.max_total + 1):
        for n in range(1, total):
            m = total - n
            if n > m:
                continue
            for kind in ("P", "Q"):
                if kind == "Q" and n * m <= 2:
                    continue
                t0 = time.time()
                try:
                    row = _member_row(n, m, kind)
                except ResourceLimitError as exc:
                    print(f"{kind}_{n},{m:>2} guard: {exc}")
                    continue
                print(f"{kind}_{n},{m:>2} {row} {time.time() - t0:>6.2f}")


if __name__ == "__main__":
    main()
