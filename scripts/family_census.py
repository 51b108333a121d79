#!/usr/bin/env python3
"""Census of the truncated bipartite zonotopes within a vertex budget.

For each member: f-vector, deformed-permutahedron check, whether it is a
matroid polytope up to homothety ("-" unless dc = 1), the exact cone
dimension, and whether the deduction engine alone certifies
indecomposability.  A member past a resource guard gets a
`guard: <reason>` row and the census goes on.

After each N = n + m one line counts the members with n < m that are
indecomposable and not matroid polytopes up to homothety, beside the
abstract's 2*floor((N-1)/2), and names the members a guard left out.
"""

import argparse
import time

from defocone.constructions import bipartite_truncation
from defocone.corpus import facet_flats
from defocone.deduction import conclude_indecomposable, saturate
from defocone.errors import ResourceLimitError
from defocone.framework import dc_dimension
from defocone.polytope import f_vector, is_deformed_permutahedron, matroid_homothet


def _member(n: int, m: int, kind: str):
    """(row text, matroid_homothet or None unless dc = 1)."""
    tr = bipartite_truncation(n, m, kind)
    f = f_vector(tr.polytope)
    dp = is_deformed_permutahedron(tr.polytope)
    dim = dc_dimension(tr.framework)
    matroid = matroid_homothet(tr.polytope) if dim == 1 else None
    st = saturate(tr.framework)
    flats = facet_flats(tr.polytope) if len(tr.polytope.vertex_ids) > 2 else None
    deduced, _ = conclude_indecomposable(st, flats)
    shown = "-" if matroid is None else str(matroid)
    return f"{str(f):>22} {str(dp):>8} {shown:>8} {dim:>4} {str(deduced):>8}", matroid


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-total", type=int, default=5, help="largest n+m")
    args = ap.parse_args(argv)
    header = f"{'member':>8} {'f-vector':>22} {'defperm':>8} {'matroid':>8} {'dim':>4} {'deduced':>8} {'secs':>6}"
    print(header)
    print("-" * len(header))
    for total in range(2, args.max_total + 1):
        count, guarded = 0, []
        for n in range(1, total):
            m = total - n
            if n > m:
                continue
            for kind in ("P", "Q"):
                if kind == "Q" and n * m <= 2:
                    continue
                t0 = time.time()
                try:
                    row, matroid = _member(n, m, kind)
                except ResourceLimitError as exc:
                    print(f"{kind}_{n},{m:>2} guard: {exc}")
                    guarded.append(f"{kind}_{n},{m}")
                    continue
                print(f"{kind}_{n},{m:>2} {row} {time.time() - t0:>6.2f}")
                count += n < m and matroid is False
        print(f"N = {total}: indecomposable, n < m, not a matroid polytope up to homothety: {count}; "
              f"2*floor((N-1)/2) = {2 * ((total - 1) // 2)}"
              + (f" (guarded, not counted: {', '.join(guarded)})" if guarded else ""))


if __name__ == "__main__":
    main()
