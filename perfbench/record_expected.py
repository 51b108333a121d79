#!/usr/bin/env python3
"""Record perfbench/expected.json: every input's verdicts at the identity map.

    python3 perfbench/record_expected.py

The file is recorded once, from a commit whose verdicts are trusted, and
every seed of every later run is checked against it.  Where a stronger
source (paper f-vector, corpus `expected` dict, DEDUCTION_PROVABLE) gives
a value, the recorded one must agree with it; a disagreement is printed
and the file is not written.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def main() -> int:
    recorded = {}
    conflicts = []
    for workload in workloads.WORKLOADS:
        pkg = run.import_package()
        base = workloads.build(pkg, workload)
        caches, clearers = run.package_caches()
        recorded[workload] = {}
        for (name, geom, _), (_, item) in zip(base, workloads.serialize(pkg, workload, base, None)):
            run.clear_all(caches, clearers)
            got = workloads.verdicts(workload, workloads.OPS[workload](pkg, item))
            if workload == "certify":
                got["indecomposable"] = pkg.framework.is_indecomposable(geom[0])
            recorded[workload][name] = got
        for name, exp in workloads.expected_values(pkg, workload, base, recorded).items():
            for field, (value, source) in exp.items():
                if source != "recorded" and recorded[workload][name].get(field) != value:
                    conflicts.append(f"{workload}/{name}.{field}: {source} says {value!r}, "
                                     f"recorded {recorded[workload][name].get(field)!r}")
    if conflicts:
        print("\n".join(conflicts), file=sys.stderr)
        return 1
    path = os.path.join(run.HERE, "expected.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
