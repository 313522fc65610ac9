"""Regenerate reference.json: the checked outputs of every workload at the
default seed, which later runs at that seed must reproduce.

Usage, from the root of a checkout:  python3 perfbench/make_reference.py

Review the diff before committing: a changed exact field means the program's
results changed, not the benchmark.
"""

import json
import sys

from run import ROOT, Run, remove_workdir
from workloads import DEFAULT_SEED, REFERENCE, WORKLOADS


def main() -> int:
    out = {"seed": DEFAULT_SEED, "workloads": {}}
    workdir = ROOT / ".perfbench" / "reference"
    try:
        for name, cls in WORKLOADS.items():
            run = Run(cls(), DEFAULT_SEED, workdir / name)
            run.reference = None
            result, itdir = run.launch(None)
            groups = run.account(result, itdir, name)
            if groups is None or run.failed:
                print(f"{name}: checks failed: {run.notes}", file=sys.stderr)
                return 1
            out["workloads"][name] = {
                key: {k: g[k] for k in ("items", "exact", "floats")}
                for key, g in groups.items()}
            print(f"{name}: {len(groups)} groups, {run.attempted} items")
    finally:
        remove_workdir(workdir)
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
