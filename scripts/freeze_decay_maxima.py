"""Regenerate tests/fixtures/decay_maxima.json.

Runs the same seeded sweep as the acceptance suite (the column form of
verify_support, read row by row by its support_rows) and records, per
(p, n, family, i), the largest normalized coefficient size observed on
supported grid points.  Run once after any change to the evaluators, then
review the diff before committing.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

import test_acceptance as acc  # noqa: E402


def main() -> None:
    t0 = time.perf_counter()
    maxima = {}
    for p, n, family in acc.FAMILY_CASES:
        spec = acc.make_spec(p, n, family)
        engine = acc.MatCoefEngine(spec)
        for i in range(spec.n0 + 1, spec.n + 1):
            rows = acc.support_rows(engine, family, i)
            if any(r["violation"] for r in rows):
                raise SystemExit(f"support violation at {(p, n, family, i)}")
            ratios = [r["ratio_normalized"] for r in rows
                      if not r["expected_zero"]]
            maxima[f"{p},{n},{family},{i}"] = max(ratios)
        print(f"{p} {n} {family}: done at {time.perf_counter() - t0:.1f}s",
              flush=True)
    out = ROOT / "tests" / "fixtures" / "decay_maxima.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(maxima, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(maxima)} entries to {out} "
          f"in {time.perf_counter() - t0:.1f}s total")


if __name__ == "__main__":
    main()
