"""One benchmark iteration in a fresh interpreter.

Usage: python3 child.py JOB.json

The job file names the workload kind and its inputs and the path for the
result file.  The interpreter is fresh so that the process-wide caches
(``get_context``, ``_basis``, ``get_unit_group``) start cold, as they do for
every CLI invocation.  ``setup_s`` runs from the parent's launch timestamp
(``time.monotonic``, one clock for all processes) until every layer is
imported; ``wall_s`` times the workload's entry call only.  A workload
iteration also times ``CAL_PASSES`` passes of the calibration kernel
(``calibrate.py``) right before and as many right after its entry call;
``cal_s`` is the median pass.
"""

import json
import resource
import statistics
import sys
import time

import gl2local.cli  # imports every layer

imported = time.monotonic()

from calibrate import kernel_s  # noqa: E402

CAL_PASSES = 3


def run_cli(job: dict) -> dict:
    t0 = time.perf_counter()
    rc = gl2local.cli.main(["--config", job["config_path"]])
    return {"wall_s": time.perf_counter() - t0, "rc": rc}


def run_gram(job: dict) -> dict:
    import random

    from gl2local.characters import primitive_char
    from gl2local.matcoef import MatCoefEngine, gram_dimension_estimate
    from gl2local.whittaker import ReprSpec

    t0 = time.perf_counter()
    spec = ReprSpec.principal_series(primitive_char(job["p"], job["n"] // 2))
    engine = MatCoefEngine(spec)
    rank, eigs = gram_dimension_estimate(
        engine, job["elements"], random.Random(job["seed"]),
        return_spectrum=True)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "rank": int(rank),
            "eigs": [float(e) for e in eigs],
            "rank_cap": 4 * spec.p**spec.n0}


def run_crit6(job: dict) -> dict:
    import random

    from gl2local.residue import get_context
    from gl2local.statphase import speedup_report

    cases = []
    for p, n, family, gate in job["cases"]:
        spec = gl2local.cli.build_spec(
            gl2local.cli.ExperimentConfig(task="speedup", p=p, n=n,
                                          family=family))
        i = spec.n0 + 1
        # the grid of tests/test_acceptance.py::supported_grid
        rng = random.Random(f"speedup:{p}:{n}:{family}:{i}")
        ctx = get_context(p, 2 * n + 6)

        def unit():
            return p * rng.randrange(p ** (n + 1)) + rng.randrange(1, p)

        grid = [(ctx.scalar(0, unit()), ctx.scalar(i - n, unit()))
                for _ in range(job["points"])]
        s = speedup_report(spec, i, grid)["summary"]
        cases.append({"case": f"{p},{n},{family}", "gate": gate,
                      "speedup": s["speedup"],
                      "max_deviation": s["max_deviation"]})
    return {"cases": cases}


RUNNERS = {"cli": run_cli, "gram": run_gram, "crit6": run_crit6,
           "setup": lambda job: {}}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    out = {"setup_s": imported - job["launched"],
           "gl2local_file": gl2local.cli.__file__}
    tracer = None
    if job.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    timed = job["kind"] in ("cli", "gram")
    passes = [kernel_s() for _ in range(CAL_PASSES if timed else 0)]
    try:
        out.update(RUNNERS[job["kind"]](job))
    except Exception as exc:  # typed failures are results, not crashes
        out["error"] = {"type": type(exc).__name__, "message": str(exc)[:500]}
    if timed:
        passes += [kernel_s() for _ in range(CAL_PASSES)]
        out["cal_s"] = statistics.median(passes)
    if tracer is not None:
        out["trace"] = tracer.report()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(job["result_path"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
