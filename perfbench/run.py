"""gl2local benchmark: one seeded workload per invocation.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {gram,decay,counting}
        [--seed N] [--seconds S] [--trace 0|1] [--tiny]

Every iteration runs in a fresh interpreter against ``src/`` of the same
checkout, one process at a time.  With ``--trace 0`` the run repeats the
workload for about ``--seconds`` seconds (at least three iterations) and
reports the end-to-end metrics of BENCHMARK.json as medians over the
iterations, times scaled to the machine's reference speed
(``calibrate.py``).  With ``--trace 1`` it runs the criterion-6 margin
diagnostic once, then pairs of untraced and traced iterations, and reports the
per-layer metrics; the traced outputs are checked against the untraced ones.
Outputs are checked after each iteration's process has exited.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--tiny`` shrinks every input, for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))    # the oracles import gl2local from the checkout

from calibrate import REFERENCE_S  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import (CRIT6_CASES, DEFAULT_SEED, WORKLOADS,  # noqa: E402
                       groups_agree, load_reference)

HARD_LIMIT_S = 170.0      # a run must exit within 180 s
MIN_ITERATIONS = 3
SETUP_PROBES = 5          # import-only launches that add setup_s samples
CRIT6_POINTS = 40         # grid size of the criterion-6 wall-clock test


class Run:
    """Launches iterations and keeps what they returned."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.started = time.monotonic()
        self.launches = 0
        self.notes: list[str] = []
        reference = load_reference()
        self.reference = None
        if (not workload.tiny and reference.get("seed") == seed
                and workload.name in reference.get("workloads", {})):
            self.reference = reference["workloads"][workload.name]
        self.baseline = None      # groups of the first checked iteration
        self.oracle_bad = None
        self.attempted = 0
        self.failed = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def launch(self, job: dict | None, trace: bool = False) -> tuple[dict, Path]:
        self.launches += 1
        itdir = self.workdir / f"it{self.launches}"
        itdir.mkdir(parents=True)
        if job is None:
            job = self.workload.job(self.seed, itdir)
        job = dict(job, trace=trace, result_path=str(itdir / "result.json"))
        job_path = itdir / "job.json"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        timeout = max(1.0, HARD_LIMIT_S - self.elapsed())
        job["launched"] = time.monotonic()
        job_path.write_text(json.dumps(job))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(job_path)],
                cwd=itdir, env=env, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"crashed": f"timed out after {timeout:.0f} s"}, itdir
        result_path = Path(job["result_path"])
        if proc.returncode != 0 or not result_path.exists():
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"crashed": f"exit {proc.returncode}: {tail[0]}"}, itdir
        result = json.loads(result_path.read_text())
        if not Path(result["gl2local_file"]).resolve().is_relative_to(SRC):
            return {"crashed": f"imported {result['gl2local_file']}"}, itdir
        return result, itdir

    def account(self, result: dict, itdir: Path, label: str):
        """Check one iteration and count its failed items; returns its
        groups, or None when the whole iteration failed."""
        w = self.workload
        expected = w.expected_items()
        self.attempted += expected
        if "crashed" in result or "error" in result:
            err = result.get("crashed") or "{type}: {message}".format(**result["error"])
            self.notes.append(f"{label}: {err}")
            self.failed += expected
            return None
        try:
            checked = w.check(result, itdir)
            if checked.ok and self.oracle_bad is None:
                self.oracle_bad = w.oracle(self.seed, checked)
                for key in sorted(self.oracle_bad):
                    self.notes.append(f"oracle disagrees on {key}")
        except Exception as exc:  # outputs or API the checks cannot read
            self.notes.append(f"{label}: check failed with "
                              f"{type(exc).__name__}: {exc}")
            self.failed += expected
            return None
        if not checked.ok:
            self.notes.append(f"{label}: the program's own verdict failed")
            self.failed += expected
            return None
        failed = seen = 0
        for key, g in checked.groups.items():
            seen += g["items"]
            bad = key in self.oracle_bad
            for other, what in ((self.baseline, "first iteration"),
                                (self.reference, "stored reference")):
                if other is not None and (key not in other
                                          or not groups_agree(g, other[key])):
                    bad = True
                    self.notes.append(f"{label}: {key} differs from the {what}")
            if bad:
                failed += g["items"]
        missing = max(0, expected - seen)
        if missing:
            self.notes.append(f"{label}: {missing} items missing")
        self.failed += min(expected, failed + missing)
        if self.baseline is None:
            self.baseline = checked.groups
        return checked.groups


def crit6_metrics(result: dict) -> tuple[dict, list[str]]:
    if "cases" not in result:
        err = result.get("crashed") or result.get("error")
        return {"statphase.crit6_speedup_x": 0.0,
                "statphase.crit6_margin": 0.0}, [f"crit6 diagnostic: {err}"]
    cases = result["cases"]
    binding = min(cases, key=lambda c: c["speedup"] / c["gate"])
    notes = [f"crit6 {c['case']}: {c['speedup']:.1f}x vs gate {c['gate']:.0f}x, "
             f"max deviation {c['max_deviation']:.2e}" for c in cases]
    return {"statphase.crit6_speedup_x": binding["speedup"],
            "statphase.crit6_margin": binding["speedup"] / binding["gate"]}, notes


def layer_self_s(report: dict) -> dict:
    return {layer: sum(s["self_s"] for s in report["functions"].values()
                       if s["layer"] == layer) for layer in LAYERS}


def per_layer_values(report: dict) -> dict:
    """Per-layer metrics of one traced iteration."""
    fns, c = report["functions"], report["counters"]
    values = {}
    for key, s in fns.items():
        values[f"{key}.calls"] = s["calls"]
        values[f"{key}.s"] = s["s"]
        values[f"{key}.self_s"] = s["self_s"]
    for layer, self_s in layer_self_s(report).items():
        values[f"{layer}.self_s"] = self_s
    # cli: run_task minus its child spans (grids, CSV and every layer below)
    values["cli.self_s"] = fns["cli.run_task"]["self_s"]
    calls = fns["whittaker.numerator_counts"]["calls"]
    queries = fns["matcoef.phi_counts"]["calls"]
    values["matcoef.terms_per_query"] = calls / queries if queries else 0.0
    values["whittaker.cache_entries"] = c["numerator_counts_distinct"]
    values["whittaker.cache_hit_ratio"] = (
        1 - c["numerator_counts_distinct"] / calls if calls else 0.0)
    values["cyclotomic.nonzero_ratio"] = (
        c["from_counts_nonzero"] / c["from_counts_m"] if c["from_counts_m"] else 0.0)
    values["statphase.kept_ratio"] = (
        c["pairs_kept"] / c["pairs_scanned"] if c["pairs_scanned"] else 0.0)
    values["quaternion.points_accepted"] = c["points_accepted"]
    values["trace.absent_functions"] = len(report["absent"])
    return values


def measure(workload, seed: int, seconds: float, trace: bool,
            workdir: Path, spec: dict) -> dict:
    run = Run(workload, seed, workdir)
    run.notes.append(f"machine: nproc={os.cpu_count()}, Python "
                     f"{platform.python_version()}, numpy {version('numpy')}")
    setups = []
    for _ in range(SETUP_PROBES if not trace else 0):
        result, _ = run.launch({"kind": "setup"})
        if "setup_s" in result:
            setups.append(result["setup_s"])
    crit6 = {}
    if trace:
        result, _ = run.launch({"kind": "crit6", "cases": CRIT6_CASES,
                                "points": 3 if workload.tiny else CRIT6_POINTS})
        crit6, notes = crit6_metrics(result)
        run.notes.extend(notes)
    walls, cals, rss, traced_walls, traced_reports = [], [], [], [], []
    loop_started = run.elapsed()
    while True:
        k = len(walls) + 1
        result, itdir = run.launch(None)
        run.account(result, itdir, f"iteration {k}")
        if "wall_s" in result:
            walls.append(result["wall_s"])
            cals.append(result["cal_s"])
            rss.append(result["peak_rss_mb"])
            setups.append(result["setup_s"])
        else:
            break
        if trace:
            failed_before = run.failed
            result, itdir = run.launch(None, trace=True)
            if run.account(result, itdir, f"traced iteration {k}") is None:
                break
            if run.failed > failed_before:
                run.notes.append(f"traced iteration {k}: checked outputs "
                                 "differ from the untraced ones")
            traced_walls.append(result["wall_s"])
            traced_reports.append(result["trace"])
        per_iteration = (run.elapsed() - loop_started) / k
        enough = k >= (1 if trace else MIN_ITERATIONS)
        # stop where the run's expected end is closest to --seconds
        if enough and run.elapsed() + per_iteration / 2 > seconds:
            break
        if run.elapsed() + per_iteration > HARD_LIMIT_S - 10:
            break

    metrics = {}
    if trace:
        layer_values = [per_layer_values(r) for r in traced_reports]
        for m in spec["per_layer"]:
            name = m["name"]
            if name in crit6:
                value = crit6[name]
            elif name == "trace.overhead_s":
                value = (statistics.median(traced_walls) - statistics.median(walls)
                         if traced_walls else 0.0)
            elif layer_values:
                value = statistics.median(v[name] for v in layer_values)
            else:
                value = 0.0
            metrics[name] = {"value": value, "unit": m["unit"]}
        if traced_reports:
            by_layer = layer_self_s(traced_reports[-1])
            layer = max(by_layer, key=by_layer.get)
            busy = by_layer[layer]
            run.notes.append(f"dominant layer by self time: {layer} ({busy:.3f} s)")
            for fn in traced_reports[-1]["absent"]:
                run.notes.append(f"traced function absent: {fn}")
    elif walls:
        # the median kernel pass tells how fast the machine ran this run
        scale = REFERENCE_S / statistics.median(cals)
        run.notes.append(f"scale to the reference speed: {scale:.4f}")
        wall = statistics.median(walls) * scale
        values = {"norm_wall_s": wall,
                  "norm_items_per_s": workload.expected_items() / wall,
                  "setup_s": statistics.median(setups) * scale,
                  "peak_rss_mb": statistics.median(rss)}
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    run.notes.append("untraced wall_s: " + " ".join(f"{w:.3f}" for w in walls))
    run.notes.append("calibration kernel s: "
                     + " ".join(f"{c:.4f}" for c in cals))
    run.notes.append(f"{len(walls)} untraced and {len(traced_walls)} traced "
                     f"iterations, {len(setups)} setup samples, "
                     f"{run.elapsed():.1f} s")
    return {"correct": run.failed == 0 and bool(walls) and bool(metrics),
            "attempted": max(run.attempted, 1), "failed": run.failed,
            "metrics": metrics, "notes": run.notes}


def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()  # .perfbench, once no other run uses it
    except OSError:
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "gl2local" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no gl2local sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    compileall.compile_dir(str(SRC / "gl2local"), quiet=1)
    workload = WORKLOADS[args.workload](tiny=args.tiny)
    workdir = ROOT / ".perfbench" / f"{workload.name}-{os.getpid()}"
    try:
        out = measure(workload, args.seed, args.seconds, bool(args.trace),
                      workdir, spec)
    finally:
        remove_workdir(workdir)
    for note in out.pop("notes"):
        print(f"# {note}")
    for name, m in out["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {out['failed'] / out['attempted']:.6g} "
          f"({out['failed']} of {out['attempted']} items; "
          f"an item is a {workload.item})")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
