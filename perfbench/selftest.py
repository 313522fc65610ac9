"""The benchmark's own tests.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

Kept out of the repository's pytest collection (the file name does not
match ``test_*.py``) because every case launches fresh interpreters.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from calibrate import REFERENCE_S  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str) -> tuple[dict, str]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=run.ROOT, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


class TinyRuns(unittest.TestCase):
    """Each workload at its smallest size prints every metric with its unit."""

    def check(self, name: str, trace: int, section: str):
        result, stdout = bench("--workload", name, "--tiny", "--seconds", "1",
                               "--trace", str(trace))
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], stdout)
        self.assertEqual(result["failed"], 0, stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, expected)
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))
        return result, stdout

    def test_untraced(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result, stdout = self.check(name, 0, "end_to_end")
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)
                # the reported time is the raw median at the reference speed
                notes = {line[2:].split(": ")[0]: line.split(": ")[1]
                         for line in stdout.splitlines() if ": " in line
                         and line.startswith("# ")}
                walls = [float(w) for w in notes["untraced wall_s"].split()]
                cals = [float(c) for c in notes["calibration kernel s"].split()]
                scale = float(notes["scale to the reference speed"])
                self.assertAlmostEqual(scale,
                                       REFERENCE_S / statistics.median(cals),
                                       delta=0.01 * scale)
                self.assertAlmostEqual(result["metrics"]["norm_wall_s"]["value"],
                                       statistics.median(walls) * scale,
                                       delta=0.05 * scale * max(walls))

    def test_traced(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result, stdout = self.check(name, 1, "per_layer")
                self.assertNotIn("differ from the untraced", stdout)
                self.assertEqual(
                    result["metrics"]["trace.absent_functions"]["value"], 0)


class FailureAccounting(unittest.TestCase):
    def setUp(self):
        self.workdir = run.ROOT / ".perfbench" / f"selftest-{os.getpid()}"

    def tearDown(self):
        run.remove_workdir(self.workdir)

    def test_forced_check_failure_raises_failed_frac(self):
        w = WORKLOADS["counting"](tiny=True)
        r = run.Run(w, 1, self.workdir)
        result, itdir = r.launch(None)
        r.account(result, itdir, "clean")
        self.assertEqual(r.failed, 0, r.notes)
        result, itdir = r.launch(None)
        out = itdir / "out.csv"
        lines = out.read_text().splitlines()
        cells = lines[1].split(",")
        cells[4] = str(int(cells[4]) + 2)   # one wrong count
        out.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
        r.account(result, itdir, "tampered")
        self.assertEqual(r.failed, w.expected_items())  # the whole plan group
        self.assertTrue(any("differs from the first iteration" in n
                            for n in r.notes))

    def test_typed_error_counts_as_failed(self):
        w = WORKLOADS["decay"](tiny=True)
        r = run.Run(w, 1, self.workdir)
        # (7, 7, sc-ramified) needs phi(7^5) > PHI_BUDGET basis columns
        config = self.workdir / "budget.json"
        config.parent.mkdir(parents=True)
        config.write_text(json.dumps({
            "task": "decay", "p": 7, "n": 7, "family": "sc-ramified",
            "units_per_class": 1, "out": str(self.workdir / "budget.csv")}))
        result, itdir = r.launch({"kind": "cli", "config_path": str(config)})
        self.assertEqual(result["error"]["type"], "BudgetError")
        r.account(result, itdir, "budget")
        self.assertEqual(r.failed, w.expected_items())
        self.assertIn("BudgetError", r.notes[-1])


class TracerBindings(unittest.TestCase):
    def test_absent_and_rebound_functions(self):
        import gl2local.cli
        import gl2local.cyclotomic
        import gl2local.matcoef
        original = gl2local.matcoef.verify_support
        tracer = Tracer(traced=[
            ("matcoef", "verify_support", "verify_support"),
            ("cyclotomic", "from_counts", "CycloValue.from_counts"),
            ("matcoef", "gone", "no_such_function"),
            ("matcoef", "gone_method", "MatCoefEngine.no_such_method"),
            ("nosuchlayer", "gone_layer", "anything"),
        ])
        tracer.install()
        # the by-name import in cli is rebound with the module attribute
        self.assertIsNot(gl2local.matcoef.verify_support, original)
        self.assertIs(gl2local.cli.verify_support,
                      gl2local.matcoef.verify_support)
        value = gl2local.cyclotomic.CycloValue.from_counts(3, [1, 1, 1])
        self.assertTrue(value.is_zero())
        report = tracer.report()
        self.assertEqual(report["absent"], [
            "matcoef.MatCoefEngine.no_such_method",
            "matcoef.no_such_function", "nosuchlayer.anything"])
        self.assertEqual(report["functions"]["cyclotomic.from_counts"]["calls"], 1)
        self.assertEqual(report["functions"]["matcoef.gone"]["calls"], 0)
        self.assertEqual(report["counters"]["from_counts_nonzero"], 3)


class MissingSources(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        # a directory holding only BENCHMARK.json and the benchmark
        bare = run.ROOT / ".perfbench" / f"bare-{os.getpid()}"
        try:
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "gram"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            run.remove_workdir(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
