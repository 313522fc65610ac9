"""The library calls the benchmark (perfbench/) makes, on its tiny sizes.

The benchmark runs each workload in a child process through
perfbench/child.py and checks the outputs with perfbench/workloads.py.
Running the same calls here, in process and read-only, makes a change that
breaks them fail the suite rather than the benchmark run."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import child  # noqa: E402
import workloads  # noqa: E402

SEED = workloads.DEFAULT_SEED


def test_gram_run_checks_and_oracle():
    gram = workloads.Gram(tiny=True)
    result = child.run_gram(gram.job(SEED, None))
    checked = gram.check(result, None)
    assert checked.ok and checked.groups["gram"]["items"] == 78
    # the oracle reads phi(n, 1, 0) on the ungrouped, uncached path
    assert gram.oracle(SEED, checked) == set()


def test_crit6_run_deviations():
    result = child.run_crit6({"cases": workloads.CRIT6_CASES, "points": 2})
    assert len(result["cases"]) == len(workloads.CRIT6_CASES)
    for case in result["cases"]:
        assert case["max_deviation"] <= workloads.ORACLE_TOL, case["case"]


@pytest.mark.parametrize("name", ["decay", "counting"])
def test_cli_run_checks_and_oracle(name, tmp_path):
    load = workloads.WORKLOADS[name](tiny=True)
    result = child.run_cli(load.job(SEED, tmp_path))
    checked = load.check(result, tmp_path)
    assert result["rc"] == 0 and checked.ok
    assert sum(g["items"] for g in checked.groups.values()) \
        == load.expected_items()
    assert load.oracle(SEED, checked) == set()
