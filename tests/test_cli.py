"""Config validation, task runners, exit codes, determinism."""

import copy
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gl2local.cli as cli
from gl2local import matcoef, quaternion, statphase
from gl2local.characters import UnitGroupE
from gl2local.cli import ConfigError, ExperimentConfig, main
from gl2local.cyclotomic import CycloValue
from gl2local.errors import BudgetError, ConstructionError, PrecisionError
from gl2local.matcoef import MatCoefEngine
from gl2local.residue import get_context, get_ext_context, unit_shell_reps

CLI_OUTPUTS = Path(__file__).resolve().parent / "fixtures" / "cli_outputs.json"
README = Path(__file__).resolve().parent.parent / "README.md"


def write_config(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def output_digests(config: dict, workdir: Path) -> dict[str, str]:
    """Run config through main() with its outputs under workdir/out and
    return the sha256 of each file written, wall-clock sidecars excepted."""
    out_dir = workdir / "out"
    out_dir.mkdir(parents=True)
    code = main(["--config", write_config(workdir, config),
                 "--out", str(out_dir / "out.csv")])
    assert code == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.iterdir())
            if not path.name.endswith(".timings.txt")}


def test_cli_outputs_match_frozen_digests(tmp_path):
    # regenerate with scripts/freeze_cli_outputs.py
    frozen = json.loads(CLI_OUTPUTS.read_text())
    changed = [name for name, entry in frozen.items()
               if output_digests(entry["config"], tmp_path / name)
               != entry["sha256"]]
    assert len(frozen) == 8
    assert not changed


def test_lattice_enumeration_budget_names_layer_rows_and_limit(
        tmp_path, monkeypatch):
    monkeypatch.setattr(quaternion, "ENUMERATION_BUDGET", 1000)
    cfg = ExperimentConfig.from_dict({"task": "counting",
                                      "out": str(tmp_path / "c.csv")})
    with pytest.raises(BudgetError, match=r"^quaternion ellipsoid "
                       r"enumeration: \d+ rows exceed the budget of 1000$"):
        cli.run_task(cfg)


@pytest.mark.parametrize("refuse,match", [
    (lambda: get_context(5, 13).log_table,
     r"^residue log table: modulus 5\^13 = 1220703125 exceeds the budget of "
     r"10000000$"),
    (lambda: unit_shell_reps(get_ext_context(11, 9, False), 4),
     r"^residue unit shell: size 212587320 exceeds the budget of 10000000$"),
    (lambda: UnitGroupE(11, False, 4),
     r"^characters unit group: size 212587320 exceeds the budget of "
     r"10000000$"),
    (lambda: UnitGroupE(3, False, 10**6),
     r"^characters unit group: size ~2\*\*\d+ exceeds the budget of "
     r"10000000$"),
    (lambda: CycloValue.zero(10007),
     r"^cyclotomic basis: phi\(10007\) = 10006 exceeds the budget of 10000$"),
], ids=["log-table", "shell", "unit-group", "unit-group-unformed", "cyclotomic"])
def test_table_budgets_name_layer_size_and_limit(refuse, match):
    with pytest.raises(BudgetError, match=match):
        refuse()


def test_huge_delta_is_refused_by_the_enumeration_budget(tmp_path):
    # float((4 delta + 2) m) used to end in OverflowError
    cfg = ExperimentConfig.from_dict({"task": "counting", "delta": "1e308",
                                      "out": str(tmp_path / "c.csv")})
    with pytest.raises(BudgetError, match=r"^quaternion ellipsoid "
                       r"enumeration: bound \d+ exceeds the float range$"):
        cli.run_task(cfg)


def test_huge_a1_is_refused_at_once(tmp_path):
    # a1 + 1 Fractions used to be built first: a hang for a1 = 10**30
    cfg = ExperimentConfig.from_dict({"task": "exponent", "a1": 10**30,
                                      "out": str(tmp_path / "e.csv")})
    t0 = time.perf_counter()
    with pytest.raises(BudgetError, match=rf"^quaternion filtration schedule: "
                       rf"{10**30 + 1} levels exceed the budget of 100000$"):
        cli.run_task(cfg)
    assert time.perf_counter() - t0 < 1.0


def test_config_minimal_defaults():
    cfg = ExperimentConfig.from_dict({"task": "decay"})
    assert (cfg.p, cfg.n, cfg.family) == (3, 6, "ps")
    assert cfg.units_per_class == 2


@pytest.mark.parametrize("raw,path", [
    ({"task": "no-such-task"}, "config.task"),
    ({"task": "decay", "p": 4}, "config.p"),
    ({"task": "decay", "p": 2}, "config.p"),
    ({"task": "decay", "family": "weird"}, "config.family"),
    ({"task": "decay", "n": 5}, "config.n"),
    ({"task": "decay", "family": "sc-ramified", "n": 6}, "config.n"),
    ({"task": "decay", "family": "sc-unramified", "n": 2}, "config.n"),
    ({"task": "decay", "i_values": [99]}, "config.i_values"),
    ({"task": "decay", "units_per_class": 0}, "config.units_per_class"),
    ({"task": "decay", "bogus_key": 1}, "config.bogus_key"),
    ({"task": "exponent", "eta1": "1/2", "eta2": "1/4"}, "config.eta1"),
    ({"task": "exponent", "eta1": "zebra"}, "config.eta1"),
    ({"task": "counting", "L": 0}, "config.L"),
    ({"task": "counting", "delta": "-1"}, "config.delta"),
    ({"task": "counting", "plans": [17]}, "config.plans[0]"),
    ({"task": "sweep"}, "config.configs"),
    ({"task": "decay", "threads": 0}, "config.threads"),
    ({"task": "decay", "seed": "nope"}, "config.seed"),
    ({"task": "decay", "p": "3"}, "config.p"),
    ({"task": "decay", "p": 3.0}, "config.p"),
    ({"task": "decay", "p": True}, "config.p"),
    ({"task": "decay", "units_per_class": "2"}, "config.units_per_class"),
    ({"task": "counting", "verify_box_max_norm": "2"},
     "config.verify_box_max_norm"),
    ({"task": "counting", "z": 5}, "config.z"),
    ({"task": "decay", "n": 6, "i_values": [0]}, "config.i_values"),
    ({"task": "decay", "n": 6, "i_values": [3]}, "config.i_values"),
    ({"task": "decay", "i_values": 4}, "config.i_values"),
    ({"task": "decay", "v_a_values": 1}, "config.v_a_values"),
    ({"task": "decay", "out": 5}, "config.out"),
    ({"task": "counting", "plans": {"3": 1}}, "config.plans"),
    ({"task": "counting", "plans": [{"3": None}]}, "config.plans[0]"),
    ({"task": "counting", "plans": [{"3": 1.5}]}, "config.plans[0]"),
    ({"task": "decay", "p": (2**31 - 1) ** 2}, "config.p"),
    ({"task": "decay", "p": 3317044064679887385961981}, "config.p"),
    ({"task": "exponent", "p": 2**89 - 1}, "config.p"),
    ({"task": "counting", "algebra": []}, "config.algebra"),
    ({"task": "counting", "algebra": {}}, "config.algebra"),
    ({"task": "counting", "algebra": 6}, "config.algebra"),
    ({"task": "counting", "plans": [{}, {"0": 1}]}, "config.plans[1]"),
    ({"task": "counting", "plans": [{"9": 1}]}, "config.plans[0]"),
    ({"task": "counting", "plans": [{"2": 1}]}, "config.plans[0]"),
    ({"task": "counting", "plans": [{"-5": 1}]}, "config.plans[0]"),
    ({"task": "counting", "plans": [{str(2**89 - 1): 1}]}, "config.plans[0]"),
    ({"task": "counting", "plans": [{"5": 0}]}, "config.plans[0]"),
    ({"task": "counting", "plans": [{"5": -1}]}, "config.plans[0]"),
    ({"task": "decay", "p": 3, "n": 4, "units_per_class": 487},
     "config.units_per_class"),
    ({"task": "decay", "p": 5, "n": 6, "units_per_class": 10**30},
     "config.units_per_class"),
    ({"task": "counting", "plans": [], "verify_box_max_norm": 2},
     "config.plans"),
    ({"task": "speedup", "n": 2}, "config.n"),
    ({"task": "counting", "z": {"x": 1, "y": 1, "w": 3}}, "config.z.w"),
    ({"task": "counting", "plans": [{"5": 1, "05": 2}]}, "config.plans[0]"),
    ({"task": "counting", "plans": [{" 5": 1}]}, "config.plans[0]"),
    ({"task": "exponent", "delta": "1e999999"}, "config.delta"),
    ({"task": "exponent", "eta2": "1e5000"}, "config.eta2"),
    ({"task": "exponent", "delta": "9" * 4300}, "config.delta"),
    ({"task": "counting", "z": {"y": "1/" + "7" * 1100}}, "config.z.y"),
    ({"task": "counting", "z": {"x": "1e-99999999"}}, "config.z.x"),
    ({"task": "counting", "algebra": "nope"}, "config.algebra"),
    ({"task": "counting", "plans": [{"3": 1}]}, "config.plans[0]"),
    ({"task": "sweep", "configs": [{"task": "decay", "p": 4}]},
     "config.configs[0].p"),
    ({"task": "sweep", "configs": [{"task": "sweep", "configs": []}]},
     "config.configs[0].task"),
    ({"task": "sweep", "configs": [{"task": "decay"}, {"task": "exponent"}]},
     "config.configs"),
])
def test_config_rejections_carry_field_paths(raw, path):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(raw)
    assert err.value.path == path


# one small valid config per task; the fuzzer changes one field of one of
# them (or of the sweep's first sub-config) per case
FUZZ_BASES = [
    {"task": "verify-support", "i_values": [4], "units_per_class": 1},
    {"task": "decay", "units_per_class": 1},
    {"task": "speedup", "i_values": [4], "units_per_class": 1},
    {"task": "exponent", "eta1": "1/8", "a1": 2},
    {"task": "counting", "algebra": "disc14", "plans": [{}, {"3": 1}], "L": 3,
     "verify_box_max_norm": 1},
    {"task": "sweep", "configs": [
        {"task": "decay", "units_per_class": 1},
        {"task": "decay", "family": "sc-ramified", "n": 5,
         "units_per_class": 1}]},
]
LONG_INT = int("9" * 4300)  # the most digits a JSON integer may have


def fuzz_values(key, kind, lo) -> list:
    """Values for one FIELDS row: wrong types, lo - 1 and lo, over-long
    values, an unknown key inside an object and a nested sweep.  L stays
    small: a large L does O(L) work before any budget refuses it, as does a
    large even n or a large plan exponent, until a preflight estimate
    refuses them first.  LONG_INT is odd, so n = LONG_INT meets the parity
    rule first."""
    values = [None, True, 2.5, "7", [], {}, [3, "x"], {"x": 1, "w": 2},
              "9" * 5000, "1e99999999", "1/" + "7" * 2000, [LONG_INT],
              [{"5": 1, "05": 1}], [{"task": "sweep", "configs": []}]]
    if isinstance(kind, tuple):
        values += kind
    if lo is not None:
        values += [str(lo - 1), str(lo)] if kind == "rational" else [lo - 1, lo]
    if key != "L":
        values.append(LONG_INT)
    return values


def test_config_fuzzer_exits_cleanly_or_raises_a_typed_error(tmp_path):
    mutations = [(key, value) for key, _, kind, lo in cli.FIELDS
                 for value in fuzz_values(key, kind, lo)]
    mutations += [("bogus_key", 1), ("configs", [{"task": "sweep"}])]
    # (base, mutate the sweep's first sub-config, key, value)
    cases = [(base, sub, key, value) for base in FUZZ_BASES
             for sub in ([False, True] if "configs" in base else [False])
             for key, value in mutations]
    codes = set()
    # each case writes a fresh config and fresh outputs: truncating a file
    # that was just written can cost tens of milliseconds on some file
    # systems, creating one does not
    for case, (base, sub, key, value) in enumerate(
            random.Random(16).sample(cases, 600)):
        config = copy.deepcopy(base)
        (config["configs"][0] if sub else config)[key] = value
        text = json.dumps(config)
        path = tmp_path / f"fuzz{case}.json"
        out = str(tmp_path / f"fuzz{case}.csv")
        path.write_text(text)
        try:
            codes.add(main(["--config", str(path), "--out", out]))
        except (BudgetError, PrecisionError, ConstructionError):
            codes.add("typed")
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__}: {exc} on config {text}")
    assert codes <= {0, 1, 2, "typed"} and {0, 2} <= codes


def test_readme_cli_section_names_every_field():
    section = README.read_text(encoding="utf-8").split("\n## CLI\n")[1]
    section = section.split("\n## ")[0]
    assert [key for key, *_ in cli.FIELDS if f"`{key}`" not in section] == []


def test_sweep_sub_configs_are_parsed_at_load():
    cfg = ExperimentConfig.from_dict({"task": "sweep", "seed": 5, "configs": [
        {"task": "decay"}, {"task": "decay", "n": 8, "seed": 2}]})
    assert [(sub.n, sub.seed) for sub in cfg.configs] == [(6, 5), (8, 2)]


def test_counting_loads_the_algebra_fixtures_once(tmp_path, monkeypatch):
    # reading the config certifies no order; the run certifies the named one
    certified = []
    check = quaternion.verify_maximal_order
    monkeypatch.setattr(quaternion, "verify_maximal_order",
                        lambda order: certified.append(order) or check(order))
    quaternion.load_algebra.cache_clear()
    config = {"task": "counting", "algebra": "disc14", "L": 2,
              "out": str(tmp_path / "c.csv")}
    ExperimentConfig.from_dict(config)
    assert certified == []
    assert main(["--config", write_config(tmp_path, config)]) == 0
    assert [order.algebra.discriminant for order in certified] == [14]


def test_box_check_walks_the_ellipsoid_once(tmp_path, monkeypatch):
    # one walk per plan for the report, and one for the fast side of the
    # box check: its counts for norms 1..6 come from one norm_histogram
    walks = []
    walk = quaternion._ellipsoid_lines
    monkeypatch.setattr(quaternion, "_ellipsoid_lines",
                        lambda gram, bound: walks.append(bound)
                        or walk(gram, bound))
    out = tmp_path / "c.csv"
    config = {"task": "counting", "algebra": "disc14",
              "plans": [{}, {"3": 1}], "L": 4, "verify_box_max_norm": 6,
              "out": str(out)}
    assert main(["--config", write_config(tmp_path, config)]) == 0
    assert len(walks) == 2 + 1
    report = Path(str(out) + ".report.txt").read_text().splitlines()
    assert "box-oracle agreement m<= 6: ok" in report


@pytest.mark.parametrize("plan,match", [
    ({"5": 16},
     r"norm form: entries of \d+ bits exceed the budget of 63 bits"),
    ({"1000003": 2},
     r"norm form: entries of \d+ bits exceed the budget of 63 bits"),
    ({"1009": 51}, r"float Gram matrix: entries of \d+ bits exceed the budget "
                   r"of 1023 bits"),
])
def test_oversized_counting_forms_are_refused_before_conversion(
        tmp_path, plan, match):
    # these used to end in an untyped OverflowError
    cfg = ExperimentConfig.from_dict({"task": "counting", "plans": [plan],
                                      "L": 2, "out": str(tmp_path / "c.csv")})
    with pytest.raises(BudgetError, match=rf"^quaternion {match}$"):
        cli.run_task(cfg)


def test_deep_plan_is_refused_before_elimination(tmp_path):
    # 5**100000 used to be eliminated against first: 1.4 s before the float
    # Gram guard refused it
    cfg = ExperimentConfig.from_dict({"task": "counting",
                                      "plans": [{"5": 100000}], "L": 2,
                                      "out": str(tmp_path / "c.csv")})
    t0 = time.perf_counter()
    with pytest.raises(BudgetError, match=r"^quaternion tidy lattice: modulus "
                       r"5\^100000 of 232193 bits exceeds the budget of 4096 "
                       r"bits$"):
        cli.run_task(cfg)
    assert time.perf_counter() - t0 < 0.2


def test_deep_plan_is_refused_before_a_square_root_is_lifted(tmp_path):
    # a square root mod 5**2000 used to be lifted first: no exit in 20 s
    cfg = ExperimentConfig.from_dict({"task": "counting", "plans": [{"5": 2000}],
                                      "L": 2, "out": str(tmp_path / "c.csv")})
    t0 = time.perf_counter()
    with pytest.raises(BudgetError):
        cli.run_task(cfg)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("family,match", [
    ("ps", rf"^p-adic context: modulus 3\^{5 * 10**19} of ~2\*\*66 bits "
           rf"exceeds the budget of 4096 bits$"),
    ("sc-unramified", r"^characters unit group: size ~2\*\*\d+ exceeds the "
                      r"budget of 10000000$")])
def test_huge_n_is_refused_before_the_modulus_is_formed(tmp_path, family,
                                                        match):
    # p**(n // 2) used to be computed first: a hang for n = 10**20
    cfg = ExperimentConfig.from_dict({"task": "decay", "n": 10**20,
                                      "family": family,
                                      "out": str(tmp_path / "d.csv")})
    t0 = time.perf_counter()
    with pytest.raises(BudgetError, match=match):
        cli.run_task(cfg)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("raw,match", [
    # (4 delta + 2) m passes the int-string digit limit
    ({"task": "counting", "L": 2, "verify_box_max_norm": int("9" * 4300)},
     r"^quaternion ellipsoid enumeration: bound ~2\*\*\d+ exceeds the float "
     r"range$"),
    ({"task": "exponent", "a1": int("9" * 4300)},
     r"^quaternion filtration schedule: ~2\*\*\d+ levels exceed the budget "
     r"of 100000$"),
    ({"task": "decay", "family": "sc-ramified", "n": 20001},
     r"^characters unit group: size ~2\*\*\d+ exceeds the budget of "
     r"10000000$"),
])
def test_refusals_of_unprintable_sizes_do_not_raise_again(tmp_path, raw,
                                                          match):
    cfg = ExperimentConfig.from_dict(dict(raw, out=str(tmp_path / "x.csv")))
    with pytest.raises(BudgetError, match=match):
        cli.run_task(cfg)


def test_verify_support_example_exits_zero(tmp_path):
    out = tmp_path / "sup.csv"
    code = main(["--config", write_config(tmp_path, {
        "task": "verify-support", "p": 3, "n": 6, "family": "ps",
        "i_values": [4], "seed": 1, "out": str(out)})])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("p,n,family,i,v_a,a_unit,v_m,m_unit,re,im,abs,"
                        "ratio_normalized,expected_zero,exact_zero,violation")
    assert len(lines) > 1
    assert all(line.endswith(",0") for line in lines[1:])  # violation column
    assert "status: PASS" in (tmp_path / "sup.csv.report.txt").read_text()


def test_exponent_example_report_line(tmp_path):
    for eta1, delta, line, row in (
            ("0", "1", "C₁-exponent = 5/12, depth exponent = 5/24",
             "0,1,1/2,5/12,5/24"),
            ("1/8", "1/2", "C₁-exponent = 11/48, depth exponent = 11/96",
             "1/8,1/2,1/2,11/48,11/96")):
        out = tmp_path / "exp.csv"
        code = main(["--config", write_config(tmp_path, {
            "task": "exponent", "eta1": eta1, "delta": delta, "eta2": "1/2",
            "out": str(out)})])
        assert code == 0
        report = (out.parent / "exp.csv.report.txt").read_text()
        assert line in report
        rows = out.read_text().splitlines()
        assert rows[0] == "eta1,delta,eta2,supnorm_exponent,depth_exponent"
        assert rows[1] == row


def test_largest_unit_sample_is_accepted():
    cfg = ExperimentConfig.from_dict(
        {"task": "decay", "p": 3, "n": 4, "units_per_class": 486})
    assert cfg.units_per_class == 486


@pytest.mark.parametrize("raw,path", [
    ({"task": "counting", "algebra": []}, "config.algebra"),
    ({"task": "counting", "plans": [{"0": 1}]}, "config.plans[0]"),
    ({"task": "counting", "plans": [{"9": 1}]}, "config.plans[0]"),
    ({"task": "decay", "p": 3, "n": 4, "i_values": [3],
      "units_per_class": 500}, "config.units_per_class"),
    ({"task": "counting", "plans": [], "verify_box_max_norm": 2},
     "config.plans"),
    ({"task": "sweep", "configs": [1]}, "config.configs[0]"),
    ({"task": "sweep", "configs": [{"task": "exponent"},
                                   [["task", "exponent"]]]},
     "config.configs[1]"),
    (["not", "an", "object"], "config"),
])
def test_new_rejections_exit_two_at_once(tmp_path, capsys, raw, path):
    t0 = time.perf_counter()
    code = main(["--config", write_config(tmp_path, raw),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2 and time.perf_counter() - t0 < 1.0
    assert f"config error: {path}:" in capsys.readouterr().err


@pytest.mark.parametrize("configs,path", [
    ([{"task": "counting", "algebra": "disc6", "L": 2},
      {"task": "counting", "algebra": "nope"}], "config.configs[1].algebra"),
    ([{"task": "counting", "algebra": "disc6", "plans": [{}, {"3": 1}],
       "L": 2}], "config.configs[0].plans[1]"),
])
def test_sweep_runner_errors_name_the_sub_config(tmp_path, capsys, configs,
                                                 path):
    cfg = write_config(tmp_path, {"task": "sweep", "configs": configs,
                                  "out": str(tmp_path / "x.csv")})
    assert main(["--config", cfg]) == 2
    assert f"config error: {path}:" in capsys.readouterr().err


def test_huge_prime_validates_at_once(tmp_path, capsys):
    out = tmp_path / "exp.csv"
    t0 = time.perf_counter()
    code = main(["--config", write_config(tmp_path, {
        "task": "exponent", "p": 2**61 - 1, "a1": 2, "out": str(out)})])
    assert code == 0 and time.perf_counter() - t0 < 1.0
    assert main(["--config", write_config(tmp_path, {
        "task": "exponent", "p": 2**89 - 1})]) == 2
    assert "config.p" in capsys.readouterr().err


def test_malformed_config_exits_two(tmp_path, capsys):
    code = main(["--config", write_config(tmp_path, {
        "task": "verify-support", "p": 3, "n": 5, "family": "ps"})])
    assert code == 2
    assert "config.n" in capsys.readouterr().err


def test_missing_config_file_exits_two(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "absent.json")]) == 2
    assert main(["--config", write_config(tmp_path, ["not", "an", "object"])]) == 2


def test_broken_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["--config", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_non_utf8_config_exits_two(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"task": "décay"}'.encode("latin-1"))
    assert main(["--config", str(path)]) == 2
    assert "config error: config: invalid JSON" in capsys.readouterr().err


def test_overlong_integer_config_exits_two(tmp_path, capsys):
    # past the int-string conversion limit (4300 digits) json raises
    # ValueError, not JSONDecodeError
    path = tmp_path / "long.json"
    path.write_text('{"task": "decay", "p": ' + "7" * 5000 + "}")
    assert main(["--config", str(path)]) == 2
    assert "config error: config: invalid JSON" in capsys.readouterr().err


def test_deeply_nested_config_exits_two(tmp_path, capsys):
    # json raises RecursionError, not ValueError, past the interpreter stack
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    assert main(["--config", str(path)]) == 2
    assert "config error: config: invalid JSON" in capsys.readouterr().err


def test_flags_override_config(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg = write_config(tmp_path, {"task": "verify-support", "p": 3, "n": 6,
                                  "family": "ps", "i_values": [4],
                                  "seed": 7, "out": str(out_a)})
    assert main(["--config", cfg, "--out", str(out_b), "--seed", "7"]) == 0
    assert out_b.exists() and not out_a.exists()


NO_MASKED_ARRAYS = """
import random, sys
from gl2local.characters import primitive_char
from gl2local.cli import main
from gl2local.matcoef import MatCoefEngine, gram_dimension_estimate
from gl2local.whittaker import ReprSpec
engine = MatCoefEngine(ReprSpec.principal_series(primitive_char(3, 3)))
gram_dimension_estimate(engine, 12, random.Random(1))
for config in sys.argv[1:]:
    assert main(["--config", config]) == 0
print("numpy.ma" in sys.modules)
"""


def test_workload_paths_do_not_import_numpy_ma(tmp_path):
    # a plain np.unique (no return_* output) imports numpy.ma on its first
    # call, 9-18 ms; the Gram estimator, decay, verify-support (the unit
    # average, boundary depths included) and counting need none
    configs = []
    for name, cfg in (("decay", {"task": "decay", "p": 3, "n": 6,
                                 "family": "ps", "units_per_class": 2}),
                      ("verify-support", {"task": "verify-support", "p": 5,
                                          "n": 7, "family": "sc-ramified",
                                          "units_per_class": 2}),
                      ("counting", {"task": "counting", "algebra": "disc14",
                                    "L": 2})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(cfg, out=str(tmp_path / name))))
        configs.append(str(path))
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS, *configs],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


def test_same_seed_byte_identical_rerun(tmp_path):
    out = tmp_path / "d.csv"
    cfg = write_config(tmp_path, {"task": "decay", "p": 3, "n": 6,
                                  "family": "ps", "seed": 3, "out": str(out)})
    assert main(["--config", cfg]) == 0
    first = out.read_bytes(), (tmp_path / "d.csv.report.txt").read_bytes()
    assert main(["--config", cfg]) == 0
    second = out.read_bytes(), (tmp_path / "d.csv.report.txt").read_bytes()
    assert first == second


def test_different_seed_changes_grid(tmp_path):
    outs = []
    for seed in (1, 2):
        out = tmp_path / f"s{seed}.csv"
        cfg = write_config(tmp_path, {"task": "decay", "p": 3, "n": 6,
                                      "family": "ps", "seed": seed,
                                      "out": str(out)})
        assert main(["--config", cfg]) == 0
        outs.append(out.read_text())
    assert outs[0] != outs[1]


def test_sweep_merges_in_config_order(tmp_path):
    out = tmp_path / "sweep.csv"
    raw = {"task": "sweep", "threads": 2, "seed": 5, "out": str(out),
           "configs": [
               {"task": "decay", "p": 3, "n": 8, "family": "ps"},
               {"task": "decay", "p": 3, "n": 6, "family": "ps"},
           ]}
    assert main(["--config", write_config(tmp_path, raw)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("p,n,family,i")
    n_col = [line.split(",")[1] for line in lines[1:]]
    assert n_col == sorted(n_col, reverse=True)  # n=8 rows before n=6 rows
    summary = (tmp_path / "sweep.csv.summary.csv").read_text().splitlines()
    assert summary[0] == ("p,n,family,i,points,max_ratio_normalized,bound,ok")
    # one summary row per (p, n, i): n=8 has i in {5, 6}, n=6 has i=4
    assert len(summary) == 4
    # threads is accepted and has no effect on any output
    suffixes = ("", ".report.txt", ".summary.csv")
    first = [(tmp_path / f"sweep.csv{s}").read_bytes() for s in suffixes]
    assert main(["--config", write_config(tmp_path,
                                          dict(raw, threads=1))]) == 0
    assert [(tmp_path / f"sweep.csv{s}").read_bytes()
            for s in suffixes] == first


@pytest.mark.parametrize("p,n,family,i_values", [
    (3, 10, "ps", [7, 8]), (5, 7, "sc-ramified", [4, 5])])
def test_decay_evaluates_each_query_key_once(monkeypatch, p, n, family,
                                             i_values):
    raw = {"task": "decay", "p": p, "n": n, "family": family, "seed": 3,
           "i_values": i_values, "units_per_class": 12}
    cfg = ExperimentConfig.from_dict(raw)
    depths, keys = [], []
    evaluate = cli.phi_fast_values

    def counted(engine, i, batch_keys):
        depths.append(i)
        keys.extend(map(tuple, batch_keys.tolist()))
        return evaluate(engine, i, batch_keys)

    # the depth program gets every distinct key of a depth in one call
    monkeypatch.setattr(cli, "phi_fast_values", counted)
    columns = cli.run_decay(cfg).columns
    monkeypatch.undo()
    assert depths == i_values
    # the grid run_decay drew, rebuilt from the same seed, and evaluated
    # point by point on a fresh engine
    spec = cli.build_spec(cfg)
    engine = MatCoefEngine(spec)
    rng = random.Random(cfg.seed)
    points = [(i, a, madd) for i in i_values
              for a, madd in cli.grid_points(spec, cli.build_grid(
                  spec, i, cfg, rng, supported_only=True))]
    # the row columns, the floats as their written repr strings
    rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
    assert len(rows) == len(points)
    distinct = {engine.query_key(*q) for q in points}
    assert len(keys) == len(set(keys)) == len(distinct) < len(points)
    assert set(keys) == distinct
    for row, (i, a, madd) in zip(rows, points):
        value = statphase.phi_fast_value(engine, i, a, madd)
        assert (row["i"], row["a_unit"], row["m_unit"]) == (i, a.unit,
                                                           madd.unit)
        assert (row["re"], row["im"]) == (repr(value.real), repr(value.imag))


@pytest.mark.parametrize("p,n,family,i_values", [
    (3, 6, "ps", [4, 5, 6]), (5, 7, "sc-ramified", [4, 6])])
def test_verify_support_evaluates_each_key_once(monkeypatch, p, n, family,
                                                i_values):
    raw = {"task": "verify-support", "p": p, "n": n, "family": family,
           "seed": 3, "i_values": i_values, "units_per_class": 4}
    cfg = ExperimentConfig.from_dict(raw)
    batches = []
    evaluate = matcoef.key_values

    def counted(engine, batch_keys, coords_of):
        batches.append(list(map(tuple, batch_keys.tolist())))
        return evaluate(engine, batch_keys, coords_of)

    # the unit average gets every distinct key of a depth in one call
    monkeypatch.setattr(matcoef, "key_values", counted)
    columns = cli.run_verify_support(cfg).columns
    monkeypatch.undo()
    assert len(batches) == len(i_values)
    # the grid run_verify_support drew, rebuilt from the same seed, and
    # evaluated point by point on a fresh engine
    spec = cli.build_spec(cfg)
    engine = MatCoefEngine(spec)
    rng = random.Random(cfg.seed)
    rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
    for i, keys in zip(i_values, batches):
        points = cli.grid_points(spec, cli.build_grid(spec, i, cfg, rng))
        depth_rows, rows = rows[:len(points)], rows[len(points):]
        on = [engine.query_key(i, a, madd) for a, madd in points]
        distinct = {key for key in on if key}
        assert len(keys) == len(set(keys)) == len(distinct)
        assert set(keys) == distinct and all(key[0] == i for key in keys)
        assert len(distinct) < sum(map(bool, on)) < len(points)
        for row, (a, madd) in zip(depth_rows, points):
            num = engine.phi_numerator(i, a, madd)
            value = num.complex() / engine.c0_complex
            assert (row["i"], row["v_a"], row["a_unit"], row["v_m"],
                    row["m_unit"]) == (i, a.val, a.unit, madd.val, madd.unit)
            assert (row["re"], row["im"], row["exact_zero"]) == (
                repr(value.real), repr(value.imag), num.is_zero())
    assert rows == []


def test_sweep_of_sc_cases_matches_each_case_alone(tmp_path):
    cases = [{"task": "decay", "p": 5, "n": 6, "family": "sc-unramified"},
             {"task": "decay", "p": 7, "n": 6, "family": "sc-unramified"},
             {"task": "decay", "p": 5, "n": 7, "family": "sc-ramified"}]
    out = tmp_path / "sweep.csv"
    assert main(["--config", write_config(tmp_path, {
        "task": "sweep", "out": str(out), "threads": 1, "seed": 4,
        "configs": [dict(case, units_per_class=8) for case in cases]})]) == 0
    header, *swept = out.read_text().splitlines()
    alone = []
    for k, case in enumerate(cases):
        single = tmp_path / f"alone{k}.csv"
        assert main(["--config", write_config(tmp_path, dict(
            case, out=str(single), seed=4, units_per_class=8))]) == 0
        single_header, *lines = single.read_text().splitlines()
        assert single_header == header
        alone.extend(lines)
    assert swept == alone


def test_sweep_summary_one_row_per_depth(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = write_config(tmp_path, {
        "task": "sweep", "seed": 1, "out": str(out),
        "configs": [{"task": "decay", "p": 3, "n": 10, "family": "ps",
                     "i_values": [7, 6, 7], "units_per_class": 2}]})
    assert main(["--config", cfg]) == 0
    rows = out.read_text().splitlines()[1:]
    summary = (tmp_path / "sweep.csv.summary.csv").read_text().splitlines()[1:]
    assert [line.split(",")[3] for line in summary] == ["6", "7"]
    for line in summary:
        i, points, worst = line.split(",")[3:6]
        ratios = [float(r.split(",")[11]) for r in rows
                  if r.split(",")[3] == i]
        # each i_values entry draws units_per_class^2 = 4 supported points
        assert int(points) == len(ratios) == 4 * [7, 6, 7].count(int(i))
        assert float(worst) == max(ratios)


def test_sweep_rejects_mixed_tasks(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "task": "sweep", "out": str(tmp_path / "x.csv"),
        "configs": [{"task": "decay"}, {"task": "exponent"}]})
    assert main(["--config", cfg]) == 2
    assert "config.configs" in capsys.readouterr().err


def test_sweep_rejects_nesting(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "task": "sweep", "out": str(tmp_path / "x.csv"),
        "configs": [{"task": "sweep", "configs": []}]})
    assert main(["--config", cfg]) == 2
    assert "configs[0].task" in capsys.readouterr().err


def test_empty_sweep_writes_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    cfg = write_config(tmp_path, {"task": "sweep", "configs": [],
                                  "out": str(out)})
    assert main(["--config", cfg]) == 0
    assert out.read_text().count("\n") == 1


def test_counting_task_schema_and_checks(tmp_path):
    out = tmp_path / "count.csv"
    cfg = write_config(tmp_path, {
        "task": "counting", "algebra": "disc14", "plans": [{}, {"3": 1}],
        "L": 6, "delta": "1", "z": {"x": "1/10", "y": "6/5"},
        "verify_box_max_norm": 3, "out": str(out)})
    assert main(["--config", cfg]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p_plan,N,L,m,count,ratio_bd1,ratio_bd2"
    assert len(lines) == 1 + 2 * 6
    report = (tmp_path / "count.csv.report.txt").read_text()
    assert "box-oracle agreement" in report and "FAIL" not in report


def test_counting_rejects_bad_plan(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "task": "counting", "algebra": "disc6", "plans": [{"3": 1}],
        "out": str(tmp_path / "c.csv")})
    assert main(["--config", cfg]) == 2
    assert "config.plans[0]" in capsys.readouterr().err


def test_speedup_task_isolates_timings(tmp_path):
    out = tmp_path / "speed.csv"
    cfg = write_config(tmp_path, {
        "task": "speedup", "p": 3, "n": 6, "family": "ps", "i_values": [4],
        "units_per_class": 1, "seed": 2, "out": str(out)})
    assert main(["--config", cfg]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("p,n,family,i,v_a,a_unit,v_m,m_unit,"
                        "naive_terms,fast_pairs,deviation")
    body = out.read_text()
    assert "naive_s" not in body  # timings only in the sidecar
    timings = (tmp_path / "speed.csv.timings.txt").read_text()
    assert "speedup=" in timings and "naive_s=" in timings


def test_assertion_failure_exits_one(tmp_path, monkeypatch):
    # shrink the decay bound so the honest values trip the check
    monkeypatch.setattr(cli, "decay_bound", lambda spec: 0)
    out = tmp_path / "fail.csv"
    cfg = write_config(tmp_path, {"task": "decay", "p": 3, "n": 6,
                                  "family": "ps", "seed": 1, "out": str(out)})
    assert main(["--config", cfg]) == 1
    assert "FAIL" in (tmp_path / "fail.csv.report.txt").read_text()
