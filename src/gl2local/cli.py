"""Batch experiment driver.

Builds representation data from a JSON config, runs the verification and
benchmark suites, and writes CSV tables plus a plain-text report.  Exit codes:
0 all checks pass, 1 a checked inequality or agreement failed, 2 the config
is malformed.  Wall-clock timings go to a separate sidecar file so the CSV
and report are byte-reproducible for a given config and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from .characters import build_theta, primitive_char
from .matcoef import MatCoefEngine, decay_bound, verify_support
from .quaternion import (
    UpperHalfPoint,
    build_tidy_lattice,
    count_lattice_points,
    count_lattice_points_box,
    counting_bound_report,
    depth_exponent,
    filtration_schedule,
    load_algebra_fixtures,
    supnorm_exponent,
)
from .residue import get_context
from .statphase import pair_count_bound, phi_fast_value, speedup_report
from .whittaker import ReprSpec

FAMILIES = ("ps", "sc-unramified", "sc-ramified")
TASKS = ("verify-support", "decay", "speedup", "exponent", "counting", "sweep")

SUPPORT_COLUMNS = ["p", "n", "family", "i", "v_a", "a_unit", "v_m", "m_unit",
                   "re", "im", "abs", "ratio_normalized",
                   "expected_zero", "exact_zero", "violation"]
DECAY_COLUMNS = SUPPORT_COLUMNS[:12]
SPEEDUP_COLUMNS = ["p", "n", "family", "i", "v_a", "a_unit", "v_m", "m_unit",
                   "naive_terms", "fast_pairs", "deviation"]
COUNTING_COLUMNS = ["p_plan", "N", "L", "m", "count", "ratio_bd1", "ratio_bd2"]
EXPONENT_COLUMNS = ["eta1", "delta", "eta2", "supnorm_exponent",
                    "depth_exponent"]
DECAY_SUMMARY_COLUMNS = ["p", "n", "family", "i", "points",
                         "max_ratio_normalized", "bound", "ok"]


class ConfigError(Exception):
    """Schema violation; carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _parse_fraction(value, path: str) -> Fraction:
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(path, f"not a rational number: {value!r}") from None


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass
class ExperimentConfig:
    task: str
    p: int = 3
    n: int = 6
    family: str = "ps"
    i_values: list[int] | None = None
    v_a_values: tuple[int, ...] = (-1, 0, 1, 2)
    units_per_class: int = 2
    # counting parameters
    algebra: str = "disc6"
    plans: list[dict[int, int]] = field(default_factory=lambda: [{}])
    z: UpperHalfPoint = None
    delta: Fraction = Fraction(1)
    l_budget: int = 20
    verify_box_max_norm: int = 0
    # exponent parameters
    eta1: Fraction = Fraction(0)
    exp_delta: Fraction = Fraction(1)
    eta2: Fraction = Fraction(1, 2)
    a1: int | None = None
    # plumbing
    out: str = "out.csv"
    seed: int = 0
    threads: int = 1
    configs: list | None = None

    @classmethod
    def from_dict(cls, raw: dict, path: str = "config") -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(path, "must be a JSON object")
        known = {"task", "p", "n", "family", "i_values", "v_a_values",
                 "units_per_class", "algebra", "plans", "z", "delta",
                 "L", "verify_box_max_norm", "eta1", "eta2", "a1",
                 "out", "seed", "threads", "configs"}
        for key in raw:
            if key not in known:
                raise ConfigError(f"{path}.{key}", "unknown field")
        task = raw.get("task")
        if task not in TASKS:
            raise ConfigError(f"{path}.task", f"must be one of {TASKS}")
        cfg = cls(task=task)
        cfg.p = raw.get("p", cfg.p)
        if not (_is_prime(cfg.p) and cfg.p % 2):
            raise ConfigError(f"{path}.p", "must be an odd prime")
        cfg.family = raw.get("family", cfg.family)
        if cfg.family not in FAMILIES:
            raise ConfigError(f"{path}.family", f"must be one of {FAMILIES}")
        cfg.n = raw.get("n", cfg.n)
        if not isinstance(cfg.n, int) or cfg.n < 2:
            raise ConfigError(f"{path}.n", "must be an integer >= 2")
        if cfg.family == "ps" and cfg.n % 2:
            raise ConfigError(f"{path}.n", "principal series requires even n")
        if cfg.family == "sc-unramified" and (cfg.n % 2 or cfg.n < 4):
            raise ConfigError(f"{path}.n",
                              "unramified supercuspidal requires even n >= 4")
        if cfg.family == "sc-ramified" and (cfg.n % 2 == 0 or cfg.n < 3):
            raise ConfigError(f"{path}.n",
                              "ramified supercuspidal requires odd n >= 3")
        cfg.i_values = raw.get("i_values", None)
        if cfg.i_values is not None:
            if not all(isinstance(i, int) and 0 <= i <= cfg.n
                       for i in cfg.i_values):
                raise ConfigError(f"{path}.i_values",
                                  f"entries must be integers in [0, {cfg.n}]")
        cfg.v_a_values = tuple(raw.get("v_a_values", cfg.v_a_values))
        cfg.units_per_class = raw.get("units_per_class", cfg.units_per_class)
        if cfg.units_per_class < 1:
            raise ConfigError(f"{path}.units_per_class", "must be >= 1")
        cfg.algebra = raw.get("algebra", cfg.algebra)
        plans = raw.get("plans", None)
        if plans is not None:
            cfg.plans = []
            for k, plan in enumerate(plans):
                if not isinstance(plan, dict):
                    raise ConfigError(f"{path}.plans[{k}]", "must be an object")
                try:
                    cfg.plans.append({int(q): int(r) for q, r in plan.items()})
                except ValueError:
                    raise ConfigError(f"{path}.plans[{k}]",
                                      "keys and values must be integers") from None
        zraw = raw.get("z", {"x": "1/10", "y": "6/5"})
        try:
            cfg.z = UpperHalfPoint(_parse_fraction(zraw.get("x", 0), f"{path}.z.x"),
                                   _parse_fraction(zraw.get("y", 1), f"{path}.z.y"))
        except ValueError as exc:
            raise ConfigError(f"{path}.z", str(exc)) from None
        cfg.delta = _parse_fraction(raw.get("delta", cfg.delta), f"{path}.delta")
        if cfg.delta < 0:
            raise ConfigError(f"{path}.delta", "must be >= 0")
        cfg.l_budget = raw.get("L", cfg.l_budget)
        if not isinstance(cfg.l_budget, int) or cfg.l_budget < 1:
            raise ConfigError(f"{path}.L", "must be an integer >= 1")
        cfg.verify_box_max_norm = raw.get("verify_box_max_norm",
                                          cfg.verify_box_max_norm)
        cfg.eta1 = _parse_fraction(raw.get("eta1", cfg.eta1), f"{path}.eta1")
        cfg.eta2 = _parse_fraction(raw.get("eta2", cfg.eta2), f"{path}.eta2")
        if task == "exponent":
            cfg.exp_delta = _parse_fraction(raw.get("delta", 1), f"{path}.delta")
            if not 0 <= cfg.eta1 <= cfg.eta2:
                raise ConfigError(f"{path}.eta1", "need 0 <= eta1 <= eta2")
        cfg.a1 = raw.get("a1", None)
        if cfg.a1 is not None and (not isinstance(cfg.a1, int) or cfg.a1 < 1):
            raise ConfigError(f"{path}.a1", "must be an integer >= 1")
        cfg.out = raw.get("out", cfg.out)
        cfg.seed = raw.get("seed", cfg.seed)
        if not isinstance(cfg.seed, int):
            raise ConfigError(f"{path}.seed", "must be an integer")
        cfg.threads = raw.get("threads", cfg.threads)
        if not isinstance(cfg.threads, int) or cfg.threads < 1:
            raise ConfigError(f"{path}.threads", "must be an integer >= 1")
        cfg.configs = raw.get("configs", None)
        if task == "sweep":
            if not isinstance(cfg.configs, list):
                raise ConfigError(f"{path}.configs",
                                  "sweep requires a list of sub-configs")
        return cfg


def build_spec(cfg: ExperimentConfig) -> ReprSpec:
    if cfg.family == "ps":
        return ReprSpec.principal_series(primitive_char(cfg.p, cfg.n // 2))
    if cfg.family == "sc-unramified":
        return ReprSpec.supercuspidal(build_theta(cfg.p, False, cfg.n // 2))
    return ReprSpec.supercuspidal(build_theta(cfg.p, True, cfg.n - 1))


def _sample_units(p: int, digits: int, count: int, rng: random.Random) -> list[int]:
    out = []
    seen = set()
    while len(out) < count:
        u = rng.randrange(p ** (digits - 1)) * p + rng.randrange(1, p)
        if u not in seen:
            seen.add(u)
            out.append(u)
    return out


def build_grid(spec: ReprSpec, i: int, cfg: ExperimentConfig,
               rng: random.Random, supported_only: bool = False):
    """(a, m) scalar pairs: the v(a) x v(m) classes of the config with
    units_per_class unit representatives each."""
    ctx = get_context(spec.p, 2 * spec.n + 6)
    digits = spec.n + 2
    if supported_only:
        classes = [(0, i - spec.n)]
    else:
        classes = [(v_a, v_m) for v_a in cfg.v_a_values
                   for v_m in range(i - spec.n - 2, 2)]
    grid = []
    for v_a, v_m in classes:
        for u_a in _sample_units(spec.p, digits, cfg.units_per_class, rng):
            for u_m in _sample_units(spec.p, digits, cfg.units_per_class, rng):
                grid.append((ctx.scalar(v_a, u_a), ctx.scalar(v_m, u_m)))
    return grid


def _default_interior(spec: ReprSpec) -> list[int]:
    return list(range(spec.n0 + 1, spec.n - 1))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(columns: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(c)) for c in columns])
    return buf.getvalue()


# -- task runners --------------------------------------------------------------

@dataclass
class TaskResult:
    columns: list[str]
    rows: list[dict]
    report: list[str]
    ok: bool
    sidecars: dict[str, str] = field(default_factory=dict)


def run_verify_support(cfg: ExperimentConfig) -> TaskResult:
    spec = build_spec(cfg)
    engine = MatCoefEngine(spec)
    rng = random.Random(cfg.seed)
    i_values = cfg.i_values if cfg.i_values is not None else _default_interior(spec)
    rows, report = [], []
    violations = 0
    for i in i_values:
        grid = build_grid(spec, i, cfg, rng)
        batch = verify_support(engine, i, grid)
        bad = sum(r["violation"] for r in batch)
        violations += bad
        rows.extend(batch)
        report.append(f"i={i}: {len(batch)} points, {bad} violations")
    report.append(f"total violations: {violations}")
    return TaskResult(SUPPORT_COLUMNS, rows, report, violations == 0)


def run_decay(cfg: ExperimentConfig) -> TaskResult:
    spec = build_spec(cfg)
    engine = MatCoefEngine(spec)
    rng = random.Random(cfg.seed)
    i_values = cfg.i_values if cfg.i_values is not None else _default_interior(spec)
    bound = decay_bound(spec)
    rows, report = [], []
    ok = True
    for i in i_values:
        worst = 0.0
        grid = build_grid(spec, i, cfg, rng, supported_only=True)
        for a, madd in grid:
            value = phi_fast_value(engine, i, a, madd)
            ratio = abs(value) * spec.p ** ((spec.n - i) / 2)
            worst = max(worst, ratio)
            rows.append({
                "p": spec.p, "n": spec.n, "family": spec.label, "i": i,
                "v_a": a.val, "a_unit": a.unit, "v_m": madd.val,
                "m_unit": madd.unit, "re": value.real, "im": value.imag,
                "abs": abs(value), "ratio_normalized": ratio,
            })
        good = worst <= bound + 1e-9
        ok = ok and good
        report.append(f"i={i}: {len(grid)} points, max normalized ratio "
                      f"{worst!r} vs bound {bound} -> "
                      f"{'ok' if good else 'EXCEEDED'}")
    return TaskResult(DECAY_COLUMNS, rows, report, ok)


def run_speedup(cfg: ExperimentConfig) -> TaskResult:
    spec = build_spec(cfg)
    rng = random.Random(cfg.seed)
    i_values = cfg.i_values if cfg.i_values is not None else _default_interior(spec)
    rows, report, timing_lines = [], [], []
    ok = True
    for i in i_values:
        grid = build_grid(spec, i, cfg, rng, supported_only=True)
        rep = speedup_report(spec, i, grid)
        for row in rep["rows"]:
            rows.append({k: row[k] for k in SPEEDUP_COLUMNS})
            timing_lines.append(
                f"i={i} v_a={row['v_a']} a_unit={row['a_unit']} "
                f"v_m={row['v_m']} m_unit={row['m_unit']} "
                f"naive_s={row['naive_s']:.6f} fast_s={row['fast_s']:.6f}")
        s = rep["summary"]
        dev_ok = s["max_deviation"] <= 1e-8
        pair_ok = s["max_pairs"] <= s["pair_bound"]
        ok = ok and dev_ok and pair_ok
        report.append(
            f"i={i}: {s['queries']} queries, max deviation {s['max_deviation']:.3e} "
            f"({'ok' if dev_ok else 'TOO LARGE'}), max pairs {s['max_pairs']} "
            f"vs bound {s['pair_bound']} ({'ok' if pair_ok else 'EXCEEDED'})")
        timing_lines.append(
            f"i={i} summary naive_s={s['naive_s']:.3f} fast_s={s['fast_s']:.3f} "
            f"speedup={s['speedup']:.1f}x")
    sidecars = {"timings": "\n".join(timing_lines) + "\n"}
    return TaskResult(SPEEDUP_COLUMNS, rows, report, ok, sidecars)


def run_exponent(cfg: ExperimentConfig) -> TaskResult:
    sup = supnorm_exponent(cfg.eta1, cfg.exp_delta, cfg.eta2)
    dep = depth_exponent(cfg.eta1, cfg.exp_delta, cfg.eta2)
    rows = [{"eta1": cfg.eta1, "delta": cfg.exp_delta, "eta2": cfg.eta2,
             "supnorm_exponent": sup, "depth_exponent": dep}]
    report = [f"C₁-exponent = {sup}, depth exponent = {dep}"]
    if cfg.a1 is not None:
        sched, amp = filtration_schedule({cfg.p: cfg.a1}, cfg.eta1, cfg.eta2)
        levels = ", ".join(str(v) for v in sched[cfg.p])
        report.append(f"filtration schedule (a1={cfg.a1}): [{levels}]; "
                      f"amplifier length exponent = {amp}")
    return TaskResult(EXPONENT_COLUMNS, rows, report, True)


def _plan_label(plan: dict[int, int]) -> str:
    if not plan:
        return "1"
    return "*".join(f"{p}^{r}" for p, r in sorted(plan.items()))


def run_counting(cfg: ExperimentConfig) -> TaskResult:
    fixtures = load_algebra_fixtures()
    if cfg.algebra not in fixtures:
        raise ConfigError("config.algebra",
                          f"unknown algebra (have {sorted(fixtures)})")
    _, order = fixtures[cfg.algebra]
    rows, report = [], []
    ok = True
    lattices, hists, reps = [], [], []
    for k, plan in enumerate(cfg.plans):
        try:
            lat = build_tidy_lattice(order, plan)
        except ValueError as exc:
            raise ConfigError(f"config.plans[{k}]", str(exc)) from None
        rep = counting_bound_report(lat, cfg.z, cfg.delta, cfg.l_budget)
        hist = rep["histogram"]
        lattices.append(lat)
        hists.append(hist)
        reps.append(rep)
        for m in range(1, cfg.l_budget + 1):
            rows.append({"p_plan": _plan_label(plan), "N": lat.index,
                         "L": cfg.l_budget, "m": m, "count": hist[m],
                         "ratio_bd1": rep["ratio_bd1"],
                         "ratio_bd2": rep["ratio_bd2"]})
        even_ok = all(v % 2 == 0 for v in hist.values())
        unit_ok = hist[1] >= 2
        ok = ok and even_ok and unit_ok
        report.append(
            f"plan {_plan_label(plan)}: N={lat.index} shape={lat.shape} "
            f"sum={rep['sum_counts']} sum_sq={rep['sum_square_norm_counts']} "
            f"ratio_bd1={rep['ratio_bd1']!r} ratio_bd2={rep['ratio_bd2']!r} "
            f"even={'ok' if even_ok else 'FAIL'} "
            f"unit_count={'ok' if unit_ok else 'FAIL'}")
    # nested plans must give pointwise monotone counts
    for s in range(len(cfg.plans)):
        for t in range(len(cfg.plans)):
            plan_s, plan_t = cfg.plans[s], cfg.plans[t]
            if s != t and all(plan_t.get(q, 0) >= r for q, r in plan_s.items()):
                mono = all(hists[t][m] <= hists[s][m]
                           for m in range(1, cfg.l_budget + 1))
                ok = ok and mono
                if not mono:
                    report.append(f"monotonicity FAIL: plan {_plan_label(plan_t)} "
                                  f"exceeds {_plan_label(plan_s)}")
    for key in ("ratio_bd1", "ratio_bd2"):
        vals = [r[key] for r in reps if r[key] > 0]
        window_ok = not vals or max(vals) <= 64 * min(vals)
        ok = ok and window_ok
        spread = f"(min {min(vals)!r}, max {max(vals)!r})" if vals else "(no data)"
        report.append(f"{key} window x64: {'ok' if window_ok else 'FAIL'} {spread}")
    if cfg.verify_box_max_norm:
        lat = lattices[0]
        agree = True
        for m in range(1, cfg.verify_box_max_norm + 1):
            fast = count_lattice_points(lat, cfg.z, cfg.delta, m)
            slow = count_lattice_points_box(lat, cfg.z, cfg.delta, m)
            agree = agree and fast == slow
        ok = ok and agree
        report.append(f"box-oracle agreement m<= {cfg.verify_box_max_norm}: "
                      f"{'ok' if agree else 'FAIL'}")
    return TaskResult(COUNTING_COLUMNS, rows, report, ok)


def run_sweep(cfg: ExperimentConfig) -> TaskResult:
    sub_cfgs = []
    for k, raw in enumerate(cfg.configs):
        merged = dict(raw)
        merged.setdefault("seed", cfg.seed)
        sub = ExperimentConfig.from_dict(merged, path=f"config.configs[{k}]")
        if sub.task in ("sweep",):
            raise ConfigError(f"config.configs[{k}].task",
                              "nested sweeps are not supported")
        sub_cfgs.append(sub)
    tasks = {sub.task for sub in sub_cfgs}
    if len(tasks) > 1:
        raise ConfigError("config.configs",
                          f"sweep sub-tasks must share one schema, got {sorted(tasks)}")
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        results = list(pool.map(lambda sc: RUNNERS[sc.task](sc), sub_cfgs))
    columns = results[0].columns if results else SUPPORT_COLUMNS
    rows, report, sidecars = [], [], {}
    ok = True
    for sub, res in zip(sub_cfgs, results):
        rows.extend(res.rows)
        report.append(f"[{sub.task} p={sub.p} n={sub.n} {sub.family}] "
                      + ("pass" if res.ok else "FAIL"))
        report.extend("  " + line for line in res.report)
        ok = ok and res.ok
        for name, text in res.sidecars.items():
            sidecars[name] = sidecars.get(name, "") + text
    if results and sub_cfgs[0].task == "decay":
        summary = []
        for sub, res in zip(sub_cfgs, results):
            by_i = {}
            for row in res.rows:
                by_i.setdefault(row["i"], []).append(row["ratio_normalized"])
            spec = build_spec(sub)
            bound = decay_bound(spec)
            for i in sorted(by_i):
                ratios = by_i[i]
                summary.append({
                    "p": sub.p, "n": sub.n, "family": spec.label,
                    "i": i, "points": len(ratios),
                    "max_ratio_normalized": max(ratios), "bound": bound,
                    "ok": max(ratios) <= bound + 1e-9,
                })
        sidecars["summary"] = render_csv(DECAY_SUMMARY_COLUMNS, summary)
    return TaskResult(columns, rows, report, ok, sidecars)


RUNNERS = {
    "verify-support": run_verify_support,
    "decay": run_decay,
    "speedup": run_speedup,
    "exponent": run_exponent,
    "counting": run_counting,
    "sweep": run_sweep,
}


def write_outputs(cfg: ExperimentConfig, result: TaskResult) -> None:
    with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_csv(result.columns, result.rows))
    status = "PASS" if result.ok else "FAIL"
    lines = [f"task: {cfg.task}", f"status: {status}"] + result.report
    with open(cfg.out + ".report.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    for name, text in result.sidecars.items():
        suffix = ".timings.txt" if name == "timings" else f".{name}.csv"
        with open(cfg.out + suffix, "w", encoding="utf-8") as fh:
            fh.write(text)


def run_task(cfg: ExperimentConfig) -> int:
    result = RUNNERS[cfg.task](cfg)
    write_outputs(cfg, result)
    return 0 if result.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gl2local",
        description="verification and benchmark driver (CSV + report output)")
    parser.add_argument("--task", choices=TASKS)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--threads", type=int)
    args = parser.parse_args(argv)
    raw = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            print(f"config error: config: {exc}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"config error: config: invalid JSON ({exc})", file=sys.stderr)
            return 2
    for key in ("task", "out", "seed", "threads"):
        value = getattr(args, key)
        if value is not None:
            raw[key] = value
    try:
        cfg = ExperimentConfig.from_dict(raw)
        return run_task(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
