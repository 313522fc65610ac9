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
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .characters import build_theta, primitive_char
from .matcoef import (MatCoefEngine, decay_bound, grid_columns, grid_keys,
                      verify_support)
from .quaternion import (
    QuaternionAlgebra,
    UpperHalfPoint,
    algebra_specs,
    build_tidy_lattice,
    count_lattice_points_box,
    counting_bound_report,
    depth_exponent,
    filtration_schedule,
    load_algebra,
    norm_histogram,
    supnorm_exponent,
)
from .residue import (
    PRIMALITY_BOUND,
    PAdicScalar,
    get_context,
    is_prime,
    random_unit,
)
from .statphase import interior_depths, phi_fast_values, speedup_report
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_fraction(value, path: str) -> Fraction:
    """A rational with at most a quarter of the int-string digit limit in
    numerator and denominator, so a report can print sums of three."""
    limit = sys.get_int_max_str_digits()
    try:
        text = str(value)
        # Fraction builds 10**exp first; the mantissa has at most 2 * limit
        # digits, so past 3 * limit the result is refused below anyway
        _, e, exp = text.lower().partition("e")
        if e and limit and abs(int(exp)) > 3 * limit:
            raise ConfigError(path, f"more than {limit // 4} digits")
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(path, f"not a rational number: {value!r}") from None
    if limit and max(abs(value.numerator), value.denominator) >= 10**(limit // 4):
        raise ConfigError(path, f"more than {limit // 4} digits")
    return value


def _parse_field(kind, value, lo, path: str):
    """One JSON value checked against its FIELDS kind and least value lo."""
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(path, f"must be one of {kind}")
    elif kind.endswith("?"):
        return None if value is None else _parse_field(kind[:-1], value, lo, path)
    elif kind == "int" and not _is_int(value):
        raise ConfigError(path, "must be an integer")
    elif kind == "ints" and not (isinstance(value, (list, tuple))
                                 and all(map(_is_int, value))):
        raise ConfigError(path, "must be a list of integers")
    elif kind == "str" and not isinstance(value, str):
        raise ConfigError(path, "must be a string")
    elif kind == "prime" and not (_is_int(value) and 2 < value < PRIMALITY_BOUND
                                  and is_prime(value)):
        raise ConfigError(path, f"must be an odd prime below {PRIMALITY_BOUND}")
    elif kind == "rational":
        value = _parse_fraction(value, path)
    elif kind == "point":
        if not isinstance(value, dict):
            raise ConfigError(path, "must be an object with fields x, y")
        for key in value:
            if key not in ("x", "y"):
                raise ConfigError(f"{path}.{key}", "unknown field")
        try:
            value = UpperHalfPoint(_parse_fraction(value.get("x", 0), f"{path}.x"),
                                   _parse_fraction(value.get("y", 1), f"{path}.y"))
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from None
    elif kind == "plans":
        if not isinstance(value, list) or not value:
            raise ConfigError(path, "must be a non-empty list of objects")
        value = [_parse_plan(plan, f"{path}[{k}]") for k, plan in enumerate(value)]
    if lo is not None and value < lo:
        raise ConfigError(path, f"must be >= {lo}")
    return value


def _parse_plan(plan, path: str) -> dict[int, int]:
    try:
        parsed = {int(q): r for q, r in plan.items()}
    except (AttributeError, TypeError, ValueError):
        parsed = None
    # a key such as "05" or " 5" would otherwise merge silently with "5"
    if parsed is None or list(map(str, parsed)) != list(map(str, plan)):
        raise ConfigError(path, "must be an object keyed by plain decimals")
    for q, r in parsed.items():
        _parse_field("prime", q, None, path)
        _parse_field("int", r, 1, path)
    return parsed


# (JSON key, attribute, kind, least value) in check order; a kind is a tuple
# of allowed values or a name _parse_field reads, "?" lets null keep a None
# default.  Only task is required; a sweep's configs are parsed by its rule.
FIELDS = (
    ("task", "task", TASKS, None),
    ("p", "p", "prime", None),
    ("family", "family", FAMILIES, None),
    ("n", "n", "int", 2),
    ("i_values", "i_values", "ints?", None),
    ("v_a_values", "v_a_values", "ints", None),
    ("units_per_class", "units_per_class", "int", 1),
    ("algebra", "algebra", "str", None),
    ("plans", "plans", "plans", None),
    ("z", "z", "point", None),
    ("delta", "delta", "rational", 0),
    ("L", "l_budget", "int", 1),
    ("verify_box_max_norm", "verify_box_max_norm", "int", 0),
    ("eta1", "eta1", "rational", None),
    ("eta2", "eta2", "rational", None),
    ("a1", "a1", "int?", 1),
    ("out", "out", "str", None),
    ("seed", "seed", "int", None),
    ("threads", None, "int", 1),  # accepted for old configs; no effect
    ("configs", "configs", "any", None),
)


@dataclass
class ExperimentConfig:
    task: str
    p: int = 3
    n: int = 6
    family: str = "ps"
    i_values: list[int] | None = None
    v_a_values: tuple[int, ...] = (-1, 0, 1, 2)
    units_per_class: int = 2
    # counting parameters; delta is also the exponent task's delta
    algebra: str = "disc6"
    plans: list[dict[int, int]] = field(default_factory=lambda: [{}])
    z: UpperHalfPoint = UpperHalfPoint(Fraction(1, 10), Fraction(6, 5))
    delta: Fraction = Fraction(1)
    l_budget: int = 20
    verify_box_max_norm: int = 0
    # exponent parameters
    eta1: Fraction = Fraction(0)
    eta2: Fraction = Fraction(1, 2)
    a1: int | None = None
    # plumbing
    out: str = "out.csv"
    seed: int = 0
    configs: list[ExperimentConfig] | None = None

    @classmethod
    def from_dict(cls, raw: dict, path: str = "config") -> "ExperimentConfig":
        """`raw` checked row by row in FIELDS order, each cross-field rule
        right after the last row it reads; ConfigError names the field."""
        if not isinstance(raw, dict):
            raise ConfigError(path, "must be a JSON object")
        known = [key for key, *_ in FIELDS]
        for key in raw:
            if key not in known:
                raise ConfigError(f"{path}.{key}", "unknown field")
        cfg = cls(task=None)
        for key, attr, kind, lo in FIELDS:
            if key in raw or key == "task":
                value = _parse_field(kind, raw.get(key), lo, f"{path}.{key}")
                if attr:
                    setattr(cfg, attr, value)
            cfg._check_rules(key, path)
        return cfg

    def _check_rules(self, key: str, path: str) -> None:
        """The cross-field rule that runs once row `key` is read."""
        if key == "n":
            odd = self.family == "sc-ramified"
            if self.n % 2 != odd or self.n < 4 - odd:
                raise ConfigError(f"{path}.n", f"{self.family} requires "
                                  f"{'odd' if odd else 'even'} n >= {4 - odd}")
        elif key == "i_values" and self.i_values is not None:
            if not all(self.n // 2 < i <= self.n for i in self.i_values):
                raise ConfigError(f"{path}.i_values", "must lie in "
                                  f"({self.n // 2}, {self.n}]")
        # build_grid draws distinct units mod p^(n+2); there are more than
        # 2^(n+1) of them, so only a long units_per_class needs the count
        elif key == "units_per_class" \
                and self.n + 1 < self.units_per_class.bit_length():
            units = (self.p - 1) * self.p ** (self.n + 1)
            if self.units_per_class > units:
                raise ConfigError(f"{path}.units_per_class",
                                  f"must be at most (p-1)p^(n+1) = {units}")
        elif key == "plans" and self.task == "counting":
            # names and Hilbert pairs only: no order is built here
            specs = algebra_specs()
            if self.algebra not in specs:
                raise ConfigError(f"{path}.algebra",
                                  f"unknown algebra (have {sorted(specs)})")
            disc = QuaternionAlgebra(*specs[self.algebra]["hilbert"]).discriminant
            for k, plan in enumerate(self.plans):
                if any(disc % q == 0 for q in plan):
                    raise ConfigError(f"{path}.plans[{k}]", "primes must be "
                                      f"split in {self.algebra}")
        elif key == "eta2" and self.task == "exponent" \
                and not 0 <= self.eta1 <= self.eta2:
            raise ConfigError(f"{path}.eta1", "need 0 <= eta1 <= eta2")
        elif key == "configs" and self.task == "sweep":
            if not isinstance(self.configs, list):
                raise ConfigError(f"{path}.configs",
                                  "sweep requires a list of sub-configs")
            subs = []
            for k, raw in enumerate(self.configs):
                where = f"{path}.configs[{k}]"
                if isinstance(raw, dict):
                    if raw.get("task") == "sweep":
                        raise ConfigError(f"{where}.task",
                                          "nested sweeps are not supported")
                    raw = {"seed": self.seed, **raw}
                subs.append(ExperimentConfig.from_dict(raw, where))
            tasks = sorted({sub.task for sub in subs})
            if len(tasks) > 1:
                raise ConfigError(f"{path}.configs", "sweep sub-tasks must "
                                  f"share one schema, got {tasks}")
            self.configs = subs


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
        u = random_unit(p, digits, rng)
        if u not in seen:
            seen.add(u)
            out.append(u)
    return out


def _grid_prec(spec: ReprSpec) -> int:
    """Digits to which a grid point's unit is known, its context's."""
    return 2 * spec.n + 6


def build_grid(spec: ReprSpec, i: int, cfg: ExperimentConfig,
               rng: random.Random, supported_only: bool = False
               ) -> tuple[np.ndarray, ...]:
    """The depth-i points (a, m) = (p^v_a a_unit, p^v_m m_unit) as integer
    columns (v_a, a_unit, v_m, m_unit), int64 (object past int64): the v(a)
    x v(m) classes of the config, each with units_per_class distinct units
    mod p^(n+2) for a, drawn first, then units_per_class for m per unit of
    a.  The one place grid units are drawn.  verify-support and decay run
    the columns as they are (grid_keys); only speedup reads them as scalars
    (grid_points), since criterion 6 times the one-query path."""
    digits = spec.n + 2
    if supported_only:
        classes = [(0, i - spec.n)]
    else:
        classes = [(v_a, v_m) for v_a in cfg.v_a_values
                   for v_m in range(i - spec.n - 2, 2)]
    upc = cfg.units_per_class
    v_as, a_units, v_ms, m_units = [], [], [], []
    for v_a, v_m in classes:
        for u_a in _sample_units(spec.p, digits, upc, rng):
            a_units += [u_a] * upc
            m_units += _sample_units(spec.p, digits, upc, rng)
        v_as += [v_a] * upc * upc
        v_ms += [v_m] * upc * upc
    big = spec.p ** digits >> 63
    return tuple(np.array(col, dtype=object if big else np.int64)
                 for col in (v_as, a_units, v_ms, m_units))


def grid_points(spec: ReprSpec, grid: tuple[np.ndarray, ...]
                ) -> list[tuple[PAdicScalar, PAdicScalar]]:
    """The (a, m) scalar pairs of build_grid's columns."""
    ctx = get_context(spec.p, _grid_prec(spec))
    return [(ctx.scalar(v_a, u_a), ctx.scalar(v_m, u_m))
            for v_a, u_a, v_m, u_m in zip(*(col.tolist() for col in grid))]


def _depths(cfg: ExperimentConfig, spec: ReprSpec) -> range | list[int]:
    """The config's i_values, by default the interior depths."""
    return interior_depths(spec) if cfg.i_values is None else cfg.i_values


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fmt_column(values: list) -> list[str]:
    """_fmt of every value, by one map over the column when all values have
    the same plain type (exact type: bool and numpy scalars take _fmt)."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return list(map(repr, values))
    if kinds == {int} or kinds == {str}:
        return list(map(str, values))
    return list(map(_fmt, values))


def _columns(names: list[str], rows: list[dict]) -> dict[str, list]:
    """Row dicts as columns, None where a row lacks the name."""
    return {c: [row.get(c) for row in rows] for c in names}


def render_csv(columns: dict[str, list]) -> str:
    """The CSV of columns (header, then values): each column formatted
    once by _fmt_column, the rows written by one csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*map(_fmt_column, columns.values())))
    return buf.getvalue()


# -- task runners --------------------------------------------------------------

@dataclass
class TaskResult:
    """A task's CSV as columns, name to one value per row in header order
    (render_csv formats them; a str is written as it is), its report lines
    and verdict, and its sidecar texts."""
    columns: dict[str, list]
    report: list[str]
    ok: bool
    sidecars: dict[str, str] = field(default_factory=dict)
    # decay: one DECAY_SUMMARY_COLUMNS row per depth i, sorted by i
    summary: list[dict] = field(default_factory=list)


def run_verify_support(cfg: ExperimentConfig) -> TaskResult:
    spec = build_spec(cfg)
    engine = MatCoefEngine(spec)
    rng = random.Random(cfg.seed)
    columns = {c: [] for c in SUPPORT_COLUMNS}
    report = []
    violations = 0
    for i in _depths(cfg, spec):
        batch = verify_support(engine, i, build_grid(spec, i, cfg, rng),
                               _grid_prec(spec))
        bad = sum(batch["violation"])
        violations += bad
        for name, col in batch.items():
            columns[name].extend(col)
        report.append(f"i={i}: {len(batch['i'])} points, {bad} violations")
    report.append(f"total violations: {violations}")
    return TaskResult(columns, report, violations == 0)


def run_decay(cfg: ExperimentConfig) -> TaskResult:
    """Fast coefficient values on the supported grid of each interior depth
    against decay_bound, as one column program per depth, the one
    verify_support runs with the unit average: the distinct keys of the
    grid (grid_keys) go to one call of phi_fast_values, and grid_columns
    formats each key's value once and gathers it per point."""
    spec = build_spec(cfg)
    engine = MatCoefEngine(spec)
    rng = random.Random(cfg.seed)
    bound = decay_bound(spec)
    prec = _grid_prec(spec)
    columns = {c: [] for c in DECAY_COLUMNS}
    report = []
    by_i = {}
    ok = True
    for i in _depths(cfg, spec):
        grid = build_grid(spec, i, cfg, rng, supported_only=True)
        keys, slots = grid_keys(engine, i, grid, prec)
        batch, worst = grid_columns(engine, i, grid,
                                    phi_fast_values(engine, i, keys), slots)
        points = len(slots)
        for name, col in batch.items():
            columns[name].extend(col)
        good = worst <= bound + 1e-9
        ok = ok and good
        report.append(f"i={i}: {points} points, max normalized ratio "
                      f"{worst!r} vs bound {bound} -> "
                      f"{'ok' if good else 'EXCEEDED'}")
        row = by_i.setdefault(i, {
            "p": spec.p, "n": spec.n, "family": spec.label, "i": i,
            "points": 0, "max_ratio_normalized": 0.0, "bound": bound,
            "ok": True})
        row["points"] += points
        row["max_ratio_normalized"] = max(row["max_ratio_normalized"], worst)
        row["ok"] = row["ok"] and good
    return TaskResult(columns, report, ok,
                      summary=[by_i[i] for i in sorted(by_i)])


def run_speedup(cfg: ExperimentConfig) -> TaskResult:
    spec = build_spec(cfg)
    rng = random.Random(cfg.seed)
    rows, report, timing_lines = [], [], []
    ok = True
    for i in _depths(cfg, spec):
        grid = grid_points(spec, build_grid(spec, i, cfg, rng,
                                            supported_only=True))
        rep = speedup_report(spec, i, grid)
        rows.extend(rep["rows"])
        for row in rep["rows"]:
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
    return TaskResult(_columns(SPEEDUP_COLUMNS, rows), report, ok, sidecars)


def run_exponent(cfg: ExperimentConfig) -> TaskResult:
    sup = supnorm_exponent(cfg.eta1, cfg.delta, cfg.eta2)
    dep = depth_exponent(cfg.eta1, cfg.delta, cfg.eta2)
    rows = [{"eta1": cfg.eta1, "delta": cfg.delta, "eta2": cfg.eta2,
             "supnorm_exponent": sup, "depth_exponent": dep}]
    report = [f"C₁-exponent = {sup}, depth exponent = {dep}"]
    if cfg.a1 is not None:
        sched, amp = filtration_schedule({cfg.p: cfg.a1}, cfg.eta1, cfg.eta2)
        levels = ", ".join(str(v) for v in sched[cfg.p])
        report.append(f"filtration schedule (a1={cfg.a1}): [{levels}]; "
                      f"amplifier length exponent = {amp}")
    return TaskResult(_columns(EXPONENT_COLUMNS, rows), report, True)


def _plan_label(plan: dict[int, int]) -> str:
    if not plan:
        return "1"
    return "*".join(f"{p}^{r}" for p, r in sorted(plan.items()))


def run_counting(cfg: ExperimentConfig) -> TaskResult:
    _, order = load_algebra(cfg.algebra)
    rows, report = [], []
    ok = True
    lattices, hists, reps = [], [], []
    for plan in cfg.plans:
        lat = build_tidy_lattice(order, plan)
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
        lat, top = lattices[0], cfg.verify_box_max_norm
        # the fast side is one histogram, whose ellipsoid of the largest norm
        # is checked first; the box oracle then runs from the largest norm
        # down, so a box past its budget is refused at once
        fast = norm_histogram(lat, cfg.z, cfg.delta, range(1, top + 1))
        agree = all(fast[m] == count_lattice_points_box(lat, cfg.z,
                                                        cfg.delta, m)
                    for m in range(top, 0, -1))
        ok = ok and agree
        report.append(f"box-oracle agreement m<= {cfg.verify_box_max_norm}: "
                      f"{'ok' if agree else 'FAIL'}")
    return TaskResult(_columns(COUNTING_COLUMNS, rows), report, ok)


def run_sweep(cfg: ExperimentConfig) -> TaskResult:
    results = [RUNNERS[sub.task](sub) for sub in cfg.configs]
    columns = {c: [] for c in (results[0].columns if results
                               else SUPPORT_COLUMNS)}
    report, sidecars, summary = [], {}, []
    ok = True
    for sub, res in zip(cfg.configs, results):
        for c, values in res.columns.items():
            columns[c].extend(values)
        summary.extend(res.summary)
        report.append(f"[{sub.task} p={sub.p} n={sub.n} {sub.family}] "
                      + ("pass" if res.ok else "FAIL"))
        report.extend("  " + line for line in res.report)
        ok = ok and res.ok
        for name, text in res.sidecars.items():
            sidecars[name] = sidecars.get(name, "") + text
    if results and cfg.configs[0].task == "decay":
        sidecars["summary"] = render_csv(_columns(DECAY_SUMMARY_COLUMNS,
                                                  summary))
    return TaskResult(columns, report, ok, sidecars)


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
        fh.write(render_csv(result.columns))
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
    args = parser.parse_args(argv)
    raw = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            print(f"config error: config: {exc}", file=sys.stderr)
            return 2
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, UnicodeDecodeError, an integer literal past
            # the int-string conversion limit, and nesting past the stack
            print(f"config error: config: invalid JSON ({exc})", file=sys.stderr)
            return 2
    flags = {key: getattr(args, key) for key in ("task", "out", "seed")
             if getattr(args, key) is not None}
    try:
        # from_dict refuses a raw value that is not an object, flags or not
        cfg = ExperimentConfig.from_dict(
            {**raw, **flags} if isinstance(raw, dict) else raw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run_task(cfg)


if __name__ == "__main__":
    sys.exit(main())
