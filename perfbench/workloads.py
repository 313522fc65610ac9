"""The benchmark's workloads: seeded inputs, item counts and output checks.

Each workload builds its inputs from the seed alone; sizes never depend on
the seed.  After an iteration's process has exited, its outputs are reduced
to *groups* (one per case and depth, plan or Gram run), each with an item
count, exact fields and float fields.  Groups are compared with the first
iteration of the run, with the stored reference for the default seed, and
with sampled independent oracles.  A group that disagrees fails all its
items.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 1
REFERENCE = Path(__file__).with_name("reference.json")

# float fields of two runs must agree to this relative tolerance (absolute
# below FLOAT_ATOL), so a reordered floating-point sum is not a failure
FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-12
# sampled oracles recompute a value by another path; criterion 6 of the
# acceptance suite uses the same 1e-8 relative deviation
ORACLE_TOL = 1e-8

# (5, 8, sc-unramified) is left out: its character tables take 1.6 s to
# build for 0.13 s of statphase work, which would make decay a benchmark of
# table construction
DECAY_CASES = [(5, 8, "ps"), (7, 6, "ps"), (3, 10, "ps"),
               (5, 6, "sc-unramified"), (7, 6, "sc-unramified"),
               (5, 7, "sc-ramified")]
COUNTING_PLANS = [{}, {"3": 1}, {"3": 2}]
# z = x + iy with x in {k/10}, y in {j/5}: fixed denominators keep the cost
# of the exact distance filter comparable between seeds
COUNTING_X = (-9, -7, -3, -1, 1, 3, 7, 9)
COUNTING_Y = (6, 7, 8, 9)
# criterion 6 gate cases of the acceptance suite: (p, n, family, gate)
CRIT6_CASES = [(3, 8, "ps", 10.0), (3, 8, "sc-unramified", 10.0),
               (5, 6, "ps", 50.0), (5, 6, "sc-unramified", 50.0)]


def floats_close(a: float, b: float, rtol: float = FLOAT_RTOL) -> bool:
    return abs(a - b) <= max(rtol * max(abs(a), abs(b)), FLOAT_ATOL)


def _digest(parts) -> str:
    return hashlib.sha256("|".join(map(str, parts)).encode()).hexdigest()[:16]


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _status_pass(out: Path) -> bool:
    report = Path(str(out) + ".report.txt")
    return report.exists() and "status: PASS" in report.read_text().splitlines()


class Checked:
    """Reduced outputs of one iteration."""

    def __init__(self, ok: bool, groups: dict | None = None):
        self.ok = ok                        # the program's own verdict
        self.groups = groups or {}          # key -> {"items", "exact", "floats"}


def groups_agree(g: dict, h: dict) -> bool:
    return (g["items"] == h["items"] and g["exact"] == h["exact"]
            and len(g["floats"]) == len(h["floats"])
            and all(floats_close(a, b)
                    for a, b in zip(g["floats"], h["floats"])))


class Workload:
    name = ""
    item = ""       # what attempted and failed count

    def __init__(self, tiny: bool = False):
        self.tiny = tiny

    def job(self, seed: int, workdir: Path) -> dict:
        """Inputs of one iteration; CLI workloads also write the config."""
        config = dict(self.config(seed), out=str(workdir / "out.csv"))
        path = workdir / "config.json"
        path.write_text(json.dumps(config))
        return {"kind": "cli", "config_path": str(path)}

    def expected_items(self) -> int:
        raise NotImplementedError

    def check(self, result: dict, workdir: Path) -> Checked:
        raise NotImplementedError

    def oracle(self, seed: int, checked: Checked) -> set:
        """Group keys that an independent recomputation contradicts."""
        return set()


# -- gram -----------------------------------------------------------------------

class Gram(Workload):
    """Gram rank of translated coefficients (no CLI task): the matcoef,
    whittaker and cyclotomic layers with a float consumer, most of the time
    in phi_counts."""

    name = "gram"
    item = "Gram entry"
    p, n = 3, 6

    def elements(self) -> int:
        return 12 if self.tiny else 130

    def job(self, seed: int, workdir: Path) -> dict:
        return {"kind": "gram", "p": self.p, "n": self.n,
                "elements": self.elements(), "seed": seed}

    def expected_items(self) -> int:
        k = self.elements()
        return k * (k + 1) // 2

    def check(self, result: dict, workdir: Path) -> Checked:
        eigs = result["eigs"]
        # the estimator raises on a non-PSD matrix; the rank stays <= 4 q^n0
        ok = 0 <= result["rank"] <= result["rank_cap"]
        group = {"items": self.expected_items(), "exact": [result["rank"]],
                 "floats": [math.fsum(eigs), max(eigs)]}
        return Checked(ok, {"gram": group})

    def oracle(self, seed: int, checked: Checked) -> set:
        # trace of the Gram matrix = N * phi'(1), and phi'(1) = phi(n, 1, 0)
        # computed here on the ungrouped, uncached path
        from gl2local.characters import primitive_char
        from gl2local.matcoef import MatCoefEngine
        from gl2local.residue import get_context
        from gl2local.whittaker import ReprSpec
        engine = MatCoefEngine(ReprSpec.principal_series(
            primitive_char(self.p, self.n // 2)))
        ctx = get_context(self.p, 2 * self.n)
        num = engine.phi_numerator(self.n, ctx.one(), ctx.zero(),
                                   grouped=False, cache_w=False)
        expected = self.elements() * (num.complex() / engine.c0_complex).real
        trace = checked.groups["gram"]["floats"][0]
        return set() if floats_close(trace, expected, ORACLE_TOL) else {"gram"}


# -- decay ----------------------------------------------------------------------

class Decay(Workload):
    """Decay sweep through the CLI: every query goes through
    statphase.critical_pairs and a sparse from_counts, never phi_counts."""

    name = "decay"
    item = "CSV row"

    def cases(self):
        return DECAY_CASES[:2] if self.tiny else DECAY_CASES

    def upc(self) -> int:
        return 2 if self.tiny else 20

    def config(self, seed: int) -> dict:
        subs = [{"task": "decay", "p": p, "n": n, "family": family,
                 "units_per_class": self.upc()}
                for p, n, family in self.cases()]
        return {"task": "sweep", "threads": 1, "seed": seed, "configs": subs}

    def expected_items(self) -> int:
        # interior depths n0 < i < n - 1, upc^2 supported points each
        return sum((n - 2 - n // 2) * self.upc() ** 2
                   for _, n, _ in self.cases())

    def check(self, result: dict, workdir: Path) -> Checked:
        out = workdir / "out.csv"
        ok = result.get("rc") == 0 and _status_pass(out)
        rows = _read_csv(out) if out.exists() else []
        groups = {}
        for r in rows:
            key = f"{r['p']},{r['n']},{r['family']},{r['i']}"
            g = groups.setdefault(key, {"rows": [], "sum_abs": 0.0,
                                        "max_ratio": 0.0})
            g["rows"].append(r)
            g["sum_abs"] += float(r["abs"])
            g["max_ratio"] = max(g["max_ratio"], float(r["ratio_normalized"]))
        reduced = {key: {"items": len(g["rows"]),
                         "exact": _digest((r["v_a"], r["a_unit"], r["v_m"],
                                           r["m_unit"]) for r in g["rows"]),
                         "floats": [g["sum_abs"], g["max_ratio"]],
                         "sample": g["rows"]}
                   for key, g in groups.items()}
        return Checked(ok, reduced)

    def oracle(self, seed: int, checked: Checked) -> set:
        """Naive MatCoefEngine.phi_value at one seeded row per group."""
        from gl2local.cli import ExperimentConfig, build_spec
        from gl2local.matcoef import MatCoefEngine
        from gl2local.residue import get_context
        rng = random.Random(f"decay-oracle:{seed}")
        engines, bad = {}, set()
        for key, g in checked.groups.items():
            r = rng.choice(g["sample"])
            p, n = int(r["p"]), int(r["n"])
            family = {"sc-unram": "sc-unramified",
                      "sc-ram": "sc-ramified"}.get(r["family"], r["family"])
            if (p, n, family) not in engines:
                spec = build_spec(ExperimentConfig(task="decay", p=p, n=n,
                                                   family=family))
                engines[(p, n, family)] = MatCoefEngine(spec)
            engine = engines[(p, n, family)]
            ctx = get_context(p, 2 * n + 6)
            naive = engine.phi_value(int(r["i"]),
                                     ctx.scalar(int(r["v_a"]), int(r["a_unit"])),
                                     ctx.scalar(int(r["v_m"]), int(r["m_unit"])))
            dev = abs(complex(float(r["re"]), float(r["im"])) - naive)
            if abs(naive) > 1e-12:
                dev /= abs(naive)
            if not dev <= ORACLE_TOL:
                bad.add(key)
        return bad


# -- counting -------------------------------------------------------------------

class Counting(Workload):
    """Lattice counts through the CLI: the only quaternion workload, mostly
    the exact distance filter; no p-adic layer runs."""

    name = "counting"
    item = "histogram entry"
    box_max_norm = 6

    def l_budget(self) -> int:
        return 3 if self.tiny else 14

    def plans(self) -> list:
        return COUNTING_PLANS[:1] if self.tiny else COUNTING_PLANS

    def z(self, seed: int) -> tuple[Fraction, Fraction]:
        rng = random.Random(f"counting:{seed}")
        return (Fraction(rng.choice(COUNTING_X), 10),
                Fraction(rng.choice(COUNTING_Y), 5))

    def config(self, seed: int) -> dict:
        x, y = self.z(seed)
        return {"task": "counting", "algebra": "disc14", "plans": self.plans(),
                "L": self.l_budget(), "delta": 1,
                "z": {"x": str(x), "y": str(y)}}

    def expected_items(self) -> int:
        return len(self.plans()) * self.l_budget()

    def check(self, result: dict, workdir: Path) -> Checked:
        out = workdir / "out.csv"
        ok = result.get("rc") == 0 and _status_pass(out)
        rows = _read_csv(out) if out.exists() else []
        groups = {}
        for r in rows:
            g = groups.setdefault(r["p_plan"], {"items": 0, "exact": [],
                                                "floats": [float(r["ratio_bd1"]),
                                                           float(r["ratio_bd2"])]})
            g["items"] += 1
            g["exact"].append([int(r["m"]), int(r["count"])])
        return Checked(ok, groups)

    def oracle(self, seed: int, checked: Checked) -> set:
        """Box enumerator on the plan-{} lattice for norms up to box_max_norm."""
        from gl2local.quaternion import (UpperHalfPoint, build_tidy_lattice,
                                         count_lattice_points_box,
                                         load_algebra_fixtures)
        group = checked.groups.get("1")
        if group is None:
            return set()
        lat = build_tidy_lattice(load_algebra_fixtures()["disc14"][1], {})
        z = UpperHalfPoint(*self.z(seed))
        counts = dict(map(tuple, group["exact"]))
        for m in range(1, min(self.box_max_norm, self.l_budget()) + 1):
            if counts.get(m) != count_lattice_points_box(lat, z, 1, m):
                return {"1"}
        return set()


WORKLOADS = {w.name: w for w in (Gram, Decay, Counting)}


def load_reference() -> dict:
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text())
