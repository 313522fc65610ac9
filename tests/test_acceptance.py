"""Acceptance gates.

Each test_criterion_* function checks one externally promised behavior at
its stated tolerance and runtime budget; conftest.py prints one PASS/FAIL
line per criterion at the end of the run.  The heavy support/decay sweep is
computed once in a session fixture and shared by criteria 1, 2, 3, 6 and 9.
Frozen regression values live in tests/fixtures/.
"""

import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gl2local.characters import (
    all_primitive_chars,
    alpha_of_chi,
    alpha_of_theta,
    build_theta,
    gauss_c0_principal_series,
    gauss_c0_shell,
    gauss_c0_supercuspidal,
    primitive_char,
    psi_exponent_scaled,
    shell_norm_valuation,
)
from gl2local.errors import ConstructionError
from gl2local.matcoef import (
    KStarElement,
    MatCoefEngine,
    decay_bound,
    gram_dimension_estimate,
    verify_support,
)
from gl2local.quaternion import (
    UpperHalfPoint,
    build_tidy_lattice,
    count_lattice_points,
    count_lattice_points_box,
    counting_bound_report,
    depth_exponent,
    filtration_schedule,
    load_algebra_fixtures,
    norm_histogram,
    supnorm_exponent,
    verify_maximal_order,
)
from gl2local.residue import get_context, random_unit
from gl2local.statphase import critical_pairs, phi_fast_value, speedup_report
from gl2local.whittaker import ReprSpec
from oracles import random_k_star_at_level

FIXTURES = Path(__file__).parent / "fixtures"

MIN_PAIRS_PER_I = 200

# every (p, n, family) combination promised by the support/decay gates
FAMILY_CASES = [
    (p, n, family)
    for p in (3, 5)
    for family, sizes in (("ps", (6, 8)),
                          ("sc-unramified", (6,)),
                          ("sc-ramified", (5, 7)))
    for n in sizes
]


def make_spec(p: int, n: int, family: str) -> ReprSpec:
    if family == "ps":
        return ReprSpec.principal_series(primitive_char(p, n // 2))
    if family == "sc-unramified":
        return ReprSpec.supercuspidal(build_theta(p, False, n // 2))
    return ReprSpec.supercuspidal(build_theta(p, True, n - 1))


def support_grid(p: int, n: int, family: str, i: int):
    """Integer columns (v_a, a_unit, v_m, m_unit) of (a, m) = (p^v_a a_unit,
    p^v_m m_unit) spanning v(a) in {-1,0,1,2} x v(m) in {i-n-2,...,1}, at
    least MIN_PAIRS_PER_I in total, distinct units within each class.
    Seeded per case so frozen regression values stay reproducible."""
    rng = random.Random(f"sweep:{p}:{n}:{family}:{i}")
    classes = [(v_a, v_m) for v_a in (-1, 0, 1, 2)
               for v_m in range(i - n - 2, 2)]
    per_class = -(-MIN_PAIRS_PER_I // len(classes))
    points = []
    for v_a, v_m in classes:
        seen = set()
        while len(seen) < per_class:
            pair = (random_unit(p, n + 2, rng), random_unit(p, n + 2, rng))
            if pair in seen:
                continue
            seen.add(pair)
            points.append((v_a, pair[0], v_m, pair[1]))
    return tuple(np.array(col) for col in zip(*points))


def support_rows(engine: MatCoefEngine, family: str, i: int) -> list[dict]:
    """verify_support on the criterion grid of depth i, units known to
    2n + 6 digits, one dict per point with the value columns read back
    from their repr strings as floats."""
    p, n = engine.spec.p, engine.spec.n
    columns = verify_support(engine, i, support_grid(p, n, family, i),
                             2 * n + 6)
    floats = ("re", "im", "abs", "ratio_normalized")
    return [{k: float(v) if k in floats else v for k, v in zip(columns, row)}
            for row in zip(*columns.values())]


def supported_grid(p: int, n: int, family: str, i: int, count: int):
    """Pairs from the single supported class v(a)=0, v(m)=i-n."""
    rng = random.Random(f"speedup:{p}:{n}:{family}:{i}")
    ctx = get_context(p, 2 * n + 6)
    return [(ctx.scalar(0, random_unit(p, n + 2, rng)),
             ctx.scalar(i - n, random_unit(p, n + 2, rng)))
            for _ in range(count)]


@pytest.fixture(scope="session")
def sweep():
    """Full support evaluation: every case, every i in (n0, n], the criterion
    grid per i.  Returns ({case: (spec, engine, {i: rows})}, seconds)."""
    t0 = time.perf_counter()
    cases = {}
    for p, n, family in FAMILY_CASES:
        spec = make_spec(p, n, family)
        engine = MatCoefEngine(spec)
        per_i = {i: support_rows(engine, family, i)
                 for i in range(spec.n0 + 1, spec.n + 1)}
        cases[(p, n, family)] = (spec, engine, per_i)
    return cases, time.perf_counter() - t0


def test_criterion_01_interior_support(sweep):
    cases, elapsed = sweep
    zero_checked = 0
    for (p, n, family), (spec, engine, per_i) in cases.items():
        for i in range(spec.n0 + 1, spec.n - 1):
            rows = per_i[i]
            assert len(rows) >= MIN_PAIRS_PER_I
            assert {r["v_a"] for r in rows} == {-1, 0, 1, 2}
            assert {r["v_m"] for r in rows} == set(range(i - n - 2, 2))
            assert not any(r["violation"] for r in rows)
            zero_checked += sum(r["expected_zero"] for r in rows)
    assert zero_checked > 0
    assert elapsed <= 600.0


def test_criterion_02_boundary_support(sweep):
    cases, _ = sweep
    for (p, n, family), (spec, engine, per_i) in cases.items():
        for i in (n - 1, n):
            rows = per_i[i]
            assert len(rows) >= MIN_PAIRS_PER_I
            assert not any(r["violation"] for r in rows)
            for r in rows:
                if not r["exact_zero"]:
                    assert r["v_a"] == 0 and r["v_m"] >= -1


def test_criterion_03_decay(sweep):
    frozen = json.loads((FIXTURES / "decay_maxima.json").read_text())
    cases, _ = sweep
    seen = set()
    for (p, n, family), (spec, engine, per_i) in cases.items():
        bound = decay_bound(spec)
        for i, rows in per_i.items():
            ratios = [r["ratio_normalized"] for r in rows
                      if not r["expected_zero"]]
            assert ratios
            tol = 1e-9 * p ** ((n - i) / 2)  # 1e-9 on |phi|, scaled
            assert max(ratios) <= bound + tol
            key = f"{p},{n},{family},{i}"
            assert abs(max(ratios) - frozen[key]) <= tol
            seen.add(key)
    assert seen == set(frozen)


def test_criterion_04_filtration_bound(sweep):
    cases, _ = sweep
    q = 3
    for n in (6, 8):
        spec, engine, _ = cases[(q, n, "ps")]
        k = spec.n1 + spec.n
        for j in range(1, spec.n0 - 1):
            rng = random.Random(f"filtration:{n}:{j}")
            bound = 2 * q * q * q ** ((j - spec.n1) / 2) + 1e-9
            for _ in range(100):
                g = random_k_star_at_level(q, k, rng, j)
                assert g.level == j
                assert abs(engine.phi_prime_value(g)) <= bound


def test_criterion_05_gram_rank(sweep):
    cases, _ = sweep
    for n, base in ((4, 60), (6, 130)):
        if n == 6:
            spec, engine, _ = cases[(3, 6, "ps")]
        else:
            spec = make_spec(3, n, "ps")
            engine = MatCoefEngine(spec)
        k = spec.n1 + spec.n
        rng = random.Random(f"gram:{n}")
        elems = [KStarElement.random(3, k, rng) for _ in range(2 * base)]
        # PSD within 1e-6 is enforced inside the estimator (it raises)
        rank_half = gram_dimension_estimate(engine, 0, rng,
                                            elements=elems[:base])
        rank_full = gram_dimension_estimate(engine, 0, rng, elements=elems)
        assert rank_half == rank_full  # stabilized under sample doubling
        assert rank_full <= 4 * 3**spec.n0


def test_criterion_06_fast_oracle_equivalence(sweep):
    cases, _ = sweep
    for (p, n, family), (spec, engine, per_i) in cases.items():
        bound = decay_bound(spec)
        ctx = get_context(p, 2 * n + 6)
        for i in range(spec.n0 + 1, spec.n - 1):
            for row in per_i[i]:
                if row["expected_zero"]:
                    continue
                a = ctx.scalar(row["v_a"], row["a_unit"])
                madd = ctx.scalar(row["v_m"], row["m_unit"])
                naive = complex(row["re"], row["im"])
                fast = phi_fast_value(engine, i, a, madd)
                dev = abs(fast - naive)
                if abs(naive) > 1e-12:
                    dev /= abs(naive)
                assert dev <= 1e-8
                assert len(critical_pairs(engine, i, a, madd)[0]) <= bound


def test_criterion_06_wall_clock_speedup():
    for (p, n), needed in (((3, 8), 10.0), ((5, 6), 50.0)):
        for family in ("ps", "sc-unramified"):
            spec = make_spec(p, n, family)
            i = spec.n0 + 1
            grid = supported_grid(p, n, family, i, count=40)
            summary = speedup_report(spec, i, grid)["summary"]
            assert summary["speedup"] >= needed
            assert summary["max_deviation"] <= 1e-8
            assert summary["max_pairs"] <= summary["pair_bound"]


def test_criterion_07_gauss_sums(sweep):
    for p in (3, 5):
        for level in (1, 2, 3, 4):
            for mu in all_primitive_chars(p, level):
                c0 = gauss_c0_principal_series(mu)
                assert abs(abs(c0.complex()) - p ** (-level / 2)) < 1e-12
    cases, _ = sweep
    for (p, n, family), (spec, _, _) in cases.items():
        if family == "ps":
            continue
        theta = spec.theta
        scaled = abs(gauss_c0_supercuspidal(theta).complex()) * p ** (n / 2)
        assert p**-0.5 - 1e-9 <= scaled <= p**0.5 + 1e-9
        assert shell_norm_valuation(theta) == -n


def test_criterion_08_alpha_linearization():
    for p in (3, 5):
        for a in (2, 3, 4):
            hi, lo = (a + 1) // 2, a // 2
            for chi in all_primitive_chars(p, a):
                alpha = alpha_of_chi(chi)
                w = alpha.residue_unit(lo)
                m = math.lcm(chi.value_order, p**lo)
                for t in range(p**lo):
                    lhs = chi.eval_exponent((1 + p**hi * t) % p**a, m)
                    assert lhs == psi_exponent_scaled(p, lo, w * t, m)

        for a in (2, 3, 4):
            theta = build_theta(p, False, a)
            alpha = alpha_of_theta(theta)
            group = theta.group
            hi, lo = (a + 1) // 2, a // 2
            w = alpha.b.residue_unit(lo)
            d = group.d_unit
            m = math.lcm(theta.value_order, p**lo)
            for s in range(p**lo):
                for t in range(p**lo):
                    key = ((1 + p**hi * s) % p**a, p**hi * t % p**a)
                    lhs = theta.eval_exponent(key, m)
                    assert lhs == psi_exponent_scaled(p, lo, 2 * w * t * d, m)

        # the deepest one-unit shell of a ramified extension at odd level
        # lies in the base field, so only even levels carry admissible
        # characters; levels 2 and 4 cover the promised range
        with pytest.raises(ConstructionError):
            build_theta(p, True, 3)
        for a in (2, 4):
            theta = build_theta(p, True, a)
            alpha = alpha_of_theta(theta)
            group = theta.group
            h = a // 2
            ca, cb = p ** ((h + 1) // 2), p ** (h // 2)
            tr_level = a // 2 - h // 2
            w = alpha.b.residue_unit(tr_level)
            m = math.lcm(theta.value_order, p**tr_level)
            for s in range(group.mod_a // ca):
                for t in range(group.mod_b // cb):
                    key = ((1 + ca * s) % group.mod_a, cb * t % group.mod_b)
                    lhs = theta.eval_exponent(key, m)
                    assert lhs == psi_exponent_scaled(p, tr_level, 2 * w * t, m)


def test_criterion_09_trivial_values(sweep):
    cases, _ = sweep
    for (p, n, family), (spec, engine, per_i) in cases.items():
        ctx = get_context(p, 2 * n + 6)
        one = ctx.one()
        assert abs(engine.phi_value(n, one, ctx.zero()) - 1) <= 1e-12
        for u in range(1, min(p, 4)):
            value = engine.phi_value(n, one, ctx.scalar(-1, u))
            assert abs(value - (-1 / (p - 1))) <= 1e-12
            assert engine.phi_numerator(n, one, ctx.scalar(-2, u)).is_zero()
            assert engine.phi_numerator(n, one, ctx.scalar(-3, u)).is_zero()
        worst = max(r["abs"] for rows in per_i.values() for r in rows)
        assert worst <= 1 + 1e-9
        if family != "ps":
            # the constant the values above are divided by
            assert engine.c0.equals(gauss_c0_shell(spec.theta, engine.m))


def test_criterion_10_exponent_arithmetic():
    half = Fraction(1, 2)
    assert supnorm_exponent(0, 1, half) == Fraction(5, 12)
    assert depth_exponent(0, 1, half) == Fraction(5, 24)
    assert depth_exponent(0, 1, 0) == Fraction(1, 4)
    schedule, amplifier = filtration_schedule({2: 4}, 0, half)
    assert schedule[2] == [Fraction(0), Fraction(1, 8), Fraction(1, 4),
                           Fraction(3, 8), half]
    assert amplifier == Fraction(1, 6)


def test_criterion_11_counting():
    t0 = time.perf_counter()
    fixtures = load_algebra_fixtures()
    order6, order14 = fixtures["disc6"][1], fixtures["disc14"][1]
    assert verify_maximal_order(order6)
    z = UpperHalfPoint(Fraction(1, 10), Fraction(6, 5))
    budget = range(1, 21)

    lat6 = build_tidy_lattice(order6, {})
    for m in budget:  # two independent enumerators, every norm in budget
        assert count_lattice_points(lat6, z, 1, m) \
            == count_lattice_points_box(lat6, z, 1, m)

    # index 9 and 81 need an odd split prime: 3 divides discriminant 6, so
    # the square-index lattices are built inside the disc-14 twin algebra
    lattices = {
        (6, 1): lat6,
        (14, 1): build_tidy_lattice(order14, {}),
        (14, 9): build_tidy_lattice(order14, {3: 1}),
        (14, 81): build_tidy_lattice(order14, {3: 2}),
    }
    hists, reports = {}, {}
    for key, lat in lattices.items():
        hists[key] = norm_histogram(lat, z, 1, budget)
        assert all(c % 2 == 0 for c in hists[key].values())
        reports[key] = counting_bound_report(lat, z, 1, 20)
    assert hists[(6, 1)][1] >= 2
    for m in budget:  # subset monotonicity along the nested chain
        assert hists[(14, 1)][m] >= hists[(14, 9)][m] >= hists[(14, 81)][m]
    for ratio_key in ("ratio_bd1", "ratio_bd2"):
        vals = [rep[ratio_key] for rep in reports.values() if rep[ratio_key] > 0]
        assert max(vals) <= 64 * min(vals)
    assert time.perf_counter() - t0 <= 120.0
