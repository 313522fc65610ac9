import gc
import random
from collections import Counter

import numpy as np
import pytest

from gl2local.characters import build_theta, primitive_char
from gl2local.cyclotomic import CycloValue, _basis
from gl2local.matcoef import MatCoefEngine, decay_bound, grid_keys
from gl2local.residue import (
    get_context,
    padic_valuation,
    random_unit,
    solve_quadratic_congruence,
    sqrt_mod_prime,
)
from gl2local import matcoef, statphase
from gl2local.statphase import (
    _unit_lifts,
    ball_volume,
    critical_pairs,
    depth_pairs,
    depth_plan,
    naive_term_count,
    phi_fast_numerator,
    phi_fast_value,
    phi_fast_values,
    speedup_report,
)
from gl2local.whittaker import ReprSpec, required_precision
from oracles import (
    ps_pairs_per_u0,
    root_of_unity,
    sc_pairs_per_rep,
    unit_average_counts,
)


def ps_engine(p, n):
    return MatCoefEngine(ReprSpec.principal_series(primitive_char(p, n // 2)))


def sc_engine(p, ramified, level):
    return MatCoefEngine(ReprSpec.supercuspidal(build_theta(p, ramified, level)))


def supported_grid(engine, i, units=(1, 2)):
    spec = engine.spec
    ctx = get_context(spec.p, spec.n + 4)
    return [(ctx.scalar(0, ua), ctx.scalar(i - spec.n, um))
            for ua in units for um in units]


# -- congruence solvers ------------------------------------------------------

def test_sqrt_mod_prime_all_residues():
    for p in (3, 5, 7, 13, 17, 41):
        squares = {x * x % p for x in range(p)}
        for a in range(p):
            r = sqrt_mod_prime(a, p)
            if a in squares:
                assert r is not None and r * r % p == a
            else:
                assert r is None
    with pytest.raises(ValueError):
        sqrt_mod_prime(1, 2)


def test_quadratic_congruence_examples():
    assert solve_quadratic_congruence(1, 0, -1, 3, 4) == [1, 80]
    assert solve_quadratic_congruence(1, 0, -2, 3, 2) == []
    # degenerate leading coefficient falls back to the linear root
    assert solve_quadratic_congruence(3, 1, -5, 3, 3) == [20]
    assert (3 * 20 * 20 + 20 - 5) % 27 == 0


def test_quadratic_congruence_against_scan():
    rng = random.Random(20240817)
    for _ in range(100):
        p = rng.choice((3, 5))
        k = rng.randint(1, 4)
        mod = p**k
        a, b, c = (rng.randrange(-mod, mod) for _ in range(3))
        got = solve_quadratic_congruence(a, b, c, p, k)
        want = [x for x in range(mod) if (a * x * x + b * x + c) % mod == 0]
        assert got == want, (p, k, a, b, c)


def test_quadratic_congruence_split_lifting():
    # derivative vanishes at the double root mod p, so lifts split level by level
    for p, k in ((3, 3), (5, 3)):
        mod = p**k
        want = [x for x in range(mod) if (x * x) % mod == 0]
        assert solve_quadratic_congruence(1, 0, 0, p, k) == want


# -- fast evaluator equals the plain average ---------------------------------

@pytest.mark.parametrize("p,n,depths", [(3, 6, (4,)), (3, 8, (5, 6))])
def test_ps_fast_matches_naive_exactly(p, n, depths):
    engine = ps_engine(p, n)
    bound = decay_bound(engine.spec)
    for i in depths:
        for a, madd in supported_grid(engine, i):
            naive = engine.phi_numerator(i, a, madd)
            fast, pairs = phi_fast_numerator(engine, i, a, madd)
            assert fast.equals(naive), (i, a.unit, madd.unit)
            assert 0 < pairs <= bound or naive.is_zero()
            assert pairs <= bound


def test_sc_unram_fast_matches_naive_exactly():
    engine = sc_engine(3, False, 3)  # n = 6
    bound = decay_bound(engine.spec)
    for a, madd in supported_grid(engine, 4):
        naive = engine.phi_numerator(4, a, madd)
        fast, pairs = phi_fast_numerator(engine, 4, a, madd)
        assert fast.equals(naive)
        assert pairs <= bound


@pytest.mark.parametrize("level,n,depths", [(4, 5, (3,)), (6, 7, (4, 5))])
def test_sc_ram_fast_matches_naive_exactly(level, n, depths):
    engine = sc_engine(3, True, level)
    assert engine.spec.n == n
    bound = decay_bound(engine.spec)
    for i in depths:
        for a, madd in supported_grid(engine, i):
            naive = engine.phi_numerator(i, a, madd)
            fast, pairs = phi_fast_numerator(engine, i, a, madd)
            assert fast.equals(naive), (i, a.unit, madd.unit)
            assert pairs <= bound


def assert_pairs_match_oracle(engine, oracle):
    """One depth_pairs call per interior depth over the oracle's queries
    (a, p^-t m) with a and m in {1, 2, p+1, p^t-1}, each normalised first
    as key_rows normalises it, to the residue a m^-1 mod p^w.  Each query's
    scanned count and phases (as a multiset) match the oracle's at (a, m),
    and so does the weight; at m = 1 its rows match too, while at m != 1
    x -> m^-1 x moves the pairs' coordinates.  Some query has no pairs and
    some has pairs."""
    spec, p = engine.spec, engine.spec.p
    width = 3 if spec.family == "ps" else 4
    sizes = []
    for i in range(spec.n0 + 1, spec.n - 1):
        pw = p ** required_precision(spec, i)
        units = (1, 2, p + 1, p ** (spec.n - i) - 1)
        queries = [(a_res, m_res) for a_res in units for m_res in units]
        keys = [a_res * pow(m_res, -1, pw) % pw for a_res, m_res in queries]
        pairs, scanned = depth_pairs(engine, i,
                                     np.array(keys, dtype=np.int64))
        assert pairs.dtype == np.int64 and pairs.shape[1] == 1 + width
        assert scanned.shape == (len(keys),)
        for k, (a_res, m_res) in enumerate(queries):
            want, want_scanned, weight = oracle(engine, i, a_res, m_res)
            rows = pairs[pairs[:, 0] == k, 1:]
            assert scanned[k] == want_scanned, (i, a_res, m_res)
            assert (Counter(rows[:, -1].tolist())
                    == Counter(row[-1] for row in want)), (i, a_res, m_res)
            if m_res == 1:
                assert (Counter(map(tuple, rows.tolist()))
                        == Counter(want)), (i, a_res)
            assert ball_volume(engine, i) == weight
            sizes.append(len(rows))
    assert min(sizes) == 0 < max(sizes)


@pytest.mark.parametrize("p,n", [(3, 6), (3, 8), (5, 6), (5, 8), (7, 6)])
def test_ps_pairs_match_per_u0_oracle(p, n):
    assert_pairs_match_oracle(ps_engine(p, n), ps_pairs_per_u0)


@pytest.mark.parametrize("p,ramified,level", [
    (3, False, 3), (5, False, 3), (7, False, 3), (3, True, 4), (3, True, 6),
    (5, True, 6)])
def test_sc_pairs_match_per_rep_oracle(p, ramified, level):
    assert_pairs_match_oracle(sc_engine(p, ramified, level),
                              sc_pairs_per_rep)


def plan_arrays(plan) -> list[np.ndarray]:
    return [getattr(plan, name) for cls in type(plan).__mro__
            for name in vars(cls).get("__slots__", ())
            if isinstance(getattr(plan, name), np.ndarray)]


def assert_plans_built_once_per_depth(monkeypatch, engine, plan_class):
    built = []

    class CountedPlan(plan_class):
        def __init__(self, engine, t):
            built.append(t)
            super().__init__(engine, t)

    monkeypatch.setattr(statphase, plan_class.__name__, CountedPlan)
    depths = range(engine.spec.n0 + 1, engine.spec.n - 1)
    for _ in range(2):
        for i in depths:
            for a, madd in supported_grid(engine, i):
                critical_pairs(engine, i, a, madd)
            ball_volume(engine, i)
    assert sorted(built) == sorted(engine.spec.n - i for i in depths)
    for t, plan in engine.depth_plans.items():
        assert depth_plan(engine, t) is plan
        assert isinstance(plan, CountedPlan)
        assert not any(arr.flags.writeable for arr in plan_arrays(plan))


def test_sc_plan_built_once_per_depth_and_read_only(monkeypatch):
    engine = sc_engine(3, True, 6)  # n = 7, interior depths 4 and 5
    assert_plans_built_once_per_depth(monkeypatch, engine, statphase.ScPlan)
    for plan in engine.depth_plans.values():
        assert len(plan_arrays(plan)) == 10
        # each kept row's eta^-1 modulo the root modulus
        assert (plan.eta_t * plan.eta_inv % plan.root_mod == 1).all()


def test_ps_plan_built_once_per_depth_and_read_only(monkeypatch):
    engine = ps_engine(3, 10)  # n0 = 5, interior depths 6, 7 and 8
    assert_plans_built_once_per_depth(monkeypatch, engine, statphase.PsPlan)
    for plan in engine.depth_plans.values():
        assert len(plan_arrays(plan)) == 5


def unit_roots(p, t, b, c):
    """The unit lifts mod p^ceil(t/2) of the roots of x^2 + b x + c = 0 mod
    p^(t - ceil(t/2)), as the per-query solvers enumerate them."""
    k = (t + 1) // 2
    return [x for root in solve_quadratic_congruence(1, b, c, p, t - k)
            for x in _unit_lifts(root, t - k, k, p)]


@pytest.mark.parametrize("p,ramified,level", [
    (3, False, 3), (5, False, 3), (7, False, 3), (3, True, 6), (5, True, 6)])
def test_sc_plan_root_table_matches_congruence_solver(p, ramified, level):
    engine = sc_engine(p, ramified, level)
    for i in range(engine.spec.n0 + 1, engine.spec.n - 1):
        t = engine.spec.n - i
        plan = depth_plan(engine, t)
        assert plan.root_mod == p ** (t - (t + 1) // 2) and plan.pt == p**t
        assert len(plan.roots) == plan.root_mod
        for r in range(plan.root_mod):
            x = plan.roots[r][plan.root_ok[r]]
            assert x.tolist() == unit_roots(p, t, 0, r), (t, r)
            x_inv = plan.root_inv[r][plan.root_ok[r]]
            assert (x * x_inv % plan.pt == 1).all()


@pytest.mark.parametrize("p,n", [(3, 6), (3, 10), (5, 6), (5, 8), (7, 6)])
def test_ps_plan_root_table_matches_congruence_solver(p, n):
    engine = ps_engine(p, n)
    spec, pn0 = engine.spec, p ** engine.spec.n0
    kx = (spec.n0 + 1) // 2
    dx = p ** (spec.n0 - kx)
    w = statphase.alpha_of_chi(spec.mu).residue_unit(spec.n0 - kx)
    for i in range(spec.n0 + 1, spec.n - 1):
        t, shift = spec.n - i, p ** (i - spec.n0)
        plan = depth_plan(engine, t)
        du = plan.root_mod
        assert du == p ** (t - (t + 1) // 2) and plan.pt == p**t
        assert len(plan.roots) == du and plan.dx_mod == dx
        for r in range(du):
            u0 = plan.roots[r][plan.root_ok[r]]
            assert u0.tolist() == unit_roots(p, t, 2 * shift, -r), (t, r)
            # the per-query quadratic m u^2 + 2 shift m u - a, with r = a/m
            for m_res in (m for m in range(du) if m % p):
                a_res = r * m_res % du
                assert (sorted(solve_quadratic_congruence(
                    m_res, 2 * shift * m_res, -a_res, p, t - (t + 1) // 2))
                    == sorted(solve_quadratic_congruence(
                        1, 2 * shift, -r, p, t - (t + 1) // 2)))
            entries = plan.entries[r][plan.root_ok[r]]
            assert entries[:, 0].tolist() == u0.tolist()
            assert entries[:, 1].tolist() == [
                engine.mu_dense[(1 + pow(u, -1, pn0) * shift) % pn0]
                for u in u0.tolist()]
            assert entries[:, 2].tolist() == [shift * u % dx
                                              for u in u0.tolist()]
        for s in range(dx):
            lifts = plan.x_lifts[s][plan.x_ok[s]].tolist()
            assert lifts == (_unit_lifts(w * pow(s, -1, dx) % dx,
                                         spec.n0 - kx, kx, p)
                             if s % p else [])


def test_sc_plans_never_cross_engines():
    # engines alive in turn reuse object ids; each must read only its own
    # plan, at the same depth t = 2 for p = 3, 5 and 7
    for _ in range(2):
        for p in (3, 5, 7, 3):
            engine = sc_engine(p, False, 3)
            i = engine.spec.n - 2
            units = (1, 2, p + 1)
            pairs, scanned = depth_pairs(engine, i,
                                         np.array(units, dtype=np.int64))
            for k, a_res in enumerate(units):
                want, want_scanned, weight = sc_pairs_per_rep(
                    engine, i, a_res, 1)
                assert scanned[k] == want_scanned
                assert (Counter(map(tuple, pairs[pairs[:, 0] == k, 1:]
                                    .tolist())) == Counter(want))
                assert ball_volume(engine, i) == weight
            assert engine.depth_plans[2].pt == p * p
            del engine
            gc.collect()


def test_fast_value_route():
    engine = ps_engine(3, 6)
    a, madd = supported_grid(engine, 4, units=(1,))[0]
    assert abs(phi_fast_value(engine, 4, a, madd)
               - engine.phi_value(4, a, madd)) < 1e-12


# the (p, n, family) cases of the support and decay acceptance gates
ACCEPTANCE_ENGINES = {
    (p, n, family): (lambda p=p, n=n, family=family:
                     ps_engine(p, n) if family == "ps"
                     else sc_engine(p, False, n // 2) if family == "sc-unram"
                     else sc_engine(p, True, n - 1))
    for p in (3, 5)
    for family, sizes in (("ps", (6, 8)), ("sc-unram", (6,)),
                          ("sc-ram", (5, 7)))
    for n in sizes}


@pytest.mark.parametrize("case", ACCEPTANCE_ENGINES,
                         ids=lambda case: "-".join(map(str, case)))
def test_unit_twist_keys_match_the_unnormalised_average(case):
    # phi(i, a, p^-t mu) = phi(i, a mu^-1 mod p^w, p^-t): at every depth, for
    # one a and several units mu, the key of (a, p^-t mu) is (i, a mu^-1,
    # t), and its counts and values are those of the unit-by-unit average at
    # the unnormalised row (i, a, t, mu); the depth program's side of the
    # identity is assert_pairs_match_oracle.  t runs from 1 (t = 0 has no
    # twist) to w + 1: past it mu^-1 is read mod p^w alone, as at t = w + 1,
    # while the average runs over p^t units
    engine = ACCEPTANCE_ENGINES[case]()
    spec, p = engine.spec, engine.spec.p
    ctx = get_context(p, 2 * spec.n + 6)
    rng = random.Random(f"twist:{case}")
    c0, t_max = engine.c0_complex, padic_valuation(engine.m, p)
    for i in range(spec.n0 + 1, spec.n + 1):
        w = required_precision(spec, i)
        pw = p**w
        for t in range(1, min(t_max, w + 1) + 1):
            a = random_unit(p, spec.n + 2, rng)
            mus = [random_unit(p, spec.n + 2, rng) for _ in range(3)]
            raw = np.array([(i, a % pw, t, mu % p**t) for mu in mus])
            keys = np.array([engine.query_key(i, ctx.scalar(0, a),
                                              ctx.scalar(-t, mu))
                             for mu in mus])
            for key, (*_, mu_t) in zip(keys.tolist(), raw.tolist()):
                assert key == [i, a * pow(mu_t, -1, pw) % pw, t]
            block, norms = engine.key_counts(keys)
            values, _ = matcoef.key_values(engine, keys,
                                           engine.average_coords)
            for r, row in enumerate(raw.tolist()):
                counts, norm = unit_average_counts(engine, row)
                assert (block[r] == counts).all() and norms[r] == norm
                want = CycloValue.from_counts(engine.m, counts, norm)
                assert repr(values[r]) == repr(want.complex() / c0)


def test_depth_values_are_bitwise_the_per_query_values(monkeypatch):
    # the chunk loop is matcoef.key_values; the spy runs both count programs
    # (depth_coords and the unit average) 5 keys at a time, which puts
    # chunk boundaries inside the batches, sees each chunk and checks the
    # sparse form of its coordinates: ascending flat indices inside the
    # chunk's rows, nonzero coefficients
    chunks = []
    key_values = statphase.key_values

    def spy(engine, keys, coords_of, chunk=None):
        size = _basis(engine.m).size

        def counted(chunk):
            chunks.append(len(chunk))
            index, coeffs, scales = coords_of(chunk)
            assert (np.diff(index) > 0).all() and coeffs.all()
            assert not len(index) or 0 <= index[0] <= index[-1] < len(
                chunk) * size
            return index, coeffs, scales
        return key_values(engine, keys, counted, 5)

    monkeypatch.setattr(statphase, "key_values", spy)
    seen = Counter()
    for engine in (ps_engine(3, 8), sc_engine(3, True, 6),
                   sc_engine(5, False, 3)):
        spec, p = engine.spec, engine.spec.p
        ctx = get_context(p, spec.n + 4)
        units = [u for u in range(1, 3 * p) if u % p][:7]
        for i in range(spec.n0 + 1, spec.n + 1):
            # the supported grid, then three queries off the support, one
            # of them off the unit locus (no key)
            grid = supported_grid(engine, i, units) + [
                (ctx.scalar(1, 1), ctx.scalar(i - spec.n, 1)),
                (ctx.scalar(0, 1), ctx.scalar(i - spec.n - 1, 1)),
                (ctx.scalar(0, 2), ctx.zero())]
            want = {id(point): repr(phi_fast_value(engine, i, *point))
                    for point in grid}
            # each query alone is the one-row batch of its key, and a query
            # off the unit locus is the zero a batch gives a point without
            # a key
            for point in grid:
                key = engine.query_key(i, *point)
                one = (phi_fast_values(engine, i, np.array([key]))
                       if key else [engine.zero_value])
                assert [repr(v) for v in one] == [want[id(point)]], i
            no_pairs = [point for point in grid[:len(units) ** 2]
                        if i < spec.n - 1 and not len(
                            critical_pairs(engine, i, *point)[0])]
            for batch in (grid, grid[:1], no_pairs):
                on = [engine.query_key(i, *point) for point in batch]
                keys = np.array([key for key in on if key]).reshape(-1, 3)
                chunks.clear()
                got = phi_fast_values(engine, i, keys)
                assert [repr(v) for v in got] == [
                    want[id(point)] for point, key in zip(batch, on) if key], i
                assert chunks == [min(5, len(keys) - lo)
                                  for lo in range(0, len(keys), 5)]
                seen["two chunks"] += len(chunks) > 1
                seen["off locus"] += not all(on)
            seen["boundary" if i >= spec.n - 1 else "interior"] += 1
            seen["no-pair batch"] += bool(no_pairs)
            seen["some pairs"] += len(no_pairs) < len(units) ** 2
    assert min(seen.values()) > 0 and len(seen) == 6


# -- dispatch ----------------------------------------------------------------

def test_off_support_returns_exact_zero():
    engine = ps_engine(3, 6)
    ctx = get_context(3, 10)
    num, pairs = phi_fast_numerator(engine, 4, ctx.scalar(1, 1), ctx.scalar(-2, 1))
    assert pairs == 0 and num.is_zero()
    num, pairs = phi_fast_numerator(engine, 4, ctx.scalar(0, 1), ctx.scalar(-1, 1))
    assert pairs == 0 and num.is_zero()
    num, pairs = phi_fast_numerator(engine, 4, ctx.scalar(0, 1), ctx.zero())
    assert pairs == 0 and num.is_zero()
    # each of them is off the support by the key rule
    for a, madd in ((ctx.scalar(1, 1), ctx.scalar(-2, 1)),
                    (ctx.scalar(0, 1), ctx.scalar(-1, 1)),
                    (ctx.scalar(0, 1), ctx.zero())):
        with pytest.raises(ValueError, match="off the support"):
            critical_pairs(engine, 4, a, madd)


def test_boundary_depths_delegate():
    engine = ps_engine(3, 6)
    ctx = get_context(3, 10)
    for i in (5, 6):
        for madd in (ctx.zero(), ctx.scalar(-1, 1), ctx.scalar(0, 2)):
            fast, pairs = phi_fast_numerator(engine, i, ctx.scalar(0, 1), madd)
            assert pairs == 0
            assert fast.equals(engine.phi_numerator(i, ctx.scalar(0, 1), madd))
    # the unit average answered: no depth plan was built
    assert not engine.depth_plans


def test_fast_values_refuse_rows_of_another_depth():
    # the depth program reads a row's t and a, not its depth: a depth-5
    # key row, whose unit average is zero, must not be read at depth 4
    engine = ps_engine(3, 6)
    row = np.array([[5, 1, 2]])
    assert not len(engine.average_coords(row)[0])
    for i in (4, 6):
        with pytest.raises(ValueError, match="depth"):
            phi_fast_values(engine, i, row)
    with pytest.raises(ValueError, match="depth"):
        phi_fast_values(engine, 4, np.array([[4, 1, 2], [5, 1, 2]]))
    assert phi_fast_values(engine, 5, row) == [engine.zero_value]


def test_too_deep_additive_argument_raises_on_every_path():
    # t = 5 > n1 + 1 = 4: the key rule refuses m = 3^-5 on the one-query,
    # the grid column, the naive and the critical-pair paths alike
    engine = ps_engine(3, 6)
    ctx = get_context(3, 10)
    a, madd = ctx.scalar(0, 1), ctx.scalar(-5, 1)
    column = tuple(np.array([v]) for v in (0, 1, -5, 1))
    calls = (lambda: phi_fast_numerator(engine, 4, a, madd),
             lambda: engine.phi_numerator(4, a, madd),
             lambda: phi_fast_values(
                 engine, 4, grid_keys(engine, 4, column, 10)[0]),
             lambda: critical_pairs(engine, 4, a, madd))
    for call in calls:
        with pytest.raises(ValueError, match="too deep"):
            call()


def test_critical_pairs_validation():
    engine = ps_engine(3, 6)
    ctx = get_context(3, 10)
    with pytest.raises(ValueError):
        critical_pairs(engine, 5, ctx.scalar(0, 1), ctx.scalar(-1, 1))
    with pytest.raises(ValueError):
        critical_pairs(engine, 4, ctx.scalar(1, 1), ctx.scalar(-2, 1))


def test_critical_pair_phases_are_roots_of_unity():
    engine = sc_engine(3, True, 4)
    a, madd = supported_grid(engine, 3, units=(1,))[0]
    pairs, scanned = critical_pairs(engine, 3, a, madd)
    assert scanned >= len(pairs) > 0
    assert pairs.shape == (len(pairs), 4)
    for e in pairs[:, -1].tolist():
        phase = root_of_unity(engine.m, e)
        assert abs(abs(phase.complex()) - 1.0) < 1e-12
    naive = engine.phi_numerator(3, a, madd).complex()
    total = sum(root_of_unity(engine.m, e).complex()
                for e in pairs[:, -1].tolist()) * float(ball_volume(engine, 3))
    assert abs(total - naive) < 1e-9


# -- benchmark report --------------------------------------------------------

def test_speedup_report_consistency():
    engine = ps_engine(3, 6)
    grid = supported_grid(engine, 4)
    report = speedup_report(engine.spec, 4, grid)
    assert len(report["rows"]) == len(grid)
    summary = report["summary"]
    assert summary["max_deviation"] < 1e-9
    assert summary["max_pairs"] <= summary["pair_bound"]
    assert summary["naive_s"] > 0 and summary["fast_s"] > 0
    row = report["rows"][0]
    assert row["naive_terms"] == naive_term_count(engine, 4, grid[0][1].val)
    assert row["fast_pairs"] <= summary["pair_bound"]
