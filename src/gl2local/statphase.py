"""Fast coefficient evaluation by exact block decomposition of the average.

The unit average defining phi(i, a, m) is cut into multiplicative blocks of
half precision.  On each block the integrand is a character of the block,
and the block sum vanishes unless explicit integer congruences hold, so the
whole average collapses to a short sum over surviving block representatives
("critical pairs") times one rational ball volume.  Every expansion step is
an identity at the stated moduli, so the result matches the plain average
exactly, not merely to rounding.

A supercuspidal query splits into work that depends only on the engine and
the depth t = n - i, and work that depends on (a, m).  The first is an
ScPlan, built once per (engine, t) and kept on the engine: the kept shell
rows with their eta residues, the rows grouped by eta class, a root table
over Z/p^(t-ceil(t/2)) giving every residue's unit square roots of its
negative (with their inverses), and the ball volume.  A query then only
inverts a, forms two row arrays and looks its roots up class by class.

Boundary depths i in {n-1, n} keep the plain evaluator (the block analysis
assumes i < n-1); queries off the support return exact zero.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

from .characters import alpha_of_chi, alpha_of_theta
from .cyclotomic import CycloValue
from .matcoef import MatCoefEngine, decay_bound, support_expected_zero
from .residue import PAdicScalar, solve_quadratic_congruence


def _unit_lifts(base: int, step_exp: int, target_exp: int, p: int) -> list[int]:
    """Unit residues mod p^target_exp reducing to base mod p^step_exp."""
    step, count = p**step_exp, p ** (target_exp - step_exp)
    return [x for x in (base % step + j * step for j in range(count))
            if x % p]


def _shell_level(theta) -> int:
    """Transversal level of the supercuspidal inner block: ceil(a/2), a/2
    when ramified."""
    return theta.level // 2 if theta.ramified else (theta.level + 1) // 2


def ball_volume(engine: MatCoefEngine, i: int) -> Fraction:
    """The weight every critical pair of a depth-i query carries: the
    normalized volume of one outer block times one inner block (for a
    supercuspidal, the one held by the depth's plan)."""
    spec, p = engine.spec, engine.spec.p
    if spec.family == "sc":
        return sc_plan(engine, spec.n - i).volume
    outer = Fraction(p, p - 1) / p ** ((spec.n - i + 1) // 2)
    return outer / p ** ((spec.n0 + 1) // 2)


def _ps_pairs(engine: MatCoefEngine, i: int, a_res: int, m_res: int
              ) -> tuple[np.ndarray, int]:
    """Survivors for a principal-series query on the supported locus,
    enumerated at block levels ceil(n0/2), ceil(t/2): rows (x0, u0, phase)
    and the scanned candidate count.  Each x0 is lifted from the solution
    of the linear outer congruence, so only the inner one is tested."""
    spec, m_mod = engine.spec, engine.m
    p, n0 = spec.p, spec.n0
    t = spec.n - i
    kx = (n0 + 1) // 2
    ku = (t + 1) // 2
    dx_mod = p ** (n0 - kx)
    du_mod = p ** (t - ku)
    shift = p ** (i - n0)
    w = alpha_of_chi(spec.mu).residue_unit(n0 - kx)
    pn0, pt = p**n0, p**t
    mu = engine.mu_dense
    # (du) with (dx) substituted: unit-discriminant quadratic in u0
    base_roots = solve_quadratic_congruence(
        m_res, 2 * shift * m_res, -a_res, p, t - ku)
    u_cands = [u for r in base_roots for u in _unit_lifts(r, t - ku, ku, p)]
    scanned = 0
    rows = []
    for u0 in u_cands:
        mu_u = mu[(1 + pow(u0, -1, pn0) * shift) % pn0]
        slope = (a_res - shift * m_res * u0) % dx_mod
        for x0 in _unit_lifts(w * pow(slope, -1, dx_mod) % dx_mod,
                              n0 - kx, kx, p):
            scanned += 1
            if (m_res * x0 * u0 * (u0 + shift) - w) % du_mod:
                continue
            # psi(p^-t m x0 u0) mu(1 + shift/u0) mu(a x0) psi(-p^-n0 a x0)
            e = (m_res * x0 * u0 % pt * (m_mod // pt) + mu_u
                 + mu[a_res * x0 % pn0]
                 + -a_res * x0 % pn0 * (m_mod // pn0)) % m_mod
            rows.append((x0, u0, int(e)))
    return np.array(rows, dtype=np.int64).reshape(-1, 3), scanned


class ScPlan:
    """The part of a supercuspidal query at depth t = n - i that does not
    depend on (a, m), built once per engine and t by sc_plan.  Arrays are
    read-only; the row arrays are indexed by kept shell row.

    Kept rows are the shell rows whose phase-linearization coordinate
    matches alpha.  The outer congruence x0^2 = -a m / eta reads eta only
    mod dx_mod = p^(t-ceil(t/2)), so the kept rows are grouped by that class
    (ascending, rows ascending within a class) with eta_c^-1 mod dx_mod, and
    roots[r] holds the unit solutions x mod p^t of x^2 + r = 0 mod dx_mod
    for every residue r, with x mod sc2_mod and x^-1 mod p^t beside them."""

    __slots__ = ("pt", "dx_mod", "sc2_mod", "nu_scale", "scale", "A", "B",
                 "phase", "eta_t", "eta_sc2", "coord", "classes", "roots",
                 "volume")

    def __init__(self, engine: MatCoefEngine, t: int):
        p, theta = engine.spec.p, engine.spec.theta
        a_cond = theta.level
        kx = (t + 1) // 2
        self.pt = pt = p**t
        self.dx_mod = dx_mod = p ** (t - kx)
        level = _shell_level(theta)
        alpha = alpha_of_theta(theta)
        if theta.ramified:
            # component bounds of the inner ball p_E^level over o: a-part
            # ceil(level/2), b-part ceil((level-1)/2)
            sc2_mod = p ** (level - (level + 1) // 2)
            sc3_mod = p ** (level - level // 2)
            w = alpha.b.residue_unit((level + 1) // 2) % sc3_mod
            self.nu_scale = p ** (level - t)
        else:
            sc2_mod = sc3_mod = p ** (a_cond - level)
            w = (alpha.b.residue_unit(a_cond // 2) % sc3_mod
                 if sc3_mod > 1 else 0)
            self.nu_scale = p ** (a_cond - t)
        self.sc2_mod = sc2_mod
        self.scale = engine.m // pt
        A, B, phase, eta = engine.shell_table(level)
        self.volume = Fraction(p, p - 1) / p**kx / len(A)
        # the phase-linearization coordinate must match alpha
        keep = np.flatnonzero((A if theta.ramified else B) % sc3_mod == w)
        self.A, self.B, self.phase = A[keep], B[keep], phase[keep]
        # eta reduced mod p^t keeps every product of a query in int64
        self.eta_t = eta[keep] % pt
        self.eta_sc2 = self.eta_t % sc2_mod
        # the coupled condition reads this coordinate mod sc2_mod
        self.coord = (self.B if theta.ramified else self.A) % sc2_mod
        classes, cls = np.unique(self.eta_t % dx_mod, return_inverse=True)
        self.classes = [(pow(eta_c, -1, dx_mod), np.flatnonzero(cls == c))
                        for c, eta_c in enumerate(classes.tolist())]
        self.roots = []
        for r in range(dx_mod):
            x = [v for root in solve_quadratic_congruence(1, 0, r, p, t - kx)
                 for v in _unit_lifts(root, t - kx, kx, p)]
            x_arr = np.array(x, dtype=np.int64)
            self.roots.append((x_arr, x_arr % sc2_mod, np.array(
                [pow(v, -1, pt) for v in x], dtype=np.int64)))
        for arr in (self.A, self.B, self.phase, self.eta_t, self.eta_sc2,
                    self.coord, *(rows for _, rows in self.classes),
                    *(arr for entry in self.roots for arr in entry)):
            arr.flags.writeable = False


def sc_plan(engine: MatCoefEngine, t: int) -> ScPlan:
    """The engine's supercuspidal plan at depth t = n - i, built on first
    use and kept on the engine (so it dies with the engine)."""
    plan = engine.sc_plans.get(t)
    if plan is None:
        plan = engine.sc_plans[t] = ScPlan(engine, t)
    return plan


def _sc_pairs(engine: MatCoefEngine, i: int, a_res: int, m_res: int
              ) -> tuple[np.ndarray, int]:
    """Survivors for a supercuspidal query on the supported locus: rows
    (x0, A, B, phase) and the scanned candidate count.  The inner block runs
    over the kept rows of the engine's shell table at transversal level
    _shell_level, read from the depth's ScPlan.

    A query only computes a^-1 and the two a-dependent row arrays: the
    coupled-condition slope and the psi coefficient lin.  For each eta class
    the solutions of x0^2 + a m eta_c^-1 = 0 are one lookup in the plan's
    root table, and all of them satisfy the outer congruence; the coupled
    and phase conditions then run on class rows x candidate arrays."""
    plan = sc_plan(engine, engine.spec.n - i)
    pt, sc2_mod, m_mod = plan.pt, plan.sc2_mod, engine.m
    a_inv = pow(a_res, -1, pt)
    # the coupled condition, coordinate = nu_scale x0 a^-1 eta mod sc2_mod;
    # when the shear depth satisfies e_E(i-n) >= -ceil(a/2) the nu_scale
    # power swamps the modulus and it degenerates to the x0-free condition
    # "trace coordinate = 0"
    slope = plan.nu_scale * a_inv % sc2_mod * plan.eta_sc2 % sc2_mod
    # psi(p^-t (-x0 a^-1 eta)) = zeta_m^(x0 * lin mod p^t * m/p^t)
    lin = -a_inv * plan.eta_t % pt
    am = a_res * m_res
    scanned = 0
    blocks = [np.empty((0, 4), dtype=np.int64)]
    for eta_c_inv, rows in plan.classes:
        # x0^2 = -a m / eta, written as x0^2 + (a m / eta) = 0
        x, x_sc2, x_inv = plan.roots[am * eta_c_inv % plan.dx_mod]
        scanned += len(rows) * len(x)
        if not len(x):
            continue
        ok = (plan.coord[rows, None] - slope[rows, None] * x_sc2) \
            % sc2_mod == 0
        r_idx, x_idx = np.nonzero(ok)
        if not len(r_idx):
            continue
        rows = rows[r_idx]
        x0 = x[x_idx]
        # psi(p^-t m / x0) psi(p^-t x0 lin) theta^-1 psi_E(shell row)
        e = ((m_res * x_inv[x_idx] + x0 * lin[rows]) % pt * plan.scale
             + plan.phase[rows]) % m_mod
        blocks.append(np.column_stack((x0, plan.A[rows], plan.B[rows], e)))
    return np.concatenate(blocks), scanned


def _off_support(spec, i: int, a: PAdicScalar, madd: PAdicScalar) -> bool:
    return support_expected_zero(spec, i, None if a.is_zero else a.val,
                                 None if madd.is_zero else madd.val)


def critical_pairs(engine: MatCoefEngine, i: int, a: PAdicScalar,
                   madd: PAdicScalar) -> tuple[np.ndarray, int]:
    """Critical pairs of a supported interior query and the scanned
    candidate count.  Pairs are int64 rows, (x0, u0, phase) for principal
    series and (x0, A, B, phase) for supercuspidals, with the phase in Z/m
    last; every row carries the weight ball_volume(engine, i).  Raises off
    the fast range or off support (callers dispatch those cases)."""
    spec = engine.spec
    if not spec.n0 < i < spec.n - 1:
        raise ValueError("block decomposition applies to n0 < i < n-1 only")
    if _off_support(spec, i, a, madd):
        raise ValueError("query off the support locus")
    t = spec.n - i
    m_res = madd.residue_unit(t)
    if spec.family == "ps":
        return _ps_pairs(engine, i, a.residue_unit(spec.n0), m_res)
    return _sc_pairs(engine, i, a.residue_unit(t), m_res)


def phi_fast_numerator(engine: MatCoefEngine, i: int, a: PAdicScalar,
                       madd: PAdicScalar) -> tuple[CycloValue, dict]:
    """Fast phi numerator plus diagnostics (pair/scan counts, dispatch).

    Same normalization as MatCoefEngine.phi_numerator: divide by C0 for the
    actual coefficient value.
    """
    spec = engine.spec
    if not spec.n0 < i <= spec.n:
        raise ValueError(f"shear depth {i} outside (n0, n] for {spec}")
    diag = {"pairs": 0, "scanned": 0, "delegated": False,
            "off_support": False}
    if i >= spec.n - 1:
        diag["delegated"] = True
        return engine.phi_numerator(i, a, madd), diag
    if _off_support(spec, i, a, madd):
        diag["off_support"] = True
        return CycloValue.zero(engine.m), diag
    pairs, scanned = critical_pairs(engine, i, a, madd)
    diag["pairs"], diag["scanned"] = len(pairs), scanned
    if not len(pairs):
        return CycloValue.zero(engine.m), diag
    counts = np.bincount(pairs[:, -1], minlength=engine.m)
    return CycloValue.from_counts(engine.m, counts,
                                  ball_volume(engine, i)), diag


def phi_fast_value(engine: MatCoefEngine, i: int, a: PAdicScalar,
                   madd: PAdicScalar) -> complex:
    num, _ = phi_fast_numerator(engine, i, a, madd)
    return num.complex() / engine.c0_complex


def naive_term_count(engine: MatCoefEngine, i: int, v_m: int) -> int:
    """Nominal inner-times-outer term count of the plain average."""
    spec = engine.spec
    k = max(spec.n0, spec.n - i, -v_m) + 1
    return ((spec.p - 1) * spec.p ** (k - 1)) * engine.term_count()


def speedup_report(spec, i: int, grid) -> dict:
    """Single-threaded timing table: cold plain evaluation (fresh engine and
    caches per query) against the block evaluator, with exact deviations.
    Returns {"rows": [...], "summary": {...}}."""
    shared = MatCoefEngine(spec)
    c0 = shared.c0_complex
    rows = []
    total_naive = total_fast = 0.0
    max_dev = 0.0
    max_pairs = 0
    for a, madd in grid:
        t0 = time.perf_counter()
        cold = MatCoefEngine(spec)
        naive_num = cold.phi_numerator(i, a, madd, grouped=False,
                                       cache_w=False)
        t1 = time.perf_counter()
        fast_num, diag = phi_fast_numerator(shared, i, a, madd)
        t2 = time.perf_counter()
        naive_val = naive_num.complex() / c0
        fast_val = fast_num.complex() / c0
        dev = abs(fast_val - naive_val)
        if abs(naive_val) > 1e-12:
            dev /= abs(naive_val)
        total_naive += t1 - t0
        total_fast += t2 - t1
        max_dev = max(max_dev, dev)
        max_pairs = max(max_pairs, diag["pairs"])
        rows.append({
            "p": spec.p, "n": spec.n, "family": spec.label, "i": i,
            "v_a": a.val, "a_unit": a.unit, "v_m": madd.val,
            "m_unit": madd.unit, "naive_s": t1 - t0, "fast_s": t2 - t1,
            "naive_terms": naive_term_count(shared, i, madd.val),
            "fast_pairs": diag["pairs"], "deviation": dev,
        })
    return {"rows": rows, "summary": {
        "p": spec.p, "n": spec.n, "family": spec.label, "i": i,
        "queries": len(rows), "naive_s": total_naive, "fast_s": total_fast,
        "speedup": total_naive / total_fast if total_fast else float("inf"),
        "max_deviation": max_dev, "max_pairs": max_pairs,
        "pair_bound": decay_bound(spec),
    }}
