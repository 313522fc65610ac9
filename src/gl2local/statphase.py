"""Fast coefficient evaluation by exact block decomposition of the average.

The unit average defining phi(i, a, m) is cut into multiplicative blocks of
half precision.  On each block the integrand is a character of the block,
and the block sum vanishes unless explicit integer congruences hold, so the
whole average collapses to a short sum over surviving block representatives
("critical pairs") times one rational ball volume.  Every expansion step is
an identity at the stated moduli, so the result matches the plain average
exactly, not merely to rounding.

Boundary depths i in {n-1, n} keep the plain evaluator (the block analysis
assumes i < n-1); queries off the support return exact zero.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .characters import alpha_of_chi, alpha_of_theta, psi_exponent_scaled
from .cyclotomic import CycloValue
from .matcoef import MatCoefEngine, decay_bound
from .residue import PAdicScalar


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """Tonelli-Shanks square root of a mod an odd prime; None for
    non-residues."""
    if p == 2:
        raise ValueError("p must be odd")
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # p = 1 mod 4: walk the 2-Sylow subgroup
    s, q = 0, p - 1
    while q % 2 == 0:
        s, q = s + 1, q // 2
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def solve_quadratic_congruence(a: int, b: int, c: int, p: int,
                               modulus_exp: int) -> list[int]:
    """All residues x mod p^modulus_exp with a x^2 + b x + c = 0; p odd.

    Base roots mod p come from the discriminant square root; lifting splits
    or dies when the derivative degenerates, so degenerate inputs are fine.
    """
    if p == 2:
        raise ValueError("p must be odd")
    if modulus_exp <= 0:
        return [0]
    if a % p:
        disc = (b * b - 4 * a * c) % p
        root = sqrt_mod_prime(disc, p)
        if root is None:
            base = []
        else:
            inv = pow(2 * a, -1, p)
            base = sorted({(-b + root) * inv % p, (-b - root) * inv % p})
    elif b % p:
        base = [-c * pow(b, -1, p) % p]
    else:
        base = list(range(p)) if c % p == 0 else []
    roots = base
    for j in range(1, modulus_exp):
        mod_next = p ** (j + 1)
        lifted = []
        for r in roots:
            val = (a * r * r + b * r + c) % mod_next
            deriv = (2 * a * r + b) % p
            if deriv:
                lifted.append((r - val * pow(2 * a * r + b, -1, mod_next))
                              % mod_next)
            elif val == 0:
                lifted.extend(r + t * p**j for t in range(p))
        roots = lifted
    return sorted(roots)


@dataclass
class CriticalPair:
    """One surviving block representative: the outer unit residue, the inner
    representative (unit residue or extension coordinate pair), the phase as
    a root-of-unity exponent at the working modulus, and the shared ball
    volume."""

    x0: int
    u0: int | tuple[int, int]
    phase_exponent: int
    weight: Fraction


def _unit_lifts(base: int, step_exp: int, target_exp: int, p: int) -> list[int]:
    """Unit residues mod p^target_exp reducing to base mod p^step_exp."""
    step, count = p**step_exp, p ** (target_exp - step_exp)
    return [x for x in (base % step + j * step for j in range(count))
            if x % p]


def _ps_pairs(engine: MatCoefEngine, i: int, a_res: int, m_res: int
              ) -> tuple[list[CriticalPair], int]:
    """Survivors for a principal-series query on the supported locus,
    enumerated at block levels ceil(n0/2), ceil(t/2).
    Returns (pairs, scanned candidate count)."""
    spec, m_mod = engine.spec, engine.m
    p, n0, mu = spec.p, spec.n0, spec.mu
    t = spec.n - i
    kx = (n0 + 1) // 2
    ku = (t + 1) // 2
    dx_mod = p ** (n0 - kx)
    du_mod = p ** (t - ku)
    shift = p ** (i - n0)
    alpha = alpha_of_chi(mu)
    w = alpha.residue_unit(n0 - kx) if n0 > kx else 0
    pn0 = p**n0
    weight = Fraction(p, p - 1) / p ** (kx + ku)
    # (du) with (dx) substituted: unit-discriminant quadratic in u0
    base_roots = solve_quadratic_congruence(
        m_res, 2 * shift * m_res, -a_res, p, t - ku)
    u_cands = [u for r in base_roots for u in _unit_lifts(r, t - ku, ku, p)]
    scanned = 0
    pairs = []
    for u0 in u_cands:
        slope = (a_res - shift * m_res * u0) % dx_mod
        for x0 in _unit_lifts(w * pow(slope, -1, dx_mod) % dx_mod,
                              n0 - kx, kx, p):
            scanned += 1
            if (x0 * (a_res - shift * m_res * u0) - w) % dx_mod:
                continue
            if (m_res * x0 * u0 * (u0 + shift) - w) % du_mod:
                continue
            e = (psi_exponent_scaled(p, t, m_res * x0 * u0, m_mod)
                 + mu.eval_exponent((1 + pow(u0, -1, pn0) * shift) % pn0, m_mod)
                 + mu.eval_exponent(a_res * x0 % pn0, m_mod)
                 + psi_exponent_scaled(p, n0, -a_res * x0, m_mod)) % m_mod
            pairs.append(CriticalPair(x0, u0, e, weight))
    return pairs, scanned


def _sc_pairs(engine: MatCoefEngine, i: int, a_res: int, m_res: int
              ) -> tuple[list[CriticalPair], int]:
    """Survivors for a supercuspidal query on the supported locus.  The
    inner block runs over the engine's shell table at transversal level
    ceil(a/2) (a/2 when ramified).

    A kept shell row enters the outer congruence x0^2 = -a m / eta only
    through eta mod p^(t-ceil(t/2)), so rows are grouped by that class: one
    solve and one candidate lift per class, then the quadratic, coupled and
    phase conditions on row x candidate arrays."""
    spec, m_mod = engine.spec, engine.m
    p, theta = spec.p, spec.theta
    a_cond, t = theta.level, spec.n - i
    kx = (t + 1) // 2
    dx_mod = p ** (t - kx)
    pt = p**t
    a_inv = pow(a_res, -1, pt)
    alpha = alpha_of_theta(theta)
    if theta.ramified:
        level = h = a_cond // 2
        # component bounds of the inner ball p_E^level over o: a-part
        # ceil(level/2), b-part ceil((level-1)/2)
        sc2_mod = p ** (h - (level + 1) // 2)
        sc3_mod = p ** (h - level // 2)
        w = alpha.b.residue_unit((h + 1) // 2) % sc3_mod
        nu_scale = p ** (h - t)
    else:
        level = (a_cond + 1) // 2
        sc2_mod = sc3_mod = p ** (a_cond - level)
        w = alpha.b.residue_unit(a_cond // 2) % sc3_mod if sc3_mod > 1 else 0
        nu_scale = p ** (a_cond - t)
    A, B, phase, eta = engine.weng.shell_table(level)
    # the phase-linearization coordinate must match alpha
    keep = np.flatnonzero((A if theta.ramified else B) % sc3_mod == w)
    weight = Fraction(p, p - 1) / p**kx / len(A)
    # eta reduced mod p^t keeps every product below in int64
    eta_t = eta[keep] % pt
    # the coupled condition, coordinate = nu_scale x0 a^-1 eta mod sc2_mod;
    # when the shear depth satisfies e_E(i-n) >= -ceil(a/2) the nu_scale
    # power swamps the modulus and it degenerates to the x0-free condition
    # "trace coordinate = 0"
    coord = (B if theta.ramified else A)[keep] % sc2_mod
    slope = nu_scale * a_inv % sc2_mod * (eta_t % sc2_mod) % sc2_mod
    # psi(p^-t (-x0 a^-1 eta)) = zeta_m^(x0 * lin mod p^t * m/p^t)
    lin = -a_inv * eta_t % pt
    scale = m_mod // pt
    classes, cls = np.unique(eta_t % dx_mod, return_inverse=True)
    scanned = 0
    pairs = []
    for c, eta_c in enumerate(classes.tolist()):
        # x0^2 = -a m / eta, written as x0^2 + (a m / eta) = 0
        const = a_res * m_res * pow(eta_c, -1, dx_mod)
        x_list = [x for r in solve_quadratic_congruence(1, 0, const, p, t - kx)
                  for x in _unit_lifts(r, t - kx, kx, p)]
        rows = np.flatnonzero(cls == c)
        scanned += len(rows) * len(x_list)
        if not x_list:
            continue
        x = np.array(x_list, dtype=np.int64)
        kept = (x * x % dx_mod * eta_c + m_res * a_res) % dx_mod == 0
        ok = kept & ((coord[rows, None] - slope[rows, None] * (x % sc2_mod))
                     % sc2_mod == 0)
        r_idx, x_idx = np.nonzero(ok)
        if not len(r_idx):
            continue
        rows = rows[r_idx]
        shell = keep[rows]
        m_over_x = np.array([m_res * pow(v, -1, pt) % pt for v in x_list],
                            dtype=np.int64)
        e = ((m_over_x[x_idx] + x[x_idx] * lin[rows]) % pt * scale
             + phase[shell]) % m_mod
        pairs.extend(CriticalPair(x0, (a_j, b_j), e_j, weight)
                     for x0, a_j, b_j, e_j in zip(
                         x[x_idx].tolist(), A[shell].tolist(),
                         B[shell].tolist(), e.tolist()))
    return pairs, scanned


def critical_pairs(engine: MatCoefEngine, i: int, a: PAdicScalar,
                   madd: PAdicScalar) -> tuple[list[CriticalPair], int]:
    """Critical pairs of a supported interior query; raises off the fast
    range or off support (callers dispatch those cases)."""
    spec = engine.spec
    if not spec.n0 < i < spec.n - 1:
        raise ValueError("block decomposition applies to n0 < i < n-1 only")
    if a.is_zero or a.val != 0 or madd.is_zero or madd.val != i - spec.n:
        raise ValueError("query off the support locus")
    t = spec.n - i
    need = spec.n0 if spec.family == "ps" else t
    a_res = a.residue_unit(need)
    m_res = madd.residue_unit(t)
    if spec.family == "ps":
        return _ps_pairs(engine, i, a_res, m_res)
    return _sc_pairs(engine, i, a_res, m_res)


def phi_fast_numerator(engine: MatCoefEngine, i: int, a: PAdicScalar,
                       madd: PAdicScalar) -> tuple[CycloValue, dict]:
    """Fast phi numerator plus diagnostics (pair/scan counts, dispatch).

    Same normalization as MatCoefEngine.phi_numerator: divide by C0 for the
    actual coefficient value.
    """
    spec = engine.spec
    if not spec.n0 < i <= spec.n:
        raise ValueError(f"shear depth {i} outside (n0, n] for {spec}")
    diag = {"i": i, "pairs": 0, "scanned": 0, "delegated": False,
            "off_support": False}
    if i >= spec.n - 1:
        diag["delegated"] = True
        return engine.phi_numerator(i, a, madd), diag
    v_a = None if a.is_zero else a.val
    v_m = None if madd.is_zero else madd.val
    if v_a != 0 or v_m != i - spec.n:
        diag["off_support"] = True
        return CycloValue.zero(engine.m), diag
    pairs, scanned = critical_pairs(engine, i, a, madd)
    diag["pairs"], diag["scanned"] = len(pairs), scanned
    if not pairs:
        return CycloValue.zero(engine.m), diag
    counts = np.bincount(np.array([pair.phase_exponent for pair in pairs],
                                  dtype=np.int64), minlength=engine.m)
    return CycloValue.from_counts(engine.m, counts, pairs[0].weight), diag


def phi_fast_value(engine: MatCoefEngine, i: int, a: PAdicScalar,
                   madd: PAdicScalar) -> complex:
    num, _ = phi_fast_numerator(engine, i, a, madd)
    return num.complex() / engine.c0_complex


def naive_term_count(engine: MatCoefEngine, i: int, v_m: int) -> int:
    """Nominal inner-times-outer term count of the plain average."""
    spec = engine.spec
    k = max(spec.n0, spec.n - i, -v_m) + 1
    return ((spec.p - 1) * spec.p ** (k - 1)) * engine.weng.term_count()


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
