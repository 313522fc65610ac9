"""Fast coefficient evaluation by exact block decomposition of the average.

The unit average defining phi(i, a, m) is cut into multiplicative blocks of
half precision.  On each block the integrand is a character of the block,
and the block sum vanishes unless explicit integer congruences hold, so the
whole average collapses to a short sum over surviving block representatives
("critical pairs") times one rational ball volume.  Every expansion step is
an identity at the stated moduli, so the result matches the plain average
exactly, not merely to rounding.

The analysis depends only on the engine and the depth t = n - i; a query
only picks residues.  So each family has a plan per depth (PsPlan, ScPlan),
built once per (engine, t) by depth_plan, the one place the family is
chosen, and kept on the engine: a root table over Z/p^(t-ceil(t/2)) for the
quadratic inner or outer congruence, the inverse tables a query needs, the
family's fixed rows, the ball volume, and the family's pair program.
Keys (matcoef key_rows) have m = p^-t, so depth_pairs hands the key
residues a of many queries to the plan's pairs, which returns all their
critical pairs, int64 rows with a query column.  depth_coords sums them
into coordinate rows: it is the depth count program of matcoef.key_values,
run by phi_fast_values on many key rows and by phi_fast_numerator on the
one row of a query (query_key), which the speedup criterion times;
critical_pairs is depth_pairs of one query.
Depths outside interior_depths, the boundary i in {n-1, n}, take the
unit-average count program; keys off the support (t != n - i) are zero.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np

from .characters import alpha_of_chi, alpha_of_theta
from .cyclotomic import CycloValue, _basis
from .matcoef import MatCoefEngine, decay_bound, key_values, point_row
from .residue import PAdicScalar, solve_quadratic_congruence, unit_inverses
from .whittaker import ReprSpec, check_depth


def _unit_lifts(base: int, step_exp: int, target_exp: int, p: int) -> list[int]:
    """Unit residues mod p^target_exp reducing to base mod p^step_exp."""
    step, count = p**step_exp, p ** (target_exp - step_exp)
    return [x for x in (base % step + j * step for j in range(count))
            if x % p]


def _shell_level(theta) -> int:
    """Transversal level of the supercuspidal inner block: ceil(a/2), a/2
    when ramified."""
    return theta.level // 2 if theta.ramified else (theta.level + 1) // 2


def _padded(lists: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Integer lists as one zero-padded int64 table and the mask of its
    entries."""
    width = max(max(map(len, lists), default=0), 1)
    table = np.zeros((len(lists), width), dtype=np.int64)
    for r, x in enumerate(lists):
        table[r, :len(x)] = x
    return table, np.arange(width) < np.array([[len(x)] for x in lists])


def _root_table(p: int, t: int, b: int, sign: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """For every r mod p^(t-k), k = ceil(t/2): the unit residues mod p^k
    reducing to a root of x^2 + b x + sign r = 0 mod p^(t-k), padded."""
    k = (t + 1) // 2
    return _padded([[x for root in solve_quadratic_congruence(
        1, b, sign * r, p, t - k) for x in _unit_lifts(root, t - k, k, p)]
        for r in range(p ** (t - k))])


class DepthPlan:
    """What every query of one depth t = n - i shares, built once per engine
    and t by depth_plan; arrays are read-only.  With k = ceil(t/2) the inner
    block level, roots[r][root_ok[r]] are the unit residues mod p^k that
    solve x^2 + b x + sign r = 0 at the residue r mod root_mod = p^(t-k), and
    volume, p/(p-1) p^-k over the family's other block, is the weight of
    every critical pair.  A plan's pairs(engine, a_res) is depth_pairs."""

    __slots__ = ("t", "pt", "root_exp", "root_mod", "roots", "root_ok",
                 "volume")

    def __init__(self, p: int, t: int, b: int, sign: int):
        self.t = t
        self.pt = p**t
        self.root_exp = t - (t + 1) // 2
        self.root_mod = p**self.root_exp
        self.roots, self.root_ok = _root_table(p, t, b, sign)
        self.volume = Fraction(p, p - 1) / p ** ((t + 1) // 2)

    def _freeze(self) -> None:
        for cls in type(self).__mro__:
            for name in vars(cls).get("__slots__", ()):
                value = getattr(self, name)
                if isinstance(value, np.ndarray):
                    value.flags.writeable = False


class PsPlan(DepthPlan):
    """Principal-series plan, block levels kx = ceil(n0/2) and k.  At the
    key's m = p^-t the inner congruence is u^2 + 2 shift u - a = 0, so its
    roots u0 are roots[a mod root_mod].  Beside each root, entries holds
    (u0, mu(1 + shift/u0), shift u0 mod dx_mod).  The outer congruence x0
    (a - shift u0) = w mod dx_mod = p^(n0-kx) is solved by the slope table:
    x_lifts[s][x_ok[s]] are the unit lifts mod p^kx of w s^-1 for the slope
    s."""

    __slots__ = ("dx_mod", "entries", "x_lifts", "x_ok")

    def __init__(self, engine: MatCoefEngine, t: int):
        spec, p = engine.spec, engine.spec.p
        n0 = spec.n0
        kx = (n0 + 1) // 2
        pn0 = p**n0
        shift = p ** (spec.n - t - n0)
        super().__init__(p, t, 2 * shift, -1)
        self.dx_mod = dx = p ** (n0 - kx)
        w = alpha_of_chi(spec.mu).residue_unit(n0 - kx)
        self.volume /= p**kx
        u0 = self.roots
        u0_inv = unit_inverses(u0, p, n0)
        self.entries = np.stack((
            u0, engine.mu_dense[(1 + u0_inv * (shift % pn0)) % pn0],
            shift % dx * u0 % dx), axis=-1)
        self.x_lifts, self.x_ok = _padded([
            _unit_lifts(w * pow(s, -1, dx) % dx, n0 - kx, kx, p)
            if math.gcd(s, dx) == 1 else [] for s in range(dx)])
        self._freeze()

    def pairs(self, engine: MatCoefEngine, a_res: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
        """depth_pairs for principal series, block levels ceil(n0/2) and
        ceil(t/2)."""
        m_mod, mu, pt = engine.m, engine.mu_dense, self.pt
        du, pn0 = self.root_mod, engine.spec.p**engine.spec.n0
        # u0 runs over the roots at a mod du, x0 over the lifts of the
        # solution of the outer congruence; du divides dx (t < n0 = n/2), so
        # the inner congruence x0 u0 (u0 + shift) = x0 (a - shift u0) = w
        # then holds mod du as well, and every candidate is a pair
        c = a_res % du
        q, j = self.root_ok[c].nonzero()
        if not len(q):
            return np.empty((0, 4), dtype=np.int64), np.zeros_like(a_res)
        u0, mu_u, shift_u0 = self.entries[c[q], j].T
        slope = (a_res[q] - shift_u0) % self.dx_mod
        k, j = self.x_ok[slope].nonzero()
        q, u0, mu_u = q[k], u0[k], mu_u[k]
        x0 = self.x_lifts[slope[k], j]
        ax = a_res[q] * x0
        # psi(p^-t x0 u0) mu(1 + shift/u0) mu(a x0) psi(-p^-n0 a x0)
        e = (x0 % pt * u0 % pt * (m_mod // pt) + mu_u + mu[ax % pn0]
             + -ax % pn0 * (m_mod // pn0)) % m_mod
        return (np.array((q, x0, u0, e)).T,
                np.bincount(q, minlength=len(a_res)))


class ScPlan(DepthPlan):
    """Supercuspidal plan.  Kept rows are the shell rows (at transversal
    level _shell_level) whose phase-linearization coordinate matches alpha;
    the row arrays are indexed by kept row.  At the key's m = p^-t the
    outer congruence x0^2 = -a / eta reads eta only mod root_mod, so eta_inv
    holds each row's eta^-1 there and the candidates x0 of a (query, row)
    are roots[a eta^-1].  root_inv holds each root's inverse mod p^t; nu is
    the coupled-condition scale mod sc2_mod."""

    __slots__ = ("sc2_mod", "nu", "A", "B", "phase", "eta_t", "eta_sc2",
                 "coord", "eta_inv", "root_inv")

    def __init__(self, engine: MatCoefEngine, t: int):
        p, theta = engine.spec.p, engine.spec.theta
        a_cond = theta.level
        super().__init__(p, t, 0, 1)
        level = _shell_level(theta)
        alpha = alpha_of_theta(theta)
        if theta.ramified:
            # component bounds of the inner ball p_E^level over o: a-part
            # ceil(level/2), b-part ceil((level-1)/2)
            sc2_mod = p ** (level - (level + 1) // 2)
            sc3_mod = p ** (level - level // 2)
            w = alpha.b.residue_unit((level + 1) // 2) % sc3_mod
            nu_scale = p ** (level - t)
        else:
            sc2_mod = sc3_mod = p ** (a_cond - level)
            w = (alpha.b.residue_unit(a_cond // 2) % sc3_mod
                 if sc3_mod > 1 else 0)
            nu_scale = p ** (a_cond - t)
        self.sc2_mod = sc2_mod
        self.nu = nu_scale % sc2_mod
        A, B, phase, eta = engine.shell_table(level)
        self.volume /= len(A)
        # the phase-linearization coordinate must match alpha
        keep = np.flatnonzero((A if theta.ramified else B) % sc3_mod == w)
        self.A, self.B, self.phase = A[keep], B[keep], phase[keep]
        # eta reduced mod p^t keeps every product of a query in int64
        self.eta_t = eta[keep] % self.pt
        self.eta_sc2 = self.eta_t % sc2_mod
        # the coupled condition reads this coordinate mod sc2_mod
        self.coord = (self.B if theta.ramified else self.A) % sc2_mod
        self.eta_inv = unit_inverses(self.eta_t, p, self.root_exp)
        self.root_inv = unit_inverses(self.roots, p, t)
        self._freeze()

    def pairs(self, engine: MatCoefEngine, a_res: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
        """depth_pairs for supercuspidals: the inner block runs over the kept
        shell rows.  The solutions of x0^2 + a eta^-1 = 0 of every (query,
        row) are one lookup in the root table, and all of them satisfy the
        outer congruence; the coupled and phase conditions then run on
        (query, row, candidate) arrays."""
        pt, sc2_mod, dx_mod, m_mod = self.pt, self.sc2_mod, self.root_mod, engine.m
        a_inv = unit_inverses(a_res, engine.spec.p, self.t)
        r = (a_res % dx_mod)[:, None] * self.eta_inv % dx_mod
        ok = self.root_ok[r]
        scanned = ok.sum(axis=(1, 2))
        q, row, j = ok.nonzero()
        root = r[q, row]
        x0, x_inv = self.roots[root, j], self.root_inv[root, j]
        # the coupled condition, coordinate = nu_scale x0 a^-1 eta mod
        # sc2_mod; when the shear depth satisfies e_E(i-n) >= -ceil(a/2) the
        # nu_scale power swamps the modulus and it degenerates to the
        # x0-free condition "trace coordinate = 0"
        slope = self.nu * a_inv[q] % sc2_mod * self.eta_sc2[row] % sc2_mod
        keep = (self.coord[row] - slope * (x0 % sc2_mod)) % sc2_mod == 0
        q, row, x0, x_inv = q[keep], row[keep], x0[keep], x_inv[keep]
        # psi(p^-t / x0) psi(-p^-t x0 a^-1 eta) theta^-1 psi_E(shell row)
        lin = -a_inv[q] * self.eta_t[row] % pt
        e = ((x_inv + x0 * lin) % pt * (m_mod // pt)
             + self.phase[row]) % m_mod
        return np.array((q, x0, self.A[row], self.B[row], e)).T, scanned


def depth_plan(engine: MatCoefEngine, t: int) -> DepthPlan:
    """The engine's plan for its family at depth t = n - i, built on first
    use and kept on the engine (so it dies with the engine)."""
    plan = engine.depth_plans.get(t)
    if plan is None:
        make = PsPlan if engine.spec.family == "ps" else ScPlan
        plan = engine.depth_plans[t] = make(engine, t)
    return plan


def ball_volume(engine: MatCoefEngine, i: int) -> Fraction:
    """The weight every critical pair of a depth-i query carries: the
    normalized volume of one outer block times one inner block, held by the
    depth's plan."""
    return depth_plan(engine, engine.spec.n - i).volume


def depth_pairs(engine: MatCoefEngine, i: int, a_res: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Critical pairs of supported interior queries of one depth i, given
    as the int64 array of their key residues a (key_rows, so m = p^-t),
    and the scanned candidate count per query.  Pairs are int64
    rows (query, x0, u0, phase) for principal series and (query, x0, A, B,
    phase) for supercuspidals, the query an index into the arrays and the
    phase in Z/m last; every row carries the weight ball_volume(engine, i)."""
    return depth_plan(engine, engine.spec.n - i).pairs(engine, a_res)


def depth_coords(engine: MatCoefEngine, i: int, keys: np.ndarray
                 ) -> tuple[np.ndarray, list[Fraction], np.ndarray]:
    """The depth count program of key_values at an interior depth i: the
    coordinate rows of int64 key rows, their scale ball_volume(engine, i),
    and each row's critical-pair count.  The keys on the support (t = n - i)
    go through depth_pairs, and one scatter sums each key's pairs into its
    row, so a key without pairs keeps a zero row."""
    on = (keys[:, 2] == engine.spec.n - i).nonzero()[0]
    pairs, _ = depth_pairs(engine, i, keys[on, 1])
    rows, phase = on[pairs[:, 0]], pairs[:, -1]
    coords = _basis(engine.m).reduce_rows(
        rows, phase, np.ones(len(phase), dtype=np.int64), len(keys))
    return (coords, [ball_volume(engine, i)] * len(keys),
            np.bincount(rows, minlength=len(keys)))


def interior_depths(spec: ReprSpec) -> range:
    """The depths n0 < i < n - 1 of the block decomposition; the boundary
    depths n - 1 and n take the unit average."""
    return range(spec.n0 + 1, spec.n - 1)


def critical_pairs(engine: MatCoefEngine, i: int, a: PAdicScalar,
                   madd: PAdicScalar) -> tuple[np.ndarray, int]:
    """Critical pairs of one supported interior query and its scanned
    candidate count: depth_pairs of its key's residue a alone (key_rows
    normalises m to p^-t), without the query column.  Raises off the fast
    range and off the support, where the query has no key or its key has t
    != n - i."""
    spec = engine.spec
    if i not in interior_depths(spec):
        raise ValueError("block decomposition applies to n0 < i < n-1 only")
    key = engine.query_key(i, a, madd)
    if key is None or key[2] != spec.n - i:
        raise ValueError("query off the support locus")
    pairs, scanned = depth_pairs(engine, i, np.array([key[1]]))
    return pairs[:, 1:], int(scanned[0])


def phi_fast_numerator(engine: MatCoefEngine, i: int, a: PAdicScalar,
                       madd: PAdicScalar) -> tuple[CycloValue, int]:
    """Fast phi numerator and its critical-pair count, the one-row case of
    phi_fast_values: the unit average (phi_numerator) off interior_depths,
    else an exact zero off the unit locus and depth_coords on the query's
    key (query_key).  Divide by C0 for the value."""
    if i not in interior_depths(engine.spec):
        return engine.phi_numerator(i, a, madd), 0
    key = engine.query_key(i, a, madd)
    if key is None:
        return CycloValue.zero(engine.m), 0
    coords, scales, pairs = depth_coords(engine, i, np.array([key]))
    return CycloValue(engine.m, coords[0], scales[0]), int(pairs[0])


def phi_fast_value(engine: MatCoefEngine, i: int, a: PAdicScalar,
                   madd: PAdicScalar) -> complex:
    num, _ = phi_fast_numerator(engine, i, a, madd)
    return num.complex() / engine.c0_complex


def phi_fast_values(engine: MatCoefEngine, i: int, keys: np.ndarray
                    ) -> list[complex]:
    """phi_fast_value of each int64 key row of depth i, bitwise, by
    matcoef.key_values: at boundary depths with the unit average, else with
    depth_coords.  ValueError on a row whose depth column is not i."""
    check_depth(engine.spec, i)
    if np.count_nonzero(keys[:, 0] != i):
        raise ValueError(f"key rows of a depth other than {i}")
    program = (engine.average_coords if i not in interior_depths(engine.spec)
               else lambda chunk: depth_coords(engine, i, chunk)[:2])
    return key_values(engine, keys, program)[0]


def naive_term_count(engine: MatCoefEngine, i: int, v_m: int) -> int:
    """Nominal inner-times-outer term count of the plain average: the units
    of its ungrouped level times the Whittaker terms."""
    p, k = engine.spec.p, engine.unit_level(i, -v_m, grouped=False)
    return (p - 1) * p ** (k - 1) * engine.term_count()


def speedup_report(spec, i: int, grid) -> dict:
    """Single-threaded timing table: cold plain evaluation (fresh engine and
    caches per query) against the block evaluator, with exact deviations.
    Returns {"rows": [...], "summary": {...}}."""
    shared = MatCoefEngine(spec)
    c0 = shared.c0_complex
    rows = []
    for a, madd in grid:
        t0 = time.perf_counter()
        cold = MatCoefEngine(spec)
        naive_num = cold.phi_numerator(i, a, madd, grouped=False,
                                       cache_w=False)
        t1 = time.perf_counter()
        fast_num, pairs = phi_fast_numerator(shared, i, a, madd)
        t2 = time.perf_counter()
        naive_val = naive_num.complex() / c0
        fast_val = fast_num.complex() / c0
        dev = abs(fast_val - naive_val)
        if abs(naive_val) > 1e-12:
            dev /= abs(naive_val)
        rows.append({
            **point_row(spec, i, a, madd), "naive_s": t1 - t0,
            "fast_s": t2 - t1,
            "naive_terms": naive_term_count(shared, i, madd.val),
            "fast_pairs": pairs, "deviation": dev,
        })
    naive_s = sum(row["naive_s"] for row in rows)
    fast_s = sum(row["fast_s"] for row in rows)
    return {"rows": rows, "summary": {
        "p": spec.p, "n": spec.n, "family": spec.label, "i": i,
        "queries": len(rows), "naive_s": naive_s, "fast_s": fast_s,
        "speedup": naive_s / fast_s if fast_s else float("inf"),
        "max_deviation": max((row["deviation"] for row in rows), default=0.0),
        "max_pairs": max((row["fast_pairs"] for row in rows), default=0),
        "pair_bound": decay_bound(spec),
    }}
