"""Reference implementations the tests check production code against.

None of these run on a CLI or acceptance path; they are independent (or
deliberately naive) routes to quantities the package computes another way.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from gl2local.characters import (
    alpha_of_chi,
    alpha_of_theta,
    psi_exponent_scaled,
)
from gl2local.cyclotomic import CycloValue, _basis
from gl2local.errors import BudgetError, PrecisionError
from gl2local.matcoef import KStarElement
from gl2local.quaternion import UpperHalfPoint, _iota_inf_exact
from gl2local.residue import (
    factorize,
    get_context,
    get_ext_context,
    padic_valuation,
    random_unit,
    solve_quadratic_congruence,
    unit_shell_reps,
)
from gl2local.statphase import _unit_lifts
from gl2local.whittaker import required_precision

# -- cyclotomic --------------------------------------------------------------


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    # exact division of integer polynomials, den monic
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        q[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num[: len(den) - 1]):
        raise ArithmeticError("non-exact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the m-th cyclotomic polynomial.

    Standard recursive quotient of x^m - 1 by the proper-divisor cyclotomics,
    with the radical shortcut Phi_m(x) = Phi_rad(m)(x^(m/rad)).
    """
    if m == 1:
        return (-1, 1)
    rad = math.prod(p for p, _ in factorize(m))
    if rad != m:
        inner = cyclotomic_poly(rad)
        step = m // rad
        out = [0] * ((len(inner) - 1) * step + 1)
        for i, c in enumerate(inner):
            out[i * step] = c
        return tuple(out)
    num = [0] * m + [1]
    num[0] = -1
    for d in range(1, m):
        if m % d == 0:
            num = _poly_divexact(num, list(cyclotomic_poly(d)))
    return tuple(num)


def root_of_unity(m: int, e: int) -> CycloValue:
    """zeta_M^e as an exact value."""
    counts = np.zeros(m, dtype=np.int64)
    counts[e % m] = 1
    return CycloValue.from_counts(m, counts)


def one(m: int) -> CycloValue:
    return root_of_unity(m, 0)


def _axis_index(m: int) -> tuple[np.ndarray, ...]:
    """Per prime-power axis q of M, the index (M/q)^(-1) t mod q of zeta_M^t
    on that axis, for every t in Z/M."""
    t = np.arange(m, dtype=np.int64)
    return tuple(pow(m // q, -1, q) * t % q for q in _basis(m).moduli)


def _as_counts(x: CycloValue) -> np.ndarray:
    """A count vector over Z/M whose reduction is x / x.scale: each basis
    coordinate is read back as the exponent t with the same per-axis
    indices (CRT), skipping the fold."""
    basis = _basis(x.m)
    full = np.zeros(basis.moduli, dtype=x.coords.dtype)
    full[tuple(slice(0, s) for s in basis.shape)] = x.coords
    return full.ravel()[np.ravel_multi_index(_axis_index(x.m), basis.moduli)]


def rotate(x: CycloValue, e: int) -> CycloValue:
    """x * zeta_M^e."""
    return CycloValue.from_counts(x.m, np.roll(_as_counts(x), e), x.scale)


def conj(x: CycloValue) -> CycloValue:
    """Complex conjugate: zeta_M^t -> zeta_M^(-t)."""
    return CycloValue.from_counts(x.m, np.roll(_as_counts(x)[::-1], 1),
                                  x.scale)


def _fold_axis(arr: np.ndarray, p: int, a: int, axis: int) -> np.ndarray:
    """Reduce axis indices from Z/p^a down to the power basis of Z[zeta_{p^a}]."""
    q, step = p**a, p ** (a - 1)
    phi = (p - 1) * step
    arr = np.moveaxis(arr, axis, 0)
    # every folded row e in [phi, q) lands entirely below phi, so the
    # block subtractions are independent of each other
    top = arr[phi:q]
    for k in range(1, p):
        arr[phi - k * step:q - k * step] -= top
    return np.moveaxis(arr[:phi], 0, axis)


def dense_reduce_counts(m: int, counts: np.ndarray) -> np.ndarray:
    """Counts over exponents Z/m -> coordinates on the tensor basis, by
    scattering all m exponents onto the prime-power grid and folding each
    axis in turn."""
    basis = _basis(m)
    arr = np.zeros(basis.moduli, dtype=counts.dtype)
    np.add.at(arr, _axis_index(m), counts)
    for axis, (p, a) in enumerate(basis.factors):
        arr = _fold_axis(arr, p, a, axis)
    return arr


def embed_counts(m: int, counts) -> complex:
    """Float evaluation of sum_t counts[t] zeta_M^t without exact reduction."""
    arr = np.asarray(counts, dtype=np.float64)
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    return complex(arr @ roots)


# -- residue and characters --------------------------------------------------


def ext_valuation(x) -> int:
    """v_E of a QuadExtElement, with v_E(uniformizer of E) = 1.

    e_E=1: min(v(a), v(b)); e_E=2: min(2 v(a), 2 v(b) + 1).  The two branches
    never tie in the ramified case (opposite parities), so no precision is lost.
    """
    a, b = x.a, x.b
    if a.is_zero and b.is_zero:
        raise PrecisionError("valuation of zero element")
    if x.ext.ramified:
        cands = []
        if not a.is_zero:
            cands.append(2 * a.val)
        if not b.is_zero:
            cands.append(2 * b.val + 1)
        return min(cands)
    cands = []
    if not a.is_zero:
        cands.append(a.val)
    if not b.is_zero:
        cands.append(b.val)
    return min(cands)


def conjugated(theta):
    """theta o (Galois conjugation), as a ThetaChar with a permuted table."""
    out = type(theta)(theta.group, theta.exps)
    g = theta.group
    index = np.arange(len(theta.table))
    out.table = theta.table[g.index(index // g.mod_b, -index)]
    return out


def exponent_rows(group) -> np.ndarray:
    """The generator exponents (e0, e1, e2) of every class as one row per
    table index, read from group.pos by np.unravel_index; [-1, -1, -1] at
    non-units."""
    rows = np.full((len(group.pos), 3), -1, dtype=np.int64)
    unit = group.pos >= 0
    rows[unit] = np.column_stack(
        np.unravel_index(group.pos[unit], group.gen_orders))
    return rows


def unit_keys(group) -> list[tuple[int, int]]:
    """(A, B) of every unit class, ordered as g0^e0 g1^e1 g2^e2 with
    (e0, e1, e2) ascending."""
    units = np.flatnonzero(group.pos >= 0)
    return [divmod(int(k), group.mod_b)
            for k in units[np.argsort(group.pos[units])]]


def shell_table_from_reps(theta, k: int, m: int) -> tuple[np.ndarray, ...]:
    """(A, B, phase, eta) of characters.shell_table over the rows of
    unit_shell_reps(k), each reduced by a full % step."""
    p, a = theta.p, theta.level
    q = p ** (a // 2) if theta.ramified else p**a
    reps = unit_shell_reps(get_ext_context(p, a, theta.ramified), k)
    A, B = reps[:, 0], reps[:, 1]
    if theta.ramified:
        tr, eta = 2 * B, p * B * B - A * A
    else:
        tr, eta = 2 * A, A * A - theta.group.d_unit * B * B
    theta_e = (theta.table[theta.group.index(A, B)]
               * (m // theta.value_order))
    return A, B, (tr % q * (m // q) - theta_e) % m, eta


# -- Whittaker values --------------------------------------------------------


def numerator(eng, i: int, x) -> CycloValue:
    """Exact numerator of the newvector value at diagonal argument x; zero
    off the unit locus.  The value itself is numerator / C0."""
    if not eng.spec.n0 < i <= eng.spec.n:
        raise ValueError(f"shear depth {i} outside (n0, n]")
    if x.is_zero or x.val != 0:
        return CycloValue.zero(eng.m)
    res = x.residue_unit(required_precision(eng.spec, i))
    return CycloValue.from_counts(eng.m, dense_counts(eng, i, res),
                                  eng.numerator_scale())


def dense_counts(eng, i: int, x_res: int) -> np.ndarray:
    """numerator_counts(i, x_res) as a dense int64 length-m count vector."""
    phases, mult = eng.numerator_counts(i, x_res)
    return np.bincount(np.repeat(phases, mult), minlength=eng.m)


def value(eng, i: int, x) -> complex:
    return numerator(eng, i, x).complex() / eng.c0_complex


# -- stationary phase --------------------------------------------------------


def ps_pairs_per_u0(engine, i: int, a_res: int, m_res: int
                    ) -> tuple[list[tuple[int, int, int]], int, Fraction]:
    """Principal-series critical pairs (x0, u0, phase) of the query (a,
    p^-t m), m_res any unit, with both block congruences tested on every
    candidate and the phases from the characters' own evaluators; the
    scanned count and the shared weight complete the contract of
    statphase.depth_pairs (for one query) and ball_volume.  depth_pairs
    reads the residue a m^-1 of the query's key alone; the two agree on
    scanned counts and phases, and at m = 1 on rows."""
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
            pairs.append((x0, u0, e))
    return pairs, scanned, weight


def sc_pairs_per_rep(engine, i: int, a_res: int, m_res: int
                     ) -> tuple[list[tuple[int, int, int, int]], int, Fraction]:
    """Supercuspidal critical pairs (x0, A, B, phase) of the query (a, p^-t
    m), m_res any unit, with one congruence solve and one candidate loop per
    kept shell representative; the scanned count and the shared weight
    complete the contract of statphase.depth_pairs (for one query) and
    ball_volume.  depth_pairs reads the residue a m^-1 of the query's key
    alone; the two agree on scanned counts and phases, and at m = 1 on
    rows."""
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
        sc2_mod = p ** (h - (level + 1) // 2)
        sc3_mod = p ** (h - level // 2)
        w = alpha.b.residue_unit((h + 1) // 2) % sc3_mod
        nu_scale = p ** (h - t)
    else:
        level = (a_cond + 1) // 2
        sc2_mod = sc3_mod = p ** (a_cond - level)
        w = alpha.b.residue_unit(a_cond // 2) % sc3_mod if sc3_mod > 1 else 0
        nu_scale = p ** (a_cond - t)
    A, B, phase, eta = engine.shell_table(level)
    keep = np.flatnonzero((A if theta.ramified else B) % sc3_mod == w)
    weight = Fraction(p, p - 1) / p**kx / len(A)
    scanned = 0
    pairs = []
    for a_j, b_j, ph, et in zip(A[keep].tolist(), B[keep].tolist(),
                                phase[keep].tolist(), eta[keep].tolist()):
        const = a_res * m_res * pow(et, -1, dx_mod) if t > kx else 0
        roots = solve_quadratic_congruence(1, 0, const, p, t - kx)
        x_cands = [x for r in roots for x in _unit_lifts(r, t - kx, kx, p)]
        for x0 in x_cands:
            scanned += 1
            if (x0 * x0 * et + m_res * a_res) % dx_mod:
                continue
            coupled = nu_scale * x0 * a_inv * et
            if ((b_j if theta.ramified else a_j) - coupled) % sc2_mod:
                continue
            e = (psi_exponent_scaled(p, t, m_res * pow(x0, -1, pt), m_mod)
                 + psi_exponent_scaled(p, t, -x0 * a_inv * et, m_mod) + ph)
            pairs.append((x0, a_j, b_j, e % m_mod))
    return pairs, scanned, weight


# -- congruence unit ball ----------------------------------------------------


def k_star_mul(g: KStarElement, h: KStarElement) -> KStarElement:
    """The product g h of two ball elements at one modulus, entry by entry
    in Python integers: the reference for the array products of the Gram
    estimator."""
    assert g.p == h.p and g.k == h.k
    return KStarElement(g.p, g.k, g.a * h.a + g.b * h.c, g.a * h.b + g.b * h.d,
                        g.c * h.a + g.d * h.c, g.c * h.b + g.d * h.d)


def decompose_k_star_scalar(g: KStarElement, spec):
    """decompose_k_star of one ball element in Python integers, scalar by
    scalar: the reference for the array row reduction."""
    p, k, n, n1 = g.p, g.k, spec.n, spec.n1
    ctx = get_context(p, k)
    d_inv = pow(g.d, -1, g.mod)
    det = (g.a * g.d - g.b * g.c) % g.mod
    cd = g.c * d_inv % g.mod
    v_c = padic_valuation(cd, p) if cd else k
    if v_c + n1 >= n:
        i, a_unit, a_prec = n, det * d_inv * d_inv, k
    else:
        i, a_prec = v_c + n1, k - v_c
        a_unit = det * d_inv * d_inv * pow(cd // p**v_c, -1, p**a_prec)
    if g.b == 0:
        return i, ctx.scalar(0, a_unit, a_prec), ctx.zero()
    v_b = padic_valuation(g.b, p)
    return (i, ctx.scalar(0, a_unit, a_prec),
            ctx.scalar(v_b - n1, g.b // p**v_b * d_inv, k - v_b))


def unit_average_counts(engine, row, grouped=True):
    """Count vector and normalization of the unit average at the row (i, a,
    t, mu), m = p^-t mu, unit by unit: each unit's dense Whittaker counts
    rolled by its psi exponent, the per-key loop that
    MatCoefEngine.key_counts batches on the key (i, a mu^-1, t).  Every
    entry is computed afresh by numerator_counts."""
    i, a_res, t, m_unit = row
    spec, p, m = engine.spec, engine.spec.p, engine.m
    w = required_precision(spec, i)
    k = max(w, t, 1) if grouped else max(spec.n0, spec.n - i, t) + 1
    accum = np.zeros(m, dtype=np.int64)
    for x in range(1, p**k):
        if x % p:
            phases, mults = engine.numerator_counts(i, a_res * x % p**w)
            dense = np.zeros(m, dtype=np.int64)
            dense[phases] = mults
            accum += np.roll(dense, m_unit * x % p**t * (m // p**t))
    return accum, engine.numerator_scale() / ((p - 1) * p ** (k - 1))


def random_k_star_at_level(p: int, k: int, rng, level: int) -> KStarElement:
    """Ball element with min(v(b), v(c)) equal to level exactly."""
    if not 1 <= level < k:
        raise ValueError("level must lie in [1, k)")
    exact = p**level * random_unit(p, k - level, rng)
    other = p**level * rng.randrange(p ** (k - level))
    b, c = (exact, other) if rng.random() < 0.5 else (other, exact)
    return KStarElement(p, k, random_unit(p, k, rng), b, c,
                        random_unit(p, k, rng))


# -- quaternions -------------------------------------------------------------


def quat_conj(x):
    return (x[0], -x[1], -x[2], -x[3])


def det_inverse(rows) -> tuple[Fraction, list[list[Fraction]]]:
    """Exact determinant and inverse of a rational matrix by one Gauss-Jordan
    elimination in Fractions; ValueError for a singular matrix."""
    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == r)) for i in range(n)]
           for r, row in enumerate(rows)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
            det = -det
        det *= aug[col][col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return det, [row[n:] for row in aug]


def lattice_contains(lat, order_coords) -> bool:
    _, inv = det_inverse(lat.coords)
    sol = [sum(Fraction(order_coords[k]) * inv[k][j] for k in range(4))
           for j in range(4)]
    return all(c.denominator == 1 for c in sol)


def frobenius_form(lattice, z: UpperHalfPoint):
    """(G_r, G_s, den) of the conjugated Frobenius form in Fractions, from the
    rational basis: h = iota(x) t_z entrywise over Q(sqrt(a_h)), den the lcm
    of the entry denominators."""
    alg = lattice.order.algebra
    x, y = Fraction(z.x), Fraction(z.y)
    t_z = np.array([[1, x / y, 0, 0], [0, 1 / y, 0, 0],
                    [-x, -x * x / y, y, x], [0, -x / y, 0, 1]], dtype=object)
    r, s = _iota_inf_exact(alg, lattice.basis_in_frame())
    h_r, h_s = r @ t_z, s @ t_z
    g_r = h_r @ h_r.T + alg.a_h * (h_s @ h_s.T)
    g_s = h_r @ h_s.T + h_s @ h_r.T
    den = math.lcm(*[v.denominator for g in (g_r, g_s) for v in g.flat])
    return (*(np.array([[int(v * den) for v in row] for row in g], dtype=object)
              for g in (g_r, g_s)), den)


def point_pair_u(z: UpperHalfPoint, w: UpperHalfPoint) -> Fraction:
    """u(z, w) = |z - w|^2 / (4 Im z Im w), exactly."""
    dx, dy = z.x - w.x, z.y - w.y
    return (dx * dx + dy * dy) / (4 * z.y * w.y)


def iota_inf(alg, frame_vec) -> np.ndarray:
    """Float real splitting of a frame vector."""
    r, s = _iota_inf_exact(alg, [frame_vec])
    return (r.astype(float) + s.astype(float) * math.sqrt(alg.a_h)).reshape(2, 2)


def ellipsoid_points(gram: np.ndarray, bound: float) -> np.ndarray:
    """Every integer vector with c^T gram c <= bound, one of each +-c pair
    (the last nonzero coordinate is positive), c = 0 excluded, from the same
    float Cholesky limits as `quaternion._ellipsoid_lines`; the innermost
    coordinate is materialised as a contiguous range on each line."""
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= 0:
        raise ValueError("counting form is not positive definite")
    chol = np.linalg.cholesky(gram + np.eye(4) * (eigs[0] * 1e-12)).T
    bound = bound * (1 + 1e-9) + 1e-9
    eps = 1e-9
    blocks = []
    r33, r22, r11, r00 = chol[3, 3], chol[2, 2], chol[1, 1], chol[0, 0]
    lim3 = int(math.floor(math.sqrt(bound) / r33 + eps))
    for c3 in range(0, lim3 + 1):
        rem3 = bound - (c3 * r33) ** 2
        if rem3 < 0:
            continue
        off2 = c3 * chol[2, 3]
        root = math.sqrt(rem3)
        for c2 in range(math.ceil((-root - off2) / r22 - eps),
                        math.floor((root - off2) / r22 + eps) + 1):
            if c3 == 0 and c2 < 0:
                continue
            rem2 = rem3 - (off2 + c2 * r22) ** 2
            if rem2 < 0:
                continue
            off1 = c3 * chol[1, 3] + c2 * chol[1, 2]
            root = math.sqrt(rem2)
            for c1 in range(math.ceil((-root - off1) / r11 - eps),
                            math.floor((root - off1) / r11 + eps) + 1):
                if c3 == 0 and c2 == 0 and c1 < 0:
                    continue
                rem1 = rem2 - (off1 + c1 * r11) ** 2
                if rem1 < 0:
                    continue
                off0 = c3 * chol[0, 3] + c2 * chol[0, 2] + c1 * chol[0, 1]
                lo = math.ceil((-math.sqrt(rem1) - off0) / r00 - eps)
                hi = math.floor((math.sqrt(rem1) - off0) / r00 + eps)
                if c3 == 0 and c2 == 0 and c1 == 0:
                    lo = max(lo, 1)
                if lo > hi:
                    continue
                run = np.empty((hi - lo + 1, 4), dtype=np.int64)
                run[:, 0] = np.arange(lo, hi + 1)
                run[:, 1], run[:, 2], run[:, 3] = c1, c2, c3
                blocks.append(run)
    if not blocks:
        return np.empty((0, 4), dtype=np.int64)
    return np.concatenate(blocks)


def solve_lines_table(f_int: np.ndarray, den: int, lines: np.ndarray,
                      lo: np.ndarray, hi: np.ndarray, norms: list[int]):
    """Reference line solver: every requested norm decided on every line,
    on one lines x norms int64 table of discriminants s^2 = B^2 - F00 (C -
    den m).  `quaternion._solve_lines` must return the same rows, norm
    values and order, and raise the same refusals."""
    f00 = int(f_int[0, 0])
    if f00 == 0:
        raise ValueError("norm form has a zero leading coefficient")
    reach = int(np.abs(lines).sum(axis=1).max(initial=0))
    fmax = int(np.abs(f_int).max())
    disc_bound = (fmax * reach) ** 2 \
        + abs(f00) * (fmax * reach * reach + den * norms[-1])
    if disc_bound >= 2**62:
        raise BudgetError(f"quaternion line solve: discriminant bound "
                          f"{disc_bound} exceeds 2**62")
    b = lines @ f_int[0, 1:]
    c = ((lines @ f_int[1:, 1:]) * lines).sum(axis=1)
    target = den * np.array(norms, dtype=np.int64)
    disc = b[:, None] ** 2 - f00 * (c[:, None] - target)
    line, col = np.nonzero(disc >= 0)
    d = disc[line, col]
    s = np.sqrt(d.astype(float)).astype(np.int64)
    s -= s * s > d
    s += (s + 1) * (s + 1) <= d
    square = s * s == d
    line, col, s = line[square], col[square], s[square]
    hits = []
    for num, distinct in ((s - b[line], True), (-s - b[line], s > 0)):
        c0 = num // f00
        ok = distinct & (num % f00 == 0) & (lo[line] <= c0) & (c0 <= hi[line])
        hits.append((line[ok], c0[ok], col[ok]))
    line, c0, col = (np.concatenate(v) for v in zip(*hits))
    order = np.lexsort((c0, line))
    rows = np.column_stack((c0[order], lines[line[order]]))
    return rows, target[col[order]] // den
