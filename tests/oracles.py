"""Reference implementations the tests check production code against.

None of these run on a CLI or acceptance path; they are independent (or
deliberately naive) routes to quantities the package computes another way.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from gl2local.cyclotomic import CycloValue, _basis
from gl2local.errors import PrecisionError
from gl2local.matcoef import KStarElement
from gl2local.quaternion import UpperHalfPoint, _iota_inf_exact, _mat_inverse
from gl2local.residue import factorize, random_unit
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


def _as_counts(x: CycloValue) -> np.ndarray:
    """A count vector over Z/M whose reduction is x / x.scale: each basis
    coordinate is read back as the exponent t with the same per-axis
    indices (CRT), skipping the fold."""
    basis = _basis(x.m)
    full = np.zeros(basis.moduli, dtype=x.coords.dtype)
    full[tuple(slice(0, s) for s in basis.shape)] = x.coords
    return full.ravel()[np.ravel_multi_index(tuple(basis.axis_index),
                                             basis.moduli)]


def rotate(x: CycloValue, e: int) -> CycloValue:
    """x * zeta_M^e."""
    return CycloValue.from_counts(x.m, np.roll(_as_counts(x), e), x.scale)


def conj(x: CycloValue) -> CycloValue:
    """Complex conjugate: zeta_M^t -> zeta_M^(-t)."""
    return CycloValue.from_counts(x.m, np.roll(_as_counts(x)[::-1], 1),
                                  x.scale)


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
    out = type(theta)(theta.group, theta.exps, theta.pi_sign)
    g = theta.group
    out.table = {k: theta.table[g.conj_key(k)] for k in theta.table}
    return out


# -- Whittaker values --------------------------------------------------------


def numerator(eng, i: int, x) -> CycloValue:
    """Exact numerator of the newvector value at diagonal argument x; zero
    off the unit locus.  The value itself is numerator / C0."""
    if not eng.spec.n0 < i <= eng.spec.n:
        raise ValueError(f"shear depth {i} outside (n0, n]")
    if x.is_zero or x.val != 0:
        return CycloValue.zero(eng.m)
    res = x.residue_unit(required_precision(eng.spec, i))
    return CycloValue.from_counts(eng.m, eng.numerator_counts(i, res),
                                  eng.numerator_scale())


def value(eng, i: int, x) -> complex:
    return numerator(eng, i, x).complex() / eng.c0_complex


# -- congruence unit ball ----------------------------------------------------


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


def lattice_contains(lat, order_coords) -> bool:
    inv = _mat_inverse([[Fraction(v) for v in row] for row in lat.coords])
    sol = [sum(Fraction(order_coords[k]) * inv[k][j] for k in range(4))
           for j in range(4)]
    return all(c.denominator == 1 for c in sol)


def point_pair_u(z: UpperHalfPoint, w: UpperHalfPoint) -> Fraction:
    """u(z, w) = |z - w|^2 / (4 Im z Im w), exactly."""
    dx, dy = z.x - w.x, z.y - w.y
    return (dx * dx + dy * dy) / (4 * z.y * w.y)


def iota_inf(alg, frame_vec) -> np.ndarray:
    """Float real splitting of a frame vector."""
    m = [float(e.r) + float(e.s) * math.sqrt(e.d)
         for e in _iota_inf_exact(alg, frame_vec)]
    return np.array([[m[0], m[1]], [m[2], m[3]]])
