"""Rational quaternion algebras and hyperbolic lattice-point counting.

Covers: Hilbert symbols and discriminants, maximal-order certificates via the
trace form, sublattices with planned local shapes at split odd primes (built
by Hensel-lifted local splittings), exact point counts in hyperbolic balls
with prescribed reduced norm, and the exact-rational exponent arithmetic for
the global bounds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

import numpy as np

from .residue import padic_valuation
from .statphase import sqrt_mod_prime


# -- Hilbert symbols ---------------------------------------------------------

def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def local_hilbert_symbol(a: int, b: int, place) -> int:
    """Hilbert symbol (a,b) at a finite prime or at math.inf."""
    if a == 0 or b == 0:
        raise ValueError("arguments must be nonzero")
    if place == math.inf:
        return -1 if a < 0 and b < 0 else 1
    p = place
    alpha, beta = padic_valuation(a, p), padic_valuation(b, p)
    u, v = a // p**alpha, b // p**beta
    if p == 2:
        eps = ((u - 1) // 2) * ((v - 1) // 2)
        omega = alpha * ((v * v - 1) // 8) + beta * ((u * u - 1) // 8)
        return -1 if (eps + omega) % 2 else 1
    sign = (-1) ** (alpha * beta * ((p - 1) // 2))
    return sign * _legendre(u, p) ** beta * _legendre(v, p) ** alpha


def ramified_primes(a: int, b: int) -> list[int]:
    """Finite ramified places; the product formula is asserted as a check."""
    places = {2}
    for n in (abs(a), abs(b)):
        while n % 2 == 0:
            n //= 2
        d = 3
        while d * d <= n:
            while n % d == 0:
                places.add(d)
                n //= d
            d += 2
        if n > 1:
            places.add(n)
    ram = sorted(p for p in places if local_hilbert_symbol(a, b, p) == -1)
    total = len(ram) + (1 if local_hilbert_symbol(a, b, math.inf) == -1 else 0)
    assert total % 2 == 0, "Hilbert symbol product formula violated"
    return ram


# -- the algebra and its orders ----------------------------------------------

Coords = tuple[Fraction, Fraction, Fraction, Fraction]


class QuaternionAlgebra:
    """Basis 1, i, j, k with i^2 = a_h, j^2 = b_h, k = ij = -ji.

    a_h > 0 is required so the algebra splits over the reals.
    """

    def __init__(self, a_h: int, b_h: int):
        if a_h <= 0:
            raise ValueError("a_h must be positive (real splitting)")
        if b_h == 0:
            raise ValueError("b_h must be nonzero")
        self.a_h = a_h
        self.b_h = b_h
        self.discriminant = math.prod(ramified_primes(a_h, b_h))

    @property
    def is_division(self) -> bool:
        return self.discriminant != 1

    def mul(self, x, y) -> Coords:
        a, b = self.a_h, self.b_h
        x0, x1, x2, x3 = x
        y0, y1, y2, y3 = y
        return (
            x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
            x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
        )

    def conj(self, x) -> Coords:
        return (x[0], -x[1], -x[2], -x[3])

    def tr(self, x):
        return 2 * x[0]

    def nr(self, x):
        a, b = self.a_h, self.b_h
        x0, x1, x2, x3 = x
        return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3


def _mat_inverse(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan elimination."""
    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == r)) for i in range(n)]
           for r, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


class RationalOrder:
    """An order given by basis rows over the 1,i,j,k frame; construction
    checks that 1 is in the lattice and that it is closed under
    multiplication."""

    def __init__(self, algebra: QuaternionAlgebra, basis_rows):
        self.algebra = algebra
        self.basis = [tuple(Fraction(v) for v in row) for row in basis_rows]
        if len(self.basis) != 4:
            raise ValueError("an order needs 4 basis vectors")
        self._inv = _mat_inverse([list(r) for r in self.basis])
        if not self._contains((Fraction(1), Fraction(0), Fraction(0), Fraction(0))):
            raise ValueError("order does not contain 1")
        for x in self.basis:
            for y in self.basis:
                if not self._contains(self.algebra.mul(x, y)):
                    raise ValueError("basis is not closed under multiplication")

    def coords_of(self, frame_vec) -> Coords:
        return tuple(sum(frame_vec[k] * self._inv[k][j] for k in range(4))
                     for j in range(4))

    def _contains(self, frame_vec) -> bool:
        return all(c.denominator == 1 for c in self.coords_of(frame_vec))

    def element(self, coords) -> Coords:
        return tuple(sum(Fraction(coords[r]) * self.basis[r][c] for r in range(4))
                     for c in range(4))

    def reduced_discriminant(self) -> int:
        t = [[self.algebra.tr(self.algebra.mul(x, y)) for y in self.basis]
             for x in self.basis]
        d = _int_det([[Fraction(v) for v in row] for row in t])
        root = math.isqrt(abs(int(d)))
        if root * root != abs(int(d)):
            raise AssertionError("trace form determinant is not a square")
        return root


def _int_det(rows) -> Fraction:
    n = len(rows)
    rows = [list(r) for r in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] * inv
            if f:
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return det


def verify_maximal_order(order: RationalOrder) -> bool:
    """Maximality certificate: the reduced discriminant of the order equals
    the algebra discriminant."""
    return order.reduced_discriminant() == order.algebra.discriminant


def load_algebra_fixtures() -> dict:
    """Named (algebra, verified maximal order) pairs from the packaged
    fixture file."""
    text = resources.files("gl2local").joinpath("data/algebras.json").read_text()
    out = {}
    for name, spec in json.loads(text).items():
        alg = QuaternionAlgebra(*spec["hilbert"])
        order = RationalOrder(alg, [[Fraction(v) for v in row]
                                    for row in spec["max_order"]])
        if not verify_maximal_order(order):
            raise AssertionError(f"fixture {name} failed the maximality check")
        out[name] = (alg, order)
    return out


# -- Smith normal form (small integer matrices) ------------------------------

def smith_normal_form(mat) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """(U, D, V) with U @ mat @ V = D diagonal, d1 | d2 | ..., U, V unimodular."""
    a = [list(map(int, row)) for row in mat]
    nr, nc = len(a), len(a[0])
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_op(r1, r2, f):
        a[r1] = [x - f * y for x, y in zip(a[r1], a[r2])]
        u[r1] = [x - f * y for x, y in zip(u[r1], u[r2])]

    def col_op(c1, c2, f):
        for row in a:
            row[c1] -= f * row[c2]
        for row in v:
            row[c1] -= f * row[c2]

    def swap_rows(r1, r2):
        a[r1], a[r2] = a[r2], a[r1]
        u[r1], u[r2] = u[r2], u[r1]

    def swap_cols(c1, c2):
        for row in a:
            row[c1], row[c2] = row[c2], row[c1]
        for row in v:
            row[c1], row[c2] = row[c2], row[c1]

    for t in range(min(nr, nc)):
        while True:
            choices = [(abs(a[r][c]), r, c) for r in range(t, nr)
                       for c in range(t, nc) if a[r][c]]
            if not choices:
                break
            _, r, c = min(choices)
            swap_rows(t, r)
            swap_cols(t, c)
            dirty = False
            for r in range(t + 1, nr):
                if a[r][t]:
                    row_op(r, t, a[r][t] // a[t][t])
                    dirty = dirty or a[r][t] != 0
            for c in range(t + 1, nc):
                f = a[t][c] // a[t][t]
                if f:
                    col_op(c, t, f)
                dirty = dirty or a[t][c] != 0
            if dirty:
                continue
            bad = next(((r, c) for r in range(t + 1, nr)
                        for c in range(t + 1, nc) if a[r][c] % a[t][t]), None)
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad[0]])]
            u[t] = [x + y for x, y in zip(u[t], u[bad[0]])]
    for t in range(min(nr, nc)):
        if a[t][t] < 0:
            col_op(t, t, 2)  # negate: x - 2x = -x
    return u, a, v


def smith_divisors(mat) -> list[int]:
    _, d, _ = smith_normal_form(mat)
    return [d[t][t] for t in range(min(len(d), len(d[0])))]


# -- local splittings and tidy lattices --------------------------------------

def _hensel_sqrt(a: int, p: int, k: int) -> int:
    """Square root of a unit square mod p^k, p odd."""
    r = sqrt_mod_prime(a % p, p)
    if r is None or r == 0:
        raise ValueError(f"{a} is not a unit square mod {p}")
    mod = p
    while mod < p**k:
        mod = min(mod * mod, p**k)
        r = (r + a * pow(r, -1, mod)) * pow(2, -1, mod) % mod
    return r % p**k


def _pure_split_pair(alg: QuaternionAlgebra, p: int):
    """Integer-coordinate pure quaternions V, W with V^2 a unit square mod p,
    W^2 a unit mod p, and VW = -WV; used to build the local matrix model."""
    def square(x):
        return alg.nr(x) * -1  # V pure => V^2 = -nr(V)

    def anticommute(x, y):
        return alg.nr(tuple(u + w for u, w in zip(x, y))) \
            == alg.nr(x) + alg.nr(y)

    pures = []
    rng = range(-2, 3)
    for x1 in rng:
        for x2 in rng:
            for x3 in rng:
                if x1 or x2 or x3:
                    pures.append((Fraction(0), Fraction(x1), Fraction(x2),
                                  Fraction(x3)))
    pures.sort(key=lambda v: sum(abs(c) for c in v))
    for v_cand in pures:
        s = square(v_cand)
        if s.denominator != 1 or _legendre(int(s), p) != 1:
            continue
        for w_cand in pures:
            t = square(w_cand)
            if t.denominator != 1 or int(t) % p == 0:
                continue
            if not anticommute(v_cand, w_cand):
                continue
            basis = [(Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
                     v_cand, w_cand, alg.mul(v_cand, w_cand)]
            det = _int_det([list(r) for r in basis])
            if det and det.numerator % p:
                return v_cand, w_cand, basis
    raise ValueError(f"no splitting strategy found for p={p}")


def local_split_matrices(alg: QuaternionAlgebra, p: int, prec: int):
    """Images of the frame 1, i, j, k in M2(Z/p^prec) under a splitting at p.

    The model sends V to diag(sqrt(s), -sqrt(s)) and W to [[0, t], [1, 0]]
    where s = V^2, t = W^2; the frame is recovered by exact linear algebra,
    whose denominators must be prime to p.
    """
    mod = p**prec
    v_cand, w_cand, basis = _pure_split_pair(alg, p)
    s, t = -alg.nr(v_cand), -alg.nr(w_cand)
    rs = _hensel_sqrt(int(s) % mod, p, prec)
    img = {
        0: ((1, 0), (0, 1)),
        1: ((rs, 0), (0, -rs % mod)),
        2: ((0, int(t) % mod), (1, 0)),
    }
    img[3] = _mat_mul(img[1], img[2], mod)
    inv = _mat_inverse([list(r) for r in basis])
    frames = []
    for r in range(4):
        acc = ((0, 0), (0, 0))
        for sdx in range(4):
            c = inv[r][sdx]
            if c.denominator % p == 0:
                raise ValueError("splitting basis change not p-integral")
            ci = c.numerator * pow(c.denominator, -1, mod) % mod
            acc = _mat_add(acc, _mat_scale(img[sdx], ci, mod), mod)
        frames.append(acc)
    a, b = alg.a_h, alg.b_h
    assert _mat_mul(frames[1], frames[1], mod) == _mat_scale(img[0], a, mod)
    assert _mat_mul(frames[2], frames[2], mod) == _mat_scale(img[0], b, mod)
    assert _mat_mul(frames[1], frames[2], mod) == frames[3]
    return frames


def _mat_mul(x, y, mod):
    return tuple(tuple(sum(x[r][k] * y[k][c] for k in range(2)) % mod
                       for c in range(2)) for r in range(2))


def _mat_add(x, y, mod):
    return tuple(tuple((x[r][c] + y[r][c]) % mod for c in range(2))
                 for r in range(2))


def _mat_scale(x, f, mod):
    return tuple(tuple(x[r][c] * f % mod for c in range(2)) for r in range(2))


@dataclass
class TidyLattice:
    """Sublattice of a maximal order; rows of `coords` are the basis in
    order coordinates.  shape = last three elementary divisors of the index
    matrix (the first is 1 because the lattice contains 1)."""

    order: RationalOrder
    coords: list[list[int]]
    index: int
    shape: tuple[int, int, int]

    @property
    def is_tidy(self) -> bool:
        m1, m2, m3 = self.shape
        return self.index == m1 * m2 * m3 and (m1 * m2) % m3 == 0

    def basis_in_frame(self):
        return [self.order.element(row) for row in self.coords]

    def contains(self, order_coords) -> bool:
        inv = _mat_inverse([[Fraction(v) for v in row] for row in self.coords])
        sol = [sum(Fraction(order_coords[k]) * inv[k][j] for k in range(4))
               for j in range(4)]
        return all(c.denominator == 1 for c in sol)


def lattice_shape(coords) -> tuple[int, int, int]:
    divs = smith_divisors(coords)
    if divs[0] != 1:
        raise AssertionError("lattice does not contain a unimodular vector")
    return tuple(divs[1:])


def build_tidy_lattice(order: RationalOrder, plan: dict[int, int]) -> TidyLattice:
    """Impose, at each planned split odd prime, the local model whose
    off-diagonal entries vanish mod p^r; the local shape is (1, p^r, p^r)."""
    alg = order.algebra
    current = [[int(i == j) for j in range(4)] for i in range(4)]
    for p in sorted(plan):
        r = plan[p]
        if p == 2 or alg.discriminant % p == 0:
            raise ValueError(f"plan prime {p} must be odd and split")
        if r < 1:
            raise ValueError("plan exponents must be >= 1")
        prec = 2 * r + 2
        mod_r = p**r
        frames = local_split_matrices(alg, p, prec)
        rows = []
        for vec in current:
            frame_vec = order.element(vec)
            acc = ((0, 0), (0, 0))
            for idx in range(4):
                c = frame_vec[idx]
                ci = c.numerator * pow(c.denominator, -1, p**prec) % p**prec
                acc = _mat_add(acc, _mat_scale(frames[idx], ci, p**prec), p**prec)
            rows.append((acc[0][1] % mod_r, acc[1][0] % mod_r))
        a_mat = [[rows[k][0] for k in range(4)], [rows[k][1] for k in range(4)]]
        _, d, v = smith_normal_form(a_mat)
        scale = [mod_r // math.gcd(d[t][t], mod_r) if t < 2 else 1
                 for t in range(4)]
        gen = [[v[r][c] * scale[c] for c in range(4)] for r in range(4)]
        # rows of gen^T are the kernel generators in current-basis coordinates
        gen_rows = [[gen[r][c] for r in range(4)] for c in range(4)]
        if abs(_int_det([[Fraction(x) for x in row] for row in gen_rows])) \
                != p ** (2 * r):
            raise AssertionError("local conditions did not cut index p^(2r)")
        current = [[sum(g[k] * current[k][j] for k in range(4)) for j in range(4)]
                   for g in gen_rows]
    index = abs(int(_int_det([[Fraction(x) for x in row] for row in current])))
    lat = TidyLattice(order, current, index, lattice_shape(current))
    if math.prod(p ** (2 * r) for p, r in plan.items()) != index:
        raise AssertionError("index does not match the plan")
    if not lat.is_tidy:
        raise AssertionError("constructed lattice is not tidy")
    return lat


# -- hyperbolic geometry and counting ----------------------------------------

@dataclass(frozen=True)
class UpperHalfPoint:
    x: Fraction
    y: Fraction

    def __post_init__(self):
        if self.y <= 0:
            raise ValueError("imaginary part must be positive")

    def u(self, other: "UpperHalfPoint") -> Fraction:
        dx, dy = self.x - other.x, self.y - other.y
        return (dx * dx + dy * dy) / (4 * self.y * other.y)


class QuadRat:
    """Exact r + s*sqrt(d) arithmetic for the distance filter."""

    __slots__ = ("r", "s", "d")

    def __init__(self, r, s, d: int):
        self.r, self.s, self.d = Fraction(r), Fraction(s), d

    def __add__(self, o):
        return QuadRat(self.r + o.r, self.s + o.s, self.d)

    def __sub__(self, o):
        return QuadRat(self.r - o.r, self.s - o.s, self.d)

    def __mul__(self, o):
        if isinstance(o, QuadRat):
            return QuadRat(self.r * o.r + self.d * self.s * o.s,
                           self.r * o.s + self.s * o.r, self.d)
        return QuadRat(self.r * o, self.s * o, self.d)

    def sign(self) -> int:
        if self.s == 0:
            return (self.r > 0) - (self.r < 0)
        if self.r == 0:
            return (self.s > 0) - (self.s < 0)
        if self.r > 0 and self.s > 0:
            return 1
        if self.r < 0 and self.s < 0:
            return -1
        big = self.r * self.r - self.d * self.s * self.s
        if big == 0:
            return 0
        return (big > 0) - (big < 0) if self.r > 0 else ((big < 0) - (big > 0))

    def leq_rational(self, bound) -> bool:
        return (self - QuadRat(bound, 0, self.d)).sign() <= 0

    def to_float(self) -> float:
        return float(self.r) + float(self.s) * math.sqrt(self.d)


def _iota_inf_exact(alg: QuaternionAlgebra, frame_vec):
    """Entries of the real splitting as exact r + s*sqrt(a_h) pairs."""
    a, b = alg.a_h, alg.b_h
    x0, x1, x2, x3 = (Fraction(v) for v in frame_vec)
    return (QuadRat(x0, x1, a), QuadRat(b * x2, b * x3, a),
            QuadRat(x2, -x3, a), QuadRat(x0, -x1, a))


def iota_inf(alg: QuaternionAlgebra, frame_vec) -> np.ndarray:
    entries = _iota_inf_exact(alg, frame_vec)
    m = [e.to_float() for e in entries]
    return np.array([[m[0], m[1]], [m[2], m[3]]])


def _distance_ok(alg, frame_vec, z: UpperHalfPoint, delta: Fraction,
                 norm_value: int) -> bool:
    """Exact check of u(g z, z) <= delta for det g = norm_value > 0."""
    a_e, b_e, c_e, d_e = _iota_inf_exact(alg, frame_vec)
    x, y = z.x, z.y
    # numerator of gz - z over Cz + D evaluated exactly
    re = a_e * x + b_e - c_e * (x * x - y * y) - d_e * x
    im = (a_e - c_e * (2 * x) - d_e) * y
    lhs = re * re + im * im
    return lhs.leq_rational(4 * Fraction(norm_value) * y * y * delta)


def _frobenius_form(lattice: TidyLattice, z: UpperHalfPoint):
    """The conjugated Frobenius form ||h(c)||^2 on lattice coordinates, exact
    over Z[sqrt(a_h)]: integer matrices G_r, G_s (object arrays) and a
    denominator den with ||h(c)||^2 = (c^T G_r c + sqrt(a_h) c^T G_s c) / den.
    For nr(c) = m it equals 2 m (1 + 2 u(g z, z))."""
    alg = lattice.order.algebra
    x, y = z.x, z.y
    h = []
    for vec in lattice.basis_in_frame():
        a_e, b_e, c_e, d_e = _iota_inf_exact(alg, vec)
        h.append((a_e - c_e * x,
                  (a_e * x + b_e - c_e * (x * x) - d_e * x) * (1 / y),
                  c_e * y, c_e * x + d_e))
    zero = QuadRat(0, 0, alg.a_h)
    gram = [[sum((u * v for u, v in zip(hk, hl)), zero) for hl in h] for hk in h]
    den = math.lcm(*[q.denominator for row in gram for e in row
                     for q in (e.r, e.s)])
    g_r = np.array([[int(e.r * den) for e in row] for row in gram], dtype=object)
    g_s = np.array([[int(e.s * den) for e in row] for row in gram], dtype=object)
    return g_r, g_s, den


def _counting_data(lattice: TidyLattice, z: UpperHalfPoint):
    """Float Gram matrix of the conjugated Frobenius form, rounded from the
    exact form, plus the exact integer norm form on lattice coordinates and
    the exact form itself."""
    alg = lattice.order.algebra
    form = _frobenius_form(lattice, z)
    g_r, g_s, g_den = form
    gram = (g_r.astype(float) + math.sqrt(alg.a_h) * g_s.astype(float)) / g_den
    basis_frame = lattice.basis_in_frame()
    # exact norm form: nr(sum c_k e_k) = c^T F c
    f = [[Fraction(0)] * 4 for _ in range(4)]
    for r in range(4):
        for s in range(4):
            both = tuple(u + v for u, v in zip(basis_frame[r], basis_frame[s]))
            f[r][s] = (alg.nr(both) - alg.nr(basis_frame[r])
                       - alg.nr(basis_frame[s])) / 2
    den = math.lcm(*[v.denominator for row in f for v in row])
    f_int = np.array([[int(v * den) for v in row] for row in f], dtype=np.int64)
    return gram, f_int, den, basis_frame, form


def _ellipsoid_points(gram: np.ndarray, bound: float) -> np.ndarray:
    """Integer vectors with c^T gram c <= bound, one of each +-c pair (the
    last nonzero coordinate is positive); c = 0 excluded.  The innermost
    coordinate is materialised as a contiguous range."""
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
        lim = math.sqrt(rem3) / r22
        for c2 in range(math.ceil(-lim - off2 / r22 - eps),
                        math.floor(lim - off2 / r22 + eps) + 1):
            if c3 == 0 and c2 < 0:
                continue
            rem2 = rem3 - (off2 + c2 * r22) ** 2
            if rem2 < 0:
                continue
            off1 = c3 * chol[1, 3] + c2 * chol[1, 2]
            lim = math.sqrt(rem2) / r11
            for c1 in range(math.ceil(-lim - off1 / r11 - eps),
                            math.floor(lim - off1 / r11 + eps) + 1):
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


def _candidates_with_norms(lattice: TidyLattice, z: UpperHalfPoint, delta,
                           norms) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Enumerate one representative per +-pair inside the converted ellipsoid
    for the largest requested norm and keep those whose exact reduced norm is
    in `norms`; returns (rows, norm values, exact Frobenius form)."""
    gram, f_int, den, _, form = _counting_data(lattice, z)
    norms = sorted(set(int(m) for m in norms))
    if norms and norms[0] < 1:
        raise ValueError("norm values must be >= 1")
    if not norms:
        return np.empty((0, 4), dtype=np.int64), np.empty(0, dtype=np.int64), form
    bound = float((4 * Fraction(delta) + 2) * norms[-1])
    cands = _ellipsoid_points(gram, bound)
    if len(cands) == 0:
        return cands, np.empty(0, dtype=np.int64), form
    scaled = np.einsum("ij,jk,ik->i", cands, f_int, cands)
    keep = np.isin(scaled, den * np.array(norms, dtype=np.int64))
    return cands[keep], scaled[keep] // den, form


def _sqrt_sum_nonpositive(u: np.ndarray, v: np.ndarray, a: int) -> np.ndarray:
    """Exact u + v*sqrt(a) <= 0, elementwise, for integer arrays and a > 0."""
    uu, avv = u * u, a * v * v
    return np.where(u <= 0, (v <= 0) | (uu >= avv), (v < 0) & (uu <= avv))


def _distance_ok_rows(form, a: int, delta, rows: np.ndarray,
                      m_vals: np.ndarray) -> np.ndarray:
    """Exact u(g z, z) <= delta for each row of lattice coordinates, g of
    reduced norm m_vals > 0, with `form` = (G_r, G_s, den) from
    `_frobenius_form` and a = a_h.  For det g = m this is the Frobenius bound
    ||h||^2 <= (4 delta + 2) m, decided over Z[sqrt(a)] by sign rules on
    Python integers (object arrays), so no size of rows can overflow."""
    g_r, g_s, den = form
    ratio = 4 * Fraction(delta) + 2
    # den * ratio.denominator * (||h||^2 - ratio m) = u + v sqrt(a)
    c = rows.astype(object)
    u = ratio.denominator * ((c @ g_r) * c).sum(axis=1) \
        - ratio.numerator * den * m_vals.astype(object)
    v = ratio.denominator * ((c @ g_s) * c).sum(axis=1)
    return _sqrt_sum_nonpositive(u, v, a)


def count_lattice_points(lattice: TidyLattice, z: UpperHalfPoint, delta,
                         norm_value: int) -> int:
    """#{alpha in the lattice : nr(alpha) = norm_value, u(z, alpha z) <= delta},
    exact (float enumeration bound, exact norm and distance filters)."""
    delta = Fraction(delta)
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if norm_value < 1:
        raise ValueError("norm value must be >= 1")
    return norm_histogram(lattice, z, delta, [norm_value])[norm_value]


def count_lattice_points_box(lattice: TidyLattice, z: UpperHalfPoint, delta,
                             norm_value: int) -> int:
    """Independent enumerator: axis-aligned box from the inverse Gram, full
    scan, same exact filters."""
    delta = Fraction(delta)
    gram, f_int, den, basis_frame, _ = _counting_data(lattice, z)
    bound = float((4 * delta + 2) * norm_value) * (1 + 1e-9) + 1e-9
    inv = np.linalg.inv(gram)
    lims = [int(math.floor(math.sqrt(bound * inv[k, k]) + 1e-9)) for k in range(4)]
    alg = lattice.order.algebra
    count = 0
    for c0 in range(-lims[0], lims[0] + 1):
        for c1 in range(-lims[1], lims[1] + 1):
            for c2 in range(-lims[2], lims[2] + 1):
                for c3 in range(-lims[3], lims[3] + 1):
                    arr = np.array((c0, c1, c2, c3), dtype=np.int64)
                    if not arr.any():
                        continue
                    if arr @ f_int @ arr != den * norm_value:
                        continue
                    if float(arr @ gram @ arr) > bound:
                        continue
                    frame_vec = tuple(
                        sum(Fraction(int(arr[k])) * basis_frame[k][idx]
                            for k in range(4)) for idx in range(4))
                    if _distance_ok(alg, frame_vec, z, delta, norm_value):
                        count += 1
    return count


def norm_histogram(lattice: TidyLattice, z: UpperHalfPoint, delta,
                   norms) -> dict[int, int]:
    """Counts for every requested norm value in one enumeration pass."""
    delta = Fraction(delta)
    norms = sorted(set(int(m) for m in norms))
    rows, m_vals, form = _candidates_with_norms(lattice, z, delta, norms)
    ok = _distance_ok_rows(form, lattice.order.algebra.a_h, delta, rows, m_vals)
    accepted = m_vals[ok]
    hist = dict.fromkeys(norms, 0)
    values, counts = np.unique(accepted, return_counts=True)
    hist.update(zip(values.tolist(), (2 * counts).tolist()))  # +-alpha pairs
    return hist


def counting_bound_report(lattice: TidyLattice, z: UpperHalfPoint, delta,
                          l_budget: int) -> dict:
    """Sum of counts over norms <= L and over squares m^2 (m <= L), with the
    growth-shape ratios against L + L^2/N and L + L^3/N, from one enumeration;
    "histogram" holds the counts for norms 1..L.  A smoke test of the growth
    shape; no claim about the implied constant."""
    n_index = lattice.index
    budget = range(1, l_budget + 1)
    hist = norm_histogram(lattice, z, delta,
                          set(budget) | {m * m for m in budget})
    sum1 = sum(hist[m] for m in budget)
    sum2 = sum(hist[m * m] for m in budget)
    bd1 = l_budget + Fraction(l_budget**2, n_index)
    bd2 = l_budget + Fraction(l_budget**3, n_index)
    return {
        "N": n_index, "L": l_budget, "sum_counts": sum1,
        "sum_square_norm_counts": sum2,
        "ratio_bd1": sum1 / float(bd1), "ratio_bd2": sum2 / float(bd2),
        "histogram": {m: hist[m] for m in budget},
    }


# -- exponent arithmetic for the global bounds --------------------------------

def supnorm_exponent(eta1, delta, eta2) -> Fraction:
    """delta/2 + eta1/2 - eta2/6, exact."""
    eta1, delta, eta2 = Fraction(eta1), Fraction(delta), Fraction(eta2)
    if not 0 <= eta1 <= eta2:
        raise ValueError("need 0 <= eta1 <= eta2")
    return delta / 2 + eta1 / 2 - eta2 / 6


def depth_exponent(eta1, delta, eta2) -> Fraction:
    """Depth-aspect version of the sup-norm exponent (conductor ~ square of
    the depth parameter)."""
    return supnorm_exponent(eta1, delta, eta2) / 2


def filtration_schedule(a1_map: dict[int, int], eta1, eta2):
    """Per-prime arithmetic progressions eta1 -> eta2 of length a1+1, plus
    the amplifier length exponent eta2/3."""
    eta1, eta2 = Fraction(eta1), Fraction(eta2)
    schedule = {}
    for p, a1 in a1_map.items():
        if a1 < 1:
            raise ValueError("a1 must be >= 1")
        step = (eta2 - eta1) / a1
        schedule[p] = [eta1 + k * step for k in range(a1 + 1)]
    return schedule, eta2 / 3
