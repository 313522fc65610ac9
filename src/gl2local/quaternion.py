"""Rational quaternion algebras and hyperbolic lattice-point counting.

Covers: Hilbert symbols and discriminants, maximal-order certificates via the
trace form, sublattices with planned local shapes at split odd primes (cut
out by elimination mod p^r on two coordinates of a local splitting basis,
the shape read from determinantal divisors), exact point counts in
hyperbolic balls with prescribed reduced norm (the norm equation solved
exactly on each lattice line through the ellipsoid, after Fincke and Pohst,
Math. Comp. 44 (1985)), and the exact-rational exponent arithmetic for the
global bounds.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

import numpy as np

from .errors import BudgetError, ConstructionError, PrecisionError, int_text
from .residue import check_modulus_bits, factorize, is_prime, legendre, padic_valuation

ENUMERATION_BUDGET = 10**7
FILTRATION_LEVEL_BUDGET = 10**5


# -- Hilbert symbols ---------------------------------------------------------

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
    return sign * legendre(u, p) ** beta * legendre(v, p) ** alpha


def ramified_primes(a: int, b: int) -> list[int]:
    """Finite ramified places; the product formula is asserted as a check."""
    places = {2} | {q for n in (a, b) for q, _ in factorize(abs(n))}
    ram = sorted(p for p in places if local_hilbert_symbol(a, b, p) == -1)
    total = len(ram) + (1 if local_hilbert_symbol(a, b, math.inf) == -1 else 0)
    assert total % 2 == 0, "Hilbert symbol product formula violated"
    return ram


# -- the algebra and its orders ----------------------------------------------

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

    def mul(self, x, y) -> tuple:
        a, b = self.a_h, self.b_h
        x0, x1, x2, x3 = x
        y0, y1, y2, y3 = y
        return (
            x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
            x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
        )

    def tr(self, x):
        return 2 * x[0]

    def nr(self, x):
        a, b = self.a_h, self.b_h
        x0, x1, x2, x3 = x
        return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3


def _cleared(rows) -> tuple[list[list[int]], int]:
    """Rows of rationals (ints or Fractions) as integer rows over their least
    common denominator, by cross-multiplication."""
    den = math.lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (den // v.denominator) for v in row] for row in rows], den


def _lowest_terms(den: int, *mats):
    """Integer matrices over `den` divided by the gcd of den and every entry:
    (*mats, den) with den the least common denominator of the quotients."""
    g = math.gcd(den, *(v for m in mats for v in m.flat))
    return (*(m // g for m in mats), den // g)


def _eliminate(aug, n: int) -> tuple[int, list[list[int]]]:
    """Fraction-free Gauss-Jordan elimination of the integer rows aug =
    [A | B], A square of size n (Bareiss, Math. Comp. 22 (1968)): each step
    divides exactly by the previous pivot, and the rows end as
    [det A I | adj(A) B].  (0, []) for a singular A."""
    prev, sign = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if aug[r][k]), None)
        if piv is None:
            return 0, []
        if piv != k:
            aug[k], aug[piv] = aug[piv], aug[k]
            sign = -sign
        top = aug[k]
        for i, row in enumerate(aug):
            if i != k:
                f = row[k]
                aug[i] = [(top[k] * v - f * w) // prev for v, w in zip(row, top)]
        prev = top[k]
    # the rows are [d I | d A^-1 B] with d = prev = sign det A
    return sign * prev, [[sign * v for v in row] for row in aug]


def _det_adjugate(rows) -> tuple[int, list[list[int]]]:
    """Determinant and adjugate of a square integer matrix, `_eliminate`
    on [A | I].  ValueError for a singular matrix."""
    n = len(rows)
    det, aug = _eliminate([[*row, *(int(i == r) for i in range(n))]
                           for r, row in enumerate(rows)], n)
    if not det:
        raise ValueError("singular matrix")
    return det, [row[n:] for row in aug]


class RationalOrder:
    """An order held as an integer basis over one denominator: the rows of
    `basis` / `den` over the 1, i, j, k frame.  Construction takes rational
    rows (ints or Fractions) and checks that 1 is in the lattice and that it
    is closed under multiplication."""

    def __init__(self, algebra: QuaternionAlgebra, basis_rows):
        self.algebra = algebra
        if len(basis_rows) != 4:
            raise ValueError("an order needs 4 basis vectors")
        self.basis, self.den = _cleared(basis_rows)
        self._det, self._adj = _det_adjugate(self.basis)
        if not self._contains((1, 0, 0, 0), 1):
            raise ValueError("order does not contain 1")
        for x in self.basis:
            for y in self.basis:
                if not self._contains(self.algebra.mul(x, y), self.den**2):
                    raise ValueError("basis is not closed under multiplication")

    def _contains(self, vec, vec_den: int) -> bool:
        """Whether the frame vector vec / vec_den is in the order: its
        coordinates are vec adj(basis) den / (vec_den det(basis))."""
        mod = vec_den * self._det
        return all(sum(v * row[j] for v, row in zip(vec, self._adj)) * self.den
                   % mod == 0 for j in range(4))

    def element(self, coords) -> tuple:
        """The frame numerators, over `den`, of the element with these
        integer coordinates."""
        return tuple(sum(c * row[j] for c, row in zip(coords, self.basis))
                     for j in range(4))

    def reduced_discriminant(self) -> int:
        # the trace form of the integer basis is den^2 times the order's
        t = [[self.algebra.tr(self.algebra.mul(x, y)) for y in self.basis]
             for x in self.basis]
        d = abs(_det_adjugate(t)[0]) // self.den**8
        root = math.isqrt(d)
        if root * root != d:
            raise AssertionError("trace form determinant is not a square")
        return root


def verify_maximal_order(order: RationalOrder) -> bool:
    """Maximality certificate: the reduced discriminant of the order equals
    the algebra discriminant."""
    return order.reduced_discriminant() == order.algebra.discriminant


@functools.cache
def algebra_specs() -> dict:
    """Name -> {"hilbert": pair, "max_order": rows as text} from the packaged
    fixture file; nothing is built or certified."""
    text = resources.files("gl2local").joinpath("data/algebras.json").read_text()
    return json.loads(text)


@functools.cache
def load_algebra(name: str):
    """The named (algebra, verified maximal order) pair, built and certified
    once per process; callers must not change it.  KeyError for a name
    that `algebra_specs` does not have."""
    spec = algebra_specs()[name]
    alg = QuaternionAlgebra(*spec["hilbert"])
    order = RationalOrder(alg, [[Fraction(v) for v in row]
                                for row in spec["max_order"]])
    if not verify_maximal_order(order):
        raise AssertionError(f"fixture {name} failed the maximality check")
    return alg, order


def load_algebra_fixtures() -> dict:
    """Every named (algebra, verified maximal order) pair."""
    return {name: load_algebra(name) for name in algebra_specs()}


# -- local splittings and tidy lattices --------------------------------------

def _pure_split_pair(alg: QuaternionAlgebra, p: int):
    """Integer-coordinate pure quaternions V, W with s = V^2 a unit square
    mod p, t = W^2 a unit mod p, VW = -WV and the basis 1, V, W, VW of
    determinant prime to p; returns the adjugate and the determinant of that
    basis (rows over the 1, i, j, k frame)."""
    def square(x):
        return -alg.nr(x)  # V pure => V^2 = -nr(V)

    def anticommute(x, y):
        return alg.nr(tuple(u + w for u, w in zip(x, y))) \
            == alg.nr(x) + alg.nr(y)

    pures = sorted(((0, *x) for x in itertools.product(range(-2, 3), repeat=3)
                    if any(x)), key=lambda v: sum(map(abs, v)))
    for v_cand in pures:
        if legendre(square(v_cand), p) != 1:
            continue
        for w_cand in pures:
            if square(w_cand) % p == 0 or not anticommute(v_cand, w_cand):
                continue
            det, adj = _det_adjugate([(1, 0, 0, 0), v_cand, w_cand,
                                      alg.mul(v_cand, w_cand)])
            if det % p:
                return adj, det
    raise ConstructionError(f"no splitting strategy found for p={p}")


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

    def frames(self) -> list[tuple]:
        """The basis over the 1, i, j, k frame, as numerators over order.den."""
        return [self.order.element(row) for row in self.coords]

    def basis_in_frame(self) -> list[tuple]:
        """The basis over the 1, i, j, k frame as rational rows."""
        den = self.order.den
        return [tuple(Fraction(v, den) for v in row) for row in self.frames()]


def lattice_shape(coords) -> tuple[int, int, int]:
    """Last three elementary divisors of the nonsingular 4 x 4 integer matrix
    `coords`, d_k = D_k / D_(k-1) with D_k the gcd of its k x k minors (the
    determinantal divisors: Cohen, A Course in Computational Algebraic
    Number Theory, 2.4); AssertionError unless d_1 = 1."""
    dets = [1]
    for k in range(1, 5):
        picks = list(itertools.combinations(range(4), k))
        dets.append(math.gcd(*(_eliminate([[coords[r][c] for c in cols]
                                           for r in rows], k)[0]
                               for rows in picks for cols in picks)))
    d = [b // a for a, b in zip(dets, dets[1:])]
    if d[0] != 1:
        raise AssertionError("lattice does not contain a unimodular vector")
    return d[1], d[2], d[3]


def _kernel_mod(forms, mod: int) -> list[list[int]]:
    """A basis of {x in Z^n : f.x = 0 mod `mod` for each row f of `forms`}.
    Gauss-Jordan mod `mod` gives each form a unit pivot at its own column,
    zero at the other pivots; the rows, in column order, are mod e_j at each
    pivot j and e_k minus its centred pivot multiples at each other column k.
    AssertionError if a form has no unit pivot left (index below mod^2)."""
    rows, pivots = [list(f) for f in forms], []
    for i, row in enumerate(rows):
        j = next((j for j, x in enumerate(row) if math.gcd(x, mod) == 1), None)
        if j is None:
            raise AssertionError(f"local conditions mod {mod} are not independent")
        unit = pow(row[j], -1, mod)
        rows[i] = row = [x * unit % mod for x in row]
        for other in range(len(rows)):
            if other != i:
                f = rows[other][j]
                rows[other] = [(x - f * y) % mod for x, y in zip(rows[other], row)]
        pivots.append(j)
    n = len(rows[0])
    basis = [[int(i == k) for i in range(n)] for k in range(n)]
    for k, vec in enumerate(basis):
        if k in pivots:
            vec[k] = mod
        else:
            for row, j in zip(rows, pivots):
                vec[j] = -row[k] if 2 * row[k] <= mod else mod - row[k]
    return basis


def build_tidy_lattice(order: RationalOrder, plan: dict[int, int]) -> TidyLattice:
    """The vectors of `order` whose image under a splitting at each planned
    split odd prime p has off-diagonal entries = 0 mod p^r, r = plan[p]; the
    local shape is (1, p^r, p^r).  With V, W from `_pure_split_pair`, s = V^2
    and t = W^2, the splitting V -> diag(sqrt s, -sqrt s), W -> [[0, t],
    [1, 0]] gives c0 + c1 V + c2 W + c3 VW the off-diagonal entries
    t (c2 + sqrt(s) c3) and c2 - sqrt(s) c3.  As p is odd and t, sqrt s are
    units, both vanish mod p^r iff c2 = c3 = 0 mod p^r, which `_kernel_mod`
    imposes on the current basis, one prime at a time in sorted order."""
    alg = order.algebra
    current = [[int(i == j) for j in range(4)] for i in range(4)]
    for p in sorted(plan):
        r = plan[p]
        if p == 2 or not is_prime(p) or alg.discriminant % p == 0:
            raise ValueError(f"plan prime {p} must be an odd split prime")
        if r < 1:
            raise ValueError("plan exponents must be >= 1")
        # refused before elimination: the float Gram guard refuses past 1023 bits
        check_modulus_bits("quaternion tidy lattice", p, r)
        mod = p**r
        adj, det = _pure_split_pair(alg, p)
        # (c2, c3) of each current vector on the basis 1, V, W, VW, mod p^r:
        # its frame numerators times adj / (den det)
        unit = pow(order.den * det, -1, mod)
        frames = [order.element(vec) for vec in current]
        forms = [[sum(x * row[col] for x, row in zip(frame, adj)) * unit % mod
                  for frame in frames] for col in (2, 3)]
        current = [[sum(v * row[j] for v, row in zip(vec, current)) for j in range(4)]
                   for vec in _kernel_mod(forms, mod)]
    shape = lattice_shape(current)
    lat = TidyLattice(order, current, math.prod(shape), shape)
    if math.prod(p ** (2 * r) for p, r in plan.items()) != lat.index:
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


def _iota_inf_exact(alg: QuaternionAlgebra, frames):
    """Entries (a, b, c, d) of the real splitting of each frame row x, exact
    as R + S*sqrt(a_h) with R, S object arrays of shape (rows, 4):
    a = x0 + x1 r, b = b_h (x2 + x3 r), c = x2 - x3 r, d = x0 - x1 r."""
    x0, x1, x2, x3 = np.asarray(frames, dtype=object).reshape(-1, 4).T
    b = alg.b_h
    return (np.stack([x0, b * x2, x2, x0], axis=1),
            np.stack([x1, b * x3, -x3, -x1], axis=1))


def _distance_ok(alg, frames, z: UpperHalfPoint, delta, m_vals) -> np.ndarray:
    """Exact u(g z, z) <= delta for the real splitting g of each row of
    `frames` (rational: ints or Fractions), det g = m_vals > 0, by the direct
    formula |a z + b - z (c z + d)|^2 <= 4 m y^2 delta; independent of
    `_frobenius_form`.  The denominators are cleared by cross-multiplication
    (g -> e g scales both sides by e^2), and the test runs on Python
    integers."""
    rows, e = _cleared(np.asarray(frames, dtype=object).reshape(-1, 4))
    [[x, y]], l = _cleared([[z.x, z.y]])
    dn, dd = delta.as_integer_ratio()
    # l^2 (real, imaginary) part of a z + b - z (c z + d) from (a, b, c, d)
    parts = np.array([[l * x, l * y], [l * l, 0], [y * y - x * x, -2 * x * y],
                      [-l * x, -l * y]], dtype=object)
    r, s = _iota_inf_exact(alg, rows)
    (re_r, im_r), (re_s, im_s) = (r @ parts).T, (s @ parts).T
    a = alg.a_h
    # both sides times (e l^2)^2 dd
    bound = 4 * dn * (e * l * y) ** 2 * np.asarray(m_vals).astype(object)
    u = dd * (re_r * re_r + a * re_s * re_s + im_r * im_r + a * im_s * im_s) - bound
    return _sqrt_sum_nonpositive(u, 2 * dd * (re_r * re_s + im_r * im_s), a)


def _frobenius_form(lattice: TidyLattice, z: UpperHalfPoint):
    """The conjugated Frobenius form ||h(c)||^2 on lattice coordinates, exact
    over Z[sqrt(a_h)]: integer matrices G_r, G_s (object arrays) and the
    least denominator den with ||h(c)||^2 = (c^T G_r c + sqrt(a_h) c^T G_s c)
    / den.  For nr(c) = m it equals 2 m (1 + 2 u(g z, z))."""
    alg = lattice.order.algebra
    [[x, y]], l = _cleared([[z.x, z.y]])
    # l y h, with z = (x + y i) / l, from (a, b, c, d): h = (a - c z_x,
    # (a z_x + b - c z_x^2 - d z_x) / z_y, c z_y, c z_x + d)
    t_z = np.array([[l * y, l * x, 0, 0], [0, l * l, 0, 0],
                    [-x * y, -x * x, y * y, x * y], [0, -l * x, 0, l * y]],
                   dtype=object)
    r, s = _iota_inf_exact(alg, lattice.frames())
    h_r, h_s = r @ t_z, s @ t_z
    g_r = h_r @ h_r.T + alg.a_h * (h_s @ h_s.T)
    g_s = h_r @ h_s.T + h_s @ h_r.T
    # the frames are den times the basis, so h is (den l y) times the true one
    return _lowest_terms((lattice.order.den * l * y) ** 2, g_r, g_s)


def _counting_data(lattice: TidyLattice, z: UpperHalfPoint):
    """Float Gram matrix of the conjugated Frobenius form, rounded from the
    exact form, plus the exact integer norm form on lattice coordinates, its
    denominator and the exact form.  BudgetError for entries too wide for
    float or int64, PrecisionError for a float Gram matrix with an eigenvalue
    <= 0 or no Cholesky factor, as neither enumerator can use those."""
    alg = lattice.order.algebra
    form = _frobenius_form(lattice, z)
    g_r, g_s, g_den = form
    _check_bits("float Gram matrix", [*g_r.flat, *g_s.flat, g_den], 1023)
    gram = (g_r.astype(float) + math.sqrt(alg.a_h) * g_s.astype(float)) / g_den
    try:
        usable = np.linalg.eigvalsh(gram)[0] > 0
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        usable = False
    if not usable:
        raise PrecisionError(f"quaternion counting form: float Gram matrix at "
                             f"z = {z.x} + {z.y}i is not positive definite")
    # exact norm form: nr(sum c_k e_k) = c^T F c, F = E diag(1, -a, -b, ab) E^T
    e = np.array(lattice.frames(), dtype=object)
    a, b = alg.a_h, alg.b_h
    f_int, den = _lowest_terms(lattice.order.den ** 2,
                               (e * np.array([1, -a, -b, a * b], dtype=object)) @ e.T)
    _check_bits("norm form", f_int.flat, 63)
    return gram, f_int.astype(np.int64), den, form


def _check_bits(layer: str, values, limit: int) -> None:
    """BudgetError if an integer of `values` has more than `limit` bits."""
    bits = max(abs(int(v)).bit_length() for v in values)
    if bits > limit:
        raise BudgetError(f"quaternion {layer}: entries of {bits} bits exceed "
                          f"the budget of {limit} bits")


def _ellipsoid_lines(gram: np.ndarray, bound: float):
    """The (c1, c2, c3) lines through the ellipsoid c^T gram c <= bound, in
    order of c3, c2, c1, with the range [lo, hi] of c0 on each; one of each
    +-c pair (the last nonzero coordinate is positive), c = 0 excluded.
    One walk down the levels k = 3, 2, 1, 0 of the float Cholesky factor R:
    c_k runs from ceil((-sqrt(rem) - off) / R[k, k] - eps) to floor((sqrt(rem)
    - off) / R[k, k] + eps), off = sum_{j>k} R[k, j] c_j and rem the bound
    the levels above leave, from 0 (1 at k = 0) where every c_j above is 0.
    A level is sized in float against ENUMERATION_BUDGET (BudgetError)
    before it is cast to int64 and expanded with np.repeat; the c0 ranges
    are returned, not expanded.  `_counting_data` checks `gram`."""
    eigs = np.linalg.eigvalsh(gram)
    chol = np.linalg.cholesky(gram + np.eye(4) * (eigs[0] * 1e-12)).T
    eps = 1e-9
    # c3, c2, ... of each partial vector, and the bound it leaves
    coords, rem = [], np.array([bound * (1 + 1e-9) + 1e-9])
    for k in (3, 2, 1, 0):
        diag = chol[k, k]
        off = sum((c * chol[k, 3 - j] for j, c in enumerate(coords)),
                  np.zeros(len(rem)))
        root = np.sqrt(rem)
        lo = np.ceil((-root - off) / diag - eps)
        hi = np.floor((root - off) / diag + eps)
        # np.any of no coordinates is False: at c3 every row is the origin
        lo = np.where(np.any(coords, axis=0), lo, np.maximum(lo, int(k == 0)))
        _check_budget(lo, hi)
        lo, hi = lo.astype(np.int64), hi.astype(np.int64)
        if k == 0:
            keep = lo <= hi
            return np.stack(coords[::-1], axis=1)[keep], lo[keep], hi[keep]
        parent, c = _expand(lo, hi)
        rem = rem[parent] - (off[parent] + c * diag) ** 2
        keep = rem >= 0
        coords = [v[parent[keep]] for v in coords] + [c[keep]]
        rem = rem[keep]


def _check_budget(lo: np.ndarray, hi: np.ndarray) -> None:
    """BudgetError naming the first running total of the range sizes
    max(hi - lo + 1, 0) of float limits past ENUMERATION_BUDGET: summed in
    float, so a limit past int64 is refused uncast, and printed exactly."""
    total = np.cumsum(np.maximum(hi - lo + 1, 0))
    if len(total) and total[-1] > ENUMERATION_BUDGET:
        i = int(np.argmax(total > ENUMERATION_BUDGET))
        rows = (int(total[i - 1]) if i else 0) + int(hi[i]) - int(lo[i]) + 1
        raise BudgetError(f"quaternion ellipsoid enumeration: {rows} rows "
                          f"exceed the budget of {ENUMERATION_BUDGET}")


# the squares mod 64: d >= 0 is a square only if _SQUARE_MOD_64[d & 63]
# (Cohen, Alg. 1.7.3)
_SQUARE_MOD_64 = np.zeros(64, dtype=bool)
_SQUARE_MOD_64[np.arange(64) ** 2 % 64] = True


def _expand(lo: np.ndarray, hi: np.ndarray):
    """(parent index, value) for every integer of each range [lo[i], hi[i]],
    in order."""
    n = np.maximum(hi - lo + 1, 0)
    parent = np.repeat(np.arange(len(lo)), n)
    start = np.cumsum(n) - n
    return parent, lo[parent] + np.arange(len(parent)) - start[parent]


def _isqrt_rows(d: np.ndarray) -> np.ndarray:
    """math.isqrt of every int64 d in [0, 2**62), from one float root.

    With r = isqrt(d) < 2**31, rounding is monotone, so the float root of d
    lies between the float roots of r^2 and (r + 1)^2.  Rounding r^2 to a
    float moves it by at most 2**-53 r^2, and its root by less than
    2**-54 r (1 + 2**-52).  For 2**e <= r < 2**(e + 1), e <= 30, that is
    below half the float spacing at r, 2**(e - 53), so the correctly
    rounded root of r^2 is exactly r, and that of (r + 1)^2 is r + 1.  The
    truncated root is r or r + 1: one downward step corrects it, and an
    upward step never fires.  (At d = 2**54 - 1 the float root is 2**27,
    and isqrt is 2**27 - 1.)"""
    s = np.sqrt(d.astype(float)).astype(np.int64)
    return s - (s * s > d)


def _solve_lines(f_int: np.ndarray, den: int, lines: np.ndarray,
                 lo: np.ndarray, hi: np.ndarray, norms: list[int]):
    """Rows (c0, c1, c2, c3) with c0 in [lo, hi] on their line and exact
    scaled norm c^T f_int c = den * m for some m in `norms` (sorted), in
    order of line and c0, with their m.  On a line the scaled norm is the
    integer quadratic F00 c0^2 + 2 B c0 + C, so a root c0 has s = F00 c0 + B
    with s^2 = K + F00 den m, K = B^2 - F00 C.  Each line tries only the
    norms whose discriminant lies in its window [min s^2, max s^2] over its
    c0 range (0 at the bottom where the s range crosses 0): one contiguous
    block of the sorted targets, found by np.searchsorted.  A pair goes to
    the integer square root only if its discriminant is a square mod 64
    (Cohen, Alg. 1.7.3); then the root, its divisibility by F00 and [lo, hi]
    are checked.  Every discriminant is at most the bound D = (F_max r)^2 +
    |F00| (F_max r^2 + den m_max), r the largest |c1| + |c2| + |c3|;
    BudgetError if D could pass 2**62.  Below it every root has |s| <=
    isqrt(D), so c0 is clipped to that before s is squared, and s^2, s^2 - K
    and the discriminants all stay inside int64."""
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
    k = b * b - f00 * c
    target = den * np.array(norms, dtype=np.int64)
    # |s| = |g c0 + bs| with g = |F00| > 0, increasing in c0; clip c0 to
    # |s| <= isqrt(D), and leave lines with nothing left at c0 = 0
    g, bs = (f00, b) if f00 > 0 else (-f00, -b)
    s_top = math.isqrt(disc_bound)
    c_lo = np.maximum(lo, -((s_top + bs) // g))
    c_hi = np.minimum(hi, (s_top - bs) // g)
    live = c_lo <= c_hi
    u_lo = g * np.where(live, c_lo, 0) + bs
    u_hi = g * np.where(live, c_hi, 0) + bs
    near = np.maximum(np.maximum(u_lo, -u_hi), 0)
    far = np.maximum(-u_lo, u_hi)
    # near^2 <= K + F00 t <= far^2 for the target t = den m
    low, high = near * near - k, far * far - k
    if f00 < 0:
        low, high = -high, -low
    first = np.searchsorted(target, -(-low // g))
    last = np.where(live, np.searchsorted(target, high // g, side="right"),
                    first)
    line, col = _expand(first, last - 1)
    d = k[line] + f00 * target[col]
    # only the pairs that pass the mod-64 square sieve reach the square root
    pair = np.flatnonzero((d >= 0) & _SQUARE_MOD_64[d & 63])
    d = d[pair]
    s = _isqrt_rows(d)
    square = np.flatnonzero(s * s == d)
    pair, s = pair[square], s[square]
    line, col = line[pair], col[pair]
    hits = []
    for num, distinct in ((s - b[line], True), (-s - b[line], s > 0)):
        c0 = num // f00
        ok = distinct & (num % f00 == 0) & (lo[line] <= c0) & (c0 <= hi[line])
        hits.append((line[ok], c0[ok], col[ok]))
    line, c0, col = (np.concatenate(v) for v in zip(*hits))
    # the order of np.lexsort((c0, line)) from one stable sort of a joint
    # key, fast as both runs ascend in line: |c0| <= 2 s_top < 2**32, so the
    # key fits int64 below 2**30 lines (ENUMERATION_BUDGET is 10**7)
    base = c0.min(initial=0)
    span = int(c0.max(initial=0)) - int(base) + 1
    order = np.argsort(line * span + (c0 - base), kind="stable")
    rows = np.column_stack((c0[order], lines[line[order]]))
    return rows, target[col[order]] // den


def _candidates(lattice: TidyLattice, z: UpperHalfPoint, delta, largest: int,
                norms) -> tuple[list[int], np.ndarray, np.ndarray, tuple]:
    """One representative per +-pair inside the converted ellipsoid of the
    norm `largest` whose exact reduced norm is in `norms` (distinct integers
    >= 1, ascending, the last `largest`), found by solving the norm
    equation on each (c1, c2, c3) line; returns (norms as a list, rows,
    norm values, exact Frobenius form).  BudgetError if the ellipsoid bound
    passes the float range or its rows pass ENUMERATION_BUDGET, both
    checked before `norms`, a range or an iterator, is listed."""
    gram, f_int, den, form = _counting_data(lattice, z)
    exact = (4 * Fraction(delta) + 2) * largest
    try:
        bound = float(exact)
    except OverflowError:
        raise BudgetError("quaternion ellipsoid enumeration: bound "
                          f"{int_text(math.floor(exact))} exceeds the float range") from None
    lines = _ellipsoid_lines(gram, bound)
    norms = list(norms)
    return (norms, *_solve_lines(f_int, den, *lines, norms), form)


def _histogram(lattice: TidyLattice, delta, norms, rows: np.ndarray,
               m_vals: np.ndarray, form) -> dict[int, int]:
    """Counts for every norm of `norms` from the candidate rows with their
    norm values, after the exact distance filter."""
    ok = _distance_ok_rows(form, lattice.order.algebra.a_h, delta, rows, m_vals)
    hist = dict.fromkeys(norms, 0)
    values, counts = np.unique(m_vals[ok], return_counts=True)
    hist.update(zip(values.tolist(), (2 * counts).tolist()))  # +-alpha pairs
    return hist


def _sqrt_sum_nonpositive(u: np.ndarray, v: np.ndarray, a: int) -> np.ndarray:
    """Exact u + v*sqrt(a) <= 0, elementwise, for integer or rational
    (object arrays of Fractions) u, v and an integer a > 0."""
    uu, avv = u * u, a * v * v
    return np.where(u <= 0, (v <= 0) | (uu >= avv), (v < 0) & (uu <= avv))


def _sign_rule_dtype(u_top: int, v_top: int, a: int):
    """Array dtype for deciding u + v sqrt(a) <= 0 with |u| <= u_top and
    |v| <= v_top: int64 while u^2 and a v^2 fit, Python integers (object)
    above that, as `residue.residue_dtype`."""
    return np.int64 if max(u_top * u_top, a * v_top * v_top) < 2**63 else object


def _distance_ok_rows(form, a: int, delta, rows: np.ndarray,
                      m_vals: np.ndarray) -> np.ndarray:
    """Exact u(g z, z) <= delta for each row of lattice coordinates, g of
    reduced norm m_vals > 0, with `form` = (G_r, G_s, den) from
    `_frobenius_form` and a = a_h.  For det g = m this is the Frobenius bound
    ||h||^2 <= (4 delta + 2) m, decided over Z[sqrt(a)] by sign rules.  With
    M_i = max |c_i| over the rows, every partial sum of c^T G c is at most
    M^T |G| M; when that bound keeps u^2 and a v^2 inside int64 the rule
    runs on int64, else on Python integers, so the result is exact either
    way."""
    g_r, g_s, den = form
    dn, dd = delta.as_integer_ratio()
    k = math.gcd(4 * dn + 2 * dd, dd)
    num, rd = (4 * dn + 2 * dd) // k, dd // k  # 4 delta + 2 = num / rd
    top = np.abs(rows).max(axis=0, initial=1).astype(object)
    u_top, v_top = (rd * max(1, top @ np.abs(g) @ top) for g in (g_r, g_s))
    u_top += num * den * int(m_vals.max(initial=1))
    dtype = _sign_rule_dtype(u_top, v_top, a)
    # den rd (||h||^2 - (4 delta + 2) m) = u + v sqrt(a)
    c = rows.astype(dtype)
    u = rd * ((c @ g_r.astype(dtype)) * c).sum(axis=1) \
        - num * den * m_vals.astype(dtype)
    v = rd * ((c @ g_s.astype(dtype)) * c).sum(axis=1)
    return _sqrt_sum_nonpositive(u, v, a)


def count_lattice_points(lattice: TidyLattice, z: UpperHalfPoint, delta,
                         norm_value: int) -> int:
    """#{alpha in the lattice : nr(alpha) = norm_value, u(z, alpha z) <= delta},
    exact (float line limits, exact norm solve and distance filter)."""
    return norm_histogram(lattice, z, delta, [norm_value])[norm_value]


def count_lattice_points_box(lattice: TidyLattice, z: UpperHalfPoint, delta,
                             norm_value: int) -> int:
    """Independent enumerator: axis-aligned box from the inverse Gram, full
    scan, same exact filters.  The box is scanned one c0 slab at a time over
    a shared (c1, c2, c3) grid: exact integer norm test and float bound on
    each slab; the survivors of all slabs then go through one exact
    `_distance_ok` call.  ValueError for delta < 0 or a norm value < 1, as
    in `norm_histogram`; BudgetError, before the grid is built, if the box
    has more than ENUMERATION_BUDGET points."""
    delta = _checked_delta(delta)
    if norm_value < 1:
        raise ValueError("norm values must be >= 1")
    gram, f_int, den, _ = _counting_data(lattice, z)
    bound = float((4 * delta + 2) * norm_value) * (1 + 1e-9) + 1e-9
    inv = np.linalg.inv(gram)
    lims = [int(math.floor(math.sqrt(bound * inv[k, k]) + 1e-9)) for k in range(4)]
    box = math.prod(2 * lim + 1 for lim in lims)
    if box > ENUMERATION_BUDGET:
        raise BudgetError(f"quaternion box enumeration: {box} rows exceed "
                          f"the budget of {ENUMERATION_BUDGET}")
    rest = np.stack(np.meshgrid(*(np.arange(-lim, lim + 1) for lim in lims[1:]),
                                indexing="ij"), axis=-1).reshape(-1, 3)
    # c^T f_int c = (F00 c0 + 2 F[0,1:].rest) c0 + rest^T F[1:,1:] rest
    lin = 2 * rest @ f_int[0, 1:]
    quad = ((rest @ f_int[1:, 1:]) * rest).sum(axis=1)
    survivors = []
    for c0 in range(-lims[0], lims[0] + 1):
        hits = rest[(f_int[0, 0] * c0 + lin) * c0 + quad == den * norm_value]
        rows = np.column_stack((np.full(len(hits), c0), hits))
        survivors.append(rows[((rows @ gram) * rows).sum(axis=1) <= bound])
    rows = np.concatenate(survivors)
    # the rational basis, cleared here: the oracle shares no denominator
    # with the Frobenius form
    basis, e = _cleared(lattice.basis_in_frame())
    frames = rows.astype(object) @ np.array(basis, dtype=object)
    return int(_distance_ok(lattice.order.algebra, frames, z, delta,
                            np.full(len(rows), e * e * norm_value)).sum())


def _checked_delta(delta) -> Fraction:
    delta = Fraction(delta)
    if delta < 0:
        raise ValueError("delta must be >= 0")
    return delta


def norm_histogram(lattice: TidyLattice, z: UpperHalfPoint, delta,
                   norms) -> dict[int, int]:
    """Counts for every requested norm value in one enumeration pass;
    ValueError for delta < 0 or a norm value < 1.  An ascending range is
    read at its ends, so the float range and the ellipsoid budget of its
    largest norm are checked before it is listed; other norms are sorted
    first."""
    delta = _checked_delta(delta)
    if not (isinstance(norms, range) and norms.step > 0):
        norms = sorted(set(int(m) for m in norms))
    if not norms:
        _counting_data(lattice, z)  # a degenerate z is refused all the same
        return {}
    if norms[0] < 1:
        raise ValueError("norm values must be >= 1")
    return _histogram(lattice, delta,
                      *_candidates(lattice, z, delta, norms[-1], norms))


def counting_bound_report(lattice: TidyLattice, z: UpperHalfPoint, delta,
                          l_budget: int) -> dict:
    """Sum of counts over norms <= L and over squares m^2 (m <= L), with the
    growth-shape ratios against L + L^2/N and L + L^3/N, from one enumeration;
    "histogram" holds the counts for norms 1..L.  A smoke test of the growth
    shape; no claim about the implied constant.  The ellipsoid of the
    largest norm, L^2, is checked before the norm set is built.  ValueError
    for delta < 0 or L < 1."""
    delta = _checked_delta(delta)
    if l_budget < 1:
        raise ValueError(f"L must be >= 1, got {l_budget}")
    n_index = lattice.index
    budget = range(1, l_budget + 1)
    # 1..L, then the squares past L: ascending and distinct, and listed
    # only once the ellipsoid of L^2 has passed
    norms = itertools.chain(budget, (m * m for m in range(
        math.isqrt(l_budget) + 1, l_budget + 1)))
    hist = _histogram(lattice, delta,
                      *_candidates(lattice, z, delta, l_budget**2, norms))
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
    the amplifier length exponent eta2/3; BudgetError, before a progression
    is built, if its a1 + 1 levels pass FILTRATION_LEVEL_BUDGET."""
    eta1, eta2 = Fraction(eta1), Fraction(eta2)
    schedule = {}
    for p, a1 in a1_map.items():
        if a1 < 1:
            raise ValueError("a1 must be >= 1")
        if a1 + 1 > FILTRATION_LEVEL_BUDGET:
            raise BudgetError(f"quaternion filtration schedule: {int_text(a1 + 1)} "
                              f"levels exceed the budget of {FILTRATION_LEVEL_BUDGET}")
        step = (eta2 - eta1) / a1
        schedule[p] = [eta1 + k * step for k in range(a1 + 1)]
    return schedule, eta2 / 3
