"""Quaternion arithmetic, orders, tidy lattices, counting, exponents."""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from gl2local.quaternion import (
    QuaternionAlgebra,
    RationalOrder,
    TidyLattice,
    UpperHalfPoint,
    build_tidy_lattice,
    count_lattice_points,
    count_lattice_points_box,
    counting_bound_report,
    depth_exponent,
    filtration_schedule,
    lattice_shape,
    load_algebra_fixtures,
    local_hilbert_symbol,
    norm_histogram,
    ramified_primes,
    supnorm_exponent,
    verify_maximal_order,
    _candidates,
    _counting_data,
    _distance_ok,
    _distance_ok_rows,
    _det_adjugate,
    _frobenius_form,
    _isqrt_rows,
    _solve_lines,
    _sqrt_sum_nonpositive,
)
from gl2local import quaternion
from gl2local.errors import BudgetError, ConstructionError, PrecisionError
from oracles import (det_inverse, ellipsoid_points, frobenius_form, iota_inf,
                     lattice_contains,
                     point_pair_u, quat_conj, solve_lines_table)

FIX = load_algebra_fixtures()
ALG6, ORD6 = FIX["disc6"]
ALG14, ORD14 = FIX["disc14"]


def _candidates_with_norms(lat, z, delta, norms):
    """Rows, norm values and exact Frobenius form of the counting pipeline
    for ascending norms, before the distance filter."""
    return _candidates(lat, z, delta, norms[-1], norms)[1:]


# -- Hilbert symbol vs. exhaustive solvability --------------------------------

def hilbert_oracle(a, b, p, k):
    """(a,b)_p = 1 iff a x^2 + b y^2 = z^2 has a p-primitive solution;
    checked exhaustively mod p^k."""
    mod = p**k
    xs = np.arange(mod, dtype=np.int64)
    # squares[r] / unit_squares[r]: r is the square of some (unit) residue
    squares = np.zeros(mod, dtype=bool)
    squares[xs * xs % mod] = True
    unit_squares = np.zeros(mod, dtype=bool)
    unit_squares[xs[xs % p != 0] ** 2 % mod] = True
    grid = (a % mod) * xs[:, None] ** 2 + (b % mod) * xs[None, :] ** 2
    grid %= mod
    both_div = (xs[:, None] % p == 0) & (xs[None, :] % p == 0)
    for target, mask in ((squares, ~both_div), (unit_squares, both_div)):
        if target[grid[mask]].any():
            return 1
    return -1


@pytest.mark.parametrize("p,k", [(2, 8), (3, 5), (5, 5)])
def test_hilbert_symbol_matches_solvability_oracle(p, k):
    pairs = [(-1, -1), (-1, 3), (3, -1), (-1, 7), (2, 3), (2, 5), (5, -2),
             (-3, -7), (6, 10), (15, -2), (p, -1), (p, p), (-p, p)]
    for a, b in pairs:
        assert local_hilbert_symbol(a, b, p) == hilbert_oracle(a, b, p, k), (a, b, p)


def test_hilbert_symbol_known_values():
    assert local_hilbert_symbol(-1, -1, 2) == -1
    assert local_hilbert_symbol(-1, -1, math.inf) == -1
    assert local_hilbert_symbol(-1, -1, 3) == 1
    assert local_hilbert_symbol(2, 3, 3) == -1
    with pytest.raises(ValueError):
        local_hilbert_symbol(0, 5, 3)


def test_ramification_sets():
    assert ramified_primes(-1, 3) == [2, 3]
    assert ramified_primes(3, -1) == [2, 3]
    assert ramified_primes(7, -1) == [2, 7]
    assert ramified_primes(1, 1) == []


def odd_prime_factors(n):
    n = abs(n)
    while n % 2 == 0:
        n //= 2
    out = set()
    d = 3
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 2
    if n > 1:
        out.add(n)
    return out


def test_product_formula_hundred_random_pairs():
    rng = random.Random(20260815)
    for _ in range(100):
        a = rng.choice([s for s in range(-50, 51) if s])
        b = rng.choice([s for s in range(-50, 51) if s])
        places = {2} | odd_prime_factors(a) | odd_prime_factors(b)
        prod = local_hilbert_symbol(a, b, math.inf)
        for p in places:
            prod *= local_hilbert_symbol(a, b, p)
        assert prod == 1, (a, b)


# -- algebra arithmetic --------------------------------------------------------

def rand_coords(rng, den=2):
    return tuple(Fraction(rng.randint(-9, 9), rng.choice([1, den]))
                 for _ in range(4))


def test_norm_multiplicative_thousand_pairs():
    rng = random.Random(7)
    for alg in (ALG6, ALG14):
        for _ in range(500):
            x, y = rand_coords(rng), rand_coords(rng)
            assert alg.nr(alg.mul(x, y)) == alg.nr(x) * alg.nr(y)


def test_conjugation_gives_norm_and_trace():
    rng = random.Random(8)
    for _ in range(50):
        x = rand_coords(rng)
        prod = ALG6.mul(x, quat_conj(x))
        assert prod[1] == prod[2] == prod[3] == 0
        assert prod[0] == ALG6.nr(x)
        assert x[0] + quat_conj(x)[0] == ALG6.tr(x)


def test_algebra_requires_positive_a():
    with pytest.raises(ValueError):
        QuaternionAlgebra(-1, 3)


def test_discriminants():
    assert ALG6.discriminant == 6
    assert ALG14.discriminant == 14
    assert QuaternionAlgebra(1, 1).discriminant == 1
    assert ALG6.discriminant != 1  # a division algebra


# -- orders and maximality ----------------------------------------------------

def test_fixture_orders_are_maximal():
    assert verify_maximal_order(ORD6)
    assert verify_maximal_order(ORD14)


def test_naive_order_is_not_maximal():
    naive = RationalOrder(ALG6, [[1, 0, 0, 0], [0, 1, 0, 0],
                                 [0, 0, 1, 0], [0, 0, 0, 1]])
    assert not verify_maximal_order(naive)
    assert naive.reduced_discriminant() == 12


def test_non_closed_basis_rejected():
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
            [0, 0, 0, Fraction(1, 3)]]
    with pytest.raises(ValueError):
        RationalOrder(ALG6, rows)


def test_order_must_contain_one():
    rows = [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
    with pytest.raises(ValueError):
        RationalOrder(ALG6, rows)


# -- elementary divisors --------------------------------------------------------

def exact_det(mat) -> int:
    """Determinant by Gaussian elimination over the rationals."""
    rows = [[Fraction(v) for v in row] for row in mat]
    det = Fraction(1)
    n = len(rows)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] / rows[col][col]
            rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return int(det)


def test_lattice_shape_random():
    # the seeded 4 x 4 matrices of the former Smith form test, kept when
    # nonsingular and primitive (gcd of entries 1, so d_1 = 1)
    rng = random.Random(8)
    kept = 0
    for _ in range(40):
        a = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        det = exact_det(a)
        if det == 0 or math.gcd(*(v for row in a for v in row)) != 1:
            continue
        kept += 1
        d = lattice_shape(a)
        assert math.prod(d) == abs(det)
        for x, y in zip((1, *d), d):
            assert x > 0 and y % x == 0
    assert kept >= 30


def test_lattice_shape_of_a_disguised_diagonal():
    # U diag(1, 2, 3, 4) V with U, V random products of elementary integer
    # operations has the Smith form diag(1, 1, 2, 12)
    rng = random.Random(9)
    for _ in range(20):
        a = [[int(i == j) * (i + 1) for j in range(4)] for i in range(4)]
        for _ in range(12):
            i, j = rng.sample(range(4), 2)
            f = rng.randint(-3, 3)
            a[i] = [x + f * y for x, y in zip(a[i], a[j])]  # row op
            for row in a:  # column op
                row[j] += f * row[i]
        assert lattice_shape(a) == (1, 2, 12)


def test_bareiss_matches_fraction_gauss_jordan():
    # integer matrices directly; a rational one as N / e, with det N / e^4
    # and inverse e adj(N) / det N; zeros force row swaps
    rng = random.Random(21)
    seen = {"int": 0, "rational": 0}
    while min(seen.values()) < 60:
        e = rng.choice([1, 2, 6, 35])
        n = [[rng.choice([0, rng.randint(-30, 30)]) for _ in range(4)]
             for _ in range(4)]
        try:
            det, inv = det_inverse([[Fraction(v, e) for v in row] for row in n])
        except ValueError:
            with pytest.raises(ValueError, match=r"^singular matrix$"):
                _det_adjugate(n)
            continue
        d, adj = _det_adjugate(n)
        assert Fraction(d, e**4) == det
        assert [[Fraction(e * v, d) for v in row] for row in adj] == inv
        seen["int" if e == 1 else "rational"] += 1
    for singular in ([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 0], [0, 0, 1, 0]],
                     [[0] * 4] * 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1],
                                     [0, 0, 0, 7]]):
        with pytest.raises(ValueError, match=r"^singular matrix$"):
            _det_adjugate(singular)


# -- local splittings and tidy lattices ----------------------------------------

@pytest.mark.parametrize("order,plan", [
    (ORD14, {3: 1}), (ORD14, {3: 2}), (ORD14, {5: 1}), (ORD14, {3: 1, 5: 1}),
    (ORD6, {5: 1}), (ORD6, {7: 1})])
def test_tidy_lattice_is_an_order(order, plan):
    # off-diagonal entries = 0 mod p^r is a ring condition (an Eichler order
    # of level p^r locally), so the lattice is closed under multiplication
    lat = build_tidy_lattice(order, plan)
    RationalOrder(order.algebra, lat.basis_in_frame())


def test_tidy_lattice_shapes_and_index():
    lat = build_tidy_lattice(ORD14, {3: 1})
    assert (lat.index, lat.shape, lat.is_tidy) == (9, (1, 3, 3), True)
    lat = build_tidy_lattice(ORD14, {3: 2})
    assert (lat.index, lat.shape) == (81, (1, 9, 9))
    lat = build_tidy_lattice(ORD6, {5: 1})
    assert (lat.index, lat.shape) == (25, (1, 5, 5))
    lat = build_tidy_lattice(ORD6, {7: 1})
    assert (lat.index, lat.shape) == (49, (1, 7, 7))
    lat = build_tidy_lattice(ORD14, {3: 1, 5: 1})
    assert (lat.index, lat.shape, lat.is_tidy) == (225, (1, 15, 15), True)


# the bases that the former construction took from the Smith form of the
# forms t (c2 + sqrt(s) c3), c2 - sqrt(s) c3, by (discriminant, plan)
SMITH_BASES = {
    (14, (3, 1)): [[0, 0, 3, 0], [0, 0, 0, 3], [1, 0, 0, 0], [0, 1, 0, 0]],
    (14, (3, 2)): [[0, 0, 9, 0], [0, 0, 27, -9], [1, 0, 0, 0], [0, 1, 0, 0]],
    (6, (5, 2)): [[0, 25, 0, 175], [0, 75, 0, 500], [0, 0, 1, 0], [1, 0, 0, 0]],
    (6, (7, 2)): [[0, -49, 441, 0], [0, 12642, 11760, -25627], [1, 0, 0, 0],
                  [0, -701, -652, 1421]],
}


@pytest.mark.parametrize("order,plan,coords", [
    (ORD14, {3: 1}, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]]),
    (ORD14, {3: 2}, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 9, 0], [0, 0, 0, 9]]),
    (ORD6, {5: 2}, [[1, 0, 0, 0], [0, 25, 0, 0], [0, 0, 1, 0], [0, 0, 0, 25]]),
    (ORD6, {7: 2}, [[1, 0, 0, 0], [0, 49, 0, 0], [0, 1, 1, 0], [0, 0, 0, 49]])])
def test_tidy_lattice_bases_frozen(order, plan, coords):
    # the basis from elimination mod p^r is pinned, and spans the same
    # lattice as the Smith form basis: each contains the other
    lat = build_tidy_lattice(order, plan)
    assert lat.coords == coords
    smith_coords = SMITH_BASES[(order.algebra.discriminant, *plan.items())]
    smith = TidyLattice(order, smith_coords, abs(exact_det(smith_coords)),
                        lattice_shape(smith_coords))
    assert all(lattice_contains(lat, row) for row in smith_coords)
    assert all(lattice_contains(smith, row) for row in coords)
    assert (smith.index, smith.shape) == (lat.index, lat.shape)


def test_kernel_mod_random_forms():
    # the basis solves both forms and has index mod^2, so it spans the whole
    # solution set; seeded forms whose reduction mod p has rank 2
    rng = random.Random(15)
    for p, r in ((3, 1), (3, 4), (5, 2), (7, 3)) * 10:
        mod = p**r
        while True:
            forms = [[rng.randrange(mod) for _ in range(4)] for _ in range(2)]
            if any((a * d - b * c) % p for a, b in zip(*forms)
                   for c, d in zip(*forms)):
                break
        basis = quaternion._kernel_mod(forms, mod)
        assert all(sum(f * x for f, x in zip(form, vec)) % mod == 0
                   for form in forms for vec in basis)
        assert abs(exact_det(basis)) == mod**2


@pytest.mark.parametrize("order,plan", [
    (ORD6, {7: 2}), (ORD6, {7: 3}), (ORD6, {5: 1, 7: 2}), (ORD14, {3: 2, 11: 1})])
def test_tidy_lattice_meets_its_local_conditions(order, plan):
    # every basis vector has c2 = c3 = 0 mod p^r on the split basis 1, V, W,
    # VW at each planned p; with the index p^(2r) per prime, the lattice is
    # the whole solution set.  These plans have nonzero pivot multiples.
    lat = build_tidy_lattice(order, plan)
    for p, r in plan.items():
        # coordinates on 1, V, W, VW: frame numerators times adj / (den det)
        adj, det = quaternion._pure_split_pair(order.algebra, p)
        assert order.den * det % p
        for frame in lat.frames():
            for col in (2, 3):
                c = sum(x * row[col] for x, row in zip(frame, adj))
                assert c % p**r == 0
    assert lat.index == math.prod(p ** (2 * r) for p, r in plan.items())


def test_tidy_lattices_nest():
    lat1 = build_tidy_lattice(ORD14, {3: 1})
    lat2 = build_tidy_lattice(ORD14, {3: 2})
    for row in lat2.coords:
        assert lattice_contains(lat1, row)
    for row in lat1.coords:
        assert lattice_contains(build_tidy_lattice(ORD14, {}), row)


def test_plan_validation():
    with pytest.raises(ValueError):
        build_tidy_lattice(ORD6, {3: 1})  # 3 divides the discriminant
    with pytest.raises(ValueError):
        build_tidy_lattice(ORD6, {2: 1})
    with pytest.raises(ValueError):
        build_tidy_lattice(ORD6, {5: 0})
    for q in (0, 1, -5, 9, 25):  # 0 used to divide by zero, 9 and 25 to hang
        with pytest.raises(ValueError):
            build_tidy_lattice(ORD6, {q: 1})


def test_missing_splitting_is_a_construction_error(monkeypatch):
    # no candidate V squares to a unit square mod p
    monkeypatch.setattr(quaternion, "legendre", lambda a, p: -1)
    with pytest.raises(ConstructionError,
                       match=r"^no splitting strategy found for p=5$"):
        build_tidy_lattice(ORD6, {5: 1})


def test_tidiness_predicate_rejects_unbalanced_shape():
    fake = TidyLattice(ORD6, [[1, 0, 0, 0], [0, 1, 0, 0],
                              [0, 0, 1, 0], [0, 0, 0, 3]], 3, (1, 1, 3))
    assert lattice_shape(fake.coords) == (1, 1, 3)
    assert not fake.is_tidy


# -- hyperbolic distance and the real splitting --------------------------------

def test_point_pair_invariant_basics():
    z1 = UpperHalfPoint(Fraction(1, 10), Fraction(6, 5))
    z2 = UpperHalfPoint(Fraction(1, 2), Fraction(1))
    assert point_pair_u(z1, z1) == 0
    assert point_pair_u(z1, z2) == point_pair_u(z2, z1)
    assert point_pair_u(z1, z2) == (Fraction(2, 5)**2 + Fraction(1, 5)**2) / (4 * Fraction(6, 5))
    with pytest.raises(ValueError):
        UpperHalfPoint(Fraction(0), Fraction(0))


def mobius(mat, z: complex) -> complex:
    return (mat[0, 0] * z + mat[0, 1]) / (mat[1, 0] * z + mat[1, 1])


def u_float(z1: complex, z2: complex) -> float:
    return abs(z1 - z2) ** 2 / (4 * z1.imag * z2.imag)


def test_point_pair_invariant_under_mobius():
    rng = random.Random(11)
    z1, z2 = 0.1 + 1.2j, 0.5 + 1.0j
    base = u_float(z1, z2)
    for _ in range(20):
        while True:
            g = np.array([[rng.uniform(-2, 2) for _ in range(2)]
                          for _ in range(2)])
            if np.linalg.det(g) > 0.1:
                break
        assert abs(u_float(mobius(g, z1), mobius(g, z2)) - base) < 1e-9


def test_real_splitting_is_a_ring_hom_with_norm_as_det():
    rng = random.Random(12)
    for alg in (ALG6, ALG14):
        for _ in range(40):
            x, y = rand_coords(rng), rand_coords(rng)
            mx, my = iota_inf(alg, x), iota_inf(alg, y)
            mxy = iota_inf(alg, alg.mul(x, y))
            assert np.max(np.abs(mx @ my - mxy)) < 1e-9
            assert abs(np.linalg.det(mx) - float(alg.nr(x))) < 1e-9


def test_ellipsoid_form_identity():
    # the enumeration form equals 2 m (1 + 2u) for norm-m elements, which is
    # what converts the distance cutoff into the ellipsoid bound
    lat = build_tidy_lattice(ORD6, {})
    z = UpperHalfPoint(Fraction(1, 10), Fraction(6, 5))
    gram = _counting_data(lat, z)[0]
    basis_frame = lat.basis_in_frame()
    zc = 0.1 + 1.2j
    rng = random.Random(13)
    checked = 0
    while checked < 30:
        c = np.array([rng.randint(-4, 4) for _ in range(4)], dtype=np.int64)
        vec = tuple(sum(Fraction(int(c[k])) * basis_frame[k][i] for k in range(4))
                    for i in range(4))
        m = ALG6.nr(vec)
        if m <= 0:
            continue
        g = iota_inf(ALG6, vec)
        uval = u_float(mobius(g, zc), zc)
        q = float(c @ gram @ c)
        assert abs(q - 2 * float(m) * (1 + 2 * uval)) < 1e-6 * max(1.0, q)
        checked += 1


def test_distance_filter_matches_float_distance():
    lat = build_tidy_lattice(ORD6, {})
    z = UpperHalfPoint(Fraction(1, 10), Fraction(6, 5))
    form = _counting_data(lat, z)[3]
    basis_frame = lat.basis_in_frame()
    zc = 0.1 + 1.2j
    rng = random.Random(14)
    checked = 0
    while checked < 40:
        c = [rng.randint(-3, 3) for _ in range(4)]
        if not any(c):
            continue
        vec = tuple(sum(Fraction(c[k]) * basis_frame[k][i] for k in range(4))
                    for i in range(4))
        m = ALG6.nr(vec)
        if m <= 0:
            continue
        uval = u_float(mobius(iota_inf(ALG6, vec), zc), zc)
        if abs(uval - 1.0) < 1e-9:
            continue
        ok = _distance_ok_rows(form, ALG6.a_h, Fraction(1), np.array([c]),
                               np.array([int(m)]))
        assert ok[0] == (uval <= 1.0)
        checked += 1


def sqrt_sum_nonpositive_by_isqrt(u, v, a) -> bool:
    """u + v sqrt(a) <= 0 for rationals u, v, scaled to integers and decided
    by the bracket w <= sqrt(a v^2) < w + 1, w = isqrt(a v^2), which is exact
    iff w^2 = a v^2."""
    den = math.lcm(Fraction(u).denominator, Fraction(v).denominator)
    u, v = int(u * den), int(v * den)
    w = math.isqrt(a * v * v)
    if v >= 0:  # sqrt(a v^2) <= -u
        return w < -u or (w == -u and w * w == a * v * v)
    return u <= w  # u <= sqrt(a v^2)


def test_sqrt_sum_sign_rule():
    def leq(u, v, a):
        return bool(_sqrt_sum_nonpositive(np.array([Fraction(u)], dtype=object),
                                          np.array([Fraction(v)], dtype=object),
                                          a)[0])
    assert leq(-1, -1, 3)                      # u <= 0, v <= 0
    assert not leq(-1, 1, 3)                   # sqrt(3) - 1 > 0
    assert leq(-7, 4, 3)                       # 4 sqrt(3) - 7 < 0
    assert leq(-2, 1, 4)                       # sqrt(4) - 2 = 0
    assert not leq(7, -4, 3)                   # 7 - 4 sqrt(3) > 0
    assert leq(1, -1, 3)                       # 1 - sqrt(3) < 0
    assert leq(2, -1, 4)                       # 2 - sqrt(4) = 0
    assert not leq(1, 0, 3) and not leq(1, 1, 3)  # u > 0, v >= 0
    assert leq(0, 0, 7)
    assert leq(Fraction(1, 3) - Fraction(1, 2), Fraction(-1, 5), 2)
    assert not leq(Fraction(-1, 3), Fraction(1, 5), 3)  # sqrt(3)/5 > 1/3
    grid = [(Fraction(k, q), Fraction(j, r)) for k in range(-9, 10)
            for j in range(-6, 7) for q in (1, 2, 3) for r in (1, 5)]
    u = np.array([g[0] for g in grid], dtype=object)
    v = np.array([g[1] for g in grid], dtype=object)
    ints = [k for k, (x, w) in enumerate(grid)
            if x.denominator == w.denominator == 1]
    for a in (2, 3, 4, 7):
        expect = [sqrt_sum_nonpositive_by_isqrt(x, w, a) for x, w in grid]
        assert _sqrt_sum_nonpositive(u, v, a).tolist() == expect
        assert _sqrt_sum_nonpositive(u[ints].astype(np.int64),
                                     v[ints].astype(np.int64), a).tolist() \
            == [expect[k] for k in ints]


def _seeded_points(seed, count):
    rng = random.Random(seed)
    return [UpperHalfPoint(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                           Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            for _ in range(count)]


# z = i with these delta values puts norm-kept candidates exactly on the
# boundary ||h||^2 = (4 delta + 2) m
BOUNDARY_CASES = [(ORD6, {}, Fraction(1, 2)), (ORD14, {}, Fraction(7, 6))]


@pytest.mark.parametrize("order,plan,delta,z", [
    *[(o, p, d, UpperHalfPoint(Fraction(0), Fraction(1)))
      for o, p, d in BOUNDARY_CASES],
    (ORD6, {}, Fraction(1), UpperHalfPoint(Fraction(1, 10), Fraction(6, 5))),
    (ORD14, {3: 1}, Fraction(1), UpperHalfPoint(Fraction(1, 10), Fraction(6, 5))),
    (ORD6, {}, Fraction(3, 2), UpperHalfPoint(Fraction(-3, 7), Fraction(4, 5))),
    *[(o, {}, Fraction(1), z)
      for o, z in zip((ORD6, ORD14), _seeded_points(15, 2))],
])
def test_distance_filter_matches_independent_oracle(order, plan, delta, z):
    lat = build_tidy_lattice(order, plan)
    alg = order.algebra
    rows, m_vals, form = _candidates_with_norms(lat, z, delta, range(1, 21))
    assert len(rows) > 50
    fast = _distance_ok_rows(form, alg.a_h, delta, rows, m_vals)
    frames = rows.astype(object) @ np.array(lat.basis_in_frame(), dtype=object)
    assert _distance_ok(alg, frames, z, delta, m_vals).tolist() == fast.tolist()
    assert 0 < fast.sum() < len(rows)
    if z == UpperHalfPoint(Fraction(0), Fraction(1)):
        g_r, g_s, den = form
        assert not g_s.any()
        obj = rows.astype(object)
        on_boundary = ((obj @ g_r) * obj).sum(axis=1) \
            == (4 * delta + 2) * den * m_vals.astype(object)
        assert on_boundary.any() and fast[on_boundary].all()


@pytest.mark.parametrize("order,plan", [
    (ORD6, {}), (ORD6, {5: 1}), (ORD6, {5: 2}),
    (ORD14, {}), (ORD14, {3: 1}), (ORD14, {3: 2})])
def test_frobenius_form_matches_fraction_reference(order, plan):
    # the same (G_r, G_s, den) triple, den in lowest terms, so the float Gram
    # matrix rounded from it is the same bit for bit
    lat = build_tidy_lattice(order, plan)
    for z in (UpperHalfPoint(Fraction(1, 10), Fraction(8, 5)),
              UpperHalfPoint(Fraction(1, 2), Fraction(1)),
              UpperHalfPoint(Fraction(0), Fraction(10**4))):
        g_r, g_s, den = _frobenius_form(lat, z)
        want_r, want_s, want_den = frobenius_form(lat, z)
        assert (g_r.tolist(), g_s.tolist(), den) \
            == (want_r.tolist(), want_s.tolist(), want_den)


def _filter_dtypes(monkeypatch):
    """Record the dtype `_distance_ok_rows` picks on each call."""
    picked = []
    pick = quaternion._sign_rule_dtype
    monkeypatch.setattr(quaternion, "_sign_rule_dtype",
                        lambda *args: picked.append(pick(*args)) or picked[-1])
    return picked


# the counting report's norms at L = 14: 1..14 and the squares up to 14^2
REPORT_NORMS = sorted(set(range(1, 15)) | {m * m for m in range(1, 15)})


@pytest.mark.parametrize("order,plan,delta,z,norms", [
    *[(o, p, d, UpperHalfPoint(Fraction(0), Fraction(1)), range(1, 21))
      for o, p, d in BOUNDARY_CASES],
    (ORD6, {}, Fraction(1), UpperHalfPoint(Fraction(1, 10), Fraction(6, 5)),
     range(1, 21)),
    (ORD6, {}, Fraction(3, 2), UpperHalfPoint(Fraction(-3, 7), Fraction(4, 5)),
     range(1, 21)),
    (ORD6, {5: 1}, Fraction(3, 2), UpperHalfPoint(Fraction(-3, 7), Fraction(4, 5)),
     range(1, 21)),
    *[(ORD14, plan, Fraction(1), UpperHalfPoint(Fraction(1, 10), Fraction(8, 5)),
       REPORT_NORMS) for plan in ({}, {3: 1}, {3: 2})],
])
def test_distance_filter_branches_agree(order, plan, delta, z, norms, monkeypatch):
    # the fixture row sets take the int64 branch, and Python integers decide
    # every row alike
    lat = build_tidy_lattice(order, plan)
    rows, m_vals, form = _candidates_with_norms(lat, z, delta, norms)
    a = order.algebra.a_h
    picked = _filter_dtypes(monkeypatch)
    fast = _distance_ok_rows(form, a, delta, rows, m_vals)
    assert picked == [np.int64]
    monkeypatch.setattr(quaternion, "_sign_rule_dtype", lambda *args: object)
    assert _distance_ok_rows(form, a, delta, rows, m_vals).tolist() \
        == fast.tolist()
    assert 0 < fast.sum() < len(rows)


def test_distance_filter_bound_is_tight_at_int64(monkeypatch):
    # u^2 in [2^63, 2^64): int64 would wrap u^2 negative and flip each
    # decision, so the bound must send both rows to Python integers.  On
    # disc6 at 1/10 + 6i/5, den = 1152, and at delta = 1, 4 delta + 2 = 6:
    # (0, 1, -1, 0) has c^T G_r c = 9506, c^T G_s c = 784 and
    # (0, 1, 1, 0) has 9506 and -784.
    lat = build_tidy_lattice(ORD6, {})
    z = UpperHalfPoint(Fraction(1, 10), Fraction(6, 5))
    form = _frobenius_form(lat, z)
    g_r, g_s, den = form
    assert den == 1152
    picked = _filter_dtypes(monkeypatch)
    for row, m in (([0, 1, -1, 0], 500_000), ([0, 600, 600, 0], 1)):
        c = np.array([row], dtype=np.int64)
        obj = c.astype(object)
        u = int(((obj @ g_r) * obj).sum()) - 6 * den * m
        v = int(((obj @ g_s) * obj).sum())
        assert 2**63 <= u * u < 2**64
        want = sqrt_sum_nonpositive_by_isqrt(u, v, ALG6.a_h)
        got = _distance_ok_rows(form, ALG6.a_h, 1, c, np.array([m]))
        assert got.tolist() == [want]
    assert picked == [object, object]


def test_distance_filter_exact_beyond_int64(monkeypatch):
    # alpha and k*alpha move z alike; at k = 10**7 the terms of the form
    # (over 10**14 * |G|) square past 2**63, and the decisions must not change
    for order, plan, delta in BOUNDARY_CASES:
        lat = build_tidy_lattice(order, plan)
        z = UpperHalfPoint(Fraction(0), Fraction(1))
        rows, m_vals, form = _candidates_with_norms(lat, z, delta, range(1, 9))
        a = order.algebra.a_h
        k = 10**7
        picked = _filter_dtypes(monkeypatch)
        small = _distance_ok_rows(form, a, delta, rows, m_vals)
        big = _distance_ok_rows(form, a, delta, k * rows, k * k * m_vals)
        assert big.tolist() == small.tolist()
        assert picked == [np.int64, object]
        monkeypatch.undo()
    lat = build_tidy_lattice(ORD6, {})
    z = UpperHalfPoint(Fraction(-3, 7), Fraction(4, 5))
    rows, m_vals, form = _candidates_with_norms(lat, z, 1, range(1, 9))
    assert _distance_ok_rows(form, ALG6.a_h, 1, 1000 * rows,
                             10**6 * m_vals).tolist() \
        == _distance_ok_rows(form, ALG6.a_h, 1, rows, m_vals).tolist()


# -- counting ------------------------------------------------------------------

@pytest.mark.parametrize("order,plan,delta,z", [
    *[(o, p, d, UpperHalfPoint(Fraction(0), Fraction(1)))
      for o, p, d in BOUNDARY_CASES],
    (ORD14, {3: 1}, Fraction(1), UpperHalfPoint(Fraction(1, 10), Fraction(6, 5))),
    (ORD6, {5: 1}, Fraction(3, 2), UpperHalfPoint(Fraction(-3, 7), Fraction(4, 5))),
], ids=["disc6-boundary", "disc14-boundary", "disc14-3-1", "disc6-5-1"])
def test_two_enumerators_agree_exactly(order, plan, delta, z):
    lat = build_tidy_lattice(order, plan)
    norms = range(1, 13)
    hist = norm_histogram(lat, z, delta, norms)
    assert any(hist.values())
    assert [count_lattice_points_box(lat, z, delta, m) for m in norms] \
        == [hist[m] for m in norms]


@pytest.mark.parametrize("order,plan", [(ORD6, {7: 2}), (ORD14, {13: 2})],
                         ids=["disc6-7-2", "disc14-13-2"])
def test_deep_plans_count_on_the_eliminated_basis(order, plan):
    # with the Smith form basis both were refused by the line-solve guard
    lat = build_tidy_lattice(order, plan)
    z = UpperHalfPoint(Fraction(1, 2), Fraction(1))
    hist = norm_histogram(lat, z, 1, range(1, 15))
    assert hist[1] >= 2
    assert [count_lattice_points_box(lat, z, 1, m) for m in range(1, 5)] \
        == [hist[m] for m in range(1, 5)]


def test_counting_validation():
    # the box oracle used to count at delta = -1/4 and m = 0, and to end in
    # a math domain error at delta = -1 and m = -1
    lat = build_tidy_lattice(ORD6, {})
    z = UpperHalfPoint(Fraction(1, 2), Fraction(1))
    for count in (count_lattice_points, count_lattice_points_box):
        for delta in (-1, Fraction(-1, 4)):
            with pytest.raises(ValueError, match=r"^delta must be >= 0$"):
                count(lat, z, delta, 1)
        for m in (0, -1):
            with pytest.raises(ValueError, match=r"^norm values must be >= 1$"):
                count(lat, z, 1, m)


@pytest.mark.parametrize("z", [
    UpperHalfPoint(Fraction(0), Fraction(1, 10**30)),
    UpperHalfPoint(Fraction(10**30), Fraction(1)),
    UpperHalfPoint(Fraction(0), Fraction(10**8))], ids=["tiny-y", "huge-x", "big-y"])
def test_unusable_float_gram_is_a_precision_error(z):
    # the first two have a float eigenvalue <= 0 but a Cholesky factor, the
    # third a positive spectrum but no factor; each used to end in an
    # untyped ValueError, LinAlgError or math domain error
    lat = build_tidy_lattice(ORD6, {})
    for count in (count_lattice_points, count_lattice_points_box):
        with pytest.raises(PrecisionError, match=r"^quaternion counting form: "):
            count(lat, z, 1, 1)


@pytest.mark.parametrize("delta", [-1, Fraction(-1, 4)])
def test_negative_delta_is_refused_by_name(delta):
    # -1 used to end in a math domain error; -1/4 leaves a positive
    # ellipsoid bound and used to count
    lat = build_tidy_lattice(ORD6, {})
    z = UpperHalfPoint(Fraction(1, 2), Fraction(1))
    with pytest.raises(ValueError, match=r"^delta must be >= 0$"):
        norm_histogram(lat, z, delta, [1, 2])
    with pytest.raises(ValueError, match=r"^delta must be >= 0$"):
        counting_bound_report(lat, z, delta, 3)


@pytest.mark.parametrize("l_budget", [0, -3])
def test_report_refuses_an_empty_norm_budget_by_name(l_budget):
    # L = 0 used to end in an IndexError of the line solve
    lat = build_tidy_lattice(ORD6, {})
    z = UpperHalfPoint(Fraction(1, 2), Fraction(1))
    with pytest.raises(ValueError, match=rf"^L must be >= 1, got {l_budget}$"):
        counting_bound_report(lat, z, 1, l_budget)


def _oracle_candidates(lat, z, delta, norms):
    """The materialising enumeration followed by the exact norm filter."""
    gram, f_int, den, _ = _counting_data(lat, z)
    cands = ellipsoid_points(gram, float((4 * Fraction(delta) + 2) * max(norms)))
    scaled = np.einsum("ij,jk,ik->i", cands, f_int, cands)
    keep = np.isin(scaled, den * np.array(norms, dtype=np.int64))
    return cands, cands[keep], scaled[keep] // den


SOLVER_Z = [UpperHalfPoint(Fraction(0), Fraction(1)),
            UpperHalfPoint(Fraction(1, 10), Fraction(6, 5)),
            UpperHalfPoint(Fraction(-3, 7), Fraction(4, 5))]


# {5: 1} gives the norm form a negative leading coefficient on both algebras
@pytest.mark.parametrize("order,plan", [
    (ORD6, {}), (ORD6, {5: 1}),
    (ORD14, {}), (ORD14, {3: 1}), (ORD14, {3: 2}), (ORD14, {5: 1})])
def test_line_solver_matches_materialized_enumeration(order, plan):
    lat = build_tidy_lattice(order, plan)
    a_h = order.algebra.a_h
    norms = list(range(1, 21))
    for z in SOLVER_Z:
        for delta in (Fraction(1, 2), Fraction(7, 6), Fraction(1),
                      Fraction(3, 2)):
            rows, m_vals, form = _candidates_with_norms(lat, z, delta, norms)
            _, want, want_m = _oracle_candidates(lat, z, delta, norms)
            assert sorted(zip(map(tuple, rows.tolist()), m_vals.tolist())) \
                == sorted(zip(map(tuple, want.tolist()), want_m.tolist()))
            ok = _distance_ok_rows(form, a_h, delta, want, want_m)
            values, counts = np.unique(want_m[ok], return_counts=True)
            expect = dict.fromkeys(norms, 0)
            expect.update(zip(values.tolist(), (2 * counts).tolist()))
            assert norm_histogram(lat, z, delta, norms) == expect


def test_enumeration_budget_counts_materialized_rows(monkeypatch):
    lat = build_tidy_lattice(ORD6, {})
    z = UpperHalfPoint(Fraction(1, 10), Fraction(6, 5))
    cands, want, _ = _oracle_candidates(lat, z, 1, range(1, 21))
    monkeypatch.setattr(quaternion, "ENUMERATION_BUDGET", len(cands))
    rows, _, _ = _candidates_with_norms(lat, z, 1, range(1, 21))
    assert rows.tolist() == want.tolist()
    monkeypatch.setattr(quaternion, "ENUMERATION_BUDGET", len(cands) - 1)
    with pytest.raises(BudgetError, match=rf"^quaternion ellipsoid enumeration: "
                       rf"{len(cands)} rows exceed the budget of "
                       rf"{len(cands) - 1}$"):
        _candidates_with_norms(lat, z, 1, range(1, 21))


def test_enumeration_budget_checked_before_expansion(monkeypatch):
    # CLI counting with L = 2000 asks for norms 1..2000 and their squares;
    # the inner levels alone would need hundreds of GiB, so the refusal has
    # to come before any level is expanded
    expand = quaternion._expand

    def guarded(lo, hi):
        rows = int(np.maximum(hi - lo + 1, 0).sum())
        assert rows <= quaternion.ENUMERATION_BUDGET, "expanded past budget"
        return expand(lo, hi)

    monkeypatch.setattr(quaternion, "_expand", guarded)
    lat = build_tidy_lattice(ORD14, {})
    z = UpperHalfPoint(Fraction(1, 10), Fraction(6, 5))
    budget = range(1, 2001)
    t0 = time.perf_counter()
    with pytest.raises(BudgetError, match=r"^quaternion ellipsoid enumeration: "
                       r"\d+ rows exceed the budget of 10000000$"):
        norm_histogram(lat, z, 1, set(budget) | {m * m for m in budget})
    assert time.perf_counter() - t0 < 1.0


def test_refusals_come_before_the_norms_are_listed():
    # an ascending range is read at its ends and the report's largest norm is
    # L^2, so norm sets far too large to list are refused by the ellipsoid
    # budget or the float range at once (they used to be sorted first)
    lat = build_tidy_lattice(ORD6, {})
    z = UpperHalfPoint(Fraction(1, 2), Fraction(1))
    t0 = time.perf_counter()
    for refuse in (lambda: norm_histogram(lat, z, 1, range(1, 10**50)),
                   lambda: counting_bound_report(lat, z, 1, 10**6),
                   lambda: counting_bound_report(lat, z, 1, 10**30)):
        with pytest.raises(BudgetError, match=r"^quaternion ellipsoid "
                           r"enumeration: \d+ rows exceed the budget of "
                           r"10000000$"):
            refuse()
    with pytest.raises(BudgetError, match=r"exceeds the float range$"):
        counting_bound_report(lat, z, 1, 10**200)
    assert time.perf_counter() - t0 < 1.0


def test_box_budget_checked_before_the_grid(monkeypatch):
    # verify_box_max_norm = 10**4 asks the box oracle for norms near 10**4:
    # a box of ~1.6e10 points, ~4e7 (c1, c2, c3) rows per c0 slab
    meshgrid = np.meshgrid

    def guarded(*axes, **kwargs):
        rows = math.prod(len(axis) for axis in axes)
        assert rows <= quaternion.ENUMERATION_BUDGET, "grid past budget"
        return meshgrid(*axes, **kwargs)

    monkeypatch.setattr(quaternion.np, "meshgrid", guarded)
    lat = build_tidy_lattice(ORD6, {})
    z = UpperHalfPoint(Fraction(1, 10), Fraction(6, 5))
    t0 = time.perf_counter()
    with pytest.raises(BudgetError, match=r"^quaternion box enumeration: "
                       r"\d+ rows exceed the budget of 10000000$"):
        count_lattice_points_box(lat, z, 1, 10**4)
    assert time.perf_counter() - t0 < 1.0
    assert count_lattice_points_box(lat, z, 1, 20) \
        == count_lattice_points(lat, z, 1, 20)


def test_box_budget_boundary_is_the_scanned_box(monkeypatch):
    # the box oracle scans the (2 l_k + 1)-point axes of its box, l_k =
    # floor(sqrt(bound inv[k, k])) from the inverse Gram: a budget of
    # exactly that many points runs, one point less is refused
    lat = build_tidy_lattice(ORD6, {})
    z = UpperHalfPoint(Fraction(1, 10), Fraction(6, 5))
    want = count_lattice_points(lat, z, 1, 20)
    inv = np.linalg.inv(quaternion._counting_data(lat, z)[0])
    bound = 6.0 * 20 * (1 + 1e-9) + 1e-9  # (4 delta + 2) m at delta = 1
    sides = [2 * math.floor(math.sqrt(bound * inv[k, k]) + 1e-9) + 1
             for k in range(4)]
    box = math.prod(sides)
    grids = []
    meshgrid = np.meshgrid

    def spy(*axes, **kwargs):
        grids.append([len(axis) for axis in axes])
        return meshgrid(*axes, **kwargs)

    monkeypatch.setattr(quaternion.np, "meshgrid", spy)
    monkeypatch.setattr(quaternion, "ENUMERATION_BUDGET", box)
    assert count_lattice_points_box(lat, z, 1, 20) == want
    # the (c1, c2, c3) grid it scanned is the box's
    assert grids == [sides[1:]]
    monkeypatch.setattr(quaternion, "ENUMERATION_BUDGET", box - 1)
    with pytest.raises(BudgetError, match=rf"^quaternion box enumeration: "
                       rf"{box} rows exceed the budget of {box - 1}$"):
        count_lattice_points_box(lat, z, 1, 20)


def test_c3_level_budget_checked_before_expansion(monkeypatch):
    # delta = 10**12 puts ~10**7 c3 values in the ellipsoid of norm 400; the
    # c3 level has to be refused before it is allocated, as the others are
    expand = quaternion._expand

    def guarded(lo, hi):
        rows = int(np.maximum(hi - lo + 1, 0).sum())
        assert rows <= quaternion.ENUMERATION_BUDGET, "expanded past budget"
        return expand(lo, hi)

    monkeypatch.setattr(quaternion, "_expand", guarded)
    lat = build_tidy_lattice(ORD14, {})
    z = UpperHalfPoint(Fraction(1, 10), Fraction(6, 5))
    t0 = time.perf_counter()
    with pytest.raises(BudgetError, match=r"^quaternion ellipsoid enumeration: "
                       r"\d+ rows exceed the budget of 10000000$"):
        norm_histogram(lat, z, 10**12, range(1, 401))
    assert time.perf_counter() - t0 < 1.0


def test_line_solver_int64_guard():
    # entries near 2**31 on the line (1, 1, 1): B^2 alone passes 2**62
    big = 2**31 - 1
    f_int = np.full((4, 4), big, dtype=np.int64)
    lines = np.array([[1, 1, 1]], dtype=np.int64)
    lo, hi = np.array([-5]), np.array([5])
    with pytest.raises(BudgetError, match=r"^quaternion line solve: "
                       r"discriminant bound \d+ exceeds 2\*\*62$"):
        _solve_lines(f_int, 1, lines, lo, hi, [1])
    # the bound B^2 + |F00| (|C| + den m) = 2**61 + 2**30 m meets 2**62 at
    # m = 2**31
    f_int = np.full((4, 4), 2**30, dtype=np.int64)
    lines = np.array([[1, 0, 0]], dtype=np.int64)
    _solve_lines(f_int, 1, lines, lo, hi, [2**31 - 1])
    with pytest.raises(BudgetError, match=rf"bound {2**62} exceeds"):
        _solve_lines(f_int, 1, lines, lo, hi, [2**31])
    # entries near 2**30 solve exactly: c0^2 + (2**30 - 1) = m
    f_int = np.diag([1, 2**30 - 1, 1, 1]).astype(np.int64)
    rows, m_vals = _solve_lines(f_int, 1, lines, np.array([-10]),
                                np.array([10]), [2**30 - 1 + 49, 2**30 + 1])
    assert rows.tolist() == [[-7, 1, 0, 0], [7, 1, 0, 0]]
    assert m_vals.tolist() == [2**30 + 48] * 2
    # a square discriminant near 2**60, and c0 past 2**30, stay exact
    k = 2**30 + 1
    rows, _ = _solve_lines(np.diag([1, 5, 1, 1]).astype(np.int64), 1, lines,
                           np.array([0]), np.array([2**31]), [k * k + 5])
    assert rows.tolist() == [[k, 1, 0, 0]]
    with pytest.raises(ValueError, match="zero leading coefficient"):
        _solve_lines(np.diag([0, 1, 1, 1]), 1, lines, lo, hi, [1])


def _solver_checked_by_oracle(monkeypatch):
    """Route every `_solve_lines` call through a check against the lines x
    norms table oracle: equal rows and norm values, order included.  Returns
    the list of row counts, one per call."""
    solve, calls = quaternion._solve_lines, []

    def checked(*args):
        rows, m_vals = solve(*args)
        want_rows, want_m = solve_lines_table(*args)
        assert rows.dtype == m_vals.dtype == np.int64
        assert rows.tolist() == want_rows.tolist()
        assert m_vals.tolist() == want_m.tolist()
        calls.append(len(rows))
        return rows, m_vals

    monkeypatch.setattr(quaternion, "_solve_lines", checked)
    return calls


@pytest.mark.parametrize("order,plan", [
    (ORD6, {}), (ORD6, {5: 1}),
    (ORD14, {}), (ORD14, {3: 1}), (ORD14, {3: 2}), (ORD14, {5: 1})])
def test_line_solver_matches_the_table_oracle(order, plan, monkeypatch):
    calls = _solver_checked_by_oracle(monkeypatch)
    lat = build_tidy_lattice(order, plan)
    for z in SOLVER_Z:
        for delta in (Fraction(1, 2), Fraction(7, 6), Fraction(1),
                      Fraction(3, 2)):
            for norms in (list(range(1, 21)), REPORT_NORMS):
                _candidates_with_norms(lat, z, delta, norms)
    assert len(calls) == 24 and min(calls) > 0


def test_line_solver_matches_the_table_oracle_on_200_norms(monkeypatch):
    calls = _solver_checked_by_oracle(monkeypatch)
    z = UpperHalfPoint(Fraction(1, 10), Fraction(8, 5))
    norm_histogram(build_tidy_lattice(ORD14, {}), z, 1, range(1, 201))
    assert len(calls) == 1 and calls[0] > 0


@pytest.mark.parametrize("sign", [1, -1])
def test_line_solver_matches_the_table_oracle_on_random_forms(sign):
    # symmetric int64 forms of either sign of F00, indefinite ones included,
    # c0 ranges up to 10**9 wide (far past the |s| clip), some with no line;
    # norms planted at small c0 of each range so that roots exist
    rng = np.random.default_rng(29 if sign > 0 else 31)
    found = 0
    for trial in range(200):
        a = rng.integers(-40, 41, (4, 4))
        f_int = a + a.T
        f_int[0, 0] = sign * rng.integers(1, 60)
        den = int(rng.integers(1, 9))
        n_lines = 0 if trial % 10 == 0 else int(rng.integers(1, 40))
        lines = rng.integers(-12, 13, (n_lines, 3))
        width = rng.integers(0, 10 ** rng.integers(1, 10), n_lines)
        lo = -rng.integers(0, width + 1)
        hi = lo + width
        c0 = np.clip(rng.integers(-300, 301, n_lines), lo, hi)
        rows = np.column_stack((c0, lines))
        scaled = ((rows @ f_int) * rows).sum(axis=1)
        planted = scaled[(scaled > 0) & (scaled % den == 0)] // den
        norms = sorted({*planted.tolist(),
                        *rng.integers(1, 5000, 30).tolist()})
        want = solve_lines_table(f_int, den, lines, lo, hi, norms)
        got = _solve_lines(f_int, den, lines, lo, hi, norms)
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tolist() == want[1].tolist()
        found += len(got[0])
    assert found > 200


def _window_case(sign, ranges, norm_c0s):
    """On the line (1, 0, 0) of F = diag(2 sign, 1000, 1, 1) with F01 =
    -6 sign and den 2, the norm is m(c0) = 491 + (c0 - 3)^2 for sign 1 and
    509 - (c0 - 3)^2 for sign -1, so s = 2 sign (c0 - 3) is 0 at c0 = 3.
    Solves the ranges (one line each) for the norms m(c0) of `norm_c0s` and
    checks the result against the table oracle."""
    f_int = np.diag([2 * sign, 1000, 1, 1]).astype(np.int64)
    f_int[0, 1] = f_int[1, 0] = -6 * sign
    lines = np.array([[1, 0, 0]] * len(ranges), dtype=np.int64)
    lo, hi = (np.array(v, dtype=np.int64) for v in zip(*ranges))
    norms = sorted({500 + sign * ((c - 3) ** 2 - 9) for c in norm_c0s})
    rows, m_vals = _solve_lines(f_int, 2, lines, lo, hi, norms)
    want = solve_lines_table(f_int, 2, lines, lo, hi, norms)
    assert rows.tolist() == want[0].tolist()
    assert m_vals.tolist() == want[1].tolist()
    return [r[0] for r in rows.tolist()], m_vals.tolist()


@pytest.mark.parametrize("sign", [1, -1])
def test_line_window_keeps_roots_at_both_ends(sign):
    # m(4) = m(2) and m(10) = m(-4) have roots just outside [5, 9]
    c0s, m_vals = _window_case(sign, [(5, 9)], [4, 5, 9, 10])
    assert c0s == [5, 9]
    assert m_vals == [500 + sign * ((c - 3) ** 2 - 9) for c in (5, 9)]


@pytest.mark.parametrize("sign", [1, -1])
def test_line_window_counts_the_double_root_once(sign):
    # on [-10, 10] the s range crosses 0 at c0 = 3, where the discriminant
    # is 0: the window starts at 0, and c0 = 3 is one row
    c0s, _ = _window_case(sign, [(-10, 10)], [3, 4])
    assert c0s == [2, 3, 4]


@pytest.mark.parametrize("sign", [1, -1])
def test_line_window_without_a_target_forms_no_pair(sign, monkeypatch):
    # the second range's norms m(15), m(16) are not requested, and m(10),
    # whose discriminant is a square, has its roots 10 and -4 off both
    # ranges: only the first range's two norms are paired
    expand, formed = quaternion._expand, []

    def counted(lo, hi):
        out = expand(lo, hi)
        formed.append(len(out[0]))
        return out

    monkeypatch.setattr(quaternion, "_expand", counted)
    c0s, _ = _window_case(sign, [(5, 6), (15, 16)], [5, 6, 10])
    assert c0s == [5, 6]
    assert formed == [2]


@pytest.mark.parametrize("sign,diag,c0,ranges", [
    # the hi = 2**31 case of the int64 guard test, and ranges so wide that
    # F00 c0 + B would wrap int64 when squared, or at once at F00 = -2**20
    (1, [1, 5], 2**30 + 1, [(0, 2**31), (-2**62, 2**62)]),
    (-1, [-1, 2**30], 2**14, [(0, 2**31), (-2**62, 2**62)]),
    (-1, [-2**20, 2**30], 2**4, [(-2**62, 2**62)]),
])
def test_line_window_clips_c0_to_the_root_bound(sign, diag, c0, ranges):
    f_int = np.diag(diag + [1, 1]).astype(np.int64)
    lines = np.array([[1, 0, 0]], dtype=np.int64)
    norm = diag[0] * c0 * c0 + diag[1]
    for lo, hi in ranges:
        rows, m_vals = _solve_lines(f_int, 1, lines, np.array([lo]),
                                    np.array([hi]), [norm])
        want = solve_lines_table(f_int, 1, lines, np.array([lo]),
                                 np.array([hi]), [norm])
        assert rows.tolist() == want[0].tolist()
        assert [r[0] for r in rows.tolist()] \
            == [x for x in (-c0, c0) if lo <= x]
        assert m_vals.tolist() == [norm] * len(rows)


def test_isqrt_rows_matches_math_isqrt_around_squares():
    # float(d) rounds near a square past 2**52; at k = 2**27 the float
    # root of k^2 - 1 truncates to k, one above its isqrt
    assert int(np.sqrt(float(2**54 - 1))) == 2**27
    rng = np.random.default_rng(5)
    k = np.concatenate(([2**26, 2**27, 2**27 + 1, 2**31 - 1],
                        rng.integers(1, 2**31, size=20_000)))
    d = np.concatenate((k[:, None] * k[:, None] + [-1, 0, 1]).T)
    d = np.concatenate(([0, 1, 2, 2**62 - 1], d))
    assert _isqrt_rows(d).tolist() == [math.isqrt(x) for x in d.tolist()]


def test_histogram_subset_monotone_under_smaller_lattices():
    z = UpperHalfPoint(Fraction(1, 10), Fraction(6, 5))
    hists = [norm_histogram(build_tidy_lattice(ORD14, plan), z, 1, range(1, 21))
             for plan in ({}, {3: 1}, {3: 2})]
    for big, small in zip(hists, hists[1:]):
        for m in range(1, 21):
            assert small[m] <= big[m]


def test_counting_report_frozen_values():
    # frozen from a run cross-checked against the box enumerator
    z = UpperHalfPoint(Fraction(1, 10), Fraction(6, 5))
    rep = counting_bound_report(build_tidy_lattice(ORD6, {}), z, 1, 20)
    assert (rep["sum_counts"], rep["sum_square_norm_counts"]) == (1358, 15226)
    rep = counting_bound_report(build_tidy_lattice(ORD14, {3: 1}), z, 1, 20)
    assert (rep["sum_counts"], rep["sum_square_norm_counts"]) == (54, 916)
    rep = counting_bound_report(build_tidy_lattice(ORD14, {3: 2}), z, 1, 20)
    assert (rep["sum_counts"], rep["sum_square_norm_counts"]) == (16, 144)


# -- exponent arithmetic -------------------------------------------------------

def test_supnorm_exponent_values():
    assert supnorm_exponent(0, 1, Fraction(1, 2)) == Fraction(5, 12)
    assert supnorm_exponent(0, 1, 0) == Fraction(1, 2)
    for gamma in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1):
        assert supnorm_exponent(gamma, 1 - gamma, 1) == Fraction(1, 3)
    with pytest.raises(ValueError):
        supnorm_exponent(-1, 1, 0)
    with pytest.raises(ValueError):
        supnorm_exponent(Fraction(1, 2), 1, Fraction(1, 4))


def test_depth_exponent_values():
    assert depth_exponent(0, 1, Fraction(1, 2)) == Fraction(5, 24)
    assert depth_exponent(0, 1, 0) == Fraction(1, 4)
    assert depth_exponent(0, 1, 1) == Fraction(1, 6)


def test_filtration_schedule(monkeypatch):
    sched, amp = filtration_schedule({3: 4}, 0, Fraction(1, 2))
    assert sched[3] == [0, Fraction(1, 8), Fraction(1, 4), Fraction(3, 8),
                        Fraction(1, 2)]
    assert amp == Fraction(1, 6)
    sched, _ = filtration_schedule({3: 2, 5: 3}, Fraction(1, 3), Fraction(1, 3))
    assert sched[3] == [Fraction(1, 3)] * 3
    assert sched[5] == [Fraction(1, 3)] * 4
    assert math.prod(len(v) for v in sched.values()) == 12
    with pytest.raises(ValueError):
        filtration_schedule({3: 0}, 0, 1)
    monkeypatch.setattr(quaternion, "FILTRATION_LEVEL_BUDGET", 5)
    assert len(filtration_schedule({3: 4}, 0, 1)[0][3]) == 5
    with pytest.raises(BudgetError, match=r"^quaternion filtration schedule: "
                       r"6 levels exceed the budget of 5$"):
        filtration_schedule({3: 5}, 0, 1)
