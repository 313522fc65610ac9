"""Quaternion arithmetic, orders, tidy lattices, counting, exponents."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gl2local.quaternion import (
    QuaternionAlgebra,
    RationalOrder,
    TidyLattice,
    UpperHalfPoint,
    QuadRat,
    build_tidy_lattice,
    count_lattice_points,
    count_lattice_points_box,
    counting_bound_report,
    depth_exponent,
    filtration_schedule,
    iota_inf,
    lattice_shape,
    load_algebra_fixtures,
    local_hilbert_symbol,
    local_split_matrices,
    norm_histogram,
    ramified_primes,
    smith_normal_form,
    supnorm_exponent,
    verify_maximal_order,
    _candidates_with_norms,
    _counting_data,
    _distance_ok,
    _distance_ok_rows,
    _sqrt_sum_nonpositive,
)

FIX = load_algebra_fixtures()
ALG6, ORD6 = FIX["disc6"]
ALG14, ORD14 = FIX["disc14"]


# -- Hilbert symbol vs. exhaustive solvability --------------------------------

def hilbert_oracle(a, b, p, k):
    """(a,b)_p = 1 iff a x^2 + b y^2 = z^2 has a p-primitive solution;
    checked exhaustively mod p^k."""
    mod = p**k
    xs = np.arange(mod, dtype=np.int64)
    squares = set((xs * xs % mod).tolist())
    unit_squares = set((xs[xs % p != 0] ** 2 % mod).tolist())
    grid = (a % mod) * xs[:, None] ** 2 + (b % mod) * xs[None, :] ** 2
    grid %= mod
    both_div = (xs[:, None] % p == 0) & (xs[None, :] % p == 0)
    for target, mask in ((squares, ~both_div), (unit_squares, both_div)):
        vals = set(grid[mask].tolist())
        if vals & target:
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
        prod = ALG6.mul(x, ALG6.conj(x))
        assert prod[1] == prod[2] == prod[3] == 0
        assert prod[0] == ALG6.nr(x)
        assert x[0] + ALG6.conj(x)[0] == ALG6.tr(x)


def test_algebra_requires_positive_a():
    with pytest.raises(ValueError):
        QuaternionAlgebra(-1, 3)


def test_discriminants():
    assert ALG6.discriminant == 6
    assert ALG14.discriminant == 14
    assert QuaternionAlgebra(1, 1).discriminant == 1
    assert not QuaternionAlgebra(1, 1).is_division
    assert ALG6.is_division


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


# -- Smith normal form ---------------------------------------------------------

def unimodular(mat):
    rows = [[Fraction(v) for v in row] for row in mat]
    det = 1
    n = len(rows)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return False
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] / rows[col][col]
            rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return abs(det) == 1


@pytest.mark.parametrize("shape", [(4, 4), (2, 4), (3, 5)])
def test_smith_normal_form_random(shape):
    rng = random.Random(sum(shape))
    for _ in range(40):
        a = [[rng.randint(-9, 9) for _ in range(shape[1])]
             for _ in range(shape[0])]
        u, d, v = smith_normal_form(a)
        prod = [[sum(u[r][k] * a[k][c] for k in range(shape[0]))
                 for c in range(shape[1])] for r in range(shape[0])]
        prod = [[sum(prod[r][k] * v[k][c] for k in range(shape[1]))
                 for c in range(shape[1])] for r in range(shape[0])]
        assert prod == d
        assert unimodular(u) and unimodular(v)
        diag = [d[t][t] for t in range(min(shape))]
        for r in range(shape[0]):
            for c in range(shape[1]):
                if r != c:
                    assert d[r][c] == 0
        for x, y in zip(diag, diag[1:]):
            assert x >= 0 and (x == 0 or y % x == 0)


# -- local splittings and tidy lattices ----------------------------------------

@pytest.mark.parametrize("alg,order,p", [(ALG14, ORD14, 3), (ALG6, ORD6, 5),
                                         (ALG6, ORD6, 7), (ALG14, ORD14, 5)])
def test_local_splitting_is_a_ring_map(alg, order, p):
    prec = 4
    mod = p**prec
    frames = local_split_matrices(alg, p, prec)
    one, im_i, im_j, im_k = frames
    assert one == ((1, 0), (0, 1))
    flat = []
    for vec in order.basis:
        acc = [[0, 0], [0, 0]]
        for idx in range(4):
            c = vec[idx]
            ci = c.numerator * pow(c.denominator, -1, mod) % mod
            for r in range(2):
                for s in range(2):
                    acc[r][s] = (acc[r][s] + ci * frames[idx][r][s]) % mod
        flat.append([acc[0][0], acc[0][1], acc[1][0], acc[1][1]])
    det = round(np.linalg.det(np.array(flat, dtype=float)))
    assert det % p != 0  # order basis spans all of M2 mod p


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


def test_tidy_lattices_nest():
    lat1 = build_tidy_lattice(ORD14, {3: 1})
    lat2 = build_tidy_lattice(ORD14, {3: 2})
    for row in lat2.coords:
        assert lat1.contains(row)
    for row in lat1.coords:
        assert build_tidy_lattice(ORD14, {}).contains(row)


def test_plan_validation():
    with pytest.raises(ValueError):
        build_tidy_lattice(ORD6, {3: 1})  # 3 divides the discriminant
    with pytest.raises(ValueError):
        build_tidy_lattice(ORD6, {2: 1})
    with pytest.raises(ValueError):
        build_tidy_lattice(ORD6, {5: 0})


def test_tidiness_predicate_rejects_unbalanced_shape():
    fake = TidyLattice(ORD6, [[1, 0, 0, 0], [0, 1, 0, 0],
                              [0, 0, 1, 0], [0, 0, 0, 3]], 3, (1, 1, 3))
    assert lattice_shape(fake.coords) == (1, 1, 3)
    assert not fake.is_tidy


# -- hyperbolic distance and the real splitting --------------------------------

def test_point_pair_invariant_basics():
    z1 = UpperHalfPoint(Fraction(1, 10), Fraction(6, 5))
    z2 = UpperHalfPoint(Fraction(1, 2), Fraction(1))
    assert z1.u(z1) == 0
    assert z1.u(z2) == z2.u(z1)
    assert z1.u(z2) == (Fraction(2, 5)**2 + Fraction(1, 5)**2) / (4 * Fraction(6, 5))
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


def test_quadratic_irrational_sign_logic():
    assert QuadRat(-1, 1, 3).sign() == 1       # sqrt(3) - 1 > 0
    assert QuadRat(7, -4, 3).sign() == 1       # 7 - 4 sqrt(3) > 0
    assert QuadRat(-7, 4, 3).sign() == -1
    assert QuadRat(2, -1, 4).sign() == 0       # 2 - sqrt(4) = 0
    assert QuadRat(0, 0, 7).sign() == 0
    assert QuadRat(Fraction(1, 3), Fraction(-1, 5), 2).leq_rational(Fraction(1, 2))


def test_ellipsoid_form_identity():
    # the enumeration form equals 2 m (1 + 2u) for norm-m elements, which is
    # what converts the distance cutoff into the ellipsoid bound
    lat = build_tidy_lattice(ORD6, {})
    z = UpperHalfPoint(Fraction(1, 10), Fraction(6, 5))
    gram, _, _, basis_frame, _ = _counting_data(lat, z)
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
    _, _, _, basis_frame, form = _counting_data(lat, z)
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


def test_sqrt_sum_sign_rule():
    def leq(u, v, a, dtype=np.int64):
        return bool(_sqrt_sum_nonpositive(np.array([u], dtype=dtype),
                                          np.array([v], dtype=dtype), a)[0])
    assert leq(-1, -1, 3)                      # u <= 0, v <= 0
    assert not leq(-1, 1, 3)                   # sqrt(3) - 1 > 0
    assert leq(-7, 4, 3)                       # 4 sqrt(3) - 7 < 0
    assert leq(-2, 1, 4)                       # sqrt(4) - 2 = 0
    assert not leq(7, -4, 3)                   # 7 - 4 sqrt(3) > 0
    assert leq(1, -1, 3)                       # 1 - sqrt(3) < 0
    assert leq(2, -1, 4)                       # 2 - sqrt(4) = 0
    assert not leq(1, 0, 3) and not leq(1, 1, 3)  # u > 0, v >= 0
    assert leq(0, 0, 7)
    grid = [(u, v) for u in range(-9, 10) for v in range(-6, 7)]
    u = np.array([g[0] for g in grid])
    v = np.array([g[1] for g in grid])
    for a in (2, 3, 4, 7):
        expect = [QuadRat(x, w, a).sign() <= 0 for x, w in grid]
        assert _sqrt_sum_nonpositive(u, v, a).tolist() == expect
        assert _sqrt_sum_nonpositive(u.astype(object), v.astype(object),
                                     a).tolist() == expect


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
    basis_frame = lat.basis_in_frame()
    for c, m, ok in zip(rows.tolist(), m_vals.tolist(), fast.tolist()):
        vec = tuple(sum(Fraction(c[k]) * basis_frame[k][i] for k in range(4))
                    for i in range(4))
        assert ok == _distance_ok(alg, vec, z, delta, m), (c, m)
    assert 0 < fast.sum() < len(rows)
    if z == UpperHalfPoint(Fraction(0), Fraction(1)):
        g_r, g_s, den = form
        assert not g_s.any()
        obj = rows.astype(object)
        on_boundary = ((obj @ g_r) * obj).sum(axis=1) \
            == (4 * delta + 2) * den * m_vals.astype(object)
        assert on_boundary.any() and fast[on_boundary].all()


def test_distance_filter_exact_beyond_int64():
    # alpha and k*alpha move z alike; at k = 10**7 the terms of the form
    # (over 10**14 * |G|) square past 2**63, and the decisions must not change
    for order, plan, delta in BOUNDARY_CASES:
        lat = build_tidy_lattice(order, plan)
        z = UpperHalfPoint(Fraction(0), Fraction(1))
        rows, m_vals, form = _candidates_with_norms(lat, z, delta, range(1, 9))
        a = order.algebra.a_h
        k = 10**7
        small = _distance_ok_rows(form, a, delta, rows, m_vals)
        big = _distance_ok_rows(form, a, delta, k * rows, k * k * m_vals)
        assert big.tolist() == small.tolist()
    lat = build_tidy_lattice(ORD6, {})
    z = UpperHalfPoint(Fraction(-3, 7), Fraction(4, 5))
    rows, m_vals, form = _candidates_with_norms(lat, z, 1, range(1, 9))
    assert _distance_ok_rows(form, ALG6.a_h, 1, 1000 * rows,
                             10**6 * m_vals).tolist() \
        == _distance_ok_rows(form, ALG6.a_h, 1, rows, m_vals).tolist()


# -- counting ------------------------------------------------------------------

def test_two_enumerators_agree_exactly():
    lat = build_tidy_lattice(ORD6, {})
    z = UpperHalfPoint(Fraction(1, 2), Fraction(1))
    for m in range(1, 21):
        fast = count_lattice_points(lat, z, 1, m)
        box = count_lattice_points_box(lat, z, 1, m)
        assert fast == box, m
        assert fast % 2 == 0
    assert count_lattice_points(lat, z, 1, 1) >= 2


def test_counting_validation():
    lat = build_tidy_lattice(ORD6, {})
    z = UpperHalfPoint(Fraction(1, 2), Fraction(1))
    with pytest.raises(ValueError):
        count_lattice_points(lat, z, -1, 1)
    with pytest.raises(ValueError):
        count_lattice_points(lat, z, 1, 0)


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


def test_filtration_schedule():
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
