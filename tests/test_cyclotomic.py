import random
from fractions import Fraction

import numpy as np
import pytest

from gl2local.cyclotomic import CycloValue, _basis, euler_phi
from gl2local.errors import BudgetError
from gl2local.residue import factorize
from oracles import (
    conj,
    cyclotomic_poly,
    dense_reduce_counts,
    embed_counts,
    one,
    root_of_unity,
    rotate,
)


def test_factorize_and_phi():
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert euler_phi(1) == 1
    assert euler_phi(9) == 6
    assert euler_phi(360) == 96


def test_cyclotomic_poly_known_values():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    # first modulus with a coefficient outside {-1, 0, 1}
    assert min(cyclotomic_poly(105)) == -2


def test_cyclotomic_poly_degree_is_phi():
    for m in (1, 2, 6, 8, 9, 15, 36, 100):
        assert len(cyclotomic_poly(m)) == euler_phi(m) + 1


def test_minimal_polynomial_vanishes():
    for m in (4, 9, 12, 15, 36):
        acc = CycloValue.zero(m)
        power = one(m)
        for c in cyclotomic_poly(m):
            acc = acc + power * c
            power = rotate(power, 1)
        assert acc.is_zero()


def test_root_relations():
    m = 36
    assert root_of_unity(m, m).equals(one(m))
    rng = random.Random(5)
    for _ in range(50):
        a, b = rng.randrange(m), rng.randrange(m)
        lhs = rotate(root_of_unity(m, a), b)
        assert lhs.equals(root_of_unity(m, a + b))
        assert rotate(root_of_unity(m, b), a).equals(lhs)


def test_full_geometric_sum_is_zero():
    for m in (2, 9, 12, 90):
        acc = CycloValue.from_counts(m, np.ones(m, dtype=np.int64))
        assert acc.is_zero()


def test_from_counts_matches_float_embedding():
    rng = np.random.default_rng(11)
    for m in (9, 12, 90, 360):
        counts = rng.integers(-50, 50, size=m)
        v = CycloValue.from_counts(m, counts)
        tol = 1e-9 * max(1, int(np.abs(counts).sum()))
        assert abs(v.complex() - embed_counts(m, counts)) < tol


@pytest.mark.parametrize("m", [1, 2, 4, 162, 625, 1458, 2401, 3125, 12500,
                               14406])
def test_sparse_reduce_matches_dense_fold(m):
    # one axis (2, 4, 5^4, 7^4, 5^5), two (2*3^4, 2*3^6, 4*5^5) and three
    # (2*3*7^4) prime axes
    rng = np.random.default_rng(m)
    k = min(m, 8)
    sparse = np.zeros(m, dtype=np.int64)
    sparse[rng.choice(m, size=k, replace=False)] = rng.integers(-9, 10, size=k)
    dense = rng.integers(1, 50, size=m) * rng.choice([-1, 1], size=m)
    cases = [sparse, dense, np.zeros(m, dtype=np.int64), -np.abs(dense),
             sparse.astype(object) * (2**70 + 1)]
    for counts in cases:
        got = _basis(m).reduce_counts(counts)
        want = dense_reduce_counts(m, counts)
        assert got.shape == want.shape
        assert got.tolist() == want.tolist()
    # int64 counts past 2^56 reduce exactly on object coordinates, also
    # where a coordinate leaves the int64 range (every m > 4 here)
    huge = dense * 2**57
    want = dense_reduce_counts(m, huge.astype(object))
    assert CycloValue.from_counts(m, huge).coords.tolist() == want.tolist()
    assert m <= 4 or np.abs(want).max() >= 2**63


@pytest.mark.parametrize("m", [1, 162, 14406])
def test_block_reduce_is_row_by_row(m):
    # a block of count rows, a zero row among them, reduces to each row's
    # coordinates, on int64 and on object coordinates
    rng = np.random.default_rng(m + 1)
    block = rng.integers(-9, 10, size=(5, m)) * (rng.random((5, m)) < 0.05)
    block[2] = 0
    basis = _basis(m)
    for counts in (block, block * 2**57):
        got = basis.reduce_counts(counts)
        assert got.shape == (5,) + basis.shape
        for row, coords in zip(counts, got):
            assert coords.tolist() == basis.reduce_counts(row).tolist()


def random_value(rng, m):
    counts = np.zeros(m, dtype=np.int64)
    for _ in range(rng.randrange(1, 6)):
        counts[rng.randrange(m)] += rng.randrange(-4, 5)
    return CycloValue.from_counts(m, counts)


def test_ring_ops_against_floats():
    rng = random.Random(17)
    for _ in range(1000):
        m = rng.choice([9, 12, 20, 36])
        x = random_value(rng, m)
        y = random_value(rng, m)
        for op in ("add", "sub"):
            exact = getattr(x, f"__{op}__")(y)
            approx = {
                "add": x.complex() + y.complex(),
                "sub": x.complex() - y.complex(),
            }[op]
            assert abs(exact.complex() - approx) < 1e-9 * 200


def test_conj_matches_complex_conjugate():
    rng = random.Random(19)
    for _ in range(100):
        m = rng.choice([9, 36, 90])
        x = random_value(rng, m)
        assert abs(conj(x).complex() - x.complex().conjugate()) < 1e-9 * 50
        assert conj(conj(x)).equals(x)


def test_exact_zero_detection():
    m = 90
    x = root_of_unity(m, 13) * 7 - root_of_unity(m, 13) * 7
    assert x.is_zero()
    # 1 + z + z^2 = 0 for the cube root: catches float-level near-zeros exactly
    z = root_of_unity(m, 30)
    s = one(m) + z + root_of_unity(m, 60)
    assert s.is_zero()
    t = s + one(m)
    assert not t.is_zero()


def test_rational_scale():
    m = 12
    x = root_of_unity(m, 5)
    y = x * Fraction(7, 3) * Fraction(3, 7)
    assert y.equals(x)
    assert not y.equals(x * Fraction(3, 7))
    z = x * Fraction(1, 3) + x * Fraction(2, 3)
    assert z.equals(x)


def test_scalar_int_multiplication():
    m = 9
    x = root_of_unity(m, 2)
    assert (x * 0).is_zero()
    assert (3 * x).equals(x + x + x)
    with pytest.raises(TypeError):
        _ = x * root_of_unity(m, 1)  # no products of two values


def test_mixed_moduli_refused():
    with pytest.raises(ValueError):
        _ = root_of_unity(9, 1) + root_of_unity(12, 1)


def test_budget_guard():
    with pytest.raises(BudgetError):
        root_of_unity(10007, 1)  # phi = 10006
