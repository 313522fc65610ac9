import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gl2local.errors import BudgetError, PrecisionError
from gl2local.residue import (
    PRIMALITY_BOUND,
    factorize,
    get_context,
    get_ext_context,
    is_prime,
    padic_valuation,
    primitive_root,
    random_unit,
    residue_dtype,
    smallest_nonresidue,
    unit_inverses,
    unit_shell_reps,
)
from oracles import ext_valuation


def random_scalar(rng, ctx, vmin=-6, vmax=6):
    val = rng.randrange(vmin, vmax + 1)
    unit = rng.randrange(1, ctx.modulus)
    while unit % ctx.p == 0:
        unit = rng.randrange(1, ctx.modulus)
    return ctx.scalar(val, unit, ctx.prec_exp)


def test_padic_valuation():
    assert padic_valuation(1, 3) == 0
    assert padic_valuation(18, 3) == 2
    assert padic_valuation(-27, 3) == 3
    with pytest.raises(ValueError):
        padic_valuation(0, 3)


def test_context_rejects_bad_inputs():
    with pytest.raises(ValueError):
        get_context(4, 3)
    with pytest.raises(ValueError):
        get_context(2, 3)
    with pytest.raises(ValueError):
        get_context(5, 0)
    with pytest.raises(ValueError):
        get_context(9, 3)


def sieve(limit):
    flags = [False, False] + [True] * (limit - 2)
    for d in range(2, math.isqrt(limit - 1) + 1):
        if flags[d]:
            for k in range(d * d, limit, d):
                flags[k] = False
    return flags


def multiplicative_order(g, m):
    k, x = 1, g % m
    while x != 1:
        x = x * g % m
        k += 1
    return k


def test_factorize_and_is_prime_against_sieve():
    prime = sieve(2000)
    for n in range(1, 2000):
        fac = factorize(n)
        assert math.prod(q**a for q, a in fac) == n
        assert all(prime[q] and a >= 1 for q, a in fac)
        assert [q for q, _ in fac] == sorted({q for q, _ in fac})
        assert is_prime(n) == prime[n]
    assert not is_prime(0) and not is_prime(-7)


def test_is_prime_beyond_trial_division():
    # strong pseudoprimes to base 2 (the last one to bases 2..37 too)
    for n in (2047, 3215031751, 3825123056546413051):
        assert not is_prime(n)
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) ** 2)
    assert is_prime(10000019)
    with pytest.raises(ValueError):
        is_prime(PRIMALITY_BOUND)


def test_random_unit_draw_order():
    rng, twin = random.Random(5), random.Random(5)
    for digits in (1, 2, 7):
        u = random_unit(5, digits, rng)
        high = twin.randrange(5 ** (digits - 1))
        assert u == high * 5 + twin.randrange(1, 5)
        assert 0 < u < 5**digits and u % 5


def test_primitive_root_generates_mod_p_squared():
    prime = sieve(200)
    for p in (q for q in range(3, 200, 2) if prime[q]):
        g = primitive_root(p)
        assert multiplicative_order(g, p) == p - 1
        assert multiplicative_order(g, p * p) == p * (p - 1)
        smallest = next(h for h in range(2, p)
                        if multiplicative_order(h, p) == p - 1)
        assert g in (smallest, smallest + p)


def test_zero_handling():
    ctx = get_context(5, 4)
    z = ctx.zero()
    assert z.is_zero
    assert not ctx.scalar(1, 2, 4).is_zero
    with pytest.raises(ValueError):
        z.residue_unit(1)
    x = ctx.scalar(2, 2)  # 50 = 5^2 * 2
    assert (x.val, x.unit, x.prec) == (2, 2, 4)
    ext = get_ext_context(5, 4, ramified=False)
    assert ext_valuation(ext.element(z, x)) == 2


def test_residue_unit_precision_guard():
    ctx = get_context(3, 4)
    x = ctx.scalar(0, 2, 2)
    assert x.residue_unit(2) == 2
    with pytest.raises(PrecisionError):
        x.residue_unit(3)


def test_dlog_table():
    ctx = get_context(5, 3)
    g = ctx.generator
    for u in ctx.units(3):
        assert pow(g, ctx.dlog(u), 125) == u
    assert get_context(5, 3).unit_count() == 100


def test_modulus_bit_budget_guard():
    # 3^2584 has 4096 bits; 3^2585, with 4098, is refused unformed
    assert get_context(3, 2584).modulus.bit_length() == 4096
    with pytest.raises(BudgetError, match=r"^p-adic context: modulus 3\^2585 "
                       r"of 4098 bits exceeds the budget of 4096 bits$"):
        get_context(3, 2585)


def test_dlog_budget_guard():
    ctx = get_context(5, 13)  # 5^13 > 10^7
    with pytest.raises(BudgetError):
        _ = ctx.log_table


def test_smallest_nonresidue():
    for p in (3, 5, 7, 11, 13):
        d = smallest_nonresidue(p)
        assert pow(d, (p - 1) // 2, p) == p - 1
        residues = {pow(x, 2, p) for x in range(1, p)}
        assert all(c in residues for c in range(1, d))


def test_ext_valuation_unramified():
    ext = get_ext_context(5, 6, ramified=False)
    ctx = ext.base
    x = ext.element(ctx.scalar(1, 2, 6), ctx.scalar(3, 1, 6))
    assert ext_valuation(x) == 1
    y = ext.element(ctx.zero(), ctx.scalar(-2, 4, 6))
    assert ext_valuation(y) == -2
    with pytest.raises(PrecisionError):
        ext_valuation(ext.element(ctx.zero(), ctx.zero()))


def test_ext_valuation_ramified_parity():
    ext = get_ext_context(3, 6, ramified=True)
    ctx = ext.base
    # v_E(a + b*sqrt(p)) = min(2 v(a), 2 v(b) + 1): parities differ, no ties
    x = ext.element(ctx.scalar(1, 1, 6), ctx.scalar(1, 2, 6))
    assert ext_valuation(x) == 2
    y = ext.element(ctx.scalar(2, 1, 6), ctx.scalar(0, 1, 6))
    assert ext_valuation(y) == 1


def as_fraction(x):
    return Fraction(0) if x.is_zero else Fraction(x.ctx.p) ** x.val * x.unit


def test_norm_respects_valuation():
    # v(N(x)) e_E = 2 v_E(x), with N(a + b sqrt(D)) = a^2 - D b^2 computed
    # exactly on the integer lifts of the coordinates
    rng = random.Random(23)
    for ram in (False, True):
        ext = get_ext_context(7, 6, ramified=ram)
        ctx = ext.base
        d = 7 if ram else smallest_nonresidue(7)
        for _ in range(200):
            a = random_scalar(rng, ctx, -2, 2) if rng.random() < 0.8 else ctx.zero()
            b = random_scalar(rng, ctx, -2, 2) if rng.random() < 0.8 else ctx.zero()
            if a.is_zero and b.is_zero:
                continue
            norm = as_fraction(a) ** 2 - d * as_fraction(b) ** 2
            v = (padic_valuation(norm.numerator, 7)
                 - padic_valuation(norm.denominator, 7))
            assert v * ext.e == 2 * ext_valuation(ext.element(a, b))


def test_uniformizer_power():
    # pi_E^k is p^k unramified and p^(k//2) sqrt(p)^(k mod 2) ramified
    for ram in (False, True):
        ext = get_ext_context(3, 6, ramified=ram)
        ctx = ext.base
        for k in (-3, -1, 0, 1, 2, 5):
            if ram and k % 2:
                x = ext.element(ctx.zero(), ctx.scalar(k // 2, 1))
            else:
                x = ext.element(ctx.scalar(k // ext.e, 1), ctx.zero())
            assert ext_valuation(x) == k


def test_shell_reps_sizes():
    # |o^x / (1 + P^k)| = q^(f k) - q^(f (k-1))
    ext = get_ext_context(3, 4, ramified=True)
    assert len(unit_shell_reps(ext, 2)) == 6
    assert len(unit_shell_reps(ext, 3)) == 18
    ext2 = get_ext_context(3, 4, ramified=False)
    assert len(unit_shell_reps(ext2, 1)) == 8
    assert len(unit_shell_reps(ext2, 2)) == 72


def test_shell_reps_distinct_classes():
    # pairwise ratios must not be congruent to 1 mod P^k
    for ram in (False, True):
        ext = get_ext_context(3, 5, ramified=ram)
        k = 2
        reps = unit_shell_reps(ext, k)
        seen = set()
        for (a, b) in reps:
            key = canonical_class(ext, a, b, k)
            assert key not in seen
            seen.add(key)


def canonical_class(ext, a, b, k):
    """Reduce a unit a + b*w of o_E modulo 1 + P^k to a hashable key.

    For the unramified case w = sqrt(d), classes mod P^k are pairs mod p^k.
    For the ramified case w = sqrt(p), a counts mod p^ceil(k/2) and b mod
    p^floor(k/2).
    """
    p = ext.base.p
    if ext.ramified:
        return (a % p ** ((k + 1) // 2), b % p ** (k // 2))
    return (a % p**k, b % p**k)


def test_shell_reps_budget():
    ext = get_ext_context(11, 9, ramified=False)
    with pytest.raises(BudgetError):
        unit_shell_reps(ext, 4)


def test_unit_inverses_match_pow():
    # Hensel doubling against pow on int64 and on Python-integer residues;
    # non-units, and everything mod p^0, invert to 0
    assert residue_dtype(2**31 - 1) == np.int64
    assert residue_dtype(2**31) == object
    for p, k in ((3, 0), (3, 1), (3, 6), (5, 3), (7, 2), (11, 5), (3, 25)):
        mod = p**k
        vals = list(range(-4, 3 * p + 4)) + [mod - 1, mod + 1, 5 * mod - 2]
        got = unit_inverses(np.array(vals), p, k)
        assert got.dtype == residue_dtype(mod)
        assert got.tolist() == [pow(v, -1, mod) if v % p else 0 for v in vals]
