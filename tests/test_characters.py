import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gl2local import characters
from gl2local.characters import (
    MultChar,
    ThetaChar,
    UnitGroupE,
    all_primitive_chars,
    alpha_of_chi,
    alpha_of_theta,
    build_theta,
    gauss_c0_principal_series,
    gauss_c0_shell,
    gauss_c0_supercuspidal,
    get_unit_group,
    primitive_char,
    psi_exponent_scaled,
    required_gauss_modulus,
    shell_norm_valuation,
    shell_table,
)
from gl2local.cyclotomic import CycloValue
from gl2local.errors import ConstructionError, PrecisionError
from gl2local.residue import get_context
from gl2local.whittaker import ReprSpec
from oracles import (
    conj,
    conjugated,
    exponent_rows,
    ext_valuation,
    root_of_unity,
    rotate,
    shell_table_from_reps,
    unit_keys,
)


def test_psi_exponent_additive():
    # psi(x)psi(y) = psi(x+y) on rationals with p-power denominators
    rng = random.Random(3)
    p, m = 3, 81
    for _ in range(200):
        t, s = rng.randrange(0, 5), rng.randrange(0, 5)
        u, w = rng.randrange(1, 3**4), rng.randrange(1, 3**4)
        e1 = psi_exponent_scaled(p, t, u, m)
        e2 = psi_exponent_scaled(p, s, w, m)
        lift = u * 3 ** (4 - t) + w * 3 ** (4 - s)
        e3 = psi_exponent_scaled(p, 4, lift, m)
        assert (e1 + e2) % m == e3


def test_psi_exponent_scalar_interface():
    # callers evaluate psi at a scalar x through its unit residue to -v(x)
    # digits; integral arguments give exponent 0
    assert psi_exponent_scaled(5, 0, 7, 25) == 0
    ctx = get_context(5, 4)
    x = ctx.scalar(-2, 3, 4)
    assert psi_exponent_scaled(5, -x.val, x.residue_unit(-x.val), 25) == 3
    with pytest.raises(ValueError):
        psi_exponent_scaled(5, -x.val, x.residue_unit(-x.val), 15)
    shallow = ctx.scalar(-3, 2, 2)
    with pytest.raises(PrecisionError):
        shallow.residue_unit(-shallow.val)


def test_multchar_is_multiplicative():
    rng = random.Random(11)
    chi = MultChar(3, 3, 5)
    m = 27
    units = chi.ctx.units(3)
    for _ in range(10_000):
        u, v = rng.choice(units), rng.choice(units)
        assert (chi.exponent(u) + chi.exponent(v)) % chi.value_order \
            == chi.exponent(u * v % m)


def test_conductor_computation():
    assert primitive_char(3, 3).conductor == 3
    assert MultChar(3, 3, 3).conductor == 2
    assert MultChar(3, 3, 9).conductor == 1
    assert MultChar(3, 3, 0).conductor == 0
    assert len(all_primitive_chars(3, 2)) == 4
    assert len(all_primitive_chars(3, 3)) == 12
    # level-1 theta: the loop's last target, conductor 1, and the trivial 0
    for p in (3, 5):
        for ramified in (False, True):
            group = get_unit_group(p, ramified, 1)
            assert ThetaChar(group, (1, 0, 0)).conductor() == 1
            assert ThetaChar(group, (0, 0, 0)).conductor() == 0


def test_character_orthogonality_exact():
    chi = MultChar(5, 2, 7)
    m = chi.value_order
    counts = np.zeros(m, dtype=np.int64)
    for u in chi.ctx.units(2):
        counts[chi.exponent(u)] += 1
    assert CycloValue.from_counts(m, counts).is_zero()


def test_alpha_of_chi_identity():
    p = 3
    for a in (2, 3, 4):
        chi = primitive_char(p, a)
        alpha = alpha_of_chi(chi)
        assert alpha.val == -a
        hi, lo = (a + 1) // 2, a // 2
        m = math.lcm(chi.value_order, p**lo)
        w = alpha.residue_unit(lo)
        for t in range(p**lo):
            lhs = chi.eval_exponent((1 + p**hi * t) % p**a, m)
            rhs = psi_exponent_scaled(p, lo, w * t, m)
            assert lhs == rhs


def test_alpha_of_chi_inverse_negates():
    chi = primitive_char(3, 4)
    alpha = alpha_of_chi(chi)
    alpha_inv = alpha_of_chi(MultChar(chi.p, chi.level, -chi.exp_on_gen))
    prec = min(alpha.prec, alpha_inv.prec)
    assert alpha_inv.val == alpha.val
    assert (alpha_inv.unit + alpha.unit) % 3**prec == 0


def test_alpha_of_chi_needs_conductor_two():
    with pytest.raises(ValueError):
        alpha_of_chi(MultChar(3, 1, 1))


def test_unit_group_structure():
    for ram, lvl, expected in ((False, 2, 72), (False, 3, 648),
                               (True, 2, 6), (True, 4, 54)):
        g = get_unit_group(3, ram, lvl)
        assert g.order == expected
        assert np.count_nonzero(exponent_rows(g)[:, 0] >= 0) == expected
        assert math.prod(g.gen_orders) == expected


@pytest.mark.parametrize("ram,lvl", [(False, 2), (False, 3), (True, 2), (True, 4)])
def test_unit_group_tables_exhaustive(ram, lvl):
    # every unit index holds the exponents that rebuild its class from the
    # generators, and a character there is sum_j t_j weights[j] e_j reduced
    # into Z/value_order; every non-unit index holds the -1 sentinel, also
    # in the characters.  build_theta's theta is nontrivial on one generator
    # only; the second character is nontrivial on all three.
    g = get_unit_group(3, ram, lvl)
    thetas = [build_theta(3, ram, lvl),
              ThetaChar(g, tuple(o - 1 for o in g.gen_orders))]
    dlog = exponent_rows(g)
    assert dlog.shape == (g.mod_a * g.mod_b, 3)
    for k, row in enumerate(dlog.tolist()):
        a, b = divmod(k, g.mod_b)
        if a % 3 == 0 and (ram or b % 3 == 0):
            assert row == [-1, -1, -1]
            assert all(theta.table[k] == -1 for theta in thetas)
            continue
        x = (1, 0)
        for gen, e in zip(g.generators, row):
            x = g.mul(x, g.power(gen, e))
        assert x == (a, b)
        for theta in thetas:
            raw = sum(t * r * e for t, r, e
                      in zip(theta.exps, g.weights, row)) % g.char_order
            assert theta.table[k] == raw // (g.char_order // theta.value_order)


def test_non_unit_lookups_raise():
    with pytest.raises(ValueError):
        get_context(5, 2).dlog(10)
    with pytest.raises(ValueError):
        MultChar(5, 2, 1).exponent(35)
    with pytest.raises(ValueError):
        build_theta(3, False, 2).exponent((3, 6))
    with pytest.raises(ValueError):
        build_theta(3, True, 2).exponent((0, 1))


def test_unit_group_refuses_a_non_generator(monkeypatch):
    # a square mod 5 lifts to an element of order 2, not 4: the certificate
    # (generator orders, then every unit hit exactly once) refuses the group
    monkeypatch.setattr(characters, "primitive_root", lambda p: 4)
    with pytest.raises(ConstructionError):
        UnitGroupE(5, True, 3)


def test_unit_group_mul_matches_dlog():
    rng = random.Random(23)
    g = get_unit_group(3, False, 3)
    keys = unit_keys(g)
    o = g.gen_orders
    dlog = exponent_rows(g)
    for _ in range(2000):
        x, y = rng.choice(keys), rng.choice(keys)
        ex, ey = dlog[g.index(*x)], dlog[g.index(*y)]
        combined = [(a + b) % om for a, b, om in zip(ex, ey, o)]
        assert dlog[g.index(*g.mul(x, y))].tolist() == combined


def test_build_theta_filters():
    for ram, lvl in ((False, 2), (False, 3), (True, 2), (True, 4)):
        theta = build_theta(3, ram, lvl)
        assert theta.conductor() == lvl
        assert theta.is_regular()
        for u in range(1, theta.group.mod_a):
            if u % 3:
                assert theta.exponent((u, 0)) == 0


def test_build_theta_multiplicative():
    rng = random.Random(31)
    theta = build_theta(3, False, 3)
    g = theta.group
    keys = unit_keys(g)
    for _ in range(10_000):
        x, y = rng.choice(keys), rng.choice(keys)
        assert (theta.exponent(x) + theta.exponent(y)) % theta.value_order \
            == theta.exponent(g.mul(x, y))


def test_build_theta_ramified_odd_level_impossible():
    # the deepest one-unit shell of a ramified extension at odd level consists
    # of F-elements, so no F-trivial character has that exact conductor
    with pytest.raises(ConstructionError):
        build_theta(3, True, 3)


def test_alpha_of_theta_unramified():
    p = 3
    for a in (2, 3, 4):
        theta = build_theta(p, False, a)
        alpha = alpha_of_theta(theta)
        assert alpha.a.is_zero
        assert ext_valuation(alpha) == -a
    # exhaustive identity recheck at a = 2
    theta = build_theta(p, False, 2)
    alpha = alpha_of_theta(theta)
    w = alpha.b.residue_unit(1)
    d = theta.group.d_unit
    m = math.lcm(theta.value_order, p)
    for s in range(p):
        for t in range(p):
            key = ((1 + p * s) % 9, (p * t) % 9)
            assert theta.eval_exponent(key, m) \
                == psi_exponent_scaled(p, 1, 2 * w * t * d, m)


def test_alpha_of_theta_ramified():
    theta = build_theta(3, True, 4)
    alpha = alpha_of_theta(theta)
    assert alpha.a.is_zero
    assert ext_valuation(alpha) == -5  # -a(theta) - e + 1


def test_alpha_of_theta_conjugate_negates():
    for ram, lvl in ((False, 3), (True, 4)):
        theta = build_theta(3, ram, lvl)
        b1, b2 = alpha_of_theta(theta).b, alpha_of_theta(conjugated(theta)).b
        assert b2.val == b1.val
        assert (b2.unit + b1.unit) % 3 ** min(b1.prec, b2.prec) == 0


def test_gauss_ps_magnitude_exact():
    for n0 in (2, 3):
        for mu in all_primitive_chars(3, n0):
            c0 = gauss_c0_principal_series(mu)
            assert abs(abs(c0.complex()) - 3 ** (-n0 / 2)) < 1e-12


def test_gauss_ps_inverse_relation():
    mu = primitive_char(3, 3)
    m = math.lcm(mu.value_order, 27)
    c0 = gauss_c0_principal_series(mu, m)
    c0_inv = gauss_c0_principal_series(MultChar(3, 3, -mu.exp_on_gen), m)
    sign = mu.eval_exponent(27 - 1, m)
    assert c0_inv.equals(rotate(conj(c0), sign))


def test_gauss_ps_imprimitive_vanishes():
    chi = MultChar(3, 3, 3)  # conductor 2 < level 3
    assert gauss_c0_principal_series(chi).is_zero()


def test_gauss_sc_window():
    for p, ram, lvl in ((3, False, 2), (3, False, 3), (3, True, 2), (3, True, 4)):
        theta = build_theta(p, ram, lvl)
        n = lvl + 1 if ram else 2 * lvl
        c0 = gauss_c0_supercuspidal(theta)
        scaled = abs(c0.complex()) * p ** (n / 2)
        assert p ** (-0.5) - 1e-9 <= scaled <= p**0.5 + 1e-9
        expected = p**0.5 if ram else 1.0
        assert abs(scaled - expected) < 1e-9


def test_gauss_sc_shell_normalization():
    theta = build_theta(3, False, 2)
    q_e = 9
    ratio = Fraction(q_e**theta.level, theta.group.order)
    a = gauss_c0_shell(theta)
    b = gauss_c0_supercuspidal(theta)
    assert a.equals(b * ratio)


def shell_sum_oracle(theta: ThetaChar, m: int) -> CycloValue:
    # sum over the shell u = piE^c (A + B sqrt(D)), (A, B) over the unit-group
    # keys, of theta^(-1)(u) psi_E(u), at the shell-count normalization;
    # theta(piE) = 1, so theta(u) = theta(A + B sqrt(D))
    p, a = theta.p, theta.level
    counts = np.zeros(m, dtype=np.int64)
    for (A, B) in unit_keys(theta.group):
        if theta.ramified:
            tr = psi_exponent_scaled(p, a // 2, 2 * B, m)  # 2 B p^((c+1)/2)
        else:
            tr = psi_exponent_scaled(p, a, 2 * A, m)  # 2 A p^c
        e = tr - theta.eval_exponent((A, B), m)
        counts[e % m] += 1
    return CycloValue.from_counts(m, counts, Fraction(1, theta.group.order))


# the trailing 1 of each id is theta(piE), which is 1 for every theta
@pytest.mark.parametrize("ram,lvl", [(False, 2), (False, 3), (True, 2),
                                     (True, 4)],
                         ids=["False-2-1", "False-3-1", "True-2-1", "True-4-1"])
def test_gauss_sc_shell_matches_dlog_oracle(ram, lvl):
    theta = build_theta(3, ram, lvl)
    m = required_gauss_modulus(theta)
    assert gauss_c0_shell(theta).equals(shell_sum_oracle(theta, m))
    m2 = 2 * 3 * m
    assert gauss_c0_shell(theta, m2).equals(shell_sum_oracle(theta, m2))


def test_shell_table_rejects_short_modulus():
    theta = build_theta(3, False, 2)
    with pytest.raises(ValueError):
        shell_table(theta, 2, theta.value_order)  # no room for psi_E mod 9


@pytest.mark.parametrize("p,ram,lvl", [
    (3, False, 2), (3, False, 3), (3, True, 2), (3, True, 4), (5, False, 3),
    (5, True, 6), (7, False, 3)])
def test_shell_table_matches_unit_shell_reps(p, ram, lvl):
    # at k = a the transversal is read off theta.table instead of
    # unit_shell_reps(a); at every k the phase is reduced by compare steps
    theta = build_theta(p, ram, lvl)
    spec_m = ReprSpec.supercuspidal(theta).modulus()
    for m in (required_gauss_modulus(theta), spec_m):
        for k in range(1, lvl + 1):
            got = shell_table(theta, k, m)
            want = shell_table_from_reps(theta, k, m)
            for x, y in zip(got, want):
                assert x.dtype == y.dtype and np.array_equal(x, y)


def test_shell_table_refuses_a_level_past_the_conductor():
    theta = build_theta(3, False, 2)
    with pytest.raises(ValueError, match="outside"):
        shell_table(theta, 3, required_gauss_modulus(theta))


def test_shell_norm_valuation():
    for ram, lvl in ((False, 2), (False, 3), (True, 2), (True, 4)):
        theta = build_theta(3, ram, lvl)
        n = lvl + 1 if ram else 2 * lvl
        assert shell_norm_valuation(theta) == -n


def test_gauss_nonzero():
    theta = build_theta(3, False, 2)
    assert not gauss_c0_supercuspidal(theta).is_zero()
    c = gauss_c0_principal_series(primitive_char(3, 2))
    assert not c.is_zero()
    assert not root_of_unity(4, 1).is_zero()
