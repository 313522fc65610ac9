import cmath
import copy
import math

import numpy as np
import pytest

from gl2local import characters, whittaker
from gl2local.characters import (
    MultChar,
    ThetaChar,
    build_theta,
    gauss_c0_shell,
    get_unit_group,
    primitive_char,
)
from gl2local.errors import PrecisionError
from gl2local.matcoef import MatCoefEngine
from gl2local.residue import get_context
from gl2local.whittaker import ReprSpec, WhittakerEngine, required_precision
from oracles import dense_counts, numerator, unit_keys, value


def _root(e: int, order: int) -> complex:
    return cmath.exp(2j * math.pi * e / order)


def ps_value_oracle(spec: ReprSpec, i: int, x_res: int) -> complex:
    # straight float summation, iterated in reversed order on purpose
    p, n0, mu = spec.p, spec.n0, spec.mu
    pn0 = p**n0
    vo = mu.value_order
    num = 0j
    den = 0j
    for u in reversed(mu.ctx.units(n0)):
        xu = x_res * u % pn0
        shift = (1 + u * p ** (i - n0)) % pn0
        num += _root(mu.exponent(shift), vo) * _root(mu.exponent(xu), vo) \
            * _root(-xu, pn0)
        den += _root(mu.exponent(u), vo) * _root(-u, pn0)
    return num / den


def sc_value_oracle(spec: ReprSpec, i: int, x_res: int) -> complex:
    theta = spec.theta
    p, a, n0 = theta.p, theta.level, spec.n0
    vo = theta.value_order
    lvl = spec.n - i
    pl = p**lvl
    inv = pow(x_res % pl, -1, pl) if lvl else 0
    num = 0j
    den = 0j
    for (A, B) in reversed(unit_keys(theta.group)):
        chi = _root(-theta.exponent((A, B)) % vo, vo)
        if theta.ramified:
            add = _root(2 * B % p**n0, p**n0)
            w = (-(A * A - p * B * B)) % pl
        else:
            add = _root(2 * A % p**a, p**a)
            w = (A * A - theta.group.d_unit * B * B) % pl
        num += chi * add * _root((-inv * w) % pl, pl)
        den += chi * add
    return num / den


def ps_spec(p: int, n: int) -> ReprSpec:
    return ReprSpec.principal_series(primitive_char(p, n // 2))


def sc_spec(p: int, ramified: bool, n: int) -> ReprSpec:
    level = n - 1 if ramified else n // 2
    return ReprSpec.supercuspidal(build_theta(p, ramified, level))


def test_spec_derived_fields():
    s = ps_spec(3, 6)
    assert (s.n, s.n0, s.n1, s.label) == (6, 3, 3, "ps")
    s = sc_spec(3, True, 5)
    assert (s.n, s.n0, s.n1, s.label) == (5, 2, 3, "sc-ram")
    s = sc_spec(3, False, 4)
    assert (s.n, s.n0, s.n1, s.label) == (4, 2, 2, "sc-unram")
    assert required_precision(s, 3) == 1
    assert required_precision(s, 4) == 1
    assert required_precision(ps_spec(3, 8), 5) == 4


def test_spec_validation():
    with pytest.raises(ValueError):
        ReprSpec.principal_series(MultChar(3, 3, 3))  # imprimitive
    with pytest.raises(ValueError):
        ReprSpec.principal_series(primitive_char(3, 1))  # conductor too small
    group = get_unit_group(3, False, 2)
    with pytest.raises(ValueError):
        ReprSpec.supercuspidal(ThetaChar(group, (1, 0, 0)))  # not F-trivial
    # copies of built thetas holding the exponent 1 at one unit class of F
    # (index A mod_b), the least value the base-field check must refuse
    for ramified, level in ((False, 2), (True, 4)):
        theta = copy.copy(build_theta(3, ramified, level))
        base = np.flatnonzero(theta.table[::theta.group.mod_b] >= 0)
        theta.table = theta.table.copy()
        theta.table[base[-1] * theta.group.mod_b] = 1
        with pytest.raises(ValueError, match="trivial on base-field units"):
            ReprSpec.supercuspidal(theta)


def test_modulus_and_engine_guard():
    # one modulus per representation: the value order and p^(n1 + 1), which
    # both engines use
    for spec, vo, n1 in ((ps_spec(3, 4), 6, 2), (sc_spec(3, False, 4), 3, 2),
                         (sc_spec(3, True, 5), 9, 3)):
        assert ((spec.mu or spec.theta).value_order, spec.n1) == (vo, n1)
        assert spec.modulus() == math.lcm(vo, 3 ** (n1 + 1))
        assert WhittakerEngine(spec).m == MatCoefEngine(spec).m == spec.modulus()


def test_support_zero_off_units():
    ctx = get_context(3, 6)
    for spec in (ps_spec(3, 4), sc_spec(3, False, 4), sc_spec(3, True, 3)):
        eng = WhittakerEngine(spec)
        for i in range(spec.n0 + 1, spec.n + 1):
            assert numerator(eng, i, ctx.scalar(1, 1, 5)).is_zero()
            assert numerator(eng, i, ctx.scalar(-1, 2, 5)).is_zero()
            assert numerator(eng, i, ctx.zero()).is_zero()


def test_top_shear_is_one_on_units():
    ctx = get_context(3, 6)
    for spec in (ps_spec(3, 4), ps_spec(3, 6), sc_spec(3, False, 4),
                 sc_spec(3, True, 5)):
        eng = WhittakerEngine(spec)
        for r in (1, 2, 5):
            num = numerator(eng, spec.n, ctx.scalar(0, r))
            assert num.equals(eng.c0)
            assert abs(value(eng, spec.n, ctx.scalar(0, r)) - 1) < 1e-12


def test_ps_matches_reversed_oracle_full_grid():
    spec = ps_spec(3, 4)
    eng = WhittakerEngine(spec)
    ctx = get_context(3, 4)
    for i in (3, 4):
        for x in ctx.units(4):  # all 54 unit residues mod 81
            got = value(eng, i, ctx.scalar(0, x))
            want = ps_value_oracle(spec, i, x % 9)
            assert abs(got - want) < 1e-9


def test_sc_matches_reversed_oracle():
    ctx = get_context(3, 6)
    ram = sc_spec(3, True, 5)
    eng = WhittakerEngine(ram)
    assert abs(value(eng, 4, ctx.scalar(0, 1)) - sc_value_oracle(ram, 4, 1)) < 1e-9
    for i in (3, 4, 5):
        for x in (1, 2, 7, 8):
            got = value(eng, i, ctx.scalar(0, x))
            assert abs(got - sc_value_oracle(ram, i, x)) < 1e-9
    unram = sc_spec(3, False, 4)
    eng = WhittakerEngine(unram)
    for i in (3, 4):
        for x in (1, 2, 4, 5):
            got = value(eng, i, ctx.scalar(0, x))
            assert abs(got - sc_value_oracle(unram, i, x)) < 1e-9


def test_residue_class_invariance():
    ctx = get_context(3, 8)
    for spec in (ps_spec(3, 6), sc_spec(3, False, 4)):
        eng = WhittakerEngine(spec)
        for i in range(spec.n0 + 1, spec.n + 1):
            lvl = required_precision(spec, i)
            x = ctx.scalar(0, 5)
            y = ctx.scalar(0, 5 + 3**lvl * 7)
            assert numerator(eng, i, x).equals(numerator(eng, i, y))


def test_precision_doubling_stable():
    for spec in (ps_spec(3, 4), sc_spec(3, True, 5)):
        for k_base in (spec.n0 + 1,):
            eng = WhittakerEngine(spec)
            queries = [(i, r) for i in range(spec.n0 + 1, spec.n + 1)
                       for r in (1, 2, 4, 5, 7)][:10]
            for i, r in queries:
                lo = numerator(eng, i, get_context(3, k_base).scalar(0, r))
                hi = numerator(eng, i, get_context(3, 2 * k_base).scalar(0, r))
                assert lo.equals(hi)


def test_range_and_precision_guards():
    spec = ps_spec(3, 6)
    eng = WhittakerEngine(spec)
    ctx = get_context(3, 6)
    for bad_i in (0, spec.n0, spec.n + 1):
        with pytest.raises(ValueError):
            numerator(eng, bad_i, ctx.scalar(0, 1))
    with pytest.raises(ValueError, match="not a unit"):
        eng.numerator_counts(spec.n0 + 1, 3)
    shallow = get_context(3, 2).scalar(0, 1)  # n0 = 3 needs 3 digits
    with pytest.raises(PrecisionError):
        numerator(eng, 4, shallow)


def table_entry(eng, i: int, x_res: int) -> tuple[np.ndarray, np.ndarray]:
    """The (phases, multiplicities) slice of depth_table(i) for x_res: the
    entries of the units mod p^level lie end to end in ascending order, so
    x_res mod p^level sits at the position of the units below it."""
    sizes, phases, mults = eng.depth_table(i)
    p = eng.spec.p
    x = x_res % p ** eng._residue_level(i) - 1
    pos = x - x // p
    start = int(sizes[:pos].sum())
    return (phases[start:start + sizes[pos]],
            mults[start:start + sizes[pos]])


def test_counts_cache_consistency():
    spec = sc_spec(3, False, 4)
    eng = WhittakerEngine(spec)
    table = eng.depth_table(3)
    dense = dense_counts(eng, 3, 2)
    phases, mult = table_entry(eng, 3, 2)
    assert (np.bincount(np.repeat(phases, mult), minlength=eng.m)
            == dense).all()
    assert eng.depth_table(3) is table  # cached object reused


def term_exponents(eng, i: int, x_res: int) -> list[int]:
    """Exponent in Z/m of every term of the numerator sum, one per unit
    (ps) or shell class (sc), from the character exponents directly."""
    spec, m = eng.spec, eng.m
    p, n0 = spec.p, spec.n0
    if spec.family == "ps":
        mu, pn0 = spec.mu, p**n0
        step = m // mu.value_order
        out = []
        for u in mu.ctx.units(n0):
            xu = x_res * u % pn0
            shift = (1 + u * p ** (i - n0)) % pn0
            out.append((mu.exponent(shift) * step + mu.exponent(xu) * step
                        + (-xu) % pn0 * (m // pn0)) % m)
        return out
    theta = spec.theta
    vo = theta.value_order
    pl = p ** (spec.n - i)
    inv = pow(x_res % pl, -1, pl) if pl > 1 else 0
    add_mod = p**n0 if theta.ramified else p**theta.level
    out = []
    for A, B in unit_keys(theta.group):
        chi = -theta.exponent((A, B)) % vo * (m // vo)
        if theta.ramified:
            add, w = 2 * B % add_mod, -(A * A - p * B * B) % pl
        else:
            add, w = 2 * A % add_mod, (A * A - theta.group.d_unit * B * B) % pl
        out.append((chi + add * (m // add_mod) + (-inv * w) % pl * (m // pl))
                   % m)
    return out


@pytest.mark.parametrize("spec", [ps_spec(3, 6), ps_spec(5, 4),
                                  sc_spec(3, False, 4), sc_spec(3, True, 5)],
                         ids=["ps-3-6", "ps-5-4", "sc-unram-3-4", "sc-ram-3-5"])
def test_sparse_entry_matches_term_scatter(spec):
    eng = WhittakerEngine(spec)
    for i in range(spec.n0 + 1, spec.n + 1):
        for x_res in (1, 2, spec.p + 1, spec.p**spec.n - 1):
            phases, mult = table_entry(eng, i, x_res)
            assert len(phases) == len(mult)
            assert len(phases) <= min(eng.m, eng.term_count())
            assert not phases.flags.writeable and not mult.flags.writeable
            # ascending distinct phases and positive multiplicities; the
            # fresh entry, counted by np.bincount when the terms outnumber
            # m (sc here), equals its depth_table slice
            assert (np.diff(phases) > 0).all() and (mult > 0).all()
            for got, cached in zip(eng.numerator_counts(i, x_res),
                                   (phases, mult)):
                assert got.dtype == cached.dtype == np.int64
                assert (got == cached).all()
            want = np.zeros(eng.m, dtype=np.int64)
            np.add.at(want, term_exponents(eng, i, x_res), 1)
            assert (dense_counts(eng, i, x_res) == want).all()


def test_shell_table_built_once_per_level(monkeypatch):
    # count builds through both bindings: the engine's and the one that the
    # standalone gauss_c0_shell reads
    build = characters.shell_table
    builds = []

    def counted(theta, k, m):
        builds.append(k)
        return build(theta, k, m)

    monkeypatch.setattr(characters, "shell_table", counted)
    monkeypatch.setattr(whittaker, "shell_table", counted)
    for spec in (sc_spec(3, False, 4), sc_spec(3, True, 5)):
        a = spec.theta.level
        for c0_first in (False, True):
            builds.clear()
            eng = WhittakerEngine(spec)
            if c0_first:
                eng.c0
            eng.numerator_counts(spec.n0 + 1, 1)
            eng.c0
            # numerator_counts and C0 share one level-a table, in either order
            assert builds == [a]
            assert list(eng._sc_cache) == [a]
        table = eng.shell_table(a)
        assert eng.shell_table(a) is table
        assert not any(arr.flags.writeable for arr in table)
        q_e = 3 if spec.ramified else 9
        assert len(table[0]) == q_e**a - q_e ** (a - 1)
        assert (table[3] % 3 != 0).all()  # eta is a unit on the shell
        builds.clear()
        assert eng.c0.equals(gauss_c0_shell(spec.theta, eng.m))
        assert builds == [a]  # the standalone function builds its own
