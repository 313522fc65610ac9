import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from gl2local import matcoef
from gl2local.characters import build_theta, primitive_char
from gl2local.matcoef import (
    KStarElement,
    MatCoefEngine,
    _entries,
    decay_bound,
    decompose_k_star,
    gram_dimension_estimate,
    k_star_keys,
    support_expected_zero,
    verify_support,
)
from gl2local.residue import get_context, padic_valuation, random_unit
from gl2local.whittaker import ReprSpec, required_precision
from oracles import (
    decompose_k_star_scalar,
    k_star_mul,
    random_k_star_at_level,
    unit_average_counts,
)


def ps_spec(p, n):
    return ReprSpec.principal_series(primitive_char(p, n // 2))


def sc_spec(p, ramified, n):
    return ReprSpec.supercuspidal(build_theta(p, ramified, n - 1 if ramified
                                              else n // 2))


ALL_SMALL = [ps_spec(3, 4), sc_spec(3, False, 4), sc_spec(3, True, 3)]


def test_query_validation():
    spec = ps_spec(3, 4)
    eng = MatCoefEngine(spec)
    ctx = get_context(3, 8)
    for bad_i in (spec.n0, spec.n + 1):
        with pytest.raises(ValueError):
            eng.phi_numerator(bad_i, ctx.one(), ctx.zero())
    assert not eng.phi_numerator(spec.n, ctx.one(), ctx.zero()).is_zero()


def test_ramanujan_values_exact():
    for spec in ALL_SMALL:
        eng = MatCoefEngine(spec)
        ctx = get_context(spec.p, spec.n1 + spec.n)
        q = spec.p
        num = eng.phi_numerator(spec.n, ctx.one(), ctx.zero())
        assert num.equals(eng.c0)  # phi(1, 0) = 1 at full depth
        for m_unit in (1, 2):
            num = eng.phi_numerator(spec.n, ctx.one(), ctx.scalar(-1, m_unit, 4))
            assert num.equals(eng.c0 * Fraction(-1, q - 1))
            deep = eng.phi_numerator(spec.n, ctx.one(), ctx.scalar(-2, m_unit, 4))
            assert deep.is_zero()
        off = eng.phi_numerator(spec.n, ctx.scalar(1, 1, 4), ctx.zero())
        assert off.is_zero()  # W support off units


def grid_of(points):
    """The grid columns (v_a, a_unit, v_m, m_unit) of point tuples."""
    return tuple(np.array(col) for col in zip(*points))


def rows_of(columns):
    """verify_support's columns as one dict per point."""
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def test_support_law_inner_depths():
    spec = ps_spec(3, 6)
    eng = MatCoefEngine(spec)
    i = 4
    points = [(v_a, u_a, v_m, u_m) for v_a in (-1, 0, 1)
              for v_m in range(i - spec.n - 2, 1)
              for u_a, u_m in ((1, 1), (2, 5))]
    rows = rows_of(verify_support(eng, i, grid_of(points), 6))
    assert not any(r["violation"] for r in rows)
    supported = [r for r in rows if not r["expected_zero"]]
    assert supported and any(float(r["abs"]) > 1e-12 for r in supported)
    # supported points sit exactly at v(a) = 0, v(m) = i - n
    for r in supported:
        assert r["v_a"] == 0 and r["v_m"] == i - spec.n


@pytest.mark.parametrize("spec", [ps_spec(3, 6), ps_spec(5, 6),
                                  sc_spec(3, False, 4), sc_spec(3, True, 5)],
                         ids=["ps-3-6", "ps-5-6", "sc-unram-3-4",
                              "sc-ram-3-5"])
def test_verify_support_rows_match_point_by_point(spec):
    # every depth, the boundary depths n - 1 and n among them, on grid
    # columns with non-unit a (off the unit locus), deep m, and twins that
    # share a key; each row, field by field in repr (the float fields as
    # the repr strings the CSV writes), against the row built from the
    # phi_numerator of its own scalars on a fresh engine.  At (5,6,ps) a
    # zero value divided by C0 has a negative real zero
    rng = random.Random(101)
    p, prec = spec.p, spec.n + 4
    ctx = get_context(p, prec)
    eng, ref = MatCoefEngine(spec), MatCoefEngine(spec)
    for i in range(spec.n0 + 1, spec.n + 1):
        units = [random_unit(p, 8, rng) for _ in range(3)]
        units += [units[0] + p ** (spec.n + 1)]
        points = [(v_a, u_a, v_m, u_m) for v_a in (-1, 0, 1) for u_a in units
                  for v_m in range(i - spec.n - 2, 2) for u_m in units[::2]]
        rows = rows_of(verify_support(eng, i, grid_of(points), prec))
        assert len(rows) == len(points)
        for (v_a, u_a, v_m, u_m), row in zip(points, rows):
            a, madd = ctx.scalar(v_a, u_a), ctx.scalar(v_m, u_m)
            num = ref.phi_numerator(i, a, madd)
            value = num.complex() / ref.c0_complex
            expected = support_expected_zero(spec, i, v_a, v_m)
            want = {
                "p": p, "n": spec.n, "family": spec.label, "i": i,
                "v_a": v_a, "a_unit": u_a, "v_m": v_m, "m_unit": u_m,
                "re": repr(value.real), "im": repr(value.imag),
                "abs": repr(abs(value)),
                "ratio_normalized": repr(abs(value)
                                         * p ** ((spec.n - i) / 2)),
                "expected_zero": expected, "exact_zero": num.is_zero(),
                "violation": expected and not num.is_zero()}
            assert {k: repr(v) for k, v in row.items()} \
                == {k: repr(v) for k, v in want.items()}, (i, a, madd)
        assert not all(r["exact_zero"] for r in rows)
        assert not all(r["expected_zero"] for r in rows)


def test_support_law_boundary_depths():
    for spec in (ps_spec(3, 4), sc_spec(3, True, 3)):
        eng = MatCoefEngine(spec)
        ctx = get_context(spec.p, spec.n1 + spec.n)
        for i in (spec.n - 1, spec.n):
            assert not support_expected_zero(spec, i, 0, -1)
            assert support_expected_zero(spec, i, 0, -2)
            for v_m in (-3, -2):
                num = eng.phi_numerator(i, ctx.one(), ctx.scalar(v_m, 1, 6))
                assert num.is_zero()
            num = eng.phi_numerator(i, ctx.scalar(2, 1, 6), ctx.scalar(-1, 1, 6))
            assert num.is_zero()


def test_decay_bounds():
    # |phi| q^((n-i)/2) on sampled supported pairs stays below the bound
    rng = random.Random(7)
    for spec, i, bound in ((ps_spec(3, 6), 4, 18), (sc_spec(3, True, 5), 3, 27)):
        assert decay_bound(spec) == bound
        eng = MatCoefEngine(spec)
        ctx = get_context(3, spec.n1 + spec.n)
        for _ in range(40):
            a = ctx.scalar(0, 3 * rng.randrange(3**spec.n0) + rng.randrange(1, 3))
            madd = ctx.scalar(i - spec.n,
                              3 * rng.randrange(3**spec.n1) + rng.randrange(1, 3))
            ratio = abs(eng.phi_value(i, a, madd)) * 3 ** ((spec.n - i) / 2)
            assert ratio <= bound


def test_grouped_matches_literal_average():
    rng = random.Random(19)
    for spec in ALL_SMALL:
        eng = MatCoefEngine(spec)
        ctx = get_context(spec.p, spec.n1 + spec.n)
        for i in range(spec.n0 + 1, spec.n + 1):
            for v_m in (i - spec.n, -1, 0):
                a = ctx.scalar(0, rng.randrange(1, spec.p**3, 3) + 1, 6)
                madd = ctx.scalar(v_m, 1 + 3 * rng.randrange(9), 6)
                fast = eng.phi_numerator(i, a, madd, grouped=True)
                slow = eng.phi_numerator(i, a, madd, grouped=False)
                assert fast.equals(slow)


def test_translation_invariances():
    spec = ps_spec(3, 6)
    eng = MatCoefEngine(spec)
    ctx = get_context(3, spec.n1 + spec.n)
    i = 4
    a = ctx.scalar(0, 5, 8)
    madd = ctx.scalar(i - spec.n, 7, 8)
    base = eng.phi_numerator(i, a, madd)
    # m shifted by an integral element: additive factor is trivial
    madd2 = ctx.scalar(madd.val, madd.unit + 6 * 3**-madd.val, 8)
    assert base.equals(eng.phi_numerator(i, a, madd2))
    # a scaled by a unit congruent to 1 mod p^n0
    a2 = ctx.scalar(0, a.unit * (1 + 3**spec.n0 * 2), 8)
    assert base.equals(eng.phi_numerator(i, a2, madd))


def test_k_star_element_basics():
    rng = random.Random(3)
    g = KStarElement.random(3, 10, rng)
    assert g.level >= 1
    h = k_star_mul(g, g.inv())
    ident = KStarElement(3, 10, 1, 0, 0, 1)
    det = h.a * h.d - h.b * h.c
    assert h.b == 0 and h.c == 0 and h.a == h.d  # central element
    assert padic_valuation(det, 3) == 0
    for lvl in (1, 2, 3):
        g = random_k_star_at_level(3, 10, rng, lvl)
        assert g.level == lvl
    with pytest.raises(ValueError):
        KStarElement(3, 10, 3, 0, 0, 1)  # non-unit diagonal
    with pytest.raises(ValueError):
        KStarElement(3, 10, 1, 1, 0, 1)  # off-diagonal unit
    assert ident.level == 10


class FracMat:
    """2x2 exact rational matrices for the decomposition oracle."""

    def __init__(self, a, b, c, d):
        self.e = (Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    def __matmul__(self, o):
        a, b, c, d = self.e
        x, y, z, w = o.e
        return FracMat(a * x + b * z, a * y + b * w,
                       c * x + d * z, c * y + d * w)

    def __eq__(self, o):
        return self.e == o.e


def test_decompose_matrix_identity_oracle():
    # the row reduction behind decompose_k_star, replayed in exact rationals
    rng = random.Random(11)
    spec = ps_spec(3, 6)
    p, k = 3, spec.n1 + spec.n
    for _ in range(200):
        g = KStarElement.random(p, k, rng)
        det = Fraction(g.a * g.d - g.b * g.c)
        pn1 = Fraction(p**spec.n1)
        h = FracMat(Fraction(1, p**spec.n1), 0, 0, 1) \
            @ FracMat(g.a, g.b, g.c, g.d) @ FracMat(p**spec.n1, 0, 0, 1)
        u = Fraction(g.c) * pn1 / g.d
        t_part = FracMat(det / g.d, Fraction(g.b) / pn1, 0, g.d)
        assert t_part @ FracMat(1, 0, u, 1) == h
        if u:
            v_u = padic_valuation(u.numerator, p) - padic_valuation(u.denominator, p)
            w = u / p**v_u
            shear = FracMat(1, 0, 0, w) @ FracMat(1, 0, p**v_u, 1) \
                @ FracMat(1, 0, 0, 1 / w)
            assert shear == FracMat(1, 0, u, 1)


def test_decompose_parameters():
    spec = ps_spec(3, 6)
    p, k = 3, spec.n1 + spec.n
    ident = KStarElement(p, k, 1, 0, 0, 1)
    i, a, m = decompose_k_star(ident, spec)
    assert i == spec.n and m.is_zero
    assert a.val == 0 and a.residue_unit(1) == 1
    rng = random.Random(29)
    for j in (1, 2, 3, 5):
        u1 = 1 + 3 * rng.randrange(27)
        u2 = 2 + 3 * rng.randrange(27)
        g = KStarElement(p, k, u1, 0, p**j * u1, u2)
        i, a, m = decompose_k_star(g, spec)
        assert i == min(spec.n, j + spec.n1)
        assert a.val == 0 and m.is_zero
    with pytest.raises(ValueError):
        decompose_k_star(KStarElement(p, spec.n, 1, 0, 0, 1), spec)


def test_phi_prime_identity_and_depth():
    for spec in (ps_spec(3, 4), sc_spec(3, True, 3)):
        eng = MatCoefEngine(spec)
        ident = KStarElement(spec.p, spec.n1 + spec.n, 1, 0, 0, 1)
        assert eng.phi_prime_numerator(ident).equals(eng.c0)
        assert abs(eng.phi_prime_value(ident) - 1) < 1e-12


def test_phi_prime_unitary_and_hermitian():
    rng = random.Random(41)
    for spec in (ps_spec(3, 4), sc_spec(3, False, 4)):
        eng = MatCoefEngine(spec)
        k = spec.n1 + spec.n
        for _ in range(150):
            g = KStarElement.random(spec.p, k, rng)
            v = eng.phi_prime_value(g)
            assert abs(v) <= 1 + 1e-9
        for _ in range(60):
            g = KStarElement.random(spec.p, k, rng)
            lhs = eng.phi_prime_value(g.inv())
            rhs = eng.phi_prime_value(g).conjugate()
            assert abs(lhs - rhs) < 1e-10


def test_phi_prime_filtration_decay():
    rng = random.Random(53)
    spec = ps_spec(3, 6)  # n1 = 3 so j in {1} is strictly inside
    eng = MatCoefEngine(spec)
    k = spec.n1 + spec.n
    bound = decay_bound(spec)
    for j in (1,):
        for _ in range(40):
            g = random_k_star_at_level(spec.p, k, rng, j)
            v = eng.phi_prime_value(g)
            assert abs(v) <= bound * spec.p ** ((j - spec.n1) / 2) + 1e-9


def test_gram_dimension():
    spec = ps_spec(3, 4)
    eng = MatCoefEngine(spec)
    rng = random.Random(61)
    assert gram_dimension_estimate(eng, 1, rng) == 1
    k = spec.n1 + spec.n
    elems = [KStarElement.random(3, k, rng) for _ in range(60)]
    r30, spec30 = gram_dimension_estimate(eng, 0, rng, return_spectrum=True,
                                          elements=elems[:30])
    r60, spec60 = gram_dimension_estimate(eng, 0, rng, return_spectrum=True,
                                          elements=elems)
    assert r30 <= r60 <= 4 * spec.p**spec.n0
    assert float(spec60[0]) > -1e-6 * float(spec60[-1])


def test_gram_dimension_refuses_no_elements():
    eng = MatCoefEngine(ps_spec(3, 4))
    for count, elements in ((0, None), (-2, None), (5, [])):
        with pytest.raises(ValueError, match="needs elements"):
            gram_dimension_estimate(eng, count, random.Random(61),
                                    elements=elements)


@pytest.mark.parametrize("spec", [ps_spec(3, 6), sc_spec(3, True, 5)],
                         ids=["ps-3-6", "sc-ram-3-5"])
def test_gram_shares_values_bitwise(spec, monkeypatch):
    # the shared-value Gram matrix equals the per-entry phi_prime_value one
    rng = random.Random(67)
    size = 30
    elems = [KStarElement.random(spec.p, spec.n1 + spec.n, rng)
             for _ in range(size)]
    ref_eng = MatCoefEngine(spec)
    ref = np.empty((size, size), dtype=complex)
    for s in range(size):
        inv = elems[s].inv()
        for t in range(s, size):
            ref[s, t] = ref_eng.phi_prime_value(k_star_mul(inv, elems[t]))
            ref[t, s] = ref[s, t].conjugate()
    ref = (ref + ref.conj().T) / 2
    eng = MatCoefEngine(spec)
    keys = {eng.query_key(*decompose_k_star(k_star_mul(elems[s].inv(),
                                                       elems[t]), spec))
            for s in range(size) for t in range(s, size)}
    received = []
    key_counts = eng.key_counts
    monkeypatch.setattr(eng, "key_counts", lambda batch, *args: (
        received.extend(tuple(row) for row in batch)
        or key_counts(batch, *args)))
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda g: seen.append(g.copy()) or eigvalsh(g))
    rank, eigs = gram_dimension_estimate(eng, 0, rng, return_spectrum=True,
                                         elements=elems)
    assert seen[0].tobytes() == ref.tobytes()
    assert eigs.tobytes() == eigvalsh(ref).tobytes()
    # each distinct key evaluated once: the batches receive exactly the keys
    assert len(received) == len(set(received)) == len(keys) \
        < size * (size + 1) // 2
    assert set(received) == keys


def scalar_parts(query):
    i, a, m = query
    return (i, a.val, a.unit, a.prec, m.is_zero, m.val, m.unit, m.prec)


@pytest.mark.parametrize("spec", [ps_spec(3, 6), sc_spec(3, False, 4),
                                  sc_spec(3, True, 5), ps_spec(3, 14)],
                         ids=["ps-3-6", "sc-unram-3-4", "sc-ram-3-5",
                              "ps-3-14"])
def test_key_rows_match_query_key_of_decompose(spec):
    # the array row reduction against query_key(*decompose_k_star(g)), row
    # by row, on ball elements of every level and on products of them;
    # (3,14,ps) stores at 3^21, where products of residues pass int64
    rng = random.Random(89)
    eng = MatCoefEngine(spec)
    p, k = spec.p, spec.n1 + spec.n
    elems = ([KStarElement(p, k, 1, 0, 0, 1), KStarElement(p, k, 2, 0, p, 1)]
             + [KStarElement.random(p, k, rng) for _ in range(40)]
             + [random_k_star_at_level(p, k, rng, lvl)
                for lvl in range(1, k) for _ in range(3)])
    elems += [k_star_mul(g.inv(), h) for g, h in zip(elems, elems[7:])]
    entries = _entries(elems)
    assert entries.dtype == (object if spec.n == 14 else np.int64)
    rows = k_star_keys(eng, p, k, entries)
    assert rows.dtype == np.int64
    for g, row in zip(elems, rows.tolist()):
        query = decompose_k_star(g, spec)
        assert scalar_parts(query) == scalar_parts(
            decompose_k_star_scalar(g, spec))
        assert tuple(row) == eng.query_key(*query)


def test_key_counts_match_per_key_phi_counts(monkeypatch):
    # one batch of keys of every depth, grouped or not, cached or not,
    # against the per-key phi_counts and the unit-by-unit oracle; the p = 5
    # cases gather from depth tables of up to p^n0 = 125 residues, and draw
    # fewer keys, since their ungrouped uncached averages run up to 5^5
    # units of up to 15,000 shell terms per key.  The batch runs twice:
    # with the term cap, and with a small cap, which puts every key of a
    # (depth, unit group) in scatters of its own and splits every key of
    # more than one round of units into two runs at least.  The small cap
    # is one term at p = 3, so that runs of one round are covered (the
    # "or 1" floor), and 2^10 terms at p = 5, whose uncached keys it would
    # otherwise scatter one unit at a time.  Keys are one per unit twist,
    # so a spec needs a key space of more than 10 keys: the unramified
    # p = 3 case is n = 6 (n = 4 has 8 keys in all), and the ramified one
    # draws 60 elements, which reach all 12 of its keys
    rng = random.Random(97)
    slices = []  # (cap, key rows, units) of each scatter
    for spec, draws in ((ps_spec(3, 6), 40), (sc_spec(3, False, 6), 40),
                        (sc_spec(3, True, 5), 60), (ps_spec(5, 6), 9),
                        (sc_spec(5, False, 6), 9)):
        eng = MatCoefEngine(spec)
        k = spec.n1 + spec.n
        # random elements sit mostly at ball level 1 (depth n1 + 1); one
        # element at each of levels 2 and 3 reaches the deeper depths
        elems = ([KStarElement.random(spec.p, k, rng) for _ in range(draws)]
                 + [random_k_star_at_level(spec.p, k, rng, lvl)
                    for lvl in (2, 3)])
        queries = {}
        for g in elems:
            query = decompose_k_star(g, spec)
            queries.setdefault(eng.query_key(*query), query)
        keys = list(queries)
        assert len({key[0] for key in keys}) > 1 and len(keys) > 10
        terms = eng._terms
        monkeypatch.setattr(eng, "_terms", lambda rows, part, i, k, units,
                            cache_w: (
            slices.append((matcoef.TERM_CAP, part, units.tolist()))
            or terms(rows, part, i, k, units, cache_w)))
        for grouped in (True, False):
            # the oracle's row of a key: unit 1 of m
            oracle = [unit_average_counts(eng, (*key, 1), grouped)
                      for key in keys]
            for cache_w in (True, False):
                want = []
                for key, (counts, norm) in zip(keys, oracle):
                    one, one_norm = eng.phi_counts(*queries[key], grouped,
                                                   cache_w)
                    assert (one == counts).all() and one_norm == norm
                    want.append((one, one_norm))
                for cap in (matcoef.TERM_CAP, 1 if spec.p == 3 else 2**10):
                    start = len(slices)
                    with monkeypatch.context() as patch:
                        patch.setattr(matcoef, "TERM_CAP", cap)
                        block, norms = eng.key_counts(keys, grouped, cache_w)
                    assert block.shape == (len(keys), eng.m)
                    for counts, norm, (one, one_norm) in zip(block, norms,
                                                             want):
                        assert (counts == one).all() and norm == one_norm
                    # each key's units are covered exactly once by its
                    # slices
                    covered = {}
                    for _, part, units in slices[start:]:
                        for row in part:
                            covered.setdefault(row, []).extend(units)
                    assert covered == {
                        row: get_context(spec.p, k).units(k)
                        for row, (i, _, t) in enumerate(keys)
                        for k in [eng.unit_level(i, t, grouped)]}
                    if cap == matcoef.TERM_CAP:
                        continue
                    # the small cap splits each key of more than one round
                    runs = Counter(row for _, part, _ in slices[start:]
                                   for row in part)
                    for row, (i, _, _) in enumerate(keys):
                        rounds = len(covered[row]) // (
                            len(eng.depth_table(i)[0]) if cache_w else 1)
                        assert runs[row] >= min(rounds, 2), (spec, row)
                    # an ungrouped key runs over many rounds
                    assert grouped or min(runs.values()) >= 2
    # the small caps split groups the term cap keeps whole
    assert max(len(part) for cap, part, _ in slices
               if cap == matcoef.TERM_CAP) > 1
    assert {len(part) for cap, part, _ in slices
            if cap < matcoef.TERM_CAP} == {1}


@pytest.mark.parametrize("spec", [ps_spec(3, 6), sc_spec(3, True, 5)],
                         ids=["ps-3-6", "sc-ram-3-5"])
def test_term_cap_bounds_every_scatter(spec, monkeypatch):
    # at a cap of 200 terms an ungrouped key, p or more rounds of its
    # table, no longer fits: its units are sliced into scatters of at most
    # max(cap, one round) terms, a round being the depth table cached and
    # one unit's numerator uncached, and the counts do not move
    eng, p = MatCoefEngine(spec), spec.p
    keys = sorted({(i, a % p**required_precision(spec, i), t)
                   for i in range(spec.n0 + 1, spec.n + 1)
                   for a in (1, 2, p + 1)
                   for t in (0, spec.n - i, spec.n1 + 1)})
    terms = eng._terms
    scatters = []  # (terms, one round) of each scatter

    def counted(*args):
        index, mult = terms(*args)
        i, cache_w = args[2], args[-1]
        one_round = (len(eng.depth_table(i)[1]) if cache_w
                     else min(eng.m, eng.term_count()))
        scatters.append((len(index), one_round))
        return index, mult

    monkeypatch.setattr(eng, "_terms", counted)
    for grouped in (True, False):
        for cache_w in (True, False):
            want, want_norms = eng.key_counts(keys, grouped, cache_w)
            start = len(scatters)
            with monkeypatch.context() as patch:
                patch.setattr(matcoef, "TERM_CAP", 200)
                got, norms = eng.key_counts(keys, grouped, cache_w)
            assert (got == want).all() and norms == want_norms
            assert all(size <= max(200, one_round)
                       for size, one_round in scatters[start:])
            # the ungrouped keys are split inside
            assert grouped or len(scatters) - start > len(keys)


def test_naive_key_computes_one_numerator_per_unit(monkeypatch):
    # the cost criterion 6 compares against: a cold one-key average on the
    # ungrouped, uncached path calls numerator_counts once per unit mod p^k
    # of its unit level, ascending, and builds no depth table
    for spec in (ps_spec(3, 6), sc_spec(3, True, 5), sc_spec(3, False, 6)):
        ctx = get_context(spec.p, spec.n + 4)
        for i in range(spec.n0 + 1, spec.n + 1):
            for t in (0, spec.n - i):
                eng = MatCoefEngine(spec)
                fresh = eng.numerator_counts
                calls = []
                monkeypatch.setattr(eng, "numerator_counts", lambda i, x: (
                    calls.append(x) or fresh(i, x)))
                eng.phi_counts(i, ctx.scalar(0, 2), ctx.scalar(-t, 2),
                               grouped=False, cache_w=False)
                k = eng.unit_level(i, t, grouped=False)
                assert calls == get_context(spec.p, k).units(k)
                assert eng._tables == {}


def test_query_key_soundness():
    """Queries that share a query_key have equal naive numerators.  Twins
    keep the lower digits of a base query and redraw every digit from one
    below the key's precision, so a key one digit too coarse, or blind to
    the additive unit, puts unequal values under one key."""
    rng = random.Random(83)
    digits = 8
    for spec in (ps_spec(3, 6), sc_spec(3, False, 4), sc_spec(3, True, 5)):
        eng = MatCoefEngine(spec)
        p = spec.p
        ctx = get_context(p, spec.n1 + spec.n)

        def redraw(unit, keep):
            if keep <= 0:
                return random_unit(p, digits, rng)
            return unit % p**keep + p**keep * rng.randrange(p ** (digits - keep))

        def naive(query):
            return eng.phi_numerator(*query, grouped=False, cache_w=False)

        shared = 0
        for i in range(spec.n0 + 1, spec.n + 1):
            w = required_precision(spec, i)
            for v_a in (0, 1):
                for v_m in range(-(spec.n1 + 1), 2):
                    t = max(-v_m, 0)
                    a = ctx.scalar(v_a, random_unit(p, digits, rng))
                    madd = ctx.scalar(v_m, random_unit(p, digits, rng))
                    key = eng.query_key(i, a, madd)
                    want = naive((i, a, madd))
                    for _ in range(12):
                        if v_a:  # off the unit locus: any non-unit a
                            a2 = rng.choice([ctx.zero(), ctx.scalar(
                                rng.choice((-1, 1, 2)),
                                random_unit(p, digits, rng))])
                        else:
                            a2 = ctx.scalar(0, redraw(a.unit, w - 1))
                        if t:
                            m2 = ctx.scalar(v_m, redraw(madd.unit, t - 1))
                        else:
                            m2 = rng.choice([ctx.zero(), ctx.scalar(
                                rng.randrange(3), random_unit(p, digits, rng))])
                        twin = (i, a2, m2)
                        if eng.query_key(*twin) == key:
                            shared += 1
                            assert naive(twin).equals(want), (spec, twin)
        assert shared >= 100, shared


def test_key_rows_of_units_past_int64():
    # units of 50 digits go through the key rule as object columns of
    # Python integers and give the int64 keys of the same units reduced
    # below int64
    rng = random.Random(107)
    for spec in (ps_spec(3, 6), sc_spec(3, True, 5)):
        eng = MatCoefEngine(spec)
        for i in range(spec.n0 + 1, spec.n + 1):
            units = [random_unit(3, 50, rng) for _ in range(6)]
            a_units = [u for u in units for _ in (-2, 0)]
            v_m = [v for _ in units for v in (-2, 0)]
            m_units = [7 * u for u in a_units]
            wide = [np.array(col, dtype=object)
                    for col in (a_units, v_m, m_units)]
            short = [np.array([u % 3**20 for u in a_units]), np.array(v_m),
                     np.array([u % 3**20 for u in m_units])]
            assert max(units) >> 63 and short[0].dtype == np.int64
            depth = np.full(len(v_m), i)
            rows = [eng.key_rows(depth, a, prec, v, m, prec)
                    for (a, v, m), prec in ((wide, 50), (short, 20))]
            assert rows[0].dtype == rows[1].dtype == np.int64
            assert (rows[0] == rows[1]).all()


def test_precision_doubling_stable():
    spec = sc_spec(3, True, 5)
    eng = MatCoefEngine(spec)
    lo = get_context(3, spec.n1 + spec.n)
    hi = get_context(3, 2 * (spec.n1 + spec.n))
    for i in (3, 4, 5):
        a_lo, a_hi = lo.scalar(0, 7, 8), hi.scalar(0, 7, 16)
        m_lo = lo.scalar(i - spec.n, 4, 8)
        m_hi = hi.scalar(i - spec.n, 4, 16)
        assert eng.phi_numerator(i, a_lo, m_lo).equals(
            eng.phi_numerator(i, a_hi, m_hi))
