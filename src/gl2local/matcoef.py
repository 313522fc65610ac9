"""Matrix coefficients of the newvector against shear-translated arguments.

phi(i, a, m) averages psi(m x) times the newvector value at a x over the unit
group; it is the ground truth every faster evaluator is checked against.
The average is exact: each unit's sparse Whittaker numerator, its phases
shifted by the psi exponent, is scattered into one integer count vector.  The
translated coefficient on the depth-one congruence unit ball reduces to
phi(i, a, m) through an explicit row reduction, implemented here on exact
integer residue matrices so no precision is lost in products or inverses.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .cyclotomic import CycloValue
from .residue import PAdicScalar, get_context, padic_valuation, random_unit
from .whittaker import ReprSpec, WhittakerEngine, required_precision


class MatCoefEngine(WhittakerEngine):
    """phi evaluator for one representation: the Whittaker engine, whose
    modulus also covers the psi factors of the unit average.  Values are
    exact numerators over the family Gauss constant C0: phi = numerator / C0.
    """

    def __init__(self, spec: ReprSpec):
        super().__init__(spec)
        # statphase's critical-pair plans by depth t = n - i
        self.depth_plans: dict[int, object] = {}

    def query_key(self, i: int, a: PAdicScalar, madd: PAdicScalar
                  ) -> tuple[int, int, int, int] | None:
        """What the unit average depends on: (i, a mod p^w, t, unit of m mod
        p^t) with w = required_precision(spec, i) and t = -v(m) when v(m) < 0,
        else 0; None off the unit locus of a, where the average is zero.
        Queries with equal keys have equal phi_counts."""
        if a.is_zero or a.val != 0:
            return None
        t = 0
        m_unit = 0
        if not madd.is_zero and madd.val < 0:
            t = -madd.val
            if self.m % self.spec.p**t:
                raise ValueError("additive argument too deep for the "
                                 "engine modulus")
            m_unit = madd.residue_unit(t)
        return i, a.residue_unit(required_precision(self.spec, i)), t, m_unit

    def phi_counts(self, i: int, a: PAdicScalar, madd: PAdicScalar,
                   grouped: bool = True, cache_w: bool = True
                   ) -> tuple[np.ndarray, Fraction]:
        """Count vector and normalization of the unit average; the grouped
        path collapses x-classes on which both factors are constant, the
        ungrouped path iterates the full unit set for the stated average.
        Each unit x contributes its sparse Whittaker numerator with every
        phase shifted by the psi exponent of m x; all units are summed into
        one int64 length-m vector by a single exact scatter."""
        key = self.query_key(i, a, madd)
        if key is None:
            return np.zeros(self.m, dtype=np.int64), Fraction(1)
        _, a_res, t, m_unit = key
        spec, p = self.spec, self.spec.p
        w_lvl = required_precision(spec, i)
        k = max(spec.n0, spec.n - i, t) + 1
        k_eff = max(w_lvl, t, 1) if grouped else k
        pw = p**w_lvl
        pt = p**t
        scale_psi = self.m // pt
        units = get_context(p, k_eff).units(k_eff)
        phases, mults = zip(*(
            self.numerator_counts(i, a_res * x % pw, cache=cache_w)
            for x in units))
        shifts = np.repeat(m_unit * np.array(units) % pt * scale_psi,
                           [len(ph) for ph in phases])
        accum = np.zeros(self.m, dtype=np.int64)
        np.add.at(accum, (np.concatenate(phases) + shifts) % self.m,
                  np.concatenate(mults))
        norm = self.numerator_scale() / ((p - 1) * p ** (k_eff - 1))
        return accum, norm

    def phi_numerator(self, i: int, a: PAdicScalar, madd: PAdicScalar,
                      grouped: bool = True, cache_w: bool = True
                      ) -> CycloValue:
        counts, norm = self.phi_counts(i, a, madd, grouped, cache_w)
        return CycloValue.from_counts(self.m, counts, norm)

    def phi_value(self, i: int, a: PAdicScalar, madd: PAdicScalar) -> complex:
        return self.phi_numerator(i, a, madd).complex() / self.c0_complex

    # -- translated coefficient on the congruence unit ball -----------------

    def phi_prime_numerator(self, g: "KStarElement") -> CycloValue:
        i, a, madd = decompose_k_star(g, self.spec)
        return self.phi_numerator(i, a, madd)

    def phi_prime_value(self, g: "KStarElement") -> complex:
        return self.phi_prime_numerator(g).complex() / self.c0_complex


class KStarElement:
    """Element of the depth-one congruence unit ball: an integer residue
    matrix mod p^k with unit diagonal and off-diagonal entries divisible
    by p.  Products and inverses stay exact at the stored modulus."""

    __slots__ = ("p", "k", "mod", "a", "b", "c", "d")

    def __init__(self, p: int, k: int, a: int, b: int, c: int, d: int):
        self.p = p
        self.k = k
        self.mod = p**k
        self.a = a % self.mod
        self.b = b % self.mod
        self.c = c % self.mod
        self.d = d % self.mod
        if self.a % p == 0 or self.d % p == 0:
            raise ValueError("diagonal entries must be units")
        if self.b % p or self.c % p:
            raise ValueError("off-diagonal entries must be divisible by p")

    @classmethod
    def random(cls, p: int, k: int, rng) -> "KStarElement":
        """Uniform entries under the membership constraints."""
        b = rng.randrange(p ** (k - 1)) * p
        c = rng.randrange(p ** (k - 1)) * p
        return cls(p, k, random_unit(p, k, rng), b, c, random_unit(p, k, rng))

    @property
    def level(self) -> int:
        """min(v(b), v(c)), capped at the stored modulus exponent."""
        vb = padic_valuation(self.b, self.p) if self.b else self.k
        vc = padic_valuation(self.c, self.p) if self.c else self.k
        return min(vb, vc, self.k)

    def mul(self, other: "KStarElement") -> "KStarElement":
        assert self.p == other.p and self.k == other.k
        return KStarElement(
            self.p, self.k,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "KStarElement":
        # adjugate over det; the central determinant acts trivially, so the
        # adjugate itself represents the inverse for coefficient purposes
        det = self.a * self.d - self.b * self.c
        det_inv = pow(det, -1, self.mod)
        return KStarElement(self.p, self.k, det_inv * self.d,
                            -det_inv * self.b, -det_inv * self.c,
                            det_inv * self.a)


def decompose_k_star(g: KStarElement, spec: ReprSpec
                     ) -> tuple[int, PAdicScalar, PAdicScalar]:
    """Parameters (i, a, m) with phi'(g) = phi(i, a, m).

    Conjugating g by the diagonal uniformizer power of exponent n1 and row
    reducing against the unit lower-right entry leaves an upper-triangular
    part times a lower shear of depth v(c) + n1; a unit-diagonal conjugation
    normalizes the shear and lands in the stated parameter form.  Depth at
    least n is equivalent to depth exactly n.
    """
    p, big_k = g.p, g.k
    if spec.p != p or big_k < spec.n1 + spec.n:
        raise ValueError("matrix stored at insufficient precision")
    ctx = get_context(p, big_k)
    mod = g.mod
    n, n1 = spec.n, spec.n1
    d_inv = pow(g.d, -1, mod)
    det = (g.a * g.d - g.b * g.c) % mod
    cd = g.c * d_inv % mod
    v_c = padic_valuation(cd, p) if cd else big_k
    if v_c + n1 >= n:
        i = n
        a_unit, a_prec = det * d_inv * d_inv, big_k
    else:
        i = v_c + n1
        w = cd // p**v_c
        a_prec = big_k - v_c
        a_unit = det * d_inv * d_inv * pow(w, -1, p**a_prec)
    a_out = ctx.scalar(0, a_unit, a_prec)
    if g.b == 0:
        m_out = ctx.zero()
    else:
        v_b = padic_valuation(g.b, p)
        m_out = ctx.scalar(v_b - n1, g.b // p**v_b * d_inv, big_k - v_b)
    return i, a_out, m_out


# -- support law and decay bound ------------------------------------------


def support_expected_zero(spec: ReprSpec, i: int, v_a: int | None,
                          v_m: int | None) -> bool:
    """Support law: away from the boundary depths the coefficient lives on
    v(a) = 0 and v(m) = i - n exactly; at i in {n-1, n} the window relaxes
    to v(m) >= -1.  None encodes a zero argument (valuation +infinity)."""
    if v_a != 0:
        return True
    if i <= spec.n - 2:
        return v_m != i - spec.n
    return v_m is not None and v_m <= -2


def evaluate_distinct(engine: MatCoefEngine, queries, evaluate
                      ) -> tuple[list, list[int]]:
    """Evaluate an iterable of queries (i, a, m) sharing by query_key: the
    batch evaluator evaluate(distinct, keys) gets the first query of each
    distinct key, in order of first appearance, with those keys, and
    returns one value per query.  Returns (values, slots) with
    values[slots[k]] the value of the k-th query; equal keys give equal
    coefficients, so a shared value is exactly what the query's own
    evaluation would give."""
    slot_of: dict[tuple[int, int, int, int] | None, int] = {}
    distinct, slots = [], []
    for query in queries:
        key = engine.query_key(*query)
        if key not in slot_of:
            slot_of[key] = len(distinct)
            distinct.append(query)
        slots.append(slot_of[key])
    return evaluate(distinct, list(slot_of)), slots


def verify_support(engine: MatCoefEngine, i: int,
                   grid: list[tuple[PAdicScalar, PAdicScalar]]) -> list[dict]:
    """Evaluate every grid point and compare exact vanishing against the
    support law; rows with violation=True are law breaches (expected none).
    Each distinct query_key is evaluated once (evaluate_distinct)."""
    spec = engine.spec

    def evaluate(queries, keys):
        nums = [engine.phi_numerator(*query) for query in queries]
        return [(num.is_zero(), num.complex() / engine.c0_complex)
                for num in nums]

    results, slots = evaluate_distinct(
        engine, ((i, a, madd) for a, madd in grid), evaluate)
    rows = []
    for (a, madd), slot in zip(grid, slots):
        v_a = None if a.is_zero else a.val
        v_m = None if madd.is_zero else madd.val
        exact, value = results[slot]
        expected = support_expected_zero(spec, i, v_a, v_m)
        rows.append({
            "p": spec.p, "n": spec.n, "family": spec.label, "i": i,
            "v_a": v_a, "a_unit": None if a.is_zero else a.unit,
            "v_m": v_m, "m_unit": None if madd.is_zero else madd.unit,
            "re": value.real, "im": value.imag, "abs": abs(value),
            "ratio_normalized": abs(value) * spec.p ** ((spec.n - i) / 2),
            "expected_zero": expected, "exact_zero": exact,
            "violation": expected and not exact,
        })
    return rows


def decay_bound(spec: ReprSpec) -> int:
    """Normalized-size bound: the explicit constant chain gives 2q^2 for
    principal series (two quadratic roots times q lifts each, which also
    bounds the critical-pair count); for supercuspidals the recorded
    empirical bound q^3."""
    q = spec.p
    return 2 * q * q if spec.family == "ps" else q**3


# -- invariant subspace dimension ------------------------------------------


GRAM_TOL = 1e-6


def gram_dimension_estimate(engine: MatCoefEngine, sample_count: int, rng,
                            return_spectrum: bool = False,
                            elements: list[KStarElement] | None = None):
    """Numerical rank of the Gram matrix of translated coefficients over
    random ball elements; lower-bounds the cyclic span dimension and must
    stay below 4 q^n0.  Raises if the Gram matrix is not PSD within
    GRAM_TOL relative to its top eigenvalue.
    Passing elements explicitly lets stabilization checks nest samples.
    Entries are phi'(g_s^-1 g_t) = phi_value of the decomposed query, each
    distinct query_key evaluated once (evaluate_distinct)."""
    spec = engine.spec
    k = spec.n1 + spec.n
    if elements is not None:
        elems = elements
        sample_count = len(elems)
    else:
        elems = [KStarElement.random(spec.p, k, rng)
                 for _ in range(sample_count)]
    # entries share few distinct queries (486 of 8,515 at p=3, n=6 with 130
    # elements); each is evaluated once into a slot, the upper triangle of
    # index names each entry's slot (row by row, the triu_indices order), and
    # one gather fills the matrix
    def upper_queries():
        for s in range(sample_count):
            inv = elems[s].inv()
            for t in range(s, sample_count):
                yield decompose_k_star(inv.mul(elems[t]), spec)

    values, slots = evaluate_distinct(
        engine, upper_queries(),
        lambda queries, keys: [engine.phi_value(*q) for q in queries])
    index = np.zeros((sample_count, sample_count), dtype=np.intp)
    index[np.triu_indices(sample_count)] = slots
    gram = np.array(values, dtype=complex)[index]
    # the lower triangle and the diagonal mirror the upper as conjugates,
    # set rather than added so every zero keeps its sign
    gram = np.where(np.tri(sample_count, dtype=bool), gram.T.conj(), gram)
    gram = (gram + gram.conj().T) / 2
    eigs = np.linalg.eigvalsh(gram)
    top = float(eigs[-1])
    if top <= 0:
        return (0, eigs) if return_spectrum else 0
    if float(eigs[0]) < -GRAM_TOL * top:
        raise AssertionError(f"Gram matrix not PSD: min eig {eigs[0]:.3e}")
    rank = int(np.count_nonzero(eigs > GRAM_TOL * top))
    return (rank, eigs) if return_spectrum else rank
