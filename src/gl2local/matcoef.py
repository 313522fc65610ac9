"""Matrix coefficients of the newvector against shear-translated arguments.

phi(i, a, m) averages psi(m x) times the newvector value at a x over the unit
group; it is the ground truth every faster evaluator is checked against.
The average is exact: each unit's sparse Whittaker numerator, its phases
shifted by the psi exponent, is scattered into an integer count vector, one
row per query key of a batch.  The translated coefficient on the depth-one
congruence unit ball reduces to phi(i, a, m) through an explicit row
reduction, implemented here on exact integer residue arrays, many matrices
at once, so no precision is lost in products or inverses.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .cyclotomic import CycloValue, _basis
from .errors import PrecisionError
from .residue import (
    PAdicScalar,
    get_context,
    padic_valuation,
    random_unit,
    residue_dtype,
    unit_inverses,
)
from .whittaker import ReprSpec, WhittakerEngine, required_precision

# query keys per array program (Gram unit averages here, statphase's depth
# programs): bounds the (keys x m) count block and the (keys x basis)
# coordinate block, 32 x 12,500 int64 (3.2 MB) at m = 12,500
DEPTH_CHUNK = 32


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
        """Count vector (int64, length m) and normalization of the unit
        average: the one-key case of key_counts, whose int64 block holds one
        length-m row per key (callers bound it to DEPTH_CHUNK rows); zero
        off the unit locus."""
        key = self.query_key(i, a, madd)
        if key is None:
            return np.zeros(self.m, dtype=np.int64), Fraction(1)
        counts, norms = self.key_counts([key], grouped, cache_w)
        return counts[0], norms[0]

    def key_counts(self, keys: list[tuple[int, int, int, int]],
                   grouped: bool = True, cache_w: bool = True
                   ) -> tuple[np.ndarray, list[Fraction]]:
        """Count block (len(keys) x m, int64) and normalizations of the unit
        averages of query keys (none None), row r for keys[r]; the grouped
        path collapses x-classes on which both factors are constant, the
        ungrouped path iterates the full unit set for the stated average.
        Each unit x contributes the sparse Whittaker numerator of a x with
        every phase shifted by the psi exponent of m x.  Keys are taken a
        (depth, unit group) at a time, and every (key, phase) term of a
        group lands in the block by one exact scatter: the cached path
        reads the numerators of all its (key, unit) pairs from depth_table
        at once, the uncached path calls numerator_counts per (key, unit).
        The block grows with the keys: callers pass at most DEPTH_CHUNK."""
        spec, p, m = self.spec, self.spec.p, self.m
        groups: dict[tuple[int, int], list[int]] = {}
        for row, (i, _, t, _) in enumerate(keys):
            k_eff = (max(required_precision(spec, i), t, 1) if grouped
                     else max(spec.n0, spec.n - i, t) + 1)
            groups.setdefault((i, k_eff), []).append(row)
        rows = np.array(keys, dtype=np.int64).reshape(len(keys), 4)
        norms: list[Fraction] = [Fraction(0)] * len(keys)
        block = np.zeros((len(keys), m), dtype=np.int64)
        for (i, k_eff), members in groups.items():
            norm = self.numerator_scale() / ((p - 1) * p ** (k_eff - 1))
            for row in members:
                norms[row] = norm
            units = np.array(get_context(p, k_eff).units(k_eff))
            _, a_res, t, m_unit = rows[members].T[:, :, None]
            if cache_w:
                lengths, phases, mults = self.depth_table(i)
                pl = len(lengths)
                sizes = lengths[lengths > 0]
                # a x runs over every unit residue mod pl equally often, so
                # a key's units, taken in rounds of the table's residue
                # order, read the whole table once per round
                order = np.argsort(a_res % pl * (units % pl) % pl, axis=1)
                xs = units[order.reshape(len(members), len(sizes), -1)
                           .transpose(0, 2, 1).reshape(len(members), -1)]
                rounds = xs.size // len(sizes)
                sizes = np.tile(sizes, rounds)
                phase, mult = np.tile(phases, rounds), np.tile(mults, rounds)
            else:
                xs = np.broadcast_to(units, (len(members), len(units)))
                pw = p**required_precision(spec, i)
                entries = [self.numerator_counts(i, a * x % pw, cache=False)
                           for a in a_res.ravel().tolist()
                           for x in units.tolist()]
                sizes = [len(ph) for ph, _ in entries]
                phase = np.concatenate([ph for ph, _ in entries])
                mult = np.concatenate([mu for _, mu in entries])
            # psi exponent of m x per (key, unit), m known mod p^t
            pt = p**t
            index = np.repeat((m_unit * (xs % pt) % pt * (m // pt)).ravel(),
                              sizes)
            index += phase
            index %= m
            # every key of the group has the same number of terms
            per_key = index.reshape(len(members), -1)
            per_key += np.array(members)[:, None] * m
            np.add.at(block.reshape(-1), index, mult)
        return block, norms

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

    def inv(self) -> "KStarElement":
        # adjugate over det; the central determinant acts trivially, so the
        # adjugate itself represents the inverse for coefficient purposes
        det = self.a * self.d - self.b * self.c
        det_inv = pow(det, -1, self.mod)
        return KStarElement(self.p, self.k, det_inv * self.d,
                            -det_inv * self.b, -det_inv * self.c,
                            det_inv * self.a)


def _entries(elems: list[KStarElement]) -> np.ndarray:
    """Rows a, b, c, d of ball elements stored at one modulus p^k, as a
    4 x len(elems) array of residue_dtype(p^k)."""
    return np.array([(g.a, g.b, g.c, g.d) for g in elems],
                    dtype=residue_dtype(elems[0].mod)).T


def _valuations(x: np.ndarray, pows: np.ndarray) -> np.ndarray:
    """min(v(x), k) entrywise, k where x = 0, given pows = p^0 .. p^k."""
    v = np.zeros(x.shape, dtype=np.int64)
    for q in pows[1:]:
        v += x % q == 0
    return v


def _decompose_rows(spec: ReprSpec, p: int, k: int, entries
                    ) -> tuple[np.ndarray, ...]:
    """The row reduction of decompose_k_star on many ball elements at once:
    entries are the arrays (a, b, c, d) mod p^k, int64 while 2 p^(2k) <
    2^63 and Python integers above (residue_dtype), so every product of two
    residues and every sum of two products is exact.  Returns arrays (i,
    a_unit, a_prec, m_val, m_unit, m_prec): a = a_unit mod p^a_prec, a unit,
    and m = p^m_val m_unit with m_unit known mod p^m_prec; m_prec = 0 (and
    m_unit = 0) where m is zero.  ValueError if a row is not in the ball or
    the modulus is short of p^(n1 + n)."""
    n, n1 = spec.n, spec.n1
    if spec.p != p or k < n1 + n:
        raise ValueError("matrix stored at insufficient precision")
    a, b, c, d = entries
    if ((a % p == 0) | (d % p == 0)).any():
        raise ValueError("diagonal entries must be units")
    if ((b % p != 0) | (c % p != 0)).any():
        raise ValueError("off-diagonal entries must be divisible by p")
    mod = p**k
    pows = np.array([p**j for j in range(k + 1)], dtype=residue_dtype(mod))
    d_inv = unit_inverses(d, p, k)
    det_d2 = (a * d - b * c) % mod * d_inv % mod * d_inv % mod
    cd = c * d_inv % mod
    v_c = _valuations(cd, pows)
    deep = v_c + n1 >= n
    i = np.where(deep, n, v_c + n1)
    a_prec = np.where(deep, k, k - v_c)
    # off the deep rows, cd = p^v_c w and a picks up w^-1
    w_inv = unit_inverses(np.where(deep, 1, cd // pows[v_c]), p, k)
    a_unit = det_d2 * w_inv % mod % pows[a_prec]
    v_b = _valuations(b, pows)
    m_prec = k - v_b
    m_unit = b // pows[v_b] * d_inv % mod % pows[m_prec]
    return i, a_unit, a_prec, v_b - n1, m_unit, m_prec


def decompose_k_star(g: KStarElement, spec: ReprSpec
                     ) -> tuple[int, PAdicScalar, PAdicScalar]:
    """Parameters (i, a, m) with phi'(g) = phi(i, a, m).

    Conjugating g by the diagonal uniformizer power of exponent n1 and row
    reducing against the unit lower-right entry leaves an upper-triangular
    part times a lower shear of depth v(c) + n1; a unit-diagonal conjugation
    normalizes the shear and lands in the stated parameter form.  Depth at
    least n is equivalent to depth exactly n.  The one-row case of the
    array row reduction (int64 while 2 p^(2k) < 2^63, Python integers
    above) that gram_dimension_estimate runs on all its entries.
    """
    i, a_unit, a_prec, m_val, m_unit, m_prec = (
        int(v[0]) for v in _decompose_rows(spec, g.p, g.k, _entries([g])))
    ctx = get_context(g.p, g.k)
    m_out = ctx.scalar(m_val, m_unit, m_prec) if m_prec else ctx.zero()
    return i, ctx.scalar(0, a_unit, a_prec), m_out


def k_star_keys(engine: MatCoefEngine, p: int, k: int, entries
                ) -> np.ndarray:
    """query_key(*decompose_k_star(g)) of many ball elements, given as
    the entry arrays of _decompose_rows: int64 rows (i, a mod p^w, t, unit
    of m mod p^t).  On the ball a is always a unit, so no key is None; the
    precision and engine-modulus checks of query_key run on every row."""
    spec = engine.spec
    i, a_unit, a_prec, m_val, m_unit, m_prec = _decompose_rows(
        spec, p, k, entries)
    w = np.array([required_precision(spec, j) for j in range(spec.n + 1)])[i]
    t = np.where((m_prec > 0) & (m_val < 0), -m_val, 0)
    if (w > a_prec).any() or (t > m_prec).any():
        raise PrecisionError("unit known to fewer digits than its key reads")
    if engine.m % p ** int(t.max(initial=0)):
        raise ValueError("additive argument too deep for the engine modulus")
    return np.column_stack((i, a_unit % p**w, t, m_unit % p**t)
                           ).astype(np.int64)


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


def _key_values(engine: MatCoefEngine, keys: list) -> np.ndarray:
    """phi_value of each query key (none None), bitwise: key_counts
    DEPTH_CHUNK keys at a time, one reduce_counts of each count block, and
    each coordinate row embedded and scaled as CycloValue.complex does."""
    basis, c0 = _basis(engine.m), engine.c0_complex
    values = np.full(len(keys), CycloValue.zero(engine.m).complex() / c0)
    for start in range(0, len(keys), DEPTH_CHUNK):
        counts, norms = engine.key_counts(keys[start:start + DEPTH_CHUNK])
        coords = basis.reduce_counts(counts)
        # a row whose roots of unity cancel keeps the zero value
        nonzero = coords.reshape(len(counts), -1).any(axis=1)
        for r in np.flatnonzero(nonzero).tolist():
            values[start + r] = complex(norms[r]) * basis.embed(coords[r]) / c0
    return values


def _share_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an integer array in ascending lexicographic
    order, and each row's slot among them: np.unique(rows, axis=0,
    return_inverse=True) by one np.lexsort over the columns and a scan for
    the boundaries between runs of equal rows, without the structured
    sort behind axis=0."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    slots = np.empty(len(rows), dtype=np.intp)
    slots[order] = np.cumsum(new) - 1
    return ordered[new], slots


def gram_dimension_estimate(engine: MatCoefEngine, sample_count: int, rng,
                            return_spectrum: bool = False,
                            elements: list[KStarElement] | None = None):
    """Numerical rank of the Gram matrix of translated coefficients over
    random ball elements; lower-bounds the cyclic span dimension and must
    stay below 4 q^n0.  Raises if the Gram matrix is not PSD within
    GRAM_TOL relative to its top eigenvalue.
    Passing elements explicitly lets stabilization checks nest samples.
    Entries are phi'(g_s^-1 g_t) = phi_value of the decomposed query.  All
    upper-triangle products are formed as four entry arrays, int64 while
    2 p^(2k) < 2^63 and Python integers above (residue_dtype), and reduced
    to query_key rows at once (k_star_keys); _share_rows (one lexsort)
    names each entry's slot, and each distinct key is evaluated once
    (_key_values: count blocks of at most DEPTH_CHUNK x m, whose unit
    averages gather from the per-depth Whittaker tables), bitwise as
    phi_prime_value."""
    spec = engine.spec
    if elements is not None:
        elems = elements
        sample_count = len(elems)
    else:
        elems = [KStarElement.random(spec.p, spec.n1 + spec.n, rng)
                 for _ in range(sample_count)]
    p, k = elems[0].p, elems[0].k
    if any((g.p, g.k) != (p, k) for g in elems):
        raise ValueError("ball elements stored at different moduli")
    mod = p**k
    upper = np.triu_indices(sample_count)
    a1, b1, c1, d1 = _entries([g.inv() for g in elems])[:, upper[0]]
    a2, b2, c2, d2 = _entries(elems)[:, upper[1]]
    products = ((a1 * a2 + b1 * c2) % mod, (a1 * b2 + b1 * d2) % mod,
                (c1 * a2 + d1 * c2) % mod, (c1 * b2 + d1 * d2) % mod)
    # entries share few distinct keys (486 of 8,515 at p=3, n=6 with 130
    # elements); the upper triangle of index names each entry's slot (row by
    # row, the triu_indices order), and one gather fills the matrix
    keys, slots = _share_rows(k_star_keys(engine, p, k, products))
    values = _key_values(engine, [tuple(key) for key in keys.tolist()])
    index = np.zeros((sample_count, sample_count), dtype=np.intp)
    index[upper] = slots
    gram = values[index]
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
