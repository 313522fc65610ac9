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
from functools import cached_property

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
from .whittaker import (
    ReprSpec,
    WhittakerEngine,
    check_depth,
    required_precision,
)

# bytes of the (keys x m) int64 count block of one call of the unit-average
# count program (key_values): 32 keys at m = 12,500, all 162 Gram keys of
# (3,6,ps) at m = 162
AVERAGE_BLOCK = 32 * 12_500 * 8

# (key, phase) terms per scatter of key_counts, one round of a key's units
# at least: a (5,8,ps) support key has up to ~10^6, each term 24 bytes of
# index, multiplicity and shift
TERM_CAP = 2**18


class MatCoefEngine(WhittakerEngine):
    """phi evaluator for one representation: the Whittaker engine, whose
    modulus also covers the psi factors of the unit average.  Values are
    exact numerators over the family Gauss constant C0: phi = numerator / C0.
    """

    def __init__(self, spec: ReprSpec):
        super().__init__(spec)
        # statphase's critical-pair plans by depth t = n - i
        self.depth_plans: dict[int, object] = {}
        # required_precision by depth, and v_p(m), the deepest t whose
        # psi factors the modulus holds, for the key rule
        self._precision = np.array([required_precision(spec, i)
                                    for i in range(spec.n + 1)])
        self._t_max = padic_valuation(self.m, spec.p)

    @cached_property
    def zero_value(self) -> complex:
        """phi_value of a zero numerator, zeros signed as C0 leaves them."""
        return CycloValue.zero(self.m).complex() / self.c0_complex

    def key_rows(self, i, a_unit, a_prec, m_val, m_unit, m_prec
                 ) -> np.ndarray:
        """The key rule on points (i, a, m), i in (n0, n], a = a_unit mod
        p^a_prec a unit, m = p^m_val m_unit with m_unit known mod p^m_prec
        (m_val >= 0 where m = 0), given as arrays or, for one point, as
        Python integers: int64 rows (i, a mu^-1 mod p^w, t), w =
        required_precision(spec, i), t = max(-v(m), 0) and mu the least
        residue of the unit of m mod p^t (1 where t = 0), of shape (3,) for
        one point.  One key per unit twist: W reads a x mod p^w and psi
        reads m x mod p^t, so x -> mu^-1 x carries the average at (a, p^-t
        mu) term for term onto the one at (a mu^-1, p^-t), for any lift of
        mu; this is the only code that reads the unit of m.  Points with
        equal rows have equal phi_counts.  ValueError if a t is too deep for
        the engine modulus, PrecisionError if a unit is known to fewer
        digits than its row reads."""
        p, m = self.spec.p, self.m
        # operators and np.count_nonzero take Python integers as well as
        # arrays, so that one point builds no array before its row
        t = -m_val * (m_val < 0)
        if np.count_nonzero(t > self._t_max):
            raise ValueError("additive argument too deep for the engine "
                             "modulus")
        w = self._precision[i]
        if np.count_nonzero((w > a_prec) | (t > m_prec)):
            raise PrecisionError("unit known to fewer digits than its key "
                                 "reads")
        # p^w and p^t divide m, and the units taken mod m first leave
        # Python integers past int64 out of the int64 arithmetic.  One
        # point stays in Python integers; arrays invert mu once mod p^(deepest
        # w), in residue_dtype, so the product with a stays exact
        pw = p**w
        mu = m_unit % m % p**t + (t == 0)
        if isinstance(mu, int):
            pw = int(pw)
            inv = pow(mu, -1, pw)
        else:
            inv = unit_inverses(mu, p, int(np.max(w, initial=0))) % pw
        return np.array((i, a_unit % m % pw * inv % pw, t),
                        dtype=np.int64).T

    def query_key(self, i: int, a: PAdicScalar, madd: PAdicScalar
                  ) -> tuple[int, int, int] | None:
        """key_rows on the Python integers of one point (_point_columns);
        None off the unit locus."""
        check_depth(self.spec, i)
        cols = _point_columns(a, madd)
        return None if cols is None else tuple(self.key_rows(i, *cols).tolist())

    def phi_counts(self, i: int, a: PAdicScalar, madd: PAdicScalar,
                   grouped: bool = True, cache_w: bool = True
                   ) -> tuple[np.ndarray, Fraction]:
        """Count vector (int64, length m) and normalization of the unit
        average, the one-key case of key_counts; zero off the unit locus."""
        key = self.query_key(i, a, madd)
        if key is None:
            return np.zeros(self.m, dtype=np.int64), Fraction(1)
        counts, norms = self.key_counts(np.array([key]), grouped, cache_w)
        return counts[0], norms[0]

    def unit_level(self, i: int, t: int, grouped: bool = True) -> int:
        """The level k of the units mod p^k a key (i, ., t) averages
        over: grouped (constant classes) max(required_precision, t, 1),
        ungrouped (the stated average) max(n0, n - i, t) + 1."""
        spec = self.spec
        return (max(required_precision(spec, i), t, 1) if grouped
                else max(spec.n0, spec.n - i, t) + 1)

    def key_counts(self, keys: np.ndarray, grouped: bool = True,
                   cache_w: bool = True) -> tuple[np.ndarray, list[Fraction]]:
        """Count block (len(keys) x m, int64) and normalizations of the unit
        averages of int64 key rows, row r for keys[r]; the grouped path
        collapses x-classes on which both factors are constant, the
        ungrouped path iterates the full unit set for the stated average.
        Each unit x contributes the sparse Whittaker numerator of a x with
        every phase shifted by the psi exponent of p^-t x.  Keys are taken a
        (depth, unit group) at a time, and its units a run at a time in
        whole rounds of the table (one round at least): phi(p^l) ascending
        units cached (depth_table at level l), single units uncached.  Each
        run's numerator table is chosen once, depth_table or numerator_table
        of the run, and serves every key of the group, added to the block
        by exact scatters of at most TERM_CAP terms: whole keys while one
        key's units fit, else one key a scatter."""
        p, m = self.spec.p, self.m
        rows = np.asarray(keys, dtype=np.int64).reshape(-1, 3)
        groups: dict[tuple[int, int], list[int]] = {}
        for row, (i, _, t) in enumerate(rows.tolist()):
            level = self.unit_level(i, t, grouped)
            groups.setdefault((i, level), []).append(row)
        norms: list[Fraction] = [Fraction(0)] * len(rows)
        block = np.zeros((len(rows), m), dtype=np.int64)
        for (i, k_eff), members in groups.items():
            norm = self.numerator_scale() / ((p - 1) * p ** (k_eff - 1))
            for row in members:
                norms[row] = norm
            units = np.array(get_context(p, k_eff).units(k_eff))
            # a numerator has at most min(m, term_count) phases
            per_unit = min(m, self.term_count())
            per_round = len(self.depth_table(i)[0]) if cache_w else 1
            step = TERM_CAP // (len(units) * per_unit) or 1
            run = min(len(units),
                      (TERM_CAP // (per_round * per_unit) or 1) * per_round)
            for start in range(0, len(units), run):
                run_units = units[start:start + run]
                table = (self.depth_table(i) if cache_w
                         else self.numerator_table(i, run_units.tolist()))
                # a slice's term arrays die with its call, before the next
                for lo in range(0, len(members), step):
                    np.add.at(block.reshape(-1), *self._terms(
                        rows, members[lo:lo + step], k_eff, run_units, table))
        return block, norms

    def _terms(self, rows: np.ndarray, part: list[int], k: int,
               units: np.ndarray, table: tuple[np.ndarray, ...]
               ) -> tuple[np.ndarray, np.ndarray]:
        """Flat block indices and multiplicities of the (key, phase) terms
        of the key rows part, all of one depth, over units, whole rounds of
        the ascending units mod p^k, whose numerators are the rounds of
        table (numerator_table's layout), tiled once per round and key.
        With y = a x, as x runs over the units so does y, so every key reads
        the numerators of the same y; only the psi exponent, of p^-t a^-1 y,
        depends on the key."""
        p, m = self.spec.p, self.m
        _, a_res, t = rows[part].T[:, :, None]
        reps = len(part) * len(units) // len(table[0])
        sizes, index, mult = (np.tile(arr, reps) for arr in table)
        xs = unit_inverses(a_res, p, k) * units % p**k
        # psi exponent of p^-t x per (key, unit), 0 at t = 0
        pt = p**t
        index += np.repeat((xs % pt * (m // pt)).ravel(), sizes)
        index %= m
        # every key of the slice has the same number of terms
        per_key = index.reshape(len(part), -1)
        per_key += np.array(part)[:, None] * m
        return index, mult

    def average_coords(self, keys: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, list]:
        """The unit-average count program of key_values: the nonzero
        coordinates (reduce_terms) of the key_counts of the key rows, and
        their norms."""
        counts, norms = self.key_counts(keys)
        basis = _basis(self.m)
        return *basis.reduce_terms(*basis.count_terms(counts)), norms

    def phi_numerator(self, i: int, a: PAdicScalar, madd: PAdicScalar,
                      grouped: bool = True, cache_w: bool = True
                      ) -> CycloValue:
        counts, norm = self.phi_counts(i, a, madd, grouped, cache_w)
        return CycloValue.from_counts(self.m, counts, norm)

    def phi_value(self, i: int, a: PAdicScalar, madd: PAdicScalar) -> complex:
        return self.phi_numerator(i, a, madd).complex() / self.c0_complex

    # -- translated coefficient on the congruence unit ball -----------------

    def phi_prime_numerator(self, g: "KStarElement") -> CycloValue:
        """The unit average of the key of g, k_star_keys on its one
        element."""
        counts, norms = self.key_counts(k_star_keys(self, g.p, g.k,
                                                    _entries([g])))
        return CycloValue.from_counts(self.m, counts[0], norms[0])

    def phi_prime_value(self, g: "KStarElement") -> complex:
        return self.phi_prime_numerator(g).complex() / self.c0_complex


def _point_columns(a: PAdicScalar, madd: PAdicScalar) -> tuple | None:
    """The key_rows columns (a_unit, a_prec, m_val, m_unit, m_prec) of a
    point (a, m), a zero m holding val = unit = 0; None off the unit locus,
    where the average is zero."""
    return (None if a.is_zero or a.val
            else (a.unit, a.prec, madd.val, madd.unit, madd.prec))


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
        """The adjugate (d, -b, -c, a): det times the inverse, and the
        central determinant acts trivially on coefficients, so it stands
        for the inverse."""
        return KStarElement(self.p, self.k, self.d, -self.b, -self.c, self.a)


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
    """query_key(*decompose_k_star(g)) of many ball elements, given as the
    entry arrays of _decompose_rows (on the ball a is a unit): key_rows of
    the decomposed rows."""
    return engine.key_rows(*_decompose_rows(engine.spec, p, k, entries))


# -- one key program: shared keys, chunked values --------------------------


def _share_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an integer array, ascending, and each row's slot
    among them: np.unique(rows, axis=0, return_inverse=True) by one
    np.lexsort and a scan for the ends of runs of equal rows."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    slots = np.empty(len(rows), dtype=np.intp)
    slots[order] = np.cumsum(new) - 1
    return ordered[new], slots


def grid_keys(engine: MatCoefEngine, i: int, grid: tuple[np.ndarray, ...],
              prec: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct key rows (_share_rows of key_rows) of the depth-i grid
    columns (v_a, a_unit, v_m, m_unit), units known to prec digits, and
    each point's slot; a point off the unit locus, an exact zero, has no
    row and gets the slot len(keys)."""
    check_depth(engine.spec, i)
    v_a, a_unit, v_m, m_unit = grid
    on = v_a == 0
    keys, slots = _share_rows(engine.key_rows(
        np.full(np.count_nonzero(on), i), a_unit[on], prec, v_m[on],
        m_unit[on], prec))
    point_slots = np.full(len(v_a), len(keys))
    point_slots[on] = slots
    return keys, point_slots


def key_values(engine: MatCoefEngine, keys: np.ndarray, coords_of,
               chunk: int | None = None
               ) -> tuple[list[complex], np.ndarray]:
    """phi_value of each int64 key row as a Python complex, and the mask of
    rows whose numerator is not exactly zero.  The count program coords_of
    gives, for chunk rows at a time (by default the most whose unit-average
    count block fits AVERAGE_BLOCK), the nonzero coordinates of their
    numerators (reduce_terms' flat indices and coefficients) and each row's
    rational scale.  A row is nonzero iff it owns a coefficient; each
    nonzero row is scattered into one dense coordinate row, embedded and
    scaled as CycloValue does, bitwise, and a zero row keeps
    engine.zero_value."""
    basis, c0 = _basis(engine.m), engine.c0_complex
    values = [engine.zero_value] * len(keys)
    nonzero = np.zeros(len(keys), dtype=bool)
    chunk = chunk or max(AVERAGE_BLOCK // (8 * engine.m), 1)
    for start in range(0, len(keys), chunk):
        index, coeffs, scales = coords_of(keys[start:start + chunk])
        # row r owns the run index[bounds[r]:bounds[r + 1]] of the ascending
        # flat indices
        bounds = np.searchsorted(index, np.arange(len(scales) + 1)
                                 * basis.size)
        found = bounds[1:] > bounds[:-1]
        nonzero[start:start + len(found)] = found
        bounds, coord = bounds.tolist(), index % basis.size
        # one dense row, filled with each nonzero row in turn and cleared
        row = np.zeros(basis.shape, dtype=coeffs.dtype)
        flat = row.reshape(-1)
        for r in np.flatnonzero(found).tolist():
            at = coord[bounds[r]:bounds[r + 1]]
            flat[at] = coeffs[bounds[r]:bounds[r + 1]]
            values[start + r] = complex(scales[r]) * basis.embed(row) / c0
            flat[at] = 0
    return values, nonzero


def point_columns(spec: ReprSpec, i: int, grid: tuple[np.ndarray, ...]
                  ) -> dict[str, list]:
    """The CSV point columns p, n, family, i, v_a, a_unit, v_m, m_unit of
    the depth-i grid columns (v_a, a_unit, v_m, m_unit)."""
    points = len(grid[0])
    columns = {"p": [spec.p] * points, "n": [spec.n] * points,
               "family": [spec.label] * points, "i": [i] * points}
    for name, col in zip(("v_a", "a_unit", "v_m", "m_unit"), grid):
        columns[name] = col.tolist()
    return columns


def grid_columns(engine: MatCoefEngine, i: int, grid: tuple[np.ndarray, ...],
                 values: list[complex], slots: np.ndarray
                 ) -> tuple[dict[str, list], float]:
    """point_columns of the depth-i grid columns, and re, im, abs and
    ratio_normalized = |value| p^((n - i)/2) formatted (repr) once per
    value and gathered per point by its slot (grid_keys; slot len(values)
    reads engine.zero_value); and the largest ratio."""
    spec = engine.spec
    values = [*values, engine.zero_value]
    sizes = list(map(abs, values))
    scale = spec.p ** ((spec.n - i) / 2)
    ratios = [size * scale for size in sizes]
    slots = slots.tolist()
    columns = point_columns(spec, i, grid)
    for name, per_key in (("re", [v.real for v in values]),
                          ("im", [v.imag for v in values]),
                          ("abs", sizes), ("ratio_normalized", ratios)):
        text = list(map(repr, per_key))
        columns[name] = [text[s] for s in slots]
    return columns, max(ratios)


# -- support law and decay bound ------------------------------------------


def support_expected_zero(spec: ReprSpec, i: int, v_a, v_m):
    """Support law on the valuations v(a), v(m), integers or integer
    columns (entrywise): away from the boundary depths the coefficient
    lives on v(a) = 0 and v(m) = i - n exactly; at i in {n-1, n} the window
    relaxes to v(m) >= -1."""
    if i <= spec.n - 2:
        return (v_a != 0) | (v_m != i - spec.n)
    return (v_a != 0) | (v_m <= -2)


def verify_support(engine: MatCoefEngine, i: int,
                   grid: tuple[np.ndarray, ...], prec: int
                   ) -> dict[str, list]:
    """The support CSV columns of the depth-i grid columns, units known to
    prec digits: grid_columns of the unit average of each distinct key, and
    the support law of the v_a and v_m columns against exact vanishing, the
    nonzero mask; violation marks a law breach (expected none)."""
    keys, slots = grid_keys(engine, i, grid, prec)
    values, nonzero = key_values(engine, keys, engine.average_coords)
    columns, _ = grid_columns(engine, i, grid, values, slots)
    expected = support_expected_zero(engine.spec, i, grid[0], grid[2])
    exact = np.append(~nonzero, True)[slots]
    columns.update(expected_zero=expected.tolist(), exact_zero=exact.tolist(),
                   violation=(expected & ~exact).tolist())
    return columns


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
    Entries are phi'(g_s^-1 g_t) = phi_value of the decomposed query, g_s^-1
    taken as the adjugate (d, -b, -c, a) mod p^k of the entry arrays in one
    array step: a central unit times the inverse, which leaves every key as
    it is (KStarElement.inv).  All upper-triangle products are formed as
    four entry arrays, int64 while 2 p^(2k) < 2^63 and Python integers
    above (residue_dtype), and reduced to key rows at once (k_star_keys);
    _share_rows names each entry's slot, and key_values evaluates each
    distinct key once by the unit average, bitwise as phi_prime_value."""
    spec = engine.spec
    if elements is not None:
        elems = elements
        sample_count = len(elems)
    else:
        elems = [KStarElement.random(spec.p, spec.n1 + spec.n, rng)
                 for _ in range(sample_count)]
    if not elems:
        raise ValueError(f"Gram matrix needs elements, got {sample_count}")
    p, k = elems[0].p, elems[0].k
    if any((g.p, g.k) != (p, k) for g in elems):
        raise ValueError("ball elements stored at different moduli")
    mod = p**k
    upper = np.triu_indices(sample_count)
    a, b, c, d = entries = _entries(elems)
    a1, b1, c1, d1 = (x[upper[0]] for x in (d, -b % mod, -c % mod, a))
    a2, b2, c2, d2 = entries[:, upper[1]]
    products = ((a1 * a2 + b1 * c2) % mod, (a1 * b2 + b1 * d2) % mod,
                (c1 * a2 + d1 * c2) % mod, (c1 * b2 + d1 * d2) % mod)
    # entries share few distinct keys (162 of 8,515 at p=3, n=6 with 130
    # elements); the upper triangle of index names each entry's slot (row by
    # row, the triu_indices order), and one gather fills the matrix
    keys, slots = _share_rows(k_star_keys(engine, p, k, products))
    values, _ = key_values(engine, keys, engine.average_coords)
    index = np.zeros((sample_count, sample_count), dtype=np.intp)
    index[upper] = slots
    gram = np.array(values)[index]
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
