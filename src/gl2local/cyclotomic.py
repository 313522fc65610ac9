"""Exact sums of roots of unity in Z[zeta_M], with an exact zero test and a
float embedding.

Values are integer coordinate vectors over the tensor of prime-power power
bases: Z[zeta_M] = (x) Z[zeta_{p^a}] over the prime powers p^a || M, each
factor in its power basis {zeta_{p^a}^j : j < phi(p^a)}.  A sum of roots of
unity is reduced onto this basis term by term, over its nonzero exponents
only: zeta_M^t is the tensor product of one image per axis, and on an axis
each power is either a basis element or, by the relation
zeta^{phi(p^a)} = -(1 + zeta^{p^(a-1)} + ... + zeta^{(p-2)p^(a-1)}), minus
p-1 of them.  The per-axis images sit in small tables of size p^a x (p-1),
so no reduction table in the size of M is ever materialized and the cost
follows the number of nonzero exponents, not M.  The terms of many sums
are reduced at once, a row per sum, either into the nonzero coordinates of
the rows (reduce_terms: flat indices and exact coefficients) or into a
dense coordinate block (reduce_rows, and reduce_counts on a block of count
rows).  Coordinates are exact integers and a value is zero
iff every coordinate is zero; an optional Fraction scale carries measure
normalizations exactly.  Values are built from count vectors and support
addition and rational scaling; the evaluators never multiply two values or
divide by a Gauss sum: zero tests run on numerators and magnitudes go
through the float embedding.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import BudgetError
from .residue import factorize

PHI_BUDGET = 10**4
# reduce_terms sums by one dense accumulation over the rows' flat block when
# it holds at most this many coordinates per term image, else by a sort.  At
# m = 12,500 the unit average of 32 keys gives ~1.3 images a coordinate (the
# sort took 3.9 ms, the block 0.9 ms), the critical pairs of 256 keys one
# image in ~400 coordinates (the block took 6.5 ms, the sort 0.13 ms)
DENSE_SPAN = 8


def euler_phi(n: int) -> int:
    return math.prod((p - 1) * p ** (a - 1) for p, a in factorize(n))


@lru_cache(maxsize=None)
def _basis(m: int) -> "_CycloBasis":
    return _CycloBasis(m)


class _CycloBasis:
    """Cached per-M data: factor shape, per-axis reduction tables, complex
    embedding."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("modulus must be positive")
        if euler_phi(m) > PHI_BUDGET:
            raise BudgetError(f"cyclotomic basis: phi({m}) = {euler_phi(m)} "
                              f"exceeds the budget of {PHI_BUDGET}")
        self.m = m
        self.factors = factorize(m) if m > 1 else []
        self.moduli = [p**a for p, a in self.factors] or [1]
        self.phis = [(p - 1) * p ** (a - 1) for p, a in self.factors] or [1]
        self.shape = tuple(self.phis)
        self.size = math.prod(self.phis)
        index_dtype = np.int16 if self.size <= np.iinfo(np.int16).max else np.int32
        # zeta_M^t = prod_i zeta_{q_i}^(w_i t) with w_i = (M/q_i)^(-1) mod q_i;
        # the naive index t mod q_i would embed a Galois twist of the value.
        # On axis q = p^a, zeta_q^e is itself for e < phi and otherwise
        # -(zeta^(e-s) + ... + zeta^(e-(p-1)s)) with s = p^(a-1), all below
        # phi.  Row t mod q of an axis table lists the image of e = w t mod q
        # as flat coordinate indices (pre-multiplied by the axis stride) and
        # signs, padded with sign 0.
        self.axis_tables = []
        # images per term, the width of the padded axis images' product
        self.images = math.prod(p - 1 for p, _ in self.factors)
        stride = self.size
        for (p, a), q, phi in zip(self.factors, self.moduli, self.phis):
            stride //= phi
            step = q - phi
            e = (pow(m // q, -1, q) * np.arange(q) % q)[:, None]
            k = np.arange(1, p)
            low = e < phi
            index = (np.where(low, e * (k == 1), e - step * k)
                     * stride).astype(index_dtype)
            sign = np.where(low, k == 1, -1).astype(np.int8)
            self.axis_tables.append((q, index, sign))
        roots = []
        for q, phi in zip(self.moduli, self.phis):
            roots.append(np.exp(2j * np.pi * np.arange(phi) / q))
        self.axis_roots = roots

    def reduce_counts(self, counts: np.ndarray) -> np.ndarray:
        """Counts over exponents Z/m -> coordinates on the tensor basis: a
        length-m vector gives one coordinate array, an (n_rows, m) block
        one coordinate row per count row.  Only the nonzero counts are
        reduced, by one reduce_rows."""
        block = counts.reshape(-1, self.m)
        return self.reduce_rows(*self.count_terms(block), len(block)).reshape(
            counts.shape[:-1] + self.shape)

    @staticmethod
    def count_terms(block: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (row, exponent, count) terms of the nonzero entries of a
        count block, counts as object past 2^56, where the sums of their
        coordinate images could leave int64."""
        # a boolean nonzero scan is several times faster than one on int64
        rows, t = (block != 0).nonzero()
        vals = block[rows, t]
        if vals.dtype != object and len(t) and np.abs(vals).max() > 2**56:
            vals = vals.astype(object)
        return rows, t, vals

    def reduce_terms(self, rows: np.ndarray, t: np.ndarray, vals: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
        """The nonzero coordinates of the sums sum_k vals[k] * zeta_M^t[k]
        over the terms k of each row: flat indices row * size + coordinate,
        ascending, and their exact coefficients, of vals' dtype.  Sparse
        images (under one in DENSE_SPAN coordinates of the rows' block) are
        ordered by one stable argsort and summed by np.add.reduceat, so the
        work follows the terms, not the rows times the basis; denser ones
        are summed in the block (reduce_rows), which is then scanned."""
        n_rows = int(rows.max()) + 1 if len(rows) else 0
        if n_rows * self.size <= DENSE_SPAN * self.images * len(t):
            out = self.reduce_rows(rows, t, vals, n_rows).reshape(-1)
            index = out.nonzero()[0]
            return index, out[index]
        index, terms = self._images(rows, t, vals, n_rows)
        order = np.argsort(index, kind="stable")
        index, terms = index[order], terms[order]
        new = np.ones(len(index), dtype=bool)
        new[1:] = index[1:] != index[:-1]
        starts = new.nonzero()[0]
        sums = np.add.reduceat(terms, starts)
        keep = sums != 0
        return index[starts[keep]], sums[keep]

    def reduce_rows(self, rows: np.ndarray, t: np.ndarray, vals: np.ndarray,
                    n_rows: int) -> np.ndarray:
        """sum_k vals[k] * zeta_M^t[k] added into row rows[k] of an
        (n_rows, *shape) coordinate block of vals' dtype: every term image
        is scattered into the flat block in one accumulation."""
        out = np.zeros(n_rows * self.size, dtype=vals.dtype)
        np.add.at(out, *self._images(rows, t, vals, n_rows))
        return out.reshape(n_rows, *self.shape)

    def _images(self, rows: np.ndarray, t: np.ndarray, vals: np.ndarray,
                n_rows: int) -> tuple[np.ndarray, np.ndarray]:
        """Each term's images, self.images of them, some of sign 0: the
        flat coordinates of an (n_rows x size) block they land on, in the
        narrowest index type that holds them, and the signed counts they
        add there.  zeta_M^t is the tensor product of one image per axis."""
        narrow = np.int16 if n_rows * self.size < 2**15 else np.int32
        index = (rows * self.size).astype(narrow)[:, None]
        terms = vals[:, None]
        for q, axis_index, axis_sign in self.axis_tables:
            e = t % q
            shape = (len(t), index.shape[1] * axis_index.shape[1])
            # take() gathers table rows several times faster than a[e]
            index = (index[:, :, None]
                     + axis_index.take(e, axis=0)[:, None, :]).reshape(shape)
            terms = (terms[:, :, None]
                     * axis_sign.take(e, axis=0)[:, None, :]).reshape(shape)
        return index.ravel(), terms.ravel()

    def embed(self, coords: np.ndarray) -> complex:
        acc = coords.astype(np.complex128)
        for roots in reversed(self.axis_roots):
            acc = acc @ roots
        return complex(acc)


class CycloValue:
    """scale * sum(coords[j] * basis_j) in Z[zeta_M], exact."""

    __slots__ = ("m", "coords", "scale")

    def __init__(self, m: int, coords: np.ndarray, scale: Fraction = Fraction(1)):
        basis = _basis(m)
        coords = np.asarray(coords)
        if coords.shape != basis.shape:
            raise ValueError(f"coords shape {coords.shape} != basis shape {basis.shape}")
        if scale == 0 or not coords.any():
            coords = np.zeros(basis.shape, dtype=np.int64)
            scale = Fraction(1)
        self.m = m
        self.coords = coords
        self.scale = scale

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(m: int) -> "CycloValue":
        return CycloValue(m, np.zeros(_basis(m).shape, dtype=np.int64))

    @staticmethod
    def from_counts(m: int, counts, scale: Fraction = Fraction(1)) -> "CycloValue":
        """Exact reduction of sum_t counts[t] * zeta_M^t."""
        basis = _basis(m)
        arr = np.asarray(counts)
        if arr.shape != (m,):
            raise ValueError("counts must have length M")
        return CycloValue(m, basis.reduce_counts(arr), scale)

    # -- arithmetic ------------------------------------------------------------

    def _common_scale(self, other: "CycloValue") -> tuple[Fraction, int, int]:
        s1, s2 = self.scale, other.scale
        g = Fraction(math.gcd(s1.numerator * s2.denominator, s2.numerator * s1.denominator),
                     s1.denominator * s2.denominator)
        return g, int(s1 / g), int(s2 / g)

    def __add__(self, other: "CycloValue") -> "CycloValue":
        if self.m != other.m:
            raise ValueError("mixed cyclotomic moduli")
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        g, k1, k2 = self._common_scale(other)
        return CycloValue(self.m, self.coords * k1 + other.coords * k2, g)

    def __neg__(self) -> "CycloValue":
        return CycloValue(self.m, -self.coords, self.scale)

    def __sub__(self, other: "CycloValue") -> "CycloValue":
        return self + (-other)

    def __mul__(self, other: int | Fraction) -> "CycloValue":
        """Rational multiple; products of two values are never needed."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return CycloValue.zero(self.m)
        return CycloValue(self.m, self.coords, self.scale * other)

    __rmul__ = __mul__

    # -- predicates / embedding -----------------------------------------------

    def is_zero(self) -> bool:
        return not self.coords.any()

    def equals(self, other: "CycloValue") -> bool:
        return (self - other).is_zero()

    def complex(self) -> complex:
        return complex(self.scale) * _basis(self.m).embed(self.coords)

