"""Exact sums of roots of unity in Z[zeta_M], with an exact zero test and a
float embedding.

Values are integer coordinate vectors over the tensor of prime-power power
bases: Z[zeta_M] = (x) Z[zeta_{p^a}] over the prime powers p^a || M, each
factor in its power basis {zeta_{p^a}^j : j < phi(p^a)}.  Reducing a sum of
roots of unity onto this basis is a linear-time fold per axis (the relation
zeta^{phi(p^a)} = -(1 + zeta^{p^(a-1)} + ... + zeta^{(p-2)p^(a-1)})), so no
reduction table in the size of M is ever materialized.  Coordinates are exact
integers and a value is zero iff every coordinate is zero; an optional
Fraction scale carries measure normalizations exactly.  Values are built
from count vectors and support addition and rational scaling; the
evaluators never multiply two values or divide by a Gauss sum: zero tests
run on numerators and magnitudes go through the float embedding.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import BudgetError
from .residue import factorize

PHI_BUDGET = 10**4


def euler_phi(n: int) -> int:
    return math.prod((p - 1) * p ** (a - 1) for p, a in factorize(n))


@lru_cache(maxsize=None)
def _basis(m: int) -> "_CycloBasis":
    return _CycloBasis(m)


class _CycloBasis:
    """Cached per-M data: factor shape, fold rules, complex embedding."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("modulus must be positive")
        if euler_phi(m) > PHI_BUDGET:
            raise BudgetError(f"phi({m}) = {euler_phi(m)} exceeds the cyclotomic budget")
        self.m = m
        self.factors = factorize(m) if m > 1 else []
        self.moduli = [p**a for p, a in self.factors] or [1]
        self.phis = [(p - 1) * p ** (a - 1) for p, a in self.factors] or [1]
        self.shape = tuple(self.phis)
        # zeta_M^t = prod_i zeta_{q_i}^(w_i t) with w_i = (M/q_i)^(-1) mod q_i;
        # the naive index t mod q_i would embed a Galois twist of the value
        self.axis_unit = [pow(m // q, -1, q) for q in self.moduli] if m > 1 else [1]
        self.axis_index = [
            (w * np.arange(m, dtype=np.int64)) % q
            for w, q in zip(self.axis_unit, self.moduli)
        ]
        roots = []
        for q, phi in zip(self.moduli, self.phis):
            roots.append(np.exp(2j * np.pi * np.arange(phi) / q))
        self.axis_roots = roots

    def fold_axis(self, arr: np.ndarray, axis: int) -> np.ndarray:
        """Reduce axis indices from Z/p^a down to the power basis of Z[zeta_{p^a}]."""
        p, a = self.factors[axis]
        q = p**a
        phi = (p - 1) * p ** (a - 1)
        step = p ** (a - 1)
        arr = np.moveaxis(arr, axis, 0)
        # every folded row e in [phi, q) lands entirely below phi, so the
        # block subtractions are independent of each other
        top = arr[phi:q]
        for k in range(1, p):
            arr[phi - k * step:q - k * step] -= top
        out = arr[:phi]
        return np.moveaxis(out, 0, axis)

    def reduce_counts(self, counts: np.ndarray) -> np.ndarray:
        """Counts over exponents Z/m -> coordinates on the tensor basis."""
        if self.m == 1:
            return counts.reshape(1).copy()
        arr = np.zeros(self.moduli, dtype=counts.dtype)
        idx = tuple(ix for ix in self.axis_index)
        np.add.at(arr, idx, counts)
        for axis in range(len(self.factors)):
            arr = self.fold_axis(arr, axis)
        return arr

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
        if arr.dtype != object and np.abs(arr).max(initial=0) > 2**56:
            arr = arr.astype(object)
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

