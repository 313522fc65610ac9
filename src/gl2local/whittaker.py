"""Whittaker newvector values for the two representation families.

The quantity computed here is the value of the normalized newvector along a
diagonal argument composed with a lower-triangular shear of depth i.  For a
principal-series representation induced from a pair (mu, mu^-1) this reduces
to a character sum over units of the base field; for a supercuspidal built
from a regular character theta of a quadratic extension it reduces to a sum
over one multiplicative shell of the extension.

Values are returned as exact cyclotomic numerators together with the family
Gauss constant C0; the true value is numerator / C0.  Keeping the quotient
symbolic lets support tests assert exact zeros and lets downstream averages
accumulate integer counts with a single basis reduction at the end.  A
numerator is kept sparse, as its distinct phases in Z/m with their
multiplicities, so an average over units adds short arrays, not length-m
vectors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

import numpy as np

from .characters import (
    MultChar,
    ThetaChar,
    gauss_c0_principal_series,
    shell_table,
)
from .cyclotomic import CycloValue


class ReprSpec:
    """Representation data: family tag plus the inducing character.

    Derived integers: the conductor exponent n, n1 = ceil(n/2) and
    n0 = floor(n/2).  The central character is trivial in both families by
    construction, and n > 2 always (depth-zero cases are out of scope).
    """

    __slots__ = ("family", "p", "mu", "theta", "ramified", "n", "n0", "n1")

    def __init__(self, family: str, p: int, mu, theta, ramified, n: int):
        self.family = family
        self.p = p
        self.mu = mu
        self.theta = theta
        self.ramified = ramified
        self.n = n
        self.n0 = n // 2
        self.n1 = n - n // 2

    @classmethod
    def principal_series(cls, mu: MultChar) -> "ReprSpec":
        if not mu.is_primitive or mu.conductor < 2:
            raise ValueError("inducing character must be primitive of level >= 2")
        return cls("ps", mu.p, mu, None, None, 2 * mu.conductor)

    @classmethod
    def supercuspidal(cls, theta: ThetaChar) -> "ReprSpec":
        if theta.conductor() != theta.level:
            raise ValueError("character level must equal its conductor")
        if not theta.is_regular():
            raise ValueError("character must differ from its Galois conjugate")
        # the classes of F sit at the indices A*mod_b + 0; non-units hold -1
        if (theta.table[::theta.group.mod_b] > 0).any():
            raise ValueError("character must be trivial on base-field units")
        if theta.ramified and theta.level % 2:
            raise ValueError("ramified conductor must be even")
        n = theta.level + 1 if theta.ramified else 2 * theta.level
        return cls("sc", theta.p, None, theta, theta.ramified, n)

    @property
    def label(self) -> str:
        if self.family == "ps":
            return "ps"
        return "sc-ram" if self.ramified else "sc-unram"

    def modulus(self) -> int:
        """Root-of-unity order of every engine: the character values plus
        additive characters of level up to n1 + 1, which covers the
        Whittaker terms (level n0) and the psi factors of the unit average
        down to v(m) = -(n1 + 1)."""
        return math.lcm((self.mu or self.theta).value_order,
                        self.p ** (self.n1 + 1))

    def __repr__(self) -> str:
        return f"ReprSpec({self.label}, p={self.p}, n={self.n})"


def check_depth(spec: ReprSpec, i: int) -> None:
    """ValueError unless the shear depth i lies in (n0, n]."""
    if not spec.n0 < i <= spec.n:
        raise ValueError(f"shear depth {i} outside (n0, n] for {spec}")


def required_precision(spec: ReprSpec, i: int) -> int:
    """Residue precision of the diagonal argument that pins the value down:
    the answer depends on x only through x mod p^(this level)."""
    if spec.family == "ps":
        return spec.n0
    return max(spec.n - i, 1)


class WhittakerEngine:
    """Evaluator for one representation at the cyclotomic modulus
    spec.modulus().

    Sparse numerators (phases, multiplicities) of listed units are laid
    end to end by one function, numerator_table.  depth_table is its cached
    call on the unit residues of one shear depth, which unit averages read
    in rounds; it is what makes grid averaging fast.  A fresh call, one
    numerator_counts per unit, is the timing-honest path.
    """

    def __init__(self, spec: ReprSpec):
        self.spec = spec
        self.m = spec.modulus()
        self._tables: dict[int, tuple[np.ndarray, ...]] = {}
        self._mu1_cache: dict[int, np.ndarray] = {}
        if spec.family == "ps":
            self._u_arr = np.flatnonzero(spec.mu.table >= 0)
            # mu in Z/m by residue mod p^n0; the non-units stay negative
            self.mu_dense = spec.mu.table * (self.m // spec.mu.value_order)
        else:
            self._sc_cache: dict[int, tuple[np.ndarray, ...]] = {}

    # -- principal series tables ------------------------------------------

    def _ps_shift_factor(self, i: int) -> np.ndarray:
        # mu(1 + u pi^(i-n0)) per unit u; constant 1 once i - n0 >= n0
        if i not in self._mu1_cache:
            p, n0 = self.spec.p, self.spec.n0
            arg = (1 + self._u_arr * p ** (i - n0)) % p**n0
            self._mu1_cache[i] = self.mu_dense[arg]
        return self._mu1_cache[i]

    # -- supercuspidal shell tables ----------------------------------------

    def shell_table(self, k: int) -> tuple[np.ndarray, ...]:
        """characters.shell_table of theta at transversal level k and this
        engine's modulus, built once per level: (A, B, phase, eta)."""
        if k not in self._sc_cache:
            table = shell_table(self.spec.theta, k, self.m)
            for arr in table:
                arr.flags.writeable = False
            self._sc_cache[k] = table
        return self._sc_cache[k]

    # -- evaluation ---------------------------------------------------------

    @cached_property
    def c0(self) -> CycloValue:
        if self.spec.family == "ps":
            return gauss_c0_principal_series(self.spec.mu, self.m)
        # gauss_c0_shell on the level-a table numerator_counts uses
        phase = self.shell_table(self.spec.theta.level)[2]
        return CycloValue.from_counts(
            self.m, np.bincount(phase, minlength=self.m), self.numerator_scale())

    @cached_property
    def c0_complex(self) -> complex:
        return self.c0.complex()

    def term_count(self) -> int:
        if self.spec.family == "ps":
            return self.spec.mu.ctx.unit_count()
        return self.spec.theta.group.order

    def numerator_scale(self) -> Fraction:
        # ps: additive measure vol(o) = 1, matching the C0 normalization;
        # sc: multiplicative measure vol(o_E^x) = 1, one weight per class
        if self.spec.family == "ps":
            return Fraction(1, self.spec.p**self.spec.n0)
        return Fraction(1, self.term_count())

    def _residue_level(self, i: int) -> int:
        """The depth-i numerator reads its residue x mod p^(this level):
        n0 for principal series, n - i (0 at i = n) for supercuspidals."""
        return self.spec.n0 if self.spec.family == "ps" else self.spec.n - i

    def depth_table(self, i: int) -> tuple[np.ndarray, ...]:
        """numerator_table of depth i at the unit residues mod pl =
        p^_residue_level(i), ascending (the one residue 1 at pl = 1), built
        once per depth and read-only.  Ascending units mod p^k, k >= the
        level, run through it in rounds of len(sizes) units.  It is the
        engine's one numerator cache."""
        if i not in self._tables:
            p = self.spec.p
            pl = p**self._residue_level(i)
            table = self.numerator_table(
                i, [x for x in range(1, pl + 1) if x % p])
            for arr in table:
                arr.flags.writeable = False
            self._tables[i] = table
        return self._tables[i]

    def numerator_table(self, i: int, units: list[int]
                        ) -> tuple[np.ndarray, ...]:
        """The depth-i numerators of the listed units, computed afresh by
        one numerator_counts each and laid end to end in list order:
        (sizes, phases, mults), sizes[r] terms for units[r]."""
        entries = [self.numerator_counts(i, x) for x in units]
        return (np.array([len(phases) for phases, _ in entries]),
                np.concatenate([phases for phases, _ in entries]),
                np.concatenate([mults for _, mults in entries]))

    def numerator_counts(self, i: int, x_res: int
                         ) -> tuple[np.ndarray, np.ndarray]:
        """The unnormalized sum for a unit residue x_res as read-only arrays
        (phases, multiplicities), computed afresh: the distinct exponents in
        Z/m, ascending, and how many terms land on each.  With counts the
        dense length-m vector holding the multiplicities at the phases, the
        value is from_counts(m, counts, numerator_scale()) / C0."""
        spec, p, m = self.spec, self.spec.p, self.m
        check_depth(spec, i)
        if x_res % p == 0:
            raise ValueError(f"residue {x_res} is not a unit mod {p}")
        pl = p**self._residue_level(i)
        x_res %= pl
        if spec.family == "ps":
            xu = (x_res * self._u_arr) % pl
            exps = (self._ps_shift_factor(i) + self.mu_dense[xu]
                    + ((-xu) % pl) * (m // pl)) % m
        else:
            _, _, phase, eta = self.shell_table(spec.theta.level)
            exps = (phase + ((-pow(x_res, -1, pl) * eta) % pl) * (m // pl)) % m
        if len(exps) > m:
            # a dense count beats sorting once the shell outnumbers Z/m
            counts = np.bincount(exps, minlength=m)
            phases = np.flatnonzero(counts)
            entry = phases, counts[phases]
        else:
            entry = np.unique(exps, return_counts=True)
        for arr in entry:
            arr.flags.writeable = False
        return entry
