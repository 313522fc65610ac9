"""p-adic scalars and quadratic extensions at finite precision, and the
elementary number theory (factorization, primality, primitive roots,
Legendre symbols and square roots mod prime powers, unit sampling) the
package shares.

A scalar is stored as p^val * unit with the unit residue known modulo
p^prec; reading more digits than are known raises PrecisionError instead of
returning a silently wrong value.  Scalars carry valuations and residues
into the character and coefficient layers, which compute on machine
integers.  Elements of the quadratic extension F(sqrt(D)) are coordinate
pairs a + b*sqrt(D).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import BudgetError, PrecisionError, int_text

LOG_TABLE_BUDGET = 10**7
# bit length of the largest modulus p^K a context may form
MODULUS_BIT_BUDGET = 4096


def check_modulus_bits(layer: str, p: int, r: int) -> None:
    """BudgetError naming the layer if p^r has more than MODULUS_BIT_BUDGET
    bits; decided from r log2 p, before p^r is formed, which for a huge
    exponent would not finish."""
    bits = math.floor(r * Fraction(math.log2(p))) + 1
    if bits > MODULUS_BIT_BUDGET:
        # the float log2 p is off by up to bits / 2^53 bits in all: past
        # 2^50 bits the count is given as a power of two
        size = (int_text(bits) if bits < 2**50
                else f"~2**{bits.bit_length() - 1}")
        raise BudgetError(f"{layer}: modulus {p}^{int_text(r)} of {size} bits "
                          f"exceeds the budget of {MODULUS_BIT_BUDGET} bits")


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as ascending (prime, exponent) pairs."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            a = 0
            while n % d == 0:
                n //= d
                a += 1
            out.append((d, a))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86 (2017)).
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError at or past PRIMALITY_BOUND."""
    if n >= PRIMALITY_BOUND:
        raise ValueError(f"primality is decided only below {PRIMALITY_BOUND}")
    if n < 2:
        return False
    for q in PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for q in PRIME_BASES:
        x = pow(q, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {0, 1, -1} for an odd prime p (Euler's
    criterion)."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def smallest_nonresidue(p: int) -> int:
    for r in range(2, p):
        if legendre(r, p) == -1:
            return r
    raise ValueError("no quadratic non-residue found")


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """Tonelli-Shanks square root of a mod an odd prime; None for
    non-residues."""
    if p == 2:
        raise ValueError("p must be odd")
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    # walk the 2-Sylow subgroup; for p = 3 mod 4 it is {1}, so r = a^((p+1)/4)
    s, q = 0, p - 1
    while q % 2 == 0:
        s, q = s + 1, q // 2
    m, c = s, pow(smallest_nonresidue(p), q, p)
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def solve_quadratic_congruence(a: int, b: int, c: int, p: int,
                               modulus_exp: int) -> list[int]:
    """All residues x mod p^modulus_exp with a x^2 + b x + c = 0; p odd.

    Base roots mod p come from the discriminant square root; lifting splits
    or dies when the derivative degenerates, so degenerate inputs are fine.
    """
    if p == 2:
        raise ValueError("p must be odd")
    if modulus_exp <= 0:
        return [0]
    if a % p:
        disc = (b * b - 4 * a * c) % p
        root = sqrt_mod_prime(disc, p)
        if root is None:
            base = []
        else:
            inv = pow(2 * a, -1, p)
            base = sorted({(-b + root) * inv % p, (-b - root) * inv % p})
    elif b % p:
        base = [-c * pow(b, -1, p) % p]
    else:
        base = list(range(p)) if c % p == 0 else []
    roots = base
    for j in range(1, modulus_exp):
        mod_next = p ** (j + 1)
        lifted = []
        for r in roots:
            val = (a * r * r + b * r + c) % mod_next
            deriv = (2 * a * r + b) % p
            if deriv:
                lifted.append((r - val * pow(2 * a * r + b, -1, mod_next))
                              % mod_next)
            elif val == 0:
                lifted.extend(r + t * p**j for t in range(p))
        roots = lifted
    return sorted(roots)


def random_unit(p: int, digits: int, rng) -> int:
    """Uniform unit residue mod p^digits; draws the high digits first."""
    return rng.randrange(p ** (digits - 1)) * p + rng.randrange(1, p)


def residue_dtype(modulus: int):
    """Array dtype for residues mod `modulus`: int64 while a sum of two
    products of residues fits (2 modulus^2 < 2^63), Python integers
    (object) above that."""
    return np.int64 if 2 * modulus * modulus < 2**63 else object


@lru_cache(maxsize=None)
def _inverse_table(p: int) -> np.ndarray:
    table = np.array([0] + [pow(u, -1, p) for u in range(1, p)],
                     dtype=np.int64)
    table.flags.writeable = False
    return table


def unit_inverses(values, p: int, k: int) -> np.ndarray:
    """values^-1 mod p^k entrywise in residue_dtype(p^k), 0 where a value
    is not a unit (everywhere for k = 0): the inverse mod p from a table,
    lifted by Hensel doubling x <- x (2 - v x), which doubles the digits
    known at each step."""
    mod = p**k
    v = np.asarray(values).astype(residue_dtype(mod)) % mod
    x = _inverse_table(p)[(v % p).astype(np.int64)].astype(v.dtype) % mod
    digits = 1
    while digits < k:
        x = x * ((2 - v * x) % mod) % mod
        digits *= 2
    return x


def padic_valuation(n: int, p: int) -> int:
    """Exponent of p in a nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def primitive_root(p: int) -> int:
    """Generator g of (Z/p^2)^x, p an odd prime: the smallest primitive root
    mod p, or that root plus p.  It generates (Z/p^K)^x for every K >= 1."""
    phi = p - 1
    factors = [f for f, _ in factorize(phi)]
    for g in range(2, p):
        if all(pow(g, phi // f, p) != 1 for f in factors):
            if pow(g, phi, p * p) != 1:
                return g
            return g + p
    raise ValueError(f"no primitive root mod {p}")


@lru_cache(maxsize=None)
def get_context(p: int, prec_exp: int) -> "PAdicContext":
    return PAdicContext(p, prec_exp)


class PAdicContext:
    """Fixed prime p (odd) and working precision exponent K, with the
    generator and discrete-log table of (Z/p^K)^x built on first use."""

    def __init__(self, p: int, prec_exp: int):
        if p == 2 or not is_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        if prec_exp < 1:
            raise ValueError("precision exponent must be >= 1")
        check_modulus_bits("p-adic context", p, prec_exp)
        self.p = p
        self.prec_exp = prec_exp
        self.modulus = p**prec_exp
        self._log_table: np.ndarray | None = None
        self._generator: int | None = None

    # -- unit-group tables ------------------------------------------------

    @property
    def generator(self) -> int:
        if self._generator is None:
            self._generator = primitive_root(self.p) % self.modulus
        return self._generator

    @property
    def log_table(self) -> np.ndarray:
        """Discrete logs indexed by the residue mod p^K, -1 at non-units;
        refused past the size budget."""
        if self._log_table is None:
            if self.modulus > LOG_TABLE_BUDGET:
                raise BudgetError(
                    f"residue log table: modulus {self.p}^{self.prec_exp} = "
                    f"{self.modulus} exceeds the budget of {LOG_TABLE_BUDGET}")
            # powers g^0 .. g^(order-1), doubled block by block
            order = self.unit_count()
            powers = np.ones(1, dtype=np.int64)
            while len(powers) < order:
                step = pow(self.generator, len(powers), self.modulus)
                powers = np.concatenate([powers, powers * step % self.modulus])
            table = np.full(self.modulus, -1, dtype=np.int64)
            table[powers[:order]] = np.arange(order)
            # every unit is hit exactly once iff the generator has full order
            if np.count_nonzero(table >= 0) != order:
                raise ArithmeticError("generator does not have full order")
            self._log_table = table
        return self._log_table

    def dlog(self, u: int) -> int:
        t = int(self.log_table[u % self.modulus])
        if t < 0:
            raise ValueError("discrete log of a non-unit")
        return t

    def unit_count(self) -> int:
        return (self.p - 1) * self.p ** (self.prec_exp - 1)

    def units(self, level: int) -> list[int]:
        m = self.p**level
        return [u for u in range(1, m) if u % self.p != 0]

    # -- constructors ------------------------------------------------------

    def zero(self) -> "PAdicScalar":
        return PAdicScalar(self, True, 0, 0, self.prec_exp)

    def one(self) -> "PAdicScalar":
        return PAdicScalar(self, False, 0, 1, self.prec_exp)

    def scalar(self, val: int, unit: int, prec: int | None = None) -> "PAdicScalar":
        return PAdicScalar(self, False, val, unit, self.prec_exp if prec is None else prec)


class PAdicScalar:
    """p^val * unit with the unit residue known mod p^prec."""

    __slots__ = ("ctx", "is_zero", "val", "unit", "prec")

    def __init__(self, ctx: PAdicContext, is_zero: bool, val: int, unit: int, prec: int):
        self.ctx = ctx
        self.is_zero = is_zero
        if is_zero:
            self.val = 0
            self.unit = 0
            self.prec = ctx.prec_exp
            return
        if prec < 1:
            raise PrecisionError("no significant digits left")
        prec = min(prec, ctx.prec_exp)
        unit %= ctx.p**prec
        if unit % ctx.p == 0:
            raise ValueError("unit part must be a unit")
        self.val = val
        self.unit = unit
        self.prec = prec

    def residue_unit(self, level: int) -> int:
        """Unit part mod p^level; PrecisionError if not that many digits are known."""
        if self.is_zero:
            raise ValueError("zero has no unit part")
        if level > self.prec:
            raise PrecisionError(f"unit known mod p^{self.prec}, requested p^{level}")
        return self.unit % self.ctx.p**level


# ---------------------------------------------------------------------------
# quadratic extension E = F(sqrt(D))
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def get_ext_context(p: int, prec_exp: int, ramified: bool) -> "QuadExtContext":
    return QuadExtContext(get_context(p, prec_exp), ramified)


class QuadExtContext:
    """Quadratic extension of F determined by D: the smallest quadratic
    non-residue unit (unramified, e_E = 1) or D = p itself (ramified, e_E = 2).
    """

    def __init__(self, base: PAdicContext, ramified: bool):
        self.base = base
        self.ramified = ramified
        self.e = 2 if ramified else 1
        self.f = 1 if ramified else 2

    @property
    def p(self) -> int:
        return self.base.p

    def residue_size(self) -> int:
        """Cardinality q_E of the residue field of E."""
        return self.p**self.f

    def element(self, a: PAdicScalar, b: PAdicScalar) -> "QuadExtElement":
        return QuadExtElement(self, a, b)


class QuadExtElement:
    """a + b*sqrt(D) with PAdicScalar coordinates."""

    __slots__ = ("ext", "a", "b")

    def __init__(self, ext: QuadExtContext, a: PAdicScalar, b: PAdicScalar):
        self.ext = ext
        self.a = a
        self.b = b


def unit_shell_reps(ext: QuadExtContext, k: int) -> np.ndarray:
    """Exact transversal of o_E^x / (1 + p_E^k) as the rows (A, B) of an
    int64 array, representing A + B sqrt(D), in increasing (A, B) order.

    Sizes: q^(2k) - q^(2k-2) unramified, q^k - q^(k-1) ramified.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    p = ext.p
    size = ext.residue_size() ** k - ext.residue_size() ** (k - 1)
    if size > LOG_TABLE_BUDGET:
        raise BudgetError(f"residue unit shell: size {size} exceeds the "
                          f"budget of {LOG_TABLE_BUDGET}")
    if ext.ramified:
        # A + B sqrt(p) unit <=> p does not divide A;
        # class determined by A mod p^ceil(k/2), B mod p^floor(k/2)  (k-1 halves up)
        ma, mb = p ** ((k + 1) // 2), p ** (k // 2)
    else:
        ma = mb = p**k
    a, b = np.divmod(np.arange(ma * mb, dtype=np.int64), mb)
    unit = a % p != 0 if ext.ramified else (a % p != 0) | (b % p != 0)
    reps = np.stack([a[unit], b[unit]], axis=1)
    assert len(reps) == size
    return reps
