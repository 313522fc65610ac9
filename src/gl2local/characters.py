"""Additive and multiplicative characters at finite level, conductors, the
phase-linearization constant alpha, and Gauss-sum constants.

Characters evaluate to ROOT-OF-UNITY EXPONENTS rather than complex numbers:
a character chi with value_order V maps a residue to k meaning zeta_V^k.
Callers embed exponents into a shared working modulus M (with V | M) and
accumulate counts for the exact cyclotomic backend, so the hot loops touch
only machine integers.

The standard additive character psi has conductor exponent 0 and evaluates as
psi(u/p^t) = e^(2 pi i u / p^t) on the canonical integer lift u.  On the
quadratic extension, psi_E = psi o tr, with conductor exponent -e_E + 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cyclotomic import CycloValue
from .errors import BudgetError, ConstructionError
from .residue import (
    MODULUS_BIT_BUDGET,
    PAdicScalar,
    QuadExtElement,
    get_context,
    get_ext_context,
    primitive_root,
    smallest_nonresidue,
    unit_shell_reps,
)

GROUP_TABLE_BUDGET = 10**7


def psi_exponent_scaled(p: int, t: int, u: int, m: int) -> int:
    """Exponent e with psi(p^(-t) u) = zeta_m^e.  Requires p^t | m."""
    if t <= 0:
        return 0
    q = p**t
    if m % q:
        raise ValueError(f"modulus {m} does not contain p^{t}")
    return (u % q) * (m // q) % m


# ---------------------------------------------------------------------------
# multiplicative characters of F^x
# ---------------------------------------------------------------------------


class MultChar:
    """Character of (Z/p^level)^x given by its exponent on a fixed generator.

    chi(g^t) = zeta^(c t) with zeta of order phi(p^level).  The value at the
    uniformizer is fixed to 1 (all formulas downstream evaluate on units
    only).  Exponents are reported modulo value_order = phi(p^level)/gcd;
    `table` holds them indexed by the residue mod p^level, -1 at non-units.
    """

    def __init__(self, p: int, level: int, exp_on_gen: int):
        if level < 1:
            raise ValueError("level must be >= 1")
        self.ctx = get_context(p, level)
        self.p = p
        self.level = level
        self.group_order = self.ctx.unit_count()
        self.exp_on_gen = exp_on_gen % self.group_order
        g = math.gcd(self.exp_on_gen, self.group_order)
        self.value_order = self.group_order // g
        self._reduced_exp = self.exp_on_gen // g
        log = self.ctx.log_table
        self.table = np.where(log >= 0, self._reduced_exp * log % self.value_order, -1)
        self.conductor = self._compute_conductor()

    def _compute_conductor(self) -> int:
        if self.exp_on_gen == 0:
            return 0
        modulus = self.p**self.level
        for lvl in range(1, self.level + 1):
            step = self.p**lvl
            if not self.table[1 + step * np.arange(modulus // step)].any():
                return lvl
        raise AssertionError("character nontrivial on the trivial subgroup")

    def exponent(self, u: int | PAdicScalar) -> int:
        """chi(u) = zeta_{value_order}^(returned exponent)."""
        if isinstance(u, PAdicScalar):
            u = u.residue_unit(self.level)
        return self._reduced_exp * self.ctx.dlog(u) % self.value_order

    def eval_exponent(self, u: int | PAdicScalar, m: int) -> int:
        if m % self.value_order:
            raise ValueError("working modulus incompatible with value order")
        return self.exponent(u) * (m // self.value_order) % m

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.level


def primitive_char(p: int, level: int) -> MultChar:
    """Canonical primitive character mod p^level (exponent 1 on the generator)."""
    chi = MultChar(p, level, 1)
    assert chi.is_primitive
    return chi


def all_primitive_chars(p: int, level: int) -> list[MultChar]:
    out = [MultChar(p, level, c) for c in range(1, (p - 1) * p ** (level - 1))
           if c % p != 0]
    assert all(chi.is_primitive for chi in out)
    return out


def _alpha_unit(p: int, exps: np.ndarray, coord: np.ndarray, q: int,
                m: int) -> int:
    """The unique unit w mod q with exps == (w coord mod q) (m/q) in Z/m on
    every row, found exhaustively; AssertionError unless exactly one passes."""
    w = np.arange(1, q)
    w = w[w % p != 0]
    found = w[(w[:, None] * coord % q * (m // q) == exps).all(axis=1)]
    if len(found) != 1:
        raise AssertionError(f"alpha search found {len(found)} candidates")
    return int(found[0])


@lru_cache(maxsize=None)
def alpha_of_chi(chi: MultChar) -> PAdicScalar:
    """The unique alpha with v(alpha) = -a(chi) and chi(1+dx) = psi(alpha dx)
    for every dx in p^ceil(a/2), a(chi) >= 2.  Verified exhaustively; the
    unit of alpha is determined (and returned) mod p^floor(a/2)."""
    a = chi.conductor
    if a < 2:
        raise ValueError("linearization needs conductor >= 2")
    if chi.level != a:
        raise ValueError("character must be presented at its conductor level")
    p = chi.p
    hi, lo = (a + 1) // 2, a // 2
    m = math.lcm(chi.value_order, p**lo)
    t = np.arange(p**lo)
    exps = chi.table[1 + p**hi * t] * (m // chi.value_order)
    return get_context(p, lo).scalar(-a, _alpha_unit(p, exps, t, p**lo, m), lo)


# ---------------------------------------------------------------------------
# the unit group of o_E / p_E^L and characters theta of E^x
# ---------------------------------------------------------------------------


class UnitGroupE:
    """(o_E/p_E^L)^x on canonical integer coordinate pairs.

    Keys are (A, B) for A + B*sqrt(D) with A mod p^L, B mod p^L (unramified)
    or A mod p^ceil(L/2), B mod p^floor(L/2) (ramified).  Tables over the
    classes are int arrays at index(A, B) = A*mod_b + B; non-units hold -1.
    The group is realized as the direct product of three explicit generators
    of expected orders o_j (`gen_orders`, whose product is the group order).
    `pos` holds, per index, the flat exponent position e0*o1*o2 + e1*o2 + e2
    of the class prod g_j^(e_j) (-1 at non-units); np.unravel_index(pos,
    gen_orders) reads the exponents back.  It is filled by one scatter of
    0..order-1 over the products of all generator powers.  The certificate
    is two checks: g_j^(o_j) = 1 makes (e0, e1, e2) -> prod g_j^(e_j) a
    homomorphism from the product of the Z/o_j, and every unit index being
    hit exactly once makes it a bijection, hence an isomorphism with inverse
    `pos`.  A character with exponents t on the generators takes the value
    exponent sum t_j e_j weights[j] mod char_order, the lcm of the orders.
    """

    def __init__(self, p: int, ramified: bool, level: int):
        if level < 1:
            raise ValueError("level must be >= 1")
        self.p = p
        self.ramified = ramified
        self.level = level
        q_e = p if ramified else p * p
        # past MODULUS_BIT_BUDGET bits the size is refused unformed: forming
        # q_e**level alone does not finish for a huge level
        bits = level * math.log2(q_e)
        self.order = (q_e**level - q_e ** (level - 1)
                      if bits <= MODULUS_BIT_BUDGET else 0)
        if not 0 < self.order <= GROUP_TABLE_BUDGET:
            size = self.order or f"~2**{int(bits + math.log2(1 - 1 / q_e))}"
            raise BudgetError(f"characters unit group: size {size} exceeds "
                              f"the budget of {GROUP_TABLE_BUDGET}")
        self.d_unit = 1 if ramified else smallest_nonresidue(p)
        if ramified:
            self.mod_a = p ** ((level + 1) // 2)
            self.mod_b = p ** (level // 2)
        else:
            self.mod_a = self.mod_b = p**level
        self.generators, self.gen_orders = self._find_generators()
        self.char_order = math.lcm(*self.gen_orders)
        self.weights = tuple(self.char_order // o for o in self.gen_orders)
        self.pos = self._build_positions()

    # -- coordinate arithmetic ------------------------------------------------

    def mul(self, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        a1, b1 = x
        a2, b2 = y
        if self.ramified:
            return ((a1 * a2 + self.p * b1 * b2) % self.mod_a,
                    (a1 * b2 + b1 * a2) % self.mod_b)
        d = self.d_unit
        return ((a1 * a2 + d * b1 * b2) % self.mod_a,
                (a1 * b2 + b1 * a2) % self.mod_b)

    def power(self, x: tuple[int, int], k: int) -> tuple[int, int]:
        k %= self.order
        acc = (1, 0)
        base = x
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def index(self, a, b):
        """Table index of the class of a + b sqrt(D); ints or int arrays."""
        return a % self.mod_a * self.mod_b + b % self.mod_b

    # -- structure -------------------------------------------------------------

    def _find_generators(self):
        p, lvl = self.p, self.level
        if self.ramified:
            # Teichmueller lift of a residue-field generator (the lift of g
            # and of g + p agree), then the one-unit generators 1+sqrt(p), 1+p
            g0 = self.power((primitive_root(p), 0), p ** (lvl - 1))
            gens = [g0, (1, 1), ((1 + p) % self.mod_a, 0)]
            expect = [p - 1, p ** (lvl // 2), p ** ((lvl - 1) // 2)]
        else:
            g0 = self._residue_field_generator()
            gens = [g0, ((1 + p) % self.mod_a, 0), (1, p % self.mod_b)]
            expect = [p * p - 1, p ** (lvl - 1), p ** (lvl - 1)]
        if any(self.power(g, o) != (1, 0) for g, o in zip(gens, expect)):
            raise ConstructionError(
                f"a generator does not satisfy its order {expect}")
        return gens, expect

    def _residue_field_generator(self) -> tuple[int, int]:
        # search F_{p^2}^x for a generator, then kill the p-part of its lift
        p, lvl = self.p, self.level
        target = p * p - 1
        for a in range(p):
            for b in range(1, p):
                if _ff_order(p, self.d_unit, a, b) == target:
                    return self.power((a, b), p ** (2 * (lvl - 1)))
        raise ConstructionError("no generator of the quadratic residue field")

    def _build_positions(self) -> np.ndarray:
        # x = g0^e0 g1^e1 g2^e2 over all exponents, e2 varying fastest, so
        # the k-th product sits at exponent position k
        a, b = np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
        for g, o in zip(self.generators, self.gen_orders):
            powers = [(1, 0)]
            for _ in range(o - 1):
                powers.append(self.mul(powers[-1], g))
            pa, pb = np.array(powers, dtype=np.int64).T
            a, b = self.mul((a[:, None], b[:, None]), (pa, pb))
            a, b = a.ravel(), b.ravel()
        pos = np.full(self.mod_a * self.mod_b, -1, dtype=np.int64)
        # mul has reduced a and b, so their index needs no further %
        pos[a * self.mod_b + b] = np.arange(self.order)
        if np.count_nonzero(pos >= 0) != self.order:
            raise ConstructionError(
                "generators do not present the unit group as a direct product")
        return pos


def _ff_order(p: int, d: int, a: int, b: int) -> int:
    # order of a + b sqrt(d) in F_{p^2}^x
    x, n = (a % p, b % p), 1
    while x != (1, 0):
        x = ((x[0] * a + x[1] * b * d) % p, (x[0] * b + x[1] * a) % p)
        n += 1
    return n


@lru_cache(maxsize=None)
def get_unit_group(p: int, ramified: bool, level: int) -> UnitGroupE:
    return UnitGroupE(p, ramified, level)


class ThetaChar:
    """Character of E^x trivial on F^x, tabulated on (o_E/p_E^L)^x.

    Stored as an exponent array `table` over the unit-group index
    A*mod_b + B (-1 at non-units): the exponent sum over the o0 x o1 x o2
    grid of generator exponents, gathered at `group.pos`.  The value at the
    uniformizer of E is fixed to 1, as for MultChar (in the unramified case
    the uniformizer lies in F^x anyway).
    """

    def __init__(self, group: UnitGroupE, exps: tuple[int, int, int]):
        self.group = group
        self.p = group.p
        self.ramified = group.ramified
        self.level = group.level
        self.exps = exps

        w = [t * r for t, r in zip(exps, group.weights)]
        g = math.gcd(*w, group.char_order)
        self.value_order = vo = group.char_order // g
        # g divides every w_j: sum_j (w_j / g) e_j mod vo, one axis per
        # generator; the full grid holds sums below 2 vo
        e0, e1, e2 = (w_j // g * np.arange(o) % vo
                      for w_j, o in zip(w, group.gen_orders))
        grid = (((e0[:, None] + e1) % vo)[:, :, None] + e2).ravel()
        grid -= vo * (grid >= vo)
        # position -1 reads the appended -1
        self.table = np.append(grid, -1)[group.pos]

    def exponent(self, key: tuple[int, int]) -> int:
        """theta on the unit class of key, as an exponent mod value_order."""
        e = int(self.table[self.group.index(*key)])
        if e < 0:
            raise ValueError(f"theta at the non-unit {key}")
        return e

    def eval_exponent(self, key: tuple[int, int], m: int) -> int:
        if m % self.value_order:
            raise ValueError("working modulus incompatible with value order")
        return self.exponent(key) * (m // self.value_order) % m

    def conductor(self) -> int:
        """Recomputed from the table (for cross-checking the construction)."""
        for target in range(self.level, 0, -1):
            if self.table[_one_unit_keys(self.group, target - 1)].any():
                return target
        return 0

    def is_regular(self) -> bool:
        """theta differs from its Galois conjugate on some generator."""
        g = self.group
        a, b = np.array(g.generators).T
        return bool((self.table[g.index(a, b)] != self.table[g.index(a, -b)]).any())


def _one_unit_keys(group: UnitGroupE, depth: int) -> np.ndarray:
    """Indices of the classes of (1 + p_E^depth)/(1 + p_E^L), those of
    1 + ca s + cb t sqrt(D) in (s, t) order; depth 0 gives every unit."""
    if depth <= 0:
        return np.flatnonzero(group.pos >= 0)
    p = group.p
    if group.ramified:
        ca, cb = p ** ((depth + 1) // 2), p ** (depth // 2)
    else:
        ca = cb = p**depth
    s = np.arange(group.mod_a // ca)[:, None]
    t = np.arange(group.mod_b // cb)
    return group.index(1 + ca * s, cb * t).ravel()


def build_theta(p: int, ramified: bool, level: int) -> ThetaChar:
    """Deterministic construction of a character of E^x with exact conductor
    `level`, trivial on F^x and not fixed by the Galois conjugation.

    Candidates are enumerated over exponent triples on the verified generator
    set; the first (lexicographically) passing all filters is returned.  In
    the ramified case with odd level no candidate can pass (the deepest shell
    of 1-units consists of F-elements), and construction fails explicitly.
    """
    if level < 2:
        raise ValueError("need level >= 2")
    group = get_unit_group(p, ramified, level)
    o0, o1, o2 = group.gen_orders
    mg, (r0, r1, r2) = group.char_order, group.weights

    # exponent triples of the classes of F (indices A*mod_b + 0) and of the
    # deepest one-unit shell, as Python ints so the loops below stop early
    def triples(pos):
        return np.column_stack(np.unravel_index(pos, group.gen_orders)).tolist()

    f_pos = group.pos[::group.mod_b]
    f_triples = triples(f_pos[f_pos >= 0])
    shell_triples = triples(group.pos[_one_unit_keys(group, level - 1)])

    def raw(t, e):
        return (t[0] * e[0] * r0 + t[1] * e[1] * r1 + t[2] * e[2] * r2) % mg

    for t0 in range(o0):
        for t1 in range(o1):
            for t2 in range(o2):
                t = (t0, t1, t2)
                if all(raw(t, e) == 0 for e in f_triples) \
                        and any(raw(t, e) != 0 for e in shell_triples):
                    theta = ThetaChar(group, t)
                    if theta.is_regular():
                        assert theta.conductor() == level
                        return theta
    raise ConstructionError(
        f"no admissible character at level {level} "
        f"({'ramified' if ramified else 'unramified'}, p={p})")


@lru_cache(maxsize=None)
def alpha_of_theta(theta: ThetaChar) -> QuadExtElement:
    """Purely imaginary alpha with v_E(alpha) = -a(theta) - e_E + 1 and
    theta(1+du) = psi_E(alpha du) for every du in p_E^ceil(a/2), verified
    exhaustively over the classes mod p_E^a."""
    a = theta.level
    if a < 2:
        raise ValueError("linearization needs conductor >= 2")
    p = theta.p
    group = theta.group
    if theta.ramified:
        if a % 2:
            raise ValueError("ramified linearization needs even conductor")
        # alpha = w p^(-(a+2)/2) sqrt(p);  du = p^ceil(h/2) s + p^floor(h/2) t sqrt(p)
        # with h = a/2, so tr(alpha du) = 2 w t p^(floor(h/2) - a/2): the trace
        # pairing sees (and determines) w mod p^(a/2 - floor(h/2))
        depth = h = a // 2
        cb, lo, val = p ** (h // 2), a // 2 - h // 2, -(a + 2) // 2
        coef = 2
    else:
        # alpha = w sqrt(D) p^(-a); du = p^ceil(a/2) (s + t sqrt(D)), so
        # tr(alpha du) = 2 w t D p^(ceil(a/2) - a): w is determined mod p^floor(a/2)
        depth = (a + 1) // 2
        cb, lo, val = p**depth, a // 2, -a
        coef = 2 * group.d_unit
    keys = _one_unit_keys(group, depth)
    m = math.lcm(theta.value_order, p**lo)
    exps = theta.table[keys] * (m // theta.value_order)
    w = _alpha_unit(p, exps, coef * (keys % group.mod_b // cb), p**lo, m)
    ext = get_ext_context(p, lo, theta.ramified)
    return ext.element(ext.base.zero(), ext.base.scalar(val, w, lo))


# ---------------------------------------------------------------------------
# Gauss sums
# ---------------------------------------------------------------------------


def gauss_c0_principal_series(mu: MultChar, m: int | None = None) -> CycloValue:
    """q^(-n0) * sum over units mod p^n0 of mu(u) psi(-u/p^n0), n0 = defining
    level of mu.  For primitive mu the magnitude is exactly q^(-n0/2)."""
    p, n0 = mu.p, mu.level
    q = p**n0
    if m is None:
        m = math.lcm(mu.value_order, q)
    if m % mu.value_order or m % q:
        raise ValueError(f"modulus {m} is not a multiple of {mu.value_order} and {q}")
    u = np.flatnonzero(mu.table >= 0)
    e = mu.table[u] * (m // mu.value_order) + (-u % q) * (m // q)
    return CycloValue.from_counts(m, np.bincount(e % m, minlength=m), Fraction(1, q))


def shell_table(theta: ThetaChar, k: int, m: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The shell v_E(u) = -a(theta)-e_E+1 over the transversal of
    o_E^x/(1+p_E^k), 1 <= k <= a(theta): u = piE^c (A + B sqrt(D)) per
    representative (A, B), in increasing (A, B) order.

    Returns int64 arrays A, B, the exponent of theta^(-1)(u) psi_E(u) in Z/m,
    and the exact eta = N(u) p^n, the unit part of the norm.  At k = a the
    transversal is the unit indices of theta's group (the rows of
    unit_shell_reps at level a, in the same order); below a it is
    unit_shell_reps(k).
    """
    p, a = theta.p, theta.level
    if not 1 <= k <= a:
        raise ValueError(f"transversal level {k} outside [1, {a}]")
    # psi_E reads the trace coordinate mod q: B for piE = sqrt(p), else A
    q = p ** (a // 2) if theta.ramified else p**a
    if m % q:
        raise ValueError(f"modulus {m} is not a multiple of {q}")
    group = theta.group
    if k == a:
        index = _one_unit_keys(group, 0)
        A, B = np.divmod(index, group.mod_b)
    else:
        reps = unit_shell_reps(get_ext_context(p, a, theta.ramified), k)
        A, B = reps[:, 0], reps[:, 1]
        index = group.index(A, B)
    if theta.ramified:
        # tr(piE^c (A + B sqrt(p))) = 2 B p^(-a/2); N(piE^c) = -p^(-n)
        tr, eta = 2 * B, p * B * B - A * A
    else:
        # tr(p^c (A + B sqrt(d))) = 2 A p^(-a); N(p^c) = p^(-n)
        tr, eta = 2 * A, A * A - group.d_unit * B * B
    # the trace coordinate is below q, so 0 <= tr < 2q, and the phase before
    # reduction lies in (-m, m): one conditional step reduces each
    tr -= q * (tr >= q)
    phase = tr * (m // q) - theta.table[index] * (m // theta.value_order)
    phase += m * (phase < 0)
    return A, B, phase, eta


def required_gauss_modulus(theta: ThetaChar) -> int:
    p, a = theta.p, theta.level
    return math.lcm(theta.value_order, p ** (a // 2 if theta.ramified else a))


def gauss_c0_shell(theta: ThetaChar, m: int | None = None) -> CycloValue:
    """Shell Gauss sum of theta^(-1)(u) psi_E(u) normalized by the shell class
    count (multiplicative measure); this is the convention the Whittaker
    evaluator divides by, and any normalization constant cancels there."""
    if m is None:
        m = required_gauss_modulus(theta)
    phase = shell_table(theta, theta.level, m)[2]
    return CycloValue.from_counts(m, np.bincount(phase, minlength=m),
                                  Fraction(1, theta.group.order))


def gauss_c0_supercuspidal(theta: ThetaChar, m: int | None = None) -> CycloValue:
    """Shell Gauss sum with the additive-compatible normalization 1/q_E^a.

    With this normalization |C0| = q_E^(-a/2) in both ramification cases, so
    |C0| q^(n/2) equals 1 (unramified) or q^(1/2) (ramified), inside the
    window [q^(-1/2), q^(1/2)].  Normalizing by the number of shell classes
    instead would scale the ramified value by q/(q-1) and leave the window.
    """
    q_e = theta.p if theta.ramified else theta.p**2
    return gauss_c0_shell(theta, m) * Fraction(theta.group.order,
                                               q_e**theta.level)


def shell_norm_valuation(theta: ThetaChar) -> int:
    """v(N(u)) for shell elements u = piE^c u0, checked exhaustively to be
    the same for every representative; returns the common value (= -n)."""
    p, a = theta.p, theta.level
    e_e = 2 if theta.ramified else 1
    c = -a - e_e + 1
    # v(N(piE^c)) = v((-p)^c) with piE = sqrt(p), else v(p^(2c))
    base, d = (c, p) if theta.ramified else (2 * c, theta.group.d_unit)
    A, B = np.divmod(_one_unit_keys(theta.group, 0), theta.group.mod_b)
    if ((A * A - d * B * B) % p == 0).any():
        raise AssertionError("non-unit norm on the shell")
    return base
