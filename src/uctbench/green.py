"""Restriction, induction and conjugation for representation rings of
cyclic groups.

An element of R(H) for cyclic H of order n is a CycPoly over
Z[1/N][z]/(z^n - 1).  Restriction to the order-k subgroup and induction from
it are closed forms on coefficients (Serre, Linear Representations of Finite
Groups, section 7): restriction folds z^e to z^(e mod k), induction lifts z^a
to the sum of z^e over e = a (mod k).  `frobenius_check` verifies
ind(res(y) * x) = y * ind(x) over monomials by these two maps alone: a
product by a monomial is a rotation of the coefficient tuple.

`to_character` reads each value off a CRT component of
R(H) = prod_{m | n} Z[theta_m, 1/N]: x(theta_n^j) depends only on x mod
Phi_m, m = n/gcd(n, j), so x is reduced once per divisor m of n.  A
component with no slot above slot 0 is a constant c, the value at every root
of order m, built once and shared (each psi_{n,k} has components 0 and 1).

The character route is kept as the independent oracle.  Characters take
values in Z[theta_n, 1/N]; the character map is injective, and its inverse is
computed exactly via the discrete Fourier formula
y_e = (1/n) sum_j chi(j) theta^{-e j}, followed by rationality and
denominator checks.  `char_solve` lists the nonzero (slot, coefficient)
terms of the values once, and walks only those for each e.  `_restrict_via_characters` and
`_induce_via_characters` compute both maps this way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from . import zlinalg
from .cyclotomic import (
    CycEltN,
    CycPoly,
    _reduce_mod_phi,
    divisors,
    evaluate_at_root,
    psi,
    totient,
)
from .errors import (
    CharacterSolveError,
    DescentFailure,
    NotADivisor,
    NotAUnit,
    PrimeNotInverted,
)


@dataclass(frozen=True)
class RepElt:
    """Element of the localized representation ring of a cyclic group."""

    value: CycPoly

    @property
    def n(self) -> int:
        return self.value.n

    @property
    def N(self) -> int:
        return self.value.N

    @classmethod
    def zero(cls, n: int, N: int) -> "RepElt":
        return cls(CycPoly.zero(n, N))

    @classmethod
    def one(cls, n: int, N: int) -> "RepElt":
        return cls(CycPoly.one(n, N))

    @classmethod
    def monomial(cls, n: int, N: int, e: int) -> "RepElt":
        return cls(CycPoly.monomial(n, N, e))

    def __add__(self, other: "RepElt") -> "RepElt":
        return RepElt(self.value + other.value)

    def __sub__(self, other: "RepElt") -> "RepElt":
        return RepElt(self.value - other.value)

    def __mul__(self, other):
        if isinstance(other, RepElt):
            return RepElt(self.value * other.value)
        return RepElt(self.value * other)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.value.is_zero()


@dataclass(frozen=True)
class CharFn:
    """Character of a RepElt: value at h^j in slot j, inside Z[theta_n, 1/N]."""

    n: int
    N: int
    values: tuple[CycEltN, ...]


def to_character(x: RepElt) -> CharFn:
    """Value j is x(theta_n^j), read off x mod Phi_m for the order
    m = n/gcd(n, j) of theta_n^j; `evaluate_at_root` is its oracle.  A
    constant component c is the value c at every root of order m, built once."""
    n, N, a = x.n, x.N, x.value
    comp = {m: _reduce_mod_phi(m, a.num) for m in divisors(n)}
    zeros = (0,) * (totient(n) - 1)
    const = {m: CycEltN._make(n, N, c[:1] + zeros, a.den)
             for m, c in comp.items() if not any(c[1:])}
    values = []
    for j in range(n):
        m = n // math.gcd(n, j)
        values.append(const[m] if m in const
                      else CycEltN._make(n, N, _reduce_mod_phi(n, comp[m], j), a.den))
    return CharFn(n, N, tuple(values))


def p_idempotent(n: int, k: int, N: Optional[int] = None) -> RepElt:
    """The projection p_{n,k} (= psi_{n,k} viewed in the representation ring)."""
    return RepElt(psi(n, k, N))


# ---------------------------------------------------------------------------
# moving between cyclotomic rings

# Only the character-route oracle descends, so only it needs zlinalg.ExactSolver.
@lru_cache(maxsize=None)
def _descent_solver(n: int, k: int) -> zlinalg.ExactSolver:
    w = n // k
    # column s is theta_k^s = theta_n^(w s), z -> z^(w s) applied to z
    return zlinalg.ExactSolver([_reduce_mod_phi(n, (0, 1), w * s) for s in range(totient(k))])


def descend(v: CycEltN, k: int) -> CycEltN:
    """Rewrite v in Z[theta_k, 1/N] under theta_k = theta_n^(n/k).

    Raises DescentFailure if v does not lie in the subring.
    """
    n = v.n
    if n % k:
        raise NotADivisor(f"k={k} must divide n={n}")
    if k == n:
        return v
    sol = _descent_solver(n, k).solve(list(v.num))
    if sol is None:
        raise DescentFailure(f"value does not lie in Z[theta_{k}] inside Z[theta_{n}]")
    return CycEltN(k, v.N, sol, v.den)


def include(v: CycEltN, n: int) -> CycEltN:
    """Image of v under Z[theta_k] -> Z[theta_n], theta_k -> theta_n^(n/k)."""
    k = v.n
    if n % k:
        raise NotADivisor(f"{k} must divide {n}")
    if k == n:
        return v
    return CycEltN(n, v.N, _reduce_mod_phi(n, v.num, n // k), v.den)


def char_solve(n: int, N: int, values: Sequence[CycEltN]) -> RepElt:
    """The unique RepElt with the given character, by exact inversion of the
    character system (Fourier coefficients with denominator n).

    Raises CharacterSolveError if the values are not the character of an
    element of Z[1/N][z]/(z^n - 1).
    """
    if len(values) != n:
        raise CharacterSolveError(f"need {n} character values, got {len(values)}")
    den = 1
    for v in values:
        if v.n != n or v.N != N:
            raise CharacterSolveError("character values live in the wrong ring")
        den = math.lcm(den, v.den)
    # the nonzero (slot, coefficient) terms of each nonzero value, over den
    terms = [(j, t) for j, v in enumerate(values)
             if (t := [(s, c * (den // v.den)) for s, c in enumerate(v.num) if c])]
    raw = []
    for e in range(n):
        acc = [0] * n
        for j, t in terms:
            ej = e * j
            for s, c in t:
                acc[(s - ej) % n] += c
        reduced = _reduce_mod_phi(n, acc)
        if any(reduced[1:]):
            raise CharacterSolveError(
                f"character system has no solution in the group ring (slot {e})"
            )
        raw.append(reduced[0])
    try:
        return RepElt(CycPoly(n, N, tuple(raw), n * den))
    except PrimeNotInverted as exc:
        raise CharacterSolveError(f"character system solution: {exc}") from exc


# ---------------------------------------------------------------------------
# the Green functor structure maps


def _check_divisor(n: int, k: int) -> None:
    if n < 1 or k < 1 or n % k:
        raise NotADivisor(f"k={k} must divide n={n}")


def restrict(x: RepElt, k: int) -> RepElt:
    """Restriction to the order-k subgroup: z^e -> z^(e mod k)."""
    _check_divisor(x.n, k)
    num = x.value.num
    return RepElt(CycPoly._make(k, x.N, [sum(num[r::k]) for r in range(k)], x.value.den))


def induce(x: RepElt, n: int) -> RepElt:
    """Induction from the order-k subgroup: z^a -> sum of z^e, e = a (mod k)."""
    k = x.n
    _check_divisor(n, k)
    return RepElt(CycPoly._make(n, x.N, x.value.num * (n // k), x.value.den))


def _restrict_via_characters(x: RepElt, k: int) -> RepElt:
    """Oracle for `restrict`: character slots j -> j * n/k, descended to
    Z[theta_k], inverted by `char_solve`."""
    n = x.n
    _check_divisor(n, k)
    w = n // k
    values = [descend(evaluate_at_root(x.value, j * w), k) for j in range(k)]
    return char_solve(k, x.N, values)


def _induce_via_characters(x: RepElt, n: int) -> RepElt:
    """Oracle for `induce`: the character vanishes off the subgroup and is
    multiplied by the index n/k on it, inverted by `char_solve`."""
    k = x.n
    _check_divisor(n, k)
    w = n // k
    zero = CycEltN.zero(n, x.N)
    values = [zero] * n
    for i in range(k):
        values[w * i] = include(evaluate_at_root(x.value, i), n) * w
    return char_solve(n, x.N, values)


def conjugate_rep(x: RepElt, k: int) -> RepElt:
    """Relabeling z -> z^k for a unit k mod n (the Weyl/Galois action)."""
    if math.gcd(k, x.n) != 1:
        raise NotAUnit(f"k={k} is not a unit mod {x.n}")
    return RepElt(x.value.substitute_power(k))


@dataclass(frozen=True)
class FrobeniusReport:
    """Outcome of checking ind(res(y) * x) = y * ind(x) over monomial bases."""

    n: int
    k: int
    passed: bool
    checked: int
    counterexample: Optional[tuple[int, int]] = None


def frobenius_check(n: int, k: int, N: Optional[int] = None) -> FrobeniusReport:
    """Verify the Frobenius identity for all monomials x = z^a of R(K) and
    y = z^b of R(H), K the order-k subgroup of the cyclic group H of order n.

    Multiplying by a monomial is a rotation, so each pair (a, b), b outer,
    checks ind(z^a * res(z^b)) == z^b * ind(z^a): `restrict` and `induce`
    (once per distinct tuple) do the work, coefficient-tuple rotations the
    two products."""
    _check_divisor(n, k)
    if N is None:
        N = n
    ind_cache: dict[tuple, tuple] = {}

    def ind(key: tuple) -> tuple:
        # key = (num, den) of an element of R(K); ind of it as (num, den)
        got = ind_cache.get(key)
        if got is None:
            v = induce(RepElt(CycPoly._make(k, N, *key)), n).value
            got = ind_cache[key] = v.num, v.den
        return got

    ind_monos = [ind((CycPoly.monomial(k, N, a).num, 1)) for a in range(k)]
    checked = 0
    for b in range(n):
        res_y = restrict(RepElt.monomial(n, N, b), k).value
        num, den, s = res_y.num, res_y.den, -b % n
        for a in range(k):
            checked += 1
            r, (u, e) = -a % k, ind_monos[a]
            if ind((num[r:] + num[:r], den)) != (u[s:] + u[:s], e):
                return FrobeniusReport(n, k, False, checked, (a, b))
    return FrobeniusReport(n, k, True, checked)


@dataclass(frozen=True)
class GeneratorSummand:
    """One localized summand of C(G/H): the projection p_{n,k} plus whether
    the summand is induced from the proper subgroup of order k."""

    k: int
    idempotent: RepElt
    induced: bool


def decompose_generator(n: int, N: Optional[int] = None) -> list[GeneratorSummand]:
    """The complete orthogonal family {p_{n,k}}_{k | n}; summands with k < n
    are flagged as induced from the order-k subgroup."""
    if N is None:
        N = n
    return [
        GeneratorSummand(k, p_idempotent(n, k, N), induced=k < n)
        for k in divisors(n)
    ]
