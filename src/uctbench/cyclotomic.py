"""Exact arithmetic in Z[z], Z[1/N][z]/(z^n - 1) and Z[1/N][z]/(Phi_n).

Elements of both quotient rings are integer coefficient vectors over a
single shared denominator whose prime factors must divide the inverted
integer N; normalization strips exactly those primes.  One private base
class holds that representation (validation, normalization, sums, scalar
multiples, the JSON round trip); CycPoly (n slots, product mod z^n - 1) and
CycEltN (phi(n) slots, product mod Phi_n) add only their length and their
product.  Integer products go through Kronecker substitution (`_kronecker`:
each factor packed into one integer of byte slots, one big-integer multiply,
the slots read back off its bytes): an IntPoly product is that linear
product, a CycEltN product reduces it mod Phi_n, and a CycPoly product folds
slot i + n onto slot i.  The one exception is a CycPoly product whose
sparser factor has at most _ROTATIONS_UP_TO nonzero terms: it adds one
rotation of the denser factor per such term.  A product by a monomial z^e
is a rotation of the coefficient tuple, `CycPoly.shift(e)`.  Only the public
constructors validate: sums and products of valid values are valid, so
arithmetic results come from `_CoeffVector._make`, which normalises and
checks nothing (and returns at once over denominator 1).

The n-th cyclotomic polynomial is computed by exact division of z^n - 1 by
the product over proper divisors, and cached together with a table of the
powers z^t mod Phi_n for t in Z/n, each stored as (slot, coeff) pairs over
its nonzero coefficients.  `_reduce_mod_phi` substitutes z -> z^k and
reduces mod Phi_n in one spread-then-reduce pass (z^n = 1 mod Phi_n): it
adds slot i of the input into slot i*k mod n of an n-slot vector, keeps the
slots below deg(Phi_n) as they stand, and walks the table only for the
nonzero slots at or above deg(Phi_n).  It is the workhorse for evaluation,
the Galois action, inclusion, the CRT split and multiplication in
Z[theta_n, 1/N] and in the crossed rings.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Sequence

from .errors import ModulusMismatch, NotADivisor, NotAUnit, PrimeNotInverted


# ---------------------------------------------------------------------------
# integer polynomials


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial, lowest degree first, no trailing zeros."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(int(x) for x in self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-x for x in self.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if self.is_zero() or other.is_zero():
            return IntPoly(())
        return IntPoly(tuple(_kronecker(self.coeffs, other.coeffs)))

    def divexact(self, other: "IntPoly") -> "IntPoly":
        """Exact polynomial division; raises if the division leaves a remainder."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [0] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.coeffs
        lead = d[-1]
        for k in range(len(rem) - len(d), -1, -1):
            top = rem[k + len(d) - 1]
            if top % lead:
                raise ValueError("division is not exact over the integers")
            f = top // lead
            q[k] = f
            if f:
                for j, c in enumerate(d):
                    rem[k + j] -= f * c
        if any(rem):
            raise ValueError("division is not exact")
        return IntPoly(tuple(q))

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs))[1:])

    def __call__(self, x: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out


def divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


@lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple[int, ...]:
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out.append(m)
    return tuple(out)


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    phi = n
    for p in prime_factors(n):
        phi -= phi // p
    return phi


def order_mod(j: int, n: int) -> int:
    """Order of j in the additive group Z/n (1 for j == 0 mod n)."""
    return n // math.gcd(n, j % n)


@lru_cache(maxsize=None)
def cyclotomic(k: int) -> IntPoly:
    """The k-th cyclotomic polynomial (exact division of z^k - 1 by the
    product of the lower cyclotomic polynomials)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    num = IntPoly((-1,) + (0,) * (k - 1) + (1,))
    den = IntPoly((1,))
    for d in divisors(k)[:-1]:
        den = den * cyclotomic(d)
    return num.divexact(den)


class _RingTables:
    """Per-n reduction data: the degree of Phi_n and, for t in Z/n, the power
    z^t mod Phi_n as a tuple of (slot, coeff) pairs over its nonzero
    coefficients."""

    __slots__ = ("n", "deg", "powers")

    def __init__(self, n: int):
        self.n = n
        phi = cyclotomic(n)
        deg = phi.degree
        self.deg = deg
        top = [-c for c in phi.coeffs[:deg]]  # z^deg = top(z)
        cur = [1] + [0] * (deg - 1)
        powers: list[tuple[tuple[int, int], ...]] = []
        for _ in range(n):
            powers.append(tuple([(s, c) for s, c in enumerate(cur) if c]))
            carry = cur[-1]
            cur = [0] + cur[:-1]
            if carry:
                cur = [x + carry * y for x, y in zip(cur, top)]
        self.powers = powers


@lru_cache(maxsize=None)
def _tables(n: int) -> _RingTables:
    return _RingTables(n)


def _reduce_mod_phi(n: int, vec, k: int = 1) -> tuple[int, ...]:
    """sum_i vec[i] * theta_n^(i*k) as a reduced vector, for a vector of any
    length and any integer k (z^n = 1 mod Phi_n): spread vec into n slots
    under z -> z^k, keep the slots below deg(Phi_n) as they are, and add the
    table's z^e mod Phi_n for each nonzero slot e above them."""
    t = _tables(n)
    w = [0] * n
    for i in compress(range(len(vec)), vec):
        w[(i * k) % n] += vec[i]
    deg = t.deg
    out = w[:deg]
    powers = t.powers
    for e in compress(range(deg, n), w[deg:]):
        c = w[e]
        for s, x in powers[e]:
            out[s] += c * x
    return tuple(out)


# A CycPoly product takes one rotation per nonzero term of its sparser
# factor up to this many terms, and Kronecker substitution above it: against
# a dense factor, the two cost the same at 4-6 terms for n from 12 to 150
# (6 at n = 12, 4-5 from n = 36 up).  The rotations stay because crt_join
# multiplies each dense psi_{n,k} by a component lifted from phi(k) slots,
# often only a few terms: without them, `verify crt --max-n 300` took
# 0.54-0.57 s of CPU instead of 0.46-0.50 s (best of five calls in one
# process, three processes each, on a 2-vCPU host).
_ROTATIONS_UP_TO = 4


def _kronecker(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The linear product of integer vectors a and b, len(a) + len(b) - 1
    slots, by Kronecker substitution (von zur Gathen and Gerhard, Modern
    Computer Algebra; Harvey, J. Symbolic Comput. 44, 2009): pack each
    factor into one integer of nb-byte slots, first entry least significant,
    multiply once, and read the signed slots off the product's bytes.  Every
    slot is bounded by max|a| * max|b| * min(len a, len b), so nb leaves a
    sign bit above that bound: 1, 2, 4 or 8 bytes, each one struct code, or
    exactly as many bytes as needed above 8.  Entries go in as two's
    complement; with h = 2^(8 nb - 1) in each of the product's slots, xor
    with h adds 2^(8 nb - 1) to every slot (past the factor's end too), so
    subtracting h leaves the factor's value at 2^(8 nb).  The product's
    slots come out by the same two steps in reverse."""
    size = len(a) + len(b) - 1
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    if not bound:
        return [0] * size
    nb = (bound.bit_length() + 8) // 8  # bytes per slot, sign bit included
    if nb <= 8:
        nb = 1 << (nb - 1).bit_length()
        code = "<%d" + "bhiq"[nb.bit_length() - 1]
        packed = struct.pack(code % len(a), *a), struct.pack(code % len(b), *b)
    else:
        packed = [b"".join([c.to_bytes(nb, "little", signed=True) for c in v])
                  for v in (a, b)]
    h = int.from_bytes((bytes(nb - 1) + b"\x80") * size, "little")
    x, y = [(int.from_bytes(p, "little") ^ h) - h for p in packed]
    raw = ((x * y + h) ^ h).to_bytes(nb * size, "little")
    if nb <= 8:
        return list(struct.unpack(code % size, raw))
    return [int.from_bytes(raw[j:j + nb], "little", signed=True)
            for j in range(0, nb * size, nb)]


# ---------------------------------------------------------------------------
# denominator bookkeeping


def _strip_supported(d: int, N: int) -> int:
    """Divide out of d every prime that divides N; return what is left."""
    g = math.gcd(d, N)
    while g > 1:
        while d % g == 0:
            d //= g
        g = math.gcd(d, N)
    return d


def _check_supported(den: int, N: int) -> None:
    if _strip_supported(den, N) != 1:
        raise PrimeNotInverted(f"denominator {den} needs primes outside N={N}")


def _normalize(num: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    if den == 1:  # gcd(1, .) = 1: nothing to strip
        return tuple(num), 1
    if not any(num):
        return (0,) * len(num), 1
    g = math.gcd(den, math.gcd(*num))
    if g > 1:
        num = [x // g for x in num]
        den //= g
    return tuple(num), den


def _require_inverted(n: int, N: int) -> None:
    for p in prime_factors(n):
        if N % p:
            raise PrimeNotInverted(f"prime {p} of {n} does not divide N={N}")


# ---------------------------------------------------------------------------
# coefficient vectors over one shared denominator


@dataclass(frozen=True)
class _CoeffVector:
    """Integer vector num over denominator den, one slot per basis power of
    z.  A subclass supplies _length(n), the slot count, and _convolve, the
    product of two numerators reduced to that many slots."""

    n: int
    N: int
    num: tuple[int, ...]
    den: int = 1

    def __post_init__(self):
        if self.n < 1 or self.N < 1 or self.den < 1:
            raise ValueError("n, N, den must be positive")
        size = self._length(self.n)
        if len(self.num) != size:
            raise ValueError(f"expected {size} coefficients, got {len(self.num)}")
        num, den = _normalize([int(x) for x in self.num], self.den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        _check_supported(self.den, self.N)

    @classmethod
    def _make(cls, n: int, N: int, num: Sequence[int], den: int):
        """An arithmetic result: num has the right length, its entries are
        ints and N supports den, so normalising is all that is left."""
        self = object.__new__(cls)
        num, den = _normalize(num, den)
        self.__dict__.update(n=n, N=N, num=num, den=den)
        return self

    @classmethod
    def zero(cls, n: int, N: int):
        return cls(n, N, (0,) * cls._length(n))

    @classmethod
    def one(cls, n: int, N: int):
        return cls(n, N, (1,) + (0,) * (cls._length(n) - 1))

    def is_zero(self) -> bool:
        return not any(self.num)

    def _check_compatible(self, other) -> None:
        if self.n != other.n or self.N != other.N:
            raise ModulusMismatch(
                f"(n={self.n}, N={self.N}) vs (n={other.n}, N={other.N})"
            )

    def __add__(self, other):
        self._check_compatible(other)
        l = math.lcm(self.den, other.den)
        fa, fb = l // self.den, l // other.den
        return self._make(self.n, self.N,
                          [fa * a + fb * b for a, b in zip(self.num, other.num)], l)

    def __neg__(self):
        return self._make(self.n, self.N, [-x for x in self.num], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._make(self.n, self.N, [other * x for x in self.num], self.den)
        self._check_compatible(other)
        return self._make(self.n, self.N, self._convolve(other.num), self.den * other.den)

    __rmul__ = __mul__

    def to_json_dict(self) -> dict:
        """Coefficients as decimal strings, lowest degree first."""
        return {"n": self.n, "N": self.N, "den": str(self.den),
                "coeffs": [str(c) for c in self.num]}

    @classmethod
    def from_json_dict(cls, data: dict):
        return cls(int(data["n"]), int(data["N"]),
                   tuple(int(c) for c in data["coeffs"]), int(data["den"]))


# ---------------------------------------------------------------------------
# elements of Z[1/N][z]/(z^n - 1)


class CycPoly(_CoeffVector):
    """Element of Z[1/N][z]/(z^n - 1): integer vector num over denominator den."""

    @staticmethod
    def _length(n: int) -> int:
        return n

    def _convolve(self, other: tuple[int, ...]) -> Sequence[int]:
        n = self.n
        a, b = self.num, other
        zeros_a, zeros_b = a.count(0), b.count(0)
        if zeros_a < zeros_b:
            a, b, zeros_a = b, a, zeros_b
        if n - zeros_a > _ROTATIONS_UP_TO:
            # the linear product mod z^n - 1: slot i + n folds onto slot i
            full = _kronecker(a, b)
            return [x + y for x, y in zip(full, full[n:])] + full[n - 1:n]
        # Sum over the nonzero c at slot i of the sparser factor of c times
        # the denser one rotated by i (slot j goes to slot i + j mod n).
        out = None
        for i, c in enumerate(a):
            if c:
                rot = b[n - i:] + b[:n - i]
                if out is None:
                    out = rot if c == 1 else [c * y for y in rot]
                else:
                    out = [x + c * y for x, y in zip(out, rot)]
        return (0,) * n if out is None else out

    @classmethod
    def monomial(cls, n: int, N: int, e: int, coeff: int = 1) -> "CycPoly":
        num = [0] * n
        num[e % n] = coeff
        return cls(n, N, tuple(num))

    def shift(self, e: int) -> "CycPoly":
        """z^e * self, for any integer e: slot j moves to slot j + e mod n."""
        n = self.n
        r = n - e % n
        return self._make(n, self.N, self.num[r:] + self.num[:r], self.den)

    def substitute_power(self, k: int) -> "CycPoly":
        """Ring map z -> z^k (well defined mod z^n - 1 for any integer k)."""
        n = self.n
        out = [0] * n
        for i, c in enumerate(self.num):
            if c:
                out[(i * k) % n] += c
        return self._make(n, self.N, out, self.den)

    def with_inverted(self, N: int) -> "CycPoly":
        """Reinterpret over Z[1/N]; the denominator must stay supported."""
        return CycPoly(self.n, N, self.num, self.den)


def cyc_add(a: CycPoly, b: CycPoly) -> CycPoly:
    return a + b


def cyc_sub(a: CycPoly, b: CycPoly) -> CycPoly:
    return a - b


def cyc_mul(a: CycPoly, b: CycPoly) -> CycPoly:
    return a * b


def _mobius(n: int) -> int:
    ps = prime_factors(n)
    return (-1) ** len(ps) if math.prod(ps) == n else 0


def _ramanujan_sum(k: int, e: int) -> int:
    """c_k(e), the sum of the e-th powers of the primitive k-th roots of
    unity: mu(o) phi(k) / phi(o) for o = k / gcd(k, e) (Hardy and Wright,
    An Introduction to the Theory of Numbers, ch. 16)."""
    o = k // math.gcd(k, e)
    return _mobius(o) * totient(k) // totient(o)


def psi(n: int, k: int, N: int | None = None) -> CycPoly:
    """The idempotent psi_{n,k} = (1/n) sum_e c_k(e) z^e of Z[1/N][z]/(z^n - 1),
    c_k the Ramanujan sum, over Z[1/N] (N defaults to n).  Its value at
    theta_n^j is 1 when j has order k in Z/n and 0 otherwise.  It equals
    (z/n) * dPhi_k/dz * prod_{k' | n, k' != k} Phi_{k'} mod z^n - 1, the
    product formula the tests keep as its oracle."""
    if N is None:
        N = n
    if n < 1 or k < 1 or n % k:
        raise NotADivisor(f"k={k} must divide n={n}")
    _require_inverted(n, N)
    value = {g: _ramanujan_sum(k, g) for g in divisors(k)}  # c_k(e) = c_k(gcd(k, e))
    return CycPoly(n, N, tuple([value[math.gcd(k, e)] for e in range(n)]), n)


# ---------------------------------------------------------------------------
# elements of Z[1/N][z]/(Phi_n)  (the ring Z[theta_n, 1/N])


class CycEltN(_CoeffVector):
    """Element of Z[theta_n, 1/N] as a vector of length deg(Phi_n)."""

    _length = staticmethod(totient)

    def _convolve(self, other: tuple[int, ...]) -> tuple[int, ...]:
        return _reduce_mod_phi(self.n, _kronecker(self.num, other))

    @classmethod
    def from_int(cls, n: int, N: int, value: int, den: int = 1) -> "CycEltN":
        return cls(n, N, (value,) + (0,) * (totient(n) - 1), den)

    @classmethod
    def root_power(cls, n: int, N: int, t: int) -> "CycEltN":
        """theta_n^t as a reduced element (z -> z^t applied to z)."""
        return cls(n, N, _reduce_mod_phi(n, (0, 1), t))

    def is_rational(self) -> bool:
        return not any(self.num[1:])


def evaluate_at_root(a: CycPoly, j: int) -> CycEltN:
    """Image of a under z -> theta_n^j: substitute z -> z^j and reduce mod
    Phi_n in one pass.  The codomain is always Z[theta_n, 1/N]."""
    n = a.n
    return CycEltN._make(n, a.N, _reduce_mod_phi(n, a.num, j), a.den)


def galois(a: CycEltN, k: int) -> CycEltN:
    """Galois action theta_n -> theta_n^k for k a unit mod n."""
    n = a.n
    if math.gcd(k, n) != 1:
        raise NotAUnit(f"k={k} is not a unit mod {n}")
    return CycEltN._make(n, a.N, _reduce_mod_phi(n, a.num, k), a.den)


def crt_split(a: CycPoly) -> dict[int, CycEltN]:
    """Components of a in prod_{k | n} Z[theta_k, 1/N]; requires every prime
    of n to divide N."""
    _require_inverted(a.n, a.N)
    return {k: CycEltN._make(k, a.N, _reduce_mod_phi(k, a.num), a.den)
            for k in divisors(a.n)}


def crt_join(parts: dict[int, CycEltN]) -> CycPoly:
    """Two-sided inverse of crt_split, assembled with the psi idempotents."""
    if not parts:
        raise ValueError("no components given")
    n = max(parts)
    if sorted(parts) != divisors(n):
        raise ValueError(f"components must be indexed by the divisors of {n}")
    Ns = {p.N for p in parts.values()}
    if len(Ns) != 1:
        raise ModulusMismatch(f"mixed N values {sorted(Ns)}")
    N = Ns.pop()
    total = CycPoly.zero(n, N)
    for k in divisors(n):
        part = parts[k]
        if part.n != k:
            raise ModulusMismatch(f"component at {k} has n={part.n}")
        lift = part.num + (0,) * (n - len(part.num))
        total = total + CycPoly._make(n, N, lift, part.den) * psi(n, k, N)
    return total
