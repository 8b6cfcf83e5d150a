"""Crossed products Z[theta_n, 1/N] x| W for Weyl groups of cyclic subgroup
classes: exact element arithmetic, the integral regular representation, and
the commutative splittings that exist after inverting the group order.

One splitting rule is implemented.  It applies when W is abelian, acts
trivially on theta_n (n = 1 or every unit is 1) and every prime of |W| is
inverted, and at present only for n = 1 or W of exponent at most 2 (trivial
W included).  The summands come from a count, with no characters: by
Perlis and Walker (1950), Q[W] is the sum over d of a_d copies of
Q(theta_d), a_d the number of cyclic subgroups of W of order d, so at n = 1
there are a_d summands Z[theta_d, 1/N], and at n > 1 |W| summands
Z[theta_n, 1/N].  Characters are built only for the idempotents: those of
W, valued in the e-th roots of unity for e the exponent of W, come by
extension along one generator walk and fall into orbits under (Z/e)^x; an
orbit of characters of order d cuts out one summand by the idempotent
(1/|W|) sum_w c(w) w, where c(w) = mu(o) phi(d) / phi(o) is the Ramanujan
sum at the order o of chi(w).  Every other ring is kept as an honest
unsplit crossed product and handled through its regular representation.

A ring holds its Weyl group as the law of the cosets (`groups`), which
gives each product and, once read, the rows of its table.
`crossed_relations` checks the defining relations on given action matrices
for both module validation and the crossed-relations suite.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from operator import eq
from typing import NamedTuple, Optional, Sequence

from .cyclotomic import (
    CycEltN,
    _normalize,
    _ramanujan_sum,
    _reduce_mod_phi,
    _tables,
    cyclotomic,
    prime_factors,
    totient,
)
from .errors import InsufficientInversion, RingMismatch
from .groups import (
    CyclicClass,
    FiniteGroup,
    _Law,
    _cyclic_subgroup_map,
    _generators,
    as_table,
    cyclic_classes,
)
from .zlinalg import IntMatrix


def _ring_name(d: int, N: int) -> str:
    """Display name of Z[theta_d, 1/N]; the localization shows its radical."""
    rad = math.prod(prime_factors(N))
    base = "Z" if rad == 1 else f"Z[1/{rad}]"
    if totient(d) == 1:
        return base
    return f"Z[theta_{d}]" if rad == 1 else f"Z[theta_{d},1/{rad}]"


@dataclass(frozen=True)
class CrossedRing:
    """Presentation of Z[theta_n, 1/N] x| W: the Weyl group is given by the
    law of its cosets (given as rows, it is read off them) and its action on
    (Z/n)^x."""

    n: int
    N: int
    weyl_table: _Law
    weyl_units: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "weyl_table", as_table(self.weyl_table))

    @property
    def weyl_order(self) -> int:
        return len(self.weyl_units)

    @property
    def rank(self) -> int:
        return totient(self.n) * self.weyl_order

    def describe(self) -> str:
        theta = _ring_name(self.n, self.N)
        if self.weyl_order == 1:
            return theta
        return f"{theta} x| W({self.weyl_order})"


def build_crossed_ring(C: CyclicClass, N: int) -> CrossedRing:
    """The endomorphism ring presentation attached to a cyclic class.

    Requires every prime of |G| to divide N, since the construction lives in
    the localization at the group order.
    """
    order = C.group_order()
    for p in prime_factors(order):
        if N % p:
            raise InsufficientInversion(
                f"prime {p} of the group order {order} does not divide N={N}"
            )
    return CrossedRing(C.n, N, C.weyl_table, C.weyl_units)


@dataclass(frozen=True, init=False)
class CrossedElt:
    """Element sum_w a_w * w with a_w in Z[theta_n, 1/N], held as one integer
    vector num over one denominator den: slot w * phi(n) + i is the
    coefficient of theta^i w.  gcd(den, num) = 1 (den = 1 at zero), so equal
    elements have equal (num, den); `coeffs` reads the a_w back."""

    ring: CrossedRing
    num: tuple[int, ...]
    den: int

    def __init__(self, ring: CrossedRing, coeffs: Sequence[CycEltN]):
        if len(coeffs) != ring.weyl_order:
            raise ValueError("one coefficient per Weyl coset required")
        for c in coeffs:
            if not isinstance(c, CycEltN) or c.n != ring.n or c.N != ring.N:
                raise RingMismatch("coefficient lives in the wrong cyclotomic ring")
        den = math.lcm(*(c.den for c in coeffs))
        num, den = _normalize([x * (den // c.den) for c in coeffs for x in c.num], den)
        self.__dict__.update(ring=ring, num=num, den=den)

    @classmethod
    def _make(cls, ring: CrossedRing, num: Sequence[int], den: int) -> "CrossedElt":
        """An arithmetic result: num has ring.rank int slots and N supports
        den, so normalising is all that is left."""
        self = object.__new__(cls)
        num, den = _normalize(num, den)
        self.__dict__.update(ring=ring, num=num, den=den)
        return self

    @property
    def coeffs(self) -> tuple[CycEltN, ...]:
        ring, num = self.ring, self.num
        d = totient(ring.n)
        return tuple(CycEltN._make(ring.n, ring.N, num[k:k + d], self.den)
                     for k in range(0, len(num), d))

    @classmethod
    def zero(cls, ring: CrossedRing) -> "CrossedElt":
        return cls.from_parts(ring, {})

    @classmethod
    def one(cls, ring: CrossedRing) -> "CrossedElt":
        return cls.from_parts(ring, {0: CycEltN.one(ring.n, ring.N)})

    @classmethod
    def from_parts(cls, ring: CrossedRing, parts: dict[int, CycEltN]) -> "CrossedElt":
        coeffs = [CycEltN.zero(ring.n, ring.N)] * ring.weyl_order
        for w, c in parts.items():
            coeffs[w] = c
        return cls(ring, tuple(coeffs))

    def _check_ring(self, other: "CrossedElt") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatch("elements of different crossed rings")

    def _combine(self, other: "CrossedElt", sign: int) -> "CrossedElt":
        self._check_ring(other)
        l = math.lcm(self.den, other.den)
        fa, fb = l // self.den, sign * (l // other.den)
        return CrossedElt._make(self.ring,
                                [fa * x + fb * y for x, y in zip(self.num, other.num)], l)

    def __add__(self, other: "CrossedElt") -> "CrossedElt":
        return self._combine(other, 1)

    def __sub__(self, other: "CrossedElt") -> "CrossedElt":
        return self._combine(other, -1)

    def __mul__(self, other):
        ring = self.ring
        if isinstance(other, int):
            return CrossedElt._make(ring, [other * x for x in self.num], self.den)
        self._check_ring(other)
        n, m, d = ring.n, ring.weyl_order, totient(ring.n)
        # (a_w w)(b_v v) = a_w galois(b_v, u_w) wv.  The products that land
        # in a coset add up in its block of 2 phi(n) - 1 slots of one flat
        # list, over the denominator of self times that of other; each
        # nonzero block is reduced mod Phi_n once, and no CycEltN is built.
        # The loop over nonzero terms stays, instead of one `_kronecker` per
        # pair of cosets: the coefficients here are short and sparse, and
        # `verify crossed-relations --max-n 20` took 0.24-0.37 s of CPU with
        # this loop and 0.66-0.80 s with Kronecker substitution (best of
        # five calls in one process, three processes each, on a 2-vCPU host).
        a, b, width = self.num, other.num, 2 * d - 1
        blocks = [(v, c) for v in range(m) if any(c := b[v * d:(v + 1) * d])]
        # per Weyl unit u, the nonzero terms (v, j, y): y theta^j of galois(b_v, u)
        twisted: dict[int, list[tuple[int, int, int]]] = {}
        acc = [0] * (m * width)
        for w in range(m):
            a_terms = [(i, x) for i, x in enumerate(a[w * d:(w + 1) * d]) if x]
            if not a_terms:
                continue
            u = ring.weyl_units[w]
            if u not in twisted:
                twisted[u] = [(v, j, y) for v, c in blocks for j, y in
                              enumerate(c if u == 1 else _reduce_mod_phi(n, c, u)) if y]
            row = ring.weyl_table[w]
            slots = [(row[v] * width + j, y) for v, j, y in twisted[u]]
            for i, x in a_terms:
                for s, y in slots:
                    acc[s + i] += x * y
        if d == 1:  # a vector of at most deg(Phi_n) slots is reduced
            out = acc
        else:
            out = [0] * (m * d)
            for t in range(m):
                block = acc[t * width:(t + 1) * width]
                if any(block):
                    out[t * d:(t + 1) * d] = _reduce_mod_phi(n, block)
        return CrossedElt._make(ring, out, self.den * other.den)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.num)


def crossed_mul(a: CrossedElt, b: CrossedElt) -> CrossedElt:
    return a * b


# ---------------------------------------------------------------------------
# regular representation


@dataclass(frozen=True)
class RegularRep:
    """Left multiplication matrices on the basis theta^i * w (w-major order):
    one matrix for the ring generator z and one per Weyl coset."""

    ring: CrossedRing
    z: IntMatrix
    cosets: tuple[IntMatrix, ...]


def regular_representation(ring: CrossedRing) -> RegularRep:
    n, deg = ring.n, totient(ring.n)
    rank = deg * ring.weyl_order
    powers = _tables(n).powers

    def action(row, u: int, k: int) -> IntMatrix:
        # theta^i w goes to theta^(u i + k) row[w], column by column
        M = [[0] * rank for _ in range(rank)]
        for w, t in enumerate(row):
            for i in range(deg):
                for s, c in powers[(u * i + k) % n]:
                    M[t * deg + s][w * deg + i] = c
        return IntMatrix(tuple(map(tuple, M)), rank)

    return RegularRep(ring, action(range(ring.weyl_order), 1, 1), tuple(
        action(row, u, 0) for row, u in zip(ring.weyl_table, ring.weyl_units)))


# ---------------------------------------------------------------------------
# defining relations on action matrices


class Relation(NamedTuple):
    """One defining relation: kind "phi" (Phi_n(z) = 0), "table"
    (w_a w_b = w_ab) or "twist" (w_a z = z^u_a w_a), and the first entry
    (i, j) at which it fails, None when it holds."""

    kind: str
    a: int
    b: int
    bad: Optional[tuple[int, int]]


def _first_difference(A: IntMatrix, B: IntMatrix,
                      orders: Sequence[int]) -> Optional[tuple[int, int]]:
    """First entry (i, j) at which A and B differ modulo orders[i] (0 means
    exactly), or None.  Only unequal rows are walked entry by entry."""
    for i, (ra, rb, q) in enumerate(zip(A.entries, B.entries, orders)):
        if ra != rb:
            for j, (x, y) in enumerate(zip(ra, rb)):
                if (x - y) % q if q else x != y:
                    return i, j
    return None


def crossed_relations(ring: CrossedRing, z: IntMatrix, cosets: Sequence[IntMatrix],
                      orders: Sequence[int]):
    """The defining relations of the ring Z[theta_n, 1/N] x| W on action
    matrices (z for theta_n, one per Weyl coset given), entries of row i
    read modulo orders[i].

    Yields 1 + m^2 + m Relations for m cosets: Phi_n(z) = 0, then for each
    coset a the relations w_a w_b = w_{ab} for every b and w_a z = z^{u_a} w_a.
    Coset a takes one product w_a [w_0 ... w_{m-1}] with the cosets side by
    side, whose columns are compared with those of [w_{a0} ... w_{a(m-1)}];
    each block is walked only when a column differs."""
    phi = cyclotomic(ring.n).coeffs
    r = z.rows
    powers = [IntMatrix.identity(r)]
    for _ in range(max([len(phi) - 1, *ring.weyl_units])):
        powers.append(z @ powers[-1])
    terms = [(c, p.entries) for c, p in zip(phi, powers) if c]
    value = []
    for i in range(r):
        row = [0] * r
        for c, P in terms:
            row = [x + c * y for x, y in zip(row, P[i])]
        value.append(row)
    yield Relation("phi", 0, 0, _first_difference(
        IntMatrix._make(value), IntMatrix.zero(r, r), orders))
    stack = IntMatrix(tuple(tuple(chain.from_iterable(rows))
                            for rows in zip(*(w.entries for w in cosets))))
    cols = [tuple(zip(*w.entries)) for w in cosets]
    for a, (wa, row) in enumerate(zip(cosets, ring.weyl_table)):
        got = (wa @ stack).entries
        holds = all(map(eq, zip(*got), chain.from_iterable(map(cols.__getitem__, row))))
        for b, c in enumerate(row):
            yield Relation("table", a, b, None if holds else _first_difference(
                IntMatrix(tuple(g[b * r:(b + 1) * r] for g in got), r), cosets[c], orders))
        yield Relation("twist", a, 0,
                       _first_difference(wa @ z, powers[ring.weyl_units[a]] @ wa, orders))


# ---------------------------------------------------------------------------
# splitting into commutative summands


@dataclass(frozen=True)
class RingSummand:
    """One summand of a (possibly split) crossed ring.

    kind is integral_local (Z[1/N]), cyclotomic_local (Z[theta_d, 1/N]) or
    unsplit_crossed; d records the cyclotomic index (d = n for unsplit).
    """

    kind: str
    d: int
    N: int
    multiplicity: int = 1
    provenance: str = ""
    ring: Optional[CrossedRing] = None

    def rank(self) -> int:
        if self.kind == "unsplit_crossed":
            return self.ring.rank
        return totient(self.d)

    def describe(self) -> str:
        if self.kind == "unsplit_crossed":
            return f"unsplit {self.ring.describe()} (rank {self.ring.rank})"
        return _ring_name(self.d if self.kind != "integral_local" else 1, self.N)


def _kind_for(d: int) -> str:
    return "integral_local" if totient(d) == 1 else "cyclotomic_local"


def _abelian_characters(table) -> tuple[list[tuple[int, ...]], int, list[int]]:
    """All characters of an abelian group given by its table, as exponent
    vectors: chi(x) = theta_e^{vals[x]} with e the exponent of the group.
    Also returns the generators, whose values fix a character.

    The characters are built by extension along the generator walk of
    `groups._generators`.  With H the subgroup reached before g and g^t the
    first power of g in H, each character chi of H extends to <H, g> in t
    ways, chi(h g^s) = chi(h) + s c for the t solutions c of t c = chi(g^t)
    mod e; chi(g^t) is a multiple of t, since its order divides ord(g) / t."""
    law = as_table(table)
    m, p = law.order, law.product
    gens = list(_generators(law))
    # walk lists H and then, h by h, each h g^s with 0 < s < t, for each
    # generator in turn; pos[x] is the place of x in it
    walk, pos, steps, exponent = [0], [0] + [-1] * (m - 1), [], 1
    for g in gens:
        powers, x = [], g
        while pos[x] < 0:
            powers.append(x)
            x = p(x, g)
        t = len(powers) + 1
        steps.append((t, pos[x]))
        while x != 0:  # on to the order of g
            x, t = p(x, g), t + 1
        exponent = math.lcm(exponent, t)
        new = [p(h, y) for h in walk for y in powers]
        for i, y in enumerate(new, len(walk)):
            pos[y] = i
        walk += new

    def extend(vals: list[int], k: int):
        # one character at a time, read in element order as it is finished,
        # so no second copy of all the characters is ever alive
        if k == len(steps):
            yield tuple(map(vals.__getitem__, pos))
            return
        t, q = steps[k]
        for j in range(t):
            c = vals[q] // t + j * (exponent // t)
            yield from extend(vals + [(v + s * c) % exponent
                                      for v in vals for s in range(1, t)], k + 1)

    chars = list(extend([0], 0))
    if len(chars) != m:
        raise RuntimeError("character count must equal the group order")
    return chars, exponent, gens


def _splits(ring: CrossedRing) -> bool:
    """Whether the splitting rule applies (see the module doc); W is
    abelian when its generators commute, tested last as the costliest and
    as the walk finds each generator, so a non-abelian W stops it early."""
    n, law = ring.n, ring.weyl_table
    m, mul = law.order, law.product
    # The exponent gate at n > 1 keeps the rule correct.  For n > 1 it
    # labels every summand Z[theta_n, 1/N], but an orbit of characters of
    # order d > 2 gives Z[theta_lcm(n,d), 1/N]: without the gate the ranks
    # stop adding up (cyclic(9), class n = 3, W = C3: rank 6 splits into
    # rank 4).  Lifting it needs orbits under Gal(Q(theta_lcm(n,e))/Q(theta_n)).
    if not (all(u == 1 or n == 1 for u in ring.weyl_units)
            and all(ring.N % p == 0 for p in prime_factors(m))
            and (n == 1 or all(mul(w, w) == 0 for w in range(m)))):
        return False
    gens: list[int] = []
    for g in _generators(law):
        if any(mul(g, h) != mul(h, g) for h in gens):
            return False
        gens.append(g)
    return True


def split_ring(ring: CrossedRing) -> list[RingSummand]:
    """Split the ring into summands where an implemented rule applies;
    an unsplit crossed product is a valid outcome.  The summands are
    counted as in the module doc, ascending in d."""
    if not _splits(ring):
        return [RingSummand("unsplit_crossed", ring.n, ring.N, ring=ring,
                            provenance="no splitting rule applies")]
    if ring.n > 1:
        return [RingSummand(_kind_for(ring.n), ring.n, ring.N, ring.weyl_order,
                            provenance="character orbit of order 1")]
    counts = Counter(len(H) for H in set(_cyclic_subgroup_map(ring.weyl_table)))
    return [RingSummand(_kind_for(d), d, ring.N, a, provenance=f"character orbit of order {d}")
            for d, a in sorted(counts.items())]


def splitting_idempotents(ring: CrossedRing) -> Optional[list[CrossedElt]]:
    """The complete orthogonal idempotent family realizing split_ring, one
    idempotent per summand copy, from the Galois orbits of W's characters
    taken by order, then least character; None when the ring stays unsplit."""
    if not _splits(ring):
        return None
    chars, e, gens = _abelian_characters(ring.weyl_table)
    units = [u for u in range(1, e + 1) if math.gcd(u, e) == 1]
    # a character is fixed by its values on the generators, so its Galois
    # orbit is marked by those values alone
    seen: set[tuple[int, ...]] = set()
    orbits = []
    for chi in sorted(chars):
        key = tuple(chi[g] for g in gens)
        if key not in seen:  # so chi is the least character of its orbit
            seen |= {tuple((u * v) % e for v in key) for u in units}
            orbits.append((e // math.gcd(e, *key), chi))
    idems = []
    for d, chi in sorted(orbits):
        # The orbit's sum of chi'(w^-1) is the Ramanujan sum c_d at the
        # order o of chi(w): c_d(d / o) = mu(o) phi(d) / phi(o).
        coeff: dict[int, CycEltN] = {}
        parts = []
        for w in range(ring.weyl_order):
            o = e // math.gcd(e, chi[w])
            if o not in coeff:
                coeff[o] = CycEltN.from_int(ring.n, ring.N, _ramanujan_sum(d, d // o),
                                            den=ring.weyl_order)
            parts.append(coeff[o])
        idems.append(CrossedElt(ring, tuple(parts)))
    return idems


# ---------------------------------------------------------------------------
# the target category


@dataclass(frozen=True)
class ClassEntry:
    cyclic_class: CyclicClass
    ring: CrossedRing
    summands: tuple[RingSummand, ...]


@dataclass(frozen=True)
class TargetCategoryReport:
    """Per conjugacy class of cyclic subgroups: the crossed ring and its
    summand list, with N = |G| inverted throughout."""

    group_order: int
    inverted: int
    entries: tuple[ClassEntry, ...]

    def total_summands(self) -> int:
        return sum(s.multiplicity for e in self.entries for s in e.summands)

    @cached_property
    def _flat(self) -> tuple[RingSummand, ...]:
        # Built once per report, so every lookup keyed by a flat summand
        # meets the same object and never compares fields.
        return tuple(
            replace(s, multiplicity=1,
                    provenance=f"class {ci} (n={e.cyclic_class.n}): "
                               f"{s.provenance} copy {copy}")
            for ci, e in enumerate(self.entries)
            for s in e.summands
            for copy in range(s.multiplicity)
        )

    def flat_summands(self) -> list[RingSummand]:
        """Multiplicity-expanded summand list; module families index into it."""
        return list(self._flat)

    def to_json_dict(self) -> dict:
        return {
            "group_order": self.group_order,
            "inverted": self.inverted,
            "total_summands": self.total_summands(),
            "classes": [
                {
                    "generator_order": e.cyclic_class.n,
                    "class_size": e.cyclic_class.class_size,
                    "weyl_order": e.cyclic_class.weyl_order,
                    "weyl_units": list(e.cyclic_class.weyl_units),
                    "ring": e.ring.describe(),
                    "summands": [
                        {"kind": s.kind, "d": s.d, "multiplicity": s.multiplicity}
                        for s in e.summands
                    ],
                }
                for e in self.entries
            ],
        }

    def to_text(self) -> str:
        lines = [
            f"group order {self.group_order}, localized at N={self.inverted}",
            f"{'class':>5}  {'n':>3}  {'size':>4}  {'|W|':>3}  ring -> summands",
        ]
        for i, e in enumerate(self.entries):
            parts = []
            for s in e.summands:
                txt = s.describe()
                if s.multiplicity > 1:
                    txt = f"{s.multiplicity} x {txt}"
                parts.append(txt)
            lines.append(
                f"{i:>5}  {e.cyclic_class.n:>3}  {e.cyclic_class.class_size:>4}"
                f"  {e.cyclic_class.weyl_order:>3}  {e.ring.describe()} -> "
                + ", ".join(parts)
            )
        lines.append(f"total: {self.total_summands()} summands")
        return "\n".join(lines)


def target_category(G: FiniteGroup) -> TargetCategoryReport:
    """For each conjugacy class of cyclic subgroups, the split summand list
    of Z[theta_n, 1/|G|] x| W_H, in the canonical class order."""
    N = G.order
    entries = []
    for C in cyclic_classes(G):
        ring = build_crossed_ring(C, N)
        summands = tuple(split_ring(ring))
        entries.append(ClassEntry(C, ring, summands))
    return TargetCategoryReport(G.order, N, tuple(entries))
