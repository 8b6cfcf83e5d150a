"""Finite group arithmetic, by a product rule or an explicit Cayley table.

Every product of a group is read through its law (`FiniteGroup.mul`).  A
preset carries a rule: index arithmetic for cyclic and dihedral groups,
permutation composition for symmetric groups, and pairing of the factors'
laws for a direct product.  A group read from a file keeps its validated
table.  A class of cyclic subgroups reads two vectors off the law, the
conjugates x g x^-1 and the products x g over every x, each in one pass;
its Weyl group's law takes its products on demand from the coset
representatives.  So the classes cost O(|G|) products each and no |G|^2
table is built for a report: symmetric(7)'s target-category report takes
about 0.4 s and 21 MB peak RSS on a 2-core, 8 GB machine, where its
25.4 M-entry table took 1.8-2.8 s and 214 MB.  A group's law and a Weyl law
also index as the table t[a][b]: each builds its rows, all at once, only
when a caller reads one.  All types are immutable after construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

from .errors import (
    InvalidGroupTable,
    NoIdentity,
    NoInverse,
    NonAssociative,
    UnknownPreset,
    UnsupportedSize,
)


class _Law:
    """The products of a group on the indices 0 .. order - 1, and its
    multiplication table t[a][b] = a * b as a read-only sequence of rows.

    A subclass gives `product` and `inv`; the vectors below are their plain
    loops, which the preset rules replace by one pass each where a class
    computation reads them.  The rows are built all at once, and kept, when
    a caller first reads one; a law read off a table has them already.

    Laws compare by their tables: equal keys settle it with no rows built,
    and otherwise both tables are built.  The hash reads the order and one
    row, which equal tables share."""

    _rows: Optional[tuple[tuple[int, ...], ...]] = None
    _hash: Optional[int] = None

    def __init__(self, order: int, identity: int, key: object):
        self.order, self.identity, self.key = order, identity, key

    def product(self, a: int, b: int) -> int:
        raise NotImplementedError

    def row(self, a: int) -> tuple[int, ...]:
        """a * b over every b."""
        p = self.product
        return tuple([p(a, b) for b in range(self.order)])

    def column(self, g: int) -> list[int]:
        """x * g over every x."""
        p = self.product
        return [p(x, g) for x in range(self.order)]

    def conjugates(self, g: int) -> list[int]:
        """x * g * x^-1 over every x."""
        p = self.product
        return [p(p(x, g), ix) for x, ix in enumerate(self.inv)]

    def _build(self) -> tuple[tuple[int, ...], ...]:
        if self._rows is None:
            self._rows = tuple(map(self.row, range(self.order)))
        return self._rows

    def __len__(self) -> int:
        return self.order

    def __getitem__(self, a: int) -> tuple[int, ...]:
        rows = self._rows
        return (self._build() if rows is None else rows)[a]

    def __iter__(self):
        return iter(self._build())

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, _Law):
            return NotImplemented
        return (self.key == other.key
                or self.order == other.order and self._build() == other._build())

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.order, self.row(min(1, self.order - 1))))
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.key!r})"


class _Rows(_Law):
    """Products read off an explicit table."""

    def __init__(self, rows: tuple[tuple[int, ...], ...], identity: int):
        super().__init__(len(rows), identity, rows)
        self._rows = rows

    def product(self, a: int, b: int) -> int:
        return self._rows[a][b]

    def row(self, a: int) -> tuple[int, ...]:
        return self._rows[a]

    def column(self, g: int) -> list[int]:
        return [r[g] for r in self._rows]

    def conjugates(self, g: int) -> list[int]:
        rows = self._rows
        return [rows[r[g]][ix] for r, ix in zip(rows, self.inv)]

    @cached_property
    def inv(self) -> tuple[int, ...]:
        # a right inverse in a group is two-sided; group_from_table has
        # checked the table before any group is built from it
        e = self.identity
        return tuple(row.index(e) for row in self._rows)


class _Cyclic(_Law):
    """Z/n: i * j = i + j mod n."""

    def __init__(self, n: int):
        super().__init__(n, 0, ("cyclic", n))

    def product(self, a: int, b: int) -> int:
        return (a + b) % self.order

    def row(self, a: int) -> tuple[int, ...]:
        return tuple(range(a, self.order)) + tuple(range(a))

    def column(self, g: int) -> list[int]:
        return list(self.row(g))

    def conjugates(self, g: int) -> list[int]:
        return [g] * self.order

    @cached_property
    def inv(self) -> tuple[int, ...]:
        return (0, *range(self.order - 1, 0, -1))


class _Dihedral(_Law):
    """The dihedral group of order 2n: r^i s^j has index i + n*j, and
    s r s^-1 = r^-1, so r^i s^j * r^k s^l = r^(i +- k) s^(j + l)."""

    def __init__(self, n: int):
        super().__init__(2 * n, 0, ("dihedral", n))
        self.n = n

    def product(self, a: int, b: int) -> int:
        n = self.n
        i, j = a % n, a // n
        return (i - b if j else i + b) % n + n * (j ^ (b >= n))

    def column(self, g: int) -> list[int]:
        n = self.n
        k, l = g % n, g // n
        return ([(i + k) % n + n * l for i in range(n)]
                + [(i - k) % n + n * (1 - l) for i in range(n)])

    def conjugates(self, g: int) -> list[int]:
        # r^i conjugates r^k to r^k and r^k s to r^(k+2i) s; r^i s
        # conjugates them to r^-k and r^(2i-k) s
        n = self.n
        k = g % n
        if g < n:
            return [k] * n + [-k % n] * n
        return [(k + 2 * i) % n + n for i in range(n)] + [(2 * i - k) % n + n for i in range(n)]

    @cached_property
    def inv(self) -> tuple[int, ...]:
        # rotations invert, reflections are involutions
        n = self.n
        return (*(-i % n for i in range(n)), *range(n, 2 * n))


class _Symmetric(_Law):
    """S_n on the permutations in itertools.permutations order, the
    identity first; p * q is p o q."""

    def __init__(self, n: int):
        self.perms = list(itertools.permutations(range(n)))
        super().__init__(len(self.perms), 0, ("symmetric", n))
        self.index = {p: i for i, p in enumerate(self.perms)}

    def product(self, a: int, b: int) -> int:
        return self.index[tuple(map(self.perms[a].__getitem__, self.perms[b]))]

    def column(self, g: int) -> list[int]:
        index, pg = self.index, self.perms[g]
        return [index[tuple(map(p.__getitem__, pg))] for p in self.perms]

    def conjugates(self, g: int) -> list[int]:
        # x g x^-1 reads x(g(x^-1(k))) at k
        perms, index, pg = self.perms, self.index, self.perms[g].__getitem__
        return [index[tuple(map(x.__getitem__, map(pg, perms[ix])))]
                for x, ix in zip(perms, self.inv)]

    @cached_property
    def inv(self) -> tuple[int, ...]:
        # the inverse of p lists the positions of 0, 1, ... in p
        index, idx = self.index, range(len(self.perms[0]))
        return tuple([index[tuple(sorted(idx, key=p.__getitem__))] for p in self.perms])


class _Product(_Law):
    """a x b with (x, y) at index x * |b| + y: each vector pairs the
    factors' vectors, so no product is formed per entry."""

    def __init__(self, a: FiniteGroup, b: FiniteGroup):
        super().__init__(a.order * b.order, a.identity * b.order + b.identity,
                         ("product", a.mul.key, b.mul.key))
        self.la, self.lb, self.k = a.mul, b.mul, b.order

    def _pair(self, va: Sequence[int], vb: Sequence[int]) -> list[int]:
        k = self.k
        return [x + y for x in [v * k for v in va] for y in vb]

    def product(self, x: int, y: int) -> int:
        k = self.k
        return self.la.product(x // k, y // k) * k + self.lb.product(x % k, y % k)

    def row(self, x: int) -> tuple[int, ...]:
        k = self.k
        return tuple(self._pair(self.la.row(x // k), self.lb.row(x % k)))

    def column(self, g: int) -> list[int]:
        k = self.k
        return self._pair(self.la.column(g // k), self.lb.column(g % k))

    def conjugates(self, g: int) -> list[int]:
        k = self.k
        return self._pair(self.la.conjugates(g // k), self.lb.conjugates(g % k))

    @cached_property
    def inv(self) -> tuple[int, ...]:
        return tuple(self._pair(self.la.inv, self.lb.inv))


class _Cosets(_Law):
    """The Weyl group N/H of a cyclic class: coset w is reps[w] H, and
    coset_of maps each element of N to its coset (-1 outside N)."""

    def __init__(self, G: FiniteGroup, generator: int, reps: Sequence[int],
                 coset_of: Sequence[int]):
        super().__init__(len(reps), 0, ("weyl", G.mul.key, generator))
        self.parent, self.reps, self.coset_of = G.mul, reps, coset_of

    def product(self, a: int, b: int) -> int:
        return self.coset_of[self.parent.product(self.reps[a], self.reps[b])]

    def row(self, a: int) -> tuple[int, ...]:
        # one row of G, read at the representatives
        coset_of, ga = self.coset_of, self.parent.row(self.reps[a])
        return tuple([coset_of[ga[r]] for r in self.reps])

    @cached_property
    def inv(self) -> tuple[int, ...]:
        coset_of, inv = self.coset_of, self.parent.inv
        return tuple([coset_of[inv[r]] for r in self.reps])


def as_table(rows, identity: int = 0) -> _Law:
    """rows itself when it is a law, else the law read off rows."""
    return rows if isinstance(rows, _Law) else _Rows(rows, identity)


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group on the element indices 0 .. order - 1.

    mul is its law, given as rows or as a law: a product rule for a preset,
    the rows themselves for a table.  It gives every product, and indexes as
    the table mul[a][b]."""

    order: int
    mul: _Law
    identity: int
    labels: Optional[tuple[str, ...]] = None
    inv: tuple[int, ...] = field(default=(), compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mul", as_table(self.mul, self.identity))
        if not self.inv:
            object.__setattr__(self, "inv", self.mul.inv)

    def multiply(self, a: int, b: int) -> int:
        return self.mul.product(a, b)

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv[a], -k
        p = self.mul.product
        out = self.identity
        while k:
            if k & 1:
                out = p(out, a)
            a = p(a, a)
            k >>= 1
        return out

    def element_order(self, a: int) -> int:
        p = self.mul.product
        cur = a
        k = 1
        while cur != self.identity:
            cur = p(cur, a)
            k += 1
        return k

    def conjugate(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        p = self.mul.product
        return p(p(g, x), self.inv[g])

    def label(self, a: int) -> str:
        if self.labels:
            return self.labels[a]
        return str(a)


def group_from_table(table: Sequence[Sequence[int]],
                     labels: Optional[Sequence[str]] = None) -> FiniteGroup:
    """Validate a multiplication table and wrap it as a FiniteGroup.

    Raises InvalidGroupTable (types/shape/range), NoIdentity, NoInverse or
    NonAssociative naming the offending element or triple.
    """
    if not isinstance(table, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) and all(type(x) is int for x in row) for row in table
    ):
        raise InvalidGroupTable("table must be a list of rows of integer element indices")
    if labels is not None and not (
        isinstance(labels, (list, tuple)) and all(isinstance(x, str) for x in labels)
    ):
        raise InvalidGroupTable("labels must be a list of strings")
    rows = [tuple(row) for row in table]
    n = len(rows)
    if n == 0:
        raise InvalidGroupTable("empty table")
    if any(len(r) != n for r in rows):
        raise InvalidGroupTable("table is not square")
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if not 0 <= v < n:
                raise InvalidGroupTable(f"entry {v} at ({i}, {j}) out of range")
    mul = tuple(rows)
    identity = None
    for e in range(n):
        if all(mul[e][x] == x and mul[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NoIdentity()
    for a in range(n):
        if not any(mul[a][b] == identity and mul[b][a] == identity for b in range(n)):
            raise NoInverse(a)
    law = _Rows(mul, identity)
    # Light's test: the b with (ab)c = a(bc) for all a, c form a submagma,
    # so it is enough to check b over a generating set
    for b in _generators(law):
        for a in range(n):
            ab = mul[a][b]
            row_a = mul[a]
            for c in range(n):
                if mul[ab][c] != row_a[mul[b][c]]:
                    raise NonAssociative((a, b, c))
    lab = tuple(labels) if labels is not None else None
    if lab is not None and len(lab) != n:
        raise InvalidGroupTable("label count does not match order")
    seen: set[str] = set()
    for x in lab or ():
        if x in seen:
            raise InvalidGroupTable(f"label {x!r} names more than one element")
        seen.add(x)
    return FiniteGroup(n, law, identity, lab)


def _generators(law: _Law) -> Iterator[int]:
    """A generating set grown greedily: the least element not yet reached
    joins, and the reached set is closed under right multiplication by the
    chosen elements.  Each generator is yielded before that closure."""
    p = law.product
    gens: list[int] = []
    reached = {law.identity}
    for g in range(law.order):
        if g in reached:
            continue
        gens.append(g)
        yield g
        # elements reached before need only the new generator
        frontier = [p(x, g) for x in reached]
        while frontier:
            y = frontier.pop()
            if y not in reached:
                reached.add(y)
                frontier.extend(p(y, h) for h in gens)


# ---------------------------------------------------------------------------
# presets


def _direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    law = _Product(a, b)
    return FiniteGroup(law.order, law, law.identity)


def _split_call(spec: str) -> tuple[str, Optional[list[str]]]:
    spec = spec.strip()
    if "(" not in spec:
        return spec, None
    head, _, rest = spec.partition("(")
    if not rest.endswith(")"):
        raise UnknownPreset(f"unbalanced parentheses in {spec!r}")
    body = rest[:-1]
    args, depth, cur = [], 0, []
    for ch in body:
        if ch == "," and depth == 0:
            args.append("".join(cur))
            cur = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        cur.append(ch)
    args.append("".join(cur))
    return head.strip(), [a.strip() for a in args]


# Largest preset order built.  No table bounds it any more: the costliest
# reports within it, cyclic(5040)'s and symmetric(7)'s, take about 0.2 s and
# 35 MB and 0.4 s and 21 MB peak RSS on a 2-core, 8 GB machine, since a
# report reads O(|G|) products per class of cyclic subgroups.  A raise must
# measure its own largest cases (symmetric(8), cyclic(40320)) first.
MAX_PRESET_ORDER = 5040

# Largest table read from a group file, where json.load and group_from_table
# hold about 46 bytes per entry before any check.  At the bound, on a 2-core,
# 8 GB machine, cyclic(1024)'s target-category report takes 0.7 s and 57 MB
# peak RSS, and (Z/2)^10's (ten generators, 1023 classes) 4.7 s and 167 MB.
MAX_TABLE_ORDER = 1024

# Deepest nesting of presets inside direct_product: a product of 13
# nontrivial factors already exceeds MAX_PRESET_ORDER, and parsing and
# building recurse once per level.
MAX_PRESET_DEPTH = 16


def preset_group(name: str) -> FiniteGroup:
    """Build one of the named groups: cyclic(n), dihedral(n), symmetric(n),
    klein_four, or direct_product(a, b) of presets, of order at most
    MAX_PRESET_ORDER and nested at most MAX_PRESET_DEPTH deep."""
    order, build = _parse_preset(name)
    if order > MAX_PRESET_ORDER:
        raise UnsupportedSize(
            f"{name} has order above {MAX_PRESET_ORDER}, the largest supported"
        )
    return build()


def _parse_preset(name: str, depth: int = 0) -> tuple[int, Callable[[], FiniteGroup]]:
    """The order of a preset, worked out before any table is built, and a
    function that builds it."""
    if depth > MAX_PRESET_DEPTH:
        raise UnsupportedSize(f"presets nest at most {MAX_PRESET_DEPTH} deep")
    head, args = _split_call(name)
    if head in ("klein_four", "trivial") and args:
        raise UnknownPreset(f"{head} takes no arguments")
    if head == "klein_four":
        return 4, lambda: FiniteGroup(
            4, preset_group("direct_product(cyclic(2),cyclic(2))").mul, 0,
            ("1", "a", "b", "ab"))
    if head == "trivial":
        return 1, lambda: FiniteGroup(1, ((0,),), 0)
    if head in ("cyclic", "dihedral", "symmetric"):
        # isdigit alone also accepts digits such as "²" or "٣"
        if not args or len(args) != 1 or not (args[0].isascii() and args[0].isdigit()):
            raise UnknownPreset(f"{head} takes one integer argument")
        n = int(args[0])
        if n < 1:
            raise UnsupportedSize(f"{head}({n}): size must be >= 1")
        if head == "cyclic":
            return n, lambda: FiniteGroup(n, _Cyclic(n), 0)
        if head == "dihedral":
            return 2 * n, lambda: FiniteGroup(2 * n, _Dihedral(n), 0)
        # 8! already exceeds the bound; n! itself is never needed beyond it
        order = math.factorial(min(n, 8))
        return order, lambda: FiniteGroup(order, _Symmetric(n), 0)
    if head == "direct_product":
        if not args or len(args) != 2:
            raise UnknownPreset("direct_product takes two preset arguments")
        (order_a, build_a), (order_b, build_b) = (_parse_preset(a, depth + 1) for a in args)
        return order_a * order_b, lambda: _direct_product(build_a(), build_b())
    raise UnknownPreset(f"unknown preset {name!r}")


# ---------------------------------------------------------------------------
# cyclic subgroups and their conjugacy classes


@dataclass(frozen=True)
class CyclicSubgroup:
    """A cyclic subgroup, its order and sorted element list."""

    generator: int
    n: int
    elements: tuple[int, ...]


@dataclass(frozen=True)
class CyclicClass:
    """Conjugacy class of a cyclic subgroup together with its Weyl data.

    weyl_units[w] is the unit k of (Z/n)^x with g h g^-1 = h^k for any g in
    coset w; weyl_table is the law of the cosets, with the identity coset at
    index 0.  Its products come on demand from the coset representatives and
    a map from elements to cosets, and its rows are built only when read;
    given as rows, it is read off them.
    """

    representative: CyclicSubgroup
    class_size: int
    normalizer: tuple[int, ...]
    coset_reps: tuple[int, ...]
    weyl_units: tuple[int, ...]
    weyl_table: _Law

    def __post_init__(self):
        object.__setattr__(self, "weyl_table", as_table(self.weyl_table))

    @property
    def n(self) -> int:
        return self.representative.n

    @property
    def weyl_order(self) -> int:
        return len(self.coset_reps)

    def group_order(self) -> int:
        # orbit-stabilizer: |G| = class_size * |N_H|
        return self.class_size * len(self.normalizer)


def _cyclic_subgroup_map(law: _Law) -> list[frozenset[int]]:
    """subgroup_of[g] = <g>, with one frozenset object per cyclic subgroup:
    the powers g^k with gcd(k, |g|) = 1 are exactly the generators of <g>."""
    p, e = law.product, law.identity
    subgroup_of: list[Optional[frozenset[int]]] = [None] * law.order
    for g in range(law.order):
        if subgroup_of[g] is not None:
            continue
        powers = [e]
        cur = g
        while cur != e:
            powers.append(cur)
            cur = p(cur, g)
        H = frozenset(powers)
        n = len(powers)
        for k in range(n):
            if math.gcd(k, n) == 1:
                subgroup_of[powers[k]] = H
    return subgroup_of


def cyclic_classes(G: FiniteGroup) -> list[CyclicClass]:
    """One CyclicClass per conjugacy class of cyclic subgroups, including the
    trivial subgroup, sorted by (order, representative elements).  Each class
    reads two vectors off G's law, O(|G|) products."""
    e = G.identity
    subgroup_of = _cyclic_subgroup_map(G.mul)
    seen: set[frozenset[int]] = set()
    classes: list[CyclicClass] = []
    for H in sorted(set(subgroup_of), key=lambda s: (len(s), sorted(s))):
        if H in seen:
            continue
        # H is the least member of its class: the representative, so the
        # classes come out sorted.  Since x<h>x^-1 = <xhx^-1>, conjugating
        # one generator per x gives its class and its normalizer.
        n = len(H)
        generator = min(h for h in H if subgroup_of[h] is H)
        conj = G.mul.conjugates(generator)
        images = list(map(subgroup_of.__getitem__, conj))
        orbit = set(images)
        normalizer = [x for x, K in enumerate(images) if K is H]
        seen |= orbit
        # left cosets xH of the representative inside its normalizer, each
        # walked from x by right multiplication by the generator: scanned in
        # index order after the identity's, the first element of a coset not
        # yet covered is its least element, so the cosets come out sorted
        step = G.mul.column(generator)
        reps: list[int] = []
        coset_of = [-1] * G.order
        for x in itertools.chain((e,), normalizer):
            if coset_of[x] < 0:
                y = x
                for _ in range(n):
                    coset_of[y] = len(reps)
                    y = step[y]
                reps.append(x)
        dlog = {}
        x = e
        for t in range(n):
            dlog[x] = t
            x = step[x]
        units = [dlog[conj[r]] for r in reps] if n > 1 else [1] * len(reps)
        if n == 1 and e == 0:
            # the cosets of the trivial subgroup are the elements in index
            # order, so its Weyl table is the Cayley table, shared
            table = G.mul
        else:
            table = _Cosets(G, generator, reps, coset_of)
        classes.append(
            CyclicClass(
                representative=CyclicSubgroup(generator, n, tuple(sorted(H))),
                class_size=len(orbit),
                normalizer=tuple(normalizer),
                coset_reps=tuple(reps),
                weyl_units=tuple(units),
                weyl_table=table,
            )
        )
    return classes


def weyl_action_on_units(C: CyclicClass, w: int) -> int:
    """The unit k in (Z/n)^x describing conjugation by coset w."""
    return C.weyl_units[w]
