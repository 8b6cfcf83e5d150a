"""Finite group arithmetic on explicit Cayley tables.

Groups are kept at desk scale (full multiplication tables), which makes
validation, conjugacy and normalizer computations straightforward
exhaustive loops.  All types are immutable after construction.

A preset table is built by one rule, `_cayley`: the preset gives only the
rows of its generators, and a breadth-first walk from the identity derives
every other row from a generator row with one C-level map, so no product
is formed per entry.  symmetric(6) takes about 0.05 s, and symmetric(7)'s
25.4 M-entry table about 2.3 s and 211 MB, on a 2-core, 8 GB machine.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .errors import (
    InvalidGroupTable,
    NoIdentity,
    NoInverse,
    NonAssociative,
    UnknownPreset,
    UnsupportedSize,
)


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its multiplication table of element indices."""

    order: int
    mul: tuple[tuple[int, ...], ...]
    identity: int
    labels: Optional[tuple[str, ...]] = None
    inv: tuple[int, ...] = field(default=(), compare=False)

    def __post_init__(self):
        # a right inverse in a group is two-sided; group_from_table has
        # checked the table before any group is built from it
        if not self.inv:
            e = self.identity
            object.__setattr__(self, "inv", tuple(row.index(e) for row in self.mul))

    def multiply(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv[a], -k
        out = self.identity
        while k:
            if k & 1:
                out = self.mul[out][a]
            a = self.mul[a][a]
            k >>= 1
        return out

    def element_order(self, a: int) -> int:
        cur = a
        k = 1
        while cur != self.identity:
            cur = self.mul[cur][a]
            k += 1
        return k

    def conjugate(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.mul[self.mul[g][x]][self.inv[g]]

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
    # Light's test: the b with (ab)c = a(bc) for all a, c form a submagma,
    # so it is enough to check b over a generating set
    for b in _generators(mul, identity):
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
    return FiniteGroup(n, mul, identity, lab)


def _generators(mul: Sequence[Sequence[int]], identity: int) -> list[int]:
    """A generating set grown greedily: the least element not yet reached
    joins, and the reached set is closed under right multiplication by the
    chosen elements."""
    gens: list[int] = []
    reached = {identity}
    for g in range(len(mul)):
        if g in reached:
            continue
        gens.append(g)
        # elements reached before need only the new generator
        frontier = [mul[x][g] for x in reached]
        while frontier:
            y = frontier.pop()
            if y not in reached:
                reached.add(y)
                frontier.extend(mul[y][h] for h in gens)
    return gens


# ---------------------------------------------------------------------------
# presets


def _cayley(order: int, identity: int,
            gen_rows: Sequence[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """The Cayley table of the group generated by the elements whose rows
    (left multiplications) are gen_rows.

    Row p is p * q over q.  For a generator s, row(s * p) = L_s o row(p), so
    a breadth-first walk from the identity row derives each row with one
    C-level map; no product is formed per entry.
    """
    rows: list[Optional[tuple[int, ...]]] = [None] * order
    rows[identity] = tuple(range(order))
    walk = [identity]
    for p in walk:
        row_p = rows[p]
        for gen in gen_rows:
            sp = gen[p]
            if rows[sp] is None:
                rows[sp] = tuple(map(gen.__getitem__, row_p))
                walk.append(sp)
    if len(walk) != order:
        raise RuntimeError(f"generator rows reach {len(walk)} of {order} elements")
    return tuple(rows)


def _cyclic_table(n: int) -> tuple[tuple[int, ...], ...]:
    # generated by 1: i + j mod n
    return _cayley(n, 0, [tuple(range(1, n)) + (0,)])


def _dihedral_table(n: int) -> tuple[tuple[int, ...], ...]:
    # elements r^i s^j with index i + n*j; s r s^-1 = r^-1, so
    # r * r^i s^j = r^(i+1) s^j and s * r^i s^j = r^-i s^(j+1)
    turn = [(i + 1) % n for i in range(n)]
    flip = [-i % n for i in range(n)]
    r = tuple(turn + [n + i for i in turn])
    s = tuple([n + i for i in flip] + flip)
    return _cayley(2 * n, 0, [r, s])


def _symmetric_table(n: int) -> tuple[tuple[int, ...], ...]:
    # elements in itertools.permutations order; p * q is p o q, and S_n is
    # generated by the n-cycle and the transposition (0 1)
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    cycle = tuple(range(1, n)) + (0,)
    swap = (1, 0, *range(2, n)) if n > 1 else cycle
    return _cayley(len(perms), 0, [
        tuple([index[tuple(map(s.__getitem__, q))] for q in perms]) for s in (cycle, swap)])


def _direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    # (x, y) has index x * |b| + y; it is generated by the (g, e_b) and
    # (e_a, h) over generating sets of the factors
    k = b.order
    gen_rows = [tuple(x * k + y for x in a.mul[g] for y in range(k))
                for g in _generators(a.mul, a.identity)]
    gen_rows += [tuple(x * k + y for x in range(a.order) for y in b.mul[h])
                 for h in _generators(b.mul, b.identity)]
    identity = a.identity * k + b.identity
    return FiniteGroup(a.order * k, _cayley(a.order * k, identity, gen_rows), identity)


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


# Largest preset order built: the table of symmetric(7) takes 2.2-2.5 s and
# 211 MB on a 2-core, 8 GB machine (its target-category report 1.9-2.7 s
# and 214 MB), and a table still grows with the square of the order:
# symmetric(8) would hold 1.6 G entries.  The costliest report within the
# bound is cyclic(5040)'s, 2.9-3.6 s and 340 MB peak RSS, most of it its
# table and cyclic classes.
MAX_PRESET_ORDER = 5040

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
            return n, lambda: FiniteGroup(n, _cyclic_table(n), 0)
        if head == "dihedral":
            return 2 * n, lambda: FiniteGroup(2 * n, _dihedral_table(n), 0)
        # 8! already exceeds the bound; n! itself is never needed beyond it
        order = math.factorial(min(n, 8))
        return order, lambda: FiniteGroup(order, _symmetric_table(n), 0)
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
    coset w; weyl_table is the multiplication table of the cosets, with the
    identity coset at index 0.
    """

    representative: CyclicSubgroup
    class_size: int
    normalizer: tuple[int, ...]
    coset_reps: tuple[int, ...]
    weyl_units: tuple[int, ...]
    weyl_table: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return self.representative.n

    @property
    def weyl_order(self) -> int:
        return len(self.coset_reps)

    def group_order(self) -> int:
        # orbit-stabilizer: |G| = class_size * |N_H|
        return self.class_size * len(self.normalizer)


def _cyclic_subgroup_map(mul: Sequence[Sequence[int]], identity: int) -> list[frozenset[int]]:
    """subgroup_of[g] = <g>, with one frozenset object per cyclic subgroup:
    the powers g^k with gcd(k, |g|) = 1 are exactly the generators of <g>."""
    subgroup_of: list[Optional[frozenset[int]]] = [None] * len(mul)
    for g in range(len(mul)):
        if subgroup_of[g] is not None:
            continue
        powers = [identity]
        cur = g
        while cur != identity:
            powers.append(cur)
            cur = mul[cur][g]
        H = frozenset(powers)
        n = len(powers)
        for k in range(n):
            if math.gcd(k, n) == 1:
                subgroup_of[powers[k]] = H
    return subgroup_of


def cyclic_classes(G: FiniteGroup) -> list[CyclicClass]:
    """One CyclicClass per conjugacy class of cyclic subgroups, including the
    trivial subgroup, sorted by (order, representative elements)."""
    mul, inv = G.mul, G.inv
    subgroup_of = _cyclic_subgroup_map(mul, G.identity)
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
        orbit: set[frozenset[int]] = set()
        normalizer: list[int] = []
        for x in range(G.order):
            K = subgroup_of[mul[mul[x][generator]][inv[x]]]
            orbit.add(K)
            if K is H:
                normalizer.append(x)
        seen |= orbit
        # left cosets of the representative inside its normalizer: scanned
        # in index order, the first element of a coset not yet covered is
        # its least element, so the cosets come out sorted by it
        reps = [G.identity]
        covered = set(H)
        for x in normalizer:
            if x not in covered:
                reps.append(x)
                covered.update(mul[x][h] for h in H)
        coset_of = {mul[r][h]: i for i, r in enumerate(reps) for h in H}
        dlog = {G.power(generator, t): t for t in range(n)}
        units = [dlog[G.conjugate(r, generator)] if n > 1 else 1 for r in reps]
        if n == 1 and G.identity == 0:
            # the cosets of the trivial subgroup are the elements in index
            # order, so its Weyl table is the Cayley table, shared
            table = mul
        else:
            table = tuple(
                tuple([coset_of[row[b]] for b in reps]) for row in [mul[a] for a in reps]
            )
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
