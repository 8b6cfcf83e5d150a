"""Z/2-graded finite modules over the target-category ring summands, and
the Hom / Ext computations behind the UCT order bookkeeping.

A module is stored per degree as the cyclic orders of its underlying finite
abelian group plus one integer action matrix per ring generator, entries
read modulo the cyclic orders (row modulus).  Every module ring is presented
the same way, by the regular representation of its crossed ring
Z[theta_n, 1/N] x| W: a generator z when n > 1, then one generator w per
Weyl coset.  A split summand Z[theta_d, 1/N] is the crossed ring with
trivial W and has no w generator.

Hom and Ext are the cohomology of one complex.  Resolve a part P by free
covers, 0 <- P <- R^g0 <- R^g1 <- R^g2, each the irredundant cover of the
kernel before it (after the first step the kernels are lattices, orders 0).
A map R^g -> Q is its tuple y in Q^g of generator images, so Hom_R(-, Q)
turns the resolution into Q^g0 -d0-> Q^g1 -d1-> Q^g2, where d evaluates the
map at the next kernel's generators: sum_{j, beta} c_{j beta} W_Q[beta] y_j
for a kernel vector c in cover coordinates and W_Q[beta] the action on Q of
the basis element beta = theta^i w, as z^i w.  Then

    Hom(P, Q) = ker d0,   Ext^1(P, Q) = ker d1 / im d0,

and Ext^2 is the same construction one step further on.  A kernel ker d is
the congruence lattice, modulo Q's orders, of the y whose map vanishes on a
set that generates the next kernel as an R-module: ker d0 tests the relators
(the generators of the cover R^g1 ->> K, where d0 also evaluates) and ker d1
a Z-basis of the kernel of that cover.  Every such group is killed by
L = lcm(Q's orders), so kernels are Hermite forms and quotients are Smith
forms mod L, never exact ones: one Smith form per Hom group, both source
parts' lattices side by side, and one per Ext block.  A Hom generator y
becomes a matrix through a section of the cover.

The free cover is irredundant: a coordinate vector becomes a cover generator
only when it lies outside the R-span of those chosen before it.  So
(R/q)^k over a ring of Z-rank rho has g0 = k instead of rho * k, and Hom
solves for g0 * s unknowns, s the rank of Q, instead of for every entry of
an s x rho k matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Union

from .crossring import (
    CrossedRing,
    RingSummand,
    TargetCategoryReport,
    _first_difference,
    crossed_relations,
    regular_representation,
)
from .cyclotomic import totient
from .errors import (
    FamilyMismatch,
    FreePartError,
    InputError,
    RingMismatch,
    UnsupportedSize,
)
from .zlinalg import (
    ExactSolver,
    FinAbGroup,
    IntMatrix,
    cokernel,
    congruence_kernel,
    hermite_coordinates,
    hermite_rows,
    lattice_coordinates,
    smith_basis,
)

ModuleRing = Union[RingSummand, CrossedRing]


# ---------------------------------------------------------------------------
# ring presentations for the module solver


@dataclass(frozen=True)
class RingPresentation:
    """The ring acting on modules, Z[theta_n, 1/N] x| W, as the regular
    representation of its crossed ring on the basis theta^i w (w-major): the
    generators z (when n > 1), then w0 .. w(m-1) for a crossed product, with
    their left-regular matrices.  A split summand Z[theta_d, 1/N] is the
    crossed ring with trivial W and has no w generator."""

    ring: CrossedRing
    gen_names: tuple[str, ...]
    gen_mats: tuple[IntMatrix, ...]

    @property
    def rank(self) -> int:
        return self.ring.rank


# Keyed by the module ring passed in, so a hit builds nothing.
@lru_cache(maxsize=None)
def presentation_of(ring: ModuleRing) -> RingPresentation:
    cr = ring if isinstance(ring, CrossedRing) else ring.ring
    crossed = cr is not None
    if not crossed:
        # a split summand Z[theta_d, 1/N] is the crossed ring with trivial W
        d = 1 if ring.kind == "integral_local" else ring.d
        cr = CrossedRing(d, ring.N, ((0,),), (1,))
    rep = regular_representation(cr)
    names, mats = (("z",), (rep.z,)) if cr.n > 1 else ((), ())
    if crossed:
        names += tuple(f"w{v}" for v in range(cr.weyl_order))
        mats += rep.cosets
    return RingPresentation(cr, names, mats)


def _check_same_ring(a: ModuleRing, b: ModuleRing, what: str) -> None:
    if presentation_of(a) != presentation_of(b):
        raise RingMismatch(f"{what} across different ring summands")


def _z_and_cosets(pres: RingPresentation, mats: Sequence[IntMatrix],
                  r: int) -> tuple[IntMatrix, tuple[IntMatrix, ...]]:
    """A part's generator matrices as its z-action (the identity when
    n = 1) and its coset actions (none for a split summand)."""
    if pres.ring.n > 1:
        return mats[0], tuple(mats[1:])
    return IntMatrix.identity(r), tuple(mats)


def _basis_actions(pres: RingPresentation, mats: Sequence[IntMatrix],
                   r: int) -> list[IntMatrix]:
    """The action of each basis element theta^i w as z^i w, w-major."""
    z, cosets = _z_and_cosets(pres, mats, r)
    powers = [IntMatrix.identity(r)]
    for _ in range(totient(pres.ring.n) - 1):
        powers.append(z @ powers[-1])
    return [p @ w for w in cosets for p in powers] if cosets else powers


# ---------------------------------------------------------------------------
# module objects


@dataclass(frozen=True)
class ModulePart:
    """One degree of a module: cyclic orders plus one matrix per generator."""

    orders: tuple[int, ...]
    mats: tuple[IntMatrix, ...]

    @property
    def rank(self) -> int:
        return len(self.orders)


def _zero_part(pres: RingPresentation) -> ModulePart:
    return ModulePart((), tuple(IntMatrix.zero(0, 0) for _ in pres.gen_names))


def _action_matrix(name: str, m) -> IntMatrix:
    """Generator `name`'s action: an IntMatrix or a list of integer rows."""
    if isinstance(m, IntMatrix):
        return m
    if not isinstance(m, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) and all(type(x) is int for x in row) for row in m
    ):
        raise InputError(f"action matrix for {name} must be a list of integer rows")
    try:
        return IntMatrix.from_rows(m)
    except ValueError as exc:
        raise InputError(f"bad matrix for generator {name}: {exc}") from exc


@dataclass(frozen=True)
class AModObject:
    """A Z/2-graded module over one ring summand of the target category."""

    ring: ModuleRing
    parts: tuple[ModulePart, ModulePart]

    @classmethod
    def zero(cls, ring: ModuleRing) -> "AModObject":
        pres = presentation_of(ring)
        return cls(ring, (_zero_part(pres), _zero_part(pres)))

    @classmethod
    def build(cls, ring: ModuleRing,
              degree0: Optional[tuple[Sequence[int], Sequence]] = None,
              degree1: Optional[tuple[Sequence[int], Sequence]] = None) -> "AModObject":
        """Construct from (orders, matrices) pairs; matrices (IntMatrix or
        int rows) are aligned with presentation_of(ring).gen_names."""
        pres = presentation_of(ring)
        parts = []
        for spec in (degree0, degree1):
            if spec is None:
                parts.append(_zero_part(pres))
                continue
            orders, mats = spec
            orders = tuple(orders)
            if not all(type(x) is int for x in orders):
                raise InputError(f"cyclic orders must be integers, got {list(orders)!r}")
            if len(mats) != len(pres.gen_names):
                raise InputError(
                    f"expected {len(pres.gen_names)} action matrices "
                    f"({', '.join(pres.gen_names) or 'none'}), got {len(mats)}"
                )
            mats = tuple(_action_matrix(name, m) for name, m in zip(pres.gen_names, mats))
            r = len(orders)
            for m in mats:
                if m.rows != r or m.cols != r:
                    raise InputError(f"action matrix must be {r}x{r}")
            parts.append(ModulePart(orders, mats))
        return cls(ring, (parts[0], parts[1]))

    def part(self, degree: int) -> ModulePart:
        return self.parts[degree % 2]

    def is_zero(self) -> bool:
        return all(p.rank == 0 for p in self.parts)

    def order(self) -> int:
        out = 1
        for p in self.parts:
            for d in p.orders:
                out *= d if d else 0
        return out


def suspend(M: AModObject) -> AModObject:
    """Swap the two degrees; an involution."""
    return AModObject(M.ring, (M.parts[1], M.parts[0]))


def direct_sum(M: AModObject, N: AModObject) -> AModObject:
    _check_same_ring(M.ring, N.ring, "direct sum")
    parts = []
    for a, b in zip(M.parts, N.parts):
        orders = a.orders + b.orders
        mats = []
        for ma, mb in zip(a.mats, b.mats):
            ra, rb = a.rank, b.rank
            rows = []
            for i in range(ra):
                rows.append(tuple(ma.entries[i]) + (0,) * rb)
            for i in range(rb):
                rows.append((0,) * ra + tuple(mb.entries[i]))
            mats.append(IntMatrix._make(rows))
        parts.append(ModulePart(orders, tuple(mats)))
    return AModObject(M.ring, (parts[0], parts[1]))


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    message: Optional[str] = None


def validate(M: AModObject) -> ValidationReport:
    """Check all structural invariants; report the first violation."""
    pres = presentation_of(M.ring)
    for d, part in enumerate(M.parts):
        tag = f"degree {d}"
        for o in part.orders:
            if o < 0 or o == 1:
                return ValidationReport(False, f"{tag}: cyclic order {o} invalid (need 0 or >= 2)")
            if o and math.gcd(o, pres.ring.N) > 1:
                return ValidationReport(
                    False, f"{tag}: order {o} is not coprime to the inverted N={pres.ring.N}")
        r = part.rank
        if len(part.mats) != len(pres.gen_names):
            return ValidationReport(False, f"{tag}: wrong number of action matrices")
        for name, mat in zip(pres.gen_names, part.mats):
            if mat.rows != r or mat.cols != r:
                return ValidationReport(False, f"{tag}: matrix for {name} is not {r}x{r}")
            # the action must be an endomorphism of the underlying group:
            # A[i][j] * orders[j] = 0 mod orders[i]
            bad = _first_difference(IntMatrix(tuple(
                tuple(x * o for x, o in zip(row, part.orders)) for row in mat.entries), r),
                IntMatrix.zero(r, r), part.orders)
            if bad is not None:
                return ValidationReport(
                    False, f"{tag}: {name} is not a well-defined endomorphism at entry {bad}")
        if r == 0:
            continue
        z, cosets = _z_and_cosets(pres, part.mats, r)
        if cosets:
            bad = _first_difference(cosets[0], IntMatrix.identity(r), part.orders)
            if bad is not None:
                return ValidationReport(
                    False, f"{tag}: identity coset does not act as identity at {bad}"
                )
        for rel in crossed_relations(pres.ring, z, cosets, part.orders):
            if rel.bad is None:
                continue
            if rel.kind == "phi":
                what = f"Phi_{pres.ring.n}(z-action) is nonzero mod orders"
            elif rel.kind == "table":
                what = f"Weyl table relation w{rel.a}*w{rel.b} fails"
            else:
                what = f"twisted commutation w{rel.a} z = z^u w{rel.a} fails"
            return ValidationReport(False, f"{tag}: {what} at {rel.bad}")
    return ValidationReport(True)


def _reject_free(*modules: AModObject) -> None:
    for M in modules:
        for part in M.parts:
            if any(o == 0 for o in part.orders):
                raise FreePartError(
                    "hom/ext support only finite modules; free summands present"
                )


# ---------------------------------------------------------------------------
# Hom and Ext from one free resolution


@dataclass(frozen=True)
class HomMap:
    """A degree-homogeneous module map, one block matrix per source degree."""

    degree: int
    blocks: tuple[Optional[IntMatrix], Optional[IntMatrix]]


@dataclass(frozen=True)
class HomResult:
    group: FinAbGroup
    generators: tuple[HomMap, ...]


@dataclass(frozen=True)
class _CoverKernel:
    """An irredundant free cover R^g ->> X of a module part or lattice X: the
    generators (vectors of X), the cover's columns (the image of basis word
    beta on generator j at index j * rho + beta) and the Hermite rows of the
    kernel K in the cover coordinates Z^(g * rho)."""

    gvecs: tuple[tuple[int, ...], ...]
    cols: tuple[tuple[int, ...], ...]
    kernel: tuple[tuple[int, ...], ...]


def _free_cover_kernel(pres: RingPresentation, orders: Sequence[int],
                       mats: Sequence[IntMatrix],
                       extra_generators: Sequence[Sequence[int]] = ()) -> _CoverKernel:
    r = len(orders)
    word_mats = _basis_actions(pres, mats, r)
    # Irredundant cover: e_j becomes a generator only when it lies outside
    # the Z-span of the order rows o_i e_i and of the R-span of the
    # generators before it (order 0 marks a free lattice); `span` holds the
    # Hermite rows of that Z-span.
    span = [tuple(o if i == j else 0 for i in range(r)) for j, o in enumerate(orders) if o]
    gvecs, cols = [], []
    for e in IntMatrix.identity(r).entries:
        if hermite_coordinates(span, [e])[0] is None:
            gvecs.append(e)
            new = [wm.matvec(e) for wm in word_mats]
            cols += new
            span = hermite_rows(span + new)
    for v in extra_generators:
        gvecs.append(tuple(v))
        cols += [wm.matvec(v) for wm in word_mats]
    kernel = congruence_kernel(cols, orders)
    return _CoverKernel(tuple(gvecs), tuple(cols), tuple(kernel))


@dataclass(frozen=True)
class _Resolution:
    """The first two steps of a free resolution R^g1 -> R^g0 ->> X: the cover
    of X with kernel K, the cover of K, and K's cover generators written in
    the first cover's coordinates (the relators, at which d0 evaluates)."""

    cover: _CoverKernel
    syzygy: _CoverKernel
    relators: tuple[tuple[int, ...], ...]


def _resolve(pres: RingPresentation, cover: _CoverKernel) -> _Resolution:
    # The ring generators' actions on K in its Hermite basis: G acts on each
    # cover slot's copy of R by its left-regular matrix.
    rho, K = pres.rank, cover.kernel
    actions = []
    for G in pres.gen_mats:
        coords = hermite_coordinates(
            K, ([c for k in range(0, len(x), rho) for c in G.matvec(x[k:k + rho])] for x in K))
        if None in coords:
            raise RuntimeError("free-cover kernel is not generator-stable")
        actions.append(IntMatrix._make(zip(*coords)))
    syzygy = _free_cover_kernel(pres, (0,) * len(K), actions)
    relators = (IntMatrix._make(syzygy.gvecs) @ IntMatrix._make(K)).entries
    return _Resolution(cover, syzygy, tuple(relators))


def _resolve_parts(pres: RingPresentation, M: AModObject,
                 extra: Optional[dict[int, Sequence[Sequence[int]]]] = None,
                 ) -> list[Optional[_Resolution]]:
    """The resolution of each part of M (None for a zero part), covered with
    the optional redundant generators per degree."""
    extra = extra or {}
    for d, vecs in extra.items():
        if d not in (0, 1):
            raise ValueError(f"extra generators of degree {d}: modules have degrees 0 and 1")
        rank = M.parts[d].rank
        if any(len(v) != rank or any(type(x) is not int for x in v) for v in vecs):
            raise ValueError(f"extra generators of degree {d} must be int vectors of length {rank}")
    return [_resolve(pres, _free_cover_kernel(pres, P.orders, P.mats, extra.get(d, ())))
            if P.rank or extra.get(d) else None for d, P in enumerate(M.parts)]


def _evaluations(pres: RingPresentation, g: int, vectors: Sequence[Sequence[int]],
                 Q: ModulePart) -> list[list[int]]:
    """The map Q^g -> Q^len(vectors) taking generator images y to the values
    f_y(c) = sum_{j, beta} c[j rho + beta] W_Q[beta] y_j at the given vectors
    c of Z^(g * rho), where f_y: R^g -> Q sends slot j's 1 to y_j, as its
    g * s columns: column (j, t) is the image of y_j = e_t, its entries
    indexed (vector, coordinate of Q)."""
    s, rho = Q.rank, pres.rank
    words = [w.entries for w in _basis_actions(pres, Q.mats, s)]
    cols = [[0] * (len(vectors) * s) for _ in range(g * s)]
    for v, c in enumerate(vectors):
        for x, cx in enumerate(c):
            if cx:
                j, beta = divmod(x, rho)
                block = cols[j * s:(j + 1) * s]
                for i, wrow in enumerate(words[beta], v * s):
                    for col, w in zip(block, wrow):
                        if w:
                            col[i] += cx * w
    return cols


def _presented_hom(pres: RingPresentation, g: int, vectors: Sequence[Sequence[int]],
                   Q: ModulePart, relations: Sequence[Sequence[int]] = ()):
    """Hom_R(X, Q) for X presented by a cover R^g ->> X whose kernel is
    generated, as an R-module, by `vectors`: the lattice of generator images
    y in Z^(g * s) with f_y(c) == 0 mod Q's orders for each such c.  Returns
    its basis and, in that basis, the coordinates of the trivial images (Q's
    order in one coordinate) followed by `relations`."""
    s = Q.rank
    t = g * s
    trivial = [[Q.orders[x % s] if x == y else 0 for x in range(t)] for y in range(t)]
    return lattice_coordinates(_evaluations(pres, g, vectors, Q),
                               list(Q.orders) * len(vectors), trivial + list(relations))


def _section(cover: _CoverKernel, P: ModulePart) -> list[tuple[int, ...]]:
    """A preimage in Z^(g * rho) of each coordinate vector of P: a solution
    of [cover columns | diag(orders)] x = e_t, cut to the cover part."""
    n = len(cover.cols)
    torsion = [tuple(o if k == i else 0 for i in range(P.rank)) for k, o in enumerate(P.orders)]
    solver = ExactSolver(list(cover.cols) + torsion)
    xs = [solver.solve(e) for e in IntMatrix.identity(P.rank).entries]
    if None in xs:
        raise RuntimeError("the free cover misses a coordinate vector")
    return [x[:n] for x in xs]


def hom_group(M: AModObject, N: AModObject, degree: int = 0, *,
              _resolved: Optional[Sequence[Optional[_Resolution]]] = None) -> HomResult:
    """The group of degree-shifting module maps M -> N commuting with all
    ring generators, with one generating homomorphism per invariant factor.
    `_resolved` is a caller's resolution of M's parts (see uct_order)."""
    _check_same_ring(M.ring, N.ring, "hom")
    _reject_free(M, N)
    pres = presentation_of(M.ring)
    degree %= 2
    res = _resolved or _resolve_parts(pres, M)
    # Hom = ker d0 per source part.  The two parts' lattices sit side by
    # side, so one Smith form mod the lcm of both targets' orders gives the
    # whole group, even where the parts' factors form no one chain (C3 and
    # C5 make C15).
    blocks, rel_cols, n = [], [], 0
    for d, P in enumerate(M.parts):
        Q = N.parts[(d + degree) % 2]
        if res[d] is None or Q.rank == 0:
            continue
        g = len(res[d].cover.gvecs)
        t = g * Q.rank
        basis, coords = _presented_hom(pres, g, res[d].relators, Q)
        # mod L a free part would read as Z/L, so finiteness is checked here
        if len(basis) != t:
            raise RuntimeError("Hom of finite modules must be finite")
        blocks.append((d, g, n, basis, P, Q))
        rel_cols += [[0] * n + list(c) for c in coords]
        n += t
    if not n:
        return HomResult(FinAbGroup(), ())
    L = math.lcm(*(o for *_, Q in blocks for o in Q.orders))
    chain = smith_basis(IntMatrix._make(zip(*(c + [0] * (n - len(c)) for c in rel_cols))), n, L)
    BE, gens = {}, []
    for _, col in chain:
        maps = [None, None]
        for d, g, offset, basis, P, Q in blocks:
            # This column's slice c gives the generator images y = c B, zero
            # just when c is (the basis rows B are independent).  The map's
            # columns are f_y at the section's preimages of P's coordinate
            # vectors: c (B E) for E the evaluations there.
            c = col[offset:offset + len(basis)]
            if not any(c):
                continue
            if d not in BE:
                E = IntMatrix._make(_evaluations(pres, g, _section(res[d].cover, P), Q))
                BE[d] = IntMatrix._make(basis) @ E
            f = (IntMatrix._make([c]) @ BE[d]).entries[0]
            maps[d] = IntMatrix._make([u % q for u in f[i::Q.rank]] for i, q in enumerate(Q.orders))
        gens.append(HomMap(degree, (maps[0], maps[1])))
    return HomResult(FinAbGroup(tuple(d for d, _ in chain)), tuple(gens))


def _ext_block(pres: RingPresentation, res: Optional[_Resolution], Q: ModulePart) -> FinAbGroup:
    """Ext^1_R(X, Q) = ker d1 / im d0 for X resolved by `res`: Hom_R(K, Q),
    presented through K's cover R^g1 ->> K and tested on a Z-basis of that
    cover's kernel, modulo the image of d0, which restricts the maps
    R^g0 -> Q to K."""
    if res is None or Q.rank == 0 or not res.relators:
        return FinAbGroup.trivial()
    # column (j, t) of d0: the map sending slot j to Q's coordinate vector e_t
    images = _evaluations(pres, len(res.cover.gvecs), res.relators, Q)
    basis, coords = _presented_hom(pres, len(res.syzygy.gvecs), res.syzygy.kernel, Q, images)
    # the trivial images are among the relations, so lcm(Q.orders) kills
    # the quotient, and the cokernel mod it has no free rank
    return cokernel(coords, len(basis), math.lcm(*Q.orders))


def ext_group(M: AModObject, N: AModObject, degree: int = 0,
              extra_generators: Optional[dict[int, Sequence[Sequence[int]]]] = None, *,
              _resolved: Optional[Sequence[Optional[_Resolution]]] = None) -> FinAbGroup:
    """Ext^1 of degree-shifting module maps, through the free resolution.

    extra_generators optionally adds redundant module generators per source
    degree; the result must not depend on them (well-definedness probe).
    A vector of the wrong length or with a non-int entry raises ValueError.
    `_resolved` is a caller's resolution of M's parts, used instead.
    """
    _check_same_ring(M.ring, N.ring, "ext")
    _reject_free(M, N)
    pres = presentation_of(M.ring)
    res = _resolved or _resolve_parts(pres, M, extra_generators)
    a, b = (_ext_block(pres, res[d], N.parts[(d + degree) % 2]) for d in (0, 1))
    return a.direct_sum(b)


# ---------------------------------------------------------------------------
# families and the UCT order


@dataclass(frozen=True)
class AModFamily:
    """One module per flat ring summand of a target-category report."""

    report: TargetCategoryReport
    modules: tuple[AModObject, ...]

    def __post_init__(self):
        flat = self.report.flat_summands()
        if len(flat) != len(self.modules):
            raise FamilyMismatch(
                f"family needs {len(flat)} modules, got {len(self.modules)}"
            )
        for i, (summand, module) in enumerate(zip(flat, self.modules)):
            if presentation_of(module.ring) != presentation_of(summand):
                raise FamilyMismatch(f"module {i} lives over the wrong summand")

    @classmethod
    def zero(cls, report: TargetCategoryReport) -> "AModFamily":
        return cls(report, tuple(AModObject.zero(s) for s in report.flat_summands()))

    @classmethod
    def from_modules(cls, report: TargetCategoryReport,
                     assignments: dict[int, AModObject]) -> "AModFamily":
        flat = report.flat_summands()
        mods = []
        for i, s in enumerate(flat):
            if i in assignments:
                mods.append(assignments[i])
            else:
                mods.append(AModObject.zero(s))
        unknown = set(assignments) - set(range(len(flat)))
        if unknown:
            raise FamilyMismatch(f"summand indices out of range: {sorted(unknown)}")
        return cls(report, tuple(mods))

    def validate(self) -> ValidationReport:
        for i, m in enumerate(self.modules):
            rep = validate(m)
            if not rep.ok:
                return ValidationReport(False, f"module {i}: {rep.message}")
        return ValidationReport(True)


@dataclass(frozen=True)
class DegreeOrders:
    hom_group: FinAbGroup
    ext_group: FinAbGroup

    @property
    def kk_order(self) -> int:
        return self.hom_group.order() * self.ext_group.order()


@dataclass(frozen=True)
class UCTOrderResult:
    """Per degree: the Hom and Ext parts of the short exact sequence and
    the resulting order of the middle group."""

    degrees: tuple[DegreeOrders, DegreeOrders]

    def kk_order(self, degree: int) -> int:
        return self.degrees[degree % 2].kk_order


# Largest r_A * r_B * rho that uct_order takes on one summand, where r_A and
# r_B are the Z-ranks of the two modules (both degrees) and rho is the
# ring's.  A cover needs at most r_A generators and its kernel at most
# r_A * rho, so this bounds the width of every Hom and Ext lattice, and
# memory grows with the square of that width.  At the bound, as `workbench
# uct` with interpreter start over four runs on a 2-core, 8 GB machine whose
# speed swings, (Z/3)^40 over Z[1/2] took 3.5-4.1 s and 232 MB peak RSS,
# and the trivial (Z/7)^16 over the unsplit Z[1/6][S3] 7.5-10.9 s and 61 MB.
MAX_LATTICE_WIDTH = 1600


def uct_order(A: AModFamily, B: AModFamily) -> UCTOrderResult:
    """Order bookkeeping of Ext(F(A), F(SB)) -> KK -> Hom(F(A), F(B)):
    the middle group's order is the product of the two ends, per degree,
    each end summed over the summands where both modules are nonzero.
    Every summand is checked first: UnsupportedSize above MAX_LATTICE_WIDTH
    comes before any elimination."""
    if A.report != B.report:
        raise FamilyMismatch("families live over different target categories")
    # The checks come first, as hom_group would make them.
    for i, (MA, MB) in enumerate(zip(A.modules, B.modules)):
        _check_same_ring(MA.ring, MB.ring, "hom")
        _reject_free(MA, MB)
        width = (sum(P.rank for P in MA.parts) * sum(Q.rank for Q in MB.parts)
                 * presentation_of(MA.ring).rank)
        if width > MAX_LATTICE_WIDTH:
            raise UnsupportedSize(
                f"summand {i}: module ranks times ring rank is {width},"
                f" above {MAX_LATTICE_WIDTH}, the largest supported")
    # Hom and Ext^1 with a zero module are 0.  One resolution of each
    # remaining source module serves both degrees of Hom and of Ext.
    pairs = [(MA, MB, _resolve_parts(presentation_of(MA.ring), MA))
             for MA, MB in zip(A.modules, B.modules) if not (MA.is_zero() or MB.is_zero())]
    out = []
    for d in (0, 1):
        homs = [hom_group(MA, MB, d, _resolved=res).group for MA, MB, res in pairs]
        exts = [ext_group(MA, suspend(MB), d, _resolved=res) for MA, MB, res in pairs]
        out.append(DegreeOrders(FinAbGroup.trivial().direct_sum(*homs),
                                FinAbGroup.trivial().direct_sum(*exts)))
    return UCTOrderResult((out[0], out[1]))


# ---------------------------------------------------------------------------
# JSON module files


def _reject_unknown_keys(what: str, data: dict, allowed: Sequence[str]) -> None:
    for key in data:
        if key not in allowed:
            raise InputError(f"{what} has unknown key {key!r};"
                             f" allowed keys: {', '.join(allowed)}")


def _part_from_json(ring: ModuleRing, data: dict) -> tuple[list, list]:
    """A degree object's orders and matrices in generator order, for build."""
    pres = presentation_of(ring)
    if not isinstance(data, dict):
        raise InputError("each degree must be an object with 'orders' and action matrices")
    has_z = pres.ring.n > 1
    # a crossed product lists one coset matrix per remaining generator
    m = len(pres.gen_names) - int(has_z)
    allowed = ["orders"] + (["z"] if has_z else []) + (["w"] if m else [])
    _reject_unknown_keys("degree object", data, allowed)
    orders = data.get("orders", [])
    if not isinstance(orders, list):
        raise InputError("'orders' must be a list of integers")
    mats = []
    if has_z:
        if data.get("z") is None:
            raise InputError("missing 'z' action matrix")
        mats.append(data["z"])
    if m:
        wlist = data.get("w")
        if wlist is None:
            raise InputError("missing 'w' action matrices")
        if not isinstance(wlist, list) or len(wlist) != m:
            raise InputError(f"'w' must list exactly {m} matrices, one per Weyl coset")
        mats += wlist
    return orders, mats


def family_from_json(report: TargetCategoryReport, data) -> AModFamily:
    """Parse {"modules": [{"summand": i, "degree0": {...}, "degree1": {...}}]}
    into a family over the report; unlisted summands carry zero modules."""
    if not isinstance(data, dict):
        raise InputError("module file must be an object with a 'modules' list")
    _reject_unknown_keys("module file", data, ("modules",))
    entries = data.get("modules")
    if not isinstance(entries, list):
        raise InputError("'modules' must be a list of module entries")
    flat = report.flat_summands()
    assignments: dict[int, AModObject] = {}
    for pos, e in enumerate(entries):
        if not isinstance(e, dict) or "summand" not in e:
            raise InputError("each module entry needs a 'summand' index")
        _reject_unknown_keys("module entry", e, ("summand", "degree0", "degree1"))
        idx = e["summand"]
        if type(idx) is not int:
            raise InputError(f"'summand' must be an integer index, got {idx!r}")
        if not 0 <= idx < len(flat):
            raise FamilyMismatch(
                f"summand index {idx!r} out of range (0..{len(flat) - 1})"
            )
        ring = flat[idx]
        parts = []
        for d in (0, 1):
            # an absent, null or empty degree is zero; any other non-object
            # is rejected by _part_from_json
            spec = e.get(f"degree{d}")
            try:
                built = AModObject.build(ring, None if spec is None or spec == {}
                                         else _part_from_json(ring, spec))
            except InputError as exc:
                raise InputError(f"module entry {pos} (summand {idx}) degree{d}: {exc}") from exc
            parts.append(built.parts[0])
        M = AModObject(ring, (parts[0], parts[1]))
        if idx in assignments:
            raise InputError(f"summand {idx} listed twice")
        assignments[idx] = M
    return AModFamily.from_modules(report, assignments)
