"""Shared test utilities: brute-force oracles and random valid modules.

One oracle per kernel, none of which runs the library code it checks
(tests/test_api.py holds the reference solvers to that):

- zlinalg `_echelon`, `_smith`, `congruence_kernel`, `hermite_coordinates`,
  `ExactSolver`, `FinAbGroup.from_orders`, `IntMatrix.__matmul__`:
  `reference_hnf`, `reference_snf` (the only eliminations of the reference
  solvers below), `reference_congruence_kernel`,
  `reference_hermite_coordinates`, `ReferenceSolver`, `reference_from_orders`,
  `triple_loop_matmul`, in test_zlinalg; `smith_basis`:
  `reference_smith_basis_mod`, in test_amod.
- amod `hom_group`, `ext_group`, `uct_order`, `presentation_of`: the
  `reference_*` of each, in test_amod; |Hom| also by enumeration
  (`brute_hom_count`, with test_acceptance) and by an F_p rank
  (`fp_hom_order`).  `ext_second_step` is a probe of Ext^2 through the
  library's own resolution, not an oracle.
- cyclotomic products and reductions: the double loops, long division and
  `product_formula_psi`, in test_cyclotomic; green `frobenius_check`:
  `reference_frobenius_check`, in test_green.
- crossring `crossed_relations`, `CrossedElt.__mul__`, `split_ring`, the
  splitting idempotents: `reference_crossed_relations`, `termwise_crossed_mul`,
  `reference_split_ring`, `root_sum_idempotent_coefficients`, in test_crossring.
- groups preset rules, inverses, `cyclic_classes`: the entrywise
  `reference_*_table` and `reference_direct_product`, `brute_inverses`,
  `reference_cyclic_classes`, in test_groups.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from uctbench import green
from uctbench.amod import (
    AModObject,
    DegreeOrders,
    ModulePart,
    UCTOrderResult,
    _resolve,
    _resolve_parts,
    ext_group,
    presentation_of,
    suspend,
)
from uctbench.crossring import (
    CrossedElt,
    CrossedRing,
    Relation,
    RingSummand,
    regular_representation,
)
from uctbench.cyclotomic import (
    CycEltN,
    CycPoly,
    _tables,
    cyclotomic,
    divisors,
    galois,
    prime_factors,
    totient,
)
from uctbench.groups import CyclicClass, CyclicSubgroup, FiniteGroup
from uctbench.zlinalg import FinAbGroup, IntMatrix


def det_unimodular(U: IntMatrix) -> int:
    """Determinant of a square integer matrix via fraction-free elimination;
    the HNF/SNF tests use it to check that transforms are unimodular."""
    M = U.tolists()
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("determinant of non-square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not M[k][k]:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1] if n else 1


def _torsion_elements(orders, a):
    """All x in prod Z/q_i with a * x = 0."""
    choices = []
    for q in orders:
        step = q // math.gcd(q, a)
        choices.append(range(0, q, step))
    return [tuple(v) for v in itertools.product(*choices)]


def _apply(mat, vec, orders):
    return tuple(
        sum(mat.entries[i][j] * vec[j] for j in range(len(vec))) % orders[i]
        for i in range(len(orders))
    )


def brute_hom_count_block(P: ModulePart, Q: ModulePart) -> int:
    """Count group homs P -> Q commuting with all generator actions."""
    r, s = P.rank, Q.rank
    if r == 0 or s == 0:
        return 1
    options = [_torsion_elements(Q.orders, P.orders[j]) for j in range(r)]
    count = 0
    for images in itertools.product(*options):
        ok = True
        for Pg, Qg in zip(P.mats, Q.mats):
            for j in range(r):
                # f(Pg e_j) vs Qg f(e_j)
                lhs = tuple(
                    sum(Pg.entries[v][j] * images[v][i] for v in range(r)) % Q.orders[i]
                    for i in range(s)
                )
                rhs = _apply(Qg, images[j], Q.orders)
                if lhs != rhs:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def brute_hom_count(M: AModObject, N: AModObject, degree: int) -> int:
    total = 1
    for d in (0, 1):
        total *= brute_hom_count_block(M.parts[d], N.parts[(d + degree) % 2])
    return total


def _inverse_mod_prime(mat, q):
    r = len(mat)
    aug = [[mat[i][j] % q for j in range(r)] + [1 if k == i else 0 for k in range(r)]
           for i, k in zip(range(r), range(r))]
    for col in range(r):
        piv = next((i for i in range(col, r) if aug[i][col] % q), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, q)
        aug[col] = [(x * inv) % q for x in aug[col]]
        for i in range(r):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [(a - f * b) % q for a, b in zip(aug[i], aug[col])]
    return [row[r:] for row in aug]


def rank_mod_prime(rows, q):
    """Rank of an integer matrix over the field Z/q, q prime."""
    rows = [[x % q for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, q)
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] * inv % q
            if f:
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def fp_hom_order(M: AModObject, N: AModObject, degree: int, p: int) -> int:
    """|Hom| of degree-shifting module maps M -> N whose modules have every
    order the prime p, as p^(unknowns - rank): the unknowns are the entries
    of an s x r matrix X per source part, the equations X A_g - B_g X = 0
    for each ring generator g, and the rank is taken over F_p by
    `rank_mod_prime`, so no elimination is shared with zlinalg."""
    unknowns = rank = 0
    for d, P in enumerate(M.parts):
        Q = N.parts[(d + degree) % 2]
        if {*P.orders, *Q.orders} - {p}:
            raise ValueError(f"every order must be {p}")
        r, s = P.rank, Q.rank
        equations = []
        for A, B in zip(P.mats, Q.mats):
            for i, k in itertools.product(range(s), range(r)):
                # (X A - B X)[i][k], with X[v][j] at v * r + j
                row = [0] * (s * r)
                for j in range(r):
                    row[i * r + j] += A[j, k]
                for v in range(s):
                    row[v * r + k] -= B[i, v]
                equations.append(row)
        unknowns += r * s
        rank += rank_mod_prime(equations, p)
    return p ** (unknowns - rank)


def random_invertible(rng, r, q):
    while True:
        mat = [[rng.randrange(q) for _ in range(r)] for _ in range(r)]
        inv = _inverse_mod_prime(mat, q)
        if inv is not None:
            return mat, inv


def conjugated_part(rng, part: ModulePart, q: int) -> ModulePart:
    """Change of basis of a q-uniform part by a random invertible matrix."""
    r = part.rank
    if r == 0:
        return part
    P, Pinv = random_invertible(rng, r, q)
    mats = []
    for mat in part.mats:
        raw = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(r):
                raw[i][j] = sum(
                    P[i][a] * mat.entries[a][b] * Pinv[b][j]
                    for a in range(r) for b in range(r)
                ) % q
        mats.append(IntMatrix.from_rows(raw))
    return ModulePart(part.orders, tuple(mats))


def signed_permuted_part(rng, part: ModulePart) -> ModulePart:
    """Change of basis of a part by a random signed permutation, which keeps
    the entries small."""
    r = part.rank
    perm = list(range(r))
    rng.shuffle(perm)
    sign = [rng.choice((1, -1)) for _ in range(r)]
    mats = []
    for mat in part.mats:
        raw = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(r):
                raw[perm[i]][perm[j]] = sign[i] * sign[j] * mat.entries[i][j]
        mats.append(IntMatrix.from_rows(raw))
    return ModulePart(tuple(part.orders[perm.index(i)] for i in range(r)), tuple(mats))


def regular_module_part(summand: RingSummand, q: int) -> ModulePart:
    """The part R/qR with generators acting by the regular representation."""
    pres = presentation_of(summand)
    rank = pres.rank
    orders = (q,) * rank
    return ModulePart(orders, pres.gen_mats)


def regular_power_part(summand: RingSummand, q: int, k: int) -> ModulePart:
    """(R/qR)^k, k copies of the regular part on the diagonal."""
    part = regular_module_part(summand, q)
    out = part
    for _ in range(k - 1):
        out = _concat_parts(out, part, len(part.mats))
    return out


def coprime_primes(N, bound=50):
    return [p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
            if N % p and p <= bound]


def _poly_roots_mod(coeffs, q):
    out = []
    for c in range(q):
        acc = 0
        for a in reversed(coeffs):
            acc = (acc * c + a) % q
        if acc == 0:
            out.append(c)
    return out


def candidate_parts(summand: RingSummand, max_order=81):
    """Valid q-uniform module parts over the summand, with their group order."""
    pres = presentation_of(summand)
    rank = pres.rank
    pool = []
    for q in coprime_primes(summand.N):
        if q ** rank <= max_order:
            pool.append((q, regular_module_part(summand, q)))
        if summand.kind == "integral_local":
            e = 2
            while q ** e <= max_order:
                pool.append((q, ModulePart((q ** e,), ())))
                e += 1
        if summand.kind == "cyclotomic_local" and q <= max_order:
            roots = _poly_roots_mod(cyclotomic(summand.d).coeffs, q)
            for c in roots:
                pool.append((q, ModulePart((q,), (IntMatrix.from_rows([[c]]),))))
            if len(roots) >= 2 and q * q <= max_order:
                z = IntMatrix.from_rows([[roots[0], 0], [0, roots[1]]])
                pool.append((q, ModulePart((q, q), (z,))))
        if (summand.kind == "unsplit_crossed" and summand.ring.n >= 2
                and summand.ring.weyl_order == 2 and q * q <= max_order):
            n = summand.ring.n
            u = summand.ring.weyl_units[1]
            for c in _poly_roots_mod(cyclotomic(n).coeffs, q):
                z = IntMatrix.from_rows([[c, 0], [0, pow(c, u, q)]])
                w0 = IntMatrix.identity(2)
                w1 = IntMatrix.from_rows([[0, 1], [1, 0]])
                pool.append((q, ModulePart((q, q), (z, w0, w1))))
    return pool


def _concat_parts(a: ModulePart, b: ModulePart, gen_count: int) -> ModulePart:
    orders = a.orders + b.orders
    mats = []
    for g in range(gen_count):
        ma, mb = a.mats[g], b.mats[g]
        ra, rb = a.rank, b.rank
        rows = [tuple(ma.entries[i]) + (0,) * rb for i in range(ra)]
        rows += [(0,) * ra + tuple(mb.entries[i]) for i in range(rb)]
        mats.append(IntMatrix.from_rows(rows))
    return ModulePart(orders, tuple(mats))


def random_module(rng, summand: RingSummand, max_order=81) -> AModObject:
    """A random valid module over the summand: direct sums of conjugated
    q-uniform parts for primes q coprime to N, split across the degrees."""
    pres = presentation_of(summand)
    gen_count = len(pres.gen_names)
    pool = candidate_parts(summand, max_order)
    empty = ModulePart((), tuple(IntMatrix.zero(0, 0) for _ in pres.gen_names))
    parts = [empty, empty]
    budget = max_order
    for _ in range(rng.randint(1, 2)):
        usable = [(q, p) for q, p in pool
                  if math.prod(p.orders) <= budget]
        if not usable:
            break
        q, part = usable[rng.randrange(len(usable))]
        if all(o == q for o in part.orders):
            part = conjugated_part(rng, part, q)
        d = rng.randint(0, 1)
        parts[d] = _concat_parts(parts[d], part, gen_count)
        budget //= math.prod(part.orders)
    return AModObject(summand, (parts[0], parts[1]))


def root_sum_idempotent_coefficients(ring: CrossedRing) -> list[list[int]]:
    """For an abelian Weyl group: one list per Galois orbit of its characters
    (orbits ordered by character order, then least member), holding for each
    coset w the sum of chi(w^-1) over the orbit, summed as roots of unity and
    reduced mod Phi_e.  |W| times the orbit's idempotent has these
    coefficients."""
    table = tuple(ring.weyl_table)  # rows read once, indexed as tuples
    m = len(table)
    chars, e = bfs_abelian_characters(table)
    units = [u for u in range(1, e + 1) if math.gcd(u, e) == 1]
    orbits, seen = [], set()
    for chi in sorted(chars):
        if chi in seen:
            continue
        orbit = sorted({tuple(u * v % e for v in chi) for u in units})
        seen.update(orbit)
        order = e // math.gcd(e, *chi)
        orbits.append((order, orbit[0], orbit))
    out = []
    for _, _, orbit in sorted(orbits):
        coeffs = []
        for w in range(m):
            w_inv = next(v for v in range(m) if table[w][v] == 0)
            acc = [0] * e
            for chi in orbit:
                acc[chi[w_inv]] += 1
            reduced = long_division_mod_phi(e, acc)
            if any(reduced[1:]):
                raise AssertionError("an orbit sum of roots of unity is not rational")
            coeffs.append(reduced[0])
        out.append(coeffs)
    return out


# ---------------------------------------------------------------------------
# reference versions of the cyclotomic kernels: dense double loops and long
# division by Phi_n, independent of the sparse power table


def long_division_mod_phi(n: int, vec: Sequence[int]) -> list[int]:
    """vec(z) mod Phi_n by schoolbook long division (Phi_n is monic),
    padded to phi(n) slots."""
    phi = cyclotomic(n).coeffs
    deg = len(phi) - 1
    rem = list(vec) + [0] * max(0, deg - len(vec))
    for top in range(len(rem) - 1, deg - 1, -1):
        c = rem[top]
        if c:
            for j, p in enumerate(phi):
                rem[top - deg + j] -= c * p
    return rem[:deg]


def spread_then_reduce(n: int, vec: Sequence[int], k: int) -> list[int]:
    """sum_i vec[i] theta_n^(i*k): spread into Z[z]/(z^n - 1), slot i to
    slot i*k mod n, then reduce by long division."""
    out = [0] * n
    for i, c in enumerate(vec):
        out[(i * k) % n] += c
    return long_division_mod_phi(n, out)


def double_loop_cyclic(n: int, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a * b in Z[z]/(z^n - 1), one product per pair of slots."""
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[(i + j) % n] += x * y
    return out


def double_loop_linear(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a * b in Z[z], len(a) + len(b) - 1 slots, one product per pair of
    slots."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def double_loop_mod_phi(n: int, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a * b in Z[z]/(Phi_n): the linear product, then long division."""
    return long_division_mod_phi(n, double_loop_linear(a, b))


def product_formula_psi(n: int, k: int) -> CycPoly:
    """psi_{n,k} = (z/n) * dPhi_k/dz * prod_{k' | n, k' != k} Phi_{k'}
    mod z^n - 1, over Z[1/n]."""
    prod = cyclotomic(k).derivative()
    for kp in divisors(n):
        if kp != k:
            prod = prod * cyclotomic(kp)
    out = [0] * n
    for i, c in enumerate(prod.coeffs):
        out[(i + 1) % n] += c  # the leading factor z
    return CycPoly(n, n, tuple(out), n)


# ---------------------------------------------------------------------------
# the Frobenius check with every product taken in full: the oracle for the
# monomial shifts of green.frobenius_check


def reference_frobenius_check(n: int, k: int, N=None) -> green.FrobeniusReport:
    """green.frobenius_check with both sides of every pair taken as full
    CycPoly products: ind(res(z^b) * z^a) against z^b * ind(z^a), b outer.
    It calls `green.restrict` and `green.induce` through the module, so a
    test that patches either one patches both checks."""
    RepElt = green.RepElt
    if N is None:
        N = n
    ind_cache = {}

    def cached_induce(u):
        key = (u.value.num, u.value.den)
        got = ind_cache.get(key)
        if got is None:
            got = green.induce(u, n)
            ind_cache[key] = got
        return got

    monos_k = [RepElt.monomial(k, N, a) for a in range(k)]
    ind_monos = [cached_induce(m) for m in monos_k]
    checked = 0
    for b in range(n):
        y = RepElt.monomial(n, N, b)
        res_y = green.restrict(y, k)
        for a in range(k):
            lhs = cached_induce(res_y * monos_k[a])
            rhs = y * ind_monos[a]
            checked += 1
            if lhs != rhs:
                return green.FrobeniusReport(n, k, False, checked, (a, b))
    return green.FrobeniusReport(n, k, True, checked)


# ---------------------------------------------------------------------------
# reference versions of the rings path: each does the dense or exhaustive
# work that the library's fast path avoids


def triple_loop_matmul(A: IntMatrix, B: IntMatrix) -> tuple[tuple[int, int], list[list[int]]]:
    """The shape (A.rows, B.cols) and entries of A @ B, one term at a time."""
    rows, inner, cols = A.rows, A.cols, B.cols
    if inner != B.rows:
        raise ValueError("shape mismatch")
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            for k in range(inner):
                out[i][j] += A.entries[i][k] * B.entries[k][j]
    return (rows, cols), out


def _walked_difference(A: IntMatrix, B: IntMatrix,
                       orders: Sequence[int]) -> Optional[tuple[int, int]]:
    """First (i, j) at which A and B differ modulo orders[i] (0 means
    exactly), reading every entry of unequal matrices."""
    if A == B:
        return None
    for i, (ra, rb, q) in enumerate(zip(A.entries, B.entries, orders)):
        for j, (x, y) in enumerate(zip(ra, rb)):
            if (x - y) % q if q else x != y:
                return i, j
    return None


def reference_crossed_relations(ring: CrossedRing, z: IntMatrix, cosets: Sequence[IntMatrix],
                                orders: Sequence[int]) -> list[Relation]:
    """crossed_relations by one product w_a w_b per pair of cosets, each
    compared with w_{ab} on its own."""
    phi = cyclotomic(ring.n).coeffs
    powers = [IntMatrix.identity(z.rows)]
    for _ in range(max([len(phi) - 1, *ring.weyl_units])):
        powers.append(z @ powers[-1])
    value = IntMatrix.from_rows(
        [sum(c * x for c, x in zip(phi, col)) for col in zip(*rows)]
        for rows in zip(*(p.entries for p in powers)))
    rels = [Relation("phi", 0, 0,
                     _walked_difference(value, IntMatrix.zero(z.rows, z.rows), orders))]
    for a, (wa, row) in enumerate(zip(cosets, ring.weyl_table)):
        for b, wb in enumerate(cosets):
            rels.append(Relation("table", a, b,
                                 _walked_difference(wa @ wb, cosets[row[b]], orders)))
        rels.append(Relation("twist", a, 0, _walked_difference(
            wa @ z, powers[ring.weyl_units[a]] @ wa, orders)))
    return rels


def termwise_crossed_mul(x: CrossedElt, y: CrossedElt) -> CrossedElt:
    """x * y as sum over (w, v) of a_w galois(b_v, u_w) in coset wv, one
    CycEltN product and sum per pair of terms."""
    ring = x.ring
    out = [CycEltN.zero(ring.n, ring.N)] * ring.weyl_order
    for w, aw in enumerate(x.coeffs):
        if aw.is_zero():
            continue
        u = ring.weyl_units[w]
        for v, bv in enumerate(y.coeffs):
            if bv.is_zero():
                continue
            t = ring.weyl_table[w][v]
            out[t] = out[t] + aw * galois(bv, u)
    return CrossedElt(ring, tuple(out))


def brute_inverses(G: FiniteGroup) -> tuple:
    """The two-sided inverse of every element, by search over the table."""
    e = G.identity
    return tuple(next(b for b in range(G.order) if G.mul[a][b] == e and G.mul[b][a] == e)
                 for a in range(G.order))


def reference_cyclic_table(n: int) -> list[list[int]]:
    """Z/n, one sum per entry."""
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def reference_dihedral_table(n: int) -> list[list[int]]:
    """The dihedral group of order 2n, one product per entry: r^i s^j has
    index i + n*j, and s r s^-1 = r^-1."""
    def mul(a, b):
        i1, j1 = a % n, a // n
        i2, j2 = b % n, b // n
        i = (i1 + i2) % n if j1 == 0 else (i1 - i2) % n
        return i + n * ((j1 + j2) % 2)

    return [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]


def reference_symmetric_table(n: int) -> list[list[int]]:
    """S_n in itertools.permutations order, one composition per entry."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(map(p.__getitem__, q))] for q in perms] for p in perms]


def reference_direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """a x b built element by element: (xa, xb) has index xa * |b| + xb."""
    k = b.order
    order = a.order * k
    mul = []
    for x in range(order):
        xa, xb = divmod(x, k)
        row = []
        for y in range(order):
            ya, yb = divmod(y, k)
            row.append(a.mul[xa][ya] * k + b.mul[xb][yb])
        mul.append(tuple(row))
    return FiniteGroup(order, tuple(mul), a.identity * k + b.identity, inv=tuple(
        a.inv[x // k] * k + b.inv[x % k] for x in range(order)))


def _generated_subgroup(G: FiniteGroup, g: int) -> frozenset:
    elems = {G.identity}
    cur = g
    while cur != G.identity:
        elems.add(cur)
        cur = G.mul[cur][g]
    return frozenset(elems)


def brute_cyclic_subgroups(G: FiniteGroup) -> list:
    """Every cyclic subgroup, one generated subgroup per element, sorted by
    (order, elements)."""
    return sorted({_generated_subgroup(G, g) for g in range(G.order)},
                  key=lambda s: (len(s), sorted(s)))


def reference_cyclic_classes(G: FiniteGroup) -> list:
    """cyclic_classes by conjugating every element of every representative:
    |G| * |H| conjugations per class."""
    subs = brute_cyclic_subgroups(G)
    seen = set()
    classes = []
    for H in subs:
        if H in seen:
            continue
        orbit = set()
        normalizer = []
        for x in range(G.order):
            K = frozenset(G.conjugate(x, h) for h in H)
            orbit.add(K)
            if K == H:
                normalizer.append(x)
        seen |= orbit
        n = len(H)
        generator = min(h for h in H if G.element_order(h) == n)
        coset_of = {}
        cosets = []
        for x in normalizer:
            if x in coset_of:
                continue
            coset = tuple(sorted(G.mul[x][h] for h in H))
            for y in coset:
                coset_of[y] = len(cosets)
            cosets.append(coset)
        id_idx = coset_of[G.identity]
        order_keys = sorted(range(len(cosets)), key=lambda i: (i != id_idx, cosets[i][0]))
        relabel = {old: new for new, old in enumerate(order_keys)}
        coset_of = {x: relabel[i] for x, i in coset_of.items()}
        reps = [0] * len(cosets)
        for old, new in relabel.items():
            reps[new] = G.identity if new == 0 else cosets[old][0]
        dlog = {G.power(generator, t): t for t in range(n)}
        units = [1 if n == 1 else dlog[G.conjugate(r, generator)] for r in reps]
        table = tuple(tuple(coset_of[G.mul[a][b]] for b in reps) for a in reps)
        classes.append(CyclicClass(
            representative=CyclicSubgroup(generator, n, tuple(sorted(H))),
            class_size=len(orbit),
            normalizer=tuple(normalizer),
            coset_reps=tuple(reps),
            weyl_units=tuple(units),
            weyl_table=table,
        ))
    classes.sort(key=lambda c: (c.n, c.representative.elements))
    return classes


def bfs_abelian_characters(table) -> tuple:
    """(characters as exponent vectors, exponent e) of an abelian group
    table: one walk over the group per assignment of values to the
    generators, kept when it is consistent."""
    m = len(table)
    orders = []
    for x in range(m):
        cur, k = x, 1
        while cur != 0:
            cur = table[cur][x]
            k += 1
        orders.append(k)
    exponent = math.lcm(*orders)
    gens = []
    generated = {0}
    while len(generated) < m:
        g = max((x for x in range(m) if x not in generated), key=lambda x: (orders[x], -x))
        gens.append(g)
        frontier = list(generated)
        while frontier:
            x = frontier.pop()
            for h in gens:
                y = table[x][h]
                if y not in generated:
                    generated.add(y)
                    frontier.append(y)
    chars = []
    for assign in itertools.product(*[range(orders[g]) for g in gens]):
        vals = {0: 0}
        frontier = [0]
        ok = True
        while frontier and ok:
            x = frontier.pop()
            for l, g in enumerate(gens):
                y = table[x][g]
                v = (vals[x] + (exponent // orders[g]) * assign[l]) % exponent
                if y in vals:
                    if vals[y] != v:
                        ok = False
                        break
                else:
                    vals[y] = v
                    frontier.append(y)
        if ok and len(vals) == m:
            chars.append(tuple(vals[x] for x in range(m)))
    return chars, exponent


def reference_split_ring(ring: CrossedRing, characters=bfs_abelian_characters) -> list:
    """split_ring by the character-orbit rule the count replaced: where W is
    abelian (every pair of cosets commutes), acts trivially, has its primes
    inverted and, at n > 1, exponent at most 2, each Galois orbit of W's
    characters gives one summand, Z[theta_d, 1/N] at n = 1 for an orbit of
    order d and Z[theta_n, 1/N] otherwise; orbits are taken by order, then
    least member, and neighbours of one ring merge into one multiplicity.
    characters(table) gives (characters as exponent vectors, exponent)."""
    n, N, table = ring.n, ring.N, tuple(ring.weyl_table)
    m = len(table)
    if not (all(table[a][b] == table[b][a] for a in range(m) for b in range(m))
            and (n == 1 or set(ring.weyl_units) == {1})
            and all(N % p == 0 for p in prime_factors(m))
            and (n == 1 or all(table[w][w] == 0 for w in range(m)))):
        return [RingSummand("unsplit_crossed", n, N, ring=ring,
                            provenance="no splitting rule applies")]
    chars, e = characters(table)[:2]
    units = [u for u in range(1, e + 1) if math.gcd(u, e) == 1]
    orbits, seen = [], set()
    for chi in sorted(chars):
        if chi not in seen:
            seen.update(tuple(u * v % e for v in chi) for u in units)
            orbits.append((e // math.gcd(e, *chi), chi))
    out = []
    for d, _ in sorted(orbits):
        k = d if n == 1 else n
        kind = "integral_local" if totient(k) == 1 else "cyclotomic_local"
        if out and (out[-1].kind, out[-1].d) == (kind, k):
            out[-1] = RingSummand(kind, k, N, out[-1].multiplicity + 1, out[-1].provenance)
        else:
            out.append(RingSummand(kind, k, N, provenance=f"character orbit of order {d}"))
    return out


def reference_from_orders(orders) -> FinAbGroup:
    """Invariant factors of a list of cyclic orders (0 means Z), by passing
    every order down the whole gcd/lcm chain, with no shortcut."""
    rank, chain = 0, []
    for d in orders:
        d = abs(int(d))
        if d == 0:
            rank += 1
            continue
        for i in range(len(chain) - 1, -1, -1):
            chain[i], d = math.lcm(chain[i], d), math.gcd(chain[i], d)
        if d > 1:
            chain.insert(0, d)
    return FinAbGroup(tuple(chain), rank)


# ---------------------------------------------------------------------------
# Hermite and Smith forms that repeat each operation on separate transform
# matrices: oracles for the library's one elimination per normal form, whose
# transforms are identity blocks carried along, and the only eliminations
# the reference solvers below run.


def _ref_row_sub(M, i, k, q):
    M[i] = [x - q * y for x, y in zip(M[i], M[k])]


def _ref_col_sub(M, j, k, q):
    for row in M:
        row[j] -= q * row[k]


def _ref_col_swap(M, j, k):
    for row in M:
        row[j], row[k] = row[k], row[j]


def reference_hnf(A):
    """Row Hermite form (H, U), U A = H, with every row operation repeated
    on a separate transform matrix U: the two-matrix elimination that the
    library's one elimination over [A | I] must match entry for entry."""
    M = [list(row) for row in (A.entries if isinstance(A, IntMatrix) else A)]
    r = len(M)
    c = len(M[0]) if M else 0
    U = [[int(i == j) for j in range(r)] for i in range(r)]
    row = 0
    for col in range(c):
        if row == r:
            break
        while True:
            nz = [i for i in range(row, r) if M[i][col]]
            if not nz:
                break
            p = min(nz, key=lambda i: (abs(M[i][col]), i))
            if p != row:
                M[row], M[p] = M[p], M[row]
                U[row], U[p] = U[p], U[row]
            rest = [i for i in range(row + 1, r) if M[i][col]]
            if not rest:
                break
            piv = M[row][col]
            for i in rest:
                q = M[i][col] // piv
                if q:
                    _ref_row_sub(M, i, row, q)
                    _ref_row_sub(U, i, row, q)
        if not M[row][col] and not any(M[i][col] for i in range(row, r)):
            continue
        if M[row][col] < 0:
            M[row] = [-x for x in M[row]]
            U[row] = [-x for x in U[row]]
        piv = M[row][col]
        for i in range(row):
            q = M[i][col] // piv
            if q:
                _ref_row_sub(M, i, row, q)
                _ref_row_sub(U, i, row, q)
        row += 1
    return IntMatrix.from_rows(M), IntMatrix.from_rows(U)


def reference_snf(A, modulus: int = 0):
    """Smith form (D, U, V), U A V = D (mod L when modulus L > 0), with every
    row operation repeated on U and every column operation on V: the
    three-matrix elimination that the library's one elimination over
    [[A, I], [I, 0]] must match entry for entry.  Exact (L = 0), it is also
    the Smith form of `ReferenceSolver` and `reference_smith_basis`; mod L,
    that of `reference_smith_basis_mod` and of the Ext quotient."""
    M = [list(row) for row in (A.entries if isinstance(A, IntMatrix) else A)]
    r = len(M)
    c = len(M[0]) if M else 0
    U = [[int(i == j) for j in range(r)] for i in range(r)]
    V = [[int(i == j) for j in range(c)] for i in range(c)]

    def row_sub(i, k, q):
        _ref_row_sub(M, i, k, q)
        _ref_row_sub(U, i, k, q)
        if modulus:
            M[i] = [x % modulus for x in M[i]]
            U[i] = [x % modulus for x in U[i]]

    def col_sub(j, k, q):
        _ref_col_sub(M, j, k, q)
        _ref_col_sub(V, j, k, q)
        if modulus:
            for row in M:
                row[j] %= modulus
            for row in V:
                row[j] %= modulus

    if modulus:
        M = [[x % modulus for x in row] for row in M]
    t = 0
    while t < min(r, c):
        best = None
        for i in range(t, r):
            for j in range(t, c):
                v = M[i][j]
                if v and (best is None or (abs(v), i, j) < best):
                    best = (abs(v), i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            M[t], M[bi] = M[bi], M[t]
            U[t], U[bi] = U[bi], U[t]
        if bj != t:
            _ref_col_swap(M, t, bj)
            _ref_col_swap(V, t, bj)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, r):
                if M[i][t]:
                    row_sub(i, t, M[i][t] // M[t][t])
                    if M[i][t]:
                        M[t], M[i] = M[i], M[t]
                        U[t], U[i] = U[i], U[t]
                        dirty = True
            for j in range(t + 1, c):
                if M[t][j]:
                    col_sub(j, t, M[t][j] // M[t][t])
                    if M[t][j]:
                        _ref_col_swap(M, t, j)
                        _ref_col_swap(V, t, j)
                        dirty = True
        if M[t][t] < 0:
            M[t] = [-x for x in M[t]]
            U[t] = [-x for x in U[t]]
        d = M[t][t]
        bad_row = next((i for i in range(t + 1, r)
                        if any(M[i][j] % d for j in range(t + 1, c))), None)
        if bad_row is not None:
            row_sub(t, bad_row, -1)
            continue
        t += 1
    return IntMatrix.from_rows(M), IntMatrix.from_rows(U), IntMatrix.from_rows(V)


class ReferenceSolver:
    """A x = b over Z through one exact Smith form U A V = D: y = D^-1 U b
    where it is integral, then x = V y."""

    def __init__(self, A):
        self.rows = len(A)
        D, U, V = reference_snf(A)
        self.diag, self.U, self.V = D.diagonal(), U.entries, V.entries

    def solve(self, b):
        if len(b) != self.rows:
            raise ValueError("right-hand side length mismatch")
        t = [sum(u * x for u, x in zip(row, b)) for row in self.U]
        y = []
        for i, ti in enumerate(t):
            d = self.diag[i] if i < len(self.diag) else 0
            if (ti % d if d else ti) != 0:
                return None
            if i < len(self.diag):
                y.append(ti // d if d else 0)
        return tuple(sum(v * yi for v, yi in zip(row, y)) for row in self.V)


def reference_smith_basis(X, n: int) -> list[tuple[int, list[int]]]:
    """Each invariant factor d > 1 of Z^n / X, by one exact Smith form, with
    the column of U^-1 that generates it."""
    D, U, _ = reference_snf(X)
    diag = D.diagonal()
    if len(diag) < n or 0 in diag:
        raise RuntimeError("Hom of finite modules must be finite")
    _, Uinv = reference_hnf(U)  # U is unimodular: its Hermite form is I = Uinv U
    return [(d, [Uinv[l, i] for l in range(n)]) for i, d in enumerate(diag) if d > 1]


# ---------------------------------------------------------------------------
# the solver kernels as they were before they skipped work: oracles for the
# reduced congruence kernel, the sparse Hermite coordinates and U^-1 mod L by
# Gauss-Jordan


def reference_congruence_kernel(A, moduli):
    """Hermite basis of {x : (A x)_i == 0 mod moduli[i]} from one Hermite form
    of the whole unreduced stack (A e_j | e_j), (m_i e_i | 0): no row reduced
    mod its modulus, none dropped."""
    M = [list(row) for row in (A.entries if isinstance(A, IntMatrix) else A)]
    if not M:
        return list(IntMatrix.identity(A.cols).entries)
    r, c = len(M), len(M[0])
    if c == 0:
        return []
    rows = [[M[i][j] for i in range(r)] + [int(t == j) for t in range(c)] for j in range(c)]
    rows += [[m if t == i else 0 for t in range(r)] + [0] * c
             for i, m in enumerate(moduli) if m]
    return [row[r:] for row in reference_hnf(rows)[0].entries
            if any(row[r:]) and not any(row[:r])]


def reference_hermite_coordinates(basis, vectors):
    """Coordinates in the Hermite rows `basis` by dense back substitution:
    every column from each pivot on, zero or not."""
    pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
    out = []
    for v in vectors:
        rest, y = list(v), []
        for row, p in zip(basis, pivots):
            q = rest[p] // row[p]
            y.append(q)
            for j in range(p, len(rest)):
                rest[j] -= q * row[j]
        out.append(None if any(rest) else tuple(y))
    return out


def reference_smith_basis_mod(X, n: int, L: int) -> list[tuple[int, list[int]]]:
    """Each invariant factor d > 1 of Z^n / X, where X spans L Z^n, from one
    Smith form mod L, with the column of U^-1 mod L that generates it, read
    off an exact Hermite form of the rows of U and of L I: their Hermite form
    is I, and the top-left block of its transform is U^-1."""
    D, U, _ = reference_snf(X, L)
    diag = [math.gcd(d, L) for d in D.diagonal()]
    diag += [L] * (n - len(diag))
    _, W = reference_hnf(IntMatrix(U.entries + tuple(
        tuple(L if i == j else 0 for j in range(n)) for i in range(n))))
    return [(d, [W[l, i] % L for l in range(n)]) for i, d in enumerate(diag) if d > 1]


# ---------------------------------------------------------------------------
# reference versions of the module solver: Hom as the lattice of matrices
# commuting with every generator, Ext^1 as that lattice on the cover's
# kernel modulo the restrictions of the maps out of the cover


def _hom_lattice(width: int, src_mats: Sequence[IntMatrix], Q: ModulePart,
                 src_orders: Sequence[int] = (), relations=()):
    """The congruence kernel of s x width integer matrices X (flattened row
    by row) with X g_src == g_Q X mod Q's orders for every generator, and,
    when source orders o are given, o_j X[:, j] == 0 so that X is well
    defined on the source group.  Returns its basis and, in that basis, the
    coordinates of the trivial maps (Q's order times a unit matrix)
    followed by the flattened `relations`."""
    s = Q.rank
    t = s * width
    rows: list[list[int]] = []
    moduli: list[int] = []
    for i in range(s):
        for j, o in enumerate(src_orders):
            row = [0] * t
            row[i * width + j] = o
            rows.append(row)
            moduli.append(Q.orders[i])
    for Gs, GQ in zip(src_mats, Q.mats):
        for i in range(s):
            for u in range(width):
                row = [0] * t
                for v in range(width):
                    row[i * width + v] += Gs.entries[v][u]
                for w in range(s):
                    row[w * width + u] -= GQ.entries[i][w]
                rows.append(row)
                moduli.append(Q.orders[i])
    vectors = [[Q.orders[i] if k == i * width + j else 0 for k in range(t)]
               for i in range(s) for j in range(width)]
    vectors += [[mat[i][l] for i in range(s) for l in range(width)] for mat in relations]
    basis = reference_congruence_kernel(rows or IntMatrix.zero(0, t), moduli)
    coords = reference_hermite_coordinates(basis, vectors)
    if None in coords:
        raise RuntimeError("a vector lies outside the congruence lattice")
    if len(basis) != t:
        raise RuntimeError("solution lattice must have full rank")
    return basis, coords


def _hom_block(P: ModulePart, Q: ModulePart) -> list[tuple[int, IntMatrix]]:
    """Hom between two finite parts: (invariant factor, generating map) pairs."""
    r, s = P.rank, Q.rank
    t = r * s
    if t == 0:
        return []
    basis, rel_cols = _hom_lattice(r, P.mats, Q, P.orders)
    out = []
    for d, col in reference_smith_basis([[c[i] for c in rel_cols] for i in range(t)], t):
        vec = [sum(basis[l][x] * col[l] for l in range(t)) for x in range(t)]
        out.append((d, IntMatrix.from_rows(
            [[vec[k * r + j] % q for j in range(r)] for k, q in enumerate(Q.orders)])))
    return out


@dataclass(frozen=True)
class ReferencePresentation:
    """A module ring's generators, their left-regular matrices, and for
    every basis element the word (sequence of generator indices) whose
    product realizes it."""

    rank: int
    gen_names: tuple[str, ...]
    gen_mats: tuple[IntMatrix, ...]
    basis_words: tuple[tuple[int, ...], ...]


def companion_matrix(d: int) -> IntMatrix:
    """Multiplication by theta_d on the basis of Z[theta_d]."""
    deg = totient(d)
    powers = _tables(d).powers
    rows = [[0] * deg for _ in range(deg)]
    for i in range(deg):
        for s, c in powers[(i + 1) % d]:
            rows[s][i] = c
    return IntMatrix.from_rows(rows)


def word_matrix(mats: Sequence[IntMatrix], word: tuple[int, ...], r: int) -> IntMatrix:
    out = IntMatrix.identity(r)
    for g in word:
        out = out @ mats[g]
    return out


def reference_presentation(ring) -> ReferencePresentation:
    """The module ring built three ways: Z[1/N] with no generator,
    Z[theta_d, 1/N] by its companion matrix, and a crossed product by its
    regular representation (no z generator at n = 1)."""
    if isinstance(ring, RingSummand) and ring.kind == "integral_local":
        return ReferencePresentation(1, (), (), ((),))
    if isinstance(ring, RingSummand) and ring.kind == "cyclotomic_local":
        deg = totient(ring.d)
        return ReferencePresentation(deg, ("z",), (companion_matrix(ring.d),),
                                     tuple((0,) * i for i in range(deg)))
    cr = ring.ring if isinstance(ring, RingSummand) else ring
    rep = regular_representation(cr)
    deg, m = totient(cr.n), cr.weyl_order
    if cr.n == 1:
        return ReferencePresentation(m, tuple(f"w{v}" for v in range(m)), rep.cosets,
                                     tuple((w,) for w in range(m)))
    return ReferencePresentation(
        deg * m, ("z",) + tuple(f"w{v}" for v in range(m)), (rep.z,) + rep.cosets,
        tuple((0,) * i + (1 + w,) for w in range(m) for i in range(deg)))


@dataclass(frozen=True)
class _CoverKernel:
    """Kernel lattice of a free cover R^{r2} ->> module part: its rank, its
    basis as columns of B (rows indexed by cover coordinates), the generator
    actions in the kernel basis, and the cover generator vectors."""

    lam: int
    B: tuple[tuple[int, ...], ...]
    actions: tuple[IntMatrix, ...]
    gvecs: tuple[tuple[int, ...], ...]


def _free_cover_kernel(pres: ReferencePresentation, orders: Sequence[int],
                       mats: Sequence[IntMatrix],
                       extra_generators: Sequence[Sequence[int]] = ()) -> _CoverKernel:
    r = len(orders)
    rho = pres.rank
    word_mats = [word_matrix(mats, w, r) for w in pres.basis_words]
    # Irredundant cover: e_j becomes a generator only when it lies outside
    # the Z-span of the order rows o_i e_i and of the R-span of the
    # generators before it (order 0 marks a free lattice); `span` holds the
    # Hermite rows of that Z-span.
    span = [tuple(o if i == j else 0 for i in range(r)) for j, o in enumerate(orders) if o]
    gvecs, cols = [], []
    for e in IntMatrix.identity(r).entries:
        if reference_hermite_coordinates(span, [e])[0] is None:
            gvecs.append(e)
            new = [wm.matvec(e) for wm in word_mats]
            cols += new
            span = [row for row in reference_hnf(span + new)[0].entries if any(row)]
    for v in extra_generators:
        gvecs.append(tuple(map(int, v)))
        cols += [wm.matvec(gvecs[-1]) for wm in word_mats]
    n = len(cols)
    rows = [[col[i] for col in cols] for i in range(r)]
    kernel = reference_congruence_kernel(rows or IntMatrix.zero(0, n), list(orders))
    lam = len(kernel)
    B = tuple(tuple(kernel[l][x] for l in range(lam)) for x in range(n))
    solver = ReferenceSolver([list(row) for row in B]) if lam else None
    actions = []
    for G in pres.gen_mats:
        # G acts on each cover slot's copy of R by its left-regular matrix.
        act = []
        for x in kernel:
            y = solver.solve([c for k in range(0, n, rho) for c in G.matvec(x[k:k + rho])])
            if y is None:
                raise RuntimeError("free-cover kernel is not generator-stable")
            act.append(y)
        actions.append(IntMatrix.from_rows([[act[l][k] for l in range(lam)]
                                            for k in range(lam)]))
    return _CoverKernel(lam, B, tuple(actions), tuple(gvecs))


def _lattice_hom_quotient(lam: int, K_actions: Sequence[IntMatrix],
                          Q: ModulePart, extra_relations) -> FinAbGroup:
    """Hom_R(K, Q) / (relations), for K a free lattice of rank lam with the
    given generator actions.  extra_relations yields integer matrices (s x lam)
    to quotient out in addition to the trivial maps."""
    _, rel_cols = _hom_lattice(lam, K_actions, Q, relations=extra_relations)
    # the trivial maps are among the relations, so L = lcm(Q.orders) kills
    # the quotient: Z^n modulo the relations and L Z^n is the sum of the
    # Z/gcd(d, L) over their Smith diagonal mod L, and Z/L per missing d
    n, L = Q.rank * lam, math.lcm(*Q.orders)
    diag = reference_snf(rel_cols, L)[0].diagonal()
    return FinAbGroup.from_orders([math.gcd(d, L) for d in diag] + [L] * (n - len(diag)))


def _restriction_images(pres: ReferencePresentation, cover: _CoverKernel,
                        Q: ModulePart):
    """Integer matrices (s x lam): the R-maps R^{r2} -> Q sending one cover
    slot to one coordinate generator of Q, restricted to the kernel lattice."""
    rho = pres.rank
    s = Q.rank
    lam = cover.lam
    word_mats_Q = [word_matrix(Q.mats, w, s) for w in pres.basis_words]
    for j2 in range(len(cover.gvecs)):
        for i in range(s):
            mat = [[0] * lam for _ in range(s)]
            for l in range(lam):
                for beta in range(rho):
                    c = cover.B[j2 * rho + beta][l]
                    if c:
                        col = word_mats_Q[beta]
                        for ii in range(s):
                            mat[ii][l] += c * col.entries[ii][i]
            yield mat


def _reference_ext_block(P: ModulePart, Q: ModulePart, pres: ReferencePresentation) -> FinAbGroup:
    if Q.rank == 0 or P.rank == 0:
        return FinAbGroup.trivial()
    cover = _free_cover_kernel(pres, P.orders, P.mats)
    return _lattice_hom_quotient(cover.lam, cover.actions, Q,
                                 _restriction_images(pres, cover, Q))


def reference_hom_group(M: AModObject, N: AModObject, degree: int = 0) -> FinAbGroup:
    """Hom(M, N) of degree-shifting maps as commuting matrices, block by block."""
    orders = [d for s in (0, 1)
              for d, _ in _hom_block(M.parts[s], N.parts[(s + degree) % 2])]
    return FinAbGroup.from_orders(orders)


def reference_ext_group(M: AModObject, N: AModObject, degree: int = 0) -> FinAbGroup:
    """Ext^1(M, N) as Hom of the cover kernel modulo the restriction images."""
    pres = reference_presentation(M.ring)
    return FinAbGroup.trivial().direct_sum(*(
        _reference_ext_block(M.parts[s], N.parts[(s + degree) % 2], pres) for s in (0, 1)))


def reference_uct_order(A, B) -> UCTOrderResult:
    """uct_order's sums of `reference_hom_group` and `reference_ext_group`
    taken over every flat summand, zero modules included, one direct sum at
    a time."""
    out = []
    for d in (0, 1):
        hom, ext = FinAbGroup.trivial(), FinAbGroup.trivial()
        for MA, MB in zip(A.modules, B.modules):
            hom = hom.direct_sum(reference_hom_group(MA, MB, d))
            ext = ext.direct_sum(reference_ext_group(MA, suspend(MB), d))
        out.append(DegreeOrders(hom, ext))
    return UCTOrderResult((out[0], out[1]))


def ext_second_step(M: AModObject, N: AModObject, degree: int = 0) -> FinAbGroup:
    """Ext^1 of the first syzygy against N, i.e. Ext^2(M, N): ext_group with
    each part's resolution moved one step on, to its kernel K.  Hereditarity
    of the localized rings predicts it is always trivial; the tests probe
    that, and uct_order never needs it.  ext_group makes the ring and
    finiteness checks."""
    pres = presentation_of(M.ring)
    res = [r and _resolve(pres, r.syzygy) for r in _resolve_parts(pres, M)]
    return ext_group(M, N, degree, _resolved=res)
