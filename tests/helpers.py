"""Shared test utilities: brute-force oracles and random valid modules."""

import itertools
import math

from uctbench.amod import AModObject, ModulePart, presentation_of
from uctbench.crossring import CrossedElt, CrossedRing, RingSummand
from uctbench.cyclotomic import CycEltN, _reduce_mod_phi, galois
from uctbench.groups import CyclicClass, CyclicSubgroup, FiniteGroup
from uctbench.zlinalg import IntMatrix


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


def regular_module_part(summand: RingSummand, q: int) -> ModulePart:
    """The part R/qR with generators acting by the regular representation."""
    pres = presentation_of(summand)
    rank = pres.rank
    orders = (q,) * rank
    return ModulePart(orders, pres.gen_mats)


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
    from uctbench.cyclotomic import cyclotomic

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
    table = ring.weyl_table
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
            reduced = _reduce_mod_phi(e, acc)
            if any(reduced[1:]):
                raise AssertionError("an orbit sum of roots of unity is not rational")
            coeffs.append(reduced[0])
        out.append(coeffs)
    return out


# ---------------------------------------------------------------------------
# reference versions of the rings path: each does the dense or exhaustive
# work that the library's fast path avoids


def dense_matmul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    """A @ B by one dense inner product per entry."""
    if A.cols != B.rows:
        raise ValueError("shape mismatch")
    bt = B.transpose().entries
    return IntMatrix(
        tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in bt) for row in A.entries)
    )


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
