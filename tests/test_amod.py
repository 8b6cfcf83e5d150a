import collections
import functools
import itertools
import json
import math
import os
import random
import subprocess
import sys

import pytest

from uctbench import green, zlinalg
from uctbench.amod import (
    AModFamily,
    _basis_actions,
    _free_cover_kernel,
    AModObject,
    direct_sum,
    ext_group,
    family_from_json,
    hom_group,
    presentation_of,
    suspend,
    uct_order,
    validate,
)
from uctbench.cli import _crossed_preset_names
from uctbench.crossring import CrossedRing, target_category
from uctbench.cyclotomic import CycEltN, prime_factors
from uctbench.errors import FamilyMismatch, FreePartError, RingMismatch, UnsupportedSize
from uctbench.groups import preset_group
from uctbench.zlinalg import FinAbGroup, IntMatrix

from helpers import (
    brute_hom_count,
    candidate_parts,
    conjugated_part,
    coprime_primes,
    ext_second_step,
    fp_hom_order,
    random_module,
    rank_mod_prime,
    reference_ext_group,
    reference_hom_group,
    reference_presentation,
    reference_smith_basis_mod,
    reference_uct_order,
    regular_module_part,
    regular_power_part,
    signed_permuted_part,
    word_matrix,
)

@functools.lru_cache(maxsize=None)
def preset_report(preset):
    """A preset's target category, built at first use: a defect in `groups`
    fails the tests that need the report, not the collection of this file."""
    return target_category(preset_group(preset))


def z2_report():
    return preset_report("cyclic(2)")


def z2_int():  # a Z[1/2] summand
    return z2_report().flat_summands()[0]


def z3_report():
    return preset_report("cyclic(3)")


def z3_cyc():  # Z[theta_3, 1/3]
    return z3_report().flat_summands()[1]


def s3_report():
    return preset_report("symmetric(3)")


def s3_crossed():  # Z[theta_3, 1/6] x| Z/2
    return s3_report().flat_summands()[2]


def s3_unsplit():  # Z[1/6][S3], left unsplit
    return s3_report().flat_summands()[0]


def theta5():  # Z[theta_5, 1/5]
    return preset_report("cyclic(5)").flat_summands()[1]


def theta7():  # Z[theta_7, 1/7]
    return preset_report("cyclic(7)").flat_summands()[1]


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def int_module(summand, *orders, degree=0):
    spec = (tuple(orders), ())
    return AModObject.build(summand, degree0=spec if degree == 0 else None,
                            degree1=spec if degree == 1 else None)


def cyc_module(summand, q, root, degree=0):
    spec = ((q,), ([[root]],))
    return AModObject.build(summand, degree0=spec if degree == 0 else None,
                            degree1=spec if degree == 1 else None)


def crossed_module_q7(degree=0, roots=(2, 4)):
    # (Z/7)^2 with z = diag(c, c^2) and the Weyl coset swapping the factors.
    z = [[roots[0], 0], [0, roots[1]]]
    w0 = [[1, 0], [0, 1]]
    w1 = [[0, 1], [1, 0]]
    spec = ((7, 7), (z, w0, w1))
    return AModObject.build(s3_crossed(), degree0=spec if degree == 0 else None,
                            degree1=spec if degree == 1 else None)


def test_validate_examples():
    assert validate(AModObject.zero(z2_int())).ok
    assert validate(int_module(z2_int(), 3)).ok
    # Z/5 over Z[theta_2,1/2] x| Z/2 with z acting as 1: Phi_2(1) = 2 != 0 mod 5
    ring = CrossedRing(2, 2, ((0, 1), (1, 0)), (1, 1))
    bad = AModObject.build(ring, degree0=((5,), ([[1]], [[1]], [[1]])))
    rep = validate(bad)
    assert not rep.ok and "Phi_2" in rep.message
    good = AModObject.build(ring, degree0=((5,), ([[4]], [[1]], [[1]])))
    # Phi_2(4) = 5 = 0 mod 5, identity coset acts trivially: valid
    assert validate(good).ok


def test_validate_catches_violations():
    rep = validate(int_module(z2_int(), 2))
    assert not rep.ok and "coprime" in rep.message
    z = [[0, 0], [1, 0]]
    bad = AModObject.build(z3_cyc(), degree0=((2, 4), (z,)))
    rep = validate(bad)
    assert not rep.ok and "endomorphism" in rep.message
    m = crossed_module_q7()
    broken = AModObject.build(
        s3_crossed(),
        degree0=((7, 7), ([[2, 0], [0, 4]], [[1, 0], [0, 1]], [[1, 0], [0, 1]])),
    )
    rep = validate(broken)
    assert not rep.ok and "twisted commutation" in rep.message
    assert validate(m).ok


def test_suspend():
    z = AModObject.zero(z2_int())
    assert suspend(z) == z
    m = int_module(z2_int(), 3, degree=0)
    s = suspend(m)
    assert s.parts[1] == m.parts[0] and s.parts[0].rank == 0
    assert suspend(s) == m


def test_direct_sum_and_validate():
    m = int_module(z2_int(), 3)
    z = AModObject.zero(z2_int())
    assert direct_sum(m, z) == m
    big = direct_sum(crossed_module_q7(), crossed_module_q7(roots=(4, 2)))
    assert validate(big).ok
    with pytest.raises(RingMismatch):
        direct_sum(m, AModObject.zero(z3_cyc()))


def test_hom_examples():
    m9 = int_module(z2_int(), 9)
    m3 = int_module(z2_int(), 3)
    res = hom_group(m9, m3, 0)
    assert res.group == FinAbGroup((3,))
    assert hom_group(m9, AModObject.zero(z2_int()), 0).group.is_trivial()
    # degree-1 maps out of a degree-0 module into a degree-0 module vanish
    assert hom_group(m9, m3, 1).group.is_trivial()


def test_hom_free_parts_rejected():
    free = AModObject.build(z2_int(), degree0=((0,), ()))
    assert validate(free).ok
    with pytest.raises(FreePartError):
        hom_group(free, free, 0)
    with pytest.raises(FreePartError):
        ext_group(free, free, 0)


def test_hom_generators_are_module_maps():
    m = crossed_module_q7()
    res = hom_group(m, m, 0)
    # End(R/p + conjugate) = Z/7 here (derived via restriction to the
    # cyclotomic subring and splitting into the two prime components)
    assert res.group == FinAbGroup((7,))
    assert len(res.generators) == 1
    gen = res.generators[0].blocks[0]
    P = m.parts[0]
    for Pg, name in zip(P.mats, ("z", "w0", "w1")):
        left = gen @ Pg
        right = Pg @ gen
        for i in range(2):
            for j in range(2):
                assert (left.entries[i][j] - right.entries[i][j]) % 7 == 0, name


def _congruent_zero_rows(X, orders):
    return all(v % q == 0 for row, q in zip(X.entries, orders) for v in row)


def _check_hom_generators(M, N, degree, res):
    """Generator i is a module map killed by factor d_i, and the sums
    c_1 X_1 + ... with 0 <= c_i < d_i are pairwise different: enumerated up
    to 4096 sums, beyond that (only for C_q^n, q prime) as F_q-independence."""
    assert len(res.generators) == len(res.group.factors)
    pairs = [(M.parts[d], N.parts[(d + degree) % 2]) for d in (0, 1)]

    def block(gen, d):
        X = gen.blocks[d]
        P, Q = pairs[d]
        return IntMatrix.zero(Q.rank, P.rank) if X is None else X

    for gen, order in zip(res.generators, res.group.factors):
        for d, (P, Q) in enumerate(pairs):
            if P.rank == 0 or Q.rank == 0:
                continue
            X = block(gen, d)
            for Pg, Qg in zip(P.mats, Q.mats):
                diff = IntMatrix.from_rows(
                    [[a - b for a, b in zip(ra, rb)]
                     for ra, rb in zip((X @ Pg).entries, (Qg @ X).entries)])
                assert _congruent_zero_rows(diff, Q.orders)
            scaled = IntMatrix.from_rows([[order * v for v in row] for row in X.entries])
            assert _congruent_zero_rows(scaled, Q.orders)
    if res.group.order() > 4096:
        q = res.group.factors[0]
        assert set(res.group.factors) == {q}
        flat = [[v for d, (P, Q) in enumerate(pairs) for row in block(gen, d).entries for v in row]
                for gen in res.generators]
        assert rank_mod_prime(flat, q) == len(flat)
        return
    sums = {
        tuple(sum(c * block(gen, d).entries[i][j] for c, gen in zip(cs, res.generators)) % q
              for d, (P, Q) in enumerate(pairs)
              for i, q in enumerate(Q.orders) for j in range(P.rank))
        for cs in itertools.product(*map(range, res.group.factors))
    }
    assert len(sums) == res.group.order()


def test_hom_generators_align_with_invariant_factors_seeded():
    rng = random.Random(202)
    multi_factor = set()
    recombined = False
    for trial in range(24):
        summand = (z2_int(), z3_cyc(), s3_crossed())[trial % 3]
        M, N = (direct_sum(random_module(rng, summand, max_order=49),
                           random_module(rng, summand, max_order=49))
                for _ in range(2))
        for degree in (0, 1):
            res = hom_group(M, N, degree)
            _check_hom_generators(M, N, degree, res)
            if len(res.group.factors) > 1:
                multi_factor.add(summand.kind)
            recombined |= any(None not in gen.blocks for gen in res.generators)
    assert multi_factor == {z2_int().kind, z3_cyc().kind, s3_crossed().kind}
    assert recombined


def test_hom_generators_merge_factors_across_degrees():
    # Z/3 in degree 0 plus Z/5 in degree 1: End is C3 + C5 = C15, one
    # generator of order 15 that is nonzero on both degrees.
    M = AModObject.build(z2_int(), degree0=((3,), ()), degree1=((5,), ()))
    res = hom_group(M, M, 0)
    assert res.group == FinAbGroup((15,))
    assert len(res.generators) == 1
    _check_hom_generators(M, M, 0, res)


def test_resolution_matches_reference_solver():
    # The commuting-matrix Hom and the lattice-Hom Ext (tests/helpers.py)
    # as the oracle, on same-prime pairs (R/q)^k -> (R/q)^k' where both are
    # C_q^(rho k k'): signed permutations up to k = 2, and one dense change
    # of basis.  (R/7)^2 -> (R/7)^2 over the unsplit Z[1/6][S3] is left out:
    # the reference takes seconds there.
    rng = random.Random(404)
    for summand, q in ((z3_cyc(), 7), (s3_crossed(), 7), (s3_unsplit(), 7), (theta5(), 11)):
        rho = presentation_of(summand).rank
        zero = AModObject.zero(summand).parts[1]
        pairs = [(signed_permuted_part(rng, regular_power_part(summand, q, k)),
                  signed_permuted_part(rng, regular_power_part(summand, q, k2)), k * k2)
                 for k, k2 in ((1, 1), (1, 2), (2, 1), (2, 2))
                 if k * k2 < 4 or summand is not s3_unsplit()]
        pairs.append((conjugated_part(rng, regular_module_part(summand, q), q),
                      regular_module_part(summand, q), 1))
        for P, Q, kk in pairs:
            M, N = (AModObject(summand, (X, zero)) for X in (P, Q))
            assert validate(M).ok and validate(N).ok
            want = FinAbGroup((q,) * (rho * kk))
            res = hom_group(M, N, 0)
            assert res.group == reference_hom_group(M, N, 0) == want, (summand.kind, kk)
            _check_hom_generators(M, N, 0, res)
            assert ext_group(M, N, 0) == reference_ext_group(M, N, 0) == want, (summand.kind, kk)


def test_hom_matches_bruteforce_seeded():
    rng = random.Random(101)
    summands = [z2_int(), z3_cyc(), s3_crossed(), theta5()]
    for trial in range(40):
        summand = summands[trial % len(summands)]
        M = random_module(rng, summand, max_order=49)
        N = random_module(rng, summand, max_order=49)
        assert validate(M).ok and validate(N).ok
        for degree in (0, 1):
            got = hom_group(M, N, degree).group.order()
            want = brute_hom_count(M, N, degree)
            assert got == want, (trial, summand.kind, degree)


def test_ext_examples():
    z = AModObject.zero(z2_int())
    assert ext_group(z, int_module(z2_int(), 9), 0).is_trivial()
    m3 = int_module(z2_int(), 3)
    m9 = int_module(z2_int(), 9)
    assert ext_group(m3, m3, 0) == FinAbGroup((3,))
    assert ext_group(m9, m3, 0) == FinAbGroup((3,))
    assert ext_group(m9, m3, 1).is_trivial()  # parts meet in mixed degrees only


def test_ext_gcd_closed_form():
    rng = random.Random(55)
    for _ in range(20):
        a = rng.choice([3, 5, 7, 9, 15, 21, 25, 27, 45, 63, 81])
        b = rng.choice([3, 5, 7, 9, 15, 21, 25, 27, 45, 63, 81])
        M, N = int_module(z2_int(), a), int_module(z2_int(), b)
        g = math.gcd(a, b)
        assert ext_group(M, N, 0).order() == g, (a, b)
        assert hom_group(M, N, 0).group.order() == g, (a, b)


def test_ext_generator_choice_independence():
    rng = random.Random(56)
    m = int_module(z2_int(), 9, 3)
    n = int_module(z2_int(), 27)
    base = ext_group(m, n, 0)
    for _ in range(5):
        extra = [(rng.randrange(9), rng.randrange(3))]
        again = ext_group(m, n, 0, extra_generators={0: extra})
        assert again == base
    mc = crossed_module_q7()
    base = ext_group(mc, mc, 0)
    assert ext_group(mc, mc, 0, extra_generators={0: [(1, 1)]}) == base
    # a vector of the wrong length or with a non-int entry is refused, not
    # zipped down to the part's rank (which answered C3^4 unprobed)
    m33 = int_module(z2_int(), 3, 3)
    assert ext_group(m33, m33, 0) == FinAbGroup((3,) * 4)
    for bad in ([[1]], [[1, 0, 5]], [[1.5, 0]], [[True, 0]], [(1, 0), [0, "1"]]):
        with pytest.raises(ValueError, match="degree 0"):
            ext_group(m33, m33, 0, extra_generators={0: bad})
    with pytest.raises(ValueError, match="degree 1 must be int vectors of length 0"):
        ext_group(m33, m33, 0, extra_generators={1: [[1]]})
    with pytest.raises(ValueError, match="degree 2"):
        ext_group(m33, m33, 0, extra_generators={2: [[1, 0]]})


def _full_cover(M):
    """extra_generators naming every coordinate vector of every degree: the
    cover by all Z-coordinates, on top of the irredundant one."""
    return {d: [tuple(int(i == j) for i in range(p.rank)) for j in range(p.rank)]
            for d, p in enumerate(M.parts)}


def _unsplit_s3_modules(q):
    """The trivial and sign modules Z/q (in degrees 0 and 1) and the regular
    module R/q over Z[1/6][S3]."""
    ring = s3_unsplit().ring
    m = ring.weyl_order

    def order(v):
        k, x = 1, v
        while x != 0:
            x, k = ring.weyl_table[x][v], k + 1
        return k

    trivial = AModObject.build(s3_unsplit(), degree0=((q,), [[[1]]] * m))
    sign = AModObject.build(
        s3_unsplit(), degree1=((q,), [[[-1 if order(v) == 2 else 1]] for v in range(m)]))
    regular = AModObject(s3_unsplit(), (regular_module_part(s3_unsplit(), q),
                                      AModObject.zero(s3_unsplit()).parts[1]))
    return trivial, sign, regular


def test_ext_irredundant_cover_oracles_seeded():
    # Ext must not depend on the cover: the irredundant one gives the same
    # group as the full cover by all Z-coordinates.  And Ext^1(M, N) is
    # isomorphic to Hom(M, N) for finite modules over these rings.
    rng = random.Random(303)
    pairs = []
    for trial in range(18):
        summand = (z2_int(), z3_cyc(), s3_crossed())[trial % 3]
        pairs.append((random_module(rng, summand, max_order=49),
                      random_module(rng, summand, max_order=49)))
    trivial, sign, regular = _unsplit_s3_modules(7)
    both = direct_sum(trivial, sign)
    pairs += [(M, N) for M in (trivial, sign, both) for N in (trivial, sign)]
    pairs.append((both, regular))
    nontrivial = set()
    for M, N in pairs:
        assert validate(M).ok and validate(N).ok
        for degree in (0, 1):
            ext = ext_group(M, N, degree)
            assert ext == ext_group(M, N, degree, extra_generators=_full_cover(M))
            assert ext == hom_group(M, N, degree).group
            if not ext.is_trivial():
                nontrivial.add(M.ring.kind)
    assert nontrivial == {z2_int().kind, z3_cyc().kind, s3_crossed().kind, s3_unsplit().kind}


def test_ext_dense_conjugation_over_unsplit_s3():
    # The trivial module Z/7 against R/7 over Z[1/6][S3], in a basis changed
    # by a dense random matrix mod 7.  The Smith form of the Ext quotient
    # used to grow its entries without bound here (no answer in 40 s); run
    # mod 7, it gives Ext = Hom = C7.
    trivial, _, regular = _unsplit_s3_modules(7)
    for seed in (1, 3):
        part = conjugated_part(random.Random(seed), regular.parts[0], 7)
        N = AModObject(s3_unsplit(), (part, regular.parts[1]))
        assert validate(N).ok
        assert ext_group(trivial, N) == hom_group(trivial, N).group == FinAbGroup((7,))


def test_evaluations_match_their_definition_seeded():
    # Column x of _evaluations is the map for y = e_x, so the columns
    # weighted by y must stack the values f_y(c) = sum c[j rho + beta]
    # W_Q[beta] y_j over the vectors c, each term one matrix-vector product.
    from uctbench import amod

    rng = random.Random(41)
    for summand in (s3_unsplit(), s3_crossed(), theta5()):
        pres = presentation_of(summand)
        rho = pres.rank
        for q, k in ((7, 1), (11, 2)):
            Q = conjugated_part(rng, regular_power_part(summand, q, k), q)
            s = Q.rank
            words = amod._basis_actions(pres, Q.mats, s)
            for g in (1, 2, 3):
                vectors = [[rng.randint(-3, 3) if rng.random() < 0.5 else 0
                            for _ in range(g * rho)] for _ in range(rng.randint(0, 3))]
                cols = amod._evaluations(pres, g, vectors, Q)
                assert len(cols) == g * s
                assert all(len(col) == len(vectors) * s for col in cols)
                for _ in range(3):
                    y = [rng.randint(-5, 5) for _ in range(g * s)]
                    want = []
                    for c in vectors:
                        value = [0] * s
                        for x, cx in enumerate(c):
                            j, beta = divmod(x, rho)
                            image = words[beta].matvec(y[j * s:(j + 1) * s])
                            value = [a + cx * b for a, b in zip(value, image)]
                        want += value
                    got = [sum(v * col[i] for v, col in zip(y, cols))
                           for i in range(len(vectors) * s)]
                    assert got == want, (summand.describe(), q, k, g, vectors)


def test_cover_of_rank_zero_has_no_kernel():
    # r = 0 and no columns: the congruence kernel is Z^0, with no rows
    for summand in preset_report("symmetric(3)").flat_summands():
        pres = presentation_of(summand)
        cover = _free_cover_kernel(pres, (), [IntMatrix.zero(0, 0) for _ in pres.gen_names])
        assert (cover.gvecs, cover.cols, cover.kernel) == ((), (), ())


def test_ext_rank_four_summand_cube():
    # Ext^1((R/11)^3, (R/11)^3) over Z[theta_5, 1/5] is C11^(4*3*3).  The
    # cover needs 3 generators, not all 12 Z-coordinates; with all 12 this
    # query took 58 s on a 2.1 GHz Xeon.
    summand = theta5()
    part = regular_module_part(summand, 11)
    M = AModObject(summand, (part, AModObject.zero(summand).parts[1]))
    M3 = direct_sum(direct_sum(M, M), M)
    P = M3.parts[0]
    assert len(_free_cover_kernel(presentation_of(summand), P.orders, P.mats).gvecs) == 3
    assert ext_group(M3, M3, 0) == FinAbGroup((11,) * 36)
    # R/7 over Z[theta_3] in the basis e_0, 4 e_1 (z e_0 = 2 e_1): e_1 lies
    # in the span of e_0's images only with its own order row 7 e_1, and the
    # cover still takes one generator
    z = IntMatrix.from_rows([[0, -4], [2, -1]])
    assert len(_free_cover_kernel(presentation_of(z3_cyc()), (7, 7), [z]).gvecs) == 1


def test_ext_dedekind_prime_oracle():
    # Z[theta_3] at the split prime 7 = (theta-2)(theta-4): for the residue
    # module M at one prime, End(M) = Ext^1(M, M) = Z/7 and both vanish
    # against the other prime's residue module.
    m_p = cyc_module(z3_cyc(), 7, 2)
    m_q = cyc_module(z3_cyc(), 7, 4)
    assert hom_group(m_p, m_p, 0).group == FinAbGroup((7,))
    assert ext_group(m_p, m_p, 0) == FinAbGroup((7,))
    assert hom_group(m_p, m_q, 0).group.is_trivial()
    assert ext_group(m_p, m_q, 0).is_trivial()


def test_hom_ext_inert_prime_oracle():
    # 5 stays prime in Z[theta_3]; the residue module R/5R has endomorphism
    # ring the field with 25 elements, and Ext^1(R/5, R/5) = R/5 as well.
    pres = presentation_of(z3_cyc())
    M = AModObject.build(z3_cyc(), degree0=((5, 5), (pres.gen_mats[0],)))
    assert validate(M).ok
    assert hom_group(M, M, 0).group.order() == 25
    assert ext_group(M, M, 0).order() == 25
    # and an inert residue module meets a split one trivially
    m_p = cyc_module(z3_cyc(), 7, 2)
    assert hom_group(M, m_p, 0).group.is_trivial()
    assert ext_group(M, m_p, 0).is_trivial()


def test_ext_crossed_ring_oracle():
    # Induced module over Z[theta_3,1/6] x| Z/2: End and Ext^1 are Z/7
    # (restriction to Z[theta_3] splits into the two prime components).
    m = crossed_module_q7()
    assert hom_group(m, m, 0).group == FinAbGroup((7,))
    assert ext_group(m, m, 0) == FinAbGroup((7,))


def test_ext_second_step_vanishes():
    rng = random.Random(77)
    mods = [int_module(z2_int(), 9, 3), cyc_module(z3_cyc(), 7, 2),
            random_module(rng, z3_cyc(), 49), random_module(rng, z2_int(), 81)]
    for M in mods:
        for N in mods:
            if M.ring != N.ring:
                continue
            assert ext_second_step(M, N, 0).is_trivial()
            assert ext_second_step(M, N, 1).is_trivial()


def test_hom_ext_additive_over_direct_sum():
    rng = random.Random(78)
    for summand in (z2_int(), z3_cyc()):
        a = random_module(rng, summand, 27)
        b = random_module(rng, summand, 27)
        c = random_module(rng, summand, 27)
        ab = direct_sum(a, b)
        for degree in (0, 1):
            assert (hom_group(ab, c, degree).group.order()
                    == hom_group(a, c, degree).group.order()
                    * hom_group(b, c, degree).group.order())
            assert (ext_group(c, ab, degree).order()
                    == ext_group(c, a, degree).order()
                    * ext_group(c, b, degree).order())


def test_hom_ext_metamorphic_relations_seeded():
    # Checks that need no second solver, on seeded random triples over each
    # kind of summand: Hom and Ext are additive under direct_sum in each
    # variable, in both degrees; they do not see a change of basis; and
    # suspending B shifts uct_order by one degree.
    rng = random.Random(29)
    # Z[1/6][S3] has rank 6, so its smallest module is R/5, of order 5^6
    summands = ((z2_report(), 0, 49), (z3_report(), 1, 49), (s3_report(), 2, 49),
                (s3_report(), 0, 5 ** 6), (preset_report("cyclic(5)"), 1, 49))

    def rebased(M):
        parts = []
        for P in M.parts:
            q = min(P.orders, default=0)
            if set(P.orders) == {q} and prime_factors(q) == (q,):
                parts.append(conjugated_part(rng, P, q))
            else:
                parts.append(signed_permuted_part(rng, P))
        return AModObject(M.ring, (parts[0], parts[1]))

    def primes(M):
        return {p for P in M.parts for o in P.orders for p in prime_factors(o)}

    nontrivial = collections.Counter()
    for report, idx, max_order in summands:
        summand = report.flat_summands()[idx]
        for _ in range(3):
            # B and C share a prime with A, so that most groups are nonzero
            A = random_module(rng, summand, max_order)
            B, C = itertools.islice((X for X in (random_module(rng, summand, max_order)
                                                 for _ in range(100)) if primes(X) & primes(A)), 2)
            AB = direct_sum(A, B)
            for degree in (0, 1):
                for name, f in (("hom", lambda X, Y: hom_group(X, Y, degree).group),
                                ("ext", lambda X, Y: ext_group(X, Y, degree))):
                    what = (summand.kind, idx, name, degree)
                    assert f(AB, C) == f(A, C).direct_sum(f(B, C)), what
                    assert f(C, AB) == f(C, A).direct_sum(f(C, B)), what
                    got = f(A, B)
                    assert f(rebased(A), rebased(B)) == got, what
                    nontrivial[name, not got.is_trivial()] += 1
            FA, FB = (AModFamily.from_modules(report, {idx: X}) for X in (A, B))
            SB = AModFamily.from_modules(report, {idx: suspend(B)})
            res, sres = uct_order(FA, FB), uct_order(FA, SB)
            assert (res.degrees[0], res.degrees[1]) == (sres.degrees[1], sres.degrees[0])
    assert min(nontrivial.values()) >= 5 and len(nontrivial) == 4, nontrivial


def test_uct_order_examples():
    zero = AModFamily.zero(z2_report())
    res = uct_order(zero, zero)
    assert res.kk_order(0) == 1 and res.kk_order(1) == 1

    m3 = int_module(z2_int(), 3)
    fam = AModFamily.from_modules(z2_report(), {0: m3})
    res = uct_order(fam, fam)
    assert res.degrees[0].hom_group == FinAbGroup((3,))
    assert res.degrees[0].ext_group.is_trivial()
    assert res.degrees[1].hom_group.is_trivial()
    assert res.degrees[1].ext_group == FinAbGroup((3,))
    assert res.kk_order(0) == 3 and res.kk_order(1) == 3

    m5 = int_module(z2_int(), 5)
    fam5 = AModFamily.from_modules(z2_report(), {0: m5})
    res = uct_order(fam, fam5)
    assert res.kk_order(0) == 1 and res.kk_order(1) == 1


def test_uct_order_suspension_swaps_degrees():
    m = int_module(z2_int(), 9, degree=0)
    n = direct_sum(int_module(z2_int(), 3, degree=0), int_module(z2_int(), 27, degree=1))
    A = AModFamily.from_modules(z2_report(), {0: m})
    B = AModFamily.from_modules(z2_report(), {0: n})
    SB = AModFamily(z2_report(), tuple(suspend(x) for x in B.modules))
    res = uct_order(A, B)
    sres = uct_order(A, SB)
    assert res.degrees[0] == sres.degrees[1]
    assert res.degrees[1] == sres.degrees[0]


def test_uct_multi_summand_klein_family():
    # Hand-computed orders over two of the ten Klein summands:
    # A has Z/3 (degree 0) at summand 0 and Z/9 (degree 1) at summand 5;
    # B has Z/3 (degree 0) at summand 0 and Z/27 (degree 0) at summand 5.
    report = target_category(preset_group("klein_four"))
    flat = report.flat_summands()

    def mod(idx, order, degree):
        spec = ((order,), ())
        return AModObject.build(flat[idx],
                                degree0=spec if degree == 0 else None,
                                degree1=spec if degree == 1 else None)

    A = AModFamily.from_modules(report, {0: mod(0, 3, 0), 5: mod(5, 9, 1)})
    B = AModFamily.from_modules(report, {0: mod(0, 3, 0), 5: mod(5, 27, 0)})
    res = uct_order(A, B)
    # degree 0: hom = Hom(Z/3, Z/3) = C3; ext = Ext(Z/9, Z/27) = C9
    assert res.degrees[0].hom_group == FinAbGroup((3,))
    assert res.degrees[0].ext_group == FinAbGroup((9,))
    assert res.kk_order(0) == 27
    # degree 1: hom = Hom(Z/9, Z/27) = C9; ext = Ext(Z/3, Z/3) = C3
    assert res.degrees[1].hom_group == FinAbGroup((9,))
    assert res.degrees[1].ext_group == FinAbGroup((3,))
    assert res.kk_order(1) == 27


def test_uct_order_resolves_each_source_part_once(monkeypatch):
    # uct_order hands one resolution of each source module to all four Hom
    # and Ext blocks it asks of that module: each nonzero source part is
    # covered once, and the cover's kernel once.
    from uctbench import amod

    covered = []
    real = amod._free_cover_kernel
    monkeypatch.setattr(amod, "_free_cover_kernel",
                        lambda *args: covered.append(args[1]) or real(*args))
    M = direct_sum(cyc_module(z3_cyc(), 7, 2, 0), cyc_module(z3_cyc(), 7, 4, 1))
    fam = AModFamily.from_modules(z3_report(), {1: M})
    res = uct_order(fam, fam)
    assert len(covered) == 4
    for d in (0, 1):
        assert res.degrees[d].hom_group == hom_group(M, M, d).group
        assert res.degrees[d].ext_group == ext_group(M, suspend(M), d)
    assert res.kk_order(0) == res.kk_order(1) == 49


def test_uct_order_acts_only_on_the_kernels_of_source_parts(monkeypatch):
    # Only the next resolution step reads the ring generators' actions on a
    # cover's kernel K, so one uct_order computes them once per nonzero
    # source part, on that part's K, and never on the kernel of a syzygy's
    # cover.  ext_second_step resolves one step further, so it also acts on
    # those kernels, and Ext^2 stays trivial.
    from uctbench import amod

    pres = presentation_of(z3_cyc())
    (z,) = pres.gen_mats
    rho = pres.rank
    M = direct_sum(cyc_module(z3_cyc(), 7, 2, 0), cyc_module(z3_cyc(), 7, 4, 1))
    kernels = [_free_cover_kernel(pres, P.orders, P.mats).kernel for P in M.parts]

    def z_image(x):
        # z acts on each cover slot's copy of R by its left-regular matrix
        return tuple(c for k in range(0, len(x), rho) for c in z.matvec(x[k:k + rho]))

    acted_on = []
    real = amod.hermite_coordinates

    def spy(basis, vectors):
        vectors = [tuple(v) for v in vectors]
        # a kernel action: the coordinates of z K in the Hermite basis of K
        if len(vectors) == len(basis) and vectors == [z_image(x) for x in basis]:
            acted_on.append(tuple(map(tuple, basis)))
        return real(basis, vectors)

    monkeypatch.setattr(amod, "hermite_coordinates", spy)
    fam = AModFamily.from_modules(z3_report(), {1: M})
    assert uct_order(fam, fam).kk_order(0) == 49
    assert acted_on == kernels
    acted_on.clear()
    for d in (0, 1):
        assert ext_second_step(M, M, d).is_trivial()
    assert len(acted_on) == 8 and acted_on[:2] == acted_on[4:6] == kernels


def test_uct_order_matches_the_all_summand_sum_seeded():
    # uct_order resolves and computes only the summands where both families
    # carry a module; the reference sums Hom and Ext over every summand.
    rng = random.Random(909)
    placed = set()
    for trial in range(16):
        report = target_category(preset_group(
            ("klein_four", "cyclic(5)", "symmetric(3)", "dihedral(4)")[trial % 4]))
        flat = report.flat_summands()
        usable = [i for i, s in enumerate(flat) if candidate_parts(s, 49)]
        sides = {i: rng.choice(("A", "B", "both", "none"))
                 for i in rng.sample(usable, min(len(usable), 4))}
        placed.update(sides.values())
        A, B = (AModFamily.from_modules(report, {
            i: random_module(rng, flat[i], 49) for i, side in sides.items()
            if side in (tag, "both")}) for tag in ("A", "B"))
        assert uct_order(A, B) == reference_uct_order(A, B), (trial, sides)
    assert placed == {"A", "B", "both", "none"}


def _unchecked_family(report, modules):
    # a family whose modules skip AModFamily's ring check, to reach
    # uct_order's own
    fam = object.__new__(AModFamily)
    object.__setattr__(fam, "report", report)
    object.__setattr__(fam, "modules", tuple(modules))
    return fam


def test_uct_order_checks_summands_whose_partner_is_zero(monkeypatch):
    from uctbench import amod

    klein = target_category(preset_group("klein_four"))
    flat = klein.flat_summands()
    free = AModFamily.from_modules(klein, {3: AModObject.build(flat[3], degree0=((0,), ()))})
    other = AModFamily.from_modules(klein, {1: int_module(flat[1], 3)})
    for A, B in ((free, other), (other, free)):
        with pytest.raises(FreePartError):
            uct_order(A, B)
    # summand 0 of cyclic(5) is Z[1/5]; a module over Z[theta_5, 1/5] there
    c5 = preset_report("cyclic(5)")
    zeros = AModFamily.zero(c5)
    wrong = _unchecked_family(c5, (cyc_module(c5.flat_summands()[1], 11, 3),)
                              + zeros.modules[1:])
    for A, B in ((wrong, zeros), (zeros, wrong)):
        with pytest.raises(RingMismatch):
            uct_order(A, B)
    # the width check still comes before any resolution
    resolved = []
    monkeypatch.setattr(amod, "MAX_LATTICE_WIDTH", 4)
    monkeypatch.setattr(amod, "_resolve_parts", lambda *args: resolved.append(args))
    A = AModFamily.from_modules(klein, {0: int_module(flat[0], 3, 3, 3), 2: int_module(flat[2], 5)})
    B = AModFamily.from_modules(klein, {0: int_module(flat[0], 3, 3)})
    with pytest.raises(UnsupportedSize, match="summand 0: .* is 6, above 4"):
        uct_order(A, B)
    assert not resolved


def test_family_mismatch():
    with pytest.raises(FamilyMismatch):
        uct_order(AModFamily.zero(z2_report()), AModFamily.zero(z3_report()))
    with pytest.raises(FamilyMismatch):
        AModFamily.from_modules(z2_report(), {7: int_module(z2_int(), 3)})


def test_family_checks_the_ring_of_every_module():
    # A module over a bare crossed ring has no summand kind, yet its ring
    # must match the slot: unchecked, this one over Z[theta_5, 1/15] at the
    # Z[theta_3, 1/3] slot gives uct_order a Hom of C2^4.
    alien = AModObject.build(CrossedRing(5, 15, ((0,),), (1,)),
                             degree0=((11,), ([[3]], [[1]])))
    assert validate(alien).ok
    with pytest.raises(FamilyMismatch, match="module 1"):
        AModFamily.from_modules(z3_report(), {1: alien})
    with pytest.raises(FamilyMismatch, match="module 0"):
        AModFamily.from_modules(z3_report(), {0: cyc_module(z3_cyc(), 7, 2)})


def _presentation_rings():
    """Every flat summand of every preset up to order 24, then bare crossed
    rings: trivial W at n = 1 and n = 5, and the unsplit S3 ring."""
    for name in _crossed_preset_names(24):
        yield from target_category(preset_group(name)).flat_summands()
    yield CrossedRing(1, 5, ((0,),), (1,))
    yield CrossedRing(5, 5, ((0,),), (1,))
    yield s3_unsplit().ring


def test_presentation_matches_reference():
    # the one regular-representation path against the builder that treats
    # integral, cyclotomic and crossed rings apart, with basis words
    rng = random.Random(12)
    kinds = set()
    for ring in _presentation_rings():
        pres, ref = presentation_of(ring), reference_presentation(ring)
        assert (pres.gen_names, pres.gen_mats, pres.rank) == (
            ref.gen_names, ref.gen_mats, ref.rank)
        q = coprime_primes(pres.ring.N)[0]
        P = signed_permuted_part(rng, regular_module_part(ring, q))
        assert _basis_actions(pres, P.mats, P.rank) == [
            word_matrix(P.mats, w, P.rank) for w in ref.basis_words]
        kinds.add(getattr(ring, "kind", "bare"))
    assert kinds == {"integral_local", "cyclotomic_local", "unsplit_crossed", "bare"}


def test_ring_identity_is_presentation_equality():
    # Z[1/2] of cyclic(2) at d = 1 and d = 2 is one ring
    d1, d2 = z2_report().flat_summands()[:2]
    assert (d1.d, d2.d) == (1, 2)
    M = direct_sum(int_module(d1, 3), int_module(d2, 5))
    assert M.parts[0].orders == (3, 5)
    assert AModFamily.from_modules(z2_report(), {1: int_module(d1, 3)}).validate().ok
    # and so are a bare crossed ring and the unsplit summand over it
    bare = s3_unsplit().ring
    trivial = AModObject.build(bare, degree0=((7,), ([[1]],) * 6))
    assert validate(direct_sum(trivial, AModObject.zero(s3_unsplit()))).ok
    fam = AModFamily.from_modules(s3_report(), {0: trivial})
    assert uct_order(fam, fam).kk_order(0) == 7
    # a bare ring with trivial W keeps its w0 generator, so it is not the
    # split summand Z[1/2]
    with pytest.raises(RingMismatch):
        direct_sum(int_module(d1, 3), AModObject.zero(CrossedRing(1, 2, ((0,),), (1,))))
    with pytest.raises(FamilyMismatch, match="module 0"):
        AModFamily.from_modules(z2_report(), {0: int_module(z3_report().flat_summands()[0], 5)})


def test_family_from_json():
    data = {"modules": [{"summand": 0, "degree0": {"orders": [3]}}]}
    fam = family_from_json(z2_report(), data)
    assert fam.validate().ok
    assert fam.modules[0].parts[0].orders == (3,)
    res = uct_order(fam, fam)
    assert res.kk_order(0) == 3

    s3data = {"modules": [{
        "summand": 2,
        "degree0": {"orders": [7, 7],
                    "z": [[2, 0], [0, 4]],
                    "w": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]},
    }]}
    fam = family_from_json(s3_report(), s3data)
    assert fam.validate().ok
    with pytest.raises(FamilyMismatch):
        family_from_json(z2_report(), {"modules": [{"summand": 9}]})


def test_candidate_parts_are_valid():
    rng = random.Random(5)
    for summand in (z2_int(), z3_cyc(), s3_crossed()):
        for _ in range(10):
            M = random_module(rng, summand)
            assert validate(M).ok, summand.kind


# (summand, q, k, k'): Hom and Ext of densely conjugated (R/q)^k against
# (R/q)^k' are both C_q^(rho k k').  Exact Smith forms grow without bound
# on these: with them none finishes in 30 s, R/29 over Z[theta_7, 1/7] not
# in 120 s.
def dense_cases():
    return ((theta7(), 29, 1, 1), (theta5(), 11, 2, 2), (theta5(), 31, 2, 2),
            (theta5(), 11, 3, 3), (theta5(), 11, 2, 3), (s3_unsplit(), 7, 2, 2))


def dense_pair(seed, summand, q, k, k2):
    rng = random.Random(seed)
    zero = AModObject.zero(summand).parts[1]
    return tuple(AModObject(summand, (conjugated_part(rng, regular_power_part(summand, q, j), q),
                                      zero)) for j in (k, k2))


def test_dense_hom_ext_answer_quickly():
    # Run in a child process so that a hang fails the test instead of the
    # suite; the generators are checked in this process once it answered.
    script = (
        "import json\n"
        "from test_amod import dense_cases, dense_pair, hom_group, ext_group\n"
        "print(json.dumps([[list(hom_group(M, N).group.factors), list(ext_group(M, N).factors)]\n"
        "                  for seed in range(3) for case in dense_cases()\n"
        "                  for M, N in [dense_pair(seed, *case)]]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = iter(json.loads(proc.stdout))
    for seed in range(3):
        for summand, q, k, k2 in dense_cases():
            want = [q] * (presentation_of(summand).rank * k * k2)
            assert next(got) == [want, want], (seed, summand.describe(), q, k, k2)
    for case in dense_cases():
        M, N = dense_pair(0, *case)
        _check_hom_generators(M, N, 0, hom_group(M, N))


def test_hom_order_matches_an_fp_rank_oracle_seeded():
    # Over modules whose orders are all one prime p, |Hom| is p^(unknowns -
    # rank) of the commuting equations over F_p, an oracle that shares no
    # elimination with zlinalg: on the dense pairs and on the elementary
    # pairs of seeded random families, in both degrees.
    for case in dense_cases():
        M, N = dense_pair(0, *case)
        for degree in (0, 1):
            assert hom_group(M, N, degree).group.order() == \
                fp_hom_order(M, N, degree, case[1]), (case[0].describe(), case[1:], degree)
    rng = random.Random(28)
    nontrivial = collections.Counter()
    for summand in (z2_int(), z3_cyc(), s3_crossed(), s3_unsplit(), theta5()):
        for _ in range(30):
            M, N = random_module(rng, summand, 49), random_module(rng, summand, 49)
            orders = {o for X in (M, N) for P in X.parts for o in P.orders}
            p = min(orders, default=0)
            if orders != {p} or prime_factors(p) != (p,):
                continue
            for degree in (0, 1):
                got = hom_group(M, N, degree).group.order()
                assert got == fp_hom_order(M, N, degree, p), (summand.kind, degree)
                nontrivial[got > 1] += 1
    assert nontrivial[True] >= 30 and nontrivial[False] >= 30, nontrivial


def test_solver_path_takes_no_exact_smith_form(monkeypatch):
    # Every group on the solver path is killed by a known L, so every Smith
    # form runs mod L: an exact one can grow its entries without bound.
    # The spy sits on the one Smith elimination, so both snf and cokernel
    # forms are recorded.
    real, moduli = zlinalg._smith, []

    def spy(M, r, c, modulus=0):
        moduli.append(modulus)
        return real(M, r, c, modulus)

    monkeypatch.setattr(zlinalg, "_smith", spy)
    green._descent_solver.cache_clear()
    M, N = dense_pair(0, s3_unsplit(), 7, 1, 1)
    C15 = AModObject.build(z2_int(), degree0=((3,), ()), degree1=((5,), ()))
    for X, Y in ((M, N), (C15, C15), (crossed_module_q7(), crossed_module_q7(1))):
        for degree in (0, 1):
            hom_group(X, Y, degree)
            ext_group(X, Y, degree)
    family = AModFamily.from_modules(s3_report(), {0: M, 2: crossed_module_q7()})
    uct_order(family, family)
    zlinalg.solve_mod([[2, 4, 6], [3, 0, 9]], [8, 27])
    green.descend(CycEltN(6, 1, (1, 1)), 3)
    assert moduli and 0 not in moduli


def test_smith_basis_matches_the_hermite_route_seeded(monkeypatch):
    # U^-1 mod L by Gauss-Jordan against the exact Hermite form of the rows
    # of U and of L I: the generator columns must be equal, on seeded
    # relations that span L Z^n and on every Smith basis that hom_group asks
    # for on the dense pairs and on random modules.
    from uctbench import amod

    rng = random.Random(27)
    for L in (7, 49, 3 ** 5, 7 * 11 * 13, 3 ** 5 * 5 ** 2, 15):
        for n in (0, 1, 2, 4, 7):
            cols = [[rng.randint(-3 * L, 3 * L) if rng.random() < 0.5 else 0 for _ in range(n)]
                    for _ in range(rng.randint(0, n + 2))]
            cols += [[L if i == j else 0 for i in range(n)] for j in range(n)]
            X = IntMatrix._make(zip(*cols)) if n else IntMatrix.zero(0, len(cols))
            assert zlinalg.smith_basis(X, n, L) == reference_smith_basis_mod(X, n, L), (L, cols)
    seen = []
    real = amod.smith_basis

    def checked(X, n, L):
        got = real(X, n, L)
        assert got == reference_smith_basis_mod(X, n, L), (n, L)
        seen.append(n)
        return got

    monkeypatch.setattr(amod, "smith_basis", checked)
    for case in dense_cases()[:3] + dense_cases()[5:]:
        hom_group(*dense_pair(0, *case))
    for summand in (z2_int(), z3_cyc(), s3_crossed(), s3_unsplit()):
        for _ in range(4):
            M, N = random_module(rng, summand), random_module(rng, summand)
            for degree in (0, 1):
                hom_group(M, N, degree)
    assert len(seen) > 10 and max(seen) >= 8


def test_uct_order_keeps_every_solver_layer_and_no_stack_hermite_form(monkeypatch):
    # The benchmark's heaviest integral shape, (Z/q)^8 over summand 1 of
    # symmetric(3): one uct_order still reaches every solver layer, and takes
    # Hermite forms only to solve, in ExactSolver; U^-1 mod L comes without
    # the Hermite form of the 2n x n stack of U and L I.
    from uctbench import amod

    calls, hnf_callers = collections.Counter(), set()
    real_hnf, real_init = zlinalg.hnf, zlinalg.ExactSolver.__init__

    def hnf_spy(A):
        calls["hnf"] += 1
        hnf_callers.add(sys._getframe(1).f_code)
        return real_hnf(A)

    def count(owner, name):
        real = getattr(owner, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)

    assert not hasattr(amod, "hnf")
    monkeypatch.setattr(zlinalg, "hnf", hnf_spy)
    for owner, name in ((zlinalg, "snf"), (amod, "hom_group"), (amod, "ext_group"),
                        (zlinalg.ExactSolver, "__init__"), (zlinalg.ExactSolver, "solve")):
        count(owner, name)
    summand = s3_report().flat_summands()[1]
    rng = random.Random(8)
    M, N = (AModObject(summand, (signed_permuted_part(rng, regular_power_part(summand, 11, 8)),
                                 AModObject.zero(summand).parts[1])) for _ in range(2))
    res = uct_order(AModFamily.from_modules(s3_report(), {1: M}),
                    AModFamily.from_modules(s3_report(), {1: N}))
    assert res.degrees[0].hom_group == res.degrees[1].ext_group == FinAbGroup((11,) * 64)
    for name in ("hnf", "snf", "__init__", "solve", "hom_group", "ext_group"):
        assert calls[name], name
    assert hnf_callers == {real_init.__code__}
