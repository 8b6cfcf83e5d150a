import random

import pytest

from helpers import reference_frobenius_check, spread_then_reduce
from uctbench import green
from uctbench.cyclotomic import (
    CycEltN,
    CycPoly,
    divisors,
    evaluate_at_root,
    order_mod,
    prime_factors,
    psi,
    totient,
)
from uctbench.errors import CharacterSolveError, DescentFailure, NotADivisor, NotAUnit
from uctbench.green import (
    RepElt,
    _induce_via_characters,
    _restrict_via_characters,
    char_solve,
    conjugate_rep,
    decompose_generator,
    descend,
    frobenius_check,
    include,
    induce,
    p_idempotent,
    restrict,
    to_character,
)
from uctbench.zlinalg import congruence_kernel


def test_to_character_examples():
    one = RepElt.one(3, 3)
    assert all(v == CycEltN.one(3, 3) for v in to_character(one).values)
    z = RepElt.monomial(4, 1, 1)
    ch = to_character(z)
    assert ch.values[0] == CycEltN.one(4, 1)
    assert ch.values[1] == CycEltN(4, 1, (0, 1))       # theta_4
    assert ch.values[2] == CycEltN(4, 1, (-1, 0))      # theta_4^2 = -1
    assert ch.values[3] == CycEltN(4, 1, (0, -1))
    n = 6
    scaled = RepElt(psi(n, n) * n)
    ch = to_character(scaled)
    for j in range(n):
        want = CycEltN.from_int(n, n, n) if order_mod(j, n) == n else CycEltN.zero(n, n)
        assert ch.values[j] == want


def test_to_character_matches_evaluation_at_each_root():
    # each value read off a CRT component against the per-point evaluation
    # and against spreading the whole vector, then long division by Phi_n
    rng = random.Random(30)
    for n in range(1, 121):
        for N in (n, 6 * n):
            primes = prime_factors(N)
            den = 1
            for _ in range(rng.randint(1, 3)):
                den *= rng.choice(primes) if primes else 1
            x = RepElt(CycPoly(n, N, tuple(rng.randint(-9, 9) for _ in range(n)), den))
            assert x.value.den > 1 or N == 1, (n, N)
            values = to_character(x).values
            assert len(values) == n
            for j, v in enumerate(values):
                assert v == evaluate_at_root(x.value, j), (n, N, j)
                assert v == CycEltN(n, N, spread_then_reduce(n, x.value.num, j),
                                    x.value.den), (n, N, j)


def test_character_map_is_injective():
    # Exact kernel/rank check of the evaluation matrix for moderate n,
    # plus the explicit left inverse (char_solve) across the full range.
    for n in list(range(1, 25)) + [30, 36]:
        phi = totient(n)
        cols = []
        for e in range(n):
            ch = to_character(RepElt.monomial(n, 1, e))
            cols.append([c for v in ch.values for c in v.num])
        assert congruence_kernel(cols, [0] * (n * phi)) == [], n
    for n in list(range(1, 31)) + [36, 40, 48, 54, 60]:
        for e in (0, 1, n // 2, n - 1):
            x = RepElt.monomial(n, 1, e)
            assert char_solve(n, 1, to_character(x).values) == x, (n, e)


def _constant_component_elements(n):
    """psi_{n,k} for each k | n, integer scalars and 0, whose components are
    all constants, and sums that add to a constant one a non-constant one."""
    rng = random.Random(n)
    ps = [RepElt(psi(n, k)) for k in divisors(n)]
    yield from ps
    for c in (0, 1, -3, 7):
        yield RepElt.one(n, n) * c
    for p in ps:
        y = RepElt(CycPoly(n, n, tuple(rng.randint(-4, 4) for _ in range(n))))
        yield ps[rng.randrange(len(ps))] * 3 + y * p


def test_to_character_of_constant_components_matches_evaluation():
    # a constant component c is the value c at every root of its order,
    # built once; evaluate_at_root reduces the whole vector at each root
    mixed = 0
    for n in range(1, 41):
        for x in _constant_component_elements(n):
            values = to_character(x).values
            assert values == tuple(evaluate_at_root(x.value, j) for j in range(n)), (n, x)
            assert char_solve(n, n, values) == x, (n, x)
            # a non-constant component has irrational values
            rational = [v.is_rational() for v in values]
            mixed += any(rational) and not all(rational)
            if all(rational):  # one value object per order m | n
                assert len(set(map(id, values))) == len(divisors(n)), (n, x)
    assert mixed == 98


def test_restrict_examples():
    assert restrict(RepElt.one(6, 6), 3) == RepElt.one(3, 6)
    assert restrict(RepElt(psi(4, 4)), 2) == RepElt.zero(2, 4)
    z4 = RepElt.monomial(4, 1, 1)
    assert restrict(z4, 2) == RepElt.monomial(2, 1, 1)


def test_restrict_is_ring_hom():
    rng = random.Random(11)
    for n, k in [(4, 2), (6, 3), (6, 2), (12, 4), (12, 6)]:
        for _ in range(5):
            x = RepElt(CycPoly(n, n, tuple(rng.randint(-4, 4) for _ in range(n))))
            y = RepElt(CycPoly(n, n, tuple(rng.randint(-4, 4) for _ in range(n))))
            assert restrict(x * y, k) == restrict(x, k) * restrict(y, k)
            assert restrict(x + y, k) == restrict(x, k) + restrict(y, k)


def test_induce_examples():
    got = induce(RepElt.one(1, 1), 2)
    assert got == RepElt(CycPoly(2, 1, (1, 1)))
    p22 = p_idempotent(2, 2)
    assert induce(p22, 4) == RepElt(psi(4, 2, 2)) * 2
    assert induce(RepElt.zero(3, 3), 6).is_zero()


def test_induce_is_additive():
    rng = random.Random(12)
    for k, n in [(2, 4), (3, 6), (2, 6), (4, 12)]:
        for _ in range(5):
            x = RepElt(CycPoly(k, n, tuple(rng.randint(-4, 4) for _ in range(k))))
            y = RepElt(CycPoly(k, n, tuple(rng.randint(-4, 4) for _ in range(k))))
            assert induce(x + y, n) == induce(x, n) + induce(y, n)


def test_induction_restriction_character_composite():
    # off-K character of induce(x) vanishes; on K it is the index times x.
    rng = random.Random(13)
    for k, n in [(2, 4), (3, 6), (2, 8), (6, 12)]:
        w = n // k
        x = RepElt(CycPoly(k, n, tuple(rng.randint(-3, 3) for _ in range(k))))
        ind = induce(x, n)
        ch_ind = to_character(ind)
        ch_x = to_character(x)
        for j in range(n):
            if j % w:
                assert ch_ind.values[j].is_zero(), (k, n, j)
        back = restrict(ind, k)
        assert to_character(back).values == tuple(v * w for v in ch_x.values)


def test_conjugate_rep():
    z = RepElt.monomial(3, 1, 1)
    assert conjugate_rep(z, 1) == z
    assert conjugate_rep(z, 2) == RepElt.monomial(3, 1, 2)
    p = RepElt(psi(3, 3))
    assert conjugate_rep(p, 2) == p
    with pytest.raises(NotAUnit):
        conjugate_rep(z, 3)


def test_frobenius_identity():
    for n, k in [(4, 2), (6, 3), (6, 6), (8, 2), (12, 6)]:
        report = frobenius_check(n, k)
        assert report.passed, (n, k, report.counterexample)
        assert report.checked == n * k


def test_frobenius_check_matches_full_products():
    for n in range(1, 31):
        for k in divisors(n):
            assert frobenius_check(n, k) == reference_frobenius_check(n, k), (n, k)
    for n, k in [(6, 3), (12, 4), (20, 10)]:
        assert frobenius_check(n, k, 5 * n) == reference_frobenius_check(n, k, 5 * n)


@pytest.mark.parametrize("broken", ["restrict", "induce"])
def test_frobenius_check_failure_matches_full_products(monkeypatch, broken):
    # a map that is wrong on one input: both checks stop at the same pair
    # after the same number of checks
    real = getattr(green, broken)
    for n, k, e in [(2, 2, 1), (6, 3, 0), (6, 3, 4), (8, 4, 3), (12, 6, 5), (12, 12, 7),
                    (30, 5, 2), (30, 15, 29)]:
        m = n if broken == "restrict" else k
        bad = RepElt.monomial(m, n, e % m)

        def wrong(x, d, bad=bad):
            got = real(x, d)
            return got + got if x == bad else got

        monkeypatch.setattr(green, broken, wrong)
        report = frobenius_check(n, k)
        assert not report.passed, (broken, n, k, e)
        assert report == reference_frobenius_check(n, k), (broken, n, k, e)


def test_decompose_generator():
    single = decompose_generator(1)
    assert len(single) == 1
    assert single[0].idempotent == RepElt.one(1, 1)
    assert not single[0].induced
    two = decompose_generator(2)
    assert [(s.k, s.induced) for s in two] == [(1, True), (2, False)]
    assert two[0].idempotent == RepElt(CycPoly(2, 2, (1, 1), 2))
    assert two[1].idempotent == RepElt(CycPoly(2, 2, (1, -1), 2))
    four = decompose_generator(4)
    assert [s.k for s in four] == [1, 2, 4]


def test_decompose_generator_invariants():
    for n in (1, 2, 3, 4, 6, 8, 12):
        fam = decompose_generator(n)
        total = RepElt.zero(n, n)
        for s in fam:
            total = total + s.idempotent
            assert s.idempotent * s.idempotent == s.idempotent
            for t in fam:
                if s.k != t.k:
                    assert (s.idempotent * t.idempotent).is_zero()
            for u in range(1, n + 1):
                import math
                if math.gcd(u, n) == 1:
                    assert conjugate_rep(s.idempotent, u) == s.idempotent
        assert total == RepElt.one(n, n)


def test_descend_and_failure():
    theta4 = CycEltN(4, 1, (0, 1))
    with pytest.raises(DescentFailure):
        descend(theta4, 2)
    minus1 = CycEltN(4, 1, (-1, 0))
    assert descend(minus1, 2) == CycEltN(2, 1, (-1,))
    assert include(CycEltN(2, 1, (-1,)), 4) == minus1


def test_char_solve_rejects_non_characters():
    with pytest.raises(CharacterSolveError):
        vals = (CycEltN.zero(4, 4), CycEltN.zero(4, 4),
                CycEltN(4, 4, (0, 1)), CycEltN.zero(4, 4))
        char_solve(4, 4, vals)
    with pytest.raises(CharacterSolveError):
        # solvable over Q but needs 1/2, unavailable in Z[1/1]
        vals = (CycEltN.one(2, 1), CycEltN.zero(2, 1))
        char_solve(2, 1, vals)
    # theta_n is not rational, so no slot alone can hold it: a unit u moves
    # slot j to slot u j and theta_n to theta_n^u, and at j = 0 the value
    # would have to be rational
    for n in range(3, 25):
        theta = CycEltN.root_power(n, n, 1)
        for j in range(n):
            values = [CycEltN.zero(n, n)] * n
            values[j] = theta
            with pytest.raises(CharacterSolveError):
                char_solve(n, n, values)


@pytest.mark.parametrize("call", [
    lambda: restrict(RepElt.monomial(6, 6, 1), 0),
    lambda: restrict(RepElt.monomial(6, 6, 1), -2),
    lambda: frobenius_check(6, -2),
    lambda: induce(RepElt.monomial(3, 6, 1), 0),
    lambda: frobenius_check(0, 1),
], ids=["restrict-k0", "restrict-k-2", "frobenius-k-2", "induce-n0", "frobenius-n0"])
def test_bad_divisor_arguments_raise_not_a_divisor(call):
    with pytest.raises(NotADivisor):
        call()


def test_closed_forms_match_character_oracle_seeded():
    # restrict folds coefficients and induce lifts them; the character round
    # trip must agree on every k | n <= 30, over N in {1, n, 2n}, on elements
    # whose denominators use only primes of N.
    rng = random.Random(5)

    def element(m, N):
        den = 1
        for p in prime_factors(N):
            den *= p ** rng.randint(0, 2)
        return RepElt(CycPoly(m, N, tuple(rng.randint(-5, 5) for _ in range(m)), den))

    checked = 0
    for n in range(1, 31):
        for k in divisors(n):
            for N in (1, n, 2 * n):
                for _ in range(3):
                    x = element(n, N)
                    assert restrict(x, k) == _restrict_via_characters(x, k), (n, k, N, x)
                    y = element(k, N)
                    assert induce(y, n) == _induce_via_characters(y, n), (n, k, N, y)
                    checked += 2
    assert checked == 1998
