import math
import random

import pytest

from helpers import (
    double_loop_cyclic,
    double_loop_linear,
    double_loop_mod_phi,
    long_division_mod_phi,
    product_formula_psi,
    spread_then_reduce,
)
from uctbench.cyclotomic import (
    CycEltN,
    CycPoly,
    IntPoly,
    _ROTATIONS_UP_TO,
    _kronecker,
    _reduce_mod_phi,
    _tables,
    crt_join,
    crt_split,
    cyclotomic,
    divisors,
    evaluate_at_root,
    galois,
    order_mod,
    prime_factors,
    psi,
    totient,
)
from uctbench.crossring import CrossedElt, build_crossed_ring
from uctbench.errors import ModulusMismatch, NotADivisor, NotAUnit, PrimeNotInverted
from uctbench.green import RepElt, induce, restrict
from uctbench.groups import cyclic_classes, preset_group


def test_cyclotomic_small():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(2).coeffs == (1, 1)
    assert cyclotomic(6).coeffs == (1, -1, 1)
    assert cyclotomic(12).coeffs == (1, 0, -1, 0, 1)


def test_cyclotomic_product_identity():
    # prod_{k | n} Phi_k(z) = z^n - 1
    for n in range(1, 121):
        prod = IntPoly((1,))
        for k in divisors(n):
            prod = prod * cyclotomic(k)
        assert prod.coeffs == (-1,) + (0,) * (n - 1) + (1,), n


def test_cyclotomic_degree_is_totient():
    for n in range(1, 80):
        assert cyclotomic(n).degree == totient(n)


def test_cyclotomic_matches_sympy():
    pytest.importorskip("sympy")
    from sympy import Poly, cyclotomic_poly
    from sympy.abc import x

    for n in range(1, 121):
        theirs = Poly(cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert list(cyclotomic(n).coeffs) == [int(c) for c in theirs], n


def test_psi_hand_values():
    assert psi(2, 1).num == (1, 1) and psi(2, 1).den == 2
    assert psi(2, 2).num == (1, -1) and psi(2, 2).den == 2
    assert psi(1, 1) == CycPoly.one(1, 1)


def test_psi_requires_divisor():
    with pytest.raises(NotADivisor):
        psi(4, 3)


def test_psi_denominator_needs_inversion():
    with pytest.raises(PrimeNotInverted):
        psi(2, 1, N=3)


def test_psi_idempotent_laws():
    for n in range(1, 31):
        ds = divisors(n)
        ps = {k: psi(n, k) for k in ds}
        one = CycPoly.one(n, n)
        zero = CycPoly.zero(n, n)
        total = zero
        for k in ds:
            total = total + ps[k]
            assert ps[k] * ps[k] == ps[k], (n, k)
            for l in ds:
                if l != k:
                    assert ps[k] * ps[l] == zero, (n, k, l)
        assert total == one, n


def test_n_psi_is_integral():
    for n in range(1, 41):
        for k in divisors(n):
            assert (psi(n, k) * n).den == 1, (n, k)


def test_ring_ops_and_mismatch():
    a = CycPoly(4, 2, (1, 2, 0, -1))
    one = CycPoly.one(4, 2)
    assert a * one == a
    assert a + CycPoly.zero(4, 2) == a
    with pytest.raises(ModulusMismatch):
        a * CycPoly.one(3, 2)
    with pytest.raises(ModulusMismatch):
        a + CycPoly.one(4, 6)


def test_evaluate_at_root_examples():
    z = CycPoly.monomial(5, 1, 1)
    assert evaluate_at_root(z, 0) == CycEltN.one(5, 1)
    # psi(6,3) is the characteristic function of elements of order 3 in Z/6.
    p63 = psi(6, 3)
    assert evaluate_at_root(p63, 2) == CycEltN.one(6, 6)
    assert evaluate_at_root(p63, 3) == CycEltN.zero(6, 6)
    onez = CycPoly(2, 2, (1, 1))
    assert evaluate_at_root(onez, 1) == CycEltN.zero(2, 2)


def test_character_of_psi_is_order_indicator():
    for n in range(1, 31):
        for k in divisors(n):
            p = psi(n, k)
            for j in range(n):
                want = CycEltN.one(n, n) if order_mod(j, n) == k else CycEltN.zero(n, n)
                assert evaluate_at_root(p, j) == want, (n, k, j)


def test_galois():
    a = CycEltN(3, 1, (0, 1))  # theta_3
    assert galois(a, 1) == a
    assert galois(a, 2) == CycEltN(3, 1, (-1, -1))
    b = CycEltN(5, 1, (0, 1, 0, 0))
    assert galois(galois(b, 2), 3) == b  # 2*3 = 1 mod 5
    with pytest.raises(NotAUnit):
        galois(b, 5)


def test_crt_split_examples():
    z = CycPoly.monomial(2, 2, 1)
    parts = crt_split(z)
    assert parts[1] == CycEltN(1, 2, (1,))
    assert parts[2] == CycEltN(2, 2, (-1,))
    one = CycPoly.one(6, 6)
    for k, v in crt_split(one).items():
        assert v == CycEltN.one(k, 6), k


def test_crt_split_requires_inversion():
    with pytest.raises(PrimeNotInverted):
        crt_split(CycPoly.monomial(2, 1, 1))


def test_crt_roundtrip_and_multiplicativity():
    a = CycPoly(3, 3, (3, 5, 7))
    assert crt_join(crt_split(a)) == a
    rng = random.Random(7)
    for n in (2, 3, 4, 6, 8, 9, 12):
        for _ in range(10):
            x = CycPoly(n, n, tuple(rng.randint(-5, 5) for _ in range(n)))
            y = CycPoly(n, n, tuple(rng.randint(-5, 5) for _ in range(n)))
            assert crt_join(crt_split(x)) == x
            sx, sy, sxy = crt_split(x), crt_split(y), crt_split(x * y)
            for k in divisors(n):
                assert sx[k] * sy[k] == sxy[k], (n, k)


def test_cyceltn_arithmetic():
    t = CycEltN(4, 2, (0, 1))  # theta_4 = i
    assert t * t == CycEltN.from_int(4, 2, -1)
    half = CycEltN(4, 2, (1, 0), 2)
    assert half + half == CycEltN.one(4, 2)
    assert (half * 2) == CycEltN.one(4, 2)


def test_denominator_normalization():
    a = CycPoly(2, 6, (2, 4), 6)
    assert a.num == (1, 2) and a.den == 3
    z = CycPoly(3, 3, (0, 0, 0), 9)
    assert z.den == 1


def test_json_roundtrip():
    import json

    a = psi(6, 3)
    blob = json.dumps(a.to_json_dict())
    back = CycPoly.from_json_dict(json.loads(blob))
    assert back == a
    big = CycEltN(4, 2, (10 ** 30 + 1, -(10 ** 25)), 4)
    parsed = json.loads(json.dumps(big.to_json_dict()))
    assert parsed["coeffs"][0] == str(10 ** 30 + 1)
    assert parsed["den"] == "4"
    assert CycEltN.from_json_dict(parsed) == big


def test_shared_arithmetic_keeps_the_operand_type():
    for cls, n in ((CycPoly, 6), (CycEltN, 6), (CycPoly, 1), (CycEltN, 1)):
        size = n if cls is CycPoly else totient(n)
        x = cls(n, 6, tuple(range(1, size + 1)), 2)
        y = cls.one(n, 6)
        results = [x + y, x - y, -x, x * y, x * 3, 3 * x, cls.zero(n, 6),
                   cls.from_json_dict(x.to_json_dict())]
        assert all(type(v) is cls for v in results), cls
    # n = 1: both rings are Z[1/N] with one slot, yet the types stay apart
    for N, num, den in ((1, (5,), 1), (6, (1,), 6), (1, (0,), 1)):
        p, e = CycPoly(1, N, num, den), CycEltN(1, N, num, den)
        assert (p.n, p.N, p.num, p.den) == (e.n, e.N, e.num, e.den)
        assert p != e and e != p
    assert CycPoly.one(1, 1) != CycEltN.one(1, 1)


def test_from_json_dict_still_validates_the_denominator():
    with pytest.raises(PrimeNotInverted):
        CycPoly.from_json_dict({"n": 3, "N": 3, "den": "2", "coeffs": ["1", "0", "0"]})
    with pytest.raises(PrimeNotInverted):
        CycEltN.from_json_dict({"n": 5, "N": 5, "den": "6", "coeffs": ["1", "1", "0", "0"]})


def _check_rebuilds(r):
    assert type(r.num) is tuple, r
    assert all(type(c) is int for c in r.num), r
    assert type(r)(r.n, r.N, r.num, r.den) == r, r


def test_arithmetic_results_equal_their_validated_rebuild():
    # arithmetic builds its results without validation; each must equal what
    # the validating constructor builds from the result's own fields
    rng = random.Random(15)
    for _ in range(40):
        n = rng.randint(1, 40)
        N = math.prod(prime_factors(n)) * rng.choice((1, 5, 7 * 11))
        units = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]

        def draw(cls):
            den = math.prod(p ** rng.randint(0, 2) for p in prime_factors(N))
            size = n if cls is CycPoly else totient(n)
            return cls(n, N, tuple(rng.randint(-6, 6) * rng.choice((1, 2, 3))
                                   for _ in range(size)), den)

        pools = {cls: [draw(cls) for _ in range(3)] for cls in (CycPoly, CycEltN)}
        for _ in range(12):
            cls = rng.choice((CycPoly, CycEltN))
            x, y = rng.choice(pools[cls]), rng.choice(pools[cls])
            c = rng.randint(-4, 4)
            results = [x + y, x - y, -x, c * x, x * c, x * y]
            if cls is CycPoly:
                k = rng.choice(divisors(n))
                res = restrict(RepElt(x), k).value
                results += [evaluate_at_root(x, rng.randrange(n)),
                            x.shift(rng.randint(-2 * n, 2 * n)),
                            x.substitute_power(rng.randint(-2 * n, 2 * n)),
                            crt_join(crt_split(x)), res, induce(RepElt(res), n).value]
                results.extend(crt_split(x).values())
            else:
                results.append(galois(x, rng.choice(units)))
            for r in results:
                _check_rebuilds(r)
                if r.n == n:
                    pools[type(r)].append(r)
    # crossed products, twisted Weyl units included, over N with an extra prime
    for name in ("cyclic(5)", "symmetric(3)", "dihedral(4)", "dihedral(5)"):
        G = preset_group(name)
        for C in cyclic_classes(G):
            ring = build_crossed_ring(C, 7 * G.order)
            dens = [p ** e for p in prime_factors(ring.N) for e in (0, 2)]

            def crossed():
                return CrossedElt(ring, tuple(
                    CycEltN(ring.n, ring.N, tuple(rng.randint(-5, 5) for _ in range(totient(ring.n))),
                            rng.choice(dens))
                    for _ in range(ring.weyl_order)))

            for _ in range(3):
                for r in (crossed() * crossed()).coeffs:
                    _check_rebuilds(r)


# ---------------------------------------------------------------------------
# the sparse kernels against their dense references (tests/helpers.py)


def _operands(rng, size):
    """Seeded operands of every density: all zero, a monomial, entries in
    {-1, 0, 1}, entries in {-10**30, 0, 10**30}, a random density; for two
    widths b, a constant +-2^b vector and one of entries +-(2^b - 1) and
    +-2^b, whose products reach the slot bound of `_kronecker`; and exactly
    _ROTATIONS_UP_TO and one more nonzero terms, either side of the CycPoly
    switch from rotations to Kronecker substitution."""
    mono = [0] * size
    mono[rng.randrange(size)] = rng.choice((1, -1, 7))
    density = rng.random()
    ops = [
        [0] * size,
        mono,
        [rng.choice((-1, 0, 1)) for _ in range(size)],
        [rng.choice((-10 ** 30, 0, 10 ** 30)) for _ in range(size)],
        [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(size)],
    ]
    for b in rng.sample((3, 4, 7, 8, 31, 32, 63, 64), 2):
        ops.append([rng.choice((2 ** b, -2 ** b))] * size)
        ops.append([rng.choice((2 ** b - 1, 1 - 2 ** b, 2 ** b, -2 ** b)) for _ in range(size)])
    for terms in (_ROTATIONS_UP_TO, _ROTATIONS_UP_TO + 1):
        if terms <= size:
            op = [0] * size
            for i in rng.sample(range(size), terms):
                op[i] = rng.choice((-5, -1, 1, 2))
            ops.append(op)
    return ops


def test_psi_matches_product_formula():
    for n in range(1, 121):
        for k in divisors(n):
            assert psi(n, k) == product_formula_psi(n, k), (n, k)


def test_psi_matches_product_formula_over_larger_n():
    # N = 2n and 6n invert primes outside n; n from 121 to 400 are the
    # psi-identities widths above test_psi_matches_product_formula, and 360
    # is the n <= 400 with the most divisors
    for n in range(1, 121):
        for k in divisors(n):
            want = product_formula_psi(n, k)
            for N in (2 * n, 6 * n):
                assert psi(n, k, N) == want.with_inverted(N), (n, k, N)
    for n in random.Random(16).sample(range(121, 401), 40) + [360]:
        for k in divisors(n):
            assert psi(n, k) == product_formula_psi(n, k), (n, k)


def test_sparse_power_table_is_z_to_the_t_mod_phi():
    for n in range(1, 101):
        table = _tables(n)
        assert len(table.powers) == n, n
        for t, pairs in enumerate(table.powers):
            slots = [s for s, _ in pairs]
            assert slots == sorted(set(slots)), (n, t)
            assert all(c != 0 for _, c in pairs), (n, t)
            dense = [0] * totient(n)
            for s, c in pairs:
                dense[s] = c
            assert dense == long_division_mod_phi(n, [0] * t + [1]), (n, t)


def test_cycpoly_products_match_double_loop():
    rng = random.Random(11)
    # 100-150: the widths of psi-identities at its benchmark and CI bounds
    for n in (1, 2, 3, 4, 5, 6, 12, 13, 30, 37, 60, 97, 100, 120, 150):
        for _ in range(3 if n < 100 else 1):
            ops = _operands(rng, n)
            for a in ops:
                for b in ops:
                    got = CycPoly(n, 1, tuple(a)) * CycPoly(n, 1, tuple(b))
                    assert got == CycPoly(n, 1, tuple(double_loop_cyclic(n, a, b))), (n, a, b)


def test_cyceltn_products_match_double_loop():
    rng = random.Random(12)
    for n in (1, 2, 3, 4, 5, 7, 12, 15, 30, 37, 60, 97):
        size = totient(n)
        for _ in range(3):
            ops = _operands(rng, size)
            for a in ops:
                for b in ops:
                    got = CycEltN(n, 1, tuple(a)) * CycEltN(n, 1, tuple(b))
                    assert got == CycEltN(n, 1, tuple(double_loop_mod_phi(n, a, b))), (n, a, b)


def test_intpoly_products_match_double_loop():
    # IntPoly drops trailing zeros, so the operands also meet at unequal
    # lengths and as the zero polynomial
    rng = random.Random(13)
    for la, lb in ((1, 1), (1, 9), (5, 17), (30, 30), (64, 33)):
        for a in _operands(rng, la):
            for b in _operands(rng, lb):
                want = IntPoly(tuple(double_loop_linear(a, b)))
                assert IntPoly(tuple(a)) * IntPoly(tuple(b)) == want, (a, b)
                assert IntPoly(tuple(b)) * IntPoly(tuple(a)) == want, (a, b)


def test_kronecker_is_the_linear_double_loop():
    rng = random.Random(14)
    for la, lb in ((1, 1), (1, 9), (9, 1), (5, 17), (30, 30), (64, 33), (150, 150)):
        for a in _operands(rng, la):
            b = rng.choice(_operands(rng, lb))
            assert _kronecker(a, b) == double_loop_linear(a, b), (a, b)
            assert _kronecker(b, a) == double_loop_linear(b, a), (a, b)
    assert _kronecker([0, 0, 0], [5, -7]) == [0, 0, 0, 0]
    assert _kronecker([-3], [0] * 4) == [0] * 4


def test_kronecker_at_every_slot_width_border():
    # products whose slots reach just below and exactly 2^bits, bits =
    # 8 nb - 1, for slot widths nb = 1, 2, 4 and 8 bytes (2^bits steps up to
    # the next width), and far above 8 bytes: constant factors of length m
    # meet in a middle slot m * x * s, and one entry against +-1 fills every
    # slot
    cases = []
    for bits in (7, 15, 31, 63, 200):
        for v in (2 ** bits - 1, 2 ** bits):
            m = next((d for d in range(2, 200) if v % d == 0), 1)
            for s in (1, -1):
                cases.append(([v // m] * m, [s] * m))
                cases.append(([s * v], [1, -1, 0, 1]))
    for a, b in cases:
        got = _kronecker(a, b)
        assert got == double_loop_linear(a, b), (a, b)
        assert max(map(abs, got)) == abs(a[0] * b[0]) * min(len(a), len(b)), (a, b)
    # unequal lengths, factors of one sign and zero factors at each width
    rng = random.Random(15)
    for la, lb in ((1, 150), (150, 1), (17, 5), (5, 17)):
        for top in (1, 2 ** 7, 2 ** 15, 2 ** 31, 2 ** 63, 10 ** 30):
            a = [-rng.randint(1, top) for _ in range(la)]
            b = [-rng.randint(1, top) for _ in range(lb)]
            for x, y in ((a, b), (a, [-c for c in b]), ([0] * la, b), (a, [0] * lb)):
                assert _kronecker(x, y) == double_loop_linear(x, y), (x, y)


def test_reduce_mod_phi_is_spread_then_dense_reduce():
    # the lengths of a CycEltN product, a CycPoly and a vector past 2n, each
    # sparse and dense, spread by every k from -n to n (non-units included)
    rng = random.Random(13)
    for n in range(1, 61):
        for length in (2 * totient(n) - 1, n, 2 * n + 3):
            for k in range(-n, n + 1):
                density = rng.choice((0.2, 1.0))
                vec = [rng.randint(-5, 5) if rng.random() < density else 0
                       for _ in range(length)]
                assert list(_reduce_mod_phi(n, vec, k)) == spread_then_reduce(n, vec, k), \
                    (n, length, k)


def test_shift_is_multiplication_by_a_monomial():
    rng = random.Random(16)
    dens_seen = set()
    for n in (1, 2, 5, 6, 12, 30, 49, 60):
        for N in (n, 35 * n):
            dens = [p ** e for p in prime_factors(N) for e in (0, 2)] or [1]
            xs = [CycPoly.zero(n, N)] + [
                CycPoly(n, N, tuple(rng.randint(-6, 6) for _ in range(n)), rng.choice(dens))
                for _ in range(3)]
            for x in xs:
                dens_seen.add(x.den > 1)
                for e in (0, 1, n - 1, n, n + 3, 3 * n + 1, -1, -n, -2 * n - 5):
                    got = x.shift(e)
                    assert got == CycPoly.monomial(n, N, e) * x, (n, N, x, e)
                    _check_rebuilds(got)
    assert dens_seen == {False, True}


def test_root_power_is_repeated_multiplication_by_theta():
    for n in range(1, 61):
        theta = long_division_mod_phi(n, [0, 1])
        cur = long_division_mod_phi(n, [1])
        for t in range(2 * n):
            want = CycEltN(n, 1, tuple(cur))
            assert CycEltN.root_power(n, 1, t) == want, (n, t)
            assert CycEltN.root_power(n, 1, t - 2 * n) == want, (n, t)
            cur = double_loop_mod_phi(n, cur, theta)


@pytest.mark.parametrize("build", [
    lambda: CycPoly(3, 3, (1.5, 0, 0)),
    lambda: CycPoly(3, 3, ("7", 0, 0)),
    lambda: CycEltN(3, 3, (0, 2.0)),
    lambda: CycPoly.monomial(3, 3, 1, 2.5),
    lambda: CycPoly.monomial(3, 3, 1, "2"),
    lambda: CycPoly.monomial(3, 3, 1.0),
    lambda: CycPoly.monomial(3.0, 3, 1),
    lambda: CycPoly.monomial(3, 3.0, 1),
    lambda: CycPoly(3.0, 3, (1, 0, 0)),
    lambda: CycPoly(3, 3.0, (1, 0, 0)),
    lambda: CycEltN(3, 3, (1, 0), 1.0),
    lambda: IntPoly((1.5, 7, 2)),
    lambda: IntPoly((1, "7", 2)),
], ids=["float-coeff", "str-coeff", "cyceltn-float", "monomial-float-coeff",
        "monomial-str-coeff", "monomial-float-e", "monomial-float-n", "monomial-float-N",
        "float-n", "float-N", "float-den", "intpoly-float", "intpoly-str"])
def test_non_integer_coefficients_raise_type_error(build):
    # int() turned 1.5 into 1 and "7" into 7; a float n built an element
    # whose first product failed, and den=1.0 was read as 1
    with pytest.raises(TypeError):
        build()


def test_monomial_is_the_validated_constructor():
    for n in range(1, 13):
        for N in (1, 2, n):
            for e in range(-n - 1, 2 * n + 1):
                for coeff in (1, -1, 0, 5, 10 ** 30):
                    num = [0] * n
                    num[e % n] = coeff
                    got = CycPoly.monomial(n, N, e, coeff)
                    assert got == CycPoly(n, N, tuple(num)), (n, N, e, coeff)
                    assert type(got.num) is tuple and got.den == 1
    for n, N in ((0, 1), (-2, 1), (3, 0), (3, -3)):
        with pytest.raises(ValueError):
            CycPoly(n, N, (0,) * max(n, 0))
        with pytest.raises(ValueError):
            CycPoly.monomial(n, N, 0)
