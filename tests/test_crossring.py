import contextlib
import io
import json
import math
import random
from pathlib import Path

import pytest

from uctbench import crossring
from uctbench.amod import presentation_of
from uctbench.cli import _crossed_preset_names, main
from uctbench.cyclotomic import CycEltN, cyclotomic, prime_factors, totient
from uctbench.errors import InsufficientInversion, RingMismatch
from uctbench.crossring import (
    CrossedElt,
    CrossedRing,
    RingSummand,
    _abelian_characters,
    _splits,
    build_crossed_ring,
    crossed_mul,
    crossed_relations,
    regular_representation,
    split_ring,
    splitting_idempotents,
    target_category,
)
from uctbench.groups import _Law, _Rows, cyclic_classes, preset_group
from uctbench.zlinalg import IntMatrix

from helpers import (
    bfs_abelian_characters,
    reference_crossed_relations,
    reference_split_ring,
    root_sum_idempotent_coefficients,
    termwise_crossed_mul,
)


def ring_for(group_name, class_order, N=None):
    G = preset_group(group_name)
    C = next(c for c in cyclic_classes(G) if c.n == class_order)
    return build_crossed_ring(C, G.order if N is None else N)


def test_build_crossed_ring_examples():
    r = ring_for("klein_four", 1, N=4)
    assert (r.n, r.weyl_order, r.rank) == (1, 4, 4)
    r = ring_for("symmetric(3)", 3, N=6)
    assert (r.n, r.weyl_order, r.rank) == (3, 2, 4)
    assert sorted(r.weyl_units) == [1, 2]
    for p in (2, 3, 5):
        r = ring_for(f"cyclic({p})", p)
        assert r.weyl_order == 1 and r.rank == p - 1 if p > 2 else True


def test_build_crossed_ring_requires_inversion():
    G = preset_group("klein_four")
    C = cyclic_classes(G)[0]
    with pytest.raises(InsufficientInversion):
        build_crossed_ring(C, 3)


def test_crossed_mul_twisted_relation():
    # In Z[theta_3, 1/6] x| Z/2 with inversion action: w z w^-1 = z^2 = -1 - z.
    r = ring_for("symmetric(3)", 3, N=6)
    theta = CycEltN(3, 6, (0, 1))
    z = CrossedElt.from_parts(r, {0: theta})
    w = CrossedElt.from_parts(r, {1: CycEltN.one(3, 6)})
    conj = w * z * w  # w has order 2
    assert conj == z * z
    assert conj == CrossedElt.from_parts(r, {0: CycEltN(3, 6, (-1, -1))})


def _random_crossed_elt(rng, ring):
    """Random coefficients, some zero, over denominators built from the
    primes of N."""
    dens = [1] + [p ** k for p in prime_factors(ring.N) for k in (1, 2)]
    deg = totient(ring.n)
    coeffs = []
    for _ in range(ring.weyl_order):
        if rng.random() < 0.25:
            coeffs.append(CycEltN.zero(ring.n, ring.N))
        else:
            num = tuple(rng.randint(-5, 5) for _ in range(deg))
            coeffs.append(CycEltN(ring.n, ring.N, num, rng.choice(dens) * rng.choice(dens)))
    return CrossedElt(ring, tuple(coeffs))


def test_crossed_product_matches_termwise():
    # the one-denominator product against one CycEltN product and sum per
    # pair of terms, over every class of every preset of order <= 24,
    # twisted Weyl units included (symmetric(3), dihedral(4), dihedral(5))
    rng = random.Random(24)
    twisted = 0
    for name in _crossed_preset_names(24):
        G = preset_group(name)
        for C in cyclic_classes(G):
            ring = build_crossed_ring(C, G.order)
            twisted += any(u != 1 for u in ring.weyl_units)
            zero = CrossedElt.zero(ring)
            for _ in range(3):
                x, y = _random_crossed_elt(rng, ring), _random_crossed_elt(rng, ring)
                assert x * y == termwise_crossed_mul(x, y), (name, C.n)
            assert x * zero == zero and zero * x == zero
    assert twisted >= 10


def test_crossed_identity_and_mismatch():
    r = ring_for("symmetric(3)", 3, N=6)
    one = CrossedElt.one(r)
    x = CrossedElt.from_parts(r, {0: CycEltN(3, 6, (2, -1)), 1: CycEltN(3, 6, (0, 3))})
    assert one * x == x and x * one == x
    other = ring_for("klein_four", 2)
    with pytest.raises(RingMismatch):
        crossed_mul(x, CrossedElt.one(other))


def test_idempotents_in_group_ring_z2():
    # (1 +- w)/2 are complementary idempotents in Z[1/2][Z/2].
    r = ring_for("klein_four", 2)
    assert (r.n, r.weyl_order) == (2, 2)
    half = CycEltN.from_int(2, 4, 1, den=2)
    ep = CrossedElt.from_parts(r, {0: half, 1: half})
    em = CrossedElt.from_parts(r, {0: half, 1: CycEltN.from_int(2, 4, -1, den=2)})
    assert ep * ep == ep
    assert em * em == em
    assert (ep * em).is_zero()
    assert ep + em == CrossedElt.one(r)


def mat_poly(coeffs, M):
    n = M.rows
    out = IntMatrix.zero(n, n)
    power = IntMatrix.identity(n)
    for c in coeffs:
        if c:
            out = IntMatrix.from_rows(
                [[out.entries[i][j] + c * power.entries[i][j] for j in range(n)]
                 for i in range(n)]
            )
        power = M @ power
    return out


def mat_pow(M, k):
    out = IntMatrix.identity(M.rows)
    for _ in range(k):
        out = out @ M
    return out


@pytest.mark.parametrize("group,order", [
    ("klein_four", 1), ("klein_four", 2),
    ("symmetric(3)", 1), ("symmetric(3)", 2), ("symmetric(3)", 3),
    ("cyclic(4)", 4), ("dihedral(4)", 4),
])
def test_regular_representation_relations(group, order):
    r = ring_for(group, order)
    rep = regular_representation(r)
    rank = r.rank
    assert rep.z.rows == rank
    # Phi_n(Z) = 0
    assert mat_poly(cyclotomic(r.n).coeffs, rep.z) == IntMatrix.zero(rank, rank)
    # identity coset acts as the identity
    assert rep.cosets[0] == IntMatrix.identity(rank)
    # Weyl table relations and twisted commutation
    for a in range(r.weyl_order):
        for b in range(r.weyl_order):
            assert rep.cosets[a] @ rep.cosets[b] == rep.cosets[r.weyl_table[a][b]]
        assert rep.cosets[a] @ rep.z == mat_pow(rep.z, r.weyl_units[a]) @ rep.cosets[a]


def test_regular_representation_z3_companion():
    r = ring_for("symmetric(3)", 3, N=6)
    rep = regular_representation(r)
    # top-left block is the companion matrix of Phi_3 = x^2 + x + 1
    assert [row[:2] for row in rep.z.entries[:2]] == [(0, -1), (1, -1)]


def test_split_ring_group_ring_of_zp():
    for p in (2, 3, 5, 7):
        r = ring_for(f"cyclic({p})", 1)
        parts = split_ring(r)
        assert [(s.kind, s.d, s.multiplicity) for s in parts] == (
            [("integral_local", 1, 1),
             ("integral_local" if p == 2 else "cyclotomic_local", p, 1)]
        )


def test_split_ring_sign_case():
    r = ring_for("klein_four", 2)
    parts = split_ring(r)
    assert len(parts) == 1 and parts[0].multiplicity == 2
    assert parts[0].kind == "integral_local" and parts[0].d == 2


def test_split_ring_unsplit_cases():
    r = ring_for("symmetric(3)", 3)
    parts = split_ring(r)
    assert [s.kind for s in parts] == ["unsplit_crossed"]
    assert splitting_idempotents(r) is None
    r = ring_for("symmetric(3)", 1)  # Z[1/6][S3], non-abelian Weyl group
    assert [s.kind for s in split_ring(r)] == ["unsplit_crossed"]


# (kind, d, multiplicity) of the summands, where a case pins them
SPLIT_LABELS = {
    # sign characters at odd n: W = Z/2 acting trivially on theta_3
    ("cyclic(6)", 3): [("cyclotomic_local", 3, 2)],
    ("cyclic(2)", 1): [("integral_local", 1, 1), ("integral_local", 2, 1)],
    # trivial Weyl group
    ("cyclic(5)", 5): [("cyclotomic_local", 5, 1)],
}


@pytest.mark.parametrize("group,order", [
    ("klein_four", 1), ("klein_four", 2), ("cyclic(3)", 1), ("cyclic(5)", 1),
    ("cyclic(12)", 1), ("cyclic(12)", 4), ("symmetric(3)", 2),
    ("direct_product(cyclic(2),cyclic(4))", 1),
    ("cyclic(6)", 3), ("cyclic(2)", 1), ("cyclic(5)", 5),
])
def test_split_ring_rank_and_idempotents(group, order):
    r = ring_for(group, order)
    parts = split_ring(r)
    if (group, order) in SPLIT_LABELS:
        assert [(s.kind, s.d, s.multiplicity) for s in parts] == SPLIT_LABELS[group, order]
    assert sum(s.rank() * s.multiplicity for s in parts) == r.rank
    idems = splitting_idempotents(r)
    if idems is None:
        assert parts[0].kind == "unsplit_crossed"
        return
    assert len(idems) == sum(s.multiplicity for s in parts)
    total = CrossedElt.zero(r)
    for i, e in enumerate(idems):
        total = total + e
        assert e * e == e, (group, order, i)
        for j, f in enumerate(idems):
            if i != j:
                assert (e * f).is_zero(), (group, order, i, j)
    assert total == CrossedElt.one(r)


def test_split_ring_hand_built_trivial_weyl_group():
    # Z[theta_3, 1/2] with trivial W: the prime 3 of n is not inverted, but
    # the ring is already commutative and is its own single summand.
    r = CrossedRing(3, 2, ((0,),), (1,))
    assert split_ring(r) == [
        RingSummand("cyclotomic_local", 3, 2, provenance="character orbit of order 1")]
    assert splitting_idempotents(r) == [CrossedElt.one(r)]


ORACLE_PRESETS = (
    [f"cyclic({n})" for n in range(1, 49)]
    + [f"dihedral({n})" for n in range(2, 25)]
    + ["klein_four", "symmetric(3)", "symmetric(4)",
       "direct_product(cyclic(2),cyclic(4))", "direct_product(cyclic(4),cyclic(4))",
       "direct_product(cyclic(3),cyclic(3))", "direct_product(cyclic(6),cyclic(6))",
       "direct_product(cyclic(2),dihedral(4))", "direct_product(klein_four,cyclic(3))",
       "direct_product(cyclic(2),direct_product(cyclic(2),cyclic(2)))"]
)


def test_splitting_idempotents_match_root_sums():
    # Closed form against the direct route: the coefficient of w in |W|
    # times an orbit's idempotent is the sum of chi(w^-1) over the orbit,
    # added up as roots of unity.  The rule must apply exactly to abelian W
    # acting trivially with |W| inverted, at n = 1 or exponent <= 2.
    applied = 0
    for name in ORACLE_PRESETS:
        G = preset_group(name)
        for C in cyclic_classes(G):
            r = build_crossed_ring(C, G.order)
            table, m = r.weyl_table, r.weyl_order
            applies = (all(table[a][b] == table[b][a] for a in range(m) for b in range(m))
                       and (r.n == 1 or set(r.weyl_units) == {1})
                       and all(r.N % p == 0 for p in prime_factors(m))
                       and (r.n == 1 or all(table[w][w] == 0 for w in range(m))))
            idems = splitting_idempotents(r)
            assert (idems is not None) == applies, (name, C.n)
            if idems is None:
                continue
            applied += 1
            expected = [CrossedElt(r, tuple(CycEltN.from_int(r.n, r.N, c, den=m) for c in row))
                        for row in root_sum_idempotent_coefficients(r)]
            assert idems == expected, (name, C.n)
    assert applied > 150


def test_abelian_characters_match_bfs_reference():
    # the characters by extension against one walk per assignment, on every
    # abelian Weyl table of the oracle presets and of cyclic(720)
    tables = set()
    for name in ORACLE_PRESETS + ["cyclic(720)"]:
        for C in cyclic_classes(preset_group(name)):
            m = C.weyl_order
            if all(C.weyl_table[a][b] == C.weyl_table[b][a] for a in range(m) for b in range(m)):
                tables.add(C.weyl_table)
    assert len(tables) > 60
    for table in tables:
        chars, e, gens = _abelian_characters(table)
        ref_chars, ref_e = bfs_abelian_characters(table)
        assert e == ref_e
        assert sorted(chars) == sorted(ref_chars)
        # the generators' values fix a character: the split keys orbits on them
        assert len({tuple(chi[g] for g in gens) for chi in chars}) == len(table)


def test_abelian_characters_of_order_720_products():
    # beyond the reach of the BFS oracle (180^3 assignments for V4 x C180),
    # on every Weyl table of three abelian groups: each returned vector is a
    # homomorphism on the generators, they are |W| distinct ones, and e is
    # the lcm of the element orders.  In C2 x C6 x C60 some generator's first
    # power inside the subgroup reached so far is not the identity, so the
    # extension's shift chi(g^t) / t is exercised.
    tables = set()
    for name in ("direct_product(klein_four,cyclic(180))",
                 "direct_product(klein_four,direct_product(klein_four,cyclic(45)))",
                 "direct_product(cyclic(2),direct_product(cyclic(6),cyclic(60)))"):
        tables |= {C.weyl_table for C in cyclic_classes(preset_group(name))}
    assert len(tables) > 20
    for table in map(tuple, tables):
        m = len(table)
        chars, e, gens = _abelian_characters(table)
        orders = []
        for x in range(m):
            y, o = x, 1
            while y != 0:
                y, o = table[y][x], o + 1
            orders.append(o)
        assert e == math.lcm(*orders)
        assert len(chars) == m and len(set(chars)) == m
        for g in gens:
            column = [row[g] for row in table]
            for chi in chars:
                assert all((chi[y] - chi[x] - chi[g]) % e == 0
                           for x, y in enumerate(column)), (m, g)


def test_split_ring_counts_match_character_orbits():
    # Perlis-Walker's count of cyclic subgroups against one summand per
    # Galois orbit of the characters, built by the BFS oracle, on every
    # class of the oracle presets and of cyclic(720)
    split = 0
    for name in ORACLE_PRESETS + ["cyclic(720)"]:
        G = preset_group(name)
        for C in cyclic_classes(G):
            r = build_crossed_ring(C, G.order)
            # equal kind, d, N, multiplicity and provenance (and ring)
            got = split_ring(r)
            assert got == reference_split_ring(r), (name, C.n)
            split += got[0].kind != "unsplit_crossed"
    assert split > 150


def test_split_ring_counts_match_orbits_on_order_720_products():
    # beyond the reach of the BFS oracle: the orbits of the production
    # characters instead, on every class of three abelian groups
    for name in ("direct_product(klein_four,cyclic(180))",
                 "direct_product(klein_four,direct_product(klein_four,cyclic(45)))",
                 "direct_product(cyclic(2),direct_product(cyclic(6),cyclic(60)))"):
        G = preset_group(name)
        for C in cyclic_classes(G):
            r = build_crossed_ring(C, G.order)
            assert split_ring(r) == reference_split_ring(r, _abelian_characters), (name, C.n)


def test_report_path_builds_no_characters(monkeypatch):
    # split_ring counts; only splitting_idempotents needs W's characters
    def refuse(table):
        raise AssertionError("characters built for a report")

    monkeypatch.setattr(crossring, "_abelian_characters", refuse)
    golden = Path(__file__).parent / "golden"
    for name, stem in (("cyclic(720)", "cyclic720"),
                       ("direct_product(klein_four,cyclic(180))", "v4xc180")):
        report = target_category(preset_group(name))
        want = json.loads((golden / f"target-category_{stem}.txt").read_text(encoding="utf-8"))
        assert report.to_json_dict() == want, name
    with pytest.raises(AssertionError, match="characters"):
        splitting_idempotents(ring_for("klein_four", 1, N=4))


# every order-720 preset of the benchmark's target-category ladder, with its
# golden file, and the costliest report within the preset bound
REPORT_GOLDENS = (
    ("cyclic(720)", "cyclic720"), ("dihedral(360)", "dihedral360"),
    ("symmetric(6)", "symmetric6"), ("direct_product(symmetric(4),cyclic(30))", "s4xc30"),
    ("direct_product(symmetric(5),cyclic(6))", "s5xc6"),
    ("direct_product(klein_four,dihedral(30))", "v4xd30"), ("cyclic(5040)", "cyclic5040"),
)


def _refuse_tables(monkeypatch):
    def refuse(self):
        raise AssertionError("a table was built")

    monkeypatch.setattr(_Law, "_build", refuse)


def test_report_path_builds_no_tables(monkeypatch):
    # a preset's products come from its rule and Weyl products from the
    # coset representatives: no Cayley or Weyl table is built for a report
    _refuse_tables(monkeypatch)
    golden = Path(__file__).parent / "golden"
    for name, stem in REPORT_GOLDENS:
        report = target_category(preset_group(name))
        want = (golden / f"target-category_{stem}.txt").read_text(encoding="utf-8")
        assert json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n" == want, name
    with pytest.raises(AssertionError, match="table was built"):
        regular_representation(ring_for("symmetric(3)", 3))


def test_reports_compare_and_hash_by_value_without_tables(monkeypatch):
    # two reports of one preset, built independently, are equal and hash
    # alike with no table built
    _refuse_tables(monkeypatch)
    for name in ("cyclic(720)", "symmetric(6)", "direct_product(symmetric(5),cyclic(6))"):
        a, b = (target_category(preset_group(name)) for _ in range(2))
        assert a == b and not a != b and hash(a) == hash(b), name
    monkeypatch.undo()
    # a ring given an explicit table equals the one built from the rule and
    # hashes like it
    for name in ("symmetric(4)", "direct_product(klein_four,dihedral(6))"):
        G = preset_group(name)
        for C, R in zip(cyclic_classes(G), cyclic_classes(preset_group(name))):
            want = CrossedRing(R.n, G.order, tuple(map(tuple, R.weyl_table)), R.weyl_units)
            assert type(want.weyl_table) is _Rows
            got = build_crossed_ring(C, G.order)
            assert hash(got) == hash(want) and got == want, (name, C.n)


def test_different_presets_of_one_order_compare_unequal():
    for names in (("cyclic(6)", "dihedral(3)", "symmetric(3)"),
                  ("cyclic(720)", "dihedral(360)", "symmetric(6)",
                   "direct_product(symmetric(5),cyclic(6))")):
        groups_ = [preset_group(name) for name in names]
        reports = [target_category(G) for G in groups_]
        for i in range(len(names)):
            for j in range(i):
                assert groups_[i] != groups_[j], (names[i], names[j])
                assert reports[i] != reports[j], (names[i], names[j])
    # equal tables from different rules: Z/2 as cyclic(2) and as dihedral(1)
    assert preset_group("cyclic(2)") == preset_group("dihedral(1)")
    assert hash(preset_group("cyclic(2)").mul) == hash(preset_group("dihedral(1)").mul)


def test_families_of_one_uct_call_share_presentations():
    # both families of a uct call hold the report's own flat summands, so
    # each summand's presentation is built once and then found
    family = str(Path(__file__).parent / "golden" / "readme_family.json")
    presentation_of.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["uct", "preset:symmetric(3)", "--a", family, "--b", family]) == 0
    info = presentation_of.cache_info()
    assert info.currsize == target_category(preset_group("symmetric(3)")).total_summands()
    assert info.hits > info.misses


def test_target_category_klein_four():
    rep = target_category(preset_group("klein_four"))
    assert rep.total_summands() == 10
    flat = rep.flat_summands()
    assert len(flat) == 10
    assert all(s.kind == "integral_local" for s in flat)
    assert rep.inverted == 4


def test_flat_summands_hands_out_the_same_summands():
    rep = target_category(preset_group("klein_four"))
    first, second = rep.flat_summands(), rep.flat_summands()
    assert first == second
    assert all(a is b for a, b in zip(first, second))
    first.pop()
    first[0] = None
    assert rep.flat_summands() == second and len(second) == 10
    # the cache is no field: equality and hashing still read the fields only
    again = target_category(preset_group("klein_four"))
    assert again == rep and hash(again) == hash(rep)


def test_target_category_cyclic_p():
    for p in (2, 3, 5, 7):
        rep = target_category(preset_group(f"cyclic({p})"))
        flat = rep.flat_summands()
        assert len(flat) == 3
        assert [s.d for s in flat] == [1, p, p]


def test_target_category_trivial_group():
    rep = target_category(preset_group("cyclic(1)"))
    assert rep.inverted == 1
    flat = rep.flat_summands()
    assert len(flat) == 1
    assert flat[0].kind == "integral_local"
    assert flat[0].describe() == "Z"


def test_target_category_s3():
    rep = target_category(preset_group("symmetric(3)"))
    kinds = [[s.kind for s in e.summands] for e in rep.entries]
    assert kinds == [["unsplit_crossed"], ["integral_local"], ["unsplit_crossed"]]
    assert rep.entries[2].ring.rank == 4
    # one entry per conjugacy class, never merged
    assert len(rep.entries) == len(cyclic_classes(preset_group("symmetric(3)")))
    txt = rep.to_text()
    assert "total: 3 summands" in txt


def test_report_json_shape():
    rep = target_category(preset_group("klein_four"))
    d = rep.to_json_dict()
    assert d["total_summands"] == 10
    assert len(d["classes"]) == 4
    assert d["classes"][0]["weyl_order"] == 4


def test_target_category_elementary_abelian_eight():
    # (Z/2)^3: the trivial class contributes the 8 characters of the group
    # ring; each of the 7 order-2 classes has Weyl group (Z/2)^2 acting
    # trivially and splits into 4 sign summands: 8 + 7*4 = 36.
    G = preset_group("direct_product(cyclic(2),direct_product(cyclic(2),cyclic(2)))")
    rep = target_category(G)
    assert len(rep.entries) == 8
    assert rep.total_summands() == 36
    assert all(s.kind == "integral_local" for s in rep.flat_summands())


def test_target_category_dihedral_four():
    # D4: five cyclic classes; the group ring Z[1/2][D4] and the C4 crossed
    # product (inversion action) stay unsplit, the three C2 classes split by
    # sign characters into 4 + 2 + 2 integral summands.
    rep = target_category(preset_group("dihedral(4)"))
    assert [e.cyclic_class.n for e in rep.entries] == [1, 2, 2, 2, 4]
    kinds = [s.kind for s in rep.flat_summands()]
    assert kinds.count("unsplit_crossed") == 2
    assert kinds.count("integral_local") == 8
    assert rep.total_summands() == 10
    c4 = rep.entries[4]
    assert c4.ring.rank == 4
    assert sorted(c4.ring.weyl_units) == [1, 3]
    group_ring = rep.entries[0]
    assert group_ring.ring.rank == 8
    assert group_ring.summands[0].kind == "unsplit_crossed"


def _suite_rings(bound):
    """The rings of the crossed-relations suite at this bound."""
    for name in _crossed_preset_names(bound):
        G = preset_group(name)
        if G.order <= bound:
            for C in cyclic_classes(G):
                yield build_crossed_ring(C, G.order)


def _relations(ring, z, cosets, orders=None):
    orders = (0,) * z.rows if orders is None else orders
    return list(crossed_relations(ring, z, cosets, orders))


def _bumped(M, i, j, by=1):
    rows = M.tolists()
    rows[i][j] += by
    return IntMatrix.from_rows(rows)


def test_crossed_relations_one_result_per_relation():
    rings = list(_suite_rings(12))
    assert len(rings) == 59
    for ring in rings:
        rep = regular_representation(ring)
        rels = _relations(ring, rep.z, rep.cosets)
        m = ring.weyl_order
        assert len(rels) == 1 + m * m + m
        assert [r.kind for r in rels] == ["phi"] + (["table"] * m + ["twist"]) * m
        assert [(r.a, r.b) for r in rels if r.kind == "table"] == [
            (a, b) for a in range(m) for b in range(m)]
        assert all(r.bad is None for r in rels)


def test_crossed_relations_match_the_per_pair_reference():
    # every ring of the suite at its CI bound, on its regular representation
    rings = list(_suite_rings(24))
    assert len(rings) == 143
    for ring in rings:
        rep = regular_representation(ring)
        orders = (0,) * ring.rank
        assert _relations(ring, rep.z, rep.cosets) == reference_crossed_relations(
            ring, rep.z, rep.cosets, orders)


def test_crossed_relations_match_the_reference_on_perturbed_actions():
    rng = random.Random(20)
    rings = [ring for ring in _suite_rings(12) if ring.weyl_order > 1]
    failing = 0
    for _ in range(60):
        ring = rng.choice(rings)
        rep = regular_representation(ring)
        r, m = ring.rank, ring.weyl_order
        i, j, c = rng.randrange(r), rng.randrange(r), rng.randrange(m + 1)
        q = rng.choice((2, 3, 7))

        def perturbed(by):
            # index m stands for z, every other c for coset c
            cosets = list(rep.cosets)
            if c == m:
                return _bumped(rep.z, i, j, by), cosets
            cosets[c] = _bumped(cosets[c], i, j, by)
            return rep.z, cosets

        # one entry bumped: read exactly, some relation may now fail
        z, cosets = perturbed(rng.choice((1, -1, 2)))
        rels = _relations(ring, z, cosets)
        assert rels == reference_crossed_relations(ring, z, cosets, (0,) * r)
        failing += any(rel.bad is not None for rel in rels)
        # one entry shifted by q: rows differ exactly but hold mod q
        z, cosets = perturbed(q)
        rels = _relations(ring, z, cosets, (q,) * r)
        assert rels == reference_crossed_relations(ring, z, cosets, (q,) * r)
        assert all(rel.bad is None for rel in rels)
    assert failing > 30


def test_crossed_relations_name_each_failing_block_of_one_row():
    # Bumping (i, j) of coset 1 of C6 adds row j of the stack, which has a
    # one in every block, to row i of w_1 [w_0 ... w_5]: every block but
    # b = 0 (where w_1 w_0 is the bumped w_1 itself) fails in that row.
    ring = ring_for("cyclic(6)", 1)
    rep = regular_representation(ring)
    cosets = list(rep.cosets)
    cosets[1] = _bumped(cosets[1], 2, 4)
    rels = _relations(ring, rep.z, cosets)
    assert rels == reference_crossed_relations(ring, rep.z, cosets, (0,) * ring.rank)
    row = [rel for rel in rels if rel.kind == "table" and rel.a == 1]
    assert row[0].bad is None
    assert all(rel.bad is not None and rel.bad[0] == 2 for rel in row[1:])


class _CountingLaw(_Law):
    """A group law that counts its products, with no rows of its own."""

    def __init__(self, law):
        super().__init__(law.order, law.identity, law.key)
        self._product, self.calls = law.product, 0

    def product(self, a, b):
        self.calls += 1
        return self._product(a, b)


def test_splits_stops_at_the_first_generator_that_does_not_commute():
    # walking all of W takes at least |W| - 1 products; a non-abelian W is
    # rejected within the closure of its first generator
    for name in ("symmetric(6)", "direct_product(symmetric(4),cyclic(30))",
                 "direct_product(symmetric(5),cyclic(6))"):
        G = preset_group(name)
        law = _CountingLaw(G.mul)
        ring = CrossedRing(1, G.order, law, (1,) * G.order)
        assert not _splits(ring)
        assert law.calls < G.order // 4, (name, law.calls)
    # an abelian W still walks every generator and splits
    G = preset_group("direct_product(klein_four,cyclic(45))")
    ring = CrossedRing(1, G.order, _CountingLaw(G.mul), (1,) * G.order)
    assert _splits(ring)


def _first_failure(rels):
    return next((r.kind, r.a, r.b, r.bad) for r in rels if r.bad is not None)


def test_crossed_relations_name_a_changed_entry():
    ring = ring_for("symmetric(3)", 3)
    rep = regular_representation(ring)
    assert _first_failure(_relations(ring, _bumped(rep.z, 0, 0), rep.cosets))[0] == "phi"
    cosets = (rep.cosets[0], _bumped(rep.cosets[1], 0, 0))
    assert _first_failure(_relations(ring, rep.z, cosets))[:3] == ("table", 1, 1)
    # (Z/7)^2 with z = diag(2, 4) and the coset swapping the factors
    z, w0, w1 = (IntMatrix.from_rows(m) for m in
                 ([[2, 0], [0, 4]], [[1, 0], [0, 1]], [[0, 1], [1, 0]]))
    orders = (7, 7)
    assert all(r.bad is None for r in _relations(ring, z, (w0, w1), orders))
    # z = diag(3, 4): Phi_3(3) = 13 is nonzero mod 7
    assert _first_failure(_relations(ring, _bumped(z, 0, 0), (w0, w1), orders)) == (
        "phi", 0, 0, (0, 0))
    # w1 = [[1, 1], [1, 0]] no longer squares to the identity
    assert _first_failure(_relations(ring, z, (w0, _bumped(w1, 0, 0)), orders))[:3] == (
        "table", 1, 1)
    # z = diag(2, 2) still has Phi_3(z) = 0 and leaves the table alone, but
    # w1 z = 2 w1 while z^2 w1 = 4 w1
    rels = _relations(ring, _bumped(z, 1, 1, -2), (w0, w1), orders)
    assert [r.kind for r in rels if r.bad is not None] == ["twist"]
    assert _first_failure(rels) == ("twist", 1, 0, (0, 1))
