import contextlib
import io
import json
import random
import tracemalloc

import pytest

from helpers import (
    brute_cyclic_subgroups,
    brute_inverses,
    reference_cyclic_classes,
    reference_cyclic_table,
    reference_dihedral_table,
    reference_direct_product,
    reference_symmetric_table,
)
from uctbench import groups
from uctbench.cli import main
from uctbench.crossring import target_category
from uctbench.errors import (
    NonAssociative,
    UnknownPreset,
    UnsupportedSize,
)
from uctbench.groups import (
    FiniteGroup,
    _direct_product,
    _split_call,
    cyclic_classes,
    group_from_table,
    preset_group,
    weyl_action_on_units,
)


def brute_force_assoc_violations(table):
    n = len(table)
    out = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    out.append((a, b, c))
    return out


def test_trivial_and_z2_tables():
    g = group_from_table([[0]])
    assert g.order == 1 and g.identity == 0
    g = group_from_table([[0, 1], [1, 0]])
    assert g.order == 2
    assert g.element_order(1) == 2


def test_nonassociative_mutation_of_s3():
    s3 = preset_group("symmetric(3)")
    table = [list(r) for r in s3.mul]
    # Entry (3, 2) is not an inverse witness and lies outside the identity
    # row/column, so only associativity can break.
    table[3][2] = (table[3][2] + 1) % 6
    violations = brute_force_assoc_violations(table)
    assert violations, "mutation must break associativity"
    with pytest.raises(NonAssociative) as exc:
        group_from_table(table)
    assert exc.value.triple in violations
    # Seeded single-entry mutations that keep the identity and the inverses:
    # Light's test over a generating set must still see every failure.
    rng = random.Random(11)
    broken = 0
    for name in ("symmetric(3)", "symmetric(4)", "dihedral(4)"):
        G = preset_group(name)
        done = 0
        while done < 25:
            a, b = rng.randrange(1, G.order), rng.randrange(1, G.order)
            v = rng.randrange(G.order)
            if G.mul[a][b] == G.identity or v == G.identity or v == G.mul[a][b]:
                continue  # would touch an inverse witness or change nothing
            table = [list(r) for r in G.mul]
            table[a][b] = v
            done += 1
            violations = brute_force_assoc_violations(table)
            if not violations:
                assert group_from_table(table).order == G.order
                continue
            broken += 1
            with pytest.raises(NonAssociative) as exc:
                group_from_table(table)
            assert exc.value.triple in violations, (name, a, b, v)
    assert broken >= 60
    # A loop of order 6 generated by 1 and 2 in which 1 associates in the
    # middle: only the second generator exposes the failure.
    loop = [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 3, 4, 5, 0, 1],
            [3, 2, 5, 4, 1, 0], [4, 5, 0, 1, 3, 2], [5, 4, 1, 0, 2, 3]]
    violations = brute_force_assoc_violations(loop)
    assert violations and all(b != 1 for _, b, _ in violations)
    with pytest.raises(NonAssociative) as exc:
        group_from_table(loop)
    assert exc.value.triple in violations


def test_preset_klein_four():
    v = preset_group("klein_four")
    assert v.order == 4
    assert all(v.element_order(x) == 2 for x in range(1, 4))
    # a^2 = b^2 = (ab)^2 = identity
    assert v.mul[1][1] == v.identity
    assert v.mul[2][2] == v.identity
    ab = v.mul[1][2]
    assert v.mul[ab][ab] == v.identity


def test_preset_cyclic_and_symmetric():
    assert preset_group("cyclic(1)").order == 1
    s3 = preset_group("symmetric(3)")
    assert s3.order == 6
    orders = [s3.element_order(x) for x in range(6)]
    assert orders.count(2) == 3
    assert orders.count(3) == 2
    d4 = preset_group("dihedral(4)")
    assert d4.order == 8
    v = preset_group("direct_product(cyclic(2),cyclic(2))")
    assert all(v.element_order(x) in (1, 2) for x in range(4))


def test_preset_errors():
    with pytest.raises(UnsupportedSize):
        preset_group("symmetric(9)")
    with pytest.raises(UnsupportedSize):
        preset_group("cyclic(0)")
    with pytest.raises(UnknownPreset):
        preset_group("quaternion(8)")
    # str.isdigit accepts these, int() rejects the first two and reads the
    # last as 3; only ASCII decimal digits are arguments
    for name in ("cyclic(²)", "direct_product(cyclic(3),symmetric(¹))", "cyclic(٣)"):
        with pytest.raises(UnknownPreset):
            preset_group(name)


@pytest.mark.parametrize("name", ["cyclic(100000000)", "symmetric(8)",
                                  "direct_product(symmetric(7),cyclic(2))",
                                  "direct_product(cyclic(2),direct_product(dihedral(3),symmetric(7)))"])
def test_preset_order_bound_before_any_table(name, monkeypatch):
    # no law (the source of every product and row, and of a symmetric
    # group's permutation list) or group may be made before the refusal
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name}: work done before the order bound")

    laws = [groups._Law]
    while laws:
        law = laws.pop()
        monkeypatch.setattr(law, "__init__", refuse)
        laws += law.__subclasses__()
    monkeypatch.setattr(groups.FiniteGroup, "__init__", refuse)
    with pytest.raises(UnsupportedSize, match=str(groups.MAX_PRESET_ORDER)):
        preset_group(name)
    with pytest.raises(AssertionError, match="before the order bound"):
        preset_group("cyclic(2)")


def test_cyclic_classes_klein_four():
    v = preset_group("klein_four")
    classes = cyclic_classes(v)
    assert len(classes) == 4
    trivial = classes[0]
    assert trivial.n == 1 and trivial.weyl_order == 4
    assert all(u == 1 for u in trivial.weyl_units)
    for c in classes[1:]:
        assert c.n == 2
        assert c.class_size == 1
        assert c.weyl_order == 2
        assert all(u == 1 for u in c.weyl_units)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_cyclic_classes_prime_cyclic(p):
    g = preset_group(f"cyclic({p})")
    classes = cyclic_classes(g)
    assert len(classes) == 2
    assert classes[0].n == 1 and classes[0].weyl_order == p
    assert all(u == 1 for u in classes[0].weyl_units)
    assert classes[1].n == p and classes[1].weyl_order == 1


def test_cyclic_classes_s3():
    s3 = preset_group("symmetric(3)")
    classes = cyclic_classes(s3)
    assert [c.n for c in classes] == [1, 2, 3]
    trivial, c2, c3 = classes
    assert trivial.weyl_order == 6
    assert c2.class_size == 3 and c2.weyl_order == 1
    assert c3.class_size == 1 and c3.weyl_order == 2
    assert sorted(c3.weyl_units) == [1, 2]  # 2 = -1 mod 3
    assert weyl_action_on_units(c3, 0) == 1
    assert weyl_action_on_units(c3, 1) == 2
    assert weyl_action_on_units(trivial, 3) == 1


@pytest.mark.parametrize(
    "name",
    ["cyclic(12)", "dihedral(4)", "dihedral(5)", "symmetric(3)", "symmetric(4)",
     "klein_four", "direct_product(cyclic(2),cyclic(4))"],
)
def test_class_invariants(name):
    G = preset_group(name)
    classes = cyclic_classes(G)
    # orbit-stabilizer, exact
    for c in classes:
        assert c.class_size * len(c.normalizer) == G.order
    # conjugates of representatives cover every cyclic subgroup
    covered = set()
    for c in classes:
        rep = frozenset(c.representative.elements)
        for x in range(G.order):
            covered.add(frozenset(G.conjugate(x, h) for h in rep))
    assert covered == set(brute_cyclic_subgroups(G))
    # each element generates exactly one cyclic subgroup
    total = 0
    for c in classes:
        rep = frozenset(c.representative.elements)
        gens = sum(1 for h in rep if G.element_order(h) == c.n)
        total += c.class_size * gens
    assert total == G.order
    # weyl_units is multiplicative through weyl_table
    for c in classes:
        m = c.weyl_order
        for i in range(m):
            for j in range(m):
                lhs = c.weyl_units[c.weyl_table[i][j]] % c.n
                rhs = (c.weyl_units[i] * c.weyl_units[j]) % c.n
                assert lhs == rhs, (name, c.n, i, j)
        assert c.weyl_units[0] == 1
        # normalizer really normalizes
        rep = frozenset(c.representative.elements)
        for g in c.normalizer:
            assert frozenset(G.conjugate(g, h) for h in rep) == rep
    # canonical sort order
    keys = [(c.n, c.representative.elements) for c in classes]
    assert keys == sorted(keys)


def test_group_order_from_class():
    s3 = preset_group("symmetric(3)")
    for c in cyclic_classes(s3):
        assert c.group_order() == 6


REFERENCE_CLASS_PRESETS = (
    [f"cyclic({n})" for n in list(range(1, 25)) + [30, 36, 48, 60, 64, 72, 96, 120]]
    + [f"dihedral({n})" for n in list(range(1, 13)) + [15, 30, 60]]
    + [f"symmetric({n})" for n in range(1, 6)]
    + ["trivial", "klein_four", "direct_product(cyclic(2),cyclic(4))",
       "direct_product(cyclic(3),cyclic(9))", "direct_product(dihedral(4),cyclic(3))",
       "direct_product(symmetric(4),cyclic(5))"]
    + [f"direct_product(symmetric(3),cyclic({k}))" for k in (2, 4, 5, 20)]
    + [f"direct_product(klein_four,dihedral({k}))" for k in (3, 6, 15)]
)


def test_cyclic_classes_match_reference():
    # the generator-only conjugation against conjugating every element of
    # every representative, field by field
    for name in REFERENCE_CLASS_PRESETS:
        G = preset_group(name)
        assert cyclic_classes(G) == reference_cyclic_classes(G), name


def test_cyclic_classes_match_reference_on_relabelled_table():
    rng = random.Random(5)
    table = reference_symmetric_table(5)
    sigma = list(range(len(table)))
    rng.shuffle(sigma)
    relabelled = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, ab in enumerate(row):
            relabelled[sigma[a]][sigma[b]] = sigma[ab]
    G = group_from_table(relabelled)
    assert G.identity != 0
    classes = cyclic_classes(G)
    assert [c.n for c in classes] == [1, 2, 2, 3, 4, 5, 6]
    assert classes == reference_cyclic_classes(G)
    assert classes[0].weyl_table is not G.mul


# the order-720 presets of the benchmark's target-category ladder
LADDER_PRESETS = [
    "cyclic(720)", "dihedral(360)", "symmetric(6)",
    "direct_product(symmetric(4),cyclic(30))", "direct_product(symmetric(5),cyclic(6))",
    "direct_product(klein_four,dihedral(30))",
]


def test_trivial_class_shares_the_cayley_table():
    # identity 0: the trivial class's cosets are the elements in index order,
    # so its Weyl table is G's own, and a whole report on an order-720 preset
    # peaks below half the row slots of one |G|^2 table; the relabelled
    # table (identity not 0) is checked entry by entry in
    # test_cyclic_classes_match_reference_on_relabelled_table
    for name in LADDER_PRESETS:
        G = preset_group(name)
        tracemalloc.start()
        try:
            report = target_category(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        trivial = report.entries[0].cyclic_class
        assert trivial.n == 1 and trivial.weyl_table is G.mul, name
        if G.order == 720:
            assert peak < 4 * G.order ** 2, (name, peak)


REFERENCE_TABLES = {
    "cyclic": reference_cyclic_table,
    "dihedral": reference_dihedral_table,
    "symmetric": reference_symmetric_table,
}


def _reference_preset(name: str) -> FiniteGroup:
    head, args = _split_call(name)
    if head == "trivial":
        return FiniteGroup(1, ((0,),), 0)
    if head == "klein_four":
        return FiniteGroup(4, _reference_preset("direct_product(cyclic(2),cyclic(2))").mul, 0,
                           ("1", "a", "b", "ab"))
    if head == "direct_product":
        return reference_direct_product(*map(_reference_preset, args))
    table = REFERENCE_TABLES[head](int(args[0]))
    return FiniteGroup(len(table), tuple(map(tuple, table)), 0)


SMALL_PRESETS = [
    "trivial", "klein_four", "cyclic(1)", "cyclic(2)", "cyclic(7)", "cyclic(12)",
    "cyclic(60)", "dihedral(3)", "dihedral(4)", "dihedral(15)", "dihedral(30)",
    "symmetric(3)", "symmetric(4)", "direct_product(symmetric(3),cyclic(4))",
    "direct_product(klein_four,dihedral(5))", "direct_product(symmetric(4),cyclic(2))",
]


def _relabelled_s4():
    rng = random.Random(11)
    table = reference_symmetric_table(4)
    sigma = list(range(len(table)))
    rng.shuffle(sigma)
    out = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, ab in enumerate(row):
            out[sigma[a]][sigma[b]] = sigma[ab]
    return group_from_table(out)


def test_inverse_is_brute_force_two_sided_inverse():
    groups_ = [preset_group(name) for name in SMALL_PRESETS] + [_relabelled_s4()]
    assert groups_[-1].identity != 0
    for G in groups_:
        assert G.order <= 60
        assert G.inv == brute_inverses(G)


def test_direct_product_matches_element_by_element_reference():
    small = [preset_group(name) for name in SMALL_PRESETS] + [_relabelled_s4()]
    pairs = 0
    for a in small:
        for b in small:
            if a.order * b.order <= 60:
                got, want = _direct_product(a, b), reference_direct_product(a, b)
                assert got == want
                assert got.inv == want.inv == brute_inverses(got)
                pairs += 1
    assert pairs > 50


def test_product_rules_match_the_table_path():
    # each preset's product rule against its table of one product per entry:
    # the law's vectors, products, inverses, powers and conjugates, every row
    # of G.mul, the laws' equality, and every field of every cyclic class,
    # Weyl tables entry by entry.  The classes come from a fresh group, so
    # none of its rows is built first.
    rng = random.Random(19)
    for name in dict.fromkeys(SMALL_PRESETS + REFERENCE_CLASS_PRESETS + LADDER_PRESETS):
        T, G = _reference_preset(name), preset_group(name)
        got, want = cyclic_classes(G), cyclic_classes(T)
        assert len(got) == len(want), name
        for c, w in zip(got, want):
            assert (c.representative, c.class_size, c.normalizer, c.coset_reps,
                    c.weyl_units) == (w.representative, w.class_size, w.normalizer,
                                      w.coset_reps, w.weyl_units), (name, c.n)
            assert tuple(c.weyl_table) == tuple(w.weyl_table), (name, c.n)
            if c.weyl_order <= 24:
                # a Weyl group is a group in its own right, on the plain loops
                W = FiniteGroup(c.weyl_order, c.weyl_table, 0)
                assert cyclic_classes(W) == reference_cyclic_classes(W), (name, c.n)
        n = G.order
        assert (G.identity, G.labels, G.inv) == (T.identity, T.labels, T.inv), name
        assert tuple(G.mul) == tuple(T.mul), name
        assert G.mul == T.mul, name

        def some():
            return range(n) if n <= 60 else rng.sample(range(n), 8)

        for g in some():
            assert G.mul.row(g) == T.mul[g], (name, g)
            assert G.mul.column(g) == [T.mul[x][g] for x in range(n)], (name, g)
            assert G.mul.conjugates(g) == T.mul.conjugates(g), (name, g)
            assert ([G.power(g, k) for k in range(-3, 9)]
                    == [T.power(g, k) for k in range(-3, 9)]), (name, g)
            for x in some():
                assert G.multiply(g, x) == T.mul[g][x], (name, g, x)
                assert G.conjugate(g, x) == T.conjugate(g, x), (name, g, x)


def test_group_info_element_orders_read_off_cyclic_subgroups(tmp_path):
    # one pass over the cyclic subgroups gives the same orders as one power
    # walk per element
    G = _relabelled_s4()
    path = tmp_path / "s4.json"
    path.write_text(json.dumps({"table": [list(r) for r in G.mul]}), encoding="utf-8")
    cases = [(preset_group(name), f"preset:{name}") for name in REFERENCE_CLASS_PRESETS]
    for G, src in cases + [(G, str(path))]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["group-info", src, "--json"]) == 0
        got = json.loads(out.getvalue())["element_orders"]
        assert got == [G.element_order(x) for x in range(G.order)], src
