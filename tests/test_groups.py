import pytest

from uctbench import groups
from uctbench.errors import (
    NonAssociative,
    UnknownPreset,
    UnsupportedSize,
)
from uctbench.groups import (
    all_cyclic_subgroups,
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


@pytest.mark.parametrize("name", ["cyclic(100000000)", "symmetric(8)",
                                  "direct_product(symmetric(7),cyclic(2))"])
def test_preset_order_bound_before_any_table(name, monkeypatch):
    def no_table(*args):
        raise AssertionError(f"{name}: a table was built")

    for builder in ("_cyclic_table", "_dihedral_table", "_symmetric_table",
                    "_direct_product"):
        monkeypatch.setattr(groups, builder, no_table)
    with pytest.raises(UnsupportedSize, match=str(groups.MAX_PRESET_ORDER)):
        preset_group(name)


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
    assert covered == set(all_cyclic_subgroups(G))
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
