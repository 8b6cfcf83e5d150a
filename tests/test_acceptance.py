"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing its runtime budget (run with `pytest tests/test_acceptance.py -v -s`
to see the lines).  All comparisons are exact."""

import math
import random
import time

from uctbench.amod import (
    AModFamily,
    AModObject,
    ext_group,
    hom_group,
    suspend,
    uct_order,
)
from uctbench.cli import (
    _suite_characters,
    _suite_crossed,
    _suite_crt,
    _suite_frobenius,
    _suite_psi,
)
from uctbench.crossring import target_category
from uctbench.groups import cyclic_classes, preset_group

from helpers import (
    brute_hom_count,
    conjugated_part,
    random_module,
    regular_power_part,
)


def _run(name, budget, fn):
    t0 = time.perf_counter()
    detail = fn()
    dt = time.perf_counter() - t0
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {name}: PASS in {dt:.2f}s (budget {budget}s){suffix}")
    assert dt < budget, f"{name} exceeded its runtime budget: {dt:.2f}s"


def _run_suite(items):
    checks = 0
    for key, fn in items:
        c, err = fn()
        checks += c
        assert err is None, f"{key}: {err}"
    return checks


def test_01_klein_four_target_category():
    def crit():
        report = target_category(preset_group("klein_four"))
        flat = report.flat_summands()
        assert len(flat) == 10
        assert report.total_summands() == 10
        assert all(s.kind == "integral_local" for s in flat)
        assert all(s.describe() == "Z[1/2]" for s in flat)
        return "10 summands, all Z[1/2]"

    _run("01 klein_four target category", 1.0, crit)


def test_02_prime_cyclic_target_categories():
    def crit():
        for p in (2, 3, 5, 7):
            t0 = time.perf_counter()
            report = target_category(preset_group(f"cyclic({p})"))
            flat = report.flat_summands()
            assert len(flat) == 3, p
            assert sorted(s.d for s in flat) == [1, p, p], p
            assert flat[0].kind == "integral_local"
            for s in flat:
                if s.d == p:
                    want = "integral_local" if p == 2 else "cyclotomic_local"
                    assert s.kind == want, p
            assert time.perf_counter() - t0 < 1.0, p
        return "p in {2,3,5,7}: Z[1/p] plus two copies of Z[theta_p,1/p]"

    _run("02 prime cyclic target categories", 4.0, crit)


def test_03_psi_idempotent_suite():
    def crit():
        checks = _run_suite(_suite_psi(100, 0))
        return f"{checks} identity checks for n <= 100"

    _run("03 psi idempotent identities to n=100", 60.0, crit)


def test_04_character_suite():
    def crit():
        checks = _run_suite(_suite_characters(100, 0))
        return f"{checks} character values for n <= 100"

    _run("04 psi characters are order indicators to n=100", 120.0, crit)


def test_05_frobenius_induction_suite():
    def crit():
        items = _suite_frobenius(60, 0)
        checks = _run_suite(items)
        # one item per k | n, each 1 + n*k checks
        assert len(items) == 261
        assert checks == 122813
        return f"{checks} checks over all k | n <= 60"

    _run("05 induction formula and Frobenius identity to n=60", 120.0, crit)


def test_06_crt_suite():
    def crit():
        checks = _run_suite(_suite_crt(30, 0))
        return f"{checks} checks, 100 seeded pairs, n <= 30"

    _run("06 CRT split/join roundtrip and multiplicativity", 30.0, crit)


def test_07_s3_structure():
    def crit():
        G = preset_group("symmetric(3)")
        table = G.mul

        # independent exhaustive enumeration of cyclic subgroups
        def generated(g):
            elems = {0}
            cur = g
            while cur != 0:
                elems.add(cur)
                cur = table[cur][g]
            return frozenset(elems)

        inv = [next(b for b in range(6) if table[a][b] == 0) for a in range(6)]
        subs = {generated(g) for g in range(6)}
        assert len(subs) == 5  # {1}, three C2, one C3
        classes_oracle = set()
        for H in subs:
            orbit = frozenset(
                frozenset(table[table[x][h]][inv[x]] for h in H) for x in range(6)
            )
            classes_oracle.add(orbit)
        assert len(classes_oracle) == 3

        classes = cyclic_classes(G)
        assert [c.n for c in classes] == [1, 2, 3]
        trivial, c2, c3 = classes
        assert trivial.class_size == 1
        assert c2.class_size == 3 and c2.weyl_order == 1
        assert c3.class_size == 1 and c3.weyl_order == 2
        assert sorted(c3.weyl_units) == [1, 2]  # 2 = -1 mod 3
        # representatives agree with the oracle orbits
        for c in classes:
            rep = frozenset(c.representative.elements)
            assert any(rep in orbit for orbit in classes_oracle)

        report = target_category(G)
        entry = report.entries[2]
        assert entry.cyclic_class.n == 3
        assert [s.kind for s in entry.summands] == ["unsplit_crossed"]
        assert entry.ring.rank == 4
        return "classes {1}, 3xC2 (trivial Weyl), C3 with unit -1; C3 ring unsplit of rank 4"

    _run("07 S3 class structure and unsplit crossed ring", 1.0, crit)


def test_08_hom_oracle_equivalence():
    def crit():
        rng = random.Random(2024)
        summands = [
            target_category(preset_group("cyclic(2)")).flat_summands()[0],
            target_category(preset_group("cyclic(3)")).flat_summands()[1],
            target_category(preset_group("cyclic(5)")).flat_summands()[1],
            target_category(preset_group("symmetric(3)")).flat_summands()[2],
        ]
        assert all(
            (s.rank() if s.kind != "unsplit_crossed" else s.ring.rank) <= 4
            for s in summands
        )
        pairs = 0
        for trial in range(200):
            s = summands[trial % len(summands)]
            M = random_module(rng, s, max_order=81)
            N = random_module(rng, s, max_order=81)
            degree = (trial // 2) % 2
            got = hom_group(M, N, degree).group.order()
            want = brute_hom_count(M, N, degree)
            assert got == want, (trial, s.kind, degree, got, want)
            pairs += 1
        assert pairs >= 200
        return f"{pairs} random pairs, solver order == enumeration count"

    _run("08 hom solver matches brute-force enumeration", 300.0, crit)


def test_09_ext_closed_form_and_generator_independence():
    def crit():
        summand = target_category(preset_group("cyclic(2)")).flat_summands()[0]

        def cyc(a):
            return AModObject.build(summand, degree0=((a,), ()))

        rng = random.Random(909)
        odd = list(range(3, 730, 2))
        for _ in range(50):
            a, b = rng.choice(odd), rng.choice(odd)
            g = math.gcd(a, b)
            assert ext_group(cyc(a), cyc(b), 0).order() == g, (a, b)
            assert hom_group(cyc(a), cyc(b), 0).group.order() == g, (a, b)
        done = 0
        while done < 50:
            M = random_module(rng, summand, 81)
            N = random_module(rng, summand, 81)
            extra = {}
            for d in (0, 1):
                if M.parts[d].orders:
                    extra[d] = [tuple(rng.randrange(o) for o in M.parts[d].orders)]
            if not extra:
                continue
            for degree in (0, 1):
                assert (ext_group(M, N, degree, extra_generators=extra)
                        == ext_group(M, N, degree)), (done, degree)
            done += 1
        return "50 gcd pairs (a,b <= 729) + 50 generator-independence instances"

    _run("09 ext gcd closed form and generator independence", 120.0, crit)


def test_10_uct_assembly_and_grading():
    def crit():
        report = target_category(preset_group("cyclic(2)"))
        summand = report.flat_summands()[0]
        m3 = AModObject.build(summand, degree0=((3,), ()))
        fam = AModFamily.from_modules(report, {0: m3})
        res = uct_order(fam, fam)
        assert res.kk_order(0) == 3
        assert res.kk_order(1) == 3
        assert res.degrees[0].hom_group.order() == 3
        assert res.degrees[0].ext_group.order() == 1
        assert res.degrees[1].hom_group.order() == 1
        assert res.degrees[1].ext_group.order() == 3
        sfam = AModFamily(report, tuple(suspend(m) for m in fam.modules))
        sres = uct_order(fam, sfam)
        assert sres.degrees[0] == res.degrees[1]
        assert sres.degrees[1] == res.degrees[0]
        return "kk order 3 in both degrees; suspension swaps the degrees exactly"

    _run("10 UCT order assembly and suspension bookkeeping", 5.0, crit)


def test_11_crossed_relations_suite():
    def crit():
        items = _suite_crossed(24, 0)
        checks = _run_suite(items)
        # one item per cyclic class of the presets of order <= 24; pinned so
        # that a faster path cannot drop checks unnoticed
        assert len(items) == 143
        assert checks == 12364
        return f"{checks} checks over {len(items)} crossed rings, n <= 24"

    _run("11 crossed-product relations and splittings to n=24", 30.0, crit)


def test_12_heavy_hom_ext_closed_form():
    def crit():
        theta5 = target_category(preset_group("cyclic(5)")).flat_summands()[1]
        unsplit = target_category(preset_group("symmetric(3)")).flat_summands()[0]
        dense = conjugated_part(random.Random(1), regular_power_part(unsplit, 7, 2), 7)
        cases = [(theta5, 11, 4, regular_power_part(theta5, 11, 4)),
                 (unsplit, 7, 3, regular_power_part(unsplit, 7, 3)),
                 (unsplit, 7, 2, dense)]
        for summand, q, k, part in cases:
            M = AModObject(summand, (part, AModObject.zero(summand).parts[1]))
            n = part.rank * k  # rho * k * k
            assert hom_group(M, M, 0).group.factors == (q,) * n, (summand.kind, k)
            assert ext_group(M, M, 0).factors == (q,) * n, (summand.kind, k)
        return ("Hom = Ext = C_q^(rho k k) for (R/11)^4 over Z[theta_5,1/5], (R/7)^3 and "
                "densely conjugated (R/7)^2 over Z[1/6][S3]")

    _run("12 heavy Hom and Ext against their closed form", 10.0, crit)
