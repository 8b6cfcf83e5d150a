"""Seeded inputs and independently computed expected outputs for the
benchmark workloads.

A workload is a list of *entries* passed to ``workbench`` the way a user
would: preset names, JSON group files and JSON module-family files.  An
entry is either one CLI call (one item) or one ``verify`` suite, whose suite
items are the items.  Expected values never come from the code under test:

* ``hom-ext``: Hom and Ext^1 of (R/q)^k against (R/q)^k' over a ring summand
  of rank rho are both C_q^(rho*k*k'); different primes give the trivial
  group.  Modules sit in degree 0 of A and degree d of B, so Hom lands in
  degree d and Ext (against the suspension of B) in degree d + 1.
* ``verify``: closed-form check counts per suite item and the item and check
  totals pinned at the seed commit.
* ``rings``: class, summand and unsplit counts pinned at the seed commit; the
  relabelled Cayley table has the counts of its preset.

The module matrices are the regular action of the ring generators, taken
from the package's ring presentation and conjugated by a seeded signed
permutation.  Dense random changes of basis mod q, and pairs of different
primes over the rank-4 summands, are left out on purpose: they can drive the
solver's Smith form into coefficient blow-up (see bench/BASELINE.md).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random

# (group, flat summand index, ring rank, primes coprime to |G|)
_CYC5_INT = ("cyclic(5)", 0, 1, (3, 7, 11, 13))
_CYC5_THETA = ("cyclic(5)", 1, 4, (11, 19, 29, 31))
_CYC5_THETA2 = ("cyclic(5)", 2, 4, (11, 19, 29, 31))
_S3_INT = ("symmetric(3)", 1, 1, (5, 7, 11, 13))
_S3_UNSPLIT = ("symmetric(3)", 0, 6, (7, 11, 13))
_S3_THETA3 = ("symmetric(3)", 2, 4, (7, 13, 19))


def _klein(i: int):
    return ("klein_four", i, 1, (3, 5, 7, 11))


# (summand spec, k, k', B degree, same prime?) -- the shape of every query is
# fixed; the seed picks primes and conjugations only, so cost is seed-stable.
# Pairs of different primes appear only on integral summands: over the
# rank-4 summands they can drive the solver's Smith form into coefficient
# blow-up (see bench/BASELINE.md, cases left out).
# 40 of the 56 queries are tiny, so the median item sits inside that group,
# and the tail percentile (p82) sits inside the medium group.
HOM_EXT_QUERIES = (
    # tiny: integral summands
    [(_klein(i), 1 + i % 4, 1 + (i + 1) % 3, i % 2, True) for i in range(10)]
    + [(_klein(i), 1 + (i + 2) % 3, 2, (i + 1) % 2, i % 4 != 3) for i in range(10)]
    + [(_CYC5_INT, 1 + k % 6, 4 - k % 3, k % 2, k != 5) for k in range(1, 11)]
    + [(_S3_INT, 1 + k % 4, 1 + (k + 1) % 4, k % 2, k != 6) for k in range(1, 9)]
    + [(_CYC5_INT, 3, 2, 1, False), (_S3_INT, 2, 3, 0, False)]
    # medium: rank-4 summands at k = 1, the integral summand at k = 8
    + [(_CYC5_THETA, 1, 1, i % 2, True) for i in range(4)]
    + [(_CYC5_THETA2, 1, 1, i % 2, True) for i in range(4)]
    + [(_S3_THETA3, 1, 1, i % 2, True) for i in range(4)]
    + [(_S3_INT, 8, 8, d, True) for d in (0, 1)]
    # heavy: Z[theta_5, 1/5] at k = 2 and the unsplit Z[1/6][S3] at k = 1
    + [(_CYC5_THETA, 2, 2, 0, True)]
    + [(_S3_UNSPLIT, 1, 1, 1, True)]
)

VERIFY_SUITES = (
    ("psi-identities", 100),
    ("characters", 100),
    ("frobenius", 40),
    ("crt", 30),
)

RINGS_LADDER = (
    "cyclic(720)",
    "dihedral(360)",
    "symmetric(6)",
    "direct_product(symmetric(4),cyclic(30))",
    "direct_product(symmetric(5),cyclic(6))",
    "direct_product(klein_four,dihedral(30))",
)
RINGS_CROSSED_MAX_N = 20

# (classes, total summands, unsplit summands) at the seed commit
PINNED_RINGS = {
    "cyclic(720)": (30, 60, 27),
    "dihedral(360)": (26, 28, 24),
    "symmetric(6)": (11, 18, 10),
    "direct_product(symmetric(4),cyclic(30))": (40, 53, 37),
    "direct_product(symmetric(5),cyclic(6))": (28, 35, 27),
    "direct_product(klein_four,dihedral(30))": (40, 96, 32),
    "symmetric(5)": (7, 10, 6),
}

# (items, checks) at the seed commit
PINNED_SUITES = {
    ("psi-identities", 100): (100, 3628),
    ("characters", 100): (100, 26879),
    ("frobenius", 40): (158, 36705),
    ("crt", 30): (130, 530),
    ("crossed-relations", 20): (109, 7270),
}


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def suite_item_checks(suite: str, bound: int) -> list[int] | None:
    """Closed-form check count of every suite item, in suite order; None for
    suites whose per-item count depends on the computed rings."""
    if suite == "psi-identities":
        return [len(divisors(n)) * (len(divisors(n)) + 1) + 1 for n in range(1, bound + 1)]
    if suite == "characters":
        return [n * len(divisors(n)) for n in range(1, bound + 1)]
    if suite == "frobenius":
        return [1 + n * k for n in range(1, bound + 1) for k in divisors(n)]
    if suite == "crt":
        ns = list(range(2, bound + 1)) or [1]
        return [2] * bound + [len(divisors(ns[i % len(ns)])) + 1 for i in range(100)]
    return None


def tail_percentile(items_per_pass: int) -> int:
    """Highest whole percentile with at least ten samples of one pass beyond it."""
    return max(0, math.floor(100 * (1 - 10 / items_per_pass)))


# ---------------------------------------------------------------------------
# module families


def _block_diag(mat: list[list[int]], k: int) -> list[list[int]]:
    r = len(mat)
    out = [[0] * (r * k) for _ in range(r * k)]
    for b in range(k):
        for i in range(r):
            out[b * r + i][b * r:b * r + r] = mat[i]
    return out


def _family(rng: random.Random, gen_names, gen_mats, summand: int,
            q: int, k: int, degree: int) -> dict:
    """(R/q)^k over one summand, conjugated by a seeded signed permutation."""
    rank = len(gen_mats[0]) if gen_mats else 1
    r = rank * k
    perm = list(range(r))
    rng.shuffle(perm)
    sign = [rng.choice((1, -1)) for _ in range(r)]
    spec: dict = {"orders": [q] * r}
    for name, mat in zip(gen_names, gen_mats):
        big = _block_diag(mat, k)
        conj = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(r):
                conj[perm[i]][perm[j]] = sign[i] * sign[j] * big[i][j]
        if name == "z":
            spec["z"] = conj
        else:
            spec.setdefault("w", []).append(conj)
    return {"modules": [{"summand": summand, f"degree{degree}": spec}]}


def _group_json(q: int, n: int) -> dict:
    factors = [q] * n
    return {"factors": factors, "free_rank": 0, "order": q ** n,
            "name": " x ".join(f"C{q}" for _ in range(n)) if n else "0"}


def _expected_uct(q: int, n: int, hom_degree: int) -> dict:
    out = {}
    for d in (0, 1):
        hom = _group_json(q, n if d == hom_degree else 0)
        ext = _group_json(q, n if d != hom_degree else 0)
        out[f"degree{d}"] = {"hom": hom, "ext": ext, "kk_order": hom["order"] * ext["order"]}
    return out


def _presentations() -> dict:
    """Generator names and matrices of every summand the queries use, from the
    package's own ring presentation (the input format is defined by it)."""
    from uctbench.amod import presentation_of
    from uctbench.crossring import target_category
    from uctbench.groups import preset_group

    out = {}
    for spec, *_ in HOM_EXT_QUERIES:
        group, idx = spec[0], spec[1]
        if (group, idx) not in out:
            summand = target_category(preset_group(group)).flat_summands()[idx]
            pres = presentation_of(summand)
            out[(group, idx)] = (pres.gen_names, [m.tolists() for m in pres.gen_mats])
    return out


def _hom_ext(seed: int, workdir: str) -> list[dict]:
    rng = random.Random(f"hom-ext:{seed}")
    pres = _presentations()
    entries = []
    for i, ((group, idx, rho, primes), k, k2, degree, same) in enumerate(HOM_EXT_QUERIES):
        names, mats = pres[(group, idx)]
        rank = len(mats[0]) if mats else 1
        if rank != rho:
            raise ValueError(f"{group}[{idx}]: ring rank {rank}, expected {rho}")
        qa = rng.choice(primes)
        qb = qa if same else rng.choice([p for p in primes if p != qa])
        paths = []
        for tag, q, kk, deg in (("a", qa, k, 0), ("b", qb, k2, degree)):
            path = os.path.join(workdir, f"q{i:02d}{tag}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(_family(rng, names, mats, idx, q, kk, deg), fh)
            paths.append(path)
        n = rho * k * k2 if same else 0
        entries.append({
            "kind": "cli",
            "label": f"uct {group}[{idx}] q={qa}/{qb} k={k},{k2} deg={degree}",
            "argv": ["uct", f"preset:{group}", "--a", paths[0], "--b", paths[1], "--json"],
            "expect": _expected_uct(qa, n, degree),
        })
    return entries


# ---------------------------------------------------------------------------
# verify and rings


def _suite_entry(suite: str, bound: int, seed: int) -> dict:
    items, checks = PINNED_SUITES[(suite, bound)]
    return {
        "kind": "suite",
        "label": f"verify {suite} --max-n {bound}",
        "suite": suite,
        "argv": ["verify", suite, "--max-n", str(bound), "--seed", str(seed), "--json"],
        "expect": {"items": items, "checks": checks, "passed": True,
                   "item_checks": suite_item_checks(suite, bound)},
    }


def _verify(seed: int, workdir: str) -> list[dict]:
    return [_suite_entry(suite, bound, seed) for suite, bound in VERIFY_SUITES]


def _symmetric_table(n: int) -> list[list[int]]:
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms]


def _relabelled_table(rng: random.Random, table: list[list[int]]) -> list[list[int]]:
    n = len(table)
    sigma = list(range(n))
    rng.shuffle(sigma)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[sigma[a]][sigma[b]] = sigma[table[a][b]]
    return out


def _rings(seed: int, workdir: str) -> list[dict]:
    rng = random.Random(f"rings:{seed}")
    entries = []
    sources = [(name, f"preset:{name}") for name in RINGS_LADDER]
    table = _relabelled_table(rng, _symmetric_table(5))
    path = os.path.join(workdir, "s5_table.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"order": len(table), "table": table,
                   "labels": [f"g{i}" for i in range(len(table))]}, fh)
    sources.append(("symmetric(5)", path))
    for name, src in sources:
        classes, summands, unsplit = PINNED_RINGS[name]
        entries.append({
            "kind": "cli",
            "label": f"target-category {name}" + (" (table)" if src == path else ""),
            "argv": ["target-category", src, "--json"],
            "expect": {"classes": classes, "summands": summands, "unsplit": unsplit},
        })
    entries.append(_suite_entry("crossed-relations", RINGS_CROSSED_MAX_N, seed))
    return entries


WORKLOADS = {"hom-ext": _hom_ext, "verify": _verify, "rings": _rings}


def generate(workload: str, seed: int, workdir: str) -> list[dict]:
    """Write the workload's input files into workdir and return its entries."""
    return WORKLOADS[workload](seed, workdir)


def items_per_pass(entries: list[dict]) -> int:
    return sum(e["expect"]["items"] if e["kind"] == "suite" else 1 for e in entries)


# ---------------------------------------------------------------------------
# output checks


def _parsed(rc: int, out: str):
    """The JSON output of a successful call, or None."""
    if rc != 0:
        return None
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return None


def check_cli(entry: dict, rc: int, out: str) -> bool:
    """True when one CLI item's output matches its expected value."""
    got = _parsed(rc, out)
    want = entry["expect"]
    if entry["argv"][0] == "uct":
        return got == want
    try:
        unsplit = sum(s["multiplicity"] for c in got["classes"] for s in c["summands"]
                      if s["kind"] == "unsplit_crossed")
        counts = (len(got["classes"]), got["total_summands"], unsplit)
    except (KeyError, TypeError):  # malformed output is a mismatch
        return False
    return counts == (want["classes"], want["summands"], want["unsplit"])


def check_suite(entry: dict, rc: int, out: str) -> bool:
    """True when a suite's reported totals match the pinned ones."""
    got = _parsed(rc, out)
    want = entry["expect"]
    return isinstance(got, dict) and (got.get("items"), got.get("checks"), got.get("passed")) == (
        want["items"], want["checks"], want["passed"])
