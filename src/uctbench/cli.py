"""Command-line front end: group reports, target-category reports,
verification suites, and UCT order queries.

Exit codes: 0 success, 1 verification failure, 2 input error.  Identical
inputs produce byte-identical output (fixed orderings, recorded seed).
Verification items run in order in one thread.  WORKBENCH_THREADS is still
accepted: it must be an integer, and `verify --json` echoes it as "threads".

Check protocol of the verification suites: a builder in SUITES maps
(bound, seed) to one (key, run) pair per item, after it has refused a bound
above its largest with UnsupportedSize, and run() returns
(checks, counterexample).  An item's checks are a generator with one
`yield` per check; the yielded value is falsy when the check holds and is
the counterexample text when it fails (`bad and f"..."`), so a passing
check formats no string.  `_item` counts the checks that held and stops at
the first failure; `verify` runs every item, sums the counts and reports
the first item that failed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from functools import lru_cache, partial
from itertools import repeat
from typing import Callable, Iterable, Optional, Sequence

from . import __version__
from .amod import _reject_unknown_keys, family_from_json, uct_order
from .crossring import (
    CrossedElt,
    CrossedRing,
    build_crossed_ring,
    crossed_relations,
    regular_representation,
    split_ring,
    splitting_idempotents,
    target_category,
)
from .cyclotomic import (
    CycEltN,
    CycPoly,
    crt_join,
    crt_split,
    divisors,
    order_mod,
    psi,
    totient,
)
from .errors import InputError, UnsupportedSize, WorkbenchError
from .green import (
    RepElt,
    _induce_via_characters,
    _restrict_via_characters,
    frobenius_check,
    induce,
    p_idempotent,
    restrict,
    to_character,
)
from .groups import (
    MAX_TABLE_ORDER,
    FiniteGroup,
    _cyclic_subgroup_map,
    cyclic_classes,
    group_from_table,
    preset_group,
)


def load_group(src: str) -> FiniteGroup:
    """Group source: 'preset:<name>' or a path to a JSON group file."""
    if src.startswith("preset:"):
        return preset_group(src[len("preset:"):])
    # refused by its size before it is parsed, at 16 bytes per table entry
    # (four digits, a separator and an indent), then by its order
    data = _load_json(src, 16 * MAX_TABLE_ORDER ** 2)
    if not isinstance(data, dict):
        raise InputError(f"{src}: group file must be a JSON object")
    if "preset" in data:
        _reject_unknown_keys(f"{src}: group file", data, ("preset",))
        if not isinstance(data["preset"], str):
            raise InputError(f"{src}: 'preset' must be a preset name string")
        return preset_group(data["preset"])
    if "table" not in data:
        raise InputError(f"{src}: need either 'preset' or 'table'")
    _reject_unknown_keys(f"{src}: group file", data, ("table", "labels", "order"))
    if isinstance(data["table"], list) and len(data["table"]) > MAX_TABLE_ORDER:
        raise UnsupportedSize(f"{src}: table of order {len(data['table'])} is above "
                              f"{MAX_TABLE_ORDER}, the largest supported")
    G = group_from_table(data["table"], data.get("labels"))
    declared = data.get("order")
    if declared is None:
        return G
    # JSON true loads as bool, a subclass of int equal to 1
    if type(declared) is not int:
        raise InputError(f"{src}: 'order' must be an integer, got {declared!r}")
    if declared != G.order:
        raise InputError(f"{src}: declared order {declared} != table size {G.order}")
    return G


def _load_json(path: str, max_bytes: Optional[int] = None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if max_bytes is not None and (size := os.fstat(fh.fileno()).st_size) > max_bytes:
                raise UnsupportedSize(f"{path}: {size} bytes, above {max_bytes}, the largest "
                                      f"group file read")
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:  # bytes that are not UTF-8, or an integer too long to read
        raise InputError(f"{path}: {exc}") from exc


def _emit(obj, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(text)


# ---------------------------------------------------------------------------
# group-info and target-category


def cmd_group_info(args) -> int:
    G = load_group(args.src)
    classes = cyclic_classes(G)
    payload = {
        "order": G.order,
        "identity": G.identity,
        "element_orders": [len(H) for H in _cyclic_subgroup_map(G.mul)],
        "classes": [
            {
                "generator_order": c.n,
                "generator": c.representative.generator,
                "elements": list(c.representative.elements),
                "class_size": c.class_size,
                "normalizer_size": len(c.normalizer),
                "weyl_order": c.weyl_order,
                "weyl_units": list(c.weyl_units),
            }
            for c in classes
        ],
    }
    lines = [f"group of order {G.order}, identity {G.label(G.identity)}"]
    lines.append(f"{len(classes)} conjugacy classes of cyclic subgroups:")
    lines.append(f"{'idx':>4} {'n':>4} {'size':>5} {'|N_H|':>6} {'|W|':>4}  units")
    for i, c in enumerate(classes):
        lines.append(
            f"{i:>4} {c.n:>4} {c.class_size:>5} {len(c.normalizer):>6}"
            f" {c.weyl_order:>4}  {list(c.weyl_units)}"
        )
    _emit(payload, args.json, "\n".join(lines))
    return 0


def cmd_target_category(args) -> int:
    G = load_group(args.src)
    report = target_category(G)
    _emit(report.to_json_dict(), args.json, report.to_text())
    return 0


# ---------------------------------------------------------------------------
# verification suites

CheckItem = tuple[str, Callable[[], tuple[int, Optional[str]]]]


def _at_most(bound: int, largest: int) -> None:
    # a builder makes every item first; each largest ran under 30 MB
    if bound > largest:
        raise UnsupportedSize(f"--max-n {bound} is above {largest}, the largest this suite runs")


def _item(checks_of: Callable[..., Iterable[object]], *args) -> tuple[int, Optional[str]]:
    """Run one suite item: the number of checks that held before the first
    failure, and that failure's counterexample (None if every check held)."""
    ran = 0
    for ran, failure in enumerate(checks_of(*args), 1):
        if failure:
            return ran - 1, failure
    return ran, None


def _psi_checks(n: int):
    ds = divisors(n)
    ps = {k: psi(n, k) for k in ds}
    for k in ds:
        yield (ps[k] * n).den != 1 and f"n*psi_{{{n},{k}}} is not integral"
        yield ps[k] * ps[k] != ps[k] and f"psi_{{{n},{k}}}^2 != psi_{{{n},{k}}}"
        for l in ds:
            if l != k:
                yield not (ps[k] * ps[l]).is_zero() and f"psi_{{{n},{k}}}*psi_{{{n},{l}}} != 0"
    yield (sum(ps.values(), CycPoly.zero(n, n)) != CycPoly.one(n, n)
           and f"sum of psi_{{{n},k}} != 1")


def _suite_psi(bound: int, seed: int) -> list[CheckItem]:
    _at_most(bound, 400)
    return [(f"n={n}", partial(_item, _psi_checks, n)) for n in range(1, bound + 1)]


def _character_checks(n: int):
    one = CycEltN.one(n, n)
    zero = CycEltN.zero(n, n)
    for k in divisors(n):
        for j, value in enumerate(to_character(RepElt(psi(n, k))).values):
            want = one if order_mod(j, n) == k else zero
            yield (value != want
                   and f"char(psi_{{{n},{k}}})({j}) != [ord({j})={k}]")


def _suite_characters(bound: int, seed: int) -> list[CheckItem]:
    _at_most(bound, 300)
    return [(f"n={n}", partial(_item, _character_checks, n)) for n in range(1, bound + 1)]


def _frobenius_checks(n: int, k: int):
    # the closed forms and their character oracles count as one check
    w = n // k
    p_kk, p_nk = p_idempotent(k, k, n), p_idempotent(n, k, n)
    ind = induce(p_kk, n)
    yield (ind != p_nk * w and f"ind(p_{{{k},{k}}}) != {w} * p_{{{n},{k}}}"
           or ind != _induce_via_characters(p_kk, n)
           and f"ind(p_{{{k},{k}}}) differs from its character oracle"
           or restrict(p_nk, k) != _restrict_via_characters(p_nk, k)
           and f"res(p_{{{n},{k}}}) differs from its character oracle")
    # the report's count includes a failing pair
    rep = frobenius_check(n, k)
    yield from repeat(False, rep.checked)
    if not rep.passed:
        a, b = rep.counterexample
        yield f"ind(res(z^{b})*z^{a}) != z^{b}*ind(z^{a}) at (n,k)=({n},{k})"


def _suite_frobenius(bound: int, seed: int) -> list[CheckItem]:
    _at_most(bound, 150)
    return [(f"n={n},k={k}", partial(_item, _frobenius_checks, n, k))
            for n in range(1, bound + 1) for k in divisors(n)]


def _roundtrip_checks(n: int):
    for coeffs in ((1,) + (0,) * (n - 1), tuple(range(1, n + 1))):
        a = CycPoly(n, n, coeffs)
        yield crt_join(crt_split(a)) != a and f"crt_join(crt_split(.)) != id at n={n}"


def _pair_checks(idx: int, n: int, xc, yc):
    x = CycPoly(n, n, xc)
    y = CycPoly(n, n, yc)
    sx, sy, sxy = crt_split(x), crt_split(y), crt_split(x * y)
    for k in divisors(n):
        yield (sx[k] * sy[k] != sxy[k]
               and f"crt_split not multiplicative at n={n}, k={k}, pair {idx}")
    yield crt_join(sxy) != x * y and f"crt roundtrip failed on product, n={n}, pair {idx}"


def _suite_crt(bound: int, seed: int) -> list[CheckItem]:
    _at_most(bound, 300)
    rng = random.Random(seed)
    ns = [n for n in range(2, bound + 1)] or [1]
    pairs = []
    for i in range(100):
        n = ns[i % len(ns)]
        x = tuple(rng.randint(-9, 9) for _ in range(n))
        y = tuple(rng.randint(-9, 9) for _ in range(n))
        pairs.append((n, x, y))
    return ([(f"roundtrip n={n}", partial(_item, _roundtrip_checks, n))
             for n in range(1, bound + 1)]
            + [(f"pair {i} (n={n})", partial(_item, _pair_checks, i, n, x, y))
               for i, (n, x, y) in enumerate(pairs)])


def _crossed_preset_names(bound: int) -> list[str]:
    names = [f"cyclic({n})" for n in range(1, bound + 1)]
    if bound >= 4:
        names.append("klein_four")
    names += [f"dihedral({m})" for m in range(3, bound // 2 + 1)]
    if bound >= 6:
        names.append("symmetric(3)")
    if bound >= 24:
        names.append("symmetric(4)")
    return names


_RELATION_FAILURES = {
    "phi": "Phi_n(Z) != 0",
    "table": "coset table relation fails",
    "twist": "twisted commutation fails",
}


def _crossed_checks(seed: int, name: str, class_index: int, ring: CrossedRing):
    label = f"{name}[{class_index}]"
    rep = regular_representation(ring)
    for rel in crossed_relations(ring, rep.z, rep.cosets, (0,) * ring.rank):
        yield rel.bad is not None and f"{label}: {_RELATION_FAILURES[rel.kind]}"
    # associativity and unit on seeded random triples
    rng = random.Random(f"{seed}:{name}:{class_index}")

    def rand_elt():
        deg = totient(ring.n)
        return CrossedElt(ring, tuple(
            CycEltN(ring.n, ring.N, tuple(rng.randint(-3, 3) for _ in range(deg)))
            for _ in range(ring.weyl_order)
        ))

    one = CrossedElt.one(ring)
    for _ in range(4):
        x, y, z = rand_elt(), rand_elt(), rand_elt()
        yield (x * y) * z != x * (y * z) and f"{label}: associativity fails"
        yield (x * one != x or one * x != x) and f"{label}: unit fails"
    # splitting sanity
    parts = split_ring(ring)
    yield (sum(s.rank() * s.multiplicity for s in parts) != ring.rank
           and f"{label}: summand ranks do not sum to rank")
    idems = splitting_idempotents(ring)
    if idems is not None:
        for i, e in enumerate(idems):
            yield e * e != e and f"{label}: idempotent {i} fails e^2=e"
            # orthogonality stops the item when it fails but is not counted
            for j, f in enumerate(idems):
                if i != j and not (e * f).is_zero():
                    yield f"{label}: idempotents {i},{j} not orthogonal"
        yield (sum(idems, CrossedElt.zero(ring)) != one
               and f"{label}: idempotents do not sum to 1")


def _suite_crossed(bound: int, seed: int) -> list[CheckItem]:
    _at_most(bound, 48)
    return [(f"{name}[{ci}]",
             partial(_item, _crossed_checks, seed, name, ci, build_crossed_ring(C, G.order)))
            for name in _crossed_preset_names(bound)
            if (G := preset_group(name)).order <= bound
            for ci, C in enumerate(cyclic_classes(G))]


SUITES = {
    "psi-identities": _suite_psi,
    "characters": _suite_characters,
    "frobenius": _suite_frobenius,
    "crt": _suite_crt,
    "crossed-relations": _suite_crossed,
}


def _thread_count() -> int:
    raw = os.environ.get("WORKBENCH_THREADS", "1")
    try:
        val = int(raw)
    except ValueError as exc:
        raise InputError(f"WORKBENCH_THREADS={raw!r} is not an integer") from exc
    return max(val, 1)


def cmd_verify(args) -> int:
    suite = SUITES.get(args.suite)
    if suite is None:
        raise InputError(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}")
    if args.max_n < 1:
        raise InputError("--max-n must be >= 1")
    items = suite(args.max_n, args.seed)
    threads = _thread_count()
    results = [(key, *fn()) for key, fn in items]
    checks = sum(c for _, c, _ in results)
    failure = next(((key, err) for key, _, err in results if err is not None), None)
    payload = {
        "suite": args.suite,
        "max_n": args.max_n,
        "seed": args.seed,
        "threads": threads,
        "items": len(items),
        "checks": checks,
        "passed": failure is None,
        "counterexample": None if failure is None else f"{failure[0]}: {failure[1]}",
    }
    if failure is None:
        text = (f"suite {args.suite}: PASS"
                f" ({len(items)} items, {checks} checks, max n {args.max_n},"
                f" seed {args.seed})")
    else:
        text = (f"suite {args.suite}: FAIL at {failure[0]}: {failure[1]}\n"
                f"({checks} checks ran, max n {args.max_n}, seed {args.seed})")
    _emit(payload, args.json, text)
    return 0 if failure is None else 1


# ---------------------------------------------------------------------------
# uct


def _group_json(g) -> dict:
    return {"factors": list(g.factors), "free_rank": g.free_rank,
            "order": g.order(), "name": str(g)}


def cmd_uct(args) -> int:
    G = load_group(args.src)
    report = target_category(G)
    fam_a = family_from_json(report, _load_json(args.a))
    fam_b = family_from_json(report, _load_json(args.b))
    for tag, fam in (("A", fam_a), ("B", fam_b)):
        rep = fam.validate()
        if not rep.ok:
            raise InputError(f"family {tag} invalid: {rep.message}")
    res = uct_order(fam_a, fam_b)
    payload = {}
    lines = []
    for d in (0, 1):
        deg = res.degrees[d]
        payload[f"degree{d}"] = {
            "hom": _group_json(deg.hom_group),
            "ext": _group_json(deg.ext_group),
            "kk_order": deg.kk_order,
        }
        lines.append(
            f"degree {d}: hom = {deg.hom_group} (order {deg.hom_group.order()}),"
            f" ext = {deg.ext_group} (order {deg.ext_group.order()}),"
            f" kk order {deg.kk_order}"
        )
    _emit(payload, args.json, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# entry point


@lru_cache(maxsize=1)
def _parser(suites: tuple[str, ...]) -> argparse.ArgumentParser:
    # built on the first main() call and kept; keyed on the suite names, so
    # that a suite registered later is offered
    parser = argparse.ArgumentParser(
        prog="workbench",
        description="Exact-arithmetic workbench for cyclic-subgroup "
                    "target categories and UCT order computations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group-info", help="order, element orders, cyclic classes")
    p.add_argument("src", help="preset:<name> or path to a JSON group file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_group_info)

    p = sub.add_parser("target-category", help="ring summands per cyclic class")
    p.add_argument("src")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_target_category)

    p = sub.add_parser("verify", help="run an identity suite")
    p.add_argument("suite", choices=suites)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("uct", help="hom/ext orders for two module families")
    p.add_argument("src")
    p.add_argument("--a", required=True, help="module family file for A")
    p.add_argument("--b", required=True, help="module family file for B")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_uct)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser(tuple(sorted(SUITES))).parse_args(argv)
    try:
        return args.fn(args)
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
