"""Failure paths of the verify suites: one callee of `uctbench.cli` is
patched to go wrong, and the failing item's (checks, counterexample) pair
and the suite's summed check count are pinned.  The counts follow each
suite's counting rule on a failure: checks that held before it count, the
failing check does not, except that frobenius counts the failing pair of
its FrobeniusReport and crossed-relations never counts its orthogonality
checks."""

import json

import pytest

import uctbench.cli as cli
from uctbench.cli import SUITES, main
from uctbench.crossring import CrossedElt
from uctbench.green import CharFn, FrobeniusReport


_REAL = {name: getattr(cli, name) for name in
         ("psi", "to_character", "_induce_via_characters", "frobenius_check", "crt_join")}


def _wrong_psi(n, k, *rest):
    p = _REAL["psi"](n, k, *rest)
    return p * 2 if (n, k) == (6, 3) else p


def _one_wrong_value(x):
    # value 4 of psi_{6,3}'s character, the second j of order 3
    ch = _REAL["to_character"](x)
    if x.value != _REAL["psi"](6, 3):
        return ch
    return CharFn(ch.n, ch.N, ch.values[:4] + (ch.values[4] * 2,) + ch.values[5:])


def _wrong_induce_oracle(x, n):
    y = _REAL["_induce_via_characters"](x, n)
    return y * 2 if n == 6 else y


def _failing_frobenius(n, k, *rest):
    if (n, k) == (6, 2):
        return FrobeniusReport(n, k, False, 5, (1, 2))
    return _REAL["frobenius_check"](n, k, *rest)


def _wrong_crt_join(parts):
    a = _REAL["crt_join"](parts)
    return a * 2 if max(parts) == 5 else a


def _unit_twice(ring):
    return [CrossedElt.one(ring)] * 2


# (suite, bound, patched callee, replacement, {item key: (checks, error)},
#  summed checks of the whole run, first counterexample)
CASES = [
    ("psi-identities", 8, "psi", _wrong_psi,
     {"n=6": (11, "psi_{6,3}^2 != psi_{6,3}"), "n=5": (7, None)},
     76, "n=6: psi_{6,3}^2 != psi_{6,3}"),
    ("characters", 8, "psi", _wrong_psi,
     {"n=6": (14, "char(psi_{6,3})(2) != [ord(2)=3]")},
     93, "n=6: char(psi_{6,3})(2) != [ord(2)=3]"),
    ("characters", 8, "to_character", _one_wrong_value,
     {"n=6": (16, "char(psi_{6,3})(4) != [ord(4)=3]"), "n=5": (10, None)},
     95, "n=6: char(psi_{6,3})(4) != [ord(4)=3]"),
    ("frobenius", 8, "_induce_via_characters", _wrong_induce_oracle,
     {"n=6,k=2": (0, "ind(p_{2,2}) differs from its character oracle")},
     269, "n=6,k=1: ind(p_{1,1}) differs from its character oracle"),
    ("frobenius", 8, "frobenius_check", _failing_frobenius,
     {"n=6,k=2": (6, "ind(res(z^2)*z^1) != z^2*ind(z^1) at (n,k)=(6,2)")},
     338, "n=6,k=2: ind(res(z^2)*z^1) != z^2*ind(z^1) at (n,k)=(6,2)"),
    ("crt", 8, "crt_join", _wrong_crt_join,
     {"roundtrip n=5": (0, "crt_join(crt_split(.)) != id at n=5"),
      "pair 3 (n=5)": (2, "crt roundtrip failed on product, n=5, pair 3")},
     370, "roundtrip n=5: crt_join(crt_split(.)) != id at n=5"),
    ("crossed-relations", 4, "splitting_idempotents", _unit_twice,
     {"cyclic(2)[0]": (17, "cyclic(2)[0]: idempotents 0,1 not orthogonal")},
     222, "cyclic(1)[0]: cyclic(1)[0]: idempotents 0,1 not orthogonal"),
]


@pytest.mark.parametrize("suite, bound, callee, fake, items, total, first", CASES,
                         ids=[f"{c[0]}-{c[2]}" for c in CASES])
def test_forced_failure_counts(monkeypatch, capsys, suite, bound, callee, fake,
                               items, total, first):
    monkeypatch.setattr(cli, callee, fake)
    built = dict(SUITES[suite](bound, 0))
    for key, pair in items.items():
        assert built[key]() == pair, key
    assert main(["verify", suite, "--max-n", str(bound), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert (payload["checks"], payload["passed"], payload["counterexample"]) == (
        total, False, first)
