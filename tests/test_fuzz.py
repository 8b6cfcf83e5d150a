"""Seeded fuzzing of malformed inputs through `cli.main`.

Each case mutates one valid input that the other tests already use: a group
file, a module family file (`golden/readme_family.json` among them), a preset
string or an argv.  Every case must exit 0 or 2, and 1 only from `verify`
with a counterexample; no exception may escape.  All cases run in one child
process, this file run as a script, under an address-space cap and a timer
per case, so a case that exhausts memory or hangs fails here instead of
taking the machine with it.
"""

import contextlib
import io
import json
import os
import random
import sys
from pathlib import Path

SEED = 21
CASES = 1000
MEMORY_CAP = 1 << 30  # bytes of address space for the child
CASE_SECONDS = 2.0
HERE = Path(__file__).resolve().parent

# each suite's largest --max-n, and a bound small enough for many cases
LARGEST = {"psi-identities": 400, "characters": 300, "frobenius": 150, "crt": 300,
           "crossed-relations": 48}
SMALL = {"psi-identities": 10, "characters": 10, "frobenius": 8, "crt": 6,
         "crossed-relations": 4}

PRESETS = ["cyclic(6)", "dihedral(4)", "symmetric(3)", "klein_four", "trivial",
           "direct_product(cyclic(2),symmetric(3))"]
# an integer of more digits than int() reads from a string
TOO_LONG = "1" + "0" * 5000
SWAPS = [None, True, False, "x", "", 1.5, [], {}, 0, -1, [[]], {"x": 1}]
HUGE = [10 ** 30, 2 ** 63, -(10 ** 20), 10 ** 400, TOO_LONG]
SMALL_INTS = [0, -1, -7, 1]
NUMBERS = ["0", "-1", "00", "5041", str(10 ** 30), "x", "", "1.5", "²", " 7 ", "1e3"]


class _Timeout(Exception):
    pass


def _valid_groups():
    from uctbench.groups import preset_group

    return [{"table": [list(r) for r in preset_group("symmetric(3)").mul]},
            {"table": [[0, 1], [1, 0]], "labels": ["e", "a"], "order": 2},
            {"preset": "dihedral(4)"}]


def _valid_families():
    readme = json.loads((HERE / "golden" / "readme_family.json").read_text(encoding="utf-8"))
    return [("symmetric(3)", readme),
            ("cyclic(2)", {"modules": [{"summand": 0, "degree0": {"orders": [3]},
                                        "degree1": {"orders": [9, 3]}}]}),
            ("cyclic(3)", {"modules": [{"summand": 1, "degree1": {"orders": [7], "z": [[2]]}}]})]


def _paths(doc, at=()):
    yield at
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _paths(v, at + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _paths(v, at + (i,))


def _mutate_json(rng: random.Random, doc) -> str:
    """The text of doc with one value at a random place changed."""
    doc = json.loads(json.dumps(doc))
    at = rng.choice(list(_paths(doc)))
    kind = rng.choice(["swap", "delete", "nest", "huge", "size", "length"])
    value = doc
    for k in at:
        value = value[k]
    if kind == "delete" and at:
        parent = doc
        for k in at[:-1]:
            parent = parent[k]
        del parent[at[-1]]
        return json.dumps(doc)
    if kind == "length" and isinstance(value, list):
        new = value + [rng.choice(value) if value else 0] if rng.random() < 0.5 else value[:-1]
    elif kind == "nest":
        new = "\0NEST%d" % rng.choice([2, 50, 100_000])
    elif kind == "huge":
        new = rng.choice(HUGE)
    elif kind == "size":
        new = rng.choice(SMALL_INTS)
    else:
        new = rng.choice(SWAPS)
    if not at:
        doc = new
    else:
        parent = doc
        for k in at[:-1]:
            parent = parent[k]
        parent[at[-1]] = new
    text = json.dumps(doc)
    # placeholders for what json.dumps cannot write: an integer longer than
    # int() reads, and a value wrapped in many lists
    text = text.replace(json.dumps(TOO_LONG), TOO_LONG)
    if "\\u0000NEST" in text:
        head, _, rest = text.partition('"\\u0000NEST')
        depth, _, tail = rest.partition('"')
        text = head + "[" * int(depth) + json.dumps(value) + "]" * int(depth) + tail
    return text


def _mutate_preset(rng: random.Random, name: str) -> str:
    kind = rng.choice(["number", "drop", "repeat", "nest", "head"])
    digits = [i for i, ch in enumerate(name) if ch.isdigit()]
    if kind == "number" and digits:
        i = rng.choice(digits)
        return name[:i] + rng.choice(NUMBERS) + name[i + 1:]
    if kind == "drop":
        i = rng.randrange(len(name))
        return name[:i] + name[i + 1:]
    if kind == "repeat":
        i, j = sorted(rng.sample(range(len(name) + 1), 2))
        return name[:j] + name[i:j] + name[j:]
    if kind == "nest":
        for _ in range(rng.choice([2, 17, 300])):
            name = f"direct_product(cyclic(1),{name})"
        return name
    head = rng.choice(["cyclic", "dihedral", "symmetric", "klein_four", "trivial",
                       "direct_product", "monster", ""])
    return head + name[name.index("("):] if "(" in name else head + "(2)"


def _case(rng: random.Random, workdir: Path):
    """One argv, and the text of the file it reads if any."""
    kind = rng.choice(["group", "family", "preset", "argv"])
    path = str(workdir / "input.json")
    if kind == "group":
        text = _mutate_json(rng, rng.choice(_valid_groups()))
        if rng.random() < 0.05:
            text = "\udcff" + text  # not UTF-8 once written
        cmd = rng.choice(["group-info", "target-category"])
        return [cmd, path] + rng.choice([[], ["--json"]]), text
    if kind == "family":
        preset, doc = rng.choice(_valid_families())
        other = str(workdir / "valid.json")
        (workdir / "valid.json").write_text(json.dumps(doc), encoding="utf-8")
        return (["uct", f"preset:{preset}", "--a", path, "--b", rng.choice([path, other])]
                + rng.choice([[], ["--json"]]), _mutate_json(rng, doc))
    if kind == "preset":
        name = _mutate_preset(rng, rng.choice(PRESETS))
        cmd = rng.choice(["group-info", "target-category"])
        if rng.random() < 0.3:
            return [cmd, path], json.dumps({"preset": name})
        return [cmd, f"preset:{name}"], None
    suite = rng.choice(sorted(LARGEST))
    max_n = rng.choice([str(rng.randint(1, SMALL[suite])), "0", "-3", str(LARGEST[suite] + 1),
                        "100000000000", "abc", "", "1.5", TOO_LONG])
    argv = ["verify", suite, "--max-n", max_n, "--seed", rng.choice(["0", "7", "-1", TOO_LONG])]
    mutation = rng.random()
    if mutation < 0.1:
        del argv[rng.randrange(len(argv))]
    elif mutation < 0.2:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(["--json", "--bogus", "verify", "x"]))
    elif mutation < 0.25:
        argv[1] = rng.choice(["broken", "", "PSI-IDENTITIES"])
    return argv, None


def _raise_timeout(signum, frame):
    raise _Timeout(f"case took more than {CASE_SECONDS} s")


def _child(workdir: Path) -> None:
    import resource
    import signal

    from uctbench import cli

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    signal.signal(signal.SIGALRM, _raise_timeout)
    rng = random.Random(SEED)
    results = []
    for _ in range(CASES):
        argv, text = _case(rng, workdir)
        if text is not None:
            (workdir / "input.json").write_bytes(text.encode("utf-8", "surrogateescape"))
        out, err = io.StringIO(), io.StringIO()
        signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argv with exit 2
            rc = exc.code
        except BaseException as exc:
            rc = f"{type(exc).__name__}: {exc}"[:300]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        results.append({"argv": [a[:200] for a in argv], "file": text and text[:200],
                        "rc": rc, "out": out.getvalue()[:300], "err": err.getvalue()[:300]})
    json.dump(results, sys.stdout)


def _acceptable(case) -> bool:
    rc = case["rc"]
    if rc == 1:
        return case["argv"][0] == "verify" and "FAIL" in case["out"]
    if rc == 2:
        # a named error, or argparse's usage and error lines
        return case["err"].startswith(("error: ", "usage: workbench"))
    return rc == 0


def test_malformed_inputs_exit_0_or_2(tmp_path):
    import subprocess

    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = json.loads(proc.stdout)
    assert len(results) == CASES
    bad = [case for case in results if not _acceptable(case)]
    assert not bad, json.dumps(bad[:5], indent=1)
    # the mutations reach past the argument parser and the loaders
    assert sum(case["rc"] == 0 for case in results) > 50
    assert len({case["err"].partition(":")[2][:30] for case in results}) > 40


if __name__ == "__main__":
    _child(Path(sys.argv[1]))
