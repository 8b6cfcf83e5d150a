import json
import os
import re
import subprocess
import sys
import time

import pytest

from uctbench.cli import SUITES, main
from uctbench.errors import UnsupportedSize
from uctbench.groups import preset_group

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_group_info_klein(capsys):
    code, out, err = run(capsys, "group-info", "preset:klein_four")
    assert code == 0
    assert "4 conjugacy classes" in out


def test_group_info_trivial(capsys):
    code, out, _ = run(capsys, "group-info", "preset:cyclic(1)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 1
    assert len(payload["classes"]) == 1


def test_group_file_roundtrip(tmp_path, capsys):
    table = [list(r) for r in preset_group("symmetric(3)").mul]
    path = tmp_path / "s3.json"
    path.write_text(json.dumps({"order": 6, "table": table}))
    code, out, _ = run(capsys, "group-info", str(path))
    assert code == 0
    assert "3 conjugacy classes" in out
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "group-info", str(bad))
    assert code == 2
    assert "invalid JSON" in err


def test_group_file_order_mismatch(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"order": 3, "table": [[0, 1], [1, 0]]}))
    code, _, err = run(capsys, "group-info", str(path))
    assert code == 2
    assert "declared order" in err


def test_unknown_preset_exit_code(capsys):
    code, _, err = run(capsys, "group-info", "preset:monster")
    assert code == 2
    assert "error:" in err


def test_target_category_klein(capsys):
    code, out, _ = run(capsys, "target-category", "preset:klein_four")
    assert code == 0
    assert "total: 10 summands" in out
    assert "Z[1/2]" in out
    code, out, _ = run(capsys, "target-category", "preset:klein_four", "--json")
    payload = json.loads(out)
    assert payload["total_summands"] == 10


def test_target_category_cyclic5(capsys):
    code, out, _ = run(capsys, "target-category", "preset:cyclic(5)", "--json")
    payload = json.loads(out)
    summands = [s for c in payload["classes"] for s in c["summands"]
                for _ in range(s["multiplicity"])]
    assert len(summands) == 3
    assert sorted(s["d"] for s in summands) == [1, 5, 5]


def test_target_category_s3_mentions_unsplit(capsys):
    code, out, _ = run(capsys, "target-category", "preset:symmetric(3)")
    assert code == 0
    assert "unsplit" in out
    assert "W(2)" in out


def test_verify_pass_and_determinism(capsys, monkeypatch):
    code, out1, _ = run(capsys, "verify", "crt", "--max-n", "8", "--seed", "3")
    assert code == 0
    assert "PASS" in out1
    code, out2, _ = run(capsys, "verify", "crt", "--max-n", "8", "--seed", "3")
    assert out1 == out2
    monkeypatch.setenv("WORKBENCH_THREADS", "4")
    code, out3, _ = run(capsys, "verify", "crt", "--max-n", "8", "--seed", "3", "--json")
    payload = json.loads(out3)
    assert payload["passed"] is True
    assert payload["seed"] == 3
    assert payload["threads"] == 4


def test_verify_failure_exit_code(capsys, monkeypatch):
    def broken(bound, seed):
        return [("always", lambda: (1, "forced counterexample"))]

    code, out, _ = run(capsys, "verify", "psi-identities", "--max-n", "4")
    assert code == 0
    # main keeps its parser after that call: a suite registered later parses
    monkeypatch.setitem(SUITES, "broken", broken)
    assert run(capsys, "verify", "broken", "--max-n", "1") == (
        1, "suite broken: FAIL at always: forced counterexample\n"
           "(1 checks ran, max n 1, seed 0)\n", "")
    # direct dispatch through the suite table
    import uctbench.cli as cli

    class Args:
        suite = "broken"
        max_n = 1
        seed = 0
        json = False

    assert cli.cmd_verify(Args()) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "forced counterexample" in out


def _call_catching_exit(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("exit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_repeated_calls_match_first_calls(tmp_path, capsys):
    import uctbench.cli as cli

    a = tmp_path / "a.json"
    a.write_text(json.dumps({"modules": [{"summand": 0, "degree0": {"orders": [3]}}]}))
    uct = ("uct", "preset:cyclic(2)", "--a", str(a), "--b", str(a))
    argvs = [
        ("group-info", "preset:klein_four"), ("group-info", "preset:klein_four", "--json"),
        ("target-category", "preset:symmetric(3)"),
        ("target-category", "preset:cyclic(5)", "--json"),
        ("verify", "crt", "--max-n", "6"), ("verify", "psi-identities", "--max-n", "5", "--json"),
        uct, uct + ("--json",), ("group-info", "preset:monster"),
        ("frobnicate",), ("verify", "nosuch", "--max-n", "1"), ("uct", "preset:cyclic(2)"),
        ("verify", "crt", "--max-n", "x"), ("verify", "crt", "--max-n", "2", "--bogus"), (),
        ("--help",), ("verify", "--help"), ("uct", "-h"), ("--version",),
    ]
    # a freshly built parser, then the kept one, with the argparse exits
    # interleaved among ordinary calls
    cli._parser.cache_clear()
    first = [_call_catching_exit(capsys, argv) for argv in argvs]
    for _ in range(2):
        assert [_call_catching_exit(capsys, argv) for argv in argvs] == first
    assert cli._parser.cache_info().misses == 1
    codes = [code for code, _, _ in first]
    assert codes[:8] == [0] * 8 and codes[8] == 2
    assert codes[9:15] == [("exit", 2)] * 6 and codes[15:] == [("exit", 0)] * 4
    assert first[-1][1] == f"{cli.__version__}\n"


def test_parser_is_built_on_the_first_call_not_at_import():
    script = (
        "import contextlib, io\n"
        "from uctbench import cli\n"
        "built = [cli._parser.cache_info().misses]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for _ in range(3):\n"
        "        cli.main(['group-info', 'preset:cyclic(1)'])\n"
        "        built.append(cli._parser.cache_info().misses)\n"
        "print(built)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 1, 1, 1]\n"


@pytest.mark.parametrize("suite, largest", [
    ("psi-identities", 400), ("characters", 300), ("frobenius", 150), ("crt", 300),
    ("crossed-relations", 48),
])
def test_verify_above_the_largest_bound_exits_2_at_once(capsys, suite, largest):
    # each builder made every item before it ran one: at 10^11 psi-identities,
    # crt and crossed-relations ran out of memory, and frobenius kept going
    start = time.perf_counter()
    code, _, err = run(capsys, "verify", suite, "--max-n", "100000000000")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err == f"error: --max-n 100000000000 is above {largest}, the largest this suite runs\n"
    with pytest.raises(UnsupportedSize):
        SUITES[suite](largest + 1, 0)


def test_verify_crossed_relations(capsys):
    code, out, _ = run(capsys, "verify", "crossed-relations", "--max-n", "8")
    assert code == 0
    assert "PASS" in out


def test_verify_bad_thread_env(capsys, monkeypatch):
    monkeypatch.setenv("WORKBENCH_THREADS", "lots")
    code, _, err = run(capsys, "verify", "crt", "--max-n", "4")
    assert code == 2
    assert "WORKBENCH_THREADS" in err


def test_uct_command(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"modules": [{"summand": 0, "degree0": {"orders": [3]}}]}))
    code, out, _ = run(capsys, "uct", "preset:cyclic(2)", "--a", str(a), "--b", str(a))
    assert code == 0
    assert "degree 0" in out and "kk order 3" in out
    code, out, _ = run(capsys, "uct", "preset:cyclic(2)", "--a", str(a), "--b", str(a),
                       "--json")
    payload = json.loads(out)
    assert payload["degree0"]["kk_order"] == 3
    assert payload["degree1"]["kk_order"] == 3
    assert payload["degree0"]["hom"]["factors"] == [3]
    assert payload["degree1"]["ext"]["factors"] == [3]


def test_uct_zero_families(tmp_path, capsys):
    a = tmp_path / "zero.json"
    a.write_text(json.dumps({"modules": []}))
    code, out, _ = run(capsys, "uct", "preset:klein_four", "--a", str(a), "--b", str(a))
    assert code == 0
    assert "kk order 1" in out


def test_uct_bad_summand_index(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"modules": [{"summand": 0, "degree0": {"orders": [3]}}]}))
    b = tmp_path / "b.json"
    b.write_text(json.dumps({"modules": [{"summand": 42, "degree0": {"orders": [3]}}]}))
    code, _, err = run(capsys, "uct", "preset:cyclic(2)", "--a", str(a), "--b", str(b))
    assert code == 2
    assert "out of range" in err


def test_uct_invalid_module_named_relation(tmp_path, capsys):
    # z action breaking the cyclotomic relation must be reported by name
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"modules": [{
        "summand": 1,
        "degree0": {"orders": [7], "z": [[1]]},
    }]}))
    code, _, err = run(capsys, "uct", "preset:cyclic(3)", "--a", str(a), "--b", str(a))
    assert code == 2
    assert "Phi_3" in err


def _uct_with_a(tmp_path, capsys, module):
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"modules": [module]}))
    b = tmp_path / "b.json"
    b.write_text(json.dumps({"modules": []}))
    return run(capsys, "uct", "preset:cyclic(2)", "--a", str(a), "--b", str(b))


def test_uct_summand_bool_rejected(tmp_path, capsys):
    code, _, err = _uct_with_a(tmp_path, capsys,
                               {"summand": True, "degree0": {"orders": [3]}})
    assert code == 2
    assert "'summand' must be an integer" in err


def test_uct_fractional_order_rejected(tmp_path, capsys):
    code, _, err = _uct_with_a(tmp_path, capsys,
                               {"summand": 0, "degree0": {"orders": [3.5]}})
    assert code == 2
    assert "orders must be integers" in err


def test_uct_string_order_rejected(tmp_path, capsys):
    code, _, err = _uct_with_a(tmp_path, capsys,
                               {"summand": 0, "degree0": {"orders": ["a"]}})
    assert code == 2
    assert "orders must be integers" in err


def test_uct_huge_orders_answer_quickly(tmp_path):
    # Orders were factored by trial division, in validation and again in
    # the group's invariant factors: a 23-digit order never finished.  Run
    # in a child process so that a hang fails the test instead of the suite.
    p = 2 ** 61 - 1
    files = {}
    for tag, orders in (("big", [99999999999999999999999]), ("pp", [p * p]), ("p", [p])):
        files[tag] = tmp_path / f"{tag}.json"
        files[tag].write_text(json.dumps({"modules": [{"summand": 0,
                                                       "degree0": {"orders": orders}}]}))
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=src)

    def uct(a, b):
        proc = subprocess.run(
            [sys.executable, "-m", "uctbench.cli", "uct", "preset:cyclic(2)",
             "--a", str(files[a]), "--b", str(files[b]), "--json"],
            capture_output=True, text=True, env=env, timeout=20)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    assert uct("big", "big")["degree0"]["hom"]["factors"] == [99999999999999999999999]
    payload = uct("pp", "p")
    assert payload["degree0"]["hom"]["factors"] == [p]
    assert payload["degree1"]["ext"]["factors"] == [p]


@pytest.mark.parametrize("argv", [
    ["target-category", "preset:cyclic(720)", "--json"],  # 38 KB
    ["group-info", "preset:cyclic(2)"],
], ids=["long-report", "short-report"])
def test_closed_stdout_exits_2_with_one_error_line(argv):
    # the reader has gone before the first write, as `| head -1` can leave
    # a report longer than the pipe holds: a BrokenPipeError traceback, exit 1
    # stdout block-buffered, as it is by default: a short report then waits
    # in the buffer unless it is flushed inside main
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("PYTHONUNBUFFERED", None)
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "uctbench.cli", *argv], stdout=w,
                              stderr=subprocess.PIPE, text=True, timeout=60, env=env)
    finally:
        os.close(w)
    assert proc.returncode == 2
    assert proc.stderr == "error: standard output was closed before the output was written\n"


def test_readme_module_family_example(tmp_path, capsys):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"```json\n(.*?)```", fh.read(), re.S)
    example = next(b for b in blocks if '"modules"' in b)
    path = tmp_path / "family.json"
    path.write_text(example)
    code, out, err = run(capsys, "uct", "preset:symmetric(3)", "--a", str(path),
                         "--b", str(path), "--json")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["degree0"]["hom"]["factors"] == [35]
    assert payload["degree0"]["ext"]["factors"] == []
    assert payload["degree1"]["hom"]["factors"] == []
    assert payload["degree1"]["ext"]["factors"] == [35]
