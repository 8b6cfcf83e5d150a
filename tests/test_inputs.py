"""Malformed input files end in exit 2 with a named error, never a traceback."""

import json
import os

import pytest

from uctbench import amod, cli, group_from_table, preset_group
from uctbench.amod import MAX_LATTICE_WIDTH
from uctbench.errors import InvalidGroupTable, UnsupportedSize
from uctbench.groups import MAX_PRESET_DEPTH
from uctbench.cli import main


@pytest.mark.parametrize("payload, message", [
    ({"table": None}, "table must be a list of rows"),
    ({"table": [["a"]]}, "table must be a list of rows"),
    ({"table": [[0.0]]}, "table must be a list of rows"),
    ({"table": [[True]]}, "table must be a list of rows"),
    ({"table": [[0]], "labels": 5}, "labels must be a list of strings"),
    ({"preset": 5}, "'preset' must be a preset name string"),
    ({"table": [[0, 1], [1, 0]], "labels": ["e", "e"]}, "label 'e' names more than one element"),
    ({"table": [[0, 1], [1, 0]], "lables": ["e", "a"]},
     "group file has unknown key 'lables'; allowed keys: table, labels, order"),
    ({"preset": "cyclic(3)", "table": [[0]]},
     "group file has unknown key 'table'; allowed keys: preset"),
])
def test_group_file_type_errors(tmp_path, capsys, payload, message):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(payload))
    code = main(["group-info", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert message in err


@pytest.mark.parametrize("table, labels", [
    (None, None), ([["a"]], None), ([[0.0]], None), ([[True]], None), ([[0]], 5), ([[0]], [0]),
])
def test_group_from_table_type_errors(table, labels):
    with pytest.raises(InvalidGroupTable):
        group_from_table(table, labels)


@pytest.mark.parametrize("preset", [
    "cyclic(²)", "direct_product(cyclic(3),symmetric(¹))", "cyclic(٣)",
])
def test_preset_non_ascii_digit_exits_2(capsys, preset):
    code = main(["group-info", f"preset:{preset}"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert "takes one integer argument" in err


@pytest.mark.parametrize("degree1", [0, False, "", []])
def test_non_object_degree_exits_2(tmp_path, capsys, degree1):
    # a falsy non-object degree used to read as a zero part and exit 0
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"modules": [
        {"summand": 0, "degree0": {"orders": [3]}, "degree1": degree1}]}))
    code = main(["uct", "preset:cyclic(2)", "--a", str(path), "--b", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert "each degree must be an object" in err


@pytest.mark.parametrize("degree1", [None, {}])
def test_null_or_empty_degree_is_zero(tmp_path, capsys, degree1):
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"modules": [
        {"summand": 0, "degree0": {"orders": [3]}, "degree1": degree1}]}))
    code = main(["uct", "preset:cyclic(2)", "--a", str(path), "--b", str(path), "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["degree0"]["hom"]["factors"] == [3]


DEEP = 100_000


def _deep_preset(depth):
    name = "cyclic(1)"
    for _ in range(depth):
        name = f"direct_product(cyclic(1),{name})"
    return name


def _exit_2(capsys, argv, message):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("preset", [
    "trivial(foo)", "trivial(cyclic(99999))", "direct_product(trivial(x),cyclic(2))",
])
def test_trivial_takes_no_arguments(capsys, preset):
    _exit_2(capsys, ["group-info", f"preset:{preset}"], "trivial takes no arguments")


@pytest.mark.parametrize("w", [
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, 1]]],
    [[[1, 0], [0, 1]]],
    "x",
])
def test_w_lists_one_matrix_per_weyl_coset(tmp_path, capsys, w):
    # symmetric(3) summand 2 is Z[theta_3, 1/6] x| W with |W| = 2; a third
    # matrix used to be dropped and a non-list asked for 1
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"modules": [{"summand": 2, "degree0": {
        "orders": [7, 7], "z": [[2, 0], [0, 4]], "w": w}}]}))
    _exit_2(capsys, ["uct", "preset:symmetric(3)", "--a", str(path), "--b", str(path)],
            "'w' must list exactly 2 matrices, one per Weyl coset")


@pytest.mark.parametrize("preset, entry, message", [
    # a misspelt degree used to make the module zero and exit 0
    ("cyclic(2)", {"summand": 0, "degre0": {"orders": [3]}},
     "module entry has unknown key 'degre0'; allowed keys: summand, degree0, degree1"),
    # Z[1/2] has no z generator: its z matrix used to be dropped
    ("cyclic(2)", {"summand": 0, "degree0": {"orders": [3], "z": [[1]]}},
     "degree object has unknown key 'z'; allowed keys: orders"),
    ("cyclic(3)", {"summand": 1, "degree1": {"orders": [7], "z": [[2]], "w": []}},
     "degree object has unknown key 'w'; allowed keys: orders, z"),
    ("symmetric(3)", {"summand": 2, "degree0": {
        "orders": [7, 7], "z": [[2, 0], [0, 4]], "w": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
        "w0": [[1, 0], [0, 1]]}},
     "degree object has unknown key 'w0'; allowed keys: orders, z, w"),
])
def test_module_file_unknown_key_exits_2(tmp_path, capsys, preset, entry, message):
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"modules": [entry]}))
    _exit_2(capsys, ["uct", f"preset:{preset}", "--a", str(path), "--b", str(path)], message)


_ENTRY = {"summand": 0, "degree0": {"orders": [2]}}


@pytest.mark.parametrize("payload, message", [
    # a misspelt top-level key, a bare list of entries and a bare entry used
    # to be read as module files and exit 0
    ({"modules": [_ENTRY], "modlues": 7},
     "module file has unknown key 'modlues'; allowed keys: modules"),
    ([_ENTRY], "module file must be an object with a 'modules' list"),
    (_ENTRY, "module file has unknown key 'summand'; allowed keys: modules"),
    # a degree with no orders used to drop its matrices, whatever their shape
    ({"modules": [{"summand": 1, "degree0": {"orders": [], "z": [[5, 6], [7, 8]]}}]},
     "action matrix must be 0x0"),
])
def test_module_file_shape_exits_2(tmp_path, capsys, payload, message):
    bad, good = tmp_path / "a.json", tmp_path / "b.json"
    bad.write_text(json.dumps(payload))
    good.write_text(json.dumps({"modules": [_ENTRY]}))
    _exit_2(capsys, ["uct", "preset:cyclic(5)", "--a", str(bad), "--b", str(good)], message)


@pytest.mark.parametrize("second, where, message", [
    ({"summand": 1, "degree1": {"orders": [11, 11], "z": [[1, 0]]}},
     "module entry 1 (summand 1) degree1", "action matrix must be 2x2"),
    ({"summand": 1, "degree0": {"orders": [11], "z": [[1]], "w": []}},
     "module entry 1 (summand 1) degree0",
     "degree object has unknown key 'w'; allowed keys: orders, z"),
])
def test_module_file_error_names_its_entry_and_degree(tmp_path, capsys, second, where,
                                                      message):
    # cyclic(5) summand 1 is Z[theta_5, 1/5]; the first entry is valid
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"modules": [_ENTRY, second]}))
    _exit_2(capsys, ["uct", "preset:cyclic(5)", "--a", str(path), "--b", str(path)],
            f"error: {where}: {message}\n")


def test_deep_group_file_exits_2(tmp_path, capsys):
    # json.load raises RecursionError on this file
    path = tmp_path / "g.json"
    path.write_text("[" * DEEP + "]" * DEEP)
    _exit_2(capsys, ["group-info", str(path)], "JSON nested too deeply")


def test_deep_module_file_exits_2(tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text('{"modules": ' + "[" * DEEP + "]" * DEEP + "}")
    _exit_2(capsys, ["uct", "preset:cyclic(2)", "--a", str(path), "--b", str(path)],
            "JSON nested too deeply")


def test_deep_preset_exits_2(capsys):
    # 2000 levels used to raise RecursionError while parsing
    _exit_2(capsys, ["group-info", f"preset:{_deep_preset(2000)}"],
            f"presets nest at most {MAX_PRESET_DEPTH} deep")


def test_preset_at_depth_bound_builds():
    assert preset_group(_deep_preset(MAX_PRESET_DEPTH)).order == 1
    with pytest.raises(UnsupportedSize):
        preset_group(_deep_preset(MAX_PRESET_DEPTH + 1))


@pytest.mark.parametrize("raw, message", [
    (b"\xff{}", "can't decode byte 0xff"),
    (b'{"table": [[1' + b"0" * 5000 + b"]]}", "Exceeds the limit (4300 digits)"),
])
def test_unreadable_json_file_exits_2(tmp_path, capsys, raw, message):
    # bytes that are not UTF-8 and an integer too long for int() both raised
    # ValueError past the JSON decoder's own error
    path = tmp_path / "g.json"
    path.write_bytes(raw)
    _exit_2(capsys, ["group-info", str(path)], message)


@pytest.mark.parametrize("order", [True, "1", 1.0])
def test_declared_order_must_be_int(tmp_path, capsys, order):
    # True == 1 used to pass as the order of a one-element table
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"table": [[0]], "order": order}))
    _exit_2(capsys, ["group-info", str(path)], "'order' must be an integer")


def _z3_family(tmp_path, k):
    path = tmp_path / f"z3_{k}.json"
    path.write_text(json.dumps({"modules": [{"summand": 0, "degree0": {"orders": [3] * k}}]}))
    return str(path)


def test_uct_above_size_bound_exits_2(tmp_path, capsys):
    # (Z/3)^41 over Z[1/2]: 41 * 41 * 1 > MAX_LATTICE_WIDTH, refused before
    # the resolution (its Hom lattice alone would be 1681 wide)
    path = _z3_family(tmp_path, 41)
    _exit_2(capsys, ["uct", "preset:cyclic(2)", "--a", path, "--b", path],
            f"1681, above {MAX_LATTICE_WIDTH}")


def test_uct_size_bound_is_inclusive(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(amod, "MAX_LATTICE_WIDTH", 4)
    path = _z3_family(tmp_path, 2)
    assert main(["uct", "preset:cyclic(2)", "--a", path, "--b", path]) == 0
    path = _z3_family(tmp_path, 3)
    _exit_2(capsys, ["uct", "preset:cyclic(2)", "--a", path, "--b", path], "9, above 4")


def test_group_file_refused_by_size_then_by_order(tmp_path, capsys, monkeypatch):
    # a table file is refused by its byte size before json.load reads it,
    # and its table by order before group_from_table validates it; the
    # byte bound follows the order bound, 16 bytes per entry
    monkeypatch.setattr(cli, "MAX_TABLE_ORDER", 4)
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"table": [[(i + j) % 4 for j in range(4)] for i in range(4)]}))
    assert main(["group-info", str(path)]) == 0
    path.write_text(json.dumps({"table": [[(i + j) % 5 for j in range(5)] for i in range(5)]}))
    _exit_2(capsys, ["group-info", str(path)], "table of order 5 is above 4")
    # a sparse gigabyte, of which no byte is read
    os.truncate(path, 2 ** 30)
    _exit_2(capsys, ["group-info", str(path)], f"{2 ** 30} bytes, above 256")
