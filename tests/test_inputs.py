"""Malformed input files end in exit 2 with a named error, never a traceback."""

import json

import pytest

from uctbench import group_from_table
from uctbench.errors import InvalidGroupTable
from uctbench.cli import main


@pytest.mark.parametrize("payload, message", [
    ({"table": None}, "table must be a list of rows"),
    ({"table": [["a"]]}, "table must be a list of rows"),
    ({"table": [[0.0]]}, "table must be a list of rows"),
    ({"table": [[True]]}, "table must be a list of rows"),
    ({"table": [[0]], "labels": 5}, "labels must be a list of strings"),
    ({"preset": 5}, "'preset' must be a preset name string"),
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
