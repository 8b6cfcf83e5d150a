"""Whole-output pins: each command's stdout must match its file under
tests/golden/ byte for byte.

The files record the output of the code before a refactor; a change to
`src/` must not rewrite them.  To record them for a new command, run
`PYTHONPATH=src python tests/test_golden.py` on a tree whose `src/` is
unchanged from its last commit.

`target-category_symmetric7.txt` is not in COMMANDS: CI compares the
largest preset in a step of its own, under a 100 MB address-space limit
and a 1.5 s timeout, which the code that built its 25.4 M-entry Cayley
table (214 MB, 1.8-2.8 s) failed.  So does
`target-category_v4xv4xc45.txt`, the report on
direct_product(klein_four,direct_product(klein_four,cyclic(45))), which
code that searched every assignment of character values took minutes to
record.  And so does `target-category_cyclic5040.txt`, the costliest report
within the preset bound, under the same limits (it took 340 MB and about
3 s with its tables, and 1.27 GB while its trivial class was split through
all 5040 characters of C5040); Tier-1 compares it in
test_crossring.py::test_report_path_builds_no_tables.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from uctbench.cli import main

GOLDEN = Path(__file__).parent / "golden"
FAMILY = str(GOLDEN / "readme_family.json")

# golden file stem -> workbench argv
COMMANDS = {
    "target-category_klein_four": ["target-category", "preset:klein_four", "--json"],
    "target-category_cyclic12": ["target-category", "preset:cyclic(12)", "--json"],
    "target-category_symmetric4": ["target-category", "preset:symmetric(4)", "--json"],
    "target-category_s3xc4": ["target-category",
                              "preset:direct_product(symmetric(3),cyclic(4))", "--json"],
    "group-info_dihedral6": ["group-info", "preset:dihedral(6)", "--json"],
    "target-category_symmetric6": ["target-category", "preset:symmetric(6)", "--json"],
    "target-category_dihedral360": ["target-category", "preset:dihedral(360)", "--json"],
    "target-category_cyclic720": ["target-category", "preset:cyclic(720)", "--json"],
    "target-category_v4xc180": ["target-category",
                                "preset:direct_product(klein_four,cyclic(180))", "--json"],
    "target-category_s4xc30": ["target-category",
                               "preset:direct_product(symmetric(4),cyclic(30))", "--json"],
    "target-category_s5xc6": ["target-category",
                              "preset:direct_product(symmetric(5),cyclic(6))", "--json"],
    "target-category_v4xd30": ["target-category",
                               "preset:direct_product(klein_four,dihedral(30))", "--json"],
    "group-info_symmetric6": ["group-info", "preset:symmetric(6)", "--json"],
    "group-info_dihedral360": ["group-info", "preset:dihedral(360)", "--json"],
    "verify_psi-identities": ["verify", "psi-identities", "--max-n", "12", "--json"],
    "verify_characters": ["verify", "characters", "--max-n", "12", "--json"],
    "verify_frobenius": ["verify", "frobenius", "--max-n", "12", "--json"],
    "verify_crt": ["verify", "crt", "--max-n", "8", "--seed", "0", "--json"],
    "verify_crossed-relations": ["verify", "crossed-relations", "--max-n", "12", "--json"],
    "uct_readme": ["uct", "preset:symmetric(3)", "--a", FAMILY, "--b", FAMILY],
    "uct_readme_json": ["uct", "preset:symmetric(3)", "--a", FAMILY, "--b", FAMILY, "--json"],
}


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("stem", sorted(COMMANDS))
def test_output_matches_golden(stem, monkeypatch):
    monkeypatch.delenv("WORKBENCH_THREADS", raising=False)
    code, out = _run(COMMANDS[stem])
    assert code == 0
    assert out == (GOLDEN / f"{stem}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    os.environ.pop("WORKBENCH_THREADS", None)
    for stem, argv in COMMANDS.items():
        code, out = _run(argv)
        if code:
            sys.exit(f"{stem}: exit {code}")
        (GOLDEN / f"{stem}.txt").write_text(out, encoding="utf-8")
