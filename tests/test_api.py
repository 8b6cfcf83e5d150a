import ast
from pathlib import Path

import uctbench

# The public API is what `src/uctbench/__init__.py` imports; a change that
# drops or renames an export must update this list on purpose.
PUBLIC_NAMES = [
    "AModFamily", "AModObject", "CharFn", "CrossedElt", "CrossedRing",
    "CycEltN", "CycPoly", "CyclicClass", "CyclicSubgroup", "FinAbGroup",
    "FiniteGroup", "IntMatrix", "IntPoly", "RepElt", "RingSummand",
    "TargetCategoryReport", "build_crossed_ring", "conjugate_rep",
    "crossed_mul", "crt_join", "crt_split", "cyc_add", "cyc_mul", "cyc_sub",
    "cyclic_classes", "cyclotomic", "decompose_generator", "direct_sum",
    "evaluate_at_root", "ext_group", "family_from_json", "frobenius_check",
    "galois", "group_from_table", "hnf", "hom_group", "induce",
    "lattice_kernel_localized", "preset_group", "psi", "regular_representation",
    "restrict", "snf", "solve_mod", "split_ring", "splitting_idempotents",
    "suspend", "target_category", "to_character", "uct_order", "validate",
    "weyl_action_on_units",
]


def test_public_names_pinned():
    tree = ast.parse(Path(uctbench.__file__).read_text(encoding="utf-8"))
    imported = sorted(alias.asname or alias.name
                      for node in tree.body if isinstance(node, ast.ImportFrom)
                      for alias in node.names)
    assert imported == PUBLIC_NAMES
    assert all(hasattr(uctbench, name) for name in PUBLIC_NAMES)
