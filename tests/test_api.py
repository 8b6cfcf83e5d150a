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



def _names_in(node, imports: bool = True) -> set:
    """The names a syntax tree reads: bare names, attribute names, names
    inside string annotations and, with `imports`, names imported from a
    module."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom) and imports:
            out.update(alias.name for alias in sub.names)
        annotations = []
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(sub.returns)
        elif isinstance(sub, (ast.arg, ast.AnnAssign)):
            annotations.append(sub.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                out |= _names_in(ast.parse(ann.value, mode="eval"))
    return out


def _defined_names(stmt) -> list:
    """The module-level names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_no_unused_imports_or_unreferenced_private_names():
    # Code that is neither exported nor used gets deleted: outside
    # __init__.py every imported name is read in its module, and every
    # private module-level function, class or constant is read by some
    # statement of the package other than its own definition.
    package = Path(uctbench.__file__).parent
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(package.glob("*.py"))}
    problems = []
    for name, tree in modules.items():
        if name == "__init__.py":
            continue
        read = _names_in(tree, imports=False)
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                problems += [f"{name}:{stmt.lineno}: {bound} is imported and never read"
                             for bound in (alias.asname or alias.name.split(".")[0]
                                           for alias in stmt.names)
                             if bound not in read]
    statements = [(name, stmt, _names_in(stmt))
                  for name, tree in modules.items() for stmt in tree.body]
    for name, stmt, _ in statements:
        for private in _defined_names(stmt):
            if private.startswith("_") and not private.startswith("__") and not any(
                    other is not stmt and private in names for _, other, names in statements):
                problems.append(f"{name}:{stmt.lineno}: {private} is never referenced")
    assert not problems, "\n".join(problems)


def test_helpers_keep_one_independent_oracle_per_kernel():
    # tests/helpers.py holds the oracles: each top-level helper is read by a
    # test module or by another helper, and none runs the library kernel it
    # checks.  The reference solvers eliminate through reference_hnf and
    # reference_snf only; ext_group is read only by ext_second_step, the
    # Ext^2 probe of the library's own resolution.
    tests = Path(__file__).parent
    helpers = ast.parse((tests / "helpers.py").read_text(encoding="utf-8"))
    assert not {"hnf", "hermite_rows", "snf", "cokernel", "hom_group"} & _names_in(helpers)
    assert {name for stmt in helpers.body if "ext_group" in _names_in(stmt, imports=False)
            for name in _defined_names(stmt)} == {"ext_second_step"}
    readers = [_names_in(ast.parse(path.read_text(encoding="utf-8")))
               for path in sorted(tests.glob("test_*.py"))]
    statements = [(stmt, _names_in(stmt)) for stmt in helpers.body]
    unread = [name for stmt, _ in statements for name in _defined_names(stmt)
              if not any(name in names for names in readers)
              and not any(other is not stmt and name in names for other, names in statements)]
    assert not unread, unread
