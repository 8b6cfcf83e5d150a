"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of ``uctbench`` from outside the package:
every module-level binding of a traced function is replaced, because several
modules hold their own reference (``amod`` imports ``congruence_kernel``,
``ExactSolver`` and ``cokernel``; ``crossring`` imports ``cyclic_classes``;
``green`` imports ``evaluate_at_root`` and ``psi``; ``cli`` imports most public
functions).  Patching only the defining module would miss those calls.

Spans (name, start, end, parent span, item, cells, max_dim) are kept in
memory and summarised or written out after the traced pass.  A span's self
time is its duration minus the durations of its direct children; spans nest
strictly because the program is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Optional


def _dims(a) -> tuple[int, int]:
    """(rows, cols) of an IntMatrix or a list of rows."""
    if hasattr(a, "entries"):
        a = a.entries
    rows = len(a)
    return rows, (len(a[0]) if rows else 0)


def _matrix_shape(args, kwargs) -> tuple[int, int]:
    r, c = _dims(args[0])
    return r * c, max(r, c)


def _matmul_shape(args, kwargs) -> tuple[int, int]:
    (r1, c1), (r2, c2) = _dims(args[0]), _dims(args[1])
    return r1 * c1 + r2 * c2, max(r1, c1, r2, c2)


def _cokernel_shape(args, kwargs) -> tuple[int, int]:
    cols = len(args[0])
    rows = args[1] if len(args) > 1 else kwargs["ambient_rank"]
    return rows * cols, max(rows, cols)


def _solve_shape(args, kwargs) -> tuple[int, int]:
    size = len(args[1])
    return size, size


def _solver_init_shape(args, kwargs) -> tuple[int, int]:
    return _matrix_shape(args[1:], kwargs)


# metric prefix -> (module, attribute path, shape function for kernels)
TARGETS: dict[str, tuple[str, str, Optional[Callable]]] = {
    "zlinalg.hnf": ("uctbench.zlinalg", "hnf", _matrix_shape),
    "zlinalg.snf": ("uctbench.zlinalg", "snf", _matrix_shape),
    "zlinalg.congruence_kernel": ("uctbench.zlinalg", "congruence_kernel", _matrix_shape),
    "zlinalg.cokernel": ("uctbench.zlinalg", "cokernel", _cokernel_shape),
    "zlinalg.ExactSolver.init": ("uctbench.zlinalg", "ExactSolver.__init__", _solver_init_shape),
    "zlinalg.ExactSolver.solve": ("uctbench.zlinalg", "ExactSolver.solve", _solve_shape),
    "zlinalg.IntMatrix.matmul": ("uctbench.zlinalg", "IntMatrix.__matmul__", _matmul_shape),
    "amod.ext_group": ("uctbench.amod", "ext_group", None),
    "amod.hom_group": ("uctbench.amod", "hom_group", None),
    "amod.validate": ("uctbench.amod", "validate", None),
    "amod.uct_order": ("uctbench.amod", "uct_order", None),
    "amod.family_from_json": ("uctbench.amod", "family_from_json", None),
    "amod.presentation_of": ("uctbench.amod", "presentation_of", None),
    "green.char_solve": ("uctbench.green", "char_solve", None),
    "green.restrict": ("uctbench.green", "restrict", None),
    "green.induce": ("uctbench.green", "induce", None),
    "green.descend": ("uctbench.green", "descend", None),
    "green.frobenius_check": ("uctbench.green", "frobenius_check", None),
    "cyclotomic.evaluate_at_root": ("uctbench.cyclotomic", "evaluate_at_root", None),
    "cyclotomic.psi": ("uctbench.cyclotomic", "psi", None),
    "cyclotomic.crt_split": ("uctbench.cyclotomic", "crt_split", None),
    "cyclotomic.crt_join": ("uctbench.cyclotomic", "crt_join", None),
    "groups.preset_group": ("uctbench.groups", "preset_group", None),
    "groups.group_from_table": ("uctbench.groups", "group_from_table", None),
    "groups.cyclic_classes": ("uctbench.groups", "cyclic_classes", None),
    "crossring.target_category": ("uctbench.crossring", "target_category", None),
    "crossring.split_ring": ("uctbench.crossring", "split_ring", None),
    "crossring.splitting_idempotents": ("uctbench.crossring", "splitting_idempotents", None),
    "crossring.regular_representation": ("uctbench.crossring", "regular_representation", None),
    "crossring.CrossedElt.mul": ("uctbench.crossring", "CrossedElt.__mul__", None),
    "cli.main": ("uctbench.cli", "main", None),
}

KERNELS = tuple(name for name, (_, _, shape) in TARGETS.items() if shape is not None)

# Span around each verify-suite item: the suites' own arithmetic lives in
# closures inside ``cli``, and without this span it would count as
# ``cli.main`` self time instead of argument parsing and JSON output.
SUITE_ITEM = "cli.suite_item"
LAYERS = tuple(TARGETS) + (SUITE_ITEM,)


def _package_modules() -> list:
    return [mod for key, mod in list(sys.modules.items())
            if key == "uctbench" or key.startswith("uctbench.")]


def _owner_and_attr(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records one span per call of a wrapped function.

    Spans live in one flat list of integers, ``FIELDS`` per span, so that the
    garbage collector has no per-span objects to scan during the run.
    """

    FIELDS = 7  # name id, start_ns, end_ns, parent span, item, cells, max_dim

    def __init__(self) -> None:
        self.names: list[str] = []
        self.buf: list[int] = []
        self.item = -1
        self._stack: list[int] = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, shape: Optional[Callable] = None) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        buf = self.buf
        stack = self._stack
        clock = time.perf_counter_ns
        fields = self.FIELDS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cells, max_dim = shape(args, kwargs) if shape is not None else (0, 0)
            idx = len(buf) // fields
            buf.extend((nid, 0, 0, stack[-1], self.item, cells, max_dim))
            stack.append(idx)
            base = idx * fields
            buf[base + 1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                buf[base + 2] = clock()
                stack.pop()

        traced.__wrapped_original__ = fn
        return traced

    def install(self, targets: dict = TARGETS) -> None:
        """Wrap every target and rebind every reference to it held by a
        ``uctbench`` module or by the defining class."""
        for name, (module, path, shape) in targets.items():
            owner, attr = _owner_and_attr(module, path)
            original = vars(owner)[attr]
            wrapped = self.wrap(name, original, shape)
            holders = [owner] if isinstance(owner, type) else []
            for holder in holders + _package_modules():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._patched.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def spans(self) -> list[tuple[int, ...]]:
        """Spans as tuples (name id, start_ns, end_ns, parent, item, cells,
        max_dim); parent is -1 for a span without a traced caller."""
        buf, f = self.buf, self.FIELDS
        return [tuple(buf[i:i + f]) for i in range(0, len(buf), f)]

    def summary(self) -> dict:
        """Per traced name: calls, self_ns (duration minus direct children),
        cells and max_dim; plus the summed duration of top-level spans."""
        spans = self.spans()
        child = [0] * len(spans)
        for _, start, end, parent, *_ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "self_ns": 0, "cells": 0, "max_dim": 0}
               for name in self.names}
        top_ns = 0
        for i, (nid, start, end, parent, _, cells, max_dim) in enumerate(spans):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_ns"] += end - start - child[i]
            row["cells"] += cells
            row["max_dim"] = max(row["max_dim"], max_dim)
            if parent < 0:
                top_ns += end - start
        return {"layers": out, "top_level_ns": top_ns, "spans": len(spans)}

    def write(self, path: str) -> None:
        """Write the spans as tab-separated lines: name, start, end, parent,
        item, cells, max_dim."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\titem\tcells\tmax_dim\n")
            for nid, *rest in self.spans():
                fh.write(self.names[nid] + "\t" + "\t".join(map(str, rest)) + "\n")


def untraced_bindings() -> list[str]:
    """Names ``module.attr`` (or ``module.Class.attr``) still bound to the
    unwrapped function of a target."""
    originals = set()
    for module, path, _ in TARGETS.values():
        owner, attr = _owner_and_attr(module, path)
        value = vars(owner)[attr]
        originals.add(id(getattr(value, "__wrapped_original__", value)))
    missed = []
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if id(value) in originals:
                missed.append(f"{mod.__name__}.{attr}")
            elif isinstance(value, type):
                missed += [f"{mod.__name__}.{attr}.{cattr}"
                           for cattr, cvalue in vars(value).items() if id(cvalue) in originals]
    return missed
