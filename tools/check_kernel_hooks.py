#!/usr/bin/env python
"""Guard the focused-estimator kernel against quiet re-forking.

The shared lifecycle lives in ``repro/core/focused.py``; the five estimator
modules customise it ONLY through the policy hooks the kernel declares.
This lint keeps that boundary honest with two grep-level rules and one
syntax-tree rule:

1. Any module under ``src/repro/core/`` that defines a lifecycle hook
   (``_route_add``, ``_should_reallocate``, ``_target_interval``,
   ``_warmup_step``, ...) must import ``repro.core.focused`` — i.e. it must
   be overriding the kernel, not reimplementing the lifecycle from scratch.
2. A kernel-subclass module (one that imports ``repro.core.focused``) may
   not define the kernel-owned machinery (``_init_kernel``,
   ``_build_histogram``, ``obs_state``, ``estimate_bounds``,
   ``update_many``, ``_after_add``, the columnar segment loop
   ``_steady_columns``, the reallocation step ``_reallocate``, and the
   window's warmup answer and from-window rebuild ``_estimate_warmup``,
   ``_reseed_from_window``, ``_population``): those are the shared spine,
   and a private copy would drift from the parity fixtures.  A scope's
   window is the ring the kernel reads, never a private store.  A family's reallocation is its regime test, restart and
   spill hooks (``_regime_break``, ``_restart``, ``_spill``), never its
   own strategy dispatch.  A family's columnar kernel is its trace
   producer and routing hooks (``_column_trace``, ``_column_triggers``,
   ``_column_route``, ...), never its own loop.  Non-kernel algorithms
   (baselines, heuristics, the oracle) implement the
   ``ObservableAlgorithm``/batch protocols directly and are exempt.
3. No module under ``src/repro/core/`` reads or assigns a private field of
   a ``repro/structures/`` object through a receiver other than ``self``
   (``moments._count``, ``self._tracked._locals``): a kernel that needs a
   structure's state in bulk calls the structure's own replay, so each
   recurrence keeps one batch copy, next to its scalar step.  A receiver
   is a structure when it is a field some core module assigns a structure
   constructor to (``self._moments = RunningMoments()``), or a local name
   bound to such a field or constructor in the same function.

Runs on the source text (no imports), so it works in any environment.
Exit status 0 = clean, 1 = violations (listed one per line).
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

CORE = Path(__file__).resolve().parent.parent / "src" / "repro" / "core"

#: Methods a kernel subclass legitimately overrides.  Defining any of these
#: without importing the kernel means a module re-grew its own lifecycle.
HOOK_MARKERS = (
    "_route_add",
    "_route_remove",
    "_should_reallocate",
    "_target_interval",
    "_focus_region",
    "_regime_break",
    "_drift",
    "_restart",
    "_wholesale_partition",
    "_spill",
    "_warmup_step",
    "_quantile_edges",
    "_seed_histogram",
    "_columns_supported",
    "_column_trace",
    "_column_horizon",
    "_column_triggers",
    "_column_route",
    "_column_coarse",
    "_column_evict",
    "_sync_trace",
    "_column_step",
    "_column_answers",
)

#: Kernel-owned machinery: no kernel subclass may define these.
KERNEL_OWNED = (
    "_init_kernel",
    "_build_histogram",
    "_rebuild_from_window",
    "_reallocate",
    "_partition",
    "obs_state",
    "estimate_bounds",
    "update_many",
    "update_columns",
    "_after_add",
    "_steady_columns",
    "_scatter_segment",
    "_estimate_warmup",
    "_reseed_from_window",
    "_population",
)

#: Modules with no stake in the focused lifecycle (baselines, oracle,
#: memoryless heuristics, query/engine plumbing) are exempt from rule 1 —
#: they never defined hooks to begin with, and the marker list would only
#: misfire on a coincidental name.
IMPORT_RE = re.compile(
    r"^\s*(?:from\s+repro\.core\.focused\s+import|import\s+repro\.core\.focused)", re.M
)


def _structure_classes(structures_dir: Path) -> set[str]:
    """Names of the classes the ``repro/structures/`` modules define."""
    return {
        node.name
        for path in structures_dir.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef)
    }


def _constructs(value: ast.AST, classes: set[str]) -> bool:
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in classes
    )


def _structure_fields(trees: list[ast.AST], classes: set[str]) -> set[str]:
    """Attribute names any core module assigns a structure constructor to."""
    fields: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and _constructs(
                node.value, classes
            ):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                fields.update(t.attr for t in targets if isinstance(t, ast.Attribute))
    return fields


def _private_structure_access(
    tree: ast.AST, classes: set[str], fields: set[str]
) -> list[tuple[int, str, str]]:
    """``(line, receiver, field)`` per private access through a structure
    receiver other than ``self``."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue

        def is_structure(node: ast.AST, names: set[str]) -> bool:
            if isinstance(node, ast.Attribute):
                return node.attr in fields
            return isinstance(node, ast.Name) and node.id in names

        names: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and (
                _constructs(node.value, classes) or is_structure(node.value, set())
            ):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and is_structure(node.value, names)
            ):
                found.append((node.lineno, ast.unparse(node.value), node.attr))
    return sorted(set(found))


def check(core_dir: Path = CORE) -> list[str]:
    """Return one human-readable line per violation (empty = clean)."""
    problems: list[str] = []
    classes = _structure_classes(core_dir.parent / "structures")
    trees = {path: ast.parse(path.read_text()) for path in sorted(core_dir.glob("*.py"))}
    fields = _structure_fields(list(trees.values()), classes)
    for path, tree in trees.items():
        rel = path.relative_to(core_dir.parent.parent.parent)
        for line, receiver, name in _private_structure_access(tree, classes, fields):
            problems.append(
                f"{rel}:{line}: touches private field {receiver}.{name} of a "
                "repro/structures object — use the structure's public API "
                "(its replay/restore for bulk state)"
            )
    for path in sorted(core_dir.glob("*.py")):
        if path.name == "focused.py":
            continue
        text = path.read_text()
        rel = path.relative_to(core_dir.parent.parent.parent)
        imports_kernel = bool(IMPORT_RE.search(text))
        defined_hooks = [
            name for name in HOOK_MARKERS if re.search(rf"^\s*def {name}\(", text, re.M)
        ]
        if defined_hooks and not imports_kernel:
            problems.append(
                f"{rel}: defines lifecycle hook(s) {', '.join(defined_hooks)} "
                "without importing repro.core.focused — subclass the kernel "
                "instead of re-growing the lifecycle"
            )
        if imports_kernel:
            for name in KERNEL_OWNED:
                if re.search(rf"^\s*def {name}\(", text, re.M):
                    problems.append(
                        f"{rel}: defines kernel-owned method {name}() — that "
                        "machinery lives in repro/core/focused.py only"
                    )
    return problems


def main() -> int:
    """CLI entry point; prints violations and returns the exit status."""
    problems = check()
    for line in problems:
        print(line, file=sys.stderr)
    if problems:
        print(f"\n{len(problems)} kernel-boundary violation(s)", file=sys.stderr)
        return 1
    print(
        "kernel boundary clean: lifecycle machinery only in repro/core/focused.py, "
        "structure internals only in repro/structures"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
