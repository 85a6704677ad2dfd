#!/usr/bin/env python
"""Guard the focused-estimator kernel against quiet re-forking.

The shared lifecycle lives in ``repro/core/focused.py``; the five estimator
modules customise it ONLY through the policy hooks the kernel declares.
This lint keeps that boundary honest with two grep-level rules:

1. Any module under ``src/repro/core/`` that defines a lifecycle hook
   (``_route_add``, ``_should_reallocate``, ``_target_interval``,
   ``_warmup_step``, ...) must import ``repro.core.focused`` — i.e. it must
   be overriding the kernel, not reimplementing the lifecycle from scratch.
2. A kernel-subclass module (one that imports ``repro.core.focused``) may
   not define the kernel-owned machinery (``_init_kernel``,
   ``_build_histogram``, ``obs_state``, ``estimate_bounds``,
   ``update_many``, ``_after_add``, the columnar segment loop
   ``_steady_columns``): those are the shared spine, and a private copy
   would drift from the parity fixtures.  A family's columnar kernel is
   its trace producer and routing hooks (``_column_trace``,
   ``_column_triggers``, ``_column_route``, ...), never its own loop.  Non-kernel
   algorithms (baselines, heuristics, the oracle) implement the
   ``ObservableAlgorithm``/batch protocols directly and are exempt.

Runs on the source text (no imports), so it works in any environment.
Exit status 0 = clean, 1 = violations (listed one per line).
"""

from __future__ import annotations

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
    "_reallocate",
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
    "_partition",
    "obs_state",
    "estimate_bounds",
    "update_many",
    "update_columns",
    "_after_add",
    "_steady_columns",
    "_scatter_segment",
)

#: Modules with no stake in the focused lifecycle (baselines, oracle,
#: memoryless heuristics, query/engine plumbing) are exempt from rule 1 —
#: they never defined hooks to begin with, and the marker list would only
#: misfire on a coincidental name.
IMPORT_RE = re.compile(
    r"^\s*(?:from\s+repro\.core\.focused\s+import|import\s+repro\.core\.focused)", re.M
)


def check(core_dir: Path = CORE) -> list[str]:
    """Return one human-readable line per violation (empty = clean)."""
    problems: list[str] = []
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
    print("kernel boundary clean: lifecycle machinery only in repro/core/focused.py")
    return 0


if __name__ == "__main__":
    sys.exit(main())
