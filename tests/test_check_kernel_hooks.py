"""The kernel-boundary lint: structure internals stay in repro/structures."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "check_kernel_hooks.py"
_spec = importlib.util.spec_from_file_location("check_kernel_hooks", _PATH)
check_kernel_hooks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_kernel_hooks)

_STRUCTURE = '''
class Moments:
    def __init__(self):
        self._count = 0
'''


def _tree(tmp_path: Path, core_module: str) -> Path:
    (tmp_path / "src" / "repro" / "structures").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "structures" / "moments.py").write_text(_STRUCTURE)
    core = tmp_path / "src" / "repro" / "core"
    core.mkdir()
    (core / "estimator.py").write_text(core_module)
    return core


def test_repository_is_clean():
    assert check_kernel_hooks.check() == []


@pytest.mark.parametrize(
    "body",
    [
        "        moments = self._moments\n        return moments._count\n",
        "        return self._moments._count\n",
        "        self._moments._count = 3\n",
        "        fresh = Moments()\n        fresh._count = 1\n",
    ],
    ids=["local-read", "field-read", "field-write", "constructed-local"],
)
def test_private_structure_access_is_flagged(tmp_path, body):
    core = _tree(
        tmp_path,
        "class Estimator:\n"
        "    def __init__(self):\n"
        "        self._moments = Moments()\n"
        "    def peek(self):\n" + body,
    )
    problems = check_kernel_hooks.check(core)
    assert len(problems) == 1
    assert "_count" in problems[0] and "estimator.py:" in problems[0]


def test_own_and_public_fields_pass(tmp_path):
    core = _tree(
        tmp_path,
        "class Estimator:\n"
        "    def __init__(self):\n"
        "        self._moments = Moments()\n"
        "        self._buffer = []\n"
        "    def merge(self, other):\n"
        "        self._moments.merge(other._moments)\n"
        "        return other._buffer, self._moments.count\n",
    )
    assert check_kernel_hooks.check(core) == []


def test_family_reallocation_copy_is_flagged(tmp_path):
    """The reallocation step is kernel-owned: a family supplies hooks only."""
    family = (
        "from repro.core.focused import FocusedEstimatorBase\n"
        "class Estimator(FocusedEstimatorBase):\n"
        "    def _spill(self, new_inner, low, high, region, old_region):\n"
        "        pass\n"
    )
    core = _tree(tmp_path, family)
    assert check_kernel_hooks.check(core) == []
    (core / "estimator.py").write_text(
        family + "    def _reallocate(self, lo, hi):\n        pass\n"
    )
    problems = check_kernel_hooks.check(core)
    assert len(problems) == 1
    assert "_reallocate()" in problems[0]


@pytest.mark.parametrize("hook", ["_estimate_warmup", "_reseed_from_window", "_population"])
def test_family_window_store_copy_is_flagged(tmp_path, hook):
    """A scope's warmup answer and rebuild read the kernel's ring: a family
    that grows its own window store and these readers is flagged."""
    family = (
        "from repro.core.focused import FocusedEstimatorBase, RingWindowMixin\n"
        "class Estimator(RingWindowMixin, FocusedEstimatorBase):\n"
        "    def _forget(self, rows):\n"
        "        pass\n"
    )
    core = _tree(tmp_path, family)
    assert check_kernel_hooks.check(core) == []
    (core / "estimator.py").write_text(family + f"    def {hook}(self):\n        return 0.0\n")
    problems = check_kernel_hooks.check(core)
    assert len(problems) == 1
    assert f"{hook}()" in problems[0]
