"""The perfbench correctness gate reads a run's result line strictly."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "check_perfbench.py"
_spec = importlib.util.spec_from_file_location("check_perfbench", _PATH)
check_perfbench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_perfbench)


def _stdout(result: dict) -> str:
    return '{"provenance": {}}\n' + json.dumps(result) + "\n"


def test_correct_run_passes():
    out = _stdout({"correct": True, "attempted": 12, "failed": 0, "metrics": {}})
    assert check_perfbench.verdict(0, out) is None


@pytest.mark.parametrize(
    ("returncode", "stdout", "reason"),
    [
        (0, _stdout({"correct": True, "attempted": 12, "failed": 1}), "failed 1 of 12"),
        (0, _stdout({"correct": False, "attempted": 12, "failed": 0}), "correct: False"),
        (0, _stdout({"attempted": 12, "failed": 0}), "correct: None"),
        (0, _stdout({"correct": True, "attempted": 12}), "failed None"),
        (0, "", "no JSON result line"),
        (0, "provenance only\n", "no JSON result line"),
        (0, "[1, 2]\n", "not a JSON object"),
        (2, _stdout({"correct": True, "attempted": 12, "failed": 0}), "status 2"),
    ],
    ids=["failed", "incorrect", "no-correct", "no-failed", "empty", "no-json", "list", "exit"],
)
def test_failing_runs_are_caught(returncode, stdout, reason):
    assert reason in check_perfbench.verdict(returncode, stdout)
