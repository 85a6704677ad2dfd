#!/usr/bin/env python
"""Correctness gate over the repository benchmark (``perfbench/``).

Runs every workload declared in ``BENCHMARK.json`` for 2 s at seed 1, untraced,
then reads each run's result line: the last line of standard output, one
JSON object with ``correct``, ``attempted`` and ``failed``.  A run fails
the gate when it exits non-zero, prints no result line, or reports a
failed correctness check (``failed > 0`` or ``correct`` not true).
``perfbench/run.py`` exits 0 in the last two cases, which is why this
script exists.  It gates correctness only, never timing.

Usage::

    python tools/check_perfbench.py

Exit status 0 = every workload correct, 1 = at least one failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
#: Length of each run in seconds, and its seed.
SECONDS = 2.0
SEED = 1


def verdict(returncode: int, stdout: str) -> str | None:
    """Why a finished run fails the gate, or None when it passed."""
    if returncode != 0:
        return f"exited with status {returncode}"
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return "no JSON result line on stdout"
    if not isinstance(result, dict):
        return "the last stdout line is not a JSON object"
    failed = result.get("failed")
    if not isinstance(failed, int) or failed > 0 or result.get("correct") is not True:
        return (
            f"failed {failed} of {result.get('attempted')} correctness checks "
            f"(correct: {result.get('correct')})"
        )
    return None


def run_workload(workload: str) -> tuple[int, str, str]:
    """One untraced ``perfbench/run.py`` run: (exit status, stdout, stderr)."""
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", str(SECONDS),
            "--trace", "0",
        ],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def main() -> int:
    """Entry point; prints one line per workload and returns the exit status."""
    workloads = [w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]
    failures = 0
    for workload in workloads:
        returncode, stdout, stderr = run_workload(workload)
        reason = verdict(returncode, stdout)
        if reason is None:
            print(f"{workload}: correct")
            continue
        failures += 1
        print(f"{workload}: FAIL — {reason}", file=sys.stderr)
        if stderr.strip():
            print(stderr.strip()[-2000:], file=sys.stderr)
    return 1 if failures else 0

if __name__ == "__main__":
    sys.exit(main())
