"""End-to-end crash/resume: a real process, a real SIGKILL.

The in-process fault suite (tests/test_faults.py) exercises every crash
window deterministically; this test closes the loop at the OS level — the
CLI process is killed with an unblockable signal mid-stream and a second
invocation with ``--resume-from`` must print results identical to an
uninterrupted run.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: F7's whole USAGE stream.  At 4000 tuples the victim was killed after
#: 250-2000 of them on a 2-vCPU host; five times the length keeps a run
#: that outpaces the poll-and-kill loop far from finishing.
STREAM_LENGTH = 20000

RUN = [
    sys.executable,
    "-m",
    "repro",
    "run",
    "F7",
    "--size",
    str(STREAM_LENGTH),
    "--methods",
    "piecemeal-uniform",
    "--checkpoint-every",
    "250",
]


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_cli(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(argv, capture_output=True, text=True, env=_env(), timeout=120)


@pytest.mark.slow
def test_sigkill_mid_stream_then_resume_matches_uninterrupted(tmp_path):
    baseline_dir = tmp_path / "baseline"
    crash_dir = tmp_path / "crash"

    baseline = _run_cli([*RUN, "--checkpoint-dir", str(baseline_dir)])
    assert baseline.returncode == 0, baseline.stderr

    # Start the same run, wait for the first checkpoint generation to land,
    # then kill -9: no atexit handlers, no cleanup, exactly a crash.
    victim = subprocess.Popen(
        [*RUN, "--checkpoint-dir", str(crash_dir)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=_env(),
    )
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if list(crash_dir.glob("panel0/ckpt-*.ckpt")) or victim.poll() is not None:
                break
            time.sleep(0.01)
        if victim.poll() is None:
            victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)
    finally:
        if victim.poll() is None:
            victim.kill()

    generations = sorted(crash_dir.glob("panel0/ckpt-*.ckpt"))
    assert generations, "no checkpoint was written before the process exited"
    # The run must really have died mid-stream: a victim that finishes
    # before the signal lands would make the resume below vacuous.
    assert victim.returncode == -signal.SIGKILL
    assert int(generations[-1].stem.split("-")[1]) < STREAM_LENGTH

    resumed = _run_cli([*RUN, "--resume-from", str(crash_dir)])
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout == baseline.stdout
