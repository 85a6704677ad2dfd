#!/usr/bin/env python
"""CI smoke: kill -9 a checkpointing CLI run, resume it, diff the output.

Drives the public surface only (``python -m repro run``): one uninterrupted
checkpointed run for reference, one run killed with SIGKILL as soon as its
first generation lands, one ``--resume-from`` run whose stdout must match
the reference byte for byte.  Exit status 0 = recovered identically,
1 = any divergence (with a diff-style report on stderr).

The victim must die by SIGKILL with its newest generation short of the
stream's end; a run that finished before the signal landed would make the
resume vacuous, so it fails the smoke.

Usage: python tools/crash_resume_smoke.py [--size 20000] [--every 250]
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _base_argv(size: int, every: int) -> list[str]:
    return [
        sys.executable,
        "-m",
        "repro",
        "run",
        "F7",
        "--size",
        str(size),
        "--methods",
        "piecemeal-uniform",
        "--checkpoint-every",
        str(every),
    ]


def main() -> int:
    """Run the crash/resume smoke and return a process exit status."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=20000)
    parser.add_argument("--every", type=int, default=250)
    args = parser.parse_args()
    base = _base_argv(args.size, args.every)

    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        baseline_dir = Path(tmp) / "baseline"
        crash_dir = Path(tmp) / "crash"

        print("smoke: reference run ...", flush=True)
        reference = subprocess.run(
            [*base, "--checkpoint-dir", str(baseline_dir)],
            capture_output=True,
            text=True,
            env=_env(),
            timeout=300,
        )
        if reference.returncode != 0:
            print(reference.stderr, file=sys.stderr)
            return 1

        print("smoke: victim run, SIGKILL after first checkpoint ...", flush=True)
        victim = subprocess.Popen(
            [*base, "--checkpoint-dir", str(crash_dir)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=_env(),
        )
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if list(crash_dir.glob("panel0/ckpt-*.ckpt")) or victim.poll() is not None:
                break
            time.sleep(0.01)
        if victim.poll() is None:
            victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=60)

        generations = sorted(p.name for p in crash_dir.glob("panel0/ckpt-*.ckpt"))
        if not generations:
            print("smoke: FAIL — no checkpoint written before exit", file=sys.stderr)
            return 1
        if victim.returncode != -signal.SIGKILL:
            print(
                f"smoke: FAIL — victim exited with {victim.returncode}, not SIGKILL",
                file=sys.stderr,
            )
            return 1
        newest = int(generations[-1].split("-")[1].split(".")[0])
        if newest >= args.size:
            print(
                f"smoke: FAIL — newest generation is at offset {newest}, the "
                "end of the stream: the victim finished before the kill",
                file=sys.stderr,
            )
            return 1
        print(
            f"smoke: killed at offset {newest} of {args.size} with "
            f"{len(generations)} generation(s) on disk",
            flush=True,
        )

        print("smoke: resuming ...", flush=True)
        resumed = subprocess.run(
            [*base, "--resume-from", str(crash_dir)],
            capture_output=True,
            text=True,
            env=_env(),
            timeout=300,
        )
        if resumed.returncode != 0:
            print(resumed.stderr, file=sys.stderr)
            return 1

        if resumed.stdout != reference.stdout:
            print("smoke: FAIL — resumed output differs from reference", file=sys.stderr)
            for ref_line, got_line in zip(
                reference.stdout.splitlines(), resumed.stdout.splitlines()
            ):
                if ref_line != got_line:
                    print(f"  - {ref_line}\n  + {got_line}", file=sys.stderr)
            return 1

    print("smoke: OK — resumed run matches the uninterrupted run byte for byte")
    return 0


if __name__ == "__main__":
    sys.exit(main())
