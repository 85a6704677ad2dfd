"""Fault-injection suite: every crash window of the checkpoint path.

Each test kills the write sequence at one exact point (or damages a blob
at rest) and asserts the recovery invariant: the newest *intact*
generation restores, and a resumed run matches the uninterrupted one.
"""

from __future__ import annotations

import pytest

from repro.checkpoint import CheckpointManager, generation_name
from repro.core.engine import build_estimator
from repro.core.query import CorrelatedQuery
from repro.eval.tracker import evaluate_methods
from repro.exceptions import StreamError
from repro.persistence import atomic_write_bytes, load_estimator, save_estimator
from repro.testing.faults import (
    CRASH_POINTS,
    FailingFilesystem,
    InjectedFault,
    flip_bit,
    truncate_file,
)
from tests.conftest import make_records

MIN_Q = CorrelatedQuery("count", "min", epsilon=9.0)


def _trained_estimator(rng, n=60):
    est = build_estimator(MIN_Q, "piecemeal-uniform")
    for r in make_records(rng.uniform(1.0, 100.0, size=n)):
        est.update(r)
    return est


class TestAtomicWriter:
    def test_crash_before_any_bytes_preserves_old_file(self, tmp_path, rng):
        path = tmp_path / "ckpt.bin"
        est = _trained_estimator(rng)
        save_estimator(est, path)
        old = path.read_bytes()
        with pytest.raises(InjectedFault):
            atomic_write_bytes(path, b"new content", fs=FailingFilesystem("write"))
        assert path.read_bytes() == old
        assert load_estimator(path).estimate() == est.estimate()

    def test_crash_mid_write_tears_only_the_tmp_file(self, tmp_path, rng):
        path = tmp_path / "ckpt.bin"
        est = _trained_estimator(rng)
        save_estimator(est, path)
        old = path.read_bytes()
        with pytest.raises(InjectedFault):
            atomic_write_bytes(
                path, b"x" * 1000, fs=FailingFilesystem("write", partial=17)
            )
        # The final path is untouched; the torn prefix is tmp-only debris.
        assert path.read_bytes() == old
        debris = [p for p in tmp_path.iterdir() if ".tmp." in p.name]
        assert len(debris) == 1 and debris[0].stat().st_size == 17

    def test_crash_at_replace_leaves_old_file(self, tmp_path, rng):
        path = tmp_path / "ckpt.bin"
        est = _trained_estimator(rng)
        save_estimator(est, path)
        old = path.read_bytes()
        with pytest.raises(InjectedFault):
            atomic_write_bytes(path, b"new", fs=FailingFilesystem("replace"))
        assert path.read_bytes() == old

    def test_error_cleanup_removes_tmp_when_fs_survives(self, tmp_path):
        # A plain write error (not a crash) must not leave debris behind;
        # an OSError from the real fs triggers the same cleanup path.
        path = tmp_path / "missing-dir" / "ckpt.bin"
        with pytest.raises(OSError):
            atomic_write_bytes(path, b"data")


@pytest.mark.parametrize("crash_at", CRASH_POINTS)
def test_manager_survives_crash_at_every_point(tmp_path, rng, crash_at):
    """Whatever single operation dies, the previous generation restores."""
    records = make_records(rng.uniform(1.0, 100.0, size=200))
    uninterrupted = build_estimator(MIN_Q, "piecemeal-uniform")
    reference = [uninterrupted.update(r) for r in records]

    # retain=1 so rotation (a remove per write) runs from the 2nd save on;
    # after=2 lets two full checkpoints land before the fault fires.
    fs = FailingFilesystem(crash_at, after=2)
    manager = CheckpointManager(tmp_path, every=40, retain=1, fs=fs)
    with pytest.raises(InjectedFault):
        evaluate_methods(records, MIN_Q, methods=["piecemeal-uniform"], checkpoint=manager)
    assert fs.crashed

    resumed = CheckpointManager(tmp_path, every=40, retain=1)
    _, offset = resumed.resume(records)
    assert offset > 0 and offset % 40 == 0
    results = evaluate_methods(
        records, MIN_Q, methods=["piecemeal-uniform"], checkpoint=resumed, resume=True
    )
    tail = results["piecemeal-uniform"].outputs.tolist()[offset:]
    assert tail == reference[offset:]


class TestAtRestCorruption:
    def _two_generations(self, tmp_path, rng):
        manager = CheckpointManager(tmp_path, retain=5)
        est = build_estimator(MIN_Q, "piecemeal-uniform")
        records = make_records(rng.uniform(1.0, 100.0, size=80))
        for i, r in enumerate(records, start=1):
            est.update(r)
            if i in (40, 80):
                manager.save(est, i)
        return est

    def test_truncated_blob_rejected_and_skipped(self, tmp_path, rng):
        self._two_generations(tmp_path, rng)
        truncate_file(tmp_path / generation_name(80), 100)
        with pytest.raises(StreamError):
            load_estimator(tmp_path / generation_name(80))
        restored = CheckpointManager(tmp_path).restore()
        assert restored is not None and restored.offset == 40

    def test_zero_byte_blob_rejected(self, tmp_path, rng):
        self._two_generations(tmp_path, rng)
        truncate_file(tmp_path / generation_name(80), 0)
        restored = CheckpointManager(tmp_path).restore()
        assert restored is not None and restored.offset == 40

    def test_bit_flip_rejected_and_skipped(self, tmp_path, rng):
        self._two_generations(tmp_path, rng)
        flip_bit(tmp_path / generation_name(80), byte_index=0, bit=3)
        with pytest.raises(StreamError):
            load_estimator(tmp_path / generation_name(80))
        restored = CheckpointManager(tmp_path).restore()
        assert restored is not None and restored.offset == 40


class TestHarness:
    def test_unknown_crash_point_rejected(self):
        with pytest.raises(ValueError):
            FailingFilesystem("flush")

    def test_filesystem_stays_dead_after_crash(self, tmp_path):
        fs = FailingFilesystem("write")
        with pytest.raises(InjectedFault):
            fs.write_bytes(tmp_path / "a", b"x")
        for op in (
            lambda: fs.read_bytes(tmp_path / "a"),
            lambda: fs.listdir(tmp_path),
            lambda: fs.remove(tmp_path / "a"),
            lambda: fs.mkdir(tmp_path / "b"),
        ):
            with pytest.raises(InjectedFault):
                op()

    def test_injected_fault_is_not_a_repro_error(self):
        from repro.exceptions import ReproError

        assert not issubclass(InjectedFault, ReproError)
