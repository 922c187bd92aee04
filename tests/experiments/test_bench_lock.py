"""Concurrency tests for the bench append lock (satellite: record_run
must not lose runs when several processes append at once)."""

import json
import multiprocessing

import pytest

from repro.experiments import bench

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="concurrent writers use the fork start method")


def _append(path: str, writer: int, runs: int) -> None:
    for index in range(runs):
        bench.record_run({f"w{writer}-r{index}": {"seconds": 0.1}},
                         scale=0.5, jobs=1, path=path)


@needs_fork
def test_concurrent_writers_lose_no_records(tmp_path):
    path = tmp_path / "BENCH_experiments.json"
    writers, runs_each = 4, 5
    context = multiprocessing.get_context("fork")
    procs = [context.Process(target=_append,
                             args=(str(path), writer, runs_each))
             for writer in range(writers)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0
    payload = json.loads(path.read_text())
    assert len(payload["runs"]) == writers * runs_each
    names = {name for run in payload["runs"]
             for name in run["experiments"]}
    assert len(names) == writers * runs_each
    assert not (tmp_path / "BENCH_experiments.json.lock").exists()


def test_lock_file_removed_after_append(tmp_path):
    path = tmp_path / "BENCH_experiments.json"
    bench.record_run({"fig05": {"seconds": 1.0}}, scale=0.1, path=str(path))
    assert path.exists()
    assert not (tmp_path / "BENCH_experiments.json.lock").exists()


def test_stale_lock_is_broken(tmp_path, monkeypatch):
    path = tmp_path / "BENCH_experiments.json"
    lock = tmp_path / "BENCH_experiments.json.lock"
    lock.write_text("999999")
    # Pretend the lock is ancient so the stale-breaking path fires
    # without waiting out the real 30 s threshold.
    monkeypatch.setattr(bench, "_LOCK_STALE_S", 0.0)
    bench.record_run({"fig05": {"seconds": 1.0}}, scale=0.1, path=str(path))
    payload = json.loads(path.read_text())
    assert len(payload["runs"]) == 1
    assert not lock.exists()


class TestStaleBreakToctou:
    """Regression: breaking a stale lock must be single-winner.

    The old break was ``lock.unlink()`` after a stat — two waiters
    could both judge the lock stale, the first would unlink + reacquire,
    and the second's unlink deleted the first's *fresh* lock, putting
    two processes inside the critical section.  The rename-claim in
    ``_break_stale_lock`` closes that hole.
    """

    def test_second_breaker_loses_the_claim(self, tmp_path):
        lock = tmp_path / "b.json.lock"
        lock.write_text("1234")
        ino = lock.stat().st_ino
        assert bench._break_stale_lock(lock, ino)
        assert not lock.exists()
        # Breaker B observed the same stale lock but A won the rename.
        assert not bench._break_stale_lock(lock, ino)

    def test_late_breaker_cannot_steal_a_fresh_lock(self, tmp_path):
        """The exact TOCTOU: A breaks the stale lock and re-acquires;
        B (still holding the stale observation) must not destroy A's
        fresh lock."""
        import os

        lock = tmp_path / "b.json.lock"
        lock.write_text("stale-holder")
        stale_ino = lock.stat().st_ino
        # A distinct inode for A's fresh lock, allocated while the
        # stale one still exists (unlinked inodes get reused at once
        # on some filesystems, which would fake out the check below).
        fresh = tmp_path / "fresh-lock"
        fresh.write_text("fresh-holder")
        fresh_ino = fresh.stat().st_ino
        assert fresh_ino != stale_ino

        # Breaker A: claims the stale lock and re-acquires.
        assert bench._break_stale_lock(lock, stale_ino)
        os.rename(fresh, lock)  # A's new lock

        # Breaker B fires with its outdated observation: it must back
        # off and leave A's fresh lock in place.
        assert not bench._break_stale_lock(lock, stale_ino)
        assert lock.exists()
        assert lock.stat().st_ino == fresh_ino
        assert lock.read_text() == "fresh-holder"
        # No victim debris left behind either.
        assert list(tmp_path.glob("*.stale.*")) == []

    def test_exclusive_lock_uses_the_claiming_break(self, tmp_path,
                                                    monkeypatch):
        target = tmp_path / "b.json"
        lock = tmp_path / "b.json.lock"
        lock.write_text("crashed-holder")
        monkeypatch.setattr(bench, "_LOCK_STALE_S", 0.0)
        with bench._exclusive_lock(target):
            # The stale lock was claimed and replaced by ours.
            assert lock.exists()
            assert lock.read_text() != "crashed-holder"
        assert not lock.exists()
