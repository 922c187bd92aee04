"""Concurrent-access robustness for the calibration cache and the
whole-experiment result store: a corrupt or mid-write entry must read
as a miss, never crash."""

import json
import multiprocessing

import pytest

from repro.chips import cache
from repro.chips.profiles import CHIP_SPECS
from repro.dram.geometry import DEFAULT_GEOMETRY
from repro.errors import ShardSpecError
from repro.experiments.store import ResultStore, result_key
from repro.faults import FaultPlan, clear_plan, install_plan

SPEC = CHIP_SPECS[1]
GEOMETRY = DEFAULT_GEOMETRY

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="concurrent writers use the fork start method")


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    target = tmp_path / "hbmsim-cache"
    monkeypatch.setenv("HBMSIM_CACHE_DIR", str(target))
    monkeypatch.delenv("HBMSIM_NO_CACHE", raising=False)
    return target


def _entry_path():
    return cache._entry_path(cache.cache_key(SPEC, GEOMETRY))


class TestCorruptEntries:
    @pytest.mark.parametrize("payload", [
        "",                      # zero-length: writer crashed pre-flush
        "{\"base_f_weak",        # truncated mid-write
        "not json at all",
        "[1, 2, 3]",             # wrong shape
        "{\"base_f_weak_hex\": 12}",  # wrong type
    ])
    def test_corrupt_entry_reads_as_miss(self, cache_dir, payload):
        cache_dir.mkdir(parents=True)
        _entry_path().write_text(payload)
        assert cache.load_base_f_weak(SPEC, GEOMETRY) is None

    def test_store_recovers_corrupt_entry(self, cache_dir):
        cache_dir.mkdir(parents=True)
        _entry_path().write_text("garbage")
        assert cache.store_base_f_weak(SPEC, GEOMETRY, 0.0145)
        assert cache.load_base_f_weak(SPEC, GEOMETRY) == 0.0145


def _writer_loop(value: float, iterations: int) -> None:
    for _ in range(iterations):
        assert cache.store_base_f_weak(SPEC, GEOMETRY, value)


@needs_fork
def test_reads_under_concurrent_writer_never_crash(cache_dir):
    """Atomic-rename stores mean a reader sees either a complete old
    value, a complete new value, or a miss — never an exception."""
    context = multiprocessing.get_context("fork")
    writer = context.Process(target=_writer_loop, args=(0.0145, 300))
    writer.start()
    try:
        observed = set()
        for _ in range(2000):
            observed.add(cache.load_base_f_weak(SPEC, GEOMETRY))
    finally:
        writer.join(timeout=60)
    assert writer.exitcode == 0
    assert observed <= {None, 0.0145}
    assert 0.0145 in observed
    # No stray temp files leak into the cache directory.
    leftovers = [p for p in cache_dir.iterdir()
                 if p.suffix == ".tmp"]
    assert leftovers == []


# ----------------------------------------------------------------------
# Whole-experiment result store (run dirs)
# ----------------------------------------------------------------------

def _sample_result(text: str = "report"):
    from repro.experiments.base import ExperimentResult
    return ExperimentResult(experiment_id="fig05", title="fig05",
                            text=text, data={"hc_first": [1, 2, 3]})


def _key(plan=None, **changes):
    """The key of fig05 at 0.25 (with ``changes``) under ``plan``."""
    inputs = dict(experiment_id="fig05", scale=0.25, shard=None)
    inputs.update(changes)
    if plan is None:
        return result_key(**inputs)
    install_plan(plan)
    try:
        return result_key(**inputs)
    finally:
        clear_plan()


def _result_writer_loop(root, key: str, iterations: int) -> None:
    result = _sample_result()
    for _ in range(iterations):
        ResultStore(root).store(key, result)


class TestExperimentResultCache:
    def test_roundtrip_preserves_the_result(self, cache_dir):
        store = ResultStore(cache_dir)
        key = _key()
        assert store.load(key) is None
        stored = _sample_result()
        store.store(key, stored)
        loaded = store.load(key)
        assert loaded.text == stored.text
        assert loaded.data == stored.data

    def test_key_covers_every_run_input(self, cache_dir):
        base = _key()
        assert _key() == base
        assert _key(experiment_id="fig07") != base
        assert _key(scale=0.5) != base
        assert _key(shard="0/2") != base
        assert _key(shard="0/2") == _key(shard=" 0/2")  # canonical label
        assert _key(plan=FaultPlan(seed=3)) != base

    def test_key_ignores_worker_only_plan_fields(self, cache_dir):
        plain = _key(plan=FaultPlan(seed=7))
        assert _key(plan=FaultPlan(seed=7, crash_once=("fig05",),
                                   stall_experiments={"fig05": 9.0})) \
            == plain
        assert _key(plan=FaultPlan(seed=7, read_flip_rate=0.001)) != plain

    def test_key_falls_back_to_the_active_plan(self, cache_dir):
        """The key always names the plan the process runs under."""
        base = _key()
        install_plan(FaultPlan(seed=3, read_flip_rate=0.9))
        try:
            assert _key() != base
        finally:
            clear_plan()
        assert _key() == base

    def test_malformed_shard_has_no_key(self, cache_dir):
        with pytest.raises(ShardSpecError):
            _key(shard="ch0")

    @pytest.mark.parametrize("payload", [
        b"", b"\x80\x04garbage", b"not a pickle at all"])
    def test_corrupt_result_reads_as_miss(self, cache_dir, payload):
        store = ResultStore(cache_dir)
        key = _key()
        cache_dir.mkdir(parents=True, exist_ok=True)
        store._path(key).write_bytes(payload)
        assert store.load(key) is None
        # And store recovers the slot.
        store.store(key, _sample_result())
        assert store.load(key) is not None

    def test_wrong_object_type_reads_as_miss(self, cache_dir):
        import pickle
        store = ResultStore(cache_dir)
        key = _key()
        cache_dir.mkdir(parents=True, exist_ok=True)
        store._path(key).write_bytes(pickle.dumps({"not": "a result"}))
        assert store.load(key) is None

    def test_disabled_cache_stores_and_loads_nothing(self, cache_dir,
                                                     monkeypatch):
        """``HBMSIM_NO_CACHE`` turns the calibration cache off; an
        explicit store (a ``--run-dir``) ignores it."""
        monkeypatch.setenv("HBMSIM_NO_CACHE", "1")
        store = ResultStore(cache_dir)
        store.store(_key(), _sample_result())
        assert store.load(_key()) is not None

    def test_unwritable_root_raises(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        store = ResultStore(blocker / "store")
        with pytest.raises(OSError):
            store.store(_key(), _sample_result())
        assert store.load(_key()) is None

    @needs_fork
    def test_reads_under_concurrent_result_writer_never_crash(
            self, cache_dir):
        """The store's concurrency contract: a reader sees a complete
        result or a miss, never a torn pickle."""
        key = _key()
        store = ResultStore(cache_dir)
        context = multiprocessing.get_context("fork")
        writer = context.Process(target=_result_writer_loop,
                                 args=(cache_dir, key, 200))
        writer.start()
        try:
            outcomes = set()
            for _ in range(1000):
                loaded = store.load(key)
                outcomes.add(None if loaded is None else loaded.text)
        finally:
            writer.join(timeout=60)
        assert writer.exitcode == 0
        assert outcomes <= {None, "report"}
        assert "report" in outcomes
        leftovers = [p for p in cache_dir.iterdir()
                     if p.suffix == ".tmp"]
        assert leftovers == []
