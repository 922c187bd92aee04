"""The whole-experiment result store (run dirs): content keys, and
robustness — a corrupt or mid-write entry must read as a miss, never
crash."""

import multiprocessing

import pytest

from repro.chips.profiles import CHIP_SPECS, calibration_fingerprint
from repro.dram.geometry import DEFAULT_GEOMETRY
from repro.errors import ShardSpecError
from repro.experiments.store import ResultStore, result_key
from repro.faults import FaultPlan, clear_plan, install_plan

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="concurrent writers use the fork start method")

#: ``result_key("fig05", 0.25, None)`` with no fault plan and the batched
#: engine on.  Run dirs written by earlier releases are found only while
#: it holds: change it only with a deliberate key change, such as a
#: ``CALIBRATION_VERSION`` bump.
FIG05_KEY = "06a5b3448d08bac7287032ebb27dd5679ce6691426da03dde29e9fbf00a27568"


@pytest.fixture
def store_dir(tmp_path):
    return tmp_path / "run-dir"


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
    def test_roundtrip_preserves_the_result(self, store_dir):
        store = ResultStore(store_dir)
        key = _key()
        assert store.load(key) is None
        stored = _sample_result()
        store.store(key, stored)
        loaded = store.load(key)
        assert loaded.text == stored.text
        assert loaded.data == stored.data

    def test_key_covers_every_run_input(self, store_dir):
        base = _key()
        assert _key() == base
        assert _key(experiment_id="fig07") != base
        assert _key(scale=0.5) != base
        assert _key(shard="0/2") != base
        assert _key(shard="0/2") == _key(shard=" 0/2")  # canonical label
        assert _key(plan=FaultPlan(seed=3)) != base

    def test_key_ignores_worker_only_plan_fields(self, store_dir):
        plain = _key(plan=FaultPlan(seed=7))
        assert _key(plan=FaultPlan(seed=7, crash_once=("fig05",),
                                   stall_experiments={"fig05": 9.0})) \
            == plain
        assert _key(plan=FaultPlan(seed=7, read_flip_rate=0.001)) != plain

    def test_key_falls_back_to_the_active_plan(self, store_dir):
        """The key always names the plan the process runs under."""
        base = _key()
        install_plan(FaultPlan(seed=3, read_flip_rate=0.9))
        try:
            assert _key() != base
        finally:
            clear_plan()
        assert _key() == base

    def test_malformed_shard_has_no_key(self, store_dir):
        with pytest.raises(ShardSpecError):
            _key(shard="ch0")

    @pytest.mark.parametrize("payload", [
        b"", b"\x80\x04garbage", b"not a pickle at all"])
    def test_corrupt_result_reads_as_miss(self, store_dir, payload):
        store = ResultStore(store_dir)
        key = _key()
        store_dir.mkdir(parents=True, exist_ok=True)
        store._path(key).write_bytes(payload)
        assert store.load(key) is None
        # And store recovers the slot.
        store.store(key, _sample_result())
        assert store.load(key) is not None

    def test_wrong_object_type_reads_as_miss(self, store_dir):
        import pickle
        store = ResultStore(store_dir)
        key = _key()
        store_dir.mkdir(parents=True, exist_ok=True)
        store._path(key).write_bytes(pickle.dumps({"not": "a result"}))
        assert store.load(key) is None

    def test_unwritable_root_raises(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        store = ResultStore(blocker / "store")
        with pytest.raises(OSError):
            store.store(_key(), _sample_result())
        assert store.load(_key()) is None

    @needs_fork
    def test_reads_under_concurrent_result_writer_never_crash(
            self, store_dir):
        """The store's concurrency contract: a reader sees a complete
        result or a miss, never a torn pickle."""
        key = _key()
        store = ResultStore(store_dir)
        context = multiprocessing.get_context("fork")
        writer = context.Process(target=_result_writer_loop,
                                 args=(store_dir, key, 200))
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
        leftovers = [p for p in store_dir.iterdir()
                     if p.suffix == ".tmp"]
        assert leftovers == []


class TestInvalidation:
    def test_key_is_pinned(self, monkeypatch):
        """Moving or editing the calibration fingerprint must not orphan
        existing run dirs."""
        monkeypatch.delenv("HBMSIM_BATCH", raising=False)
        assert _key() == FIG05_KEY

    def test_fingerprint_differs_per_spec(self):
        fingerprints = {repr(calibration_fingerprint(spec, DEFAULT_GEOMETRY))
                        for spec in CHIP_SPECS}
        assert len(fingerprints) == len(CHIP_SPECS)

    def test_key_tracks_calibration_version(self, monkeypatch):
        from repro.chips import profiles

        before = _key()
        monkeypatch.setattr(profiles, "CALIBRATION_VERSION",
                            profiles.CALIBRATION_VERSION + 1)
        assert _key() != before
