"""Shard-parallel row sweeps: spec parsing, merge identity, fan-out.

The full-geometry contract (ISSUE 8, extended by ISSUE 10 to the whole
row-sweep family): a shardable experiment's sweep splits into
contiguous unit ranges — (channel, pseudo channel) pairs, channels, or
bank combos — whose merged result is byte-identical to the unsharded
run — under the CLI ``--shard i/n`` flag and the pool's transparent
``-j N`` fan-out alike.
"""

import tracemalloc
from unittest import mock

import pytest

from repro.chips.profiles import all_chips
from repro.dram.geometry import DEFAULT_GEOMETRY
from repro.errors import HbmSimError, ShardSpecError
from repro.experiments import registry, runner
from repro.experiments.__main__ import main
from repro.experiments.registry import run_timed
from repro.experiments.sharding import ShardSpec

SCALE = 0.02


class TestShardSpec:
    def test_parse_roundtrip(self):
        spec = ShardSpec.parse("2/8")
        assert spec == ShardSpec(2, 8)
        assert spec.label == "2/8"

    def test_none_is_unsharded(self):
        assert ShardSpec.parse(None) is None

    @pytest.mark.parametrize("value", ["ch0", "0/0x", "a/b", "1-4", ""])
    def test_non_matching_values_rejected(self, value):
        with pytest.raises(ShardSpecError, match="i/n"):
            ShardSpec.parse(value)

    @pytest.mark.parametrize("value", ["4/4", "5/2", "0/0"])
    def test_malformed_matches_rejected(self, value):
        with pytest.raises(ValueError):
            ShardSpec.parse(value)

    @pytest.mark.parametrize("count,n_units", [(1, 16), (3, 16),
                                               (4, 16), (16, 16),
                                               (20, 16), (5, 7)])
    def test_slices_partition_contiguously(self, count, n_units):
        slices = [ShardSpec(i, count).slice_of(n_units)
                  for i in range(count)]
        assert slices[0][0] == 0
        assert slices[-1][1] == n_units
        for (_, stop), (start, _) in zip(slices, slices[1:]):
            assert stop == start
        sizes = [stop - start for start, stop in slices]
        assert max(sizes) - min(sizes) <= 1  # balanced


class TestMergeIdentity:
    @pytest.fixture(scope="class")
    def full(self):
        return {eid: registry.run_experiment(eid, SCALE)
                for eid in registry.SHARDABLE}

    @pytest.mark.parametrize("count", [1, 3, 4, 16, 20])
    @pytest.mark.parametrize("eid", sorted(registry.SHARDABLE))
    def test_merged_shards_match_full_run(self, full, eid, count):
        partials = [registry.run_experiment(eid, SCALE,
                                            shard=f"{index}/{count}")
                    for index in range(count)]
        merged = registry.SHARDABLE[eid].merge_shards(partials, SCALE)
        assert merged.text == full[eid].text

    def test_incomplete_fanout_rejected(self):
        partials = [registry.run_experiment("fig05", SCALE, shard=label)
                    for label in ("0/4", "2/4", "3/4")]
        with pytest.raises(HbmSimError, match="fan-out"):
            registry.merge_shard_results("fig05", partials, SCALE)

    def test_mixed_fanout_rejected(self):
        partials = [registry.run_experiment("fig05", SCALE, shard="0/2"),
                    registry.run_experiment("fig05", SCALE, shard="1/4")]
        with pytest.raises(HbmSimError):
            registry.merge_shard_results("fig05", partials, SCALE)

    def test_empty_shards_beyond_units_contribute_nothing(self):
        # 20 > 16 units: the tail shards carry empty flats.
        result = registry.run_experiment("fig05", SCALE, shard="19/20")
        flats = result.data["flats"]
        assert all(flats[label][name].size == 0
                   for label in flats for name in flats[label])


@pytest.mark.parametrize("eid", ["fig04", "fig05", "fig06", "fig07"])
def test_merge_holds_one_copy(eid):
    """The flat merge consumes its partials: concatenating releases each
    shard's array, so the merge needs almost nothing beyond the memory
    the partials already hold, and leaves their flats empty."""
    tracemalloc.start()
    try:
        partials = [registry.run_experiment(eid, 0.25, shard=f"{index}/2")
                    for index in range(2)]
        payload = sum(column.nbytes for partial in partials
                      for by_pattern in partial.data["flats"].values()
                      for column in by_pattern.values())
        tracemalloc.reset_peak()
        held, __ = tracemalloc.get_traced_memory()
        merged = registry.merge_shard_results(eid, partials, 0.25)
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert merged.experiment_id == eid
    assert payload > 1 << 20
    assert peak - held <= 0.1 * payload
    for partial in partials:
        assert all(not by_pattern
                   for by_pattern in partial.data["flats"].values())


class TestRegistryShardApi:
    def test_shard_units(self):
        units = {eid: sweep.units
                 for eid, sweep in registry.SHARDABLE.items()}
        assert units == {"fig04": 8, "fig05": 16, "fig06": 8, "fig07": 16,
                         "fig08": 3, "fig09": 256, "fig12": 8, "fig13": 3}
        assert "fig03" not in registry.SHARDABLE
        # The counts are fixed from the default geometry at import, so
        # every chip must sweep that geometry.
        assert all(chip.geometry == DEFAULT_GEOMETRY for chip in all_chips())

    def test_non_shard_label_rejected(self):
        with pytest.raises(ShardSpecError):
            registry.run_experiment("fig05", SCALE, shard="ch0")

    def test_cli_malformed_shard_exits_2(self, capsys):
        assert main(["fig04", "--scale", str(SCALE), "--shard", "0-2"]) == 2
        captured = capsys.readouterr()
        assert "i/n" in captured.err
        assert "=== fig04" not in captured.out

    def test_shard_on_non_shardable_rejected(self):
        with pytest.raises(HbmSimError, match="shard"):
            registry.run_experiment("fig03", SCALE, shard="0/2")

    def test_merge_on_non_shardable_rejected(self):
        with pytest.raises(HbmSimError):
            registry.merge_shard_results("fig03", [], SCALE)


class TestPoolFanout:
    def test_fanout_requires_jobs_and_units(self):
        assert runner._shard_fanout("fig05", 1) == 1
        assert runner._shard_fanout("fig03", 4) == 1
        assert runner._shard_fanout("fig04", 4) == 4
        assert runner._shard_fanout("fig05", 4) == 4
        assert runner._shard_fanout("fig05", 64) == 16
        assert runner._shard_fanout("fig08", 8) == 3

    def test_pooled_shard_run_matches_serial(self):
        serial, __ = run_timed(["fig05", "fig07"], SCALE, jobs=1)
        with mock.patch.object(runner, "_available_cores",
                               return_value=4):
            pooled, records = run_timed(["fig05", "fig07"], SCALE,
                                        jobs=4)
        assert [r.text for r in pooled] == [r.text for r in serial]
        assert all(r.status == "ok" for r in records)
        # The merged record carries the fan-out's merge phase.
        assert "merge" in pooled[0].phases

    def test_explicit_shard_task_is_not_refanned(self):
        # A task already carrying --shard i/n runs as that single
        # slice, even under -j N.
        with mock.patch.object(runner, "_available_cores",
                               return_value=4):
            results, records = run_timed(["fig05"], SCALE, jobs=4,
                                         shard="1/4")
        assert records[0].status == "ok"
        assert results[0].data["shard_index"] == 1
        assert results[0].data["shard_count"] == 4

    @staticmethod
    def _pooled_submits(ids, jobs=2):
        """Run ``ids`` through the pool; return the run and the
        (experiment id, shard) of every task the loop hands a worker,
        in hand-out order (no retries, so that is the queue order)."""
        assign = runner._Worker.assign
        with mock.patch.object(runner, "_available_cores",
                               return_value=jobs), \
                mock.patch.object(runner._Worker, "assign",
                                  autospec=True,
                                  side_effect=assign) as spy:
            results, records = run_timed(ids, SCALE, jobs=jobs)
        calls = [(call.args[1].experiment_id, call.args[1].shard)
                 for call in spy.call_args_list]
        return results, records, calls

    def test_indivisible_invocations_submitted_before_shards(self):
        ids = ["fig05", "table1", "fig07", "fig03"]
        serial, serial_records = run_timed(ids, SCALE, jobs=1)
        pooled, records, calls = self._pooled_submits(ids)
        assert calls == [("table1", None), ("fig03", None),
                         ("fig05", "0/2"), ("fig05", "1/2"),
                         ("fig07", "0/2"), ("fig07", "1/2")]
        assert [r.experiment_id for r in records] == ids
        assert [r.index for r in records] == \
            [r.index for r in serial_records]
        assert all(r.status == "ok" for r in records)
        assert [r.text for r in pooled] == [r.text for r in serial]

    def test_long_indivisible_invocations_submitted_first(self):
        """fig15 is the sweep's critical path: it goes ahead of the short
        indivisible ids it follows in the request; records and reports
        keep request order."""
        ids = ["table1", "fig03", "fig15", "fig05"]
        assert set(ids) & registry.LONG_RUNNING == {"fig15"}
        serial, __ = run_timed(ids, SCALE, jobs=1)
        pooled, records, calls = self._pooled_submits(ids)
        assert calls == [("fig15", None), ("table1", None),
                         ("fig03", None), ("fig05", "0/2"),
                         ("fig05", "1/2")]
        assert [r.experiment_id for r in records] == ids
        assert all(r.status == "ok" for r in records)
        assert [r.text for r in pooled] == [r.text for r in serial]

    def test_long_running_ids_are_unshardable_registry_ids(self):
        assert registry.LONG_RUNNING <= set(registry.known_ids())
        assert not registry.LONG_RUNNING & set(registry.SHARDABLE)

    def test_all_shardable_request_keeps_submit_order(self):
        __, __, calls = self._pooled_submits(["fig07", "fig05"])
        assert calls == [("fig07", "0/2"), ("fig07", "1/2"),
                         ("fig05", "0/2"), ("fig05", "1/2")]
