"""The hammer-stream engine: batched == the per-command scalar loop.

:func:`replay_hammer_stream` resolves each hammer once and applies it
below the fault layer whenever the command counter is clean.  With
``HBMSIM_BATCH=0`` it runs the reference loop: ``stack.hammer`` per
entry, then :func:`catch_up_refreshes`.  Both must leave the same device
(every row's disturbance, restore time and data, stats, clock, rolling
refresh), controller (stats and internal state) and fault schedule
behind — for every controller, both attack bursts and the benign trace,
under no plan, the CI chaos plan, a heavy plan whose faults hit
hammers and REFs, and a stall/hang plan whose hang must fire at the same
command.  The fallback tally shows the fast path is taken, and that a
fault-hit command or a traced device takes the scalar path.
"""

import dataclasses
import hashlib
import importlib
import json

import numpy as np
import pytest

from repro.defenses import (BlockHammer, DefendedDevice, Graphene, Para,
                            RowPressAwarePara, burst_double_sided,
                            defended_session, para_probability_for,
                            pick_vulnerable_victim, rowpress_burst)
from repro.defenses.base import (STREAM_TALLY, HammerTable,
                                 replay_hammer_stream)
from repro.dram.geometry import RowAddress
from repro.errors import PlatformHangError
from repro.faults import FaultPlan, FaultyStack, clear_plan, install_plan
from repro.workloads import benign_trace

CI_PLAN = dict(seed=7, read_flip_rate=0.001, drop_rate=0.0002,
               act_jitter_rate=0.0005, act_jitter_ns=3.0)
#: Jitter, drop and ghost at 2% each: many hammers and REFs fault.
HEAVY_PLAN = dict(seed=11, read_flip_rate=0.001, drop_rate=0.02,
                  ghost_rate=0.02, act_jitter_rate=0.02,
                  act_jitter_ns=3.0)
#: Zero-length stalls at 1%; the hang fires within a few thousand
#: commands, in the middle of every workload below.
HANG_PLAN = dict(seed=5, stall_rate=0.01, stall_seconds=0.0,
                 hang_rate=0.001)
PLANS = {"no-plan": None, "ci-chaos": CI_PLAN, "heavy": HEAVY_PLAN,
         "stall-hang": HANG_PLAN}

DEFENSES = ("none", "PARA", "RowPress-PARA", "Graphene", "BlockHammer")


def _benign(session, victim):
    """The benign replay as ``measure_benign_overhead`` issues it."""
    trace = benign_trace(total_activations=2_000)
    device = session.device
    t_refi = device.timings.t_refi
    return replay_hammer_stream(
        device, HammerTable(trace.channel, trace.pseudo_channel,
                            trace.bank, *trace.columns()),
        trace.channel, trace.pseudo_channel, device.now_ns + t_refi,
        t_refi)


WORKLOADS = {
    # BlockHammer blacklists past 2048 ACTs, so 24000 double-sided
    # hammers reach its throttle and the long REF catch-ups it causes.
    "double_sided": lambda session, victim: burst_double_sided(
        session, victim, hammer_count=24_000),
    "rowpress": lambda session, victim: rowpress_burst(
        session, victim, hammer_count=1_024),
    "benign": _benign,
}


@pytest.fixture(scope="module")
def victim(chip0):
    return pick_vulnerable_victim(chip0)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    clear_plan()
    yield
    clear_plan()


def _controller(chip, defense):
    mapping = chip.row_mapping()
    p = para_probability_for(14_000)
    return {
        "none": lambda: None,
        "PARA": lambda: Para(probability=p, believed_mapping=mapping),
        "RowPress-PARA": lambda: RowPressAwarePara(
            probability=p, believed_mapping=mapping),
        "Graphene": lambda: Graphene(threshold=3500,
                                     believed_mapping=mapping),
        "BlockHammer": lambda: BlockHammer(believed_mapping=mapping),
    }[defense]()


def _layers(stack):
    faulty = stack if isinstance(stack, FaultyStack) else None
    inner = faulty.wrapped if faulty is not None else stack
    defended = inner if isinstance(inner, DefendedDevice) else None
    device = defended.device if defended is not None else inner
    return faulty, defended, device


def _controller_state(controller):
    state = {"stats": dataclasses.asdict(controller.stats)}
    if isinstance(controller, Para):
        state["rng"] = controller._rng.bit_generator.state
    if isinstance(controller, Graphene):
        state["tables"] = {key: (dict(table.counters), table.spill)
                           for key, table in controller._tables.items()}
    if isinstance(controller, BlockHammer):
        state["filter"] = controller.filter.counts.tobytes()
        state["window"] = controller._window_start_ns
    return state


def _state(stack, controller, outcome):
    """Everything the stream can have touched, comparable with ``==``."""
    faulty, defended, device = _layers(stack)
    rows = {}
    for bank_key, bank_rows in device._rows.items():
        for row, st in bank_rows.items():
            flipped = (None if st.already_flipped is None
                       else st.already_flipped.tobytes())
            rows[bank_key + (row,)] = (st.acc_units, st.restored_at,
                                       st.data.tobytes(), flipped)
    ref_times = hashlib.sha256()
    for pc_key in sorted(device._pc_ref_time):
        ref_times.update(device._pc_ref_time[pc_key].tobytes())
    trr = [(engine.ref_count, [dataclasses.asdict(tracker)
                               for tracker in engine._trackers])
           for __, engine in sorted(device._trr.items())]
    state = {"outcome": outcome, "rows": rows, "now": device.now_ns,
             "stats": dataclasses.asdict(device.stats),
             "banks": {key: dataclasses.asdict(bank)
                       for key, bank in device._banks.items()},
             "pointers": dict(device._ref_pointer),
             "ref_times": ref_times.hexdigest(), "trr": trr}
    if faulty is not None:
        state["counter"] = faulty._counter
        state["events"] = list(faulty.events)
        state["digest"] = faulty.schedule_digest()
    if controller is not None:
        state["controller"] = _controller_state(controller)
        state["window"] = defended._window_start_ns
    return state


def _run(chip, victim, defense, workload, plan, batch, monkeypatch,
         with_trr=False):
    monkeypatch.setenv("HBMSIM_BATCH", batch)
    clear_plan()
    if plan is not None:
        install_plan(FaultPlan(**plan))
    controller = _controller(chip, defense)
    session = defended_session(chip, controller, with_trr=with_trr)
    assert isinstance(session.device, FaultyStack) == (plan is not None)
    STREAM_TALLY.reset()
    try:
        outcome = WORKLOADS[workload](session, victim)
    except PlatformHangError as error:
        outcome = f"hang: {error}"
    tally = dataclasses.replace(STREAM_TALLY)
    return _state(session.device, controller, outcome), tally


@pytest.mark.parametrize("plan", sorted(PLANS))
@pytest.mark.parametrize("defense", DEFENSES)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_stream_matches_scalar(chip0, victim, plan, defense, workload,
                               monkeypatch):
    scalar, scalar_tally = _run(chip0, victim, defense, workload,
                                PLANS[plan], "0", monkeypatch)
    batched, tally = _run(chip0, victim, defense, workload, PLANS[plan],
                          "1", monkeypatch)
    assert batched == scalar
    assert scalar_tally.scalar_hammers == scalar_tally.hammers > 0
    assert tally.hammers == scalar_tally.hammers
    assert tally.refs == scalar_tally.refs
    if plan == "stall-hang":
        # The hang must land inside the stream, not before or after it.
        assert str(scalar["outcome"]).startswith("hang: ")
        assert tally.hammers > 0
    if plan in ("no-plan", "ci-chaos"):
        # Almost every hammer and REF takes the fast path.
        assert tally.scalar_hammers <= max(1, tally.hammers // 100)
        assert tally.scalar_refs <= max(1, tally.refs // 100)
    if plan == "heavy":
        # Faults reach the stream: some hammers fall back, and so do
        # some of the double-sided burst's short REF catch-ups (RowPress
        # steps owe long catch-ups, which catch_up_refreshes bursts).
        kinds = {(event.fault, event.command) for event in scalar["events"]}
        assert ("jitter", "HAMMER") in kinds
        assert tally.scalar_hammers > 0
        if workload != "benign":
            assert {("drop", "REF"), ("ghost", "REF")} <= kinds
        if workload == "double_sided":
            assert tally.scalar_refs > 0


@pytest.mark.parametrize("defense", ["none", "Graphene"])
def test_trr_session_matches_scalar(chip0, victim, defense, monkeypatch):
    """TRR victim refreshes ride along the stream's REFs."""
    scalar, __ = _run(chip0, victim, defense, "double_sided", CI_PLAN,
                      "0", monkeypatch, with_trr=True)
    batched, __ = _run(chip0, victim, defense, "double_sided", CI_PLAN,
                       "1", monkeypatch, with_trr=True)
    assert scalar["stats"]["trr_victim_refreshes"] > 0
    assert batched == scalar


def test_traced_device_takes_the_scalar_path(chip0, victim, monkeypatch):
    monkeypatch.setenv("HBMSIM_BATCH", "1")
    session = defended_session(chip0, _controller(chip0, "PARA"))
    __, __, device = _layers(session.device)
    device.enable_tracing(capacity=16)
    STREAM_TALLY.reset()
    burst_double_sided(session, victim, hammer_count=2_048)
    assert STREAM_TALLY.hammers == 64
    assert STREAM_TALLY.scalar_hammers == 64
    assert STREAM_TALLY.scalar_refs == STREAM_TALLY.refs > 0
    assert any(entry.kind == "HAMMER" for entry in device.trace())


def test_ext_defenses_takes_the_fast_path(monkeypatch):
    """ext-defenses at 0.1 under the CI chaos plan: at most 0.1% of the
    stream's hammers fall back to the scalar path, a benign replay
    resolves at most its distinct (row, count) pairs, and each RowPress
    step's catch-up is one REF burst (plus one more per faulted REF)."""
    from repro.experiments import ext_defense_matrix
    from repro.experiments.registry import run_experiment
    from repro.workloads import measure_benign_overhead

    evaluate_module = importlib.import_module("repro.defenses.evaluate")
    benign = []
    rowpress = []

    def spy_benign(chip, factory, name, trace):
        before = dataclasses.replace(STREAM_TALLY)
        report = measure_benign_overhead(chip, factory, name, trace)
        entries = [entry for epoch in trace.epochs for entry in epoch]
        benign.append((STREAM_TALLY.plans - before.plans,
                       len(set(entries)),
                       STREAM_TALLY.hammers - before.hammers,
                       len(entries)))
        return report

    def spy_rowpress(session, victim):
        before = dataclasses.replace(STREAM_TALLY)
        seen = len(session.device.events)
        flips = rowpress_burst(session, victim)
        ref_faults = sum(event.command == "REF"
                         for event in session.device.events[seen:])
        rowpress.append((STREAM_TALLY.ref_bursts - before.ref_bursts,
                         ref_faults))
        return flips

    monkeypatch.setattr(ext_defense_matrix, "measure_benign_overhead",
                        spy_benign)
    monkeypatch.setitem(evaluate_module.ATTACKS, "rowpress_burst",
                        spy_rowpress)
    monkeypatch.setenv("HBMSIM_FAULTS", json.dumps(CI_PLAN))
    monkeypatch.setenv("HBMSIM_BATCH", "1")
    STREAM_TALLY.reset()
    run_experiment("ext-defenses", 0.1)
    assert STREAM_TALLY.hammers > 100_000
    assert STREAM_TALLY.scalar_hammers <= STREAM_TALLY.hammers // 1000
    assert STREAM_TALLY.scalar_refs <= STREAM_TALLY.refs // 1000
    assert len(benign) == len(rowpress) == len(DEFENSES)
    for plans, pairs, hammers, entries in benign:
        assert 0 < plans <= pairs < entries == hammers
    steps = 4096 // 8  # rowpress_burst's defaults: one step per chunk
    for bursts, ref_faults in rowpress:
        assert steps <= bursts <= steps + ref_faults


def test_table_resolves_each_distinct_pair_once(chip0):
    trace = benign_trace(total_activations=3_000)
    entries = [entry for epoch in trace.epochs for entry in epoch]
    rows, counts = trace.columns()
    assert list(zip(rows.tolist(), counts.tolist())) == entries
    table = HammerTable(0, 1, 2, rows, counts)
    assert [step for step in table] == [
        ((RowAddress(0, 1, 2, row), count, None),)
        for row, count in entries]
    device = chip0.make_device()
    STREAM_TALLY.reset()
    resolved = list(table.resolve(device))
    assert STREAM_TALLY.plans == len(set(entries))
    for (step, plans), (row, count) in zip(resolved, entries):
        assert step is None
        assert plans == (device.hammer_plan(RowAddress(0, 1, 2, row),
                                            count),)


@pytest.mark.parametrize("defense", ["none", "Graphene"])
def test_out_of_range_entry_fails_in_order(chip0, victim, defense,
                                           monkeypatch):
    """A table entry the device rejects raises at its turn, after every
    earlier entry took effect, exactly as the reference loop does."""
    rows = [100, 101, 2_000, 16_384, 300]
    counts = [3, 1, 2, 1, 1]

    def run(batch):
        monkeypatch.setenv("HBMSIM_BATCH", batch)
        install_plan(FaultPlan(**CI_PLAN))
        controller = _controller(chip0, defense)
        session = defended_session(chip0, controller)
        table = HammerTable(0, 0, 0, rows, counts)
        with pytest.raises(ValueError, match="row 16384 out of range"):
            replay_hammer_stream(session.device, table, 0, 0, 1.0e9,
                                 3900.0)
        clear_plan()
        return _state(session.device, controller, None)

    batched = run("1")
    assert batched == run("0")
    assert batched["stats"]["acts"] == sum(counts[:3])


def test_zero_count_hammer_takes_the_scalar_path(chip0, victim,
                                                 monkeypatch):
    """A zero-count hammer still consults the controller and draws a
    fault counter, so its step runs through every layer."""
    monkeypatch.setenv("HBMSIM_BATCH", "1")
    install_plan(FaultPlan(**CI_PLAN))
    session = defended_session(chip0, _controller(chip0, "Graphene"))
    address = session.aggressors_of(victim)[0]
    STREAM_TALLY.reset()
    replay_hammer_stream(session.device, [[(address, 0, None)]] * 3,
                         0, 0, 1.0e9, 3900.0)
    assert STREAM_TALLY.scalar_hammers == 3
    assert session.device._counter == 3


class TestCommitExit:
    """The commit early exit skips only commits that latch nothing.

    ``inspect_row`` predicts the next commit through the full flip
    search; the committed data must match it in every regime the exit
    distinguishes: undisturbed, disturbed below the row's weakest cell,
    and disturbed above it, each fresh and past the retention floor.
    """

    @pytest.mark.parametrize("hammers", [0, 64, 300_000])
    @pytest.mark.parametrize("wait_ns", [1.0e6, 4.0e9])
    def test_commit_matches_prediction(self, chip0, hammers, wait_ns):
        device = chip0.make_device()
        rows = [RowAddress(0, 0, 0, row) for row in range(1000, 1064)]
        for address in rows:
            device.write_row(address, np.full(
                device.geometry.row_bytes, 0x55, dtype=np.uint8))
        flipped = 0
        # The first round learns each disturbed row's weakest cell, so
        # the second commits against a known floor.
        for __ in range(2):
            if hammers:
                for address in rows[1::4]:
                    device.hammer(address, hammers)
            device.wait(wait_ns)
            predicted = [device.inspect_row(address) for address in rows]
            for address, image in zip(rows, predicted):
                physical = device._to_physical(address)
                device._commit(physical)
                data = device._rows[physical.bank_key][physical.row].data
                assert np.array_equal(data, image)
                flipped += int(np.unpackbits(data ^ 0x55).sum())
        if wait_ns > 1.0e9 or hammers > 100_000:
            assert flipped > 0
