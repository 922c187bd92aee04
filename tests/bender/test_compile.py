"""Suite for the test-program compiler (``repro.bender.compile``).

Contract under test: for ANY program — loop-structured or not — and any
fault plan, ``PlanExecutor`` produces results bit-identical to the
scalar ``Interpreter``: tagged reads flip-for-flip, device clock and
statistics, rolling-refresh state, per-row cell state, the TRR
sampler's internals, and the fault injector's event schedule, command
counter and future sampler draws.  The scalar interpreter is the
oracle; the compiler only changes *how fast* the answer arrives.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bender.compile import (MAX_DIRTY_FRACTION, MIN_EPOCH_REPEATS,
                                  EpochSegment, PlanExecutor,
                                  ScalarSegment, _EpochContext,
                                  compile_program, dirty_window_mask)
from repro.bender.interpreter import Interpreter
from repro.bender.program import TestProgram
from repro.dram.device import HBM2Stack
from repro.dram.geometry import RowAddress
from repro.dram.trr import TrrConfig
from repro.faults import FaultPlan
from repro.faults.injector import FaultyStack

ROW_BYTES = HBM2Stack().geometry.row_bytes


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def snapshot(device, result, stack=None):
    """Everything the two engines must agree on, hashable-comparable."""
    snap = {
        "elapsed": result.elapsed_ns,
        "executed": result.commands_executed,
        "reads": {tag: [image.tobytes() for image in images]
                  for tag, images in result.reads.items()},
        "now": device.now_ns,
        "stats": vars(device.stats).copy(),
        "pointer": dict(device._ref_pointer),
        "ref_times": {key: times.tobytes()
                      for key, times in device._pc_ref_time.items()},
        "rows": {},
        "trr": [],
    }
    for bank_key, rows in device._rows.items():
        for row, state in rows.items():
            snap["rows"][(bank_key, row)] = (
                state.data.tobytes(), state.acc_units, state.restored_at,
                None if state.already_flipped is None
                else state.already_flipped.tobytes())
    for pc_key, engine in device._trr.items():
        for tracker in engine._trackers:
            snap["trr"].append((pc_key, tuple(tracker.cam),
                                dict(tracker.window_counts),
                                tracker.window_total))
    if stack is not None:
        snap["events"] = [(e.index, e.fault, e.command, e.detail)
                          for e in stack.events]
        snap["digest"] = stack.schedule_digest()
        snap["counter"] = stack._counter
    return snap


def run_both(program, plan, trr_enabled=True, retention=True):
    """Run on fresh devices through both engines; return snapshots."""
    def make():
        kwargs = {} if retention else {"retention": None}
        return HBM2Stack(trr_config=TrrConfig(enabled=trr_enabled),
                         **kwargs)

    scalar_device = make()
    interpreter = Interpreter(scalar_device, fault_plan=plan)
    batch_device = make()
    executor = PlanExecutor(batch_device, fault_plan=plan)
    try:
        scalar_result = interpreter.run(program)
        scalar_error = None
    except Exception as exc:  # noqa: BLE001 — error parity is the test
        scalar_result, scalar_error = None, (type(exc).__name__, str(exc))
    try:
        batch_result = executor.run(program)
        batch_error = None
    except Exception as exc:  # noqa: BLE001
        batch_result, batch_error = None, (type(exc).__name__, str(exc))
    assert scalar_error == batch_error
    if scalar_error is not None:
        return None, None
    wrapped = isinstance(interpreter.device, FaultyStack)
    assert wrapped == isinstance(executor.device, FaultyStack)
    return (snapshot(scalar_device, scalar_result,
                     interpreter.device if wrapped else None),
            snapshot(batch_device, batch_result,
                     executor.device if wrapped else None))


def assert_identical(scalar_snap, batch_snap):
    if scalar_snap is None:
        return
    for key in scalar_snap:
        assert scalar_snap[key] == batch_snap[key], f"diverged on {key}"


def reference_program():
    """Two epoch loops (one with REF), scalar pro/epilogue, reads."""
    program = TestProgram(name="reference")
    agg_lo = RowAddress(0, 0, 0, 100)
    agg_hi = RowAddress(0, 0, 0, 102)
    victim = RowAddress(0, 0, 0, 101)
    other = RowAddress(0, 0, 1, 500)
    image = np.zeros(ROW_BYTES, dtype=np.uint8)
    program.write_row(victim, image)
    program.write_row(other, image)
    with program.loop(200) as body:
        body.hammer(agg_lo, 30, t_on=40.0)
        body.hammer(agg_hi, 30)
        body.hammer(other, 7)
        body.refresh(0, 0)
        body.wait(120.0)
    with program.loop(50) as body:
        body.hammer(agg_lo, 12)
        body.hammer(agg_hi, 12)
    program.refresh(0, 0)
    program.read_row(victim, tag="victim")
    program.read_row(other, tag="other")
    return program


# ----------------------------------------------------------------------
# Lowering rules
# ----------------------------------------------------------------------


class TestCompileProgram:
    def test_reference_program_segmentation(self):
        segments = compile_program(reference_program())
        kinds = [type(segment) for segment in segments]
        assert kinds == [ScalarSegment, EpochSegment, EpochSegment,
                         ScalarSegment]
        assert segments[1].has_ref and segments[1].repeats == 200
        assert not segments[2].has_ref and segments[2].repeats == 50

    def test_short_loops_stay_scalar(self):
        program = TestProgram(name="short")
        with program.loop(MIN_EPOCH_REPEATS - 1) as body:
            body.hammer(RowAddress(0, 0, 0, 10), 5)
        (segment,) = compile_program(program)
        assert isinstance(segment, ScalarSegment)

    def test_nested_loops_stay_scalar(self):
        program = TestProgram(name="nested")
        with program.loop(100) as outer:
            with outer.loop(10) as inner:
                inner.hammer(RowAddress(0, 0, 0, 10), 5)
        (segment,) = compile_program(program)
        assert isinstance(segment, ScalarSegment)

    def test_hammer_after_ref_stays_scalar(self):
        program = TestProgram(name="post-ref")
        with program.loop(100) as body:
            body.refresh(0, 0)
            body.hammer(RowAddress(0, 0, 0, 10), 5)
        (segment,) = compile_program(program)
        assert isinstance(segment, ScalarSegment)

    def test_two_refs_stay_scalar(self):
        program = TestProgram(name="two-refs")
        with program.loop(100) as body:
            body.refresh(0, 0)
            body.refresh(0, 0)
        (segment,) = compile_program(program)
        assert isinstance(segment, ScalarSegment)

    def test_mixed_pseudo_channels_stay_scalar(self):
        program = TestProgram(name="mixed-pc")
        with program.loop(100) as body:
            body.hammer(RowAddress(0, 0, 0, 10), 5)
            body.hammer(RowAddress(0, 1, 0, 10), 5)
        (segment,) = compile_program(program)
        assert isinstance(segment, ScalarSegment)

    def test_act_pre_loops_stay_scalar(self):
        """ACT/PRE bodies never lower: float summation order differs
        from the closed-form count * act_to_act used for HAMMER."""
        program = TestProgram(name="act-pre")
        address = RowAddress(0, 0, 0, 10)
        with program.loop(100) as body:
            body.activate(address)
            body.precharge(address)
        (segment,) = compile_program(program)
        assert isinstance(segment, ScalarSegment)

    def test_wait_only_loop_stays_scalar(self):
        program = TestProgram(name="waits")
        with program.loop(100) as body:
            body.wait(50.0)
        (segment,) = compile_program(program)
        assert isinstance(segment, ScalarSegment)

    def test_ref_only_loop_lowers(self):
        """issue_refs-style REF loops become one epoch segment."""
        program = TestProgram(name="refs")
        with program.loop(68) as body:
            body.refresh(0, 0)
        (segment,) = compile_program(program)
        assert isinstance(segment, EpochSegment)
        assert segment.has_ref and segment.repeats == 68


# ----------------------------------------------------------------------
# Deterministic differentials
# ----------------------------------------------------------------------


CHAOS_PLAN = FaultPlan(seed=7, drop_rate=0.01, ghost_rate=0.01,
                       act_jitter_rate=0.01, act_jitter_ns=5.0,
                       read_flip_rate=0.5, read_flip_bits=3,
                       stuck_row_rate=0.05)


class TestPlanExecutorDifferential:
    def test_fault_free_bit_identical(self):
        assert_identical(*run_both(reference_program(), None))

    def test_chaos_plan_bit_identical(self):
        assert_identical(*run_both(reference_program(), CHAOS_PLAN))

    def test_trr_disabled_bit_identical(self):
        assert_identical(*run_both(reference_program(), CHAOS_PLAN,
                                   trr_enabled=False))

    def test_retention_windows_bit_identical(self):
        """Long waits between epochs exercise the retention physics in
        the replay's sweep commits."""
        program = TestProgram(name="retention")
        victim = RowAddress(0, 0, 0, 40)
        program.write_row(victim, np.zeros(ROW_BYTES, dtype=np.uint8))
        program.wait(1.0e9)
        with program.loop(120) as body:
            body.refresh(0, 0)
        program.wait(1.0e9)
        with program.loop(20) as body:
            body.hammer(RowAddress(0, 0, 0, 41), 40)
            body.refresh(0, 0)
        program.read_row(victim, tag="victim")
        assert_identical(*run_both(program, None))

    def test_heavy_chaos_falls_back_whole_segment(self):
        """Above MAX_DIRTY_FRACTION the segment replays per-command —
        and is still bit-identical."""
        plan = FaultPlan(seed=3, drop_rate=0.5, ghost_rate=0.2)
        mask = dirty_window_mask(plan, 0,
                                 compile_program(reference_program())[1].body,
                                 200)
        assert mask.mean() > MAX_DIRTY_FRACTION
        assert_identical(*run_both(reference_program(), plan))

    def test_future_sampler_draws_agree(self):
        """After a run both engines leave the injector at the same
        counter, so every *future* fault draw matches too."""
        scalar_snap, batch_snap = run_both(reference_program(),
                                           CHAOS_PLAN)
        assert scalar_snap["counter"] == batch_snap["counter"]
        indices = np.arange(scalar_snap["counter"] + 1,
                            scalar_snap["counter"] + 2049)
        for mask in ("drop_mask", "ghost_mask", "draw_bitflips_array"):
            assert np.array_equal(getattr(CHAOS_PLAN, mask)(indices),
                                  getattr(CHAOS_PLAN, mask)(indices))

    @pytest.mark.parametrize("aggressor, victim", [
        # Row 831 ends subarray 0 and row 832 starts subarray 1: each
        # victim refresh may disturb only its own side of the boundary,
        # where no other command touches a row.
        pytest.param(830, 831, id="subarray-end"),
        pytest.param(833, 832, id="subarray-start"),
        # Row 0 has no lower neighbor at all.
        pytest.param(1, 0, id="bank-edge"),
    ])
    @pytest.mark.parametrize("plan", [None, CHAOS_PLAN],
                             ids=["fault-free", "chaos"])
    def test_trr_victim_refresh_at_edges_bit_identical(
            self, monkeypatch, aggressor, victim, plan):
        """TRR victim refreshes at a subarray boundary and at the bank
        edge reach the compiled engine's neighbor lookup and stay
        bit-identical to the interpreter."""
        seen = set()
        lookup = _EpochContext.victim_reach

        def spy(context, row):
            seen.add(row)
            return lookup(context, row)

        monkeypatch.setattr(_EpochContext, "victim_reach", spy)
        program = TestProgram(name="trr-edges")
        victim_address = RowAddress(0, 0, 0, victim)
        program.write_row(victim_address,
                          np.zeros(ROW_BYTES, dtype=np.uint8))
        with program.loop(200) as body:
            body.hammer(RowAddress(0, 0, 0, aggressor), 30)
            body.refresh(0, 0)
        program.read_row(victim_address, tag="victim")
        assert_identical(*run_both(program, plan))
        assert victim in seen

    def test_hang_error_parity(self):
        """A hang raised mid-segment leaves both engines equally dead."""
        plan = FaultPlan(seed=11, hang_rate=0.02)
        scalar_snap, batch_snap = run_both(reference_program(), plan)
        # run_both asserted matching error types; nothing else to check
        # when both raised (snapshots are None).
        assert (scalar_snap is None) == (batch_snap is None)


# ----------------------------------------------------------------------
# Property-based differential (satellite: hypothesis suite)
# ----------------------------------------------------------------------


def programs(draw):
    program = TestProgram(name="hypothesis")
    image = np.zeros(ROW_BYTES, dtype=np.uint8)
    rows = draw(st.lists(st.integers(5, 900), min_size=3, max_size=4,
                         unique=True))
    for row in rows[:2]:
        program.write_row(RowAddress(0, 0, draw(st.integers(0, 1)), row),
                          image)
    for __ in range(draw(st.integers(1, 2))):
        count = draw(st.sampled_from([1, 3, 6, 25, 300]))
        with program.loop(count) as body:
            for __ in range(draw(st.integers(0, 2))):
                body.hammer(
                    RowAddress(0, 0, draw(st.integers(0, 1)),
                               draw(st.sampled_from(rows))),
                    draw(st.sampled_from([0, 1, 8, 40])),
                    t_on=draw(st.sampled_from([None, 35.0, 60.0])))
            if draw(st.booleans()):
                body.refresh(0, 0)
            if draw(st.booleans()):
                body.wait(draw(st.sampled_from([0.0, 55.5, 4000.0])))
        if draw(st.booleans()):
            program.hammer(RowAddress(0, 0, 0,
                                      draw(st.sampled_from(rows))), 5)
        if draw(st.booleans()):
            program.wait(1.0e6)
    program.refresh(0, 0)
    for index, row in enumerate(rows[:2]):
        program.read_row(RowAddress(0, 0, 0, row), tag=f"t{index}")
    return program


def plans(draw):
    if draw(st.booleans()):
        return None
    return FaultPlan(
        seed=draw(st.integers(0, 1 << 16)),
        drop_rate=draw(st.sampled_from([0.0, 0.002, 0.05])),
        ghost_rate=draw(st.sampled_from([0.0, 0.002, 0.05])),
        act_jitter_rate=draw(st.sampled_from([0.0, 0.01, 0.2])),
        act_jitter_ns=draw(st.sampled_from([0.0, 4.0])),
        read_flip_rate=draw(st.sampled_from([0.0, 0.5])),
        read_flip_bits=3,
        stuck_row_rate=draw(st.sampled_from([0.0, 0.1])),
    )


@given(data=st.data())
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_programs_bit_identical(data):
    program = programs(data.draw)
    plan = plans(data.draw)
    trr_enabled = data.draw(st.booleans())
    retention = data.draw(st.booleans())
    assert_identical(*run_both(program, plan, trr_enabled=trr_enabled,
                               retention=retention))
