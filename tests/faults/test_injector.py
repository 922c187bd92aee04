"""Tests for the FaultyStack chaos wrapper and its wiring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bender.host import BenderSession
from repro.bender.interpreter import Interpreter
from repro.defenses import BlockHammer, Graphene
from repro.defenses.base import DefendedDevice
from repro.dram.cell_model import CellPopulation
from repro.dram.device import HBM2Stack, UniformProfileProvider
from repro.dram.geometry import RowAddress
from repro.dram.seeding import uniform_for
from repro.errors import (HbmSimError, PlatformFaultError,
                          PlatformHangError)
from repro.faults import (FaultPlan, FaultyStack, clear_plan, install_plan,
                          wrap_device)
from repro.faults.injector import _WINDOW, FaultEvent
from repro.faults.plan import TAG_JITTER

ROW = RowAddress(0, 0, 0, 100)


def make_device() -> HBM2Stack:
    return HBM2Stack(profile_provider=UniformProfileProvider(
        CellPopulation(f_weak=0.014, mu_weak=5.0)))


def make_faulty(**plan_fields) -> FaultyStack:
    return FaultyStack(make_device(), FaultPlan(**plan_fields))


@pytest.fixture(autouse=True)
def _no_leaked_plan(monkeypatch):
    monkeypatch.delenv("HBMSIM_FAULTS", raising=False)
    clear_plan()
    yield
    clear_plan()


class TestDeterminism:
    PLAN = dict(seed=7, read_flip_rate=0.3, drop_rate=0.1, ghost_rate=0.2,
                act_jitter_rate=0.3, act_jitter_ns=40.0,
                stuck_row_rate=0.3)

    def _drive(self, stack):
        image = np.full(1024, 0x55, dtype=np.uint8)
        reads = []
        for row in range(30):
            address = RowAddress(0, 0, 0, row)
            stack.write_row(address, image)
            reads.append(stack.read_row(address))
        stack.hammer(RowAddress(0, 0, 1, 10), 50)
        stack.refresh(0, 0)
        return reads

    def test_same_seed_same_schedule_and_data(self):
        first = make_faulty(**self.PLAN)
        second = make_faulty(**self.PLAN)
        reads_a = self._drive(first)
        reads_b = self._drive(second)
        assert first.events == second.events
        assert first.schedule_digest() == second.schedule_digest()
        for a, b in zip(reads_a, reads_b):
            assert np.array_equal(a, b)
        assert len(first.events) > 0

    def test_different_seed_different_schedule(self):
        first = make_faulty(**self.PLAN)
        second = make_faulty(**{**self.PLAN, "seed": 8})
        self._drive(first)
        self._drive(second)
        assert first.schedule_digest() != second.schedule_digest()


class TestFaultBehaviours:
    def test_read_flips_are_interface_errors_not_array_errors(self):
        stack = make_faulty(seed=1, read_flip_rate=1.0, read_flip_bits=4)
        image = np.full(1024, 0x55, dtype=np.uint8)
        stack.write_row(ROW, image)
        corrupted = stack.read_row(ROW)
        assert not np.array_equal(corrupted, image)
        # The stored row is pristine: the flip happened on the bus.
        assert np.array_equal(stack.inspect_row(ROW), image)

    def test_stuck_cells_persist_across_reads(self):
        stack = make_faulty(seed=3, stuck_row_rate=1.0,
                            stuck_bits_per_row=8)
        zeros = np.zeros(1024, dtype=np.uint8)
        ones = np.full(1024, 0xFF, dtype=np.uint8)
        stack.write_row(ROW, zeros)
        read_zeros = stack.read_row(ROW)
        stack.write_row(ROW, ones)
        read_ones = stack.read_row(ROW)
        stuck_events = [e for e in stack.events if e.fault == "stuck"]
        assert len(stuck_events) == 2
        assert stuck_events[0].detail == stuck_events[1].detail
        # At least one of the two images shows the pinned bits.
        assert (not np.array_equal(read_zeros, zeros)
                or not np.array_equal(read_ones, ones))

    def test_dropped_write_loses_data(self):
        stack = make_faulty(seed=1, drop_rate=1.0)
        stack.write_row(ROW, np.full(1024, 0xFF, dtype=np.uint8))
        assert not np.any(stack.inspect_row(ROW))

    def test_ghost_refresh_executes_twice(self):
        stack = make_faulty(seed=1, ghost_rate=1.0)
        stack.refresh(0, 0)
        assert stack.stats.refs == 2
        assert [e.fault for e in stack.events] == ["ghost"]

    def test_dropped_wait_freezes_time(self):
        stack = make_faulty(seed=1, drop_rate=1.0)
        stack.wait(1000.0)
        assert stack.now_ns == 0.0

    def test_hang_raises_platform_fault(self):
        stack = make_faulty(seed=1, hang_rate=1.0)
        with pytest.raises(PlatformHangError) as excinfo:
            stack.refresh(0, 0)
        assert isinstance(excinfo.value, PlatformFaultError)
        assert isinstance(excinfo.value, HbmSimError)

    def test_act_jitter_amplifies_hammer_disturbance(self):
        plain = make_device()
        plain.hammer(ROW.neighbor(1), 1000)
        clean_units = plain.accumulated_units(ROW)
        jittered = make_faulty(seed=2, act_jitter_rate=1.0,
                               act_jitter_ns=500.0)
        jittered.hammer(ROW.neighbor(1), 1000)
        assert jittered.accumulated_units(ROW) > clean_units

    def test_fault_free_plan_is_transparent(self):
        device = make_device()
        assert wrap_device(device, None) is device
        assert wrap_device(device, FaultPlan(seed=5)) is device
        # Worker-only knobs must not perturb the device path either.
        assert wrap_device(
            device, FaultPlan(crash_once=("fig05",))) is device

    def test_delegation_exposes_device_surface(self):
        stack = make_faulty(seed=1, read_flip_rate=0.5)
        assert stack.geometry is stack.wrapped.geometry
        assert stack.timings is stack.wrapped.timings
        stack.enable_tracing()
        stack.write_row(ROW, np.zeros(1024, dtype=np.uint8))
        assert stack.trace()  # ring buffer reached through delegation


class TestWiring:
    def test_interpreter_wraps_under_installed_plan(self):
        install_plan(FaultPlan(seed=1, read_flip_rate=0.5))
        interpreter = Interpreter(make_device())
        assert isinstance(interpreter.device, FaultyStack)

    def test_interpreter_unwrapped_without_plan(self):
        device = make_device()
        assert Interpreter(device).device is device

    def test_session_adopts_wrapped_device(self, monkeypatch):
        monkeypatch.setenv("HBMSIM_FAULTS",
                           '{"seed": 2, "drop_rate": 0.1}')
        session = BenderSession(make_device())
        assert isinstance(session.device, FaultyStack)
        assert session.device is session.interpreter.device

    def test_explicit_plan_overrides(self):
        interpreter = Interpreter(
            make_device(), fault_plan=FaultPlan(seed=4, ghost_rate=0.2))
        assert isinstance(interpreter.device, FaultyStack)
        assert interpreter.device.plan.seed == 4

    def test_double_wrap_collapses(self):
        plan = FaultPlan(seed=1, read_flip_rate=0.5)
        inner = make_device()
        once = FaultyStack(inner, plan)
        twice = FaultyStack(once, plan)
        assert twice.wrapped is inner


def _ref_stack(plan, defense):
    """A FaultyStack over a plain or defended device; a defended one is
    parked 20 tRFC short of its tREFW rollover so bursts cross it."""
    device = make_device()
    if defense is None:
        return FaultyStack(device, plan)
    controller = (Graphene(threshold=600, entries=8)
                  if defense == "Graphene" else BlockHammer())
    defended = DefendedDevice(device, controller)
    defended.hammer(RowAddress(0, 0, 0, 5000), 40)
    timings = device.timings
    device.wait(timings.t_refw - 20 * timings.t_rfc - device.now_ns)
    return FaultyStack(defended, plan)


def _ref_snapshot(stack):
    snapshot = {"counter": stack._counter, "events": list(stack.events),
                "digest": stack.schedule_digest(), "now": stack.now_ns,
                "stats": stack.stats}
    if isinstance(stack.wrapped, DefendedDevice):
        snapshot["window"] = stack.wrapped._window_start_ns
        snapshot["controller"] = stack.wrapped.controller.stats
    return snapshot


def _issue_refs(stack, count, burst):
    """Issue ``count`` REFs; returns whether the platform hung."""
    try:
        if burst:
            stack.refresh_burst(0, 0, count)
        else:
            for __ in range(count):
                stack.refresh(0, 0)
    except PlatformHangError:
        return True
    return False


class TestRefreshBurst:
    def test_fault_layer_defines_its_own_burst(self):
        # Reached through __getattr__, the wrapped device's burst would
        # skip every fault draw.
        assert "refresh_burst" in vars(FaultyStack)
        assert "clean_ref_prefix" in vars(FaultyStack)

    def test_burst_follows_the_fault_schedule(self):
        plan = FaultPlan(seed=3, drop_rate=0.05, ghost_rate=0.05)
        stack = FaultyStack(make_device(), plan)
        stack.refresh_burst(0, 0, 400)
        faults = [event.fault for event in stack.events]
        assert "drop" in faults and "ghost" in faults
        assert stack._counter == 400
        assert stack.stats.refs == (400 - faults.count("drop")
                                    + faults.count("ghost"))

    def test_clean_prefix_stops_at_first_fault(self):
        plan = FaultPlan(seed=3, drop_rate=0.05)
        stack = FaultyStack(make_device(), plan)
        clean = stack.clean_ref_prefix(400)
        indices = np.arange(1, 401)
        first_hit = int(np.flatnonzero(plan.drop_mask(indices))[0])
        assert clean == first_hit
        assert stack._counter == 0  # classification issues nothing

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 20),
           drop=st.floats(0.0, 0.05), ghost=st.floats(0.0, 0.05),
           stall=st.floats(0.0, 0.05),
           hang=st.sampled_from([0.0, 0.0, 0.002, 0.01]),
           count=st.integers(0, 400),
           defense=st.sampled_from([None, "Graphene", "BlockHammer"]))
    def test_burst_equals_scalar_refs(self, seed, drop, ghost, stall, hang,
                                      count, defense):
        plan = FaultPlan(seed=seed, drop_rate=drop, ghost_rate=ghost,
                         stall_rate=stall, stall_seconds=0.0,
                         hang_rate=hang)
        scalar = _ref_stack(plan, defense)
        burst = _ref_stack(plan, defense)
        hung = _issue_refs(scalar, count, burst=False)
        assert _issue_refs(burst, count, burst=True) == hung
        assert _ref_snapshot(burst) == _ref_snapshot(scalar)


class TestJitterLookahead:
    """``_jitter_ns`` reads a fault schedule that classifies whole
    counter windows with the vectorized fault rule; every decision must
    equal the per-counter scalar draw."""

    #: Dense jitter; seed 992 hits counters 2W and W+1 (W = window
    #: width), so a window bound off by one either way misses a hit.
    PLAN = FaultPlan(seed=992, act_jitter_rate=0.05, act_jitter_ns=3.0)

    def test_seed_puts_hits_on_block_edges(self):
        width = _WINDOW
        rate = self.PLAN.act_jitter_rate
        assert self.PLAN.sampler_hits(2 * width, TAG_JITTER, rate)
        assert self.PLAN.sampler_hits(width + 1, TAG_JITTER, rate)

    @staticmethod
    def _ops(width, blocks):
        """ACT/HAMMER commands on every counter near a block edge,
        REF bursts and counter jumps elsewhere, across ``blocks``."""
        rng = np.random.default_rng(5)
        counter = 0
        ops = []
        while counter <= blocks * width + 8:
            to_edge = -counter % width
            choice = int(rng.integers(8)) if to_edge > 48 else 0
            if choice == 6:
                step = int(rng.integers(4, 40))
                ops.append(("burst", step))
            elif choice == 7:
                step = int(rng.integers(1, 40))
                ops.append(("skip", step))
            elif choice == 5:
                step = 2  # ACT, then its PRE
                ops.append(("act", step))
            else:
                step = 1
                ops.append(("hammer", step))
            counter += step
        return ops

    def _reference(self, ops):
        """Scalar replay: per-counter draws on a plain device."""
        plan = self.PLAN
        device = make_device()
        events = []
        counter = 0

        def jitter(command):
            if not plan.sampler_hits(counter, TAG_JITTER,
                                     plan.act_jitter_rate):
                return 0.0
            value = plan.act_jitter_ns * uniform_for(plan.seed, TAG_JITTER,
                                                     counter, 1)
            events.append(FaultEvent(counter, "jitter", command,
                                     (int(round(value * 1000)),)))
            return value

        for kind, step in ops:
            if kind == "hammer":
                counter += 1
                device.hammer(ROW, 2, device.timings.t_ras
                              + jitter("HAMMER"))
            elif kind == "act":
                counter += 1
                device.wait(jitter("ACT"))
                device.activate(RowAddress(0, 0, 1, 200))
                counter += 1
                device.precharge(0, 0, 1)
            elif kind == "burst":
                counter += step
                device.refresh_burst(0, 0, step)
            else:
                counter += step
        return events, device.now_ns

    def test_matches_per_counter_draws(self):
        width = _WINDOW
        ops = self._ops(width, blocks=3)
        stack = FaultyStack(make_device(), self.PLAN)
        for kind, step in ops:
            if kind == "hammer":
                stack.hammer(ROW, 2)
            elif kind == "act":
                stack.activate(RowAddress(0, 0, 1, 200))
                stack.precharge(0, 0, 1)
            elif kind == "burst":
                stack.refresh_burst(0, 0, step)
            else:
                stack.advance_counter(step)
        assert stack._counter > 3 * width
        events, now_ns = self._reference(ops)
        expected = FaultyStack(make_device(), self.PLAN)
        expected.events = events
        assert {event.index for event in events} >= {width + 1, 2 * width}
        assert stack.events == events
        assert stack.schedule_digest() == expected.schedule_digest()
        assert stack.now_ns == now_ns
