"""Tests for the interpreter and host session."""

import numpy as np
import pytest

from repro.bender.host import BenderSession, RefreshWindowExceeded
from repro.bender.program import TestProgram
from repro.dram.batch import batch_enabled
from repro.dram.device import HBM2Stack
from repro.dram.geometry import RowAddress
from repro.faults import FaultPlan, FaultyStack, clear_plan, install_plan

ADDR = RowAddress(0, 0, 0, 100)


class TestInterpreter:
    def test_collects_tagged_reads(self, plain_session):
        program = TestProgram("p")
        program.write_row(ADDR, np.full(1024, 0xAA, dtype=np.uint8))
        program.read_row(ADDR, "victim")
        result = plain_session.run(program)
        assert np.array_equal(result.read("victim"),
                              np.full(1024, 0xAA, dtype=np.uint8))

    def test_repeated_tag_collects_all(self, plain_session):
        program = TestProgram("p")
        program.write_row(ADDR, np.zeros(1024, dtype=np.uint8))
        with program.loop(3) as body:
            body.read_row(ADDR, "r")
        result = plain_session.run(program)
        assert len(result.read_all("r")) == 3
        with pytest.raises(KeyError):
            result.read("r")  # ambiguous: 3 results

    def test_unknown_tag_raises(self, plain_session):
        result = plain_session.run(TestProgram("empty"))
        with pytest.raises(KeyError):
            result.read_all("nope")

    def test_statistics(self, plain_session):
        program = TestProgram("p")
        program.write_row(ADDR, np.zeros(1024, dtype=np.uint8))
        program.read_row(ADDR, "r")
        result = plain_session.run(program)
        assert result.commands_executed == 2
        assert result.elapsed_ns > 0


class TestRefreshWindowGuard:
    def test_within_window_passes(self, plain_session):
        plain_session.begin_refresh_window()
        plain_session.device.wait(10.0e6)
        plain_session.assert_within_refresh_window()

    def test_exceeding_window_raises(self, plain_session):
        plain_session.begin_refresh_window()
        plain_session.device.wait(33.0e6)
        with pytest.raises(RefreshWindowExceeded):
            plain_session.assert_within_refresh_window()

    def test_unstarted_window_raises(self, plain_session):
        with pytest.raises(RuntimeError):
            plain_session.assert_within_refresh_window()


class TestEngineGate:
    """``batching_active``: the one gate for replays that skip the
    command stream, and the ``HBMSIM_BATCH`` knob under it."""

    def test_plain_stack_batches_with_or_without_trr(self, session,
                                                     plain_session):
        assert session.device.trr_config.enabled
        assert not plain_session.device.trr_config.enabled
        assert session.batching_active()
        assert plain_session.batching_active()

    def test_faulty_stack_rejected(self, plain_device):
        wrapped = FaultyStack(plain_device, FaultPlan(seed=7))
        assert not BenderSession(wrapped).batching_active()

    def test_subclass_rejected_bare_or_wrapped(self):
        class Oddball(HBM2Stack):
            pass

        odd = Oddball()
        assert not BenderSession(odd).batching_active()
        wrapped = FaultyStack(odd, FaultPlan(seed=7))
        assert not BenderSession(wrapped).batching_active()

    def test_installed_plan_turns_gate_off(self, chip0):
        install_plan(FaultPlan(seed=7, drop_rate=0.01))
        try:
            faulted = BenderSession(chip0.make_device(),
                                    mapping=chip0.row_mapping())
            assert isinstance(faulted.device, FaultyStack)
            assert not faulted.batching_active()
        finally:
            clear_plan()
        assert BenderSession(chip0.make_device()).batching_active()

    def test_env_escape_hatch(self, session, monkeypatch):
        for value in ("0", "false", "no", "off"):
            monkeypatch.setenv("HBMSIM_BATCH", value)
            assert not batch_enabled()
            assert not session.batching_active()
        monkeypatch.setenv("HBMSIM_BATCH", "1")
        assert batch_enabled()
        assert session.batching_active()

    def test_env_unrecognized_warns_and_enables(self, monkeypatch):
        import warnings

        from repro.dram import batch as batch_module

        monkeypatch.setenv("HBMSIM_BATCH", "bogus-value")
        monkeypatch.setattr(batch_module, "_WARNED_VALUES", set())
        with pytest.warns(RuntimeWarning, match="HBMSIM_BATCH"):
            assert batch_enabled()
        # Warned once per distinct value, not per call.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert batch_enabled()


class TestMappingHelpers:
    def test_aggressors_of_uses_physical_adjacency(self, session, chip0):
        mapping = chip0.row_mapping()
        victim_physical = RowAddress(0, 0, 0, 5000)
        aggressors = session.aggressors_of(victim_physical)
        physical_rows = sorted(mapping.to_physical(a.row)
                               for a in aggressors)
        assert physical_rows == [4999, 5001]

    def test_bank_edge_victim_has_one_aggressor(self, session):
        assert len(session.aggressors_of(RowAddress(0, 0, 0, 0))) == 1

    def test_missing_mapping_raises(self, plain_device):
        session = BenderSession(plain_device)
        with pytest.raises(RuntimeError):
            session.aggressors_of(ADDR)

    def test_physical_roundtrip(self, session):
        physical = RowAddress(0, 0, 0, 5001)
        logical = session.logical_of_physical(physical)
        assert session.physical_of_logical(logical) == physical

    def test_physical_row_io(self, session):
        physical = RowAddress(0, 0, 0, 5000)
        image = np.full(1024, 0x5A, dtype=np.uint8)
        session.write_physical_row(physical, image)
        assert np.array_equal(session.read_physical_row(physical), image)
