"""The injector's fault schedule against the per-counter fault rule.

:class:`~repro.faults.injector.FaultyStack` answers "is the next HAMMER
clean", "how many of the next REFs are clean" and "does this ACT or
HAMMER draw a jitter" from one schedule per command class, which
classifies aligned counter windows with :meth:`FaultPlan.command_faults`
once each.  Every answer must equal the rule evaluated at exactly the
counters asked about, including across window edges, and the schedule
must classify no window twice.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chips.profiles import make_chip
from repro.defenses.evaluate import burst_double_sided, defended_session
from repro.dram.device import HBM2Stack
from repro.dram.geometry import RowAddress
from repro.faults import FaultPlan, FaultyStack, clear_plan, install_plan
from repro.faults.injector import _WINDOW

#: The CI chaos plan (the ``chaos`` benchmark's device faults).
CI_PLAN = FaultPlan(seed=7, read_flip_rate=0.001, drop_rate=0.0002,
                    act_jitter_rate=0.0005, act_jitter_ns=3.0)

_rate = st.sampled_from([0.0, 0.002, 0.05, 0.3])


@st.composite
def _plans(draw):
    return FaultPlan(seed=draw(st.integers(0, 2 ** 31)),
                     stall_rate=draw(_rate), stall_seconds=0.0,
                     hang_rate=draw(st.sampled_from([0.0, 0.002])),
                     drop_rate=draw(_rate), ghost_rate=draw(_rate),
                     act_jitter_rate=draw(_rate),
                     act_jitter_ns=draw(st.sampled_from([0.0, 3.0])),
                     read_flip_rate=draw(st.sampled_from([0.0, 0.5])))


#: One reader call: what to ask, then how far to move the counter.
_ops = st.tuples(
    st.sampled_from(["hammer", "take-hammer", "ref", "take-ref",
                     "prefix", "jitter"]),
    st.integers(1, 3 * _WINDOW // 2), st.integers(0, 40))


def _rule(plan, kind, counters):
    return plan.command_faults(kind, np.asarray(counters, dtype=np.int64))


class _CountingPlan:
    """Counts :meth:`FaultPlan.command_faults` calls and the counters
    each classifies, keyed by command kind."""

    def __init__(self, monkeypatch):
        self.calls = []
        original = FaultPlan.command_faults

        def counted(plan, kinds, indices):
            indices = np.asarray(indices, dtype=np.int64)
            self.calls.append((str(kinds), indices.copy()))
            return original(plan, kinds, indices)

        monkeypatch.setattr(FaultPlan, "command_faults", counted)

    def counters(self, kind):
        return [indices for name, indices in self.calls if name == kind]


class TestReadersFollowTheRule:
    @settings(max_examples=60, deadline=None)
    @given(plan=_plans(), start=st.integers(0, 3),
           lead=st.integers(0, 40), ops=st.lists(_ops, max_size=25))
    def test_readers_equal_the_per_counter_rule(self, plan, start, lead,
                                                ops):
        stack = FaultyStack(HBM2Stack(), plan)
        # Start a few counters before a window edge.
        stack.advance_counter(max(0, start * _WINDOW - lead))
        for op, limit, skip in ops:
            index = stack._counter + 1
            if op in ("hammer", "take-hammer"):
                clean = not _rule(plan, "HAMMER", [index]).any()[0]
                if op == "hammer":
                    assert stack.clean_hammer() == clean
                else:
                    assert stack.take_clean_hammer() == clean
                    assert stack._counter == index - (not clean)
            elif op in ("ref", "take-ref"):
                clean = not _rule(plan, "REF", [index]).any()[0]
                if op == "ref":
                    assert (stack.clean_ref_prefix(1) == 1) == clean
                else:
                    assert stack.take_clean_ref() == clean
                    assert stack._counter == index - (not clean)
            elif op == "prefix":
                hits = _rule(plan, "REF",
                             np.arange(index, index + limit)).any()
                expected = int(hits.argmax()) if hits.any() else limit
                assert stack.clean_ref_prefix(limit) == expected
            else:
                hit = bool(_rule(plan, "HAMMER", [index]).jitter[0])
                assert (stack._jitter_ns(index, "HAMMER") != 0.0) == hit
            stack.advance_counter(skip)

    @settings(max_examples=30, deadline=None)
    @given(plan=_plans(), edge=st.integers(1, 3),
           offset=st.integers(-3, 3))
    def test_prefix_across_a_window_edge(self, plan, edge, offset):
        """A prefix asked from just before an edge to just after it."""
        stack = FaultyStack(HBM2Stack(), plan)
        stack.advance_counter(edge * _WINDOW + offset - 4)
        index = stack._counter + 1
        hits = _rule(plan, "REF", np.arange(index, index + 8)).any()
        expected = int(hits.argmax()) if hits.any() else 8
        assert stack.clean_ref_prefix(8) == expected


class TestBoundedClassification:
    @pytest.mark.parametrize("plan", [
        FaultPlan(seed=7, read_flip_rate=0.5),
        FaultPlan(seed=7, act_jitter_rate=0.5, act_jitter_ns=3.0),
    ], ids=["read-flips-only", "jitter-only"])
    def test_class_without_a_fault_classifies_nothing(self, monkeypatch,
                                                      plan):
        counting = _CountingPlan(monkeypatch)
        stack = FaultyStack(HBM2Stack(), plan)
        assert stack.clean_ref_prefix(10 ** 6) == 10 ** 6
        assert stack.take_clean_ref()
        assert not counting.counters("REF")

    def test_rare_fault_classifies_one_rounded_span(self, monkeypatch):
        counting = _CountingPlan(monkeypatch)
        stack = FaultyStack(HBM2Stack(), FaultPlan(seed=7, drop_rate=1e-9))
        assert stack.clean_ref_prefix(10 ** 6) == 10 ** 6
        assert stack.clean_ref_prefix(10 ** 6) == 10 ** 6  # no redraw
        (indices,) = counting.counters("REF")
        assert indices[0] == 1
        assert indices.size == -(-10 ** 6 // _WINDOW) * _WINDOW

    def test_hammer_query_classifies_one_window(self, monkeypatch):
        counting = _CountingPlan(monkeypatch)
        stack = FaultyStack(HBM2Stack(), CI_PLAN)
        stack.advance_counter(5 * _WINDOW + 17)
        stack.clean_hammer()
        (indices,) = counting.counters("HAMMER")
        assert (indices[0], indices[-1]) == (5 * _WINDOW + 1, 6 * _WINDOW)


class TestClassificationCount:
    """A CI-chaos double-sided burst classifies each window of each
    class once: a return to per-catch-up redraws fails here."""

    def test_paced_burst_classifies_each_window_once(self, monkeypatch):
        monkeypatch.delenv("HBMSIM_FAULTS", raising=False)
        chip = make_chip(0)
        install_plan(CI_PLAN)
        try:
            session = defended_session(chip, None)
            stack = session.device
            assert type(stack) is FaultyStack
            counting = _CountingPlan(monkeypatch)
            burst_double_sided(session, RowAddress(0, 0, 0, 5000))
        finally:
            clear_plan()
        windows = -(-stack._counter // _WINDOW)
        assert windows >= 4  # the burst spans several windows
        refs = counting.counters("REF")
        hammers = counting.counters("HAMMER")
        assert len(counting.calls) == len(refs) + len(hammers)
        # One call per window per class: REF, HAMMER and jitter.
        assert len(refs) <= windows
        assert len(hammers) <= 2 * windows
        for indices in refs + hammers:
            assert indices[0] % _WINDOW == 1
            assert indices[-1] % _WINDOW == 0
        ref_counters = np.concatenate(refs)
        assert np.unique(ref_counters).size == ref_counters.size
        __, seen = np.unique(np.concatenate(hammers), return_counts=True)
        assert seen.max() <= 2
