"""Property tests for the one per-command fault rule.

:meth:`FaultPlan.command_faults` is the vectorized form of the table
"which fault does a command of kind K draw at counter i" (stall and
hang on any command, drop on DROPPABLE kinds, ghost on GHOSTABLE kinds,
jitter on ACT/HAMMER).  The compiler's window mask, the session's probe
windows and the injector's fault schedule all read it, so it must
agree with the decisions the scalar :meth:`FaultyStack._platform` and
:meth:`FaultyStack._jitter_ns` make, command by command.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.device import HBM2Stack
from repro.dram.seeding import uniform_for
from repro.errors import PlatformHangError
from repro.faults.injector import FaultyStack
from repro.faults.plan import TAG_JITTER, FaultPlan

KINDS = ("ACT", "PRE", "WR", "RD", "REF", "WAIT", "HAMMER")
FAULTS = ("stall", "hang", "drop", "ghost", "jitter")
#: The kinds whose injector methods (``activate``, ``hammer``) follow
#: ``_platform`` with a ``_jitter_ns`` draw.
JITTERED = ("ACT", "HAMMER")

_rate = st.sampled_from([0.0, 0.05, 0.3, 0.7])


@st.composite
def _plans(draw):
    return FaultPlan(seed=draw(st.integers(min_value=0, max_value=2**31)),
                     stall_rate=draw(_rate), stall_seconds=0.0,
                     hang_rate=draw(st.sampled_from([0.0, 0.05, 0.3])),
                     drop_rate=draw(_rate), ghost_rate=draw(_rate),
                     act_jitter_rate=draw(_rate),
                     act_jitter_ns=draw(st.sampled_from([0.0, 3.0])))


def _scalar_decisions(stack, kind, index):
    """The faults the scalar injector fires for ``kind`` at ``index``."""
    stack._counter = index - 1
    stack.events = []
    try:
        issued, __ = stack._platform(kind)
    except PlatformHangError:
        issued = None
    if issued is not None and kind in JITTERED:
        stack._jitter_ns(issued, kind)
    return {event.fault for event in stack.events}


class TestRuleAgreesWithScalar:
    @given(plan=_plans(),
           base=st.integers(min_value=0, max_value=10**9),
           span=st.integers(min_value=1, max_value=24))
    @settings(max_examples=60, deadline=None)
    def test_every_kind_matches_platform_and_jitter(self, plan, base,
                                                    span):
        stack = FaultyStack(HBM2Stack(), plan)
        indices = np.arange(base + 1, base + span + 1, dtype=np.int64)
        for kind in KINDS:
            faults = plan.command_faults(kind, indices)
            for position, index in enumerate(indices.tolist()):
                rule = {name for name, mask in zip(FAULTS, faults)
                        if mask[position]}
                assert rule == _scalar_decisions(stack, kind, index), \
                    f"{kind} at counter {index}"
                # The injector skips classifying a class with no fault.
                assert rule <= plan.kind_faults(kind)
                # Independent of the injector's fault schedule, which is
                # itself built from the rule.
                jitter = ("hang" not in rule and kind in JITTERED
                          and bool(plan.act_jitter_ns)
                          and uniform_for(plan.seed, TAG_JITTER, index)
                          < plan.act_jitter_rate)
                assert ("jitter" in rule) == jitter

    @given(plan=_plans(),
           base=st.integers(min_value=0, max_value=10**6),
           windows=st.lists(st.lists(st.sampled_from(KINDS), max_size=6),
                            min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_windows_reduce_the_per_command_rule(self, plan, base,
                                                 windows):
        kinds = [kind for window in windows for kind in window]
        lengths = [len(window) for window in windows]
        per_window = plan.classify_probe_windows(base, kinds, lengths)
        per_command = plan.command_faults(
            kinds, np.arange(base + 1, base + len(kinds) + 1))
        start = 0
        for k, length in enumerate(lengths):
            for name, window_mask, command_mask in zip(
                    FAULTS, per_window, per_command):
                assert bool(window_mask[k]) \
                    == bool(command_mask[start:start + length].any()), \
                    f"window {k} {name}"
            start += length
