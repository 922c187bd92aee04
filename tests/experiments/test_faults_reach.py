"""A heavy fault plan must bite the raw measurements of the chaos ids.

The ``chaos`` benchmark runs sec7, fig14, ext-temperature and
ext-defenses under a device fault plan.  A plan that never reached the
device would leave those runs standing and their reports unchanged, so
each test here runs one id clean and under a heavy plan, and requires
both that faults fired and that the raw measurements moved.
ext-temperature's search is covered by ``TestFaultsReachHcFirst`` in
``test_extensions.py``.  Each id runs at 0.01, where every population
it sizes from the scale is clamped to its minimum.
"""

import pytest

from repro.errors import HbmSimError, ProbeError
from repro.experiments.registry import run_experiment
from repro.faults import FaultPlan, FaultyStack, clear_plan, install_plan


def attack_flips(data):
    """ext-defenses' attack bitflips per defense (the benign replay
    runs on a bare device)."""
    return {name: (row["double_sided_flips"], row["rowpress_flips"])
            for name, row in data.items()}


CASES = [
    # The retention side channel reads rows to see which were
    # refreshed; at 5% the findings move, at 90% no probe site survives.
    ("sec7", FaultPlan(seed=7, read_flip_rate=0.05), lambda data: data),
    # The exact validation reads its victim once per attack: two RDs.
    ("fig14", FaultPlan(seed=7, read_flip_rate=0.9),
     lambda data: data["exact_validation"]),
    ("ext-defenses", FaultPlan(seed=7, read_flip_rate=0.9), attack_flips),
]


@pytest.mark.parametrize("experiment_id,plan,raw", CASES,
                         ids=[case[0] for case in CASES])
def test_heavy_read_flips_move_raw_measurements(monkeypatch, experiment_id,
                                                plan, raw):
    monkeypatch.delenv("HBMSIM_FAULTS", raising=False)
    stacks = []
    init = FaultyStack.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        stacks.append(self)

    monkeypatch.setattr(FaultyStack, "__init__", recording_init)

    clean = raw(run_experiment(experiment_id, 0.01).data)
    assert not stacks
    install_plan(plan)
    try:
        faulted = raw(run_experiment(experiment_id, 0.01).data)
    finally:
        clear_plan()
    events = [event for stack in stacks for event in stack.events]
    assert events, f"no fault reached {experiment_id}"
    assert {event.fault for event in events} == {"rd-flip"}
    assert faulted != clean


def test_sec7_without_a_probe_site_raises_a_typed_error(monkeypatch):
    """At 90% read flips no retention profile survives, so no probe
    site does: sec7 fails with the simulator's own error type, which
    callers of the original ``LookupError`` still catch."""
    monkeypatch.delenv("HBMSIM_FAULTS", raising=False)
    install_plan(FaultPlan(seed=7, read_flip_rate=0.9))
    try:
        with pytest.raises(ProbeError, match="side-channel") as raised:
            run_experiment("sec7", 0.01)
    finally:
        clear_plan()
    assert isinstance(raised.value, LookupError)
    assert isinstance(raised.value, HbmSimError)
