"""Deliberately seeded engine bugs (mutation testing for the fuzzer).

A differential fuzzer that has never caught a bug is unfalsifiable.
Each mutation here monkeypatches one engine with a realistic defect;
``python -m repro.fuzz --mutate NAME`` runs the campaign with the
defect active and succeeds only if the harness catches it and shrinks
it to a minimal reproducer.  CI runs one mutation per smoke job, so
"the fuzzer can actually detect an engine divergence" is itself a
tested property.

Mutations:

- ``clock-skew`` — the compiled executor leaks 1 ns of extra device
  time per program (the classic epoch-replay accounting bug),
- ``lint-blind`` — the streaming checker stops reporting P001, so the
  online findings no longer predict the device's ``TimingError``,
- ``lost-faults`` — the compiled executor classifies every epoch
  window as clean, silently skipping injected read-path faults,
- ``stale-restore`` — while the compiled executor replays an epoch
  span, every row restore stamps the row's retention clock 1 ns late.
  Both engines restore rows through the device's one kernel, so the
  differential can only see *when* the replay calls it; this checks
  that it does.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Dict, Iterator

import numpy as np

MUTATIONS = ("clock-skew", "lint-blind", "lost-faults", "stale-restore")


@contextlib.contextmanager
def _patched(owner: Any, name: str, value: Any) -> Iterator[None]:
    original = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, original)


def _clock_skew() -> "contextlib.AbstractContextManager[None]":
    from repro.bender.compile import PlanExecutor

    original = PlanExecutor.run

    def buggy_run(self: Any, program: Any) -> Any:
        result = original(self, program)
        # Leak time on the bare device (below the fault layer, so the
        # injected bug does not perturb the fault schedule itself).
        inner = getattr(self.device, "wrapped", self.device)
        inner.wait(1.0)
        return result

    return _patched(PlanExecutor, "run", buggy_run)


def _lint_blind() -> "contextlib.AbstractContextManager[None]":
    from repro.lint.stream import TimingChecker

    original = TimingChecker.report

    def blind_report(self: Any, rule_id: str, message: str,
                     path: str) -> None:
        if rule_id == "P001":
            return
        original(self, rule_id, message, path)

    return _patched(TimingChecker, "report", blind_report)


def _lost_faults() -> "contextlib.AbstractContextManager[None]":
    import repro.bender.compile as compile_module

    def clean_mask(plan: Any, base_counter: int, body: Any,
                   repeats: int) -> np.ndarray:
        return np.zeros(repeats, dtype=bool)

    return _patched(compile_module, "dirty_window_mask", clean_mask)


def _stale_restore() -> "contextlib.AbstractContextManager[None]":
    from repro.bender.compile import PlanExecutor
    from repro.dram.device import HBM2Stack

    restore = HBM2Stack._restore
    replay = PlanExecutor._replay_span

    def late_restore(self: Any, physical: Any, state: Any, now: float,
                     ref_time: float) -> int:
        flips = restore(self, physical, state, now, ref_time)
        state.restored_at += 1.0
        return flips

    def buggy_replay(self: Any, context: Any, span: int) -> None:
        with _patched(HBM2Stack, "_restore", late_restore):
            replay(self, context, span)

    return _patched(PlanExecutor, "_replay_span", buggy_replay)


_FACTORIES: Dict[str, Callable[
    [], "contextlib.AbstractContextManager[None]"]] = {
    "clock-skew": _clock_skew,
    "lint-blind": _lint_blind,
    "lost-faults": _lost_faults,
    "stale-restore": _stale_restore,
}


def seeded_bug(name: str) -> "contextlib.AbstractContextManager[None]":
    """Context manager activating one named engine defect."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown mutation {name!r}; known: {', '.join(MUTATIONS)}"
        ) from None
    return factory()
