"""Suite for the streaming checker (``repro.lint.stream``).

Contract under test: the offline batch verifier is *provably* a driver
over the streaming :class:`TimingChecker` — feeding a program's
instructions one at a time through a :class:`StreamingVerifier` (loop
extrapolation included) yields findings, command count and symbolic
clock bit-equal to :func:`verify_program`, for arbitrary
loop-structured programs.  Plus the streaming-specific surface: per-
command findings from :meth:`check`, idempotent :meth:`finish`,
:meth:`sync_clock`, and auto-refresh mode.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bender.program import Loop, TestProgram
from repro.dram import commands as cmd
from repro.dram.geometry import RowAddress
from repro.dram.timing import DEFAULT_TIMINGS
from repro.lint.protocol import verify_program
from repro.lint.stream import (StreamingVerifier, TimingChecker,
                               refreshed_pcs_of, static_count)

ROW_BYTES = 64  # lint never touches WR payloads; keep arrays tiny


# ----------------------------------------------------------------------
# Program strategy: loop-structured, conflict-prone
# ----------------------------------------------------------------------


def _commands():
    rows = st.sampled_from([100, 101, 200])
    banks = st.integers(0, 1)
    return st.one_of(
        st.builds(cmd.act, st.just(0), st.just(0), banks, rows),
        st.builds(cmd.pre, st.just(0), st.just(0), banks),
        st.builds(cmd.rd, st.just(0), st.just(0), banks, rows),
        st.builds(lambda b, r, f: cmd.wr(
            0, 0, b, r, np.full(ROW_BYTES, f, dtype=np.uint8)),
            banks, rows, st.integers(0, 255)),
        st.builds(cmd.hammer, st.just(0), st.just(0), banks, rows,
                  st.integers(0, 120),
                  st.one_of(st.none(), st.floats(10.0, 80.0))),
        st.builds(cmd.wait, st.floats(1.0, 4000.0)),
        st.builds(cmd.ref, st.just(0), st.just(0)),
    )


def _instructions(depth=2, max_trips=2500):
    base = _commands()
    if depth == 0:
        return base
    return st.one_of(
        base,
        st.builds(Loop, st.integers(0, max_trips),
                  st.lists(_instructions(depth - 1, max_trips),
                           min_size=1, max_size=4)))


def _programs(max_trips=2500):
    return st.lists(_instructions(max_trips=max_trips), min_size=0,
                    max_size=8).map(_to_program)


#: Trip-count cap for tests that unroll a program.  At most 8 top-level
#: instructions, 4-instruction bodies and two loop levels give
#: 8 * 4 * 4 * FLAT_MAX_TRIPS**2 = 46208 commands.
FLAT_MAX_TRIPS = 19
FLAT_MAX_COMMANDS = 50_000


def _to_program(instructions):
    program = TestProgram("stream-prop")
    program.instructions = list(instructions)
    return program


# ----------------------------------------------------------------------
# Batch == incremental streaming (the tentpole equivalence)
# ----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(_programs())
def test_incremental_feed_bit_equal_to_batch_verifier(program):
    batch = verify_program(program)
    verifier = StreamingVerifier(
        program.name,
        refreshed_pcs=refreshed_pcs_of(program.instructions))
    streamed = []
    for index, instruction in enumerate(program.instructions):
        streamed.extend(verifier.feed(instruction, str(index)))
    streamed.extend(verifier.finish())
    assert streamed == batch.findings
    assert verifier.checker.commands == batch.commands_checked
    assert verifier.checker.clock == batch.elapsed_ns


@settings(max_examples=150, deadline=None)
@given(_programs())
def test_extrapolated_command_count_matches_static(program):
    report = verify_program(program)
    assert report.commands_checked == program.static_command_count()


@settings(max_examples=60, deadline=None)
@given(_programs(max_trips=FLAT_MAX_TRIPS))
def test_flattened_stream_agrees_on_error_rules(program):
    """A fully flattened walk trips the same device-raising rules.

    Paths (and so dedup granularity, P004 segment boundaries) differ
    between the extrapolated and the flattened walk, but the *error*
    rules — the ones predicting a device ``TimingError`` — depend only
    on row-buffer state, which extrapolation preserves exactly.  The
    flattened walk costs one check per command, so its programs keep
    small trip counts.
    """
    assert program.static_command_count() <= FLAT_MAX_COMMANDS
    batch = verify_program(program)
    checker = TimingChecker(
        program.name,
        refreshed_pcs=refreshed_pcs_of(program.instructions))
    for command in program.flatten():
        checker.check(command)
    checker.finish()
    batch_errors = {f.rule for f in batch.findings
                    if f.severity == "error"}
    flat_errors = {f.rule for f in checker.findings
                   if f.severity == "error"}
    assert batch_errors == flat_errors


# ----------------------------------------------------------------------
# Streaming surface
# ----------------------------------------------------------------------


class TestTimingChecker:
    def test_check_returns_only_new_findings(self):
        checker = TimingChecker("t")
        assert checker.check(cmd.act(0, 0, 0, 100)) == []
        findings = checker.check(cmd.act(0, 0, 0, 101))
        assert [f.rule for f in findings] == ["P001"]
        # the cumulative list keeps everything
        assert [f.rule for f in checker.findings] == ["P001"]

    def test_default_paths_are_command_indices(self):
        checker = TimingChecker("t")
        checker.check(cmd.act(0, 0, 0, 100))
        findings = checker.check(cmd.act(0, 0, 0, 101))
        assert findings[0].location == "t@1"

    def test_finish_is_idempotent(self):
        checker = TimingChecker("t", refreshed_pcs={(0, 0)})
        checker.check(cmd.ref(0, 0))
        checker.sync_clock(50 * DEFAULT_TIMINGS.t_refi)
        first = checker.finish()
        assert [f.rule for f in first] == ["P006"]
        assert checker.finish() == []
        assert [f.rule for f in checker.findings] == ["P006"]

    def test_sync_clock_overrides_symbolic_time(self):
        checker = TimingChecker("t")
        checker.check(cmd.wait(100.0))
        assert checker.clock == 100.0
        checker.sync_clock(250.0)
        assert checker.clock == 250.0

    def test_auto_refresh_joins_at_first_ref(self):
        checker = TimingChecker("t")  # refreshed_pcs=None -> auto
        assert checker.refreshed_pcs == set()
        budget = DEFAULT_TIMINGS.activation_budget
        # Pre-REF activations are not charged against the budget.
        checker.check(cmd.hammer(0, 0, 0, 100, budget + 10))
        assert [f.rule for f in checker.findings] == []
        checker.check(cmd.ref(0, 0))
        assert checker.refreshed_pcs == {(0, 0)}
        checker.check(cmd.hammer(0, 0, 0, 100, budget + 10))
        assert [f.rule for f in checker.findings] == ["P004"]

    def test_precomputed_refresh_charges_from_first_command(self):
        budget = DEFAULT_TIMINGS.activation_budget
        checker = TimingChecker("t", refreshed_pcs={(0, 0)})
        checker.check(cmd.hammer(0, 0, 0, 100, budget + 10))
        assert [f.rule for f in checker.findings] == ["P004"]


class TestStaticCount:
    def test_matches_program_static_command_count(self):
        program = TestProgram("t")
        with program.loop(7) as body:
            body.hammer(RowAddress(0, 0, 0, 100), 3)
            body.refresh(0, 0)
        program.wait(10.0)
        assert static_count(program.instructions) \
            == program.static_command_count()
