"""Greedy failure shrinking (delta debugging for SoftBender programs).

Given a failing :class:`~repro.fuzz.generator.FuzzCase` and a predicate
that re-runs the differential harness, repeatedly applies the smallest
behavior-shrinking transformations that keep the failure alive:

- delete one instruction (at any nesting depth),
- unwrap a loop into a single pass of its body,
- halve a loop's iteration count (toward 1),
- halve a HAMMER's activation count / a WAIT's duration,
- drop the fault plan, re-enable/disable nothing else,
- turn TRR off.

Each accepted transformation restarts the scan, so the result is a
local minimum: no single remaining transformation preserves the
failure.  Greedy and deterministic — the same failure always shrinks to
the same reproducer.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterator, List, Optional

from repro.bender.program import Instruction, Loop, TestProgram
from repro.dram.commands import Command, CommandKind
from repro.fuzz.generator import FuzzCase

#: Upper bound on accepted transformations (defensive; generated
#: programs are far smaller).
MAX_STEPS = 10_000


def _copy_instructions(instructions: List[Instruction]
                       ) -> List[Instruction]:
    copied: List[Instruction] = []
    for instruction in instructions:
        if isinstance(instruction, Loop):
            copied.append(Loop(instruction.count,
                               _copy_instructions(instruction.body)))
        else:
            copied.append(instruction)
    return copied


def _with_instructions(program: TestProgram,
                       instructions: List[Instruction]) -> TestProgram:
    shrunk = TestProgram(program.name)
    shrunk.instructions = instructions
    return shrunk


def _variants(instructions: List[Instruction]
              ) -> Iterator[List[Instruction]]:
    """All single-step reductions of an instruction list."""
    for index, instruction in enumerate(instructions):
        # 1. delete the instruction outright
        yield (_copy_instructions(instructions[:index])
               + _copy_instructions(instructions[index + 1:]))
        if isinstance(instruction, Loop):
            # 2. unwrap: one pass of the body, no loop node
            yield (_copy_instructions(instructions[:index])
                   + _copy_instructions(instruction.body)
                   + _copy_instructions(instructions[index + 1:]))
            # 3. halve the iteration count (toward 1)
            if instruction.count > 1:
                halved = _copy_instructions(instructions)
                loop = halved[index]
                assert isinstance(loop, Loop)
                loop.count = max(1, instruction.count // 2)
                yield halved
            # 4. recurse into the body
            for body in _variants(instruction.body):
                nested = _copy_instructions(instructions)
                nested[index] = Loop(instruction.count, body)
                yield nested
        elif isinstance(instruction, Command):
            if instruction.kind is CommandKind.HAMMER \
                    and instruction.count > 1:
                reduced = _copy_instructions(instructions)
                reduced[index] = replace(instruction,
                                         count=instruction.count // 2)
                yield reduced
            if instruction.kind is CommandKind.WAIT \
                    and instruction.duration > 1.0:
                reduced = _copy_instructions(instructions)
                reduced[index] = replace(instruction,
                                         duration=instruction.duration / 2)
                yield reduced


def _case_variants(case: FuzzCase) -> Iterator[FuzzCase]:
    """Context reductions first (cheapest to rule out), then program."""
    if case.fault_plan is not None:
        yield replace(case, fault_plan=None)
    if case.trr_enabled:
        yield replace(case, trr_enabled=False)
    for instructions in _variants(case.program.instructions):
        yield case.with_program(
            _with_instructions(case.program, instructions))


def shrink(case: FuzzCase, still_fails: Callable[[FuzzCase], bool],
           max_steps: int = MAX_STEPS) -> FuzzCase:
    """Greedily minimize ``case`` while ``still_fails`` holds.

    ``still_fails(case)`` must be True on entry; the returned case
    still fails and no single further reduction keeps it failing.
    """
    current = case
    for __ in range(max_steps):
        accepted: Optional[FuzzCase] = None
        for candidate in _case_variants(current):
            if still_fails(candidate):
                accepted = candidate
                break
        if accepted is None:
            return current
        current = accepted
    return current
