"""SoftBender program assembler.

DRAM Bender programs are written in a small assembly-like language and
compiled for the FPGA's instruction SoC.  SoftBender accepts the same
style of text program and assembles it into a
:class:`~repro.bender.program.TestProgram`:

.. code-block:: text

    ; initialize the victim and hammer it double-sided
    WR   0 0 0 5000 0x55
    WR   0 0 0 4999 0xAA
    WR   0 0 0 5001 0xAA
    LOOP 1000
      HAMMER 0 0 0 4999 32
      HAMMER 0 0 0 5001 32
    ENDLOOP
    RD   0 0 0 5000 tag=victim

Mnemonics: ``ACT ch pc bank row``, ``PRE ch pc bank``, ``REF ch pc``,
``WR ch pc bank row fill_byte``, ``RD ch pc bank row [tag=name]``,
``HAMMER ch pc bank row count [t_on_ns]``, ``WAIT ns``, ``NOP``,
``LOOP n`` / ``ENDLOOP`` (nestable).  ``;`` and ``#`` start comments.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.bender.program import Loop, TestProgram, tagged_read
from repro.dram import commands as cmd
from repro.dram.geometry import RowAddress


class AssemblyError(Exception):
    """A malformed SoftBender assembly program."""

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _parse_int(token: str, line_number: int, label: str) -> int:
    try:
        return int(token, 0)  # accepts decimal and 0x-prefixed hex
    except ValueError:
        raise AssemblyError(line_number,
                            f"invalid {label} {token!r}") from None


def _parse_float(token: str, line_number: int, label: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise AssemblyError(line_number,
                            f"invalid {label} {token!r}") from None


def _require(tokens: List[str], count: int, line_number: int,
             mnemonic: str) -> None:
    if len(tokens) != count:
        raise AssemblyError(
            line_number,
            f"{mnemonic} expects {count - 1} operand(s), got "
            f"{len(tokens) - 1}")


def assemble(source: str, name: str = "assembled",
             row_bytes: int = 1024) -> TestProgram:
    """Assemble a SoftBender text program."""
    program = TestProgram(name)
    # Stack of instruction lists: the top receives new instructions.
    stack: List[List] = [program.instructions]
    loop_lines: List[int] = []
    for line_number, raw_line in enumerate(source.splitlines(), start=1):
        line = raw_line.split(";")[0].split("#")[0].strip()
        if not line:
            continue
        tokens = line.split()
        mnemonic = tokens[0].upper()
        if mnemonic == "LOOP":
            _require(tokens, 2, line_number, "LOOP")
            count = _parse_int(tokens[1], line_number, "loop count")
            if count < 0:
                raise AssemblyError(line_number,
                                    "loop count must be non-negative")
            loop = Loop(count)
            stack[-1].append(loop)
            stack.append(loop.body)
            loop_lines.append(line_number)
            continue
        if mnemonic == "ENDLOOP":
            _require(tokens, 1, line_number, "ENDLOOP")
            if len(stack) == 1:
                raise AssemblyError(line_number,
                                    "ENDLOOP without matching LOOP")
            stack.pop()
            loop_lines.pop()
            continue
        stack[-1].append(_assemble_instruction(
            mnemonic, tokens, line_number, row_bytes))
    if len(stack) != 1:
        raise AssemblyError(loop_lines[-1],
                            "LOOP without matching ENDLOOP")
    return program


def _assemble_instruction(mnemonic: str, tokens: List[str],
                          line_number: int, row_bytes: int):
    if mnemonic == "NOP":
        _require(tokens, 1, line_number, "NOP")
        return cmd.Command(cmd.CommandKind.NOP)
    if mnemonic == "WAIT":
        _require(tokens, 2, line_number, "WAIT")
        duration = _parse_float(tokens[1], line_number, "duration")
        if duration < 0:
            raise AssemblyError(line_number, "WAIT must be non-negative")
        return cmd.wait(duration)
    if mnemonic == "REF":
        _require(tokens, 3, line_number, "REF")
        channel = _parse_int(tokens[1], line_number, "channel")
        pc = _parse_int(tokens[2], line_number, "pseudo channel")
        return cmd.ref(channel, pc)
    if mnemonic == "PRE":
        _require(tokens, 4, line_number, "PRE")
        channel, pc, bank = (_parse_int(t, line_number, "operand")
                             for t in tokens[1:4])
        return cmd.pre(channel, pc, bank)
    if mnemonic == "ACT":
        _require(tokens, 5, line_number, "ACT")
        channel, pc, bank, row = (_parse_int(t, line_number, "operand")
                                  for t in tokens[1:5])
        return cmd.act(channel, pc, bank, row)
    if mnemonic == "WR":
        _require(tokens, 6, line_number, "WR")
        channel, pc, bank, row = (_parse_int(t, line_number, "operand")
                                  for t in tokens[1:5])
        fill = _parse_int(tokens[5], line_number, "fill byte")
        if not 0 <= fill <= 0xFF:
            raise AssemblyError(line_number, "fill byte must be 8 bits")
        image = np.full(row_bytes, fill, dtype=np.uint8)
        return cmd.wr(channel, pc, bank, row, image)
    if mnemonic == "RD":
        if len(tokens) not in (5, 6):
            raise AssemblyError(line_number,
                                "RD expects 4 operands and optional "
                                "tag=name")
        channel, pc, bank, row = (_parse_int(t, line_number, "operand")
                                  for t in tokens[1:5])
        tag: Optional[str] = None
        if len(tokens) == 6:
            if not tokens[5].startswith("tag="):
                raise AssemblyError(line_number,
                                    "RD's 5th operand must be tag=name")
            tag = tokens[5][4:]
            if not tag:
                raise AssemblyError(line_number, "empty RD tag")
        if tag is not None:
            return tagged_read(RowAddress(channel, pc, bank, row), tag)
        return cmd.rd(channel, pc, bank, row)
    if mnemonic == "HAMMER":
        if len(tokens) not in (6, 7):
            raise AssemblyError(line_number,
                                "HAMMER expects 5 operands and optional "
                                "on-time")
        channel, pc, bank, row = (_parse_int(t, line_number, "operand")
                                  for t in tokens[1:5])
        count = _parse_int(tokens[5], line_number, "count")
        t_on = None
        if len(tokens) == 7:
            t_on = _parse_float(tokens[6], line_number, "on-time")
        return cmd.hammer(channel, pc, bank, row, count, t_on)
    raise AssemblyError(line_number, f"unknown mnemonic {mnemonic!r}")


def disassemble(program: TestProgram) -> str:
    """Render a :class:`TestProgram` back to assembly text.

    Round-trip guarantee (property-tested): ``assemble(disassemble(p))``
    produces the same command stream as ``p``.  WR rows must hold a
    uniform fill byte (the only kind the assembly language can express).
    """
    lines: List[str] = []
    _disassemble_into(program.instructions, lines, indent=0)
    return "\n".join(lines) + ("\n" if lines else "")


def _disassemble_into(instructions, lines: List[str], indent: int) -> None:
    pad = "  " * indent
    for instruction in instructions:
        if isinstance(instruction, Loop):
            lines.append(f"{pad}LOOP {instruction.count}")
            _disassemble_into(instruction.body, lines, indent + 1)
            lines.append(f"{pad}ENDLOOP")
            continue
        lines.append(pad + _render_command(instruction))


def _render_command(command) -> str:
    kind = command.kind
    if kind is cmd.CommandKind.NOP:
        return "NOP"
    if kind is cmd.CommandKind.WAIT:
        return f"WAIT {command.duration:.10g}"
    if kind is cmd.CommandKind.REF:
        return f"REF {command.channel} {command.pseudo_channel}"
    if kind is cmd.CommandKind.PRE:
        return (f"PRE {command.channel} {command.pseudo_channel} "
                f"{command.bank}")
    if kind is cmd.CommandKind.ACT:
        return (f"ACT {command.channel} {command.pseudo_channel} "
                f"{command.bank} {command.row}")
    if kind is cmd.CommandKind.RD:
        base = (f"RD {command.channel} {command.pseudo_channel} "
                f"{command.bank} {command.row}")
        tag = getattr(command, "tag", "")
        return f"{base} tag={tag}" if tag else base
    if kind is cmd.CommandKind.WR:
        data = command.data
        if data is None or data.size == 0 or not (data == data[0]).all():
            raise ValueError(
                "only uniform-fill WR rows can be disassembled")
        return (f"WR {command.channel} {command.pseudo_channel} "
                f"{command.bank} {command.row} 0x{int(data[0]):02X}")
    if kind is cmd.CommandKind.HAMMER:
        base = (f"HAMMER {command.channel} {command.pseudo_channel} "
                f"{command.bank} {command.row} {command.count}")
        if command.t_on is not None:
            return f"{base} {command.t_on:.10g}"
        return base
    raise ValueError(f"cannot disassemble command kind {kind}")
