"""HBM2 command set.

The paper's testing infrastructure issues raw DRAM commands (ACT, PRE, RD,
WR, REF) with precise timing control.  We mirror that command vocabulary,
plus two test-platform conveniences that DRAM Bender programs express as
loops and that our interpreter may fuse for speed:

- ``HAMMER``: ``count`` back-to-back ACT/PRE cycles to one row with a fixed
  on-time (semantically identical to the unrolled loop),
- ``WAIT``: advance time without issuing commands (used by retention and
  RowPress experiments).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np


class CommandKind(enum.Enum):
    """DRAM command opcode."""

    ACT = "ACT"
    PRE = "PRE"
    RD = "RD"
    WR = "WR"
    REF = "REF"
    NOP = "NOP"
    HAMMER = "HAMMER"
    WAIT = "WAIT"


@dataclass
class Command:
    """One command addressed to a pseudo channel of an HBM2 channel.

    Only the fields relevant to the command kind need to be set; the device
    validates the rest.  ``data`` carries a full row image for WR and is
    filled in by the device for RD.
    """

    kind: CommandKind
    channel: int = 0
    pseudo_channel: int = 0
    bank: int = 0
    row: int = 0
    #: Per-side activation count for HAMMER.
    count: int = 1
    #: Aggressor on-time for HAMMER, or explicit open time for ACT/PRE pairs.
    t_on: Optional[float] = None
    #: Wait duration for WAIT (ns).
    duration: float = 0.0
    #: Row image (uint8 array) for WR; populated on RD.
    data: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be non-negative")
        if self.duration < 0:
            raise ValueError("duration must be non-negative")

    @property
    def is_row_command(self) -> bool:
        """Whether the command addresses a specific row."""
        return self.kind in (CommandKind.ACT, CommandKind.HAMMER,
                             CommandKind.WR, CommandKind.RD)


def act(channel: int, pseudo_channel: int, bank: int, row: int,
        t_on: Optional[float] = None) -> Command:
    """Build an activate command."""
    return Command(CommandKind.ACT, channel, pseudo_channel, bank, row,
                   t_on=t_on)


def pre(channel: int, pseudo_channel: int, bank: int) -> Command:
    """Build a precharge command."""
    return Command(CommandKind.PRE, channel, pseudo_channel, bank)


def rd(channel: int, pseudo_channel: int, bank: int, row: int) -> Command:
    """Build a read command (whole-row readback, as test platforms do)."""
    return Command(CommandKind.RD, channel, pseudo_channel, bank, row)


def wr(channel: int, pseudo_channel: int, bank: int, row: int,
       data: np.ndarray) -> Command:
    """Build a write command carrying a full row image."""
    return Command(CommandKind.WR, channel, pseudo_channel, bank, row,
                   data=data)


def ref(channel: int, pseudo_channel: int) -> Command:
    """Build a periodic refresh command for a pseudo channel."""
    return Command(CommandKind.REF, channel, pseudo_channel)


def hammer(channel: int, pseudo_channel: int, bank: int, row: int,
           count: int, t_on: Optional[float] = None) -> Command:
    """Build a fused hammer command (``count`` ACT/PRE cycles)."""
    return Command(CommandKind.HAMMER, channel, pseudo_channel, bank, row,
                   count=count, t_on=t_on)


def wait(duration: float) -> Command:
    """Build a wait command advancing device time by ``duration`` ns."""
    return Command(CommandKind.WAIT, duration=duration)
