"""Shared fixtures.

Chip profiles are session-scoped: ``make_chip`` hands out the process's
one calibrated profile per chip, whose row-population memos later tests
reuse.  Devices and sessions are function-scoped because they carry
mutable state.
"""

import numpy as np
import pytest

from repro.bender.host import BenderSession
from repro.chips.profiles import ChipProfile, all_chips, make_chip
from repro.dram.cell_model import CellPopulation
from repro.dram.device import HBM2Stack, UniformProfileProvider
from repro.dram.geometry import RowAddress


@pytest.fixture(scope="session")
def chip0() -> ChipProfile:
    """Chip 0: the TRR-equipped, temperature-controlled chip."""
    return make_chip(0)


@pytest.fixture(scope="session")
def chip4() -> ChipProfile:
    """Chip 4: the chip with the largest channel spread (Fig. 15's chip)."""
    return make_chip(4)


@pytest.fixture(scope="session")
def chip5() -> ChipProfile:
    """Chip 5: the least RowHammer-vulnerable chip by mean BER."""
    return make_chip(5)


@pytest.fixture(scope="session")
def chips():
    """All six calibrated chips."""
    return all_chips()


@pytest.fixture
def device(chip0) -> HBM2Stack:
    """A fresh Chip 0 device (TRR enabled, mapping installed)."""
    return chip0.make_device()


@pytest.fixture
def session(chip0, device) -> BenderSession:
    """A host session on Chip 0 with ground-truth mapping injected."""
    return BenderSession(device, mapping=chip0.row_mapping())


@pytest.fixture
def plain_device() -> HBM2Stack:
    """A device with uniform cell population, identity mapping, no TRR."""
    return HBM2Stack(profile_provider=UniformProfileProvider(
        CellPopulation(f_weak=0.014, mu_weak=5.0)))


@pytest.fixture
def plain_session(plain_device) -> BenderSession:
    """Session on the uniform device (mapping = identity)."""
    from repro.dram.row_mapping import IdentityMapping

    return BenderSession(plain_device,
                         mapping=IdentityMapping(
                             plain_device.geometry.rows))


@pytest.fixture
def sample_address() -> RowAddress:
    """A mid-bank row address away from resilient subarrays."""
    return RowAddress(channel=2, pseudo_channel=0, bank=3, row=5000)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator for test-local randomness."""
    return np.random.default_rng(12345)
