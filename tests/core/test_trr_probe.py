"""Tests for the Section 7 U-TRR probe (black-box TRR discovery)."""

import pytest

from repro.core.trr_probe import TrrProbe
from repro.errors import HbmSimError, ProbeError


@pytest.fixture(scope="module")
def findings():
    """Run the full probe once against a fresh Chip 0 device."""
    from repro.bender.host import BenderSession
    from repro.chips.profiles import make_chip

    chip = make_chip(0)
    session = BenderSession(chip.make_device(),
                            mapping=chip.row_mapping())
    return TrrProbe(session).uncover()


class TestUncoveredMechanism:
    def test_obsv24_cadence_is_17(self, findings):
        assert findings.cadence == 17

    def test_obsv25_both_neighbors_refreshed(self, findings):
        assert findings.refreshes_both_neighbors is True

    def test_obsv26_first_activation_detected(self, findings):
        assert findings.first_activation_detected is True

    def test_sampler_capacity_matches_fig14(self, findings):
        """2 side-channel writes + 2 escape dummies = capacity 4."""
        assert findings.cam_escape_dummies == 2

    def test_obsv27_count_rule(self, findings):
        assert findings.count_rule_at_half is True
        assert findings.count_rule_below_half is False


class TestProbeMechanics:
    @pytest.fixture()
    def probe(self, chip0):
        from repro.bender.host import BenderSession

        session = BenderSession(chip0.make_device(),
                                mapping=chip0.row_mapping())
        return TrrProbe(session)

    def test_find_probe_site(self, probe):
        site = probe.find_probe_site()
        assert site.victims[0].row == site.aggressor.row - 1
        assert site.victims[1].row == site.aggressor.row + 1
        assert site.retention_ns >= 3 * 64.0e6

    def test_ref_counter_tracks(self, probe):
        probe.issue_refs(5)
        assert probe.refs_issued == 5

    def test_cycle_without_detection_leaves_flips(self, probe):
        """If nothing triggers TRR, the side-channel rows decay."""
        site = probe.find_probe_site()
        refreshed = probe.cycle(site, [], refs_after_acts=1)
        assert refreshed == (False, False)

    def test_probe_on_trr_free_chip_finds_nothing(self, chip5):
        """Chips without the mechanism never refresh the side channel."""
        from repro.bender.host import BenderSession

        session = BenderSession(chip5.make_device(),
                                mapping=chip5.row_mapping())
        probe = TrrProbe(session)
        site = probe.find_probe_site()
        with pytest.raises(ProbeError) as raised:
            probe.discover_cadence(site, max_period=20)
        # Still what callers catching the original error expect.
        assert isinstance(raised.value, LookupError)
        assert isinstance(raised.value, HbmSimError)
