"""Characterization core: the paper's analyses (Sections 4-8).

Only the dependency-free modules (:mod:`repro.core.metrics`,
:mod:`repro.core.patterns`) load eagerly; the study modules pull in the
calibrated chip population (which itself needs the metrics constants), so
they resolve lazily via PEP 562 to keep the import graph acyclic.
"""

import importlib
from typing import TYPE_CHECKING

from repro.core import metrics
from repro.core.metrics import (BER_TEST_HAMMERS, ROWPRESS_BER_HAMMERS,
                                WCDP_TIE_BREAK_HAMMERS, RowMeasurement,
                                ber, bitflip_positions, count_bitflips)
from repro.core.patterns import (ALL_PATTERNS, CHECKERED0, CHECKERED1,
                                 PATTERNS_BY_NAME, ROWSTRIPE0, ROWSTRIPE1,
                                 DataPattern, pattern_by_name, select_wcdp)

#: Lazily resolved attribute -> (module, attribute or None for module).
_LAZY = {
    "analytic": ("repro.core.analytic", None),
    "campaign": ("repro.core.campaign", None),
    "ChipCharacterizationReport": ("repro.core.campaign",
                                   "ChipCharacterizationReport"),
    "characterize_chip": ("repro.core.campaign", "characterize_chip"),
    "spatial": ("repro.core.spatial", None),
    "hcnth": ("repro.core.hcnth", None),
    "rowpress": ("repro.core.rowpress", None),
    "trr_probe": ("repro.core.trr_probe", None),
    "trr_bypass": ("repro.core.trr_bypass", None),
    "wordlevel": ("repro.core.wordlevel", None),
    "BankVariationStudy": ("repro.core.spatial", "BankVariationStudy"),
    "ChannelStudy": ("repro.core.spatial", "ChannelStudy"),
    "ChipBerStudy": ("repro.core.spatial", "ChipBerStudy"),
    "ChipHcFirstStudy": ("repro.core.spatial", "ChipHcFirstStudy"),
    "DistributionSummary": ("repro.core.spatial", "DistributionSummary"),
    "RowProfileStudy": ("repro.core.spatial", "RowProfileStudy"),
    "bank_variation_study": ("repro.core.spatial",
                             "bank_variation_study"),
    "channel_ber_study": ("repro.core.spatial", "channel_ber_study"),
    "channel_hcfirst_study": ("repro.core.spatial",
                              "channel_hcfirst_study"),
    "die_pairs": ("repro.core.spatial", "die_pairs"),
    "row_ber_profile": ("repro.core.spatial", "row_ber_profile"),
    "HcNthStudy": ("repro.core.hcnth", "HcNthStudy"),
    "RowHcNth": ("repro.core.hcnth", "RowHcNth"),
    "hcnth_study": ("repro.core.hcnth", "hcnth_study"),
    "most_vulnerable_channels": ("repro.core.hcnth",
                                 "most_vulnerable_channels"),
    "ROWPRESS_BER_T_ONS": ("repro.core.rowpress", "ROWPRESS_BER_T_ONS"),
    "ROWPRESS_HCFIRST_T_ONS": ("repro.core.rowpress",
                               "ROWPRESS_HCFIRST_T_ONS"),
    "RowPressBerStudy": ("repro.core.rowpress", "RowPressBerStudy"),
    "RowPressHcFirstStudy": ("repro.core.rowpress",
                             "RowPressHcFirstStudy"),
    "measure_scrubbed_row_ber": ("repro.core.rowpress",
                                 "measure_scrubbed_row_ber"),
    "rowpress_ber_study": ("repro.core.rowpress", "rowpress_ber_study"),
    "rowpress_hcfirst_study": ("repro.core.rowpress",
                               "rowpress_hcfirst_study"),
    "ProbeSite": ("repro.core.trr_probe", "ProbeSite"),
    "TrrFindings": ("repro.core.trr_probe", "TrrFindings"),
    "TrrProbe": ("repro.core.trr_probe", "TrrProbe"),
    "AttackConfig": ("repro.core.trr_bypass", "AttackConfig"),
    "BypassStudy": ("repro.core.trr_bypass", "BypassStudy"),
    "bypass_study": ("repro.core.trr_bypass", "bypass_study"),
    "run_attack_exact": ("repro.core.trr_bypass", "run_attack_exact"),
    "run_attack_epochs": ("repro.core.trr_bypass", "run_attack_epochs"),
    "run_attack": ("repro.core.trr_bypass", "run_attack"),
    "SecdedOutcomes": ("repro.core.wordlevel", "SecdedOutcomes"),
    "WordLevelStudy": ("repro.core.wordlevel", "WordLevelStudy"),
    "secded_outcomes": ("repro.core.wordlevel", "secded_outcomes"),
    "word_level_study": ("repro.core.wordlevel", "word_level_study"),
}

__all__ = [
    "metrics",
    "ALL_PATTERNS", "CHECKERED0", "CHECKERED1", "ROWSTRIPE0", "ROWSTRIPE1",
    "PATTERNS_BY_NAME", "DataPattern", "pattern_by_name", "select_wcdp",
    "BER_TEST_HAMMERS", "ROWPRESS_BER_HAMMERS", "WCDP_TIE_BREAK_HAMMERS",
    "RowMeasurement", "ber", "bitflip_positions", "count_bitflips",
] + sorted(_LAZY)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    module_name, attribute = _LAZY[name]
    module = importlib.import_module(module_name)
    value = module if attribute is None else getattr(module, attribute)
    globals()[name] = value
    return value


if TYPE_CHECKING:  # pragma: no cover - import-time typing aid only
    from repro.core import (analytic, hcnth, rowpress, spatial, trr_bypass,
                            trr_probe, wordlevel)
