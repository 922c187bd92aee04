"""Tests that each experiment's rendered report carries its headline
content (the text the benchmark harness archives and prints)."""

import hashlib

import pytest

from repro.experiments.registry import run_experiment

#: experiment id -> (scale, substrings the report must contain).
EXPECTATIONS = {
    "table1": (1.0, ["Table 1", "Rowstripe0", "0x55", "0xAA"]),
    "table2": (1.0, ["Table 2", "RowHammer BER", "16384"]),
    "table3": (1.0, ["Table 3", "Bittware XUPVVH",
                     "AMD Xilinx Alveo U50"]),
    "fig03": (1.0, ["Fig. 3", "82 C setpoint", "uncontrolled"]),
    "fig04": (0.01, ["Fig. 4", "Mean BER", "paper: 0.76% vs 0.67%"]),
    "fig05": (0.01, ["Fig. 5", "minimum HC_first", "paper: 3556"]),
    "fig06": (0.01, ["Fig. 6", "CH7/CH3", "paper: 1.99x"]),
    "fig07": (0.01, ["Fig. 7", "Rowstripe0 vs Rowstripe1",
                     "103905"]),
    "fig08": (0.02, ["Fig. 8", "832", "768", "Resilient"]),
    "fig09": (0.05, ["Fig. 9", "paper: 256",
                     "bimodality coefficient"]),
    "fig10": (0.1, ["Fig. 10", "HC_10", "paper: 1.15x .. 5.22x"]),
    "fig11": (0.1, ["Fig. 11", "Pearson", "decreasing"]),
    "fig12": (0.05, ["Fig. 12", "35.1 us", "polarity cap"]),
    "fig13": (0.1, ["Fig. 13", "222.57x", "16 ms"]),
    "fig14": (0.05, ["Fig. 14", "budget", "paper: 78", "paper: 4"]),
    "fig15": (0.01, ["Fig. 15", "974,935", "Hamming(7,4)"]),
}

#: Full report sha256 at the scales above: the command-level ids (TRR
#: bypass, Section 7) fig14 at 0.05 and sec7 at 1.0, and the static
#: tables and fig03 at 1.0 (the benchmark's scale 1.0 digests).
REPORT_SHA256 = {
    "table1":
        "f2214ddeba303413d4db0c926f346b7a23f71ae4fbb8e18d4620fae65ee90c1a",
    "table2":
        "8070477c3973b65db79045a731815cf4188f5dc91a4abc205a5f2790f39666b8",
    "table3":
        "fc7bbda5c71cd2145b6a11e9b002f61851b29f5c75a4e9af61c6aae7e9960c1e",
    "fig03":
        "7d590352eea84584b1b62d051c7e4e418cc4f21e28938a9fd6584bc127a3b345",
    "fig14":
        "241fd4a667712bc6bb9a6c57dc93c3c4a054f31d22e4cbd16b97c98999b574e7",
    "sec7":
        "6f298b14b51fb61eb48ec3235a3a9fe0642e31a581d188533a206a7880d07695",
}


def report_sha256(result):
    return hashlib.sha256(result.text.encode()).hexdigest()


@pytest.mark.parametrize("experiment_id", sorted(EXPECTATIONS))
def test_report_contains_headlines(experiment_id):
    scale, substrings = EXPECTATIONS[experiment_id]
    result = run_experiment(experiment_id, scale)
    for substring in substrings:
        assert substring in result.text, (experiment_id, substring)
    if experiment_id in REPORT_SHA256:
        assert report_sha256(result) == REPORT_SHA256[experiment_id]


def test_sec7_report(chip_sec7_result):
    text = chip_sec7_result.text
    for substring in ("Obsv. 24", "Obsv. 25", "Obsv. 26", "Obsv. 27",
                      "17"):
        assert substring in text
    assert report_sha256(chip_sec7_result) == REPORT_SHA256["sec7"]


@pytest.fixture(scope="module")
def chip_sec7_result():
    return run_experiment("sec7", 1.0)
