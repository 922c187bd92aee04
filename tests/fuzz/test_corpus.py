"""Suite for reproducer persistence (``repro.fuzz.corpus``).

Contract under test: save/load round-trips a case (program stream,
fault plan, TRR flag), corpus iteration is deterministic, and every
reproducer committed under ``tests/fuzz/corpus`` replays clean through
the differential harness — a divergence found once stays fixed.
"""

import json
from pathlib import Path

import pytest

from repro.dram.device import HBM2Stack
from repro.fuzz.corpus import (corpus_names, iter_corpus, load_case,
                               save_case)
from repro.fuzz.generator import generate_case
from repro.fuzz.harness import run_case

COMMITTED_CORPUS = Path(__file__).parent / "corpus"

ROW_BYTES = HBM2Stack().geometry.row_bytes


def _stream_key(program):
    return [(c.kind, c.channel, c.pseudo_channel, c.bank, c.row,
             c.count, c.t_on, c.duration,
             None if c.data is None else c.data.tobytes())
            for c in program.flatten()]


class TestRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        for index in range(15):
            case = generate_case(9, index, row_bytes=ROW_BYTES)
            target = save_case(tmp_path, case,
                               divergences=["example divergence"])
            loaded = load_case(target, row_bytes=ROW_BYTES)
            assert _stream_key(loaded.program) \
                == _stream_key(case.program)
            assert loaded.fault_plan == case.fault_plan
            assert loaded.trr_enabled == case.trr_enabled
            assert loaded.seed == case.seed
            assert loaded.index == case.index

    def test_saved_layout(self, tmp_path):
        case = generate_case(9, 0, row_bytes=ROW_BYTES)
        target = save_case(tmp_path, case)
        assert (target / "program.sbp").is_file()
        assert (target / "case.json").is_file()
        assert target.name == case.name

    def test_iter_corpus_sorted_and_missing_root_empty(self, tmp_path):
        assert list(iter_corpus(tmp_path / "nope")) == []
        for index in (3, 1, 2):
            save_case(tmp_path, generate_case(9, index,
                                              row_bytes=ROW_BYTES))
        names = corpus_names(tmp_path)
        assert names == sorted(names) and len(names) == 3

    def test_unknown_kind_rejected(self, tmp_path):
        target = tmp_path / "weird"
        target.mkdir()
        (target / "case.json").write_text('{"kind": "search"}')
        with pytest.raises(ValueError, match="search"):
            load_case(target)

    def test_legacy_payload_defaults_to_program(self, tmp_path):
        # Early corpus entries have no kind field.
        case = generate_case(0, 3, row_bytes=ROW_BYTES)
        target = save_case(tmp_path, case)
        payload = json.loads((target / "case.json").read_text())
        assert payload.pop("kind") == "program"
        (target / "case.json").write_text(json.dumps(payload))
        loaded = load_case(target, row_bytes=ROW_BYTES)
        assert loaded.seed == case.seed
        assert _stream_key(loaded.program) == _stream_key(case.program)


class TestCommittedCorpus:
    def test_corpus_exists(self):
        assert corpus_names(COMMITTED_CORPUS), \
            "tests/fuzz/corpus must hold at least one reproducer"

    def test_every_committed_reproducer_replays_clean(self):
        for case in iter_corpus(COMMITTED_CORPUS, row_bytes=ROW_BYTES):
            result = run_case(case)
            assert result.ok, \
                f"regression: {case.name}\n{result.describe()}"
