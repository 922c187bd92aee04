"""Suite for the fuzzer CLI (``python -m repro.fuzz``).

Contract under test: exit codes (0 clean / mutation caught, 1 failure
found / mutation escaped, 2 usage), reproducer persistence via
``--corpus``, and ``--replay`` over a saved corpus.
"""

from pathlib import Path

import pytest

from repro.fuzz.__main__ import main

CORPUS = Path(__file__).parent / "corpus"


class TestExitCodes:
    def test_clean_budget_exits_zero(self, capsys):
        assert main(["--seed", "0", "--budget", "10"]) == 0
        out = capsys.readouterr().out
        assert "0 failing" in out

    def test_zero_budget_is_clean(self):
        assert main(["--seed", "0", "--budget", "0"]) == 0

    def test_negative_budget_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--budget", "-1"])
        assert excinfo.value.code == 2

    def test_unknown_mutation_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--mutate", "nonexistent"])
        assert excinfo.value.code == 2


class TestMutationMode:
    def test_caught_mutation_exits_zero_and_shrinks(self, capsys):
        assert main(["--seed", "0", "--budget", "25",
                     "--mutate", "lint-blind"]) == 0
        out = capsys.readouterr().out
        assert "caught and shrunk" in out
        assert "shrunk reproducer" in out

    def test_escaped_mutation_exits_one(self, capsys):
        # Budget 0 cannot catch anything: the mutation "escapes".
        assert main(["--seed", "0", "--budget", "0",
                     "--mutate", "clock-skew"]) == 1
        assert "ESCAPED" in capsys.readouterr().err


class TestCorpusFlags:
    def test_corpus_flag_persists_reproducer(self, tmp_path, capsys):
        corpus = tmp_path / "out"
        assert main(["--seed", "0", "--budget", "25",
                     "--mutate", "lint-blind",
                     "--corpus", str(corpus)]) == 0
        saved = [p for p in corpus.iterdir() if p.is_dir()]
        assert len(saved) == 1
        assert (saved[0] / "program.sbp").is_file()
        assert (saved[0] / "case.json").is_file()

    def test_replay_committed_corpus_is_clean(self, capsys):
        assert main(["--replay", str(CORPUS)]) == 0
        out = capsys.readouterr().out
        assert "replayed 2 corpus case(s), 0 failing" in out

    def test_replay_detects_reintroduced_bug(self, capsys):
        from repro.fuzz.mutations import seeded_bug

        with seeded_bug("lint-blind"):
            code = main(["--replay", str(CORPUS)])
        assert code == 1
