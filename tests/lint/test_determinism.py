"""Determinism-linter tests: per-rule fixtures, allowlists, baseline
machinery, and the repo-wide cleanliness gate."""

from pathlib import Path

import pytest

from repro.lint.baseline import (Baseline, BaselineError, Suppression,
                                 load_baseline)
from repro.lint.determinism import lint_source, lint_tree
from repro.lint.findings import Finding

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _rules(findings):
    return sorted({f.rule for f in findings})


# -- D101: ambient RNG ---------------------------------------------------


def test_d101_numpy_global_state():
    source = "import numpy as np\nx = np.random.rand(3)\n"
    assert _rules(lint_source(source, "src/repro/foo.py")) == ["D101"]


def test_d101_numpy_aliased_module():
    source = "import numpy.random as npr\nx = npr.randint(0, 4)\n"
    assert _rules(lint_source(source, "src/repro/foo.py")) == ["D101"]


def test_d101_stdlib_random():
    source = "import random\nx = random.random()\n"
    assert _rules(lint_source(source, "src/repro/foo.py")) == ["D101"]


def test_d101_from_import_binds_global_state():
    source = "from numpy.random import randint\n"
    assert _rules(lint_source(source, "src/repro/foo.py")) == ["D101"]


def test_d101_seeded_constructors_allowed():
    source = (
        "import random\n"
        "import numpy as np\n"
        "from numpy.random import default_rng, Philox\n"
        "a = np.random.default_rng(7)\n"
        "b = np.random.Generator(np.random.PCG64(1))\n"
        "c = random.Random(3)\n"
        "d = default_rng(9)\n"
    )
    assert lint_source(source, "src/repro/foo.py") == []


# -- D102: wall clock ----------------------------------------------------


def test_d102_time_time():
    source = "import time\nt = time.time()\n"
    assert _rules(lint_source(source, "src/repro/foo.py")) == ["D102"]


def test_d102_datetime_now():
    source = "import datetime\nt = datetime.datetime.now()\n"
    assert _rules(lint_source(source, "src/repro/foo.py")) == ["D102"]


def test_d102_allowed_in_bench_modules():
    source = "import time\nt = time.time()\n"
    for allowed in ("src/repro/perf.py",
                    "src/repro/experiments/bench.py",
                    "src/repro/experiments/perf_gate.py"):
        assert lint_source(source, allowed) == []


def test_d102_perf_counter_allowed_anywhere():
    source = "import time\nt = time.perf_counter()\n"
    assert lint_source(source, "src/repro/foo.py") == []


# -- D103 / D104 ---------------------------------------------------------


def test_d103_mutable_defaults():
    source = "def f(x=[]):\n    return x\n"
    assert _rules(lint_source(source, "src/repro/foo.py")) == ["D103"]
    source = "g = lambda acc=dict(): acc\n"
    assert _rules(lint_source(source, "src/repro/foo.py")) == ["D103"]


def test_d103_immutable_defaults_allowed():
    source = "def f(x=None, y=(), z=0, w=frozenset()):\n    return x\n"
    assert lint_source(source, "src/repro/foo.py") == []


def test_d104_bare_except():
    source = "try:\n    pass\nexcept:\n    pass\n"
    assert _rules(lint_source(source, "src/repro/foo.py")) == ["D104"]
    typed = "try:\n    pass\nexcept ValueError:\n    pass\n"
    assert lint_source(typed, "src/repro/foo.py") == []


# -- D105: env reads -----------------------------------------------------


def test_d105_environ_and_getenv():
    source = "import os\na = os.environ.get('X')\nb = os.getenv('Y')\n"
    findings = lint_source(source, "src/repro/foo.py")
    assert _rules(findings) == ["D105"] and len(findings) == 2


def test_d105_allowed_in_entry_points():
    source = "import os\na = os.environ.get('X')\n"
    assert lint_source(source, "src/repro/experiments/__main__.py") == []


# -- D100: parse errors --------------------------------------------------


def test_d100_unparseable_module():
    assert _rules(lint_source("def f(:\n", "src/repro/foo.py")) == ["D100"]


# -- baseline machinery --------------------------------------------------


def _finding(rule="D105", location="src/repro/experiments/bench.py:49"):
    return Finding(rule=rule, severity="error", message="m",
                   location=location)


def test_suppression_matches_line_agnostically():
    suppression = Suppression("D105", "repro/experiments/bench.py")
    assert suppression.matches(
        _finding(location="src/repro/experiments/bench.py:49"))
    assert suppression.matches(
        _finding(location="src/repro/experiments/bench.py:54"))
    assert not suppression.matches(_finding(rule="D101"))
    assert not suppression.matches(
        _finding(location="src/repro/faults/plan.py:10"))


def test_baseline_apply_and_unused():
    used_s = Suppression("D105", "repro/experiments/bench.py")
    rotten = Suppression("D105", "repro/never/there.py")
    baseline = Baseline([used_s, rotten])
    surviving, used = baseline.apply([_finding(), _finding(rule="D101")])
    assert [f.rule for f in surviving] == ["D101"]
    assert used == [used_s]
    assert baseline.unused(used) == [rotten]


def test_load_baseline_missing_file_is_empty(tmp_path):
    baseline = load_baseline(tmp_path / "absent.json")
    assert baseline.suppressions == []


def test_load_baseline_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(BaselineError):
        load_baseline(bad)
    bad.write_text('{"suppressions": [{"rule": "D105"}]}',
                   encoding="utf-8")
    with pytest.raises(BaselineError):
        load_baseline(bad)


def test_packaged_baseline_loads_and_is_all_reviewed():
    baseline = load_baseline()
    assert baseline.suppressions, "packaged baseline must not be empty"
    for suppression in baseline.suppressions:
        assert suppression.reason, \
            f"{suppression.location}: baseline entries need a reason"


# -- the repository itself lints clean -----------------------------------


def test_repo_tree_clean_under_baseline():
    findings = lint_tree([REPO_SRC])
    surviving, used = load_baseline().apply(findings)
    assert surviving == [], "\n".join(f.render() for f in surviving)
    # Every packaged suppression must still be earning its keep.
    assert load_baseline().unused(used) == []
