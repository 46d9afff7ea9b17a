"""The golden corpus: every run of tests/golden/generate.py gives what
tests/golden/corpus.json recorded, by the rule of `generate.mismatches`:
exact but for floats, which compare to 1e-12, and the digests of runs
through a Gaussian mixture, of which only the format is checked.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_generate", GOLDEN / "generate.py")
generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate)


@pytest.fixture(scope="module")
def runs():
    """The corpus as recorded, and each of its runs made afresh."""
    corpus = json.loads((GOLDEN / "corpus.json").read_text())
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(GOLDEN)
        fresh = [generate.record(want["argv"]) for want in corpus]
    return corpus, fresh


def test_corpus_lists_every_run():
    corpus = json.loads((GOLDEN / "corpus.json").read_text())
    assert [entry["argv"] for entry in corpus] == [list(argv) for argv in generate.RUNS]


def test_every_run_gives_its_recorded_result(runs):
    corpus, fresh = runs
    failures = [(want["argv"], *d) for want, got in zip(corpus, fresh)
                for d in generate.mismatches(want, got)]
    assert failures == []


def test_regenerating_keeps_every_recorded_entry(runs):
    """generate.py writes back a run's recorded entry wherever the fresh run
    matches it, so regenerating an unchanged corpus changes nothing."""
    corpus, fresh = runs
    assert json.dumps(generate.merge(corpus, fresh), indent=1) \
        == json.dumps(corpus, indent=1)


def test_drift_lists_changes_below_the_corpus_rule():
    """--drift compares floats exactly: a slack moved by 1e-14 passes the
    corpus's 1e-12 rule but is listed, and an identical run is counted."""
    entry = {"argv": ["check", "shannon"], "exit": 0, "stderr": "", "warnings": [],
             "output": {"lhs": 1.0, "slack": 0.25}}
    same = dict(entry, argv=["check", "lsi"])
    moved = dict(entry, output={"lhs": 1.0, "slack": 0.25 + 1e-14})
    assert not generate.mismatches(entry, moved)
    lines = generate.drift([entry, same], [moved, same])
    assert lines[0] == "check shannon"
    # 0.25 + 1e-14 rounds to 0.25 + 9.992e-15
    assert lines[1] == "  output.slack: 0.25 -> 0.25000000000001 (abs +9.99e-15, rel +4e-14)"
    assert lines[2:] == ["1 of 2 runs unchanged"]
