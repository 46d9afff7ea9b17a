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


# a recorded run, and the same run with its slack moved by 1e-14
ENTRY = {"argv": ["check", "shannon"], "exit": 0, "stderr": "", "warnings": [],
         "output": {"lhs": 1.0, "slack": 0.25}}
MOVED = dict(ENTRY, output={"lhs": 1.0, "slack": 0.25 + 1e-14})


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
    same = dict(ENTRY, argv=["check", "lsi"])
    assert not generate.mismatches(ENTRY, MOVED)
    lines = generate.drift([ENTRY, same], [MOVED, same])
    assert lines[0] == "check shannon"
    # 0.25 + 1e-14 rounds to 0.25 + 9.992e-15
    assert lines[1] == "  output.slack: 0.25 -> 0.25000000000001 (abs +9.99e-15, rel +4e-14)"
    assert lines[2:] == ["1 of 2 runs unchanged"]


def test_out_is_written_unmerged_but_the_corpus_merged(monkeypatch, tmp_path):
    """generate.py OUT writes the fresh runs as they are; written to
    corpus.json, a run that matches its entry by the corpus's rule keeps the
    entry as recorded."""
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([ENTRY]))
    monkeypatch.setattr(generate, "CORPUS", corpus)
    monkeypatch.setattr(generate, "generate", lambda: [MOVED])
    assert generate.command([str(tmp_path / "out.json")]) == 0
    assert json.loads((tmp_path / "out.json").read_text()) == [MOVED]
    assert generate.command([str(corpus)]) == 0
    assert json.loads(corpus.read_text()) == [ENTRY]


def test_drift_exits_1_on_any_difference_from_its_baseline(monkeypatch, tmp_path, capsys):
    """--drift BASELINE compares with BASELINE, --drift alone with
    corpus.json; either exits 1 if any run differs at all and 0 if none
    does."""
    baseline, corpus = tmp_path / "parent.json", tmp_path / "corpus.json"
    baseline.write_text(json.dumps([ENTRY]))
    corpus.write_text(json.dumps([MOVED]))
    monkeypatch.setattr(generate, "CORPUS", corpus)
    monkeypatch.setattr(generate, "generate", lambda: [MOVED])
    assert generate.command(["--drift", str(baseline)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "0 of 1 runs unchanged"
    assert generate.command(["--drift"]) == 0
    assert capsys.readouterr().out == "1 of 1 runs unchanged\n"
