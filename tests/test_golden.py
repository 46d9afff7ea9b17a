"""The golden corpus: every run of tests/golden/generate.py gives what
tests/golden/corpus.json recorded.

Exit codes, exceptions, stderr, warnings, report keys and strings compare
exactly; floats to 1e-12 relative, or 1e-12 absolute near 0.  A report's
`inputs_digest` hashes the grid values bit for bit, so it compares exactly
too, except on runs through a Gaussian mixture (`gaussmix:` or
gaussmix.json): their values pass through a BLAS product, and one ulp of it
changes the digest, so there only its format is checked.
"""

import importlib.util
import json
import math
import re
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_generate", GOLDEN / "generate.py")
generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate)

NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:e[-+]?\d+)?")
DIGEST = re.compile(r"[0-9a-f]{12}")


def _close(want, got):
    return want == got or math.isclose(want, got, rel_tol=1e-12, abs_tol=1e-12) \
        or (math.isnan(want) and math.isnan(got))


def _differences(want, got, mixture, where="output"):
    """Where got differs from want, as a list of (where, want, got)."""
    if isinstance(want, dict) and isinstance(got, dict):
        if list(want) != list(got):
            return [(f"{where} keys", list(want), list(got))]
        return [d for key in want for d in _differences(
            want[key], got[key], mixture, f"{where}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [(f"{where} length", len(want), len(got))]
        return [d for i, (w, g) in enumerate(zip(want, got))
                for d in _differences(w, g, mixture, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        return [] if _close(want, got) else [(where, want, got)]
    if isinstance(want, str) and isinstance(got, str):
        if where.endswith(".inputs_digest"):
            same = DIGEST.fullmatch(got) if mixture else want == got
        else:  # a line of `frame`: its text exactly, its numbers as floats
            same = NUMBER.sub("#", want) == NUMBER.sub("#", got) and all(
                _close(float(w), float(g))
                for w, g in zip(NUMBER.findall(want), NUMBER.findall(got)))
        return [] if same else [(where, want, got)]
    return [] if want == got and type(want) is type(got) else [(where, want, got)]


def test_corpus_lists_every_run():
    corpus = json.loads((GOLDEN / "corpus.json").read_text())
    assert [entry["argv"] for entry in corpus] == [list(argv) for argv in generate.RUNS]


def test_every_run_gives_its_recorded_result(monkeypatch):
    monkeypatch.chdir(GOLDEN)
    corpus = json.loads((GOLDEN / "corpus.json").read_text())
    failures = []
    for want in corpus:
        got = generate.record(want["argv"])
        mixture = any("gaussmix" in arg for arg in want["argv"])
        for key in ("exit", "exception", "stderr", "warnings"):
            if want.get(key) != got.get(key):
                failures.append((want["argv"], key, want.get(key), got.get(key)))
        failures += [(want["argv"], *d)
                     for d in _differences(want["output"], got["output"], mixture)]
    assert failures == []
