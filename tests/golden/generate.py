"""The golden corpus: a fixed list of `entroframe` runs and what each gave.

Each run goes through `entroframe.cli.main` in this process, in this
directory (the `json:`/`csv:` inputs beside this file are named relative to
it).  A run records its exit code, its stderr, the warnings it raised, and
its output: the JSON report of `check`, the CSV rows of `sweep`, or the
lines of `frame`.  An exception that escapes `main` is recorded by its type
name, with exit code null.

    PYTHONPATH=src python tests/golden/generate.py [OUT]

writes the corpus to OUT, by default `corpus.json` beside this file, and

    PYTHONPATH=src python tests/golden/generate.py --drift

writes nothing: it prints each run that differs at all from its entry in
`corpus.json`, floats compared exactly, with every changed value and its
absolute and relative change, and last the count of unchanged runs.
`tests/test_golden.py` re-runs the same list and compares, by the rule of
`mismatches`.  A run that the rule finds unchanged keeps its entry in
`corpus.json` as recorded, so a host whose last bits differ rewrites
nothing.  A change that moves a number, a message or an exit code
regenerates the file; its diff is that change's drift table.
"""

import contextlib
import io
import json
import math
import os
import re
import sys
import warnings
from pathlib import Path

from entroframe.cli import main

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.json"

N1 = ("--grid-n", "513")  # 1d runs
N2 = ("--grid-n", "129")  # 2d runs
YOUNG = ("--p", "2", "--q", "1.6", "--r", "8")
EXPONENTS = ("--exponents", "1.5,1.5,1.5")
GAM = ("--reference", "gaussian")

RUNS = [
    # the four frame forms (the README's examples) and their errors
    ("frame", "--weights", "0.6667,0.6667,0.6667"),
    ("frame", "--angles", "0,1.0472,2.0944"),
    ("frame", "--exponents", "2,1.3333,1.3333"),
    ("frame", "--young", "1.3333,1.3333,2"),
    ("frame", "--angles", "0,0.5236,0.7854"),
    ("frame",),
    ("frame", "--weights", "0.5,0.5"),
    ("frame", "--weights", "1.2,0.5,0.3"),
    ("frame", "--young", "2,2,inf"),

    # every check at its default densities, in both references where allowed
    ("check", "subadditivity", *N2),
    ("check", "subadditivity", *GAM, *N2),
    ("check", "fisher", *N2),
    ("check", "fisher", *GAM, *N2),
    ("check", "main-entropy", *EXPONENTS, *N2),
    ("check", "main-entropy", *EXPONENTS, *GAM, *N2),
    ("check", "main-integral", *EXPONENTS, *N1),
    ("check", "main-integral", *EXPONENTS, *GAM, *N1),
    ("check", "young-conv", *YOUNG, *N1),
    ("check", "young-entropy", *YOUNG, *N2),
    ("check", "shannon", *N1),
    ("check", "blachmann-stam", *N1),
    ("check", "hyper", "--p", "2", "--q", "4", "--theta", "1.2", *N1),
    ("check", "hyper2", "--p", "1.5", "--r", "1.5", *N1),
    ("check", "lsi", *N1),
    ("check", "lsi-integrated", "--theta", "0.5", *N1),
    ("check", "brascamp-lieb", *N1),
    ("check", "brascamp-lieb", *GAM, *N1),
    # the default density over gamma is the standard Gaussian, h = 1; these
    # sheared marginals over gamma sample an h that varies
    ("check", "subadditivity", "--f", "gauss2:0.3,-0.2,1.5,0.3,0.8", *GAM, *N2),
    ("check", "fisher", "--f", "gauss2:0.3,-0.2,1.5,0.3,0.8", *GAM, *N2),

    # the README's checks
    ("check", "shannon", "--g", "gauss:0,1", "--h", "gauss:0,4", *N1),
    ("check", "hyper", "--f", "exp:1", "--p", "2", "--q", "4", "--theta", "0.7", *N1),
    ("check", "subadditivity", "--f", "gauss2:0,0,4,0,1",
     "--frame-weights", "0.6667,0.6667,0.6667", *N2),
    ("check", "young-conv", "--f", "gauss:0,1", "--g", "gauss:0,1",
     "--p", "1.3333", "--q", "1.3333", "--r", "2", *N1),
    ("check", "subadditivity", "--f", "json:g2.json"),
    ("check", "shannon", "--g", "json:g1.json", "--h", "gauss:0,1", *N1),

    # every spec kind
    ("check", "shannon", "--g", "gaussmix:0.5,-1,0.5;0.5,1,0.5", "--h", "gauss:0,1", *N1),
    ("check", "lsi", "--f", "gaussmix:0.4,-0.5,1;0.6,0.5,1", *N1),
    ("check", "shannon", "--g", "uniform:-1,1", *N1),
    ("check", "hyper", "--f", "exp:0.5", "--p", "2", "--q", "3", "--theta", "0.9", *N1),
    ("check", "young-conv", "--f", "csv:leb.csv", "--g", "csv:leb.csv", *YOUNG),
    ("check", "lsi", "--f", "csv:gam.csv"),
    ("check", "subadditivity", "--f", "csv2:f2.csv"),
    ("check", "fisher", "--f", "product:gauss:0,1+gauss:0.5,2", *N2),
    ("check", "subadditivity", "--f", "product:json:g1.json+gauss:0,1", *N2),
    ("check", "young-conv", "--f", "json:g1-var2.json", "--g", "json:g1.json",
     "--p", "1.5", "--q", "1.2", "--r", "2"),
    ("check", "hyper", "--f", "json:g05-gamma.json", "--p", "2", "--q", "4",
     "--theta", "0.8", *N1),
    ("check", "blachmann-stam", "--g", "json:gaussmix.json", "--h", "gauss:0,1", *N1),
    ("check", "shannon", "--g", "json:uniform.json", *N1),
    ("check", "main-integral", *EXPONENTS, "--g", "exp:0.3", "--h", "gauss:0,2", *N1),
    ("check", "brascamp-lieb", "--f1", "exp:0.2", "--f2", "gauss:0.5,1",
     "--f3", "gauss:0,1.5", *GAM, "--frame-angles", "0,1.0,2.2", *N1),
    ("check", "main-entropy", "--f", "gauss2:0.3,-0.2,1.5,0.4,0.8",
     "--exponents", "1.25,1.5,1.875", *N2),
    ("check", "young-entropy", "--f", "gauss2:0,0,2,-0.5,1", *YOUNG, *N2),
    ("check", "lsi-integrated", "--f", "gauss:0.7,0.8", "--theta", "0.3", *N1),
    ("check", "hyper2", "--g", "gauss:0.2,1", "--h", "gauss:-0.3,1.3",
     "--p", "1.5", "--r", "1.5", *N1),
    ("check", "shannon", "--g", "gauss:0,1", "--h", "gauss:0,4", "--tolerance", "5", *N1),

    # sweeps: the README's three and a json: Gaussian
    ("sweep", "--check", "hyper", "--param", "theta", "--f", "exp:1", "--p", "2",
     "--q", "4", "--range", "0.8:1.1", "--steps", "31", *N1),
    ("sweep", "--check", "young-conv", "--param", "sigma", "--range", "0.5:2",
     "--steps", "21", *N1),
    ("sweep", "--check", "shannon-limit", "--param", "s", "--range=-0.01:-0.001",
     "--steps", "10"),
    ("sweep", "--check", "hyper", "--param", "theta", "--f", "json:g05-gamma.json",
     "--p", "2", "--q", "4", "--range", "0.8:1.0", "--steps", "3", *N1),
    ("sweep", "--check", "young-conv", "--param", "sigma", "--p", "1.3333",
     "--q", "1.3333", "--r", "2", "--range", "0.5:2", "--steps", "4", *N1),

    # error paths
    ("check", "shannon", "--g", "gauss:0", *N1),
    ("check", "shannon", "--g", "cauchy:0,1", *N1),
    ("check", "shannon", "--g", "gauss:0,1", "--h", "exp:1", *N1),
    ("check", "shannon", "--g", "csv:missing.csv", *N1),
    ("check", "subadditivity", "--f", "csv2:leb.csv"),
    ("check", "subadditivity", "--f", "product:gauss:0,1", *N2),
    ("check", "lsi", "--reference", "lebesgue", *N1),
    ("check", "young-conv", "--reference", "gaussian", *YOUNG, *N1),
    ("check", "shannon", "--grid-l=inf"),
    ("check", "shannon", "--grid-n", "128"),
    ("check", "shannon", "--g", "uniform:-1,1", "--grid-n", "129"),
    ("check", "hyper", "--f", "exp:1", "--p", "0.5", "--q", "4", "--theta", "0.7", *N1),
    ("check", "hyper", "--p", "2", "--q", "4", *N1),
    ("check", "hyper2", "--p", "2", "--r", "2", *N1),
    ("check", "main-entropy", *N2),
    ("check", "young-conv", "--p", "2", "--q", "2", "--r", "inf", *N1),
    ("check", "subadditivity", "--frame-weights", "nan,0.5,0.5", *N2),
    ("check", "subadditivity", "--frame-angles", "0,1,2",
     "--frame-weights", "0.6667,0.6667,0.6667", *N2),
    ("check", "shannon", "--g", "gaussmix:0,0,1", *N1),
    ("check", "shannon", "--g", "gaussmix:1,0,1;-1,0,1", *N1),
    ("check", "shannon", "--g", "gaussmix:1,0,1;0,5,1", *N1),
    ("check", "shannon", "--g", "gaussmix:", *N1),
    ("check", "shannon", "--g", "json:gaussmix-sum09.json", *N1),
    ("check", "shannon", "--g", "gaussmix:-2,0,1;-1,3,1", *N1),
    # a NaN parameter is refused by name, under its flag
    ("check", "shannon", "--g", "gauss:nan,1", *N1),
    ("check", "shannon", "--g", "gauss:0,nan", *N1),
    ("check", "shannon", "--g", "gaussmix:1,nan,1", *N2),
    ("check", "shannon", "--g", "gaussmix:1,0,nan", *N2),
    ("check", "shannon", "--g", "json:uniform-no-a.json", *N2),
    ("check", "shannon", "--g", "json:gaussmix-no-variance.json", *N2),
    ("check", "shannon", "--g", "json:gaussmix-components-5.json", *N2),
    ("check", "subadditivity", "--frame-angles", "0,0.1,0.2", *N2),
    ("check", "subadditivity", "--frame-angles", "0,nan,2", *N2),
    ("check", "subadditivity", "--frame-angles", "0,inf,2", *N2),
    ("check", "shannon", "--g", "gauss:0,1", "--h", "gauss:0,1", "--tolerance", "nan", *N1),
    ("check", "shannon", "--g", "gauss:0,1", "--h", "gauss:0,1", "--tolerance", "inf", *N1),
    ("check", "shannon", "--g", "gauss:0,1", "--h", "gauss:0,1", "--tolerance=-1e-3", *N1),
    # flags that set no density are checked first, under their flag and by
    # the library's rule
    ("check", "subadditivity", "--tolerance", "nan", *N2),
    ("check", "hyper", "--f", "exp:1", "--p", "2", "--q", "4", "--theta", "nan", *N1),
    ("check", "lsi-integrated", "--theta", "2", *N1),
    # a parameter flag that the check does not read is refused by name
    ("check", "shannon", "--theta", "5", "--p", "0.1", *N1),
    ("check", "lsi", "--theta", "9", *N1),
    ("check", "subadditivity", "--exponents", "1.5,1.5,1.5", *N2),
    ("sweep", "--check", "hyper", "--param", "theta", "--range", "0.1:0.5", "--steps", "3",
     "--r", "2", *N1),
    ("sweep", "--check", "hyper", "--param", "sigma", "--range", "0.5:2"),
    ("sweep", "--check", "hyper", "--param", "theta", "--range", "0.5", *N1),
    ("sweep", "--check", "hyper", "--param", "theta", "--range", "a:b", *N1),
    ("sweep", "--check", "hyper", "--param", "theta", "--range", "0.5:1", "--steps", "1", *N1),
    ("sweep", "--check", "young-conv", "--param", "sigma", "--range=1:-1", "--steps", "3", *N1),
    # a non-finite end of --range is refused by name, and so is a row value
    # its check refuses, before the first row runs
    ("sweep", "--check", "young-conv", "--param", "sigma", "--range", "0.5:inf", *N1),
    ("sweep", "--check", "hyper", "--param", "theta", "--range", "nan:1", *N1),
    ("sweep", "--check", "shannon-limit", "--param", "s", "--range=-0.01:nan"),
    ("sweep", "--check", "shannon-limit", "--param", "s", "--range=-0.01:0.01", "--steps", "3"),
    ("sweep", "--check", "hyper", "--param", "theta", "--f", "exp:1", "--range", "1.2:1.8",
     "--steps", "3", *N1),
    ("sweep", "--check", "hyper", "--param", "theta", "--range", "0.1:0.5", "--steps", "3",
     "--p", "0.5", *N1),
    ("sweep", "--check", "young-conv", "--param", "sigma", "--range", "0.5:2", "--steps", "3",
     "--p", "5", *N1),
    ("sweep", "--check", "hyper", "--param", "theta", "--f", "nope:1", "--range", "0.8:1",
     "--steps", "3", *N1),
    # a flag that every row sets from the parameter
    ("sweep", "--check", "young-conv", "--param", "sigma", "--range", "0.5:1", "--steps", "2",
     "--f", "gauss:0,9", *N2),
    # two errors at once: a row meets them in the order `check` does
    ("sweep", "--check", "young-conv", "--param", "sigma", "--range=-1:1", "--steps", "3",
     "--p", "5", *N1),
    ("sweep", "--check", "young-conv", "--param", "sigma", "--range", "0.5:1", "--steps", "3",
     "--p", "5", "--grid-n", "128"),
    ("check", "young-conv", "--p", "5", "--q", "1.3333", "--r", "2", "--grid-n", "128"),
    # a slot flag that the check does not read is refused by name
    ("check", "hyper2", "--f", "exp:nan", "--p", "1.5", "--r", "1.5"),
]


def _output(text):
    """A check's report, a sweep's rows (the header, then floats), or lines."""
    if text.startswith("{"):
        return json.loads(text)
    lines = text.splitlines()
    if lines[:1] == ["param,lhs,rhs,slack"]:
        return [lines[0].split(",")] + [[float(v) for v in line.split(",")]
                                        for line in lines[1:]]
    return lines


def record(argv):
    """What `entroframe *argv` gives, run in this directory."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code, exception = main(list(argv)), None
        except Exception as exc:  # recorded, not raised: the corpus shows it
            code, exception = None, type(exc).__name__
    entry = {"argv": list(argv), "exit": code}
    if exception is not None:
        entry["exception"] = exception
    entry["stderr"] = err.getvalue()
    entry["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
    entry["output"] = _output(out.getvalue())
    return entry


NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:e[-+]?\d+)?")
DIGEST = re.compile(r"[0-9a-f]{12}")


def _close(want, got):
    return want == got or math.isclose(want, got, rel_tol=1e-12, abs_tol=1e-12) \
        or (math.isnan(want) and math.isnan(got))


def _equal(want, got):
    return want == got or (math.isnan(want) and math.isnan(got))


def _differences(want, got, mixture, close, where="output"):
    """Where got differs from want, floats compared by close, as a list of
    (where, want, got)."""
    if isinstance(want, dict) and isinstance(got, dict):
        if list(want) != list(got):
            return [(f"{where} keys", list(want), list(got))]
        return [d for key in want for d in _differences(
            want[key], got[key], mixture, close, f"{where}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [(f"{where} length", len(want), len(got))]
        return [d for i, (w, g) in enumerate(zip(want, got))
                for d in _differences(w, g, mixture, close, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        return [] if close(want, got) else [(where, want, got)]
    if isinstance(want, str) and isinstance(got, str):
        if where.endswith(".inputs_digest"):
            same = DIGEST.fullmatch(got) if mixture else want == got
        else:  # a line of `frame`: its text exactly, its numbers as floats
            same = NUMBER.sub("#", want) == NUMBER.sub("#", got) and all(
                close(float(w), float(g))
                for w, g in zip(NUMBER.findall(want), NUMBER.findall(got)))
        return [] if same else [(where, want, got)]
    return [] if want == got and type(want) is type(got) else [(where, want, got)]


def mismatches(want, got, close=_close):
    """Where the run got differs from its recorded entry want, as a list of
    (where, want, got).

    Exit codes, exceptions, stderr, warnings, report keys and strings compare
    exactly; floats by close, by default to 1e-12 relative, or 1e-12 absolute
    near 0.  A report's `inputs_digest` hashes the grid values bit for bit,
    so it compares exactly too, except on runs through a Gaussian mixture
    (`gaussmix:` or gaussmix.json): their values pass through a BLAS
    product, and one ulp of it changes the digest, so there only its format
    is checked.
    """
    mixture = any("gaussmix" in arg for arg in want["argv"])
    return [(key, want.get(key), got.get(key))
            for key in ("exit", "exception", "stderr", "warnings")
            if want.get(key) != got.get(key)] \
        + _differences(want["output"], got["output"], mixture, close)


def merge(recorded, fresh):
    """fresh, but where a run matches its recorded entry, that entry as recorded."""
    kept = {json.dumps(entry["argv"]): entry for entry in recorded}
    merged = []
    for entry in fresh:
        old = kept.get(json.dumps(entry["argv"]))
        merged.append(old if old is not None and not mismatches(old, entry) else entry)
    return merged


def drift(recorded, fresh):
    """The lines that --drift prints: each run of fresh that differs at all
    from its recorded entry, floats compared exactly, with each difference
    under it (a float's two values and its absolute and relative change),
    then the count of unchanged runs."""
    kept = {json.dumps(entry["argv"]): entry for entry in recorded}
    lines, unchanged = [], 0
    for entry in fresh:
        old = kept.get(json.dumps(entry["argv"]))
        if old is None:
            lines.append(f"{' '.join(entry['argv'])}: not recorded")
            continue
        changes = mismatches(old, entry, _equal)
        if not changes:
            unchanged += 1
            continue
        lines.append(" ".join(entry["argv"]))
        for where, want, got in changes:
            if isinstance(want, float) and isinstance(got, float):
                change = got - want
                relative = change / abs(want) if want else math.inf
                lines.append(f"  {where}: {want!r} -> {got!r}"
                             f" (abs {change:+.3g}, rel {relative:+.3g})")
            else:
                lines.append(f"  {where}: {want!r} -> {got!r}")
    lines.append(f"{unchanged} of {len(fresh)} runs unchanged")
    return lines


def generate():
    os.chdir(HERE)
    return [record(argv) for argv in RUNS]


if __name__ == "__main__":
    recorded = json.loads(CORPUS.read_text()) if CORPUS.exists() else []
    if sys.argv[1:] == ["--drift"]:
        print("\n".join(drift(recorded, generate())))
    else:
        target = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else CORPUS
        corpus = merge(recorded, generate())
        target.write_text(json.dumps(corpus, indent=1) + "\n")
