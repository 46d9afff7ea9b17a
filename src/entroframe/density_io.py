"""CSV and JSON interchange for grid densities.

CSV 1d: header "x,f", one row per grid point.
CSV 2d: header "x,y,f", row-major in x (the x loop is the outer one),
both axes ascending.
JSON: parametric specs with a "family" of gaussian | gaussian_mixture |
uniform plus a "reference" of lebesgue | gaussian.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .density import (GaussianDensity, GridDensity1D, GridDensity2D,
                      Reference, gaussian_mixture, uniform_density)
from .errors import GridError, NormalizationError, ReferenceMismatch


def _parse_reference(raw):
    try:
        return Reference(str(raw).lower())
    except ValueError:
        raise GridError(f"unknown reference {raw!r}; use lebesgue or gaussian") from None


# === CSV ==================================================================

def _read_csv(path, header):
    """The rows of a CSV file under the given header, as a (rows, len(header))
    float array."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got is None or [c.strip() for c in got] != header:
            raise GridError(f"{path}: expected header {','.join(header)!r}, got {got!r}")
        rows = [r for r in reader if r]
    if not rows:
        raise GridError(f"{path}: no data rows")
    for r in rows:
        if len(r) != len(header):
            side = "fewer" if len(r) < len(header) else "more"
            raise GridError(f"{path}: row {r!r} has {side} than {len(header)} values")
    return np.array([[float(v) for v in r] for r in rows])


def load_csv_1d(path, reference):
    """The 1d grid density in the CSV file at path, over reference (a Reference)."""
    rows = _read_csv(path, ["x", "f"])
    return GridDensity1D.from_values(reference, rows[:, 0], rows[:, 1], what=str(path))


def load_csv_2d(path, reference):
    """The 2d grid density in the CSV file at path, over reference (a Reference)."""
    rows = _read_csv(path, ["x", "y", "f"])
    x = np.unique(rows[:, 0])
    y = np.unique(rows[:, 1])
    if x.size * y.size != len(rows):
        raise GridError(f"{path}: rows do not tile a {x.size} x {y.size} grid")
    # every row in place: x ascending in blocks, y ascending within each
    if not (np.array_equal(rows[:, 0], np.repeat(x, y.size))
            and np.array_equal(rows[:, 1], np.tile(y, x.size))):
        raise GridError(f"{path}: rows must be row-major in x (y cycles fastest)")
    return GridDensity2D.from_values(reference, x, y, rows[:, 2].reshape(x.size, y.size),
                                     what=str(path))


# === JSON =================================================================

def _field(spec, name, what, default=None, convert=float):
    """convert(spec[name]), default when the field is absent or null;
    NormalizationError naming what and the field if it is missing or malformed."""
    if not isinstance(spec, dict):
        raise NormalizationError(f"{what} must be an object, got {spec!r}")
    value = spec.get(name, default)
    if value is None:
        raise NormalizationError(f"{what} needs field {name!r}")
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise NormalizationError(
            f"{what} field {name!r} must be numeric, got {value!r}") from None


def density_from_spec(spec, length=None, points=None):
    """Build a density from a parsed JSON spec (a dict)."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise NormalizationError(f"density spec must be a dict with a 'family', got {spec!r}")
    family = spec["family"]
    reference = _parse_reference(spec.get("reference", "lebesgue"))
    if family == "gaussian":
        def array(v):
            return np.asarray(v, dtype=float)
        cov = "covariance" if "covariance" in spec else "variance"
        return GaussianDensity(reference, _field(spec, "mean", "gaussian", 0.0, array),
                               _field(spec, cov, "gaussian", 1.0, array))
    if family == "gaussian_mixture":
        comps = spec.get("components")
        if not isinstance(comps, list) or not comps:
            raise NormalizationError(
                f"gaussian_mixture needs a nonempty 'components' list, got {comps!r}")
        w, m, v = ([_field(c, key, f"gaussian_mixture component {k}")
                    for k, c in enumerate(comps, start=1)]
                   for key in ("weight", "mean", "variance"))
        return gaussian_mixture(reference, w, m, v, length=length, points=points)
    if family == "uniform":
        if reference is not Reference.LEBESGUE:
            raise ReferenceMismatch("uniform is a Lebesgue-reference family")
        return uniform_density(_field(spec, "a", "uniform"), _field(spec, "b", "uniform"),
                               smoothing=_field(spec, "smoothing", "uniform", 0.05),
                               length=length, points=points)
    raise NormalizationError(f"unknown density family {family!r}")


def load_json(path, length=None, points=None):
    with open(path) as fh:
        spec = json.load(fh)
    return density_from_spec(spec, length=length, points=points)
