"""Command-line front end: frames, inequality checks, sweeps, selftest.

Exit codes: 0 = pass, 1 = inequality violated beyond tolerance,
2 = input or validation error.  All angles are radians.  Densities are
given in a small inline language (see DENSITY_HELP); `json:` specs load
parametric families in closed form, everything else lands on the
quadrature grid controlled by --grid-l / --grid-n / ENTROFRAME_GRID_N.
"""

import argparse
import csv
import sys

import numpy as np

from .density import (
    ExpFunction,
    GaussianDensity,
    GridDensity1D,
    GridDensity2D,
    Reference,
    gaussian,
    gaussian_mixture,
    independent_product,
    uniform_density,
)
from .density_io import load_csv_1d, load_csv_2d, load_json
from .errors import EntroframeError, InvalidExponents, NormalizationError, ReferenceMismatch
from .frames import (
    ExponentTriple,
    directions_from_weights,
    mercedes_frame,
    shannon_limit_frame,
    weights_from_directions,
)
from .inequality import (
    check_blachmann_stam,
    check_brascamp_lieb,
    check_fisher_subadditivity,
    check_hyper_two_function,
    check_hypercontractivity,
    check_integrated_lsi,
    check_log_sobolev,
    check_main_entropy,
    check_main_integral,
    check_shannon,
    check_subadditivity,
    check_young_convolution,
    check_young_entropy,
)
from .selftest import TAGS, run as run_selftest

EXIT_PASS = 0
EXIT_VIOLATED = 1
EXIT_INPUT = 2

# user triples may carry rounded literals like 1.3333; anything this close
# to the constraint surface is projected back onto it, anything further is
# treated as a typo
REPAIR_TOL = 1e-2

DENSITY_HELP = """\
density specs (1d):
  gauss:M,V              Gaussian, mean M, variance V, on the grid
  gaussmix:W,M,V;W,M,V   Gaussian mixture (weights are normalized)
  uniform:A,B            indicator of [A,B] smoothed by a sigma=0.05 kernel
  exp:A                  the test function exp(A t) (function slots only)
  csv:PATH               two-column x,f file
  json:PATH              parametric family in closed form (gaussian families
                         with 'reference' field; stays off the grid)
density specs (2d):
  gauss2:M1,M2,V11,V12,V22   Gaussian with covariance [[V11,V12],[V12,V22]]
  product:SPEC+SPEC          independent product of two 1d specs
  csv2:PATH                  three-column x,y,f file (y cycles fastest)
  json:PATH                  as above with 2d parameters
"""


# === shared parsing helpers ===============================================

def _floats(text, count, what):
    parts = [p for p in text.split(",")]
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise NormalizationError(f"{what}: could not parse {text!r}")
    if len(values) != count:
        raise NormalizationError(
            f"{what}: expected {count} comma-separated values, got {len(values)}")
    return values


def _repaired_weights(text):
    """Weight triple rescaled onto sum 2; rejects gross deviations."""
    c = _floats(text, 3, "--weights")
    if min(c) <= 0.0:
        raise NormalizationError(f"--weights: weights must be positive, got {c}")
    total = sum(c)
    if abs(total - 2.0) > REPAIR_TOL:
        raise NormalizationError(
            f"--weights: triple sums to {total:.6f}, needs 2 (off by more "
            f"than {REPAIR_TOL})")
    return tuple(v * (2.0 / total) for v in c)


def _repaired_exponents(values, what):
    """Exponent triple rescaled so the reciprocals sum to exactly 2."""
    if min(values) <= 1.0:
        raise InvalidExponents(f"{what}: exponents must exceed 1, got {values}")
    s = sum(1.0 / p for p in values)
    if abs(s - 2.0) > REPAIR_TOL:
        raise InvalidExponents(
            f"{what}: reciprocals sum to {s:.6f}, needs 2 (off by more than "
            f"{REPAIR_TOL})")
    return ExponentTriple(*(p * (s / 2.0) for p in values))


def _repaired_young(p, q, r):
    """Young triple with r recomputed from 1/p + 1/q = 1 + 1/r."""
    for name, v in (("p", p), ("q", q), ("r", r)):
        if v <= 1.0:
            raise InvalidExponents(f"--{name} must exceed 1, got {v}")
    defect = 1.0 / p + 1.0 / q - 1.0
    if defect <= 0.0:
        raise InvalidExponents(
            f"1/p + 1/q = {1.0 / p + 1.0 / q:.6f} <= 1 leaves no valid r")
    repaired = 1.0 / defect
    if abs(1.0 / r - defect) > REPAIR_TOL:
        raise InvalidExponents(
            f"--r {r} is inconsistent with p, q (expected about {repaired:.4f})")
    return p, q, repaired


def _reference_from_flag(value):
    if value == "lebesgue":
        return Reference.LEBESGUE
    if value == "gaussian":
        return Reference.GAUSSIAN
    raise NormalizationError(f"unknown reference {value!r}")


def _check_loaded(density, reference, dim, what):
    ref = getattr(density, "reference", None)
    if ref is not None and ref is not reference:
        raise ReferenceMismatch(
            f"{what}: loaded density is {ref.value}-reference, the check "
            f"needs {reference.value}")
    if isinstance(density, GaussianDensity):
        actual = density.dim
    elif isinstance(density, GridDensity1D):
        actual = 1
    elif isinstance(density, GridDensity2D):
        actual = 2
    else:
        actual = dim
    if actual != dim:
        raise ReferenceMismatch(f"{what}: needs a {dim}d density, got {actual}d")
    return density


def parse_density_1d(spec, reference, length, points, allow_exp=False,
                     what="density"):
    kind, _, rest = spec.partition(":")
    if kind == "gauss":
        m, v = _floats(rest, 2, what)
        return gaussian(reference, m, v).to_grid(length, points)
    if kind == "gaussmix":
        comps = [_floats(c, 3, what) for c in rest.split(";") if c]
        if not comps:
            raise NormalizationError(f"{what}: empty mixture spec")
        w, m, v = (list(col) for col in zip(*comps))
        total = sum(w)
        return gaussian_mixture(reference, [x / total for x in w], m, v,
                                length=length, points=points)
    if kind == "uniform":
        if reference is not Reference.LEBESGUE:
            raise ReferenceMismatch(f"{what}: uniform is a Lebesgue-reference family")
        a, b = _floats(rest, 2, what)
        return uniform_density(a, b, length=length, points=points)
    if kind == "exp":
        if not allow_exp:
            raise NormalizationError(
                f"{what}: exp: is a test function, not a density (for a "
                f"gamma-reference density use gauss:A,1, which is "
                f"exp(A t - A^2/2))")
        (a,) = _floats(rest, 1, what)
        return ExpFunction(a)
    if kind == "csv":
        return _check_loaded(load_csv_1d(rest, reference), reference, 1, what)
    if kind == "json":
        return _check_loaded(load_json(rest, length, points), reference, 1, what)
    raise NormalizationError(f"{what}: unknown 1d density spec {spec!r}")


def parse_density_2d(spec, reference, length, points, what="density"):
    kind, _, rest = spec.partition(":")
    if kind == "gauss2":
        m1, m2, v11, v12, v22 = _floats(rest, 5, what)
        return gaussian(reference, [m1, m2],
                        [[v11, v12], [v12, v22]]).to_grid(length, points)
    if kind == "product":
        left, sep, right = rest.partition("+")
        if not sep:
            raise NormalizationError(f"{what}: product needs SPEC+SPEC")
        f = parse_density_1d(left, reference, length, points, what=what)
        g = parse_density_1d(right, reference, length, points, what=what)
        return independent_product(f, g)
    if kind == "csv2":
        return _check_loaded(load_csv_2d(rest, reference), reference, 2, what)
    if kind == "json":
        return _check_loaded(load_json(rest, length, points), reference, 2, what)
    raise NormalizationError(f"{what}: unknown 2d density spec {spec!r}")


# === frame command ========================================================

def cmd_frame(args):
    given = [name for name, value in (("--angles", args.angles),
                                      ("--weights", args.weights),
                                      ("--exponents", args.exponents),
                                      ("--young", args.young))
             if value is not None]
    if len(given) != 1:
        raise NormalizationError(
            f"frame needs exactly one of --angles | --weights | --exponents "
            f"| --young, got {given or 'none'}")
    if args.angles is not None:
        t1, t2, t3 = _floats(args.angles, 3, "--angles")
        frame = weights_from_directions(t1, t2, t3)
    elif args.weights is not None:
        frame = directions_from_weights(*_repaired_weights(args.weights))
    elif args.exponents is not None:
        triple = _repaired_exponents(_floats(args.exponents, 3, "--exponents"),
                                     "--exponents")
        frame = directions_from_weights(*triple.weights())
    else:
        p, q, r = _floats(args.young, 3, "--young")
        for name, v in (("p", p), ("q", q), ("r", r)):
            if v <= 1.0:
                raise InvalidExponents(f"--young: {name} must exceed 1, got {v}")
        # route through the conjugate so --young and --exponents literals
        # land on the identical repaired triple
        triple = _repaired_exponents((r / (r - 1.0), p, q), "--young")
        frame = directions_from_weights(*triple.weights())
    print("directions (rad): " + " ".join(f"{t:.12f}" for t in frame.thetas))
    print("weights:          " + " ".join(f"{c:.12f}" for c in frame.weights))
    print(f"residual:         {frame.residual():.2e}")
    return EXIT_PASS


# === check command ========================================================

# slot layout per check: (slots, dim, fixed reference or None, exp-friendly)
CHECK_TABLE = {
    "subadditivity": (("f",), 2, None, False),
    "fisher": (("f",), 2, None, False),
    "main-entropy": (("f",), 2, None, False),
    "main-integral": (("g", "h"), 1, None, True),
    "young-conv": (("f", "g"), 1, Reference.LEBESGUE, False),
    "young-entropy": (("f",), 2, Reference.LEBESGUE, False),
    "shannon": (("g", "h"), 1, Reference.LEBESGUE, False),
    "blachmann-stam": (("g", "h"), 1, Reference.LEBESGUE, False),
    "hyper": (("f",), 1, Reference.GAUSSIAN, True),
    "hyper2": (("g", "h"), 1, Reference.GAUSSIAN, True),
    "lsi": (("f",), 1, Reference.GAUSSIAN, False),
    "lsi-integrated": (("f",), 1, Reference.GAUSSIAN, False),
    "brascamp-lieb": (("f1", "f2", "f3"), 1, None, True),
}


def _effective_reference(name, args):
    fixed = CHECK_TABLE[name][2]
    flagged = _reference_from_flag(args.reference) if args.reference else None
    if fixed is not None:
        if flagged is not None and flagged is not fixed:
            raise ReferenceMismatch(
                f"{name} is a {fixed.value}-reference inequality; "
                f"--reference {args.reference} conflicts")
        return fixed
    return flagged or Reference.LEBESGUE


def _resolve_frame(args):
    if args.frame_angles is not None and args.frame_weights is not None:
        raise NormalizationError(
            "give at most one of --frame-angles | --frame-weights")
    if args.frame_angles is not None:
        return weights_from_directions(*_floats(args.frame_angles, 3,
                                                "--frame-angles"))
    if args.frame_weights is not None:
        return directions_from_weights(
            *_repaired_weights(args.frame_weights))
    return mercedes_frame()


def _need(args, flag, check):
    value = getattr(args, flag.lstrip("-").replace("-", "_"))
    if value is None:
        raise NormalizationError(f"{check} needs {flag}")
    return value


def _slot_densities(name, args, reference):
    slots, dim, _, allow_exp = CHECK_TABLE[name]
    default_1d = "exp:1" if name == "hyper" else "gauss:0,1"
    default_2d = "gauss2:0,0,1,0,1"
    out = []
    for slot in slots:
        spec = getattr(args, slot) or (default_2d if dim == 2 else default_1d)
        if dim == 2:
            out.append(parse_density_2d(spec, reference, args.grid_l,
                                        args.grid_n, what=f"--{slot}"))
        else:
            out.append(parse_density_1d(spec, reference, args.grid_l,
                                        args.grid_n, allow_exp=allow_exp,
                                        what=f"--{slot}"))
    return out


def _run_check(name, args):
    reference = _effective_reference(name, args)
    densities = _slot_densities(name, args, reference)
    tol = args.tolerance
    grid = dict(length=args.grid_l, points=args.grid_n)
    if name == "subadditivity":
        return check_subadditivity(_resolve_frame(args), densities[0], tolerance=tol)
    if name == "fisher":
        return check_fisher_subadditivity(_resolve_frame(args), densities[0],
                                          tolerance=tol)
    if name == "main-entropy":
        triple = _repaired_exponents(
            _floats(_need(args, "--exponents", name), 3, "--exponents"),
            "--exponents")
        return check_main_entropy(triple, densities[0], tolerance=tol)
    if name == "main-integral":
        triple = _repaired_exponents(
            _floats(_need(args, "--exponents", name), 3, "--exponents"),
            "--exponents")
        return check_main_integral(triple, densities[0], densities[1],
                                   reference=reference, tolerance=tol, **grid)
    if name == "young-conv":
        p, q, r = _repaired_young(_need(args, "--p", name),
                                  _need(args, "--q", name),
                                  _need(args, "--r", name))
        return check_young_convolution(densities[0], densities[1], p, q, r,
                                       tolerance=tol)
    if name == "young-entropy":
        p, q, r = _repaired_young(_need(args, "--p", name),
                                  _need(args, "--q", name),
                                  _need(args, "--r", name))
        return check_young_entropy(densities[0], p, q, r, tolerance=tol)
    if name == "shannon":
        return check_shannon(densities[0], densities[1], tolerance=tol)
    if name == "blachmann-stam":
        return check_blachmann_stam(densities[0], densities[1],
                                    tolerance=tol)[0]
    if name == "hyper":
        return check_hypercontractivity(densities[0], _need(args, "--p", name),
                                        _need(args, "--q", name),
                                        _need(args, "--theta", name),
                                        tolerance=tol, **grid)
    if name == "hyper2":
        return check_hyper_two_function(densities[0], densities[1],
                                        _need(args, "--p", name),
                                        _need(args, "--r", name),
                                        tolerance=tol, **grid)
    if name == "lsi":
        return check_log_sobolev(densities[0], tolerance=tol)
    if name == "lsi-integrated":
        return check_integrated_lsi(densities[0],
                                    _need(args, "--theta", name), tolerance=tol)
    if name == "brascamp-lieb":
        return check_brascamp_lieb(_resolve_frame(args), densities[0],
                                   densities[1], densities[2],
                                   reference=reference, tolerance=tol, **grid)
    raise NormalizationError(f"unknown check {name!r}")


def cmd_check(args):
    report = _run_check(args.name, args)
    text = report.to_json() + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_PASS if report.passed else EXIT_VIOLATED


# === sweep command ========================================================

SWEEP_PARAMS = {"hyper": "theta", "young-conv": "sigma", "shannon-limit": "s"}


def _sweep_rows(args, values):
    name = args.check
    if name == "hyper":
        reference = Reference.GAUSSIAN
        f = parse_density_1d(args.f or "exp:1", reference, args.grid_l,
                             args.grid_n, allow_exp=True, what="--f")
        p = args.p if args.p is not None else 2.0
        q = args.q if args.q is not None else 4.0
        for theta in values:
            rep = check_hypercontractivity(f, p, q, theta, length=args.grid_l,
                                           points=args.grid_n)
            yield theta, rep.lhs, rep.rhs, rep.slack
        return
    if name == "young-conv":
        p, q, r = _repaired_young(args.p if args.p is not None else 4.0 / 3.0,
                                  args.q if args.q is not None else 4.0 / 3.0,
                                  args.r if args.r is not None else 2.0)
        g = gaussian(Reference.LEBESGUE, 0.0, 1.0).to_grid(args.grid_l,
                                                           args.grid_n)
        for sigma in values:
            if sigma <= 0.0:
                raise NormalizationError(f"sigma must be positive, got {sigma}")
            f = gaussian(Reference.LEBESGUE, 0.0, sigma * sigma).to_grid(
                args.grid_l, args.grid_n)
            rep = check_young_convolution(f, g, p, q, r)
            yield sigma, rep.lhs, rep.rhs, rep.slack
        return
    if name == "shannon-limit":
        for s in values:
            c1, c2, c3 = shannon_limit_frame(s).weights
            lhs, rhs = c2, -4.0 * s
            yield s, lhs, rhs, rhs - lhs
        return
    raise NormalizationError(f"unknown sweep {name!r}")


def cmd_sweep(args):
    expected = SWEEP_PARAMS[args.check]
    if args.param != expected:
        raise NormalizationError(
            f"sweep {args.check} varies {expected!r}, not {args.param!r}")
    lo, sep, hi = args.range.partition(":")
    if not sep:
        raise NormalizationError(f"--range must be LO:HI, got {args.range!r}")
    try:
        lo, hi = float(lo), float(hi)
    except ValueError:
        raise NormalizationError(f"--range must be numeric, got {args.range!r}")
    if args.steps < 2:
        raise NormalizationError(f"--steps must be at least 2, got {args.steps}")
    values = np.linspace(lo, hi, args.steps)
    sink = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(["param", "lhs", "rhs", "slack"])
        for row in _sweep_rows(args, [float(v) for v in values]):
            writer.writerow([repr(float(v)) for v in row])
    finally:
        if args.out:
            sink.close()
    return EXIT_PASS


# === selftest command =====================================================

def cmd_selftest(args):
    results = run_selftest(only=args.only, grid_n=args.grid_n)
    return EXIT_PASS if all(r.passed for r in results) else EXIT_VIOLATED


# === parser ===============================================================

def build_parser():
    parser = argparse.ArgumentParser(
        prog="entroframe",
        description="Entropic inequalities driven by rank-one decompositions "
                    "of the 2d identity.",
        epilog=DENSITY_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    frame = sub.add_parser(
        "frame", help="construct a frame and print directions/weights/residual")
    frame.add_argument("--angles", help="three direction angles t1,t2,t3 (rad)")
    frame.add_argument("--weights", help="three weights c1,c2,c3 (rescaled to sum 2)")
    frame.add_argument("--exponents",
                       help="three exponents p1,p2,p3 with reciprocals summing to 2")
    frame.add_argument("--young", help="Young triple p,q,r with 1/p + 1/q = 1 + 1/r")
    frame.set_defaults(func=cmd_frame)

    check = sub.add_parser("check", help="run one inequality check, emit a JSON report",
                           formatter_class=argparse.RawDescriptionHelpFormatter,
                           epilog=DENSITY_HELP)
    check.add_argument("name", choices=sorted(CHECK_TABLE),
                       help="inequality to check")
    for slot in ("f", "g", "h", "f1", "f2", "f3"):
        check.add_argument(f"--{slot}", help=f"density spec for slot {slot}")
    check.add_argument("--p", type=float)
    check.add_argument("--q", type=float)
    check.add_argument("--r", type=float)
    check.add_argument("--theta", type=float, help="flow angle (rad)")
    check.add_argument("--exponents", help="exponent triple p1,p2,p3")
    check.add_argument("--frame-angles", help="frame by angles t1,t2,t3")
    check.add_argument("--frame-weights", help="frame by weights c1,c2,c3")
    check.add_argument("--reference", choices=("lebesgue", "gaussian"),
                       help="reference measure (fixed-reference checks reject "
                            "a conflicting flag)")
    check.add_argument("--tolerance", type=float,
                       help="override the check's default tolerance")
    check.add_argument("--grid-l", type=float, help="grid half-length")
    check.add_argument("--grid-n", type=int, help="grid point count (odd)")
    check.add_argument("--out", help="write the JSON report here instead of stdout")
    check.set_defaults(func=cmd_check)

    sweep = sub.add_parser("sweep", help="sweep one parameter, emit CSV rows")
    sweep.add_argument("--check", required=True, choices=sorted(SWEEP_PARAMS),
                       help="sweep target")
    sweep.add_argument("--param", required=True,
                       help="parameter name (theta | sigma | s)")
    sweep.add_argument("--range", required=True, help="LO:HI, inclusive")
    sweep.add_argument("--steps", type=int, default=50)
    sweep.add_argument("--f", help="density spec (hyper sweep)")
    sweep.add_argument("--p", type=float)
    sweep.add_argument("--q", type=float)
    sweep.add_argument("--r", type=float)
    sweep.add_argument("--grid-l", type=float)
    sweep.add_argument("--grid-n", type=int)
    sweep.add_argument("--out", help="write CSV here instead of stdout")
    sweep.set_defaults(func=cmd_sweep)

    selftest = sub.add_parser("selftest", help="run the acceptance corpus")
    selftest.add_argument("--only", choices=TAGS,
                          help="restrict to criteria with this tag")
    selftest.add_argument("--grid-n", type=int,
                          help="run on an N-point grid with scaled tolerances")
    selftest.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except EntroframeError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
