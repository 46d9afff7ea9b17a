"""Command-line front end: frames, inequality checks, sweeps, selftest.

Exit codes: 0 = pass, 1 = inequality violated beyond tolerance,
2 = input or validation error, or a grid too large for memory.  All angles are radians.  Densities are
given in a small inline language (see DENSITY_HELP); a `json:` Gaussian
stays in closed form where the whole check can take it, everything else
lands on the quadrature grid that --grid-l / --grid-n choose (2049 points
on [-10, 10] without them).
"""

import argparse
import csv
import sys
from contextlib import contextmanager, nullcontext
from functools import partial

import numpy as np

from .density import (
    DEFAULT_POINTS,
    ExpFunction,
    GaussianDensity,
    Reference,
    default_axis,
    gaussian,
    gaussian_mixture,
    independent_product,
    uniform_density,
)
from .density_io import load_csv_1d, load_csv_2d, load_json
from .errors import EntroframeError, NormalizationError, ReferenceMismatch
from .frames import (
    ExponentTriple,
    _hyper2_exponents,
    _snap_triple,
    conjugate_exponent,
    directions_from_weights,
    mercedes_frame,
    shannon_limit_frame,
    weights_from_directions,
)
from .functional import _norm_exponent
from .inequality import (
    _lsi_angle,
    _tolerance,
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
from .semigroup import _mehler_angle

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
  gaussmix:W,M,V;W,M,V   Gaussian mixture (positive weights, normalized)
  uniform:A,B            indicator of [A,B] smoothed by a sigma=0.05 kernel
  exp:A                  the test function exp(A t) (function slots only)
  csv:PATH               two-column x,f file
  json:PATH              parametric family with a 'reference' field; a
                         gaussian stays in closed form when every slot of the
                         check holds one and the check has no function slot,
                         and goes on the grid otherwise
density specs (2d):
  gauss2:M1,M2,V11,V12,V22   Gaussian with covariance [[V11,V12],[V12,V22]]
  product:SPEC+SPEC          independent product of two 1d specs
  csv2:PATH                  three-column x,y,f file (y cycles fastest)
  json:PATH                  as above with 2d parameters
"""


# === shared parsing helpers ===============================================

@contextmanager
def _flagged(flag):
    """Prefix flag to an input error raised inside, "--g: ...": in place, or anew for an
    OSError or a UnicodeError, whose message comes from its own fields."""
    try:
        yield
    except OSError as exc:
        raise OSError(f"{flag}: {exc}") from exc
    except UnicodeError as exc:
        raise NormalizationError(f"{flag}: {exc}") from exc
    except (EntroframeError, ValueError) as exc:
        exc.args = (f"{flag}: {exc}",)
        raise


def _floats(text, count):
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError:
        raise NormalizationError(f"could not parse {text!r}")
    if len(values) != count:
        raise NormalizationError(f"expected {count} comma-separated values, got {len(values)}")
    return values


# how a triple of each kind given on the command line becomes frame weights
# ("weights") or an exponent triple: (its triple of the values, the name of
# that triple in an error, if it is not the values themselves)
_TRIPLES = {
    "weights": (lambda *v: v, ""),
    "exponents": (lambda *v: v, ""),
    "young": (lambda p, q, r: (conjugate_exponent(r), p, q), "(r', p, q)"),
    "hyper2": (_hyper2_exponents, "(q', p, r)"),
}


def _repaired(values, kind):
    """The triple values on its constraint surface, the frame weights
    summing to 2, through the library's snap at REPAIR_TOL.

    kind "weights" is a triple of frame weights and comes back as one;
    "exponents" is their reciprocals, "young" a Young triple p, q, r, the
    exponent triple (r', p, q), and "hyper2" the pair p, r of two-function
    hypercontractivity, the exponent triple (q', p, r): these come back as
    an ExponentTriple; an error of the last two names the values given.
    """
    triple, name = _TRIPLES[kind]
    given = ",".join(f"{v:g}" for v in values) + f" as {name}"
    with _flagged(given) if name else nullcontext():
        snapped = _snap_triple(triple(*values), kind != "weights", REPAIR_TOL)
    return snapped if kind == "weights" else ExponentTriple(*snapped)


def _loaded(path, reference, dim, length, points):
    """The json: density at path, checked against the slot's reference and dim."""
    density = load_json(path, length, points)
    if density.reference is not reference:
        raise ReferenceMismatch(
            f"loaded density is {density.reference.value}-reference, "
            f"the check needs {reference.value}")
    actual = density.dim if isinstance(density, GaussianDensity) else len(density.axes)
    if actual != dim:
        raise ReferenceMismatch(f"needs a {dim}d density, got {actual}d")
    return density


def parse_density_1d(spec, reference, length, points, allow_exp=False):
    kind, _, rest = spec.partition(":")
    if kind == "gauss":
        m, v = _floats(rest, 2)
        return gaussian(reference, m, v).to_grid(length, points)
    if kind == "gaussmix":
        comps = [_floats(c, 3) for c in rest.split(";") if c]
        if not comps:
            raise NormalizationError("empty mixture spec")
        w, m, v = (list(col) for col in zip(*comps))
        for k, weight in enumerate(w, start=1):
            if not weight > 0.0:
                raise NormalizationError(f"mixture weight {k} must be positive, got {weight!r}")
            if not np.isfinite(weight):
                raise NormalizationError(f"mixture weight {k} must be finite, got {weight!r}")
        total = sum(w)
        return gaussian_mixture(reference, [x / total for x in w], m, v,
                                length=length, points=points)
    if kind == "uniform":
        if reference is not Reference.LEBESGUE:
            raise ReferenceMismatch("uniform is a Lebesgue-reference family")
        a, b = _floats(rest, 2)
        return uniform_density(a, b, length=length, points=points)
    if kind == "exp":
        if not allow_exp:
            raise NormalizationError(
                "exp: is a test function, not a density (for a gamma-reference "
                "density use gauss:A,1, which is exp(A t - A^2/2))")
        (a,) = _floats(rest, 1)
        return ExpFunction(a)
    if kind == "csv":
        return load_csv_1d(rest, reference)
    if kind == "json":
        return _loaded(rest, reference, 1, length, points)
    raise NormalizationError(f"unknown 1d density spec {spec!r}")


def _gridded(densities, length, points):
    """densities with each closed-form Gaussian put on the grid."""
    return [d.to_grid(length, points) if isinstance(d, GaussianDensity) else d
            for d in densities]


def parse_density_2d(spec, reference, length, points):
    kind, _, rest = spec.partition(":")
    if kind == "gauss2":
        m1, m2, v11, v12, v22 = _floats(rest, 5)
        return gaussian(reference, [m1, m2],
                        [[v11, v12], [v12, v22]]).to_grid(length, points)
    if kind == "product":
        left, sep, right = rest.partition("+")
        if not sep:
            raise NormalizationError("product needs SPEC+SPEC")
        return independent_product(*_gridded(
            [parse_density_1d(s, reference, length, points) for s in (left, right)],
            length, points))
    if kind == "csv2":
        return load_csv_2d(rest, reference)
    if kind == "json":
        return _loaded(rest, reference, 2, length, points)
    raise NormalizationError(f"unknown 2d density spec {spec!r}")


# === frame command ========================================================

def cmd_frame(args):
    given = [flag for flag in ("--angles", "--weights", "--exponents", "--young")
             if _arg(args, flag) is not None]
    if len(given) != 1:
        raise NormalizationError(
            f"frame needs exactly one of --angles | --weights | --exponents "
            f"| --young, got {given or 'none'}")
    flag = given[0]
    if flag in ("--exponents", "--young"):
        with _flagged(flag):
            triple = _repaired(_floats(_arg(args, flag), 3), flag.lstrip("-"))
        frame = directions_from_weights(*triple.weights())
    else:
        frame = _frame(args, "--angles", "--weights")
    print("directions (rad): " + " ".join(f"{t:.12f}" for t in frame.thetas))
    print("weights:          " + " ".join(f"{c:.12f}" for c in frame.weights))
    print(f"residual:         {frame.residual():.2e}")
    return EXIT_PASS


# === check command ========================================================

def _arg(args, flag):
    """The value of flag, None where args has no such field (a sweep row)."""
    return getattr(args, flag.lstrip("-").replace("-", "_"), None)


def _frame(args, angles="--frame-angles", weights="--frame-weights"):
    """The frame given by the angles or the weights flag, Mercedes by default."""
    by_angles, by_weights = _arg(args, angles), _arg(args, weights)
    if by_angles is not None and by_weights is not None:
        raise NormalizationError(f"give at most one of {angles} | {weights}")
    if by_angles is not None:
        with _flagged(angles):
            return weights_from_directions(*_floats(by_angles, 3))
    if by_weights is not None:
        with _flagged(weights):
            return directions_from_weights(*_repaired(_floats(by_weights, 3), "weights"))
    return mercedes_frame()


def _need(args, flag):
    value = _arg(args, flag)
    if value is None:
        raise NormalizationError(f"{args.name} needs {flag}")
    return value


def _exponents(args):
    text = _need(args, "--exponents")
    with _flagged("--exponents"):
        return _repaired(_floats(text, 3), "exponents")


def _young(args):
    """Young's p, q, r from --p, --q, --r, repaired as the exponent triple
    (r', p, q); r stays as given while its conjugate does."""
    flags = ("--p", "--q", "--r")
    p, q, r = (_need(args, f) for f in flags)
    with _flagged("/".join(flags)):
        t = _repaired((p, q, r), "young")
    return t.p2, t.p3, (r if t.p1 == conjugate_exponent(r) else conjugate_exponent(t.p1))


def _hyper2(args):
    """p and r of hyper2 from --p and --r, checked as the exponent triple
    (q', p, r).  That triple is built on its constraint surface, so p and r
    go on as given."""
    p, r = _need(args, "--p"), _need(args, "--r")
    with _flagged("--p/--r"):
        _repaired((p, r), "hyper2")
    return p, r


def _norm_exponents(args):
    """hyper's norm exponents --p and --q, each finite and >= 1; an error
    starts with its flag."""
    exponents = [_need(args, f) for f in ("--p", "--q")]
    for flag, value in zip(("--p", "--q"), exponents):
        with _flagged(flag):
            _norm_exponent(value)
    return exponents


# the parameter flags of `check`, and the sets of them that a check reads
_PARAMS = ("--p", "--q", "--r", "--theta", "--exponents", "--frame-angles", "--frame-weights")
_FRAME = ("--frame-angles", "--frame-weights")
_YOUNG = ("--p", "--q", "--r")

# one row per check: (slots, dim, fixed reference or None, exp-friendly,
# the _PARAMS it reads, run(args, densities, reference, grid) -> report).
# The exp-friendly checks have function slots, which evaluate their inputs
# at points.
CHECK_TABLE = {
    "subadditivity": (("f",), 2, None, False, _FRAME, lambda a, d, ref, grid:
                      check_subadditivity(_frame(a), *d, tolerance=a.tolerance)),
    "fisher": (("f",), 2, None, False, _FRAME, lambda a, d, ref, grid:
               check_fisher_subadditivity(_frame(a), *d, tolerance=a.tolerance)),
    "main-entropy": (("f",), 2, None, False, ("--exponents",), lambda a, d, ref, grid:
                     check_main_entropy(_exponents(a), *d, tolerance=a.tolerance)),
    "main-integral": (("g", "h"), 1, None, True, ("--exponents",), lambda a, d, ref, grid:
                      check_main_integral(_exponents(a), *d, reference=ref,
                                          tolerance=a.tolerance, **grid)),
    "young-conv": (("f", "g"), 1, Reference.LEBESGUE, False, _YOUNG, lambda a, d, ref, grid:
                   check_young_convolution(*d, *_young(a), tolerance=a.tolerance)),
    "young-entropy": (("f",), 2, Reference.LEBESGUE, False, _YOUNG, lambda a, d, ref, grid:
                      check_young_entropy(*d, *_young(a), tolerance=a.tolerance)),
    "shannon": (("g", "h"), 1, Reference.LEBESGUE, False, (), lambda a, d, ref, grid:
                check_shannon(*d, tolerance=a.tolerance)),
    "blachmann-stam": (("g", "h"), 1, Reference.LEBESGUE, False, (), lambda a, d, ref, grid:
                       check_blachmann_stam(*d, tolerance=a.tolerance)[0]),
    "hyper": (("f",), 1, Reference.GAUSSIAN, True, ("--p", "--q", "--theta"),
              lambda a, d, ref, grid: check_hypercontractivity(
                  *d, *_norm_exponents(a), a.theta, tolerance=a.tolerance, **grid)),
    "hyper2": (("g", "h"), 1, Reference.GAUSSIAN, True, ("--p", "--r"), lambda a, d, ref, grid:
               check_hyper_two_function(*d, *_hyper2(a), tolerance=a.tolerance, **grid)),
    "lsi": (("f",), 1, Reference.GAUSSIAN, False, (), lambda a, d, ref, grid:
            check_log_sobolev(*d, tolerance=a.tolerance)),
    "lsi-integrated": (("f",), 1, Reference.GAUSSIAN, False, ("--theta",),
                       lambda a, d, ref, grid:
                       check_integrated_lsi(*d, a.theta, tolerance=a.tolerance)),
    "brascamp-lieb": (("f1", "f2", "f3"), 1, None, True, _FRAME, lambda a, d, ref, grid:
                      check_brascamp_lieb(_frame(a), *d, reference=ref,
                                          tolerance=a.tolerance, **grid)),
}


# the library's rule for each check's --theta: P_theta's closed range, or the
# half-open one of the integrated log-Sobolev inequality
_THETA_RULES = {"hyper": _mehler_angle, "lsi-integrated": _lsi_angle}


def _run_check(args):
    slots, dim, fixed, allow_exp, params, run = CHECK_TABLE[args.name]
    # the flags that set no density are checked before any slot is parsed,
    # and so is every slot flag of another check
    others = [f"--{s}" for row in CHECK_TABLE.values() for s in row[0] if s not in slots]
    for flag in [*_PARAMS, *others]:
        if flag not in params and _arg(args, flag) is not None:
            raise NormalizationError(f"{flag}: {args.name} does not use it; drop it")
    with _flagged("--tolerance"):
        _tolerance(args.tolerance)
    if args.name in _THETA_RULES:
        theta = _need(args, "--theta")
        with _flagged("--theta"):
            _THETA_RULES[args.name](theta)
    if fixed is not None and args.reference not in (None, fixed.value):
        raise ReferenceMismatch(
            f"{args.name} is a {fixed.value}-reference inequality; "
            f"--reference {args.reference} conflicts")
    reference = fixed or Reference(args.reference or Reference.LEBESGUE)
    default = ("gauss2:0,0,1,0,1" if dim == 2
               else "exp:1" if args.name == "hyper" else "gauss:0,1")
    parse = (parse_density_2d if dim == 2
             else partial(parse_density_1d, allow_exp=allow_exp))
    grid = dict(length=args.grid_l, points=args.grid_n)
    with _flagged("--grid-l/--grid-n"):
        default_axis(**grid)
    # each slot parsed under its flag (_flagged decorates parse)
    densities = [_flagged(f"--{slot}")(parse)(getattr(args, slot) or default, reference, **grid)
                 for slot in slots]
    # closed-form Gaussians stay exact only when every slot holds one and none
    # is a function slot; otherwise they go on the grid
    if allow_exp or not all(isinstance(d, GaussianDensity) for d in densities):
        densities = _gridded(densities, args.grid_l, args.grid_n)
    return run(args, densities, reference, grid)


def cmd_check(args):
    report = _run_check(args)
    text = report.to_json() + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_PASS if report.passed else EXIT_VIOLATED


# === sweep command ========================================================

def _sigma_flags(sigma):
    """A young-conv row's --f: N(0, sigma^2), beside --g's default N(0, 1)."""
    if sigma <= 0.0:
        raise NormalizationError(f"sigma must be positive, got {sigma}")
    return {"f": f"gauss:0,{sigma * sigma!r}"}


# one row per sweep: (its parameter, the defaults of the exponent flags, what
# a row makes of the parameter's value, refusing a value its check refuses:
# the flags it sets, or shannon-limit's frame).  A row of hyper or young-conv
# is that check, run as `check` runs it; shannon-limit's rows are the middle
# weight of the Shannon limit frame against -4 s.
SWEEPS = {
    "hyper": ("theta", {"p": 2.0, "q": 4.0}, lambda theta: {"theta": _mehler_angle(theta)}),
    "young-conv": ("sigma", {"p": 4.0 / 3.0, "q": 4.0 / 3.0, "r": 2.0}, _sigma_flags),
    "shannon-limit": ("s", None, shannon_limit_frame),
}


def _sweep_row(args, value, made):
    """The row (value, lhs, rhs, slack) of the sweep args at value; made is
    what SWEEPS made of the value."""
    defaults = SWEEPS[args.check][1]
    if defaults is None:
        lhs, rhs = made.weights[1], -4.0 * value
        return value, lhs, rhs, rhs - lhs
    given = [f"--{flag}" for flag in made if getattr(args, flag, None) is not None]
    if given:
        raise NormalizationError(f"sweep {args.check} sets {given[0]} in every row; drop it")
    row = {"name": args.check, "reference": None, "tolerance": None, "g": None,
           **vars(args), **made}
    row.update((flag, d) for flag, d in defaults.items() if row[flag] is None)
    report = _run_check(argparse.Namespace(**row))
    return value, report.lhs, report.rhs, report.slack


def cmd_sweep(args):
    expected = SWEEPS[args.check][0]
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
    if not np.all(np.isfinite([lo, hi])):
        raise NormalizationError(f"--range ends must be finite, got {args.range!r}")
    if args.steps < 2:
        raise NormalizationError(f"--steps must be at least 2, got {args.steps}")
    values = [float(v) for v in np.linspace(lo, hi, args.steps)]
    # every value is checked before the first row runs, and every row is
    # computed before the sink opens: a failing sweep writes nothing
    with _flagged("--range"):
        made = [SWEEPS[args.check][2](v) for v in values]
    rows = [_sweep_row(args, v, m) for v, m in zip(values, made)]
    sink = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(["param", "lhs", "rhs", "slack"])
        writer.writerows([repr(float(v)) for v in row] for row in rows)
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
    for slot in dict.fromkeys(s for row in CHECK_TABLE.values() for s in row[0]):
        check.add_argument(f"--{slot}", help=f"density spec for slot {slot}")
    check.add_argument("--p", type=float)
    check.add_argument("--q", type=float)
    check.add_argument("--r", type=float)
    check.add_argument("--theta", type=float, help="flow angle (rad)")
    check.add_argument("--exponents", help="exponent triple p1,p2,p3")
    check.add_argument("--frame-angles", help="frame by angles t1,t2,t3")
    check.add_argument("--frame-weights", help="frame by weights c1,c2,c3")
    check.add_argument("--reference", choices=[r.value for r in Reference],
                       help="reference measure (fixed-reference checks reject "
                            "a conflicting flag)")
    check.add_argument("--tolerance", type=float,
                       help="override the check's default tolerance")
    check.add_argument("--grid-l", type=float, help="grid half-length")
    check.add_argument("--grid-n", type=int, help="grid point count (odd)")
    check.add_argument("--out", help="write the JSON report here instead of stdout")
    check.set_defaults(func=cmd_check)

    sweep = sub.add_parser("sweep", help="sweep one parameter, emit CSV rows")
    sweep.add_argument("--check", required=True, choices=sorted(SWEEPS),
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
    except (EntroframeError, OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        # a 2d density holds n x n doubles: name n, not the traceback
        points = getattr(args, "grid_n", None) or DEFAULT_POINTS
        print(f"out of memory on a grid of {points} points per axis; "
              f"choose a smaller --grid-n", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
