"""Command-line surface: frame resolution, check reports, sweeps, selftest.

Everything goes through main(argv) in-process; stdout/stderr are captured
with capsys.  Exit codes: 0 = inequality holds / command ok, 1 = inequality
violated, 2 = input error.
"""

import json
import math

import numpy as np
import pytest

from entroframe import cli
from entroframe.cli import CHECK_TABLE, main
from entroframe.density import ExpFunction, Reference, gaussian
from entroframe.density_io import density_from_spec
from entroframe.errors import ReferenceMismatch
from entroframe.frames import ExponentTriple, mercedes_frame, young_frame
from entroframe.inequality import (
    CHECK_NAMES,
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

MERCEDES_LINES = (
    "directions (rad): 0.000000000000 1.047197551197 2.094395102393",
    "weights:          0.666666666667 0.666666666667 0.666666666667",
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# === frame ================================================================

class TestFrameCommand:
    def test_weights_mercedes(self, capsys):
        code, out, err = run(capsys, "frame", "--weights",
                             "0.6667,0.6667,0.6667")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == MERCEDES_LINES[0]
        assert lines[1] == MERCEDES_LINES[1]
        assert lines[2].startswith("residual:")
        assert float(lines[2].split()[-1]) <= 1e-12

    def test_sector_violation_message(self, capsys):
        code, out, err = run(capsys, "frame", "--angles", "0,0.5236,0.7854")
        assert code == 2 and out == ""
        assert err == "--angles: sector violation: sector 3 measures 2.3562 ≥ π/2\n"

    @pytest.mark.parametrize("angles, message", [
        ("0,0.1,0.2", "sector violation: sector 3 measures 2.9416 ≥ π/2"),
        ("0,nan,2", "direction angle must be finite, got nan"),
        ("0,inf,2", "direction angle must be finite, got inf"),
    ], ids=["sector", "nan", "inf"])
    def test_angle_errors_name_their_flag(self, capsys, angles, message):
        code, out, frame_err = run(capsys, "frame", "--angles", angles)
        assert code == 2 and out == ""
        assert frame_err == f"--angles: {message}\n"
        code, out, err = run(capsys, "check", "subadditivity", "--frame-angles", angles,
                             "--grid-n", "129")
        assert code == 2 and out == ""
        assert err == f"--frame-angles: {message}\n"

    def test_young_routes_to_conjugate_exponents(self, capsys):
        code_y, out_y, _ = run(capsys, "frame", "--young", "1.3333,1.3333,2")
        code_e, out_e, _ = run(capsys, "frame", "--exponents",
                               "2,1.3333,1.3333")
        assert code_y == code_e == 0
        assert out_y == out_e

    def test_exactly_one_selector_required(self, capsys):
        code, _, err = run(capsys, "frame")
        assert code == 2 and "exactly one" in err
        code, _, err = run(capsys, "frame", "--weights", "0.6,0.6,0.8",
                           "--angles", "0,1,2")
        assert code == 2 and "exactly one" in err

    def test_wrong_value_count(self, capsys):
        code, _, err = run(capsys, "frame", "--weights", "0.5,0.5")
        assert code == 2 and "3 comma-separated values" in err

    def test_angles_round_trip(self, capsys):
        code, out, _ = run(capsys, "frame", "--angles", "0,0.9553,2.0")
        assert code == 0
        weights = [float(v) for v in out.splitlines()[1].split()[1:]]
        np.testing.assert_allclose(sum(weights), 2.0, atol=1e-9)

    @pytest.mark.parametrize("weights", ["0.5,0.5", "0.5,0.5,0.1", "0,1,1",
                                         "1.2,0.5,0.3", "nan,0.5,0.5"])
    def test_weight_errors_name_their_flag(self, capsys, weights):
        _, _, frame_err = run(capsys, "frame", "--weights", weights)
        code, out, err = run(capsys, "check", "subadditivity", "--frame-weights",
                             weights, "--grid-n", "129")
        assert frame_err.startswith("--weights: ")
        assert code == 2 and out == ""
        assert err == frame_err.replace("--weights", "--frame-weights", 1)

    def test_young_errors_name_their_flag_and_value(self, capsys):
        """r = inf has r' = 1: the error names the triple given, not only r'."""
        code, out, frame_err = run(capsys, "frame", "--young", "2,2,inf")
        assert code == 2 and out == ""
        assert frame_err.startswith("--young: 2,2,inf ")
        code, out, err = run(capsys, "check", "young-conv", "--p", "2", "--q", "2",
                             "--r", "inf", "--grid-n", "129")
        assert code == 2 and out == ""
        assert err == frame_err.replace("--young", "--p/--q/--r", 1)

    @pytest.mark.parametrize("argv, start", [
        (("check", "hyper", "--f", "exp:1", "--p", "0.5", "--q", "4", "--theta", "0.7"),
         "--p: norm exponent"),
        (("sweep", "--check", "hyper", "--param", "theta", "--range", "0.1:0.5",
          "--steps", "3", "--p", "0.5"), "--p: norm exponent"),
        (("check", "hyper2", "--p", "2", "--r", "2"), "--p/--r: 2,2 as (q', p, r): "),
    ])
    def test_hyper_exponent_errors_name_their_flag(self, capsys, argv, start):
        """hyper's norm exponents and hyper2's triple (q', p, r) follow the
        rule of the frame and Young triples."""
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(start), err

    def test_young_literals_repaired_alike(self, capsys):
        """frame --young and the Young checks rescale a rounded triple to the
        same exponent triple (r', p, q)."""
        code, out, _ = run(capsys, "frame", "--young", "1.3333,1.3333,2")
        args = cli.build_parser().parse_args(
            ["check", "young-conv", "--p", "1.3333", "--q", "1.3333", "--r", "2"])
        weights = young_frame(*cli._young(args)).weights
        assert code == 0
        assert out.splitlines()[1] == "weights:          " + " ".join(
            f"{c:.12f}" for c in weights)

    def test_output_is_deterministic(self, capsys):
        a = run(capsys, "frame", "--exponents", "2,1.3333,1.3333")
        b = run(capsys, "frame", "--exponents", "2,1.3333,1.3333")
        assert a == b


# === check ================================================================

class TestCheckCommand:
    def test_shannon_gaussian_pair(self, capsys):
        code, out, err = run(capsys, "check", "shannon",
                             "--g", "gauss:0,1", "--h", "gauss:0,4")
        assert code == 0 and err == ""
        report = json.loads(out)
        assert list(report) == ["name", "lhs", "rhs", "constant", "slack",
                                "tolerance", "inputs_digest"]
        assert report["name"] == "shannon"
        np.testing.assert_allclose(report["slack"], 0.5 * math.log(1.25),
                                   atol=1e-4)

    def test_hyper_below_threshold_violates(self, capsys):
        code, out, _ = run(capsys, "check", "hyper", "--f", "exp:1",
                           "--p", "2", "--q", "4", "--theta", "0.7")
        assert code == 1
        assert json.loads(out)["slack"] < 0.0

    def test_hyper_above_threshold_passes(self, capsys):
        code, out, _ = run(capsys, "check", "hyper", "--f", "exp:1",
                           "--p", "2", "--q", "4", "--theta", "1.2")
        assert code == 0
        assert json.loads(out)["slack"] > 0.0

    def test_hyper_large_exponent_prints_finite_json(self, capsys):
        """q = 200 past the threshold: |P_theta f|^200 overflows unless the
        norm is scaled; the report stays standard JSON (no Infinity)."""
        code, out, err = run(capsys, "check", "hyper", "--f", "exp:1", "--p", "2",
                             "--q", "200", "--theta", "0.1", "--grid-n", "513")
        assert code == 1 and err == ""

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")
        report = json.loads(out, parse_constant=reject)
        assert math.isfinite(report["lhs"]) and report["slack"] < 0.0

    def test_uniform_unresolved_edge_names_its_cause(self, capsys):
        """At 129 points the grid step 0.156 exceeds the uniform's fixed
        smoothing 0.05: the error says so and how many points resolve it."""
        code, out, err = run(capsys, "check", "shannon", "--g", "uniform:-1,1",
                             "--grid-n", "129")
        assert code == 2 and out == ""
        assert "deviates" in err
        assert "grid step 0.156 exceeds the smoothing 0.05" in err
        assert "401 points" in err
        code, out, _ = run(capsys, "check", "shannon", "--g", "uniform:-1,1",
                           "--grid-n", "401")
        assert code == 0 and json.loads(out)["slack"] > 0.0

    @pytest.mark.parametrize("length", ["inf", "-inf", "nan"])
    def test_grid_half_length_must_be_finite(self, capsys, length):
        code, out, err = run(capsys, "check", "shannon", f"--grid-l={length}")
        assert code == 2 and out == ""
        assert err == ("--grid-l/--grid-n: axis half-length must be positive and finite, "
                       f"got {length}\n")

    @pytest.mark.parametrize("grid", [(), ("--grid-n", "129")])
    def test_memory_exhaustion_is_an_input_error(self, capsys, monkeypatch, grid):
        """A grid too large for memory exits 2 with one line naming its size,
        not 1, the code of a violated inequality."""
        def exhausted(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(cli, "check_subadditivity", exhausted)
        code, out, err = run(capsys, "check", "subadditivity", *grid)
        points = grid[1] if grid else "2049"
        assert code == 2 and out == ""
        assert err == (f"out of memory on a grid of {points} points per axis; "
                       f"choose a smaller --grid-n\n")

    def test_tolerance_flag_overrides(self, capsys):
        code, out, _ = run(capsys, "check", "hyper", "--f", "exp:1",
                           "--p", "2", "--q", "4", "--theta", "0.7",
                           "--tolerance", "5")
        assert code == 0
        assert json.loads(out)["tolerance"] == 5.0

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1e-3"])
    def test_tolerance_must_be_finite_and_nonnegative(self, capsys, tolerance):
        """NaN and Infinity are not JSON: such a report is refused, not printed."""
        code, out, err = run(capsys, "check", "shannon", "--g", "gauss:0,1",
                             "--h", "gauss:0,1", "--grid-n", "129",
                             f"--tolerance={tolerance}")
        assert code == 2 and out == ""
        assert err == f"--tolerance: tolerance must be finite and >= 0, got {float(tolerance)!r}\n"

    @pytest.mark.parametrize("argv, message", [
        (("subadditivity", "--tolerance", "nan"),
         "--tolerance: tolerance must be finite and >= 0, got nan"),
        (("hyper", "--f", "exp:1", "--p", "2", "--q", "4", "--theta", "nan"),
         "--theta: theta must lie in [0, pi/2], got nan"),
        (("hyper", "--p", "2", "--q", "4", "--theta", "-0.1"),
         "--theta: theta must lie in [0, pi/2], got -0.1"),
        (("lsi-integrated", "--theta", "2"), "--theta: theta must lie in [0, pi/2), got 2.0"),
        (("lsi-integrated", "--theta", repr(math.pi / 2)),
         f"--theta: theta must lie in [0, pi/2), got {math.pi / 2!r}"),
    ])
    def test_flags_are_checked_before_any_slot(self, capsys, monkeypatch, argv, message):
        """--tolerance and --theta are refused under their flag, by the
        library's own rule, before any density is parsed or gridded."""
        def no_slot(*args, **kwargs):
            raise AssertionError("parsed a slot before checking the flags")
        monkeypatch.setattr(cli, "parse_density_1d", no_slot)
        monkeypatch.setattr(cli, "parse_density_2d", no_slot)
        code, out, err = run(capsys, "check", *argv)
        assert (code, out, err) == (2, "", message + "\n")

    @pytest.mark.parametrize("argv, message", [
        (("shannon", "--theta", "5", "--p", "0.1"), "--p: shannon does not use it; drop it"),
        (("lsi", "--theta", "9"), "--theta: lsi does not use it; drop it"),
        (("hyper", "--p", "2", "--q", "4", "--theta", "0.5", "--r", "3"),
         "--r: hyper does not use it; drop it"),
        (("subadditivity", "--exponents", "1.5,1.5,1.5"),
         "--exponents: subadditivity does not use it; drop it"),
        (("main-entropy", "--exponents", "1.5,1.5,1.5", "--frame-angles", "0,1,2"),
         "--frame-angles: main-entropy does not use it; drop it"),
        (("brascamp-lieb", "--frame-weights", "0.6667,0.6667,0.6667", "--q", "2"),
         "--q: brascamp-lieb does not use it; drop it"),
    ])
    def test_unused_parameter_flag_is_refused(self, capsys, monkeypatch, argv, message):
        """A parameter flag that the check does not read is refused by name,
        before any density is parsed, however valid its value."""
        def no_slot(*args, **kwargs):
            raise AssertionError("parsed a slot before checking the flags")
        monkeypatch.setattr(cli, "parse_density_1d", no_slot)
        monkeypatch.setattr(cli, "parse_density_2d", no_slot)
        code, out, err = run(capsys, "check", *argv)
        assert (code, out, err) == (2, "", message + "\n")

    @pytest.mark.parametrize("name, slot", [
        (name, slot) for name, row in CHECK_TABLE.items()
        for slot in ("f", "g", "h", "f1", "f2", "f3") if slot not in row[0]])
    def test_unused_slot_flag_is_refused(self, capsys, monkeypatch, name, slot):
        """A slot flag that the check does not read is refused by name, as an
        unused parameter flag is, before any slot is parsed, however invalid
        its spec: hyper2 reads --g and --h, so --f exp:nan is an error."""
        def no_slot(*args, **kwargs):
            raise AssertionError("parsed a slot before checking the flags")
        monkeypatch.setattr(cli, "parse_density_1d", no_slot)
        monkeypatch.setattr(cli, "parse_density_2d", no_slot)
        code, out, err = run(capsys, "check", name, f"--{slot}", "exp:nan")
        assert (code, out, err) == (2, "", f"--{slot}: {name} does not use it; drop it\n")

    def test_flags_that_set_no_parameter_stay_accepted(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "check", "shannon", "--reference", "lebesgue",
                           "--tolerance", "5", "--grid-l", "8", "--grid-n", "129",
                           "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["tolerance"] == 5.0

    def test_hyper_takes_theta_up_to_pi_over_2(self, capsys):
        """P_theta's range is closed: hyper runs at theta = pi/2, where
        lsi-integrated's half-open range refuses it."""
        code, out, _ = run(capsys, "check", "hyper", "--p", "2", "--q", "4",
                           "--theta", repr(math.pi / 2), "--grid-n", "129")
        assert code == 0 and json.loads(out)["name"] == "hyper"

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1e-3])
    def test_library_refuses_the_same_tolerances(self, tolerance):
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            check_shannon(_g1(LEB), _g1(LEB), tolerance=tolerance)

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "check", "shannon", "--g", "gauss:0,1",
                           "--h", "gauss:0,4", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["name"] == "shannon"

    def test_mixture_spec(self, capsys):
        code, out, _ = run(capsys, "check", "shannon",
                           "--g", "gaussmix:0.5,-1,0.5;0.5,1,0.5",
                           "--h", "gauss:0,1")
        assert code == 0
        assert json.loads(out)["slack"] > 0.0

    @pytest.mark.parametrize("spec", ["gaussmix:0,0,1", "gaussmix:1,0,1;-1,0,1"])
    def test_mixture_weights_summing_to_zero(self, capsys, spec):
        """A zero total has a weight <= 0, which is named before any normalizing."""
        code, out, err = run(capsys, "check", "shannon", "--g", spec, "--grid-n", "129")
        assert code == 2 and out == ""
        k, w = (1, 0.0) if spec == "gaussmix:0,0,1" else (2, -1.0)
        assert err == f"--g: mixture weight {k} must be positive, got {w!r}\n"

    @pytest.mark.parametrize("spec, k", [("gaussmix:inf,0,1", 1),
                                         ("gaussmix:1,0,1;inf,1,1", 2)])
    def test_mixture_infinite_weight_is_named(self, capsys, spec, k):
        """Normalizing by an infinite total would give NaN or zero weights;
        the infinite weight is named as given, before any normalizing."""
        code, out, err = run(capsys, "check", "shannon", "--g", spec, "--grid-n", "129")
        assert code == 2 and out == ""
        assert err == f"--g: mixture weight {k} must be finite, got inf\n"

    def test_mixture_zero_weight_is_named(self, capsys):
        code, out, err = run(capsys, "check", "shannon", "--g", "gaussmix:1,0,1;0,5,1",
                             "--grid-n", "129")
        assert code == 2 and out == ""
        assert err == "--g: mixture weight 2 must be positive, got 0.0\n"

    def test_mixture_negative_weights_refused(self, capsys):
        """All-negative weights would normalize to a valid mixture; they are refused."""
        code, out, err = run(capsys, "check", "shannon", "--g", "gaussmix:-2,0,1;-1,3,1",
                             "--grid-n", "513")
        assert code == 2 and out == ""
        assert err == "--g: mixture weight 1 must be positive, got -2.0\n"

    @pytest.mark.parametrize("spec, message", [
        ({"family": "uniform"}, "uniform needs field 'a'"),
        ({"family": "uniform", "a": -1, "b": "x"},
         "uniform field 'b' must be numeric, got 'x'"),
        ({"family": "gaussian_mixture",
          "components": [{"weight": 0.5, "mean": -1}, {"weight": 0.5, "mean": 1, "variance": 1}]},
         "gaussian_mixture component 1 needs field 'variance'"),
        ({"family": "gaussian_mixture", "components": 5},
         "gaussian_mixture needs a nonempty 'components' list, got 5"),
        ({"family": "gaussian_mixture", "components": [5]},
         "gaussian_mixture component 1 must be an object, got 5"),
        ({"family": "gaussian", "mean": {"x": 1}},
         "gaussian field 'mean' must be numeric, got {'x': 1}"),
    ], ids=["missing-a", "bad-b", "missing-variance", "components-5", "component-5",
            "gaussian-mean"])
    def test_malformed_json_spec_is_an_input_error(self, capsys, tmp_path, spec, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "check", "shannon", "--g", f"json:{path}",
                             "--grid-n", "129")
        assert (code, out, err) == (2, "", f"--g: {message}\n")

    def test_exp_rejected_in_density_slot(self, capsys):
        code, _, err = run(capsys, "check", "shannon",
                           "--g", "gauss:0,1", "--h", "exp:1")
        assert code == 2
        assert "test function, not a density" in err
        assert "gauss:A,1" in err

    @pytest.mark.parametrize("rate", ["nan", "inf", "-inf"])
    def test_exp_rate_must_be_finite(self, capsys, rate):
        """A non-finite rate is refused by ExpFunction, under the slot's flag,
        before a grid sees the non-finite values it would give."""
        code, out, err = run(capsys, "check", "hyper", "--f", f"exp:{rate}",
                             "--p", "2", "--q", "4", "--theta", "0.7")
        assert (code, out) == (2, "")
        assert err == f"--f: exp rate must be finite, got {float(rate)!r}\n"

    def test_bad_spec_count(self, capsys):
        code, _, err = run(capsys, "check", "shannon", "--g", "gauss:0")
        assert code == 2 and "expected 2 comma-separated values" in err

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "check", "shannon", "--g", "cauchy:0,1")
        assert code == 2

    def test_missing_csv_file(self, capsys):
        code, _, err = run(capsys, "check", "shannon", "--g", "csv:/nonexistent")
        assert code == 2

    def test_reference_conflict(self, capsys):
        code, _, err = run(capsys, "check", "lsi",
                           "--reference", "lebesgue")
        assert code == 2 and "conflicts" in err

    def test_defaults_fill_slots(self, capsys):
        code, out, _ = run(capsys, "check", "subadditivity")
        assert code == 0
        assert json.loads(out)["name"] == "subadditivity"

    def test_report_is_deterministic(self, capsys):
        a = run(capsys, "check", "blachmann-stam",
                "--g", "gauss:0,1", "--h", "gauss:0,4")
        b = run(capsys, "check", "blachmann-stam",
                "--g", "gauss:0,1", "--h", "gauss:0,4")
        assert a == b and a[0] == 0


# One run per check: default slots, the fewest parameters the check needs,
# and the library call the CLI should make on the same densities.
LEB, GAM = Reference.LEBESGUE, Reference.GAUSSIAN
YOUNG = ("--p", "2", "--q", "1.6", "--r", "8")  # left unchanged by the CLI repair
EXPONENTS = ("--exponents", "1.5,1.5,1.5")


def _g1(reference):
    return gaussian(reference, 0.0, 1.0).to_grid(points=129)


def _g2():
    return gaussian(LEB, [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]).to_grid(points=129)


EVERY_CHECK = {
    "subadditivity": ((), lambda: check_subadditivity(mercedes_frame(), _g2())),
    "fisher": ((), lambda: check_fisher_subadditivity(mercedes_frame(), _g2())),
    "main-entropy": (EXPONENTS, lambda: check_main_entropy(
        ExponentTriple(1.5, 1.5, 1.5), _g2())),
    "main-integral": (EXPONENTS, lambda: check_main_integral(
        ExponentTriple(1.5, 1.5, 1.5), _g1(LEB), _g1(LEB), points=129)),
    "young-conv": (YOUNG, lambda: check_young_convolution(
        _g1(LEB), _g1(LEB), 2.0, 1.6, 8.0)),
    "young-entropy": (YOUNG, lambda: check_young_entropy(_g2(), 2.0, 1.6, 8.0)),
    "shannon": ((), lambda: check_shannon(_g1(LEB), _g1(LEB))),
    "blachmann-stam": ((), lambda: check_blachmann_stam(_g1(LEB), _g1(LEB))[0]),
    "hyper": (("--p", "2", "--q", "4", "--theta", "1.2"),
              lambda: check_hypercontractivity(ExpFunction(1.0), 2.0, 4.0, 1.2,
                                               points=129)),
    "hyper2": (("--p", "1.5", "--r", "1.5"), lambda: check_hyper_two_function(
        _g1(GAM), _g1(GAM), 1.5, 1.5, points=129)),
    "lsi": ((), lambda: check_log_sobolev(_g1(GAM))),
    "lsi-integrated": (("--theta", "0.5"), lambda: check_integrated_lsi(_g1(GAM), 0.5)),
    "brascamp-lieb": ((), lambda: check_brascamp_lieb(
        mercedes_frame(), _g1(LEB), _g1(LEB), _g1(LEB), points=129)),
}


class TestEveryCheck:
    def test_table_covers_the_library(self):
        assert tuple(CHECK_TABLE) == CHECK_NAMES == tuple(EVERY_CHECK)

    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_report_is_the_library_call(self, capsys, name):
        params, library = EVERY_CHECK[name]
        code, out, err = run(capsys, "check", name, *params, "--grid-n", "129")
        expected = library()
        assert err == ""
        assert code == (0 if expected.passed else 1)
        assert json.loads(out) == expected.to_dict()


def _write_json(path, spec):
    path.write_text(json.dumps(spec))
    return f"json:{path}"


class TestJsonGaussians:
    """A json: Gaussian is gridded unless the whole check can stay exact."""

    @pytest.mark.parametrize("name, slot, reference, params", [
        ("shannon", "--g", "lebesgue", ()),
        ("hyper", "--f", "gaussian", ("--p", "2", "--q", "4", "--theta", "1.2")),
        ("main-integral", "--g", "lebesgue", EXPONENTS),
        ("brascamp-lieb", "--f1", "lebesgue", ()),
    ])
    def test_gridded_like_the_inline_spec(self, capsys, tmp_path, name, slot,
                                          reference, params):
        spec = _write_json(tmp_path / "g.json", {
            "family": "gaussian", "mean": 0, "variance": 1, "reference": reference})
        args = ("check", name, *params, "--grid-n", "129")
        from_json = run(capsys, *args, slot, spec)
        inline = run(capsys, *args, slot, "gauss:0,1")
        assert from_json == inline and inline[0] == 0

    def test_product_factor_gridded_like_the_inline_spec(self, capsys, tmp_path):
        spec = _write_json(tmp_path / "g.json", {"family": "gaussian", "mean": 0, "variance": 1})
        args = ("check", "subadditivity", "--grid-n", "129", "--f")
        from_json = run(capsys, *args, f"product:{spec}+gauss:0,1")
        inline = run(capsys, *args, "product:gauss:0,1+gauss:0,1")
        assert from_json == inline and inline[0] == 0

    def test_two_slot_check_stays_exact(self, capsys, tmp_path):
        g = _write_json(tmp_path / "g.json", {"family": "gaussian", "mean": 0, "variance": 1})
        h = _write_json(tmp_path / "h.json", {"family": "gaussian", "mean": 0, "variance": 4})
        code, out, _ = run(capsys, "check", "shannon", "--g", g, "--h", h,
                           "--grid-n", "129")
        expected = check_shannon(gaussian(LEB, 0.0, 1.0), gaussian(LEB, 0.0, 4.0))
        assert code == 0 and json.loads(out) == expected.to_dict()

    def test_young_convolution_stays_exact(self, capsys, tmp_path):
        f = _write_json(tmp_path / "f.json", {"family": "gaussian", "mean": 0, "variance": 2})
        g = _write_json(tmp_path / "g.json", {"family": "gaussian", "mean": 0, "variance": 1})
        code, out, _ = run(capsys, "check", "young-conv", "--f", f, "--g", g,
                           "--p", "1.5", "--q", "1.2", "--r", "2")
        report = json.loads(out)
        assert code == 0
        assert report == check_young_convolution(
            gaussian(LEB, 0.0, 2.0), gaussian(LEB, 0.0, 1.0), 1.5, 1.2, 2.0).to_dict()
        assert abs(report["slack"]) / report["rhs"] <= 1e-12

    def test_2d_check_stays_exact(self, capsys, tmp_path):
        f = _write_json(tmp_path / "f.json", {
            "family": "gaussian", "mean": [0, 0], "covariance": [[4, 0], [0, 1]]})
        code, out, _ = run(capsys, "check", "subadditivity", "--f", f,
                           "--grid-n", "129")
        report = json.loads(out)
        assert code == 0
        assert report == check_subadditivity(
            mercedes_frame(), gaussian(LEB, [0, 0], [[4, 0], [0, 1]])).to_dict()
        assert abs(report["slack"] - math.log(49 / 32) / 3) < 1e-12


def test_uniform_over_gamma_is_one_error_from_either_spec(capsys, tmp_path):
    """Uniform is Lebesgue-only: an inline and a JSON spec over gamma raise
    the same ReferenceMismatch, and the CLI gives both the same message."""
    for make in (lambda: density_from_spec({"family": "uniform", "a": -1, "b": 1,
                                            "reference": "gaussian"}),
                 lambda: cli.parse_density_1d("uniform:-1,1", GAM, None, 129)):
        with pytest.raises(ReferenceMismatch, match="^uniform is a Lebesgue-reference family$"):
            make()
    spec = _write_json(tmp_path / "u.json", {"family": "uniform", "a": -1, "b": 1,
                                             "reference": "gaussian"})
    for slot in (spec, "uniform:-1,1"):
        assert run(capsys, "check", "lsi", "--f", slot, "--grid-n", "129") \
            == (2, "", "--f: uniform is a Lebesgue-reference family\n")


class TestCsvLoaders:
    def test_csv_file_matches_inline_spec(self, capsys, tmp_path):
        g = _g1(LEB)
        path = tmp_path / "g.csv"
        path.write_text("x,f\n" + "".join(
            f"{x!r},{v!r}\n" for x, v in zip(g.x.tolist(), g.values.tolist())))
        args = ("check", "shannon", "--h", "gauss:0,4", "--grid-n", "129")
        assert run(capsys, *args, "--g", f"csv:{path}") == \
            run(capsys, *args, "--g", "gauss:0,1")

    def test_csv2_file_matches_inline_spec(self, capsys, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(self._csv2(_g2()))
        args = ("check", "subadditivity", "--grid-n", "129")
        assert run(capsys, *args, "--f", f"csv2:{path}") == \
            run(capsys, *args, "--f", "gauss2:0,0,1,0,1")

    @staticmethod
    def _csv2(f, order=None):
        """f's rows, x outer and y inner, or rearranged by order(cells)."""
        values = f.values.tolist()
        cells = [(x, y, values[i][j]) for i, x in enumerate(f.x.tolist())
                 for j, y in enumerate(f.y.tolist())]
        if order is not None:
            cells = order(cells)
        return "x,y,f\n" + "".join(f"{x!r},{y!r},{v!r}\n" for x, y, v in cells)

    @pytest.mark.parametrize("kind, text, message", [
        ("csv", "t,f\n0,1\n", "expected header 'x,f'"),
        ("csv", "x,f\n", "no data rows"),
        ("csv", "x,f\n0,1\n1\n", "row ['1'] has fewer than 2 values"),
        ("csv", "x,f\n0,1,999\n1,1\n", "row ['0', '1', '999'] has more than 2 values"),
        ("csv2", "x,y,f\n0,0,1\n0,1,1,0\n", "row ['0', '1', '1', '0'] has more than 3 values"),
        ("csv2", "x,y\n0,0\n", "expected header 'x,y,f'"),
        ("csv2", "x,y,f\n0,0,1\n0,1,1\n1,0,1\n", "do not tile a 2 x 2 grid"),
    ])
    def test_malformed_file(self, capsys, tmp_path, kind, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        name, slot = ("shannon", "--g") if kind == "csv" else ("subadditivity", "--f")
        code, out, err = run(capsys, "check", name, slot, f"{kind}:{path}")
        assert code == 2 and out == "" and message in err

    @pytest.mark.parametrize("kind, name, slot", [
        ("csv", "shannon", "--g"),
        ("csv2", "subadditivity", "--f"),
        ("json", "shannon", "--h"),
    ])
    def test_undecodable_file_names_its_slot(self, capsys, tmp_path, kind, name, slot):
        path = tmp_path / "binary"
        path.write_bytes(b"x,f\n\xc0\xff\x00\n")
        code, out, err = run(capsys, "check", name, slot, f"{kind}:{path}")
        assert code == 2 and out == ""
        assert err.startswith(f"{slot}: 'utf-8' codec can't decode byte 0xc0")

    @pytest.mark.parametrize("kind, name, slot", [
        ("csv", "shannon", "--g"),
        ("csv2", "subadditivity", "--f"),
        ("json", "shannon", "--h"),
    ])
    def test_missing_file_names_its_slot(self, capsys, tmp_path, kind, name, slot):
        path = tmp_path / "missing"
        code, out, err = run(capsys, "check", name, slot, f"{kind}:{path}")
        assert code == 2 and out == ""
        assert err == f"{slot}: [Errno 2] No such file or directory: '{path}'\n"

    def test_csv2_needs_y_cycling_fastest(self, capsys, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(self._csv2(
            _g2(), lambda cells: sorted(cells, key=lambda c: (c[1], c[0]))))
        code, out, err = run(capsys, "check", "subadditivity", "--grid-n", "129",
                             "--f", f"csv2:{path}")
        assert code == 2 and out == ""
        assert "rows must be row-major in x (y cycles fastest)" in err

    @pytest.mark.parametrize("order", [
        lambda cells: sorted(cells, key=lambda c: (-c[0], c[1])),
        lambda cells: cells[:129] + cells[129:258][::-1] + cells[258:],
    ], ids=["x-descending", "later-y-block-reversed"])
    def test_csv2_rows_must_all_be_in_place(self, capsys, tmp_path, order):
        """Not only the first y block: a file with x running backwards
        loaded mirrored, N((-1, 0), I) for N((1, 0), I), and exited 0."""
        path = tmp_path / "f.csv"
        path.write_text(self._csv2(_g2(), order))
        code, out, err = run(capsys, "check", "subadditivity", "--grid-n", "129",
                             "--f", f"csv2:{path}")
        assert code == 2 and out == ""
        assert "rows must be row-major in x (y cycles fastest)" in err


# === sweep ================================================================

class TestSweepCommand:
    def test_hyper_theta_sweep(self, capsys):
        code, out, _ = run(capsys, "sweep", "--check", "hyper",
                           "--param", "theta", "--f", "exp:1",
                           "--p", "2", "--q", "4",
                           "--range", "0.8:1.1", "--steps", "7")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "param,lhs,rhs,slack"
        assert len(lines) == 8
        slacks = [float(line.split(",")[3]) for line in lines[1:]]
        # sign change brackets the threshold acos sqrt(1/3) ~ 0.9553
        assert slacks[3] < 0.0 < slacks[4]

    def test_row_refuses_a_flag_its_check_does_not_use(self, capsys):
        """A hyper row is check hyper, which does not read --r."""
        code, out, err = run(capsys, "sweep", "--check", "hyper", "--param", "theta",
                             "--range", "0.1:0.5", "--steps", "3", "--r", "2",
                             "--grid-n", "129")
        assert (code, out, err) == (2, "", "--r: hyper does not use it; drop it\n")

    def test_young_conv_sigma_sweep_dips_at_one(self, capsys):
        code, out, _ = run(capsys, "sweep", "--check", "young-conv",
                           "--param", "sigma",
                           "--range", "0.6:1.4", "--steps", "5")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        slacks = [abs(float(r[3])) for r in rows]
        assert min(slacks) == slacks[2]
        assert slacks[2] <= 1e-12

    def test_negative_range_shannon_limit(self, capsys):
        code, out, _ = run(capsys, "sweep", "--check", "shannon-limit",
                           "--param", "s", "--range=-0.01:-0.001",
                           "--steps", "4")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 4
        for r in rows:
            assert all(math.isfinite(float(v)) for v in r)

    def test_flag_set_by_every_row_is_refused(self, capsys):
        """A young-conv row sets --f to N(0, sigma^2): a given --f is refused,
        not overwritten."""
        code, out, err = run(capsys, "sweep", "--check", "young-conv", "--param", "sigma",
                             "--range", "0.5:1", "--steps", "2", "--f", "gauss:0,9",
                             "--grid-n", "129")
        assert (code, out) == (2, "")
        assert err == "sweep young-conv sets --f in every row; drop it\n"

    def test_param_name_must_match(self, capsys):
        code, _, err = run(capsys, "sweep", "--check", "hyper",
                           "--param", "sigma", "--range", "0.5:2")
        assert code == 2 and "varies 'theta'" in err

    def test_out_writes_csv(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run(capsys, "sweep", "--check", "hyper",
                           "--param", "theta", "--range", "1.0:1.2",
                           "--steps", "3", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().splitlines()[0] == "param,lhs,rhs,slack"

    def test_failing_sweep_prints_nothing(self, capsys):
        """sigma = 0 is refused: no header and no row is printed."""
        code, out, err = run(capsys, "sweep", "--check", "young-conv",
                             "--param", "sigma", "--range=1:-1", "--steps", "3")
        assert code == 2 and out == "" and "sigma must be positive" in err

    @pytest.mark.parametrize("check, param, span, message", [
        ("young-conv", "sigma", "0.5:inf", "--range ends must be finite, got '0.5:inf'"),
        ("hyper", "theta", "nan:1", "--range ends must be finite, got 'nan:1'"),
        ("shannon-limit", "s", "-0.01:nan", "--range ends must be finite, got '-0.01:nan'"),
        ("hyper", "theta", "1.2:1.8", "--range: theta must lie in [0, pi/2], got 1.8"),
        ("young-conv", "sigma", "1:-1", "--range: sigma must be positive, got 0.0"),
        ("shannon-limit", "s", "-0.01:0.01",
         "--range: sector violation: sector 3 measures 1.5708 ≥ π/2"),
    ])
    def test_range_is_checked_before_the_first_row(self, capsys, monkeypatch,
                                                   check, param, span, message):
        """A non-finite end, or a row value that its check refuses, is named
        as --range before any row runs."""
        def no_row(*args):
            raise AssertionError("ran a row before checking --range")
        monkeypatch.setattr(cli, "_sweep_row", no_row)
        code, out, err = run(capsys, "sweep", "--check", check, "--param", param,
                             f"--range={span}", "--steps", "3")
        assert (code, out, err) == (2, "", message + "\n")

    def test_failing_sweep_leaves_out_untouched(self, capsys, tmp_path):
        """theta = 1.8 is past pi/2: --out is neither created nor truncated."""
        target = tmp_path / "part.csv"
        args = ("sweep", "--check", "hyper", "--param", "theta", "--f", "exp:1",
                "--range", "1.2:1.8", "--steps", "3", "--out", str(target))
        assert run(capsys, *args)[0] == 2
        assert not target.exists()
        target.write_text("kept\n")
        assert run(capsys, *args)[0] == 2
        assert target.read_text() == "kept\n"

    @pytest.mark.parametrize("check, f, params", [
        ("hyper", "exp:1", ()),
        ("hyper", "exp:1", ("--p", "1.5", "--q", "3")),
        ("hyper", "gauss:0.5,1", ("--p", "2", "--q", "4")),
        ("hyper", "json", ("--p", "2", "--q", "4")),
        ("young-conv", None, ()),
        ("young-conv", None, ("--p", "2", "--q", "1.6", "--r", "8")),
    ])
    def test_rows_are_the_check(self, capsys, tmp_path, check, f, params):
        """Each row is the report of `check` on the same flags, bit for bit;
        a json: Gaussian goes on the grid as it does there.  hyper takes
        p, q = 2, 4 and young-conv p, q, r = 4/3, 4/3, 2 when not given."""
        if f == "json":
            f = _write_json(tmp_path / "g.json", {"family": "gaussian", "mean": 0.5,
                                                  "variance": 1, "reference": "gaussian"})
        param, defaults = (("theta", ("--p", "2", "--q", "4")) if check == "hyper" else
                           ("sigma", ("--p", repr(4 / 3), "--q", repr(4 / 3), "--r", "2")))
        grid = ("--grid-n", "129")
        code, out, err = run(capsys, "sweep", "--check", check, "--param", param,
                             "--range", "0.8:1.2", "--steps", "3", *params, *grid,
                             *(("--f", f) if f else ()))
        assert code == 0 and err == ""
        for row in out.splitlines()[1:]:
            value, lhs, rhs, slack = row.split(",")
            slot = (("--f", f, "--theta", value) if check == "hyper" else
                    ("--f", f"gauss:0,{float(value) ** 2!r}"))
            _, report, _ = run(capsys, "check", check, *slot, *(params or defaults), *grid)
            report = json.loads(report)
            assert [float(lhs), float(rhs), float(slack)] == \
                [report["lhs"], report["rhs"], report["slack"]]

    def test_sweep_is_deterministic(self, capsys):
        args = ("sweep", "--check", "young-conv", "--param", "sigma",
                "--range", "0.8:1.2", "--steps", "3")
        assert run(capsys, *args) == run(capsys, *args)


# === selftest =============================================================

class TestSelftestCommand:
    def test_only_frames_passes(self, capsys):
        code, out, _ = run(capsys, "selftest", "--only", "frames")
        assert code == 0
        assert "criterion  1 PASS" in out
        assert "criterion  2 PASS" in out
        assert out.splitlines()[-1] == "2/2 criteria passed"


# === top level ============================================================

class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_no_command_is_input_error(self, capsys):
        assert run(capsys)[0] == 2

    def test_unknown_command_is_input_error(self, capsys):
        assert run(capsys, "bogus")[0] == 2
