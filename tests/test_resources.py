"""Resource use of the grid quadratures on the default grid (n = 2049).

Each test runs its calls in a child process, so the measurements see only
that child: its CPU time against its wall time, and its peak resident set.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import entroframe
from entroframe.cli import CHECK_TABLE

try:
    import resource
except ImportError:  # not on every platform
    resource = None

# ru_maxrss is in kilobytes on Linux and in bytes on macOS
RSS_UNIT = 1 if sys.platform == "darwin" else 1024

# Inputs shared by both children: three Lebesgue grid densities, the
# extremizer pair of a triple in both references, and two
# Gaussian-reference grid densities, all on the default grid.
INPUTS = """
    from entroframe import (ExpFunction, ExponentTriple, GaussianExtremizer,
                            Reference, check_brascamp_lieb,
                            check_hyper_two_function, check_hypercontractivity,
                            check_main_integral, entropy, fisher, gaussian,
                            mercedes_frame)
    LEB, GAM = Reference.LEBESGUE, Reference.GAUSSIAN
    fs = [gaussian(LEB, 0.1 * k, 1.0 + 0.5 * k).to_grid() for k in range(3)]
    t = ExponentTriple(1.5, 1.5, 1.5)
    ext = GaussianExtremizer(0.8, 0.3, -0.2)
    gs = [gaussian(GAM, 0.2 * k, 1.0).to_grid() for k in range(2)]
    frame_checks = {
        "brascamp-lieb": lambda: check_brascamp_lieb(mercedes_frame(), *fs),
        "main-integral lebesgue": lambda: check_main_integral(t, *ext.pair(t, LEB), LEB),
        "main-integral gaussian": lambda: check_main_integral(t, *ext.pair(t, GAM), GAM),
        "hyper2": lambda: check_hyper_two_function(*gs, 1.5, 1.5),
    }
"""


# the flags each check requires beside its default slots
REQUIRED_FLAGS = {
    "main-entropy": ("--exponents", "1.5,1.5,1.5"),
    "main-integral": ("--exponents", "1.5,1.5,1.5"),
    "young-conv": ("--p", "2", "--q", "1.6", "--r", "8"),
    "young-entropy": ("--p", "2", "--q", "1.6", "--r", "8"),
    "hyper": ("--p", "2", "--q", "4", "--theta", "1.2"),
    "hyper2": ("--p", "1.5", "--r", "1.5"),
    "lsi-integrated": ("--theta", "0.5"),
}


def run_child(body, inputs=INPUTS):
    """Run inputs then body in a fresh interpreter; return its stdout lines."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(entroframe.__file__)))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = textwrap.dedent(inputs) + textwrap.dedent(body)
    done = subprocess.run([sys.executable, "-c", script], env=env, timeout=300,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


class TestResources:
    def test_grid_quadratures_run_on_one_thread(self):
        """A process that runs on one thread cannot use more CPU time than
        wall time, whatever the host load.  A contraction through BLAS ran
        on its thread pool, whose threads kept spinning after each call:
        CPU time 1.4-2.0 times the wall time.  The sheared marginals filter
        their lines with np.correlate and add them on one lattice;
        linear_combination and the frame checks on grid factors fold the
        copies of one line into a comb per lattice phase and correlate the
        line with it by a real FFT, where a long np.correlate would run
        through numpy's dot, which can reach BLAS.  They are held to the
        same bound, and so are the 2d blur-path flows, whose FFTs also carry
        the spline prefilter."""
        lines = run_child("""
            import time
            from entroframe import heat_flow, linear_combination, marginal, ou_flow
            f2 = gaussian(GAM, [0.2, -0.1], [[1.1, 0.2], [0.2, 0.8]]).to_grid()
            l2 = gaussian(LEB, [0.2, -0.1], [[1.1, 0.2], [0.2, 0.8]]).to_grid()
            calls = dict(frame_checks,
                         hyper=lambda: check_hypercontractivity(ExpFunction(1.0), 2.0, 4.0, 0.7),
                         entropy2d=lambda: entropy(f2),
                         fisher2d=lambda: fisher(f2),
                         marginal_gaussian=lambda: marginal(f2, 1.0),
                         marginal_lebesgue=lambda: marginal(l2, 1.0),
                         linear_combination=lambda: linear_combination(fs[0], fs[1], 0.8, 0.6),
                         heat_flow2d=lambda: heat_flow(l2, 0.1),
                         ou_flow2d=lambda: ou_flow(f2, 0.5))
            for name, call in calls.items():
                cpu, wall = time.process_time(), time.perf_counter()
                call()
                cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
                print(f"{name}:{cpu!r}:{wall!r}")
        """)
        assert len(lines) == 12
        for line in lines:
            name, cpu, wall = line.split(":")
            assert float(cpu) <= 1.05 * float(wall) + 0.010, line

    @pytest.mark.skipif(resource is None, reason="needs the resource module")
    def test_frame_checks_hold_no_square_array(self):
        """Each frame check raises the process peak by at most 48 MB, less
        than two n x n arrays of doubles (33.6 MB each): on a callable
        factor the integrand is evaluated on at most CALL_POINTS points
        (7 rows of s_1) at a time, and a grid factor's sum over shifted
        copies holds O(n) values.  Holding the integrand whole took +97 to
        +129 MB."""
        lines = run_child("""
            import resource
            peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            base = peak()
            for name, call in frame_checks.items():
                call()
                print(f"{name}:{peak() - base}")
        """)
        assert len(lines) == 4
        for line in lines:
            name, grown = line.split(":")
            assert int(grown) * RSS_UNIT <= 48e6, line

    @pytest.mark.skipif(resource is None, reason="needs the resource module")
    def test_callable_checks_reuse_their_pages(self):
        """The extremizer main-integral checks in both references and 31
        hypercontractivity checks of exp(t), as a benchmark pass of 1d checks
        runs them, take fewer than 1,000 minor page faults together: a
        caller's function is evaluated on at most CALL_POINTS points at a
        time, whose temporaries the allocator keeps for the next block.
        With 64 rows of s_1 (1 MiB) per frame block and a whole (2049, 64)
        Gauss-Hermite array per Mehler call, every freed temporary went back
        to the kernel and the next block faulted its pages in again: 58.5k
        faults, 1.4 us each.  Measured 25 after the change."""
        lines = run_child("""
            import math, resource
            faults = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            base = faults()
            check_main_integral(t, *ext.pair(t, LEB), LEB)
            check_main_integral(t, *ext.pair(t, GAM), GAM)
            for k in range(31):
                check_hypercontractivity(ExpFunction(1.0), 2.0, 4.0, k * math.pi / 60)
            print(faults() - base)
        """)
        assert len(lines) == 1 and int(lines[0]) < 1000, lines

    @pytest.mark.skipif(resource is None, reason="needs the resource module")
    def test_grid_passes_hold_no_square_temporaries(self):
        """The 2d grid passes run BLOCK_ROWS lines at a time, so each call
        raises the process peak by what it keeps, plus at most 16 MB:
        nothing for entropy, Fisher and the frame checks, whose marginals
        prefilter each block of lines right before sampling it; two n x n
        arrays, the x pass and the result, for ou_flow; and one, the
        result, for heat_flow and a stability check, whose 2d heat flow is
        one FFT round trip that blurs x in y's spectrum (+38 to +40 MiB
        against a bound of 47.3 MiB).  They held two arrays, +65 to +67 MiB,
        while heat flow ran one pass per axis, and on its axis grown by the
        kernel radius held those two at the grown sizes.  Whole n x n
        temporaries took +38 MB for entropy, +105 to +139 MB for Fisher,
        +166 MB for ou_flow, +269 MB for heat_flow and +106 MB for
        check_subadditivity, each in a process of its own; a copy of the
        flowed result in C order kept heat_flow at +166 MB; a whole-grid
        line-spline memo per axis kept +65 to +68 MB after a frame check
        and took stability_check to +167 MB; with its n x n weights, a
        Gaussian-reference marginal rose
        +66 MB.  Every density is built before the first measurement and
        each child measures its flow last, after calls that hold no more
        than it does, so no earlier peak hides it."""
        grown = """
            import resource
            from entroframe import (check_fisher_subadditivity, check_main_entropy,
                                    check_subadditivity, check_young_entropy,
                                    heat_flow, marginal, ou_flow, stability_check)
            def grown(name, call):
                base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                out = call()
                print(f"{name}:{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base}")
                return out
            cov = [[1.1, 0.2], [0.2, 0.8]]
            f = gaussian(LEB, [0.0, 0.0], [[4.0, 0.0], [0.0, 1.0]]).to_grid()
        """
        lines = run_child(grown + """
            leb, gam = (gaussian(ref, [0.2, -0.1], cov).to_grid() for ref in (LEB, GAM))
            for d in (leb, gam):
                grown(f"entropy {d.reference.value}", lambda: entropy(d))
                grown(f"fisher {d.reference.value}", lambda: fisher(d))
            # f, leb and gam have no marginal yet
            grown("marginal gaussian", lambda: marginal(gam, 0.7))
            grown("main-entropy", lambda: check_main_entropy(t, leb))
            grown("young-entropy", lambda: check_young_entropy(f, 4.0 / 3.0, 4.0 / 3.0, 2.0))
            grown("ou_flow", lambda: ou_flow(gam, 0.5))
        """) + run_child(grown + """
            grown("stability", lambda: stability_check(f, 0.7, 0.25))
        """) + run_child(grown + """
            grown("subadditivity", lambda: check_subadditivity(mercedes_frame(), f))
            grown("fisher subadditivity", lambda: check_fisher_subadditivity(mercedes_frame(), f))
            grown("heat_flow", lambda: heat_flow(f, 0.25))
        """)
        square, slack = 2049 ** 2 * 8, 16e6
        bounds = {"ou_flow": 2 * square + slack, "heat_flow": square + slack,
                  "stability": square + slack}
        assert len(lines) == 12
        for line in lines:
            name, grown = line.split(":")
            assert int(grown) * RSS_UNIT <= bounds.get(name, slack), line

    @pytest.mark.skipif(resource is None, reason="needs the resource module")
    def test_every_check_holds_at_most_the_density(self):
        """Every `entroframe check`, at its default slots on the default grid
        with only the flags it requires, raises the peak of a child that has
        only imported the CLI by at most one n x n array of doubles (the
        density of a 2d check) plus 16 MB.  Measured one child per check:
        fisher +33.1 MiB, subadditivity and main-entropy +30.8, young-entropy
        +30.7; no 1d check rose above the import's own peak."""
        lines = run_child(f"""
            import contextlib, io, resource
            from entroframe.cli import CHECK_TABLE, main
            peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            base = peak()
            for name in CHECK_TABLE:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(["check", name, *{REQUIRED_FLAGS!r}.get(name, ())])
                print(f"{{name}}:{{code}}:{{peak() - base}}")
        """, inputs="")
        assert [line.split(":")[0] for line in lines] == list(CHECK_TABLE)
        for line in lines:
            name, code, grown = line.split(":")
            assert code in ("0", "1") and int(grown) * RSS_UNIT <= 2049 ** 2 * 8 + 16e6, line
