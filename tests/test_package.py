"""The package's public surface, and what running it imports."""

import entroframe
from test_resources import REQUIRED_FLAGS, run_child


def test_every_public_name_resolves():
    missing = [name for name in entroframe.__all__ if not hasattr(entroframe, name)]
    assert missing == []
    assert len(set(entroframe.__all__)) == len(entroframe.__all__)


def test_runs_import_no_scipy():
    """A fresh interpreter that imports the CLI, runs every check at its
    default slots and the 2d flows on each of their paths (at 129 nodes per
    axis: heat at t = 0.1 by Gauss-Hermite sums, at t = 1 by one FFT round
    trip; OU at t = 0.5 by blurred blocks, at t = 1e-5 by Gauss-Hermite
    sums) and P_theta on a grid line, has imported no scipy module.  This
    catches a deferred import, which an import-time check would miss while
    its cost moved into the first call."""
    lines = run_child(f"""
        import contextlib, io, sys
        from entroframe.cli import CHECK_TABLE, main
        from entroframe import Reference, gaussian, heat_flow, hermite_p_theta, ou_flow
        for name in CHECK_TABLE:
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(["check", name, "--grid-n", "129",
                             *{REQUIRED_FLAGS!r}.get(name, ())])
            assert code in (0, 1), (name, code)
        cov = [[1.1, 0.2], [0.2, 0.8]]
        leb = gaussian(Reference.LEBESGUE, [0.2, -0.1], cov).to_grid(points=129)
        gam = gaussian(Reference.GAUSSIAN, [0.2, -0.1], cov).to_grid(points=129)
        for flowed in (heat_flow(leb, 0.1), heat_flow(leb, 1.0), ou_flow(gam, 0.5),
                       ou_flow(gam, 1e-5)):
            assert flowed.values.shape == (129, 129)
        hermite_p_theta(gaussian(Reference.GAUSSIAN, 0.2, 1.0).to_grid(points=129), 0.3)
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
    """, inputs="")
    assert lines == ["[]"]
