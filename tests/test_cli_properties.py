"""Property tests of the ``compstat``, ``design``, ``poisson`` and ``scan`` command lines.

Every argv ends in an answer (exit 0), a validation error (exit 1) or a
numerical failure (exit 2); a failure prints exactly one ``contest-forge:``
line on stderr and nothing on stdout, and no draw ends in a traceback.
Populations come from [-5, 2000] and the sentinels around the documented
limits; none reaches the n = 500000 breakpoint table, which takes seconds.
Scan lengths come from [1, 20] and the sentinels 0, -1 and one past the
largest scan, so no draw starts a long scan.
"""

import contextlib
import io
from datetime import timedelta

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from contest_forge.cli import main  # noqa: E402

# 500001 is one past the largest breakpoint table, 2^53 the largest
# population and 10^20 past the int64 range
POPULATIONS = st.one_of(
    st.integers(-5, 2000), st.sampled_from([0, 500_001, 2**53, 2**53 + 1, 10**20])
)
# 0 and -1 are refused, and 10^4 + 1 is one past the longest scan
STEPS = st.integers(1, 20) | st.sampled_from([0, -1, 10_001])
SCALARS = st.one_of(
    st.sampled_from(
        [float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 5e-324,
         1e300, -1e300, 1e-300, -1e-300]
    ),
    st.floats(-1e3, 1e3),
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_outcome(code, out, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        assert out and err == ""
    else:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("contest-forge:"), err


def flag(name, value):
    # the = form keeps a negative value from reading as a flag
    return f"--{name}={value!r}"


@settings(max_examples=80, deadline=timedelta(seconds=10), derandomize=True, database=None)
@given(POPULATIONS, st.none() | SCALARS)
def test_compstat_argv(n, prize):
    argv = ["compstat", flag("n", n)]
    if prize is not None:
        argv.append(flag("prize", prize))
    check_outcome(*run(argv))


@settings(max_examples=80, deadline=timedelta(seconds=15), derandomize=True, database=None)
@given(POPULATIONS, SCALARS, SCALARS)
def test_design_argv(n, prize, cost):
    # the full-participation contest at n = 500001 prints every prize, about 2 s
    check_outcome(*run(["design", flag("n", n), flag("prize", prize), flag("cost", cost)]))


@settings(max_examples=80, deadline=timedelta(seconds=10), derandomize=True, database=None)
@given(st.none() | SCALARS | st.floats(0.5, 1e4), SCALARS | st.floats(1e-3, 10.0))
def test_poisson_argv(prize, cost):
    argv = ["poisson", flag("cost", cost)]
    if prize is not None:
        argv.append(flag("prize", prize))
    check_outcome(*run(argv))


@settings(max_examples=80, deadline=timedelta(seconds=15), derandomize=True, database=None)
@given(
    SCALARS | st.floats(0.1, 10.0),
    st.tuples(SCALARS, SCALARS) | st.lists(st.floats(20.0, 3000.0), min_size=2, max_size=2),
    STEPS,
    st.none() | SCALARS | st.floats(2.5, 10.0),
)
def test_scan_argv(cost, scales, steps, n_factor):
    # a sorted pair of moderate scales, so that some draws are answered
    vc_min, vc_max = sorted(scales) if isinstance(scales, list) else scales
    argv = ["scan", flag("cost", cost), flag("vc-min", vc_min), flag("vc-max", vc_max),
            flag("steps", steps)]
    if n_factor is not None:
        argv.append(flag("n-factor", n_factor))
    check_outcome(*run(argv))


def test_underflowing_breakpoints_are_a_numerical_failure():
    # at V = 5e-324 the c_j underflow to equal values, so the ordering check
    # fails: inside the contract, as exit 2
    code, out, err = run(["compstat", "--n", "40", "--prize", "5e-324"])
    assert code == 2
    check_outcome(code, out, err)
