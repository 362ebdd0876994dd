"""Property tests of every command line.

Every argv ends in an answer (exit 0), a validation error (exit 1) or a
numerical failure (exit 2); a failure prints exactly one ``contest-forge:``
line on stderr and nothing on stdout, and no draw ends in a traceback.
Populations come from [-5, 2000] and the sentinels around the documented
limits; none reaches the n = 500000 breakpoint table, which takes seconds.
Scan lengths come from [1, 20] and the sentinels 0, -1 and one past the
largest scan, so no draw starts a long scan. The ``hetero-eq`` and
``approx`` draws write their type laws (rect mixtures and empirical supports
with unequal weights) and contests as JSON, non-finite numbers included;
their supports hold at most 200 points, or a sentinel past the limit.
"""

import contextlib
import io
import json
from datetime import timedelta

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

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


# negative, zero, one past the largest support or contest count, and past int64
SIZES = st.integers(-5, 200) | st.sampled_from([-1, 0, 100_001, 10**20])
SEEDS = st.integers(-3, 1000) | st.sampled_from([-1, 2**63, 10**20])
# small populations, and the sentinels past the approx contest limit, 2^53 and int64
SMALL_POPULATIONS = st.integers(-5, 60) | st.sampled_from([0, 10_001, 2**53, 10**20])


@st.composite
def rect_laws(draw):
    components = []
    for _ in range(draw(st.integers(1, 3))):
        q_lo, c_lo = draw(st.floats(0.0, 2.0) | SCALARS), draw(st.floats(0.0, 1.0) | SCALARS)
        components.append({
            "q": [q_lo, q_lo + draw(st.floats(0.0, 2.0))],
            "c": [c_lo, c_lo + draw(st.floats(0.0, 1.0))],
            "weight": draw(st.floats(0.05, 1.0) | SCALARS),
        })
    return {"kind": "rect_mixture", "components": components}


@st.composite
def empirical_laws(draw):
    """Supports of up to 8 points with unequal weights; some carry a bad number."""
    size = draw(st.integers(1, 8))
    raw = draw(st.lists(st.floats(0.1, 10.0), min_size=size, max_size=size))
    points = [[draw(st.floats(-1.0, 3.0)), draw(st.floats(0.0, 1.5)), r / sum(raw)]
              for r in raw]
    if draw(st.booleans()):
        points[draw(st.integers(0, size - 1))][draw(st.integers(0, 2))] = draw(SCALARS)
    return {"kind": "empirical", "points": points}


LAWS = rect_laws() | empirical_laws()


@st.composite
def contests(draw):
    values = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12)),
                    reverse=True)
    budget = draw(st.just(sum(values) or 1.0) | SCALARS)
    return {"budget": budget, "values": values}


def write_json(directory, name, doc):
    path = directory / name
    path.write_text(json.dumps(doc))  # NaN and Infinity as json.load reads them
    return str(path)


@pytest.fixture(scope="module")
def json_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("argv")


def optional_flags(**values):
    """The flags of the values drawn; a None leaves the flag at its default."""
    return [flag(name, value) for name, value in values.items() if value is not None]


@settings(max_examples=60, deadline=timedelta(seconds=15), derandomize=True, database=None)
@given(LAWS, contests(), st.none() | SMALL_POPULATIONS, st.none() | SIZES, st.none() | SEEDS)
def test_hetero_eq_argv(json_dir, law, contest, n, m, seed):
    # by default --n matches the contest, so that some draws are answered
    n = len(contest["values"]) if n is None else n
    argv = ["hetero-eq", "--dist", write_json(json_dir, "law.json", law),
            "--contest", write_json(json_dir, "contest.json", contest), flag("n", n)]
    check_outcome(*run(argv + optional_flags(m=m, seed=seed)))


# costs from 0.05 up, so a prize of 1e300 makes every rank a contest to solve
CHEAP_LAW = {"kind": "rect_mixture",
             "components": [{"q": [0.0, 1.0], "c": [0.05, 0.3], "weight": 1.0}]}


@settings(max_examples=60, deadline=timedelta(seconds=20), derandomize=True, database=None)
@given(LAWS, SMALL_POPULATIONS, SCALARS | st.floats(0.1, 10.0), st.none() | SIZES,
       st.none() | SEEDS)
@example(law=CHEAP_LAW, n=10_001, prize=1e300, m=None, seed=None)
@example(law=CHEAP_LAW, n=2**53, prize=1e300, m=None, seed=None)
def test_approx_argv(json_dir, law, n, prize, m, seed):
    argv = ["approx", "--dist", write_json(json_dir, "law.json", law), flag("n", n),
            flag("prize", prize)]
    check_outcome(*run(argv + optional_flags(m=m, seed=seed)))


@settings(max_examples=40, deadline=timedelta(seconds=20), derandomize=True, database=None)
@given(
    st.none() | SCALARS | st.floats(160.0, 600.0),
    # the contests need n >= round(V/2) ranks
    st.none() | POPULATIONS | st.integers(300, 2000),
    st.none() | SCALARS | st.floats(0.0, 1.0),
    st.none() | SEEDS,
)
def test_example_obj_argv(prize, n, eps, seed):
    check_outcome(*run(["example-obj"] + optional_flags(prize=prize, n=n, eps=eps, seed=seed)))
