"""Scalar inputs outside a routine's domain raise ValidationError, not a raw
ValueError or a silent answer."""

import math

import numpy as np
import pytest

from contest_forge.compstat import (
    bound_audit,
    breakpoints,
    classify_by_breakpoints,
    finite_to_limit_convergence,
    poisson_limit,
    poisson_value,
    wta_optimal,
)
from contest_forge.contest import (
    SimpleLottery,
    expected_prize,
    expected_prize_curve,
    lottery_decomposition,
    make_simple_contest,
    w_inverse,
    w_transform,
)
from contest_forge.distributions import (
    EmpiricalTypes,
    RectComponent,
    PiecewiseLinearCDF,
    RectMixture,
    Uniform,
    low_cost_max_cdf,
    median_max_quality,
    quantile,
    sample_joint,
)
from contest_forge.errors import ValidationError
from contest_forge.heterogeneous import (
    ParticipationProfile,
    best_response,
    equilibrium,
    exact_objective,
    fosd_check,
    highcost_subequilibrium,
    is_sub_equilibrium,
    mc_objective,
    median_subequilibrium,
    output_cdf,
)
from contest_forge.homogeneous import (
    c_star,
    equilibrium_threshold,
    optimal_contest,
    participation_rate,
)
from contest_forge.numerics import poisson_cdf_partial

CONTEST = make_simple_contest(2, 1.0, 5)
TYPES = EmpiricalTypes(q=[2.0, 1.0], c=[0.3, 0.3], w=[0.5, 0.5], n=5)
FULL = ParticipationProfile.full(2)
JD = RectMixture((RectComponent(0.0, 1.0, 0.0, 0.4, 1.0),))
UNIFORM = Uniform(0.0, 1.0)


def everyone(q, c):
    return [True] * len(q)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: wta_optimal(5, 1.0, math.nan), id="wta_optimal-nan-cost"),
        pytest.param(lambda: wta_optimal(5, math.inf, 0.5), id="wta_optimal-inf-budget"),
        pytest.param(lambda: wta_optimal(2.5, 1.0, 0.5), id="wta_optimal-fractional-n"),
        pytest.param(lambda: bound_audit(100, 0.1, 10, vc=math.nan), id="bound_audit-nan-vc"),
        pytest.param(lambda: bound_audit(100, 0.1, 10, vc=math.inf), id="bound_audit-inf-vc"),
        pytest.param(
            lambda: finite_to_limit_convergence(10, 1, [2.5]), id="convergence-fractional-n"
        ),
        pytest.param(lambda: expected_prize(CONTEST, math.nan), id="prize-nan-p"),
        pytest.param(lambda: expected_prize(CONTEST, -0.1), id="prize-negative-p"),
        pytest.param(lambda: expected_prize_curve(CONTEST, [math.nan]), id="curve-nan-p"),
        pytest.param(lambda: expected_prize_curve(CONTEST, [0.2, 1.5]), id="curve-p-above-1"),
        pytest.param(
            lambda: expected_prize_curve(CONTEST, [[0.5], [-1e-300]]), id="curve-2d-negative-p"
        ),
        pytest.param(lambda: c_star(10**20, 50.0, 0.3), id="c_star-n-beyond-int64"),
        pytest.param(lambda: c_star(2**53 + 1, 50.0, 0.3), id="c_star-n-beyond-2^53"),
        pytest.param(lambda: mc_objective(TYPES, everyone, 5, "max", 10, None),
                     id="mc-none-seed"),
        pytest.param(lambda: mc_objective(TYPES, everyone, 5, "max", 10, -1),
                     id="mc-negative-seed"),
        pytest.param(lambda: mc_objective(TYPES, everyone, 2.5, "max", 10, 0),
                     id="mc-fractional-n"),
        pytest.param(lambda: mc_objective(TYPES, everyone, 5, "max", 2.5, 0),
                     id="mc-fractional-replicas"),
        pytest.param(lambda: mc_objective(TYPES, everyone, 5, ("top_k", "x"), 10, 0),
                     id="mc-top_k-not-integer"),
        pytest.param(lambda: exact_objective(TYPES, FULL, 2.5, "max"),
                     id="exact-fractional-n"),
        pytest.param(lambda: exact_objective(TYPES, FULL, True, "max"), id="exact-bool-n"),
        pytest.param(lambda: exact_objective(TYPES, FULL, math.nan, "max"), id="exact-nan-n"),
        pytest.param(lambda: output_cdf(TYPES, FULL, math.nan), id="output_cdf-nan-x"),
        pytest.param(lambda: median_subequilibrium(JD, math.nan, 5), id="median-nan-budget"),
        pytest.param(lambda: median_subequilibrium(JD, 1.0, 2.5), id="median-fractional-n"),
        pytest.param(lambda: median_max_quality(JD, math.nan, 3), id="median_max-nan-cap"),
        pytest.param(lambda: low_cost_max_cdf(JD, 0.5, 2.5, 0.3), id="low_cost-fractional-m"),
        pytest.param(lambda: low_cost_max_cdf(JD, 0.5, 3, math.nan), id="low_cost-nan-x"),
        pytest.param(lambda: low_cost_max_cdf(JD, math.nan, 3, 0.3), id="low_cost-nan-cap"),
        pytest.param(lambda: EmpiricalTypes(q=[1.0], c=[0.1], w=[1.0], n=2.5),
                     id="types-fractional-n"),
    ],
)
def test_scalar_gaps_raise_validation_error(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: poisson_value(1.0, 0, 1.0), id="poisson_value-zero-j"),
        pytest.param(lambda: poisson_value(1.0, 2.5, 1.0), id="poisson_value-fractional-j"),
        pytest.param(lambda: poisson_value(1.0, 2, -1.0), id="poisson_value-negative-lam"),
        pytest.param(lambda: poisson_value(1.0, 2, math.nan), id="poisson_value-nan-lam"),
        pytest.param(lambda: bound_audit(10**30, 0.3, 2), id="bound_audit-n-beyond-2^53"),
        pytest.param(lambda: bound_audit(10, 0.3, 2.5), id="bound_audit-fractional-j"),
        pytest.param(lambda: bound_audit(10, 0.3, True), id="bound_audit-bool-j"),
        pytest.param(lambda: w_inverse([[1, 2], [3, 4]]), id="w_inverse-2d-weights"),
        pytest.param(lambda: SimpleLottery((1.5, -0.5), 1.0), id="lottery-negative"),
        pytest.param(lambda: SimpleLottery((math.nan,), 1.0), id="lottery-nan"),
        pytest.param(lambda: sample_joint(JD, np.random.default_rng(0), -1),
                     id="sample_joint-negative-size"),
        pytest.param(lambda: poisson_cdf_partial(math.nan, 2), id="poisson_cdf_partial-nan-lam"),
        pytest.param(lambda: poisson_cdf_partial(-1.0, 2), id="poisson_cdf_partial-negative-lam"),
        pytest.param(lambda: poisson_cdf_partial(1.0, 0), id="poisson_cdf_partial-zero-j"),
        pytest.param(lambda: expected_prize(CONTEST, 1.0 + 2**-52), id="prize-p-just-above-1"),
        pytest.param(lambda: expected_prize(CONTEST, 1.5), id="prize-p-above-1"),
    ],
)
def test_reproduced_gaps_raise_validation_error(call):
    """Each of these once ended in a raw traceback or a silent answer."""
    with pytest.raises(ValidationError):
        call()


CONTEST_LIST = [0.5, 0.5, 0.0, 0.0, 0.0]
MASK = np.array([True, True])
CONTEST_KIND = "^list is not a contest; use validate_contest"
PROFILE_KIND = r"^ndarray is not a participation profile; use ParticipationProfile\(mask\)$"


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: optimal_contest(5, 1.0, 0.4, JD), "quality marginal",
                     id="optimal_contest-joint-law"),
        pytest.param(lambda: equilibrium_threshold(CONTEST, JD, 0.3), "quality marginal",
                     id="equilibrium_threshold-joint-law"),
        pytest.param(lambda: equilibrium(CONTEST, JD), "discretize", id="equilibrium-joint-law"),
        pytest.param(lambda: best_response(CONTEST, JD, FULL), "discretize",
                     id="best_response-joint-law"),
        pytest.param(lambda: exact_objective(JD, FULL, 5, "max"), "discretize",
                     id="exact_objective-joint-law"),
        pytest.param(lambda: equilibrium(CONTEST_LIST, TYPES), CONTEST_KIND,
                     id="equilibrium-list-contest"),
        pytest.param(lambda: participation_rate(CONTEST_LIST, 0.3), CONTEST_KIND,
                     id="participation_rate-list-contest"),
        pytest.param(lambda: equilibrium_threshold(CONTEST_LIST, UNIFORM, 0.3),
                     CONTEST_KIND, id="equilibrium_threshold-list-contest"),
        pytest.param(lambda: expected_prize(CONTEST_LIST, 0.3), CONTEST_KIND,
                     id="expected_prize-list-contest"),
        pytest.param(lambda: expected_prize_curve(CONTEST_LIST, [0.3]), CONTEST_KIND,
                     id="expected_prize_curve-list-contest"),
        pytest.param(lambda: w_transform(CONTEST_LIST), CONTEST_KIND,
                     id="w_transform-list-contest"),
        pytest.param(lambda: lottery_decomposition(CONTEST_LIST), CONTEST_KIND,
                     id="lottery_decomposition-list-contest"),
        pytest.param(lambda: highcost_subequilibrium(CONTEST_LIST, TYPES),
                     CONTEST_KIND, id="highcost_subequilibrium-list-contest"),
        pytest.param(lambda: is_sub_equilibrium(CONTEST, TYPES, MASK), PROFILE_KIND,
                     id="is_sub_equilibrium-array-profile"),
        pytest.param(lambda: best_response(CONTEST, TYPES, MASK), PROFILE_KIND,
                     id="best_response-array-profile"),
        pytest.param(lambda: exact_objective(TYPES, MASK, 5, "max"), PROFILE_KIND,
                     id="exact_objective-array-profile"),
        pytest.param(lambda: fosd_check(TYPES, FULL, MASK, CONTEST), PROFILE_KIND,
                     id="fosd_check-array-sub-profile"),
        pytest.param(lambda: fosd_check(TYPES, MASK, ParticipationProfile.empty(2), CONTEST),
                     PROFILE_KIND, id="fosd_check-array-eq-profile"),
        pytest.param(lambda: output_cdf(TYPES, MASK, 0.5), PROFILE_KIND,
                     id="output_cdf-array-profile"),
    ],
)
def test_law_of_the_wrong_kind_raises_validation_error(call, message):
    """A law, a contest or a profile of the wrong kind names the kind it
    needs; a list as a contest or an array as a profile once ended in a raw
    AttributeError."""
    with pytest.raises(ValidationError, match=message):
        call()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: breakpoints(5, np.array([1.0])), id="breakpoints-array-budget"),
        pytest.param(lambda: optimal_contest(5, np.array([1.0]), 0.3, UNIFORM),
                     id="optimal_contest-array-budget"),
        pytest.param(lambda: optimal_contest(5, 1.0, np.array([0.3]), UNIFORM),
                     id="optimal_contest-array-cost"),
        pytest.param(lambda: participation_rate(CONTEST, np.array([0.3])),
                     id="participation_rate-array-cost"),
        pytest.param(lambda: classify_by_breakpoints(breakpoints(5, 1.0), np.array([0.3])),
                     id="classify_by_breakpoints-array-cost"),
        pytest.param(lambda: poisson_limit(2.0, np.array([0.5])), id="poisson_limit-array-cost"),
        pytest.param(lambda: breakpoints(5, True), id="breakpoints-bool-budget"),
        pytest.param(lambda: poisson_limit(True, 0.5), id="poisson_limit-bool-budget"),
        pytest.param(lambda: wta_optimal(5, 1.0, True), id="wta_optimal-bool-cost"),
        pytest.param(lambda: expected_prize(CONTEST, True), id="prize-bool-p"),
        pytest.param(lambda: expected_prize(CONTEST, np.array([0.5])), id="prize-array-p"),
        pytest.param(lambda: poisson_value(1.0, 2, True), id="poisson_value-bool-lam"),
        pytest.param(lambda: poisson_value(1.0, 2, np.array([0.5])),
                     id="poisson_value-array-lam"),
        pytest.param(lambda: c_star(5, 1.0, np.array([0.5])), id="c_star-array-p"),
        pytest.param(lambda: c_star(5, 1.0, np.array([0.5, 0.6])), id="c_star-2-array-p"),
    ],
)
def test_bools_and_arrays_at_the_scalar_boundary(call):
    """A one-element array once ended in a raw TypeError or ValueError, or
    answered as its element; a bool answered as 1.0."""
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize("u", [True, False, np.True_], ids=["True", "False", "numpy-True"])
@pytest.mark.parametrize("qd", [UNIFORM, PiecewiseLinearCDF(((0.0, 0.0), (1.0, 1.0)))],
                         ids=["uniform", "piecewise"])
def test_quantile_refuses_a_bool(qd, u):
    """quantile(Uniform(0, 1), True) once answered 1.0."""
    with pytest.raises(ValidationError, match=r"^quantile argument outside \[0, 1\]$"):
        quantile(qd, u)


def test_numpy_scalars_and_0d_arrays_stay_accepted():
    assert breakpoints(5, np.array(1.0)).entries == breakpoints(5, 1.0).entries
    design = optimal_contest(5, np.float64(1.0), np.array(0.3), UNIFORM)
    assert design.j_star == optimal_contest(5, 1.0, 0.3, UNIFORM).j_star
    table = breakpoints(5, 1.0)
    assert classify_by_breakpoints(table, np.float32(0.3)) == classify_by_breakpoints(table, 0.3)
    assert poisson_limit(np.float64(2.0), np.array(0.5)) == poisson_limit(2.0, 0.5)
    assert expected_prize(CONTEST, np.float64(0.3)) == expected_prize(CONTEST, 0.3)
    assert expected_prize(CONTEST, np.array(0.3)) == expected_prize(CONTEST, 0.3)
    assert c_star(5, 1.0, np.float64(0.5)) == c_star(5, 1.0, 0.5)
    assert c_star(5, 1.0, np.array(0.5)) == c_star(5, 1.0, 0.5)
    assert poisson_value(1.0, 2, np.array(0.5)) == poisson_value(1.0, 2, 0.5)
