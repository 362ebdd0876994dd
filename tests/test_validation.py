"""Scalar inputs outside a routine's domain raise ValidationError, not a raw
ValueError or a silent answer."""

import math

import numpy as np
import pytest

from contest_forge.compstat import (
    bound_audit,
    finite_to_limit_convergence,
    poisson_value,
    wta_optimal,
)
from contest_forge.contest import (
    SimpleLottery,
    expected_prize,
    expected_prize_curve,
    make_simple_contest,
    w_inverse,
)
from contest_forge.distributions import (
    EmpiricalTypes,
    RectComponent,
    RectMixture,
    low_cost_max_cdf,
    median_max_quality,
    sample_joint,
)
from contest_forge.errors import ValidationError
from contest_forge.heterogeneous import (
    ParticipationProfile,
    beat_probability,
    best_response,
    equilibrium,
    exact_objective,
    expected_payoff,
    mc_objective,
    median_subequilibrium,
    output_cdf,
)
from contest_forge.homogeneous import c_star, equilibrium_threshold, feasible, optimal_contest

CONTEST = make_simple_contest(2, 1.0, 5)
TYPES = EmpiricalTypes(q=[2.0, 1.0], c=[0.3, 0.3], w=[0.5, 0.5], n=5)
FULL = ParticipationProfile.full(2)
JD = RectMixture((RectComponent(0.0, 1.0, 0.0, 0.4, 1.0),))


def everyone(q, c):
    return [True] * len(q)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: wta_optimal(5, 1.0, math.nan), id="wta_optimal-nan-cost"),
        pytest.param(lambda: wta_optimal(5, math.inf, 0.5), id="wta_optimal-inf-budget"),
        pytest.param(lambda: wta_optimal(2.5, 1.0, 0.5), id="wta_optimal-fractional-n"),
        pytest.param(lambda: feasible(10, 1.0, math.nan, 0.5), id="feasible-nan-cost"),
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
        pytest.param(lambda: beat_probability(TYPES, FULL, 1.5), id="beat-fractional-i"),
        pytest.param(lambda: beat_probability(TYPES, FULL, True), id="beat-bool-i"),
        pytest.param(lambda: expected_payoff(CONTEST, TYPES, FULL, 1.5),
                     id="payoff-fractional-i"),
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
    ],
)
def test_reproduced_gaps_raise_validation_error(call):
    """Each of these once ended in a raw traceback or a silent answer."""
    with pytest.raises(ValidationError):
        call()


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
    ],
)
def test_law_of_the_wrong_kind_raises_validation_error(call, message):
    with pytest.raises(ValidationError, match=message):
        call()
