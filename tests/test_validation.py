"""Scalar inputs outside a routine's domain raise ValidationError, not a raw
ValueError or a silent answer."""

import math

import pytest

from contest_forge.compstat import bound_audit, finite_to_limit_convergence, wta_optimal
from contest_forge.contest import expected_prize, expected_prize_curve, make_simple_contest
from contest_forge.errors import ValidationError
from contest_forge.homogeneous import feasible

CONTEST = make_simple_contest(2, 1.0, 5)


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
    ],
)
def test_scalar_gaps_raise_validation_error(call):
    with pytest.raises(ValidationError):
        call()
