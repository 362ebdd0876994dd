"""Equilibria and optimal prize design for rank-order contests.

Agents draw a (quality, cost) type and choose only whether to participate;
prizes go to the highest-quality participants. The package computes the
threshold equilibrium and the optimal prize split for homogeneous costs,
breakpoint comparative statics and the Poisson large-population limit, and
the equilibrium and objective experiments for jointly distributed types.
The experiments are exact on a finite support; Monte Carlo is used only for
rules over continuous laws (``mc_objective``).

Every error is a ``ContestForgeError``: a ``ValidationError`` for bad input
(its subclass ``PopulationTooLarge`` for a documented size limit) or a
``NumericalError`` for a solver breakdown (its subclass ``IterationLimit``
for a solver that ran out of steps).
"""

from .compstat import (
    BreakpointTable,
    ConvergenceTable,
    PoissonLimit,
    asymptotic_scan,
    bound_audit,
    breakpoints,
    classify_by_breakpoints,
    finite_to_limit_convergence,
    poisson_limit,
    poisson_value,
    q_polynomial,
    wta_optimal,
)
from .contest import (
    PrizeVector,
    SimpleLottery,
    WTransform,
    contest_from_dict,
    expected_prize,
    expected_prize_curve,
    lottery_decomposition,
    make_simple_contest,
    validate_contest,
    w_inverse,
    w_transform,
)
from .distributions import (
    EmpiricalTypes,
    PiecewiseLinearCDF,
    RectComponent,
    RectMixture,
    Uniform,
    cdf,
    discretize,
    distribution_from_dict,
    low_cost_max_cdf,
    median_max_quality,
    quantile,
    sample_joint,
)
from .errors import (
    ContestForgeError,
    NumericalError,
    ValidationError,
)
from .heterogeneous import (
    EquilibriumBracket,
    ObjectiveEstimate,
    ParticipationProfile,
    best_response,
    equilibrium,
    exact_objective,
    example_obj,
    fosd_check,
    highcost_subequilibrium,
    is_sub_equilibrium,
    mc_objective,
    median_subequilibrium,
    output_cdf,
    rule_from_profile,
    wta_approx_experiment,
)
from .homogeneous import (
    DesignResult,
    ThresholdEquilibrium,
    brute_force_design_check,
    c_star,
    equilibrium_threshold,
    optimal_contest,
    participation_rate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ContestForgeError",
    "ValidationError",
    "NumericalError",
    "PrizeVector",
    "WTransform",
    "SimpleLottery",
    "validate_contest",
    "make_simple_contest",
    "expected_prize",
    "expected_prize_curve",
    "w_transform",
    "w_inverse",
    "lottery_decomposition",
    "contest_from_dict",
    "Uniform",
    "PiecewiseLinearCDF",
    "RectComponent",
    "RectMixture",
    "EmpiricalTypes",
    "cdf",
    "quantile",
    "sample_joint",
    "low_cost_max_cdf",
    "median_max_quality",
    "discretize",
    "distribution_from_dict",
    "ThresholdEquilibrium",
    "DesignResult",
    "participation_rate",
    "equilibrium_threshold",
    "c_star",
    "optimal_contest",
    "brute_force_design_check",
    "BreakpointTable",
    "PoissonLimit",
    "ConvergenceTable",
    "q_polynomial",
    "breakpoints",
    "classify_by_breakpoints",
    "wta_optimal",
    "poisson_value",
    "poisson_limit",
    "finite_to_limit_convergence",
    "asymptotic_scan",
    "bound_audit",
    "ParticipationProfile",
    "EquilibriumBracket",
    "ObjectiveEstimate",
    "best_response",
    "equilibrium",
    "is_sub_equilibrium",
    "output_cdf",
    "fosd_check",
    "rule_from_profile",
    "mc_objective",
    "exact_objective",
    "median_subequilibrium",
    "highcost_subequilibrium",
    "wta_approx_experiment",
    "example_obj",
]
