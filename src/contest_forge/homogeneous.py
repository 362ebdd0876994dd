"""Threshold equilibria and optimal design when every agent shares one cost c.

With i.i.d. qualities and common participation cost c, the unique symmetric
equilibrium is a quality threshold theta: an agent enters iff q >= theta,
where theta solves c(1 - F(theta)) = c for the contest's expected-prize curve
(ties broken toward participation). Designing for maximal participation
reduces, through the rank-gap transform, to a linear program over the weights
whose optimum is one-hot: some simple contest M^j is always optimal. The
argmax over j of

    y_j(p) = (1/j) * sum_{k=1}^j C(n-1, k-1) p^(k-1) (1-p)^(n-k) = S_j(p) / j

is the first j where y stops increasing: y_{j+1} - y_j = (x_{j+1} - y_j)/(j+1)
with x_k the binomial pmf, and unimodality of the pmf makes y unimodal, so
the first descent is the global argmax and can be searched for instead of
scanned.

At a fixed cost c the design asks the dual question. The rate of M^j solves
(V/j) S_j(p) = c, and the kernel inverts that in closed form
(``numerics.rank_cdf_inv``). The curves of M^{j-1} and M^j cross once, at
the breakpoint cost c_j, and the breakpoints are ordered c_2 > c_3 > ...
(``compstat.breakpoints``). So M^j beats M^{j-1} exactly while c < c_j, and
the rate p_j is unimodal in j: it rises up to the j with c in
[c_{j+1}, c_j] and falls after. ``optimal_contest`` finds j* as the first
descent of p_j, with the same search (``numerics.first_descent``) as y_j.

A general contest's rate solves c(p) = c, with c(p) the rank-gap mixture
sum_{w_j > 0} (w_j / j) S_j(p). ``participation_rate`` runs the Pegasus
variant of regula falsi on the sign bracket [0, 1], whose end values
c(0) = v_1 and c(1) = v_n it already holds. A step is one value of the
curve from ``expected_prize``, one incomplete-beta call on the kernel the
contest keeps prepared for its ranks, and no slope; on design-desk
contests about 7 steps meet the residual contract where bisection took
about 30.
The two design searches read each j of a bracket of at most 65 once, in one
kernel call, so at n <= 65 ``c_star`` costs one call on n points. Over a
wider range ``optimal_contest`` first reads a window of 6 ranks from one
below the predicted j* ~ vc - sqrt((1 - vc/n) vc / ln vc), vc = V/c: the
Poisson limit's measured j* (``compstat.poisson_limit``) with the binomial
variance factor 1 - vc/n. j* lies 0 to 3 ranks above the prediction in
most designs, and then the search is one call of the inverse on 6 ranks;
a miss reads the neighbouring window, up to 3 windows, before the probe
rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contest import (
    PrizeVector,
    _check_contest,
    _check_ranks,
    expected_prize,
    make_simple_contest,
    validate_contest,
)
from .distributions import QualityDistribution, _check_marginal, _is_integer, _is_real, quantile
from .errors import IterationLimit, NumericalError, PopulationTooLarge, ValidationError
from .numerics import _TIE_TOL, first_descent, rank_cdf, rank_cdf_inv

__all__ = [
    "ThresholdEquilibrium",
    "DesignResult",
    "BruteForceReport",
    "participation_rate",
    "equilibrium_threshold",
    "c_star",
    "optimal_contest",
    "brute_force_design_check",
]

FULL_PARTICIPATION = "full_participation"
ZERO_PARTICIPATION = "zero_participation"
# curve reads participation_rate takes before IterationLimit
_MAX_RATE_STEPS = 200
# finest grid brute_force_design_check accepts, 1/grid_step: at n = 6 that is
# 9,192 schedules in about 1.2 s (2-core x86 host), and 1/100 would be 189,509
_MAX_GRID_STEPS = 50
# largest population the scalar boundary accepts; see _check_scalars
MAX_POPULATION = 2**53


@dataclass(frozen=True)
class ThresholdEquilibrium:
    """Symmetric equilibrium: enter iff quality >= theta."""

    theta: float
    p: float
    lam: float
    saturated: str | None = None


@dataclass(frozen=True)
class DesignResult:
    """The optimal simple contest M^{j*} and its equilibrium. The design
    frontier at the equilibrium rate is the cost c itself (every M^j has
    (V/j) S_j(p) <= c there, with equality at j*), so it is not stored."""

    j_star: int
    contest: PrizeVector
    equilibrium: ThresholdEquilibrium


@dataclass(frozen=True)
class BruteForceReport:
    best_grid_p: float
    best_grid_values: tuple[float, ...]
    best_simple_p: float
    best_simple_j: int
    gap: float


def participation_rate(contest: PrizeVector, c: float) -> tuple[float, str | None]:
    """Equilibrium participation probability p solving c(p) = c.

    Returns (p, flag): flag is ``zero_participation`` when c exceeds the top
    prize, ``full_participation`` when c is below the last prize, else None
    with residual |c(p) - c| <= 1e-10 * max(V, c), c(p) taken from
    ``expected_prize``. v_1 and v_n are read from the mixture, so the n
    prizes are never built; a c within that tolerance of v_1 or v_n returns
    0 or 1.

    Interior costs are solved on the sign bracket [0, 1] of
    g(p) = c(p) - c, whose end values v_1 - c > 0 > v_n - c are known,
    from a first read at p = 0.5. Each later read is at the root of the
    chord between the bracket ends (regula falsi), and each read moves the
    end whose g has its sign. An end that stays in place for a second read
    running has its stored g scaled by g_old / (g_old + g_new), g_old and
    g_new the values at the end that moved (the Pegasus variant), so the
    chord cannot stall against one end. A chord root that rounds onto an
    end is replaced by the bracket midpoint. Each step reads c(p) once and
    no slope. Raises :class:`IterationLimit` after 200 steps, or sooner if
    the bracket closes to adjacent floats first.
    """
    _check_contest(contest)
    _check_scalars(c=c)
    # v_1 = c(0) sums every term w_j / j; v_n = c(1) is the j = n term, if any
    js, coef = contest._mixture
    v_top = float(np.add.reduce(coef))
    v_bottom = float(coef[-1]) if js.size and js[-1] == contest.n else 0.0
    if c > v_top:
        return 0.0, ZERO_PARTICIPATION
    if c < v_bottom:
        return 1.0, FULL_PARTICIPATION
    tol = 1e-10 * max(contest.budget, c)
    if abs(v_top - c) <= tol:
        return 0.0, None
    if abs(v_bottom - c) <= tol:
        return 1.0, None
    # Pegasus regula falsi on the sign bracket: g = c(p) - c, g_lo > 0 > g_hi
    lo, hi, g_lo, g_hi = 0.0, 1.0, v_top - c, v_bottom - c
    p, side = 0.5, 0.0  # side: the sign of g at the last read
    for _ in range(_MAX_RATE_STEPS):
        gap = expected_prize(contest, p) - c
        if not math.isfinite(gap):
            raise NumericalError(f"c({p}) = {gap + c}")
        if abs(gap) <= tol:
            return p, None
        # an end that stays twice running shrinks by g_old / (g_old + g_new)
        if gap > 0.0:
            if side > 0.0:
                g_hi *= g_lo / (g_lo + gap)
            lo, g_lo, side = p, gap, 1.0
        else:
            if side < 0.0:
                g_lo *= g_hi / (g_hi + gap)
            hi, g_hi, side = p, gap, -1.0
        p = lo + (hi - lo) * g_lo / (g_lo - g_hi)
        if not lo < p < hi:
            p = 0.5 * (lo + hi)
            if not lo < p < hi:  # the bracket is down to adjacent floats
                break
    raise IterationLimit(
        f"participation rate did not reach |c(p) - c| <= {tol} within {_MAX_RATE_STEPS} steps"
    )


def equilibrium_threshold(
    contest: PrizeVector, qd: QualityDistribution, c: float
) -> ThresholdEquilibrium:
    """Threshold form of the equilibrium: theta = F^{-1}(1 - p), lambda = n*p."""
    _check_marginal(qd)
    p, flag = participation_rate(contest, c)
    theta = quantile(qd, 1.0 - p)
    return ThresholdEquilibrium(theta=theta, p=p, lam=contest.n * p, saturated=flag)


def _check_scalars(
    n: int | None = None, budget: float | None = None, c: float | None = None
) -> None:
    """The validation boundary for the scalar inputs of the solvers.

    An n above ``MAX_POPULATION`` = 2^53 raises :class:`PopulationTooLarge`:
    the kernels take n as a numpy int64 and probe ranks as floats, which
    hold every integer only up to 2^53. Past the int64 range numpy cannot
    hold n at all, and at n = 2^62 the first-descent search of ``c_star``
    makes no progress. A cost or budget must be one real number (see
    ``distributions._is_real``): a bool or an array with a shape is refused
    with the error its value would raise.
    """
    if n is not None and not (_is_integer(n) and n >= 1):
        raise ValidationError(f"population size must be an integer >= 1, got {n!r}")
    if n is not None and n > MAX_POPULATION:
        raise PopulationTooLarge(
            f"population size {n} exceeds the largest supported {MAX_POPULATION}"
        )
    if c is not None and not (_is_real(c) and math.isfinite(c) and c > 0.0):
        raise ValidationError(f"participation cost must be positive and finite, got {c!r}")
    if budget is not None and not (_is_real(budget) and math.isfinite(budget) and budget > 0.0):
        raise ValidationError(f"budget must be positive and finite, got {budget!r}")


def c_star(n: int, budget: float, p: float) -> float:
    """Largest cost supportable at participation rate p (the design frontier).

    V times max_j y_j(p), read at the first descent of y_j = S_j(p) / j
    (j* = n if y never descends): the smallest argmax, ties within 1e-12
    relative. ``p`` is one real number strictly inside (0, 1).
    """
    _check_scalars(n=n, budget=budget)
    if not (_is_real(p) and 0.0 < p < 1.0):
        raise ValidationError(f"p must lie strictly in (0, 1), got {p!r}")
    return budget * first_descent(lambda js: rank_cdf(n, js, p) / js, n)[1]


def optimal_contest(
    n: int, budget: float, c: float, qd: QualityDistribution
) -> DesignResult:
    """Participation-maximizing contest: always a simple contest M^{j*}.

    Regimes: c <= V/n gives full participation with the equal split
    (j* = n); c >= V gives zero participation with winner-take-all (j* = 1);
    otherwise j* maximizes the per-j equilibrium participation over
    j = 1..min(n, floor(V/c)), smallest j on ties within 1e-12 relative.
    The search starts its first read at the predicted
    j* ~ vc - sqrt((1 - vc/n) vc / ln vc), vc = V/c, when that range is
    wider than 65; the answer is the same from any start. n above 10^6, the
    largest simple contest ``make_simple_contest`` builds, raises
    :class:`PopulationTooLarge` before any search, and a ``qd`` that is not
    a quality marginal raises :class:`ValidationError`.
    """
    _check_scalars(n=n, budget=budget, c=c)
    _check_ranks(n)
    _check_marginal(qd)
    V = float(budget)
    if c <= V / n:
        contest = make_simple_contest(n, V, n)
        eq = ThresholdEquilibrium(
            theta=quantile(qd, 0.0), p=1.0, lam=float(n), saturated=FULL_PARTICIPATION
        )
        return DesignResult(n, contest, eq)
    if c >= V:
        contest = make_simple_contest(1, V, n)
        eq = ThresholdEquilibrium(
            theta=quantile(qd, 1.0), p=0.0, lam=0.0, saturated=ZERO_PARTICIPATION
        )
        return DesignResult(1, contest, eq)

    j_max = min(n, int(math.floor(V / c + 1e-12)))
    # j* ~ vc - sqrt((1 - vc/n) vc / ln vc): the Poisson limit's scale with
    # the binomial variance factor; it only places the first read
    vc = V / c
    near = vc - math.sqrt(max(0.0, 1.0 - vc / n) * vc / math.log(vc))
    # M^j's rate solves (V/j) S_j(p) = c; p_j is unimodal in j (the
    # breakpoints are ordered), so its first descent is the smallest argmax
    j_star, p = first_descent(lambda js: rank_cdf_inv(n, js, c * js / V), j_max, near)
    contest = make_simple_contest(j_star, V, n)
    # V/n < c < V keeps the winner's rate strictly inside (0, 1), so no flag
    eq = ThresholdEquilibrium(
        theta=quantile(qd, 1.0 - p), p=p, lam=n * p, saturated=None
    )
    return DesignResult(j_star, contest, eq)


def _partitions(total: int, parts: int, cap: int):
    """Non-increasing integer compositions of ``total`` into ``parts`` slots."""
    if parts == 1:
        if total <= cap:
            yield (total,)
        return
    for head in range(min(cap, total), -1, -1):
        rest = total - head
        if rest > head * (parts - 1):
            continue
        for tail in _partitions(rest, parts - 1, head):
            yield (head,) + tail


def brute_force_design_check(
    n: int, budget: float, c: float, grid_step: float
) -> BruteForceReport:
    """Exhaustive check that no grid contest beats the best simple contest.

    Enumerates every monotone nonnegative schedule with Sum v = V on the
    simplex grid of resolution ``grid_step`` and compares equilibrium
    participation against the best simple contest. The gap should never
    exceed solver slack; this is the desk-scale oracle for the one-hot
    optimality of the design LP. n above 6 or a grid finer than 1/50
    raises :class:`PopulationTooLarge`.
    """
    _check_scalars(n=n, budget=budget, c=c)
    if n > 6:
        raise PopulationTooLarge(f"exhaustive grid limited to n <= 6, got {n}")
    if not 0.0 < grid_step <= 1.0:
        raise ValidationError(f"grid_step must lie in (0, 1], got {grid_step!r}")
    if 1.0 / grid_step >= _MAX_GRID_STEPS + 0.5:  # an overflow to inf fails here too
        raise PopulationTooLarge(f"grid_step {grid_step!r} finer than 1/{_MAX_GRID_STEPS}")
    K = round(1.0 / grid_step)
    best_grid_p = -1.0
    best_grid_values: tuple[float, ...] = ()
    for partition in _partitions(K, n, K):
        values = tuple(budget * k / K for k in partition)
        contest = validate_contest(values, budget)
        p, _ = participation_rate(contest, c)
        if p > best_grid_p:
            best_grid_p = p
            best_grid_values = values
    best_simple_p = -1.0
    best_simple_j = 1
    for j in range(1, n + 1):
        p, _ = participation_rate(make_simple_contest(j, budget, n), c)
        if p > best_simple_p + _TIE_TOL:
            best_simple_p = p
            best_simple_j = j
    return BruteForceReport(
        best_grid_p=best_grid_p,
        best_grid_values=best_grid_values,
        best_simple_p=best_simple_p,
        best_simple_j=best_simple_j,
        gap=best_grid_p - best_simple_p,
    )
