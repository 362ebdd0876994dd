"""Prize schedules and the algebra on them.

A contest over n ranks is a non-increasing, nonnegative prize vector
(v_1, ..., v_n) paying v_j to rank j, with sum v_j <= budget. The central
quantity is the expected prize of an agent who participates and loses to each
opponent independently with probability p:

    c(p) = sum_j v_j * C(n-1, j-1) * p^(j-1) * (1-p)^(n-j)

which is weakly decreasing in p, strictly iff v_1 > v_n.

The rank-gap transform w_j = j * (v_j - v_{j+1}) (with v_{n+1} = 0) rewrites
that curve as a nonnegative mixture of the curves of "simple" contests that
split the budget equally among the top j ranks:

    c(p) = sum_{w_j > 0} (w_j / j) * S_j(p),   S_j(p) = Pr[B(n-1, p) <= j-1]

Both ``expected_prize`` and ``expected_prize_curve`` evaluate this mixture
through the binomial kernel ``numerics.rank_cdf``; the weights are computed
once per prize vector. The test suite checks both against a rank-probability
dot product computed independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import special

from .errors import (
    BudgetExceeded,
    BudgetNotExhausted,
    IndexOutOfRange,
    NegativePrize,
    NegativeWeight,
    NotMonotone,
    PopulationTooLarge,
    ValidationError,
)
from .numerics import rank_cdf

__all__ = [
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
    "contest_to_dict",
    "contest_from_dict",
]

_SLACK = 1e-12
_BUDGET_SLACK = 1e-9
# largest n that make_simple_contest accepts; see its docstring
_MAX_RANKS = 1_000_000


@dataclass(frozen=True)
class PrizeVector:
    """Validated prize schedule. ``values[j-1]`` is the prize for rank j."""

    values: tuple[float, ...]
    budget: float

    def __post_init__(self):
        if self.budget <= 0.0 or not math.isfinite(self.budget):
            raise BudgetExceeded(f"budget must be positive and finite, got {self.budget!r}")
        if len(self.values) == 0:
            raise IndexOutOfRange("a contest needs at least one rank")
        for j, v in enumerate(self.values, start=1):
            if not math.isfinite(v):
                raise NegativePrize(f"prize at rank {j} is not finite: {v!r}")
            if v < -_SLACK:
                raise NegativePrize(f"prize at rank {j} is negative: {v!r}")
            if j > 1 and v > self.values[j - 2] + _SLACK:
                raise NotMonotone(j)
        total = math.fsum(self.values)
        if total > self.budget * (1.0 + _BUDGET_SLACK):
            raise BudgetExceeded(
                f"prizes sum to {total}, exceeding budget {self.budget}"
            )

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return math.fsum(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    @cached_property
    def _mixture(self) -> tuple[np.ndarray, np.ndarray]:
        """Ranks j with w_j > 0 and their coefficients w_j / j in the curve mixture."""
        w = w_transform(self).as_array()
        js = np.flatnonzero(w > 0.0) + 1
        return js, w[js - 1] / js

    @cached_property
    def _mixture_slope(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(j - 1, n - j - 1, log(w_j / j) - betaln(n - j, j)) over j < n with w_j > 0.

        dS_j/dp = -(1-p)^(n-j-1) p^(j-1) / B(n-j, j), so c'(p) is minus the
        sum of exp(const + (j-1) log p + (n-j-1) log(1-p)); S_n is 1, so j = n
        adds no term.
        """
        js, coef = self._mixture
        keep = js < self.n
        js, coef = js[keep], coef[keep]
        const = np.log(coef) - special.betaln(self.n - js, js)
        return (js - 1).astype(float), (self.n - js - 1).astype(float), const


@dataclass(frozen=True)
class WTransform:
    """Rank-gap weights w_j = j * (v_j - v_{j+1}); sum w_j equals sum v_j."""

    weights: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.weights)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)


@dataclass(frozen=True)
class SimpleLottery:
    """Mixture over simple contests; ``probabilities[j-1]`` picks top-j equal split."""

    probabilities: tuple[float, ...]
    budget: float

    def __post_init__(self):
        total = math.fsum(self.probabilities)
        if abs(total - 1.0) > 1e-12:
            raise BudgetNotExhausted(
                f"lottery probabilities sum to {total}, expected 1"
            )

    @property
    def n(self) -> int:
        return len(self.probabilities)


def validate_contest(values, budget: float) -> PrizeVector:
    """Coerce and validate a prize schedule.

    Raises :class:`NegativePrize`, :class:`NotMonotone` (with the 1-based
    offending rank), or :class:`BudgetExceeded`. Monotonicity and sign use
    absolute slack 1e-12; the budget check allows 1e-9 relative slack.
    """
    return PrizeVector(tuple(float(v) for v in values), float(budget))


def make_simple_contest(j: int, budget: float, n: int) -> PrizeVector:
    """Top-j equal split: j prizes of budget/j, zeros below.

    The prize vector holds all n ranks, and building and validating it takes
    about 0.2 s at n = 10^6 (2 s at 10^7), so n above 10^6 raises
    :class:`PopulationTooLarge`; the Poisson limit covers larger populations.
    """
    if n > _MAX_RANKS:
        raise PopulationTooLarge(
            f"n = {n} exceeds the largest supported contest {_MAX_RANKS}"
        )
    if not 1 <= j <= n:
        raise IndexOutOfRange(f"need 1 <= j <= n, got j={j}, n={n}")
    prize = float(budget) / j
    return PrizeVector((prize,) * j + (0.0,) * (n - j), float(budget))


def expected_prize(contest: PrizeVector, p: float) -> float:
    """Expected prize at independent-loss probability p (the curve c(p))."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    js, coef = contest._mixture
    return float(np.dot(coef, rank_cdf(contest.n, js, p)))


def expected_prize_curve(contest: PrizeVector, ps: np.ndarray) -> np.ndarray:
    """Vectorised c(p) over an array of loss probabilities.

    Evaluates the rank-gap mixture sum_{w_j > 0} (w_j / j) * S_j(p) in one
    kernel call over every (j, p) pair, so simple contests cost one binomial
    cdf evaluation per p. The mixture is one ``np.dot`` over the flattened
    points, the product ``np.tensordot`` would form, without its overhead.
    """
    ps = np.asarray(ps, dtype=float)
    js, coef = contest._mixture
    s = rank_cdf(contest.n, js.reshape(-1, *(1,) * ps.ndim), ps)
    return np.dot(coef, s.reshape(len(coef), -1)).reshape(ps.shape)


def w_transform(contest: PrizeVector) -> WTransform:
    """Weights w_j = j * (v_j - v_{j+1}) with v_{n+1} = 0; nonnegative by monotonicity."""
    v = contest.values
    n = len(v)
    weights = tuple(
        j * (v[j - 1] - (v[j] if j < n else 0.0)) for j in range(1, n + 1)
    )
    return WTransform(weights)


def w_inverse(weights, budget: float | None = None) -> PrizeVector:
    """Rebuild the prize schedule from rank-gap weights: v_j = sum_{k>=j} w_k / k.

    Weights must be nonnegative (slack 1e-12, :class:`NegativeWeight`). When
    ``budget`` is omitted the schedule's own total (= sum of weights) is used.
    """
    w = [float(x) for x in weights]
    for j, x in enumerate(w, start=1):
        if x < -_SLACK:
            raise NegativeWeight(f"weight at rank {j} is negative: {x!r}")
    n = len(w)
    values = [0.0] * n
    acc = 0.0
    for j in range(n, 0, -1):
        acc += max(w[j - 1], 0.0) / j
        values[j - 1] = acc
    if budget is None:
        budget = math.fsum(values)
    return PrizeVector(tuple(values), float(budget))


def lottery_decomposition(contest: PrizeVector) -> SimpleLottery:
    """Decompose a budget-exhausting contest into a lottery over simple contests.

    Pr(j) = (j / V) * (v_j - v_{j+1}) = w_j / V. Requires sum v_j = V within
    1e-9 relative (:class:`BudgetNotExhausted`); then the probabilities sum
    to 1 and for every rank r, sum_{j>=r} Pr(j) * V/j telescopes back to v_r.
    """
    total = contest.total
    if abs(total - contest.budget) > _BUDGET_SLACK * contest.budget:
        raise BudgetNotExhausted(
            f"prizes sum to {total}, budget is {contest.budget}; "
            "the lottery decomposition needs an exhausted budget"
        )
    w = w_transform(contest).weights
    probs = tuple(max(x, 0.0) / total for x in w)
    return SimpleLottery(probs, contest.budget)


def contest_to_dict(contest: PrizeVector) -> dict:
    return {"budget": contest.budget, "values": list(contest.values)}


def contest_from_dict(doc: dict) -> PrizeVector:
    try:
        budget = doc["budget"]
        values = doc["values"]
        return validate_contest(values, budget)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed contest document: {exc}") from exc
