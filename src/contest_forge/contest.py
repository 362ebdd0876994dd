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

A :class:`PrizeVector` stores this mixture, so a simple contest is one term
at any n, and builds the n prizes only when they are read. It also keeps the
binomial kernel prepared for its ranks (``numerics.RankKernel``), so a scalar
``expected_prize`` costs one incomplete-beta call, one multiply and one sum;
``homogeneous.participation_rate`` solves c(p) = c with one such read a
step. This module calls no special function itself.
Both ``expected_prize`` and ``expected_prize_curve`` sum each point's mixture
terms along a contiguous last axis, so c(p) depends only on the contest and p:
a scalar, any shape, subset or order give the same bits. The test suite
checks both against a rank-probability dot product computed independently.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import _is_integer
from .errors import (
    BudgetExceeded,
    BudgetNotExhausted,
    IndexOutOfRange,
    NegativePrize,
    NegativeWeight,
    NotMonotone,
    OutOfRange,
    PopulationTooLarge,
    ValidationError,
)
from .numerics import RankKernel

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
_MAX_INDEX = int(np.iinfo(np.intp).max)  # largest rank: ranks index intp arrays
_BUDGET_SLACK = 1e-9
# largest n that make_simple_contest accepts; see its docstring
_MAX_RANKS = 1_000_000
# largest points x terms temporary of one prize-curve evaluation; larger
# evaluations go a chunk of rows at a time, at least one row per chunk
_CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True, eq=False)
class PrizeVector:
    """Validated prize schedule over ``n`` ranks, stored as its rank-gap mixture.

    ``ranks`` are the ascending ranks j with w_j > 0 and ``weights`` those
    w_j; every other rank has w_j = 0. ``values[j-1]``, the prize for rank j,
    is a view built on first read. Two contests are equal when their budgets
    and prizes are. Build one from prizes with :func:`validate_contest`.
    """

    n: int
    budget: float
    ranks: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if not (math.isfinite(self.budget) and self.budget > 0.0):
            raise BudgetExceeded(f"budget must be positive and finite, got {self.budget!r}")
        ranks, weights = tuple(self.ranks), tuple(self.weights)
        if not (_is_integer(self.n) and self.n >= 1 and len(ranks) == len(weights)
                and all(map(_is_integer, ranks)) and all(map(
                    operator.lt, (0,) + ranks, ranks + (min(self.n, _MAX_INDEX) + 1,)))):
            raise IndexOutOfRange(f"need integers n >= 1 and ranks rising in 1..n; n={self.n!r}")
        # min alone misses a NaN that is not first, but fsum then returns NaN
        if not (min(weights, default=1.0) > 0.0 and math.isfinite(total := math.fsum(weights))):
            raise NegativeWeight("mixture weights must be finite and positive")
        if total > self.budget * (1.0 + _BUDGET_SLACK):
            raise BudgetExceeded(f"prizes sum to {total}, exceeding budget {self.budget}")
        self._store(ranks, weights, np.array(ranks, dtype=np.intp))

    @classmethod
    def _checked(cls, n, budget: float, ranks: tuple, weights: tuple, js) -> PrizeVector:
        """The contest of a mixture its builder has checked, without ``__post_init__``.

        ``js`` is ``ranks`` as an intp array. The builders call it only on
        inputs that ``__post_init__`` accepts and hand the rest to the
        checked constructor, so every error keeps its class and message.
        """
        contest = object.__new__(cls)
        contest.__dict__.update(n=n, budget=budget)
        contest._store(ranks, weights, js)
        return contest

    def _store(self, ranks: tuple, weights: tuple, js) -> None:
        # the ranks j with w_j > 0 and their coefficients w_j / j in the curve mixture
        self.__dict__.update(
            ranks=ranks, weights=weights, _mixture=(js, np.array(weights, dtype=float) / js)
        )

    def __eq__(self, other):
        return (isinstance(other, PrizeVector) and self.budget == other.budget
                and self.values == other.values)

    def __hash__(self):
        return hash((self.values, self.budget))

    @cached_property
    def values(self) -> tuple[float, ...]:
        """v_j = sum_{k>=j} w_k / k, summed from rank n upward."""
        js, coef = self._mixture
        dense = np.zeros(self.n)
        dense[js - 1] = coef
        return tuple(np.cumsum(dense[::-1])[::-1].tolist())

    @property
    def total(self) -> float:
        return math.fsum(self.weights)

    @cached_property
    def _kernel(self) -> RankKernel:
        """S_j for the mixture's ranks j, prepared once for this contest."""
        return RankKernel(self.n, self._mixture[0])


@dataclass(frozen=True)
class WTransform:
    """Rank-gap weights w_j = j * (v_j - v_{j+1}); sum w_j equals sum v_j."""

    weights: tuple[float, ...]


@dataclass(frozen=True)
class SimpleLottery:
    """Mixture over simple contests; ``probabilities[j-1]`` picks top-j equal split."""

    probabilities: tuple[float, ...]
    budget: float

    def __post_init__(self):
        if not all(0.0 <= x < math.inf for x in self.probabilities):  # NaN fails too
            raise OutOfRange("lottery probabilities must be finite and nonnegative")
        total = math.fsum(self.probabilities)
        if abs(total - 1.0) > 1e-12:
            raise BudgetNotExhausted(f"lottery probabilities sum to {total}, expected 1")


def validate_contest(values, budget: float) -> PrizeVector:
    """The contest paying ``values``, which it keeps as its ``values``.

    One pass over the prizes collects the positive weights
    w_j = j * (v_j - v_{j+1}) and raises :class:`NegativePrize` or
    :class:`NotMonotone` (with the 1-based rank) at the first bad prize, with
    absolute slack 1e-12. The budget is then checked as :class:`PrizeVector`
    checks it, with the same errors, without repeating the rank checks.
    """
    values = tuple(map(float, values))
    ranks, weights = [], []
    for j, (v, below) in enumerate(zip(values, values[1:] + (0.0,)), start=1):
        if not -_SLACK <= v < math.inf:
            raise NegativePrize(f"prize at rank {j} is negative or not finite: {v!r}")
        if v > below:
            ranks.append(j)
            weights.append(j * (v - below))
        elif v + _SLACK < below < math.inf:  # an infinite v_{j+1} fails its sign check
            raise NotMonotone(j + 1)
    budget = float(budget)
    ranks, weights = tuple(ranks), tuple(weights)
    # the ranks rise in 1..n and the weights are positive by construction
    if values and math.isfinite(budget) and 0.0 < budget and (
        math.isfinite(total := math.fsum(weights)) and total <= budget * (1.0 + _BUDGET_SLACK)
    ):
        contest = PrizeVector._checked(len(values), budget, ranks, weights,
                                       np.array(ranks, dtype=np.intp))
    else:  # the checked constructor raises the error
        contest = PrizeVector(len(values), budget, ranks, weights)
    contest.__dict__["values"] = values
    return contest


def make_simple_contest(j: int, budget: float, n: int) -> PrizeVector:
    """Top-j equal split M^j: j prizes of budget/j, zeros below.

    M^j is the one-term mixture w_j = budget, built in the same time at any
    n. n above 10^6 raises :class:`PopulationTooLarge`: ``design`` prints
    every prize, and the kernel's relative error grows like (n - 1) eps. The
    Poisson limit covers larger populations.
    """
    _check_ranks(n)
    budget = float(budget)
    if (math.isfinite(budget) and 0.0 < budget and _is_integer(n) and _is_integer(j)
            and 0 < j <= n):
        return PrizeVector._checked(n, budget, (j,), (budget,), np.array((j,), dtype=np.intp))
    return PrizeVector(n, budget, (j,), (budget,))  # raises the error, if any


def _check_ranks(n: int) -> None:
    """Raise :class:`PopulationTooLarge` for an n above ``make_simple_contest``'s 10^6."""
    if n > _MAX_RANKS:
        raise PopulationTooLarge(f"n = {n} exceeds the largest supported contest {_MAX_RANKS}")


def _prize_curve(contest: PrizeVector, ps: np.ndarray) -> np.ndarray:
    """c(p) at each point of ``ps``; a point's terms are one contiguous row, summed alone.

    Rows are independent, so above ``_CHUNK_ELEMENTS`` points x terms they
    are evaluated a chunk of rows at a time, with the same bits.
    """
    kernel, coef = contest._kernel, contest._mixture[1]
    if ps.size * coef.size <= _CHUNK_ELEMENTS:
        return np.add.reduce(kernel(ps[..., None]) * coef, axis=-1)
    flat = ps.reshape(-1)
    out = np.empty(flat.size)
    rows = max(1, _CHUNK_ELEMENTS // coef.size)
    for lo in range(0, flat.size, rows):
        out[lo : lo + rows] = np.add.reduce(kernel(flat[lo : lo + rows, None]) * coef, axis=-1)
    return out.reshape(ps.shape)


def expected_prize(contest: PrizeVector, p: float) -> float:
    """Expected prize at independent-loss probability p (the curve c(p)).

    The one row of terms that ``expected_prize_curve`` sums for p, with the
    same bits, without its broadcasting.
    """
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"p must lie in [0, 1], got {p!r}")
    return float(np.add.reduce(contest._kernel(float(p)) * contest._mixture[1]))


def expected_prize_curve(contest: PrizeVector, ps: np.ndarray) -> np.ndarray:
    """Vectorised c(p) over loss probabilities in [0, 1], bitwise equal to expected_prize."""
    ps = np.asarray(ps, dtype=float)
    if not ((ps >= 0.0) & (ps <= 1.0)).all():
        raise OutOfRange("every p must lie in [0, 1]")
    return _prize_curve(contest, ps)


def w_transform(contest: PrizeVector) -> WTransform:
    """Weights w_j = j * (v_j - v_{j+1}) with v_{n+1} = 0; nonnegative by monotonicity."""
    w = np.zeros(contest.n)
    w[contest._mixture[0] - 1] = contest.weights
    return WTransform(tuple(w.tolist()))


def w_inverse(weights, budget: float | None = None) -> PrizeVector:
    """The contest with rank-gap weights ``weights``: v_j = sum_{k>=j} w_k / k.

    Weights must be finite and nonnegative (slack 1e-12,
    :class:`NegativeWeight`); those at or below zero add no term. The budget
    defaults to the total of the weights, which is the sum of the prizes.
    """
    w = np.array(weights, dtype=float, ndmin=1)
    if w.ndim != 1:
        raise ValidationError(f"weights must be one-dimensional, got shape {w.shape}")
    bad = np.flatnonzero(~(np.isfinite(w) & (w >= -_SLACK)))
    if bad.size:
        raise NegativeWeight(f"weight at rank {bad[0] + 1} is negative or not finite")
    js = np.flatnonzero(w > 0.0) + 1
    budget = math.fsum(w[js - 1]) if budget is None else budget
    return PrizeVector(w.size, float(budget), js.tolist(), w[js - 1].tolist())


def lottery_decomposition(contest: PrizeVector) -> SimpleLottery:
    """Decompose a budget-exhausting contest into a lottery over simple contests.

    Pr(j) = (j / V) * (v_j - v_{j+1}) = w_j / V. Requires sum v_j = V within
    1e-9 relative (:class:`BudgetNotExhausted`); then the probabilities sum
    to 1 and for every rank r, sum_{j>=r} Pr(j) * V/j telescopes back to v_r.
    """
    total = contest.total
    if abs(total - contest.budget) > _BUDGET_SLACK * contest.budget:
        raise BudgetNotExhausted(f"prizes sum to {total}, budget is {contest.budget}; "
                                 "the lottery decomposition needs an exhausted budget")
    probs = np.zeros(contest.n)
    probs[contest._mixture[0] - 1] = np.divide(contest.weights, total)
    return SimpleLottery(tuple(probs.tolist()), contest.budget)


def contest_to_dict(contest: PrizeVector) -> dict:
    return {"budget": contest.budget, "values": list(contest.values)}


def contest_from_dict(doc: dict) -> PrizeVector:
    try:
        return validate_contest(doc["values"], doc["budget"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed contest document: {exc}") from exc
