"""Equilibria and experiments for jointly distributed (quality, cost) types.

With heterogeneous costs the equilibrium is no longer a quality threshold,
but on a finite weighted support it is still pinned down by best-response
structure: an agent participates iff its cost is at most the expected prize
at its beat probability (ties toward participation). Qualities are pairwise
distinct, so a point's beat probability is the entering mass of the points
above it, and deciding the points in decreasing quality fixes the unique
equilibrium. :func:`equilibrium` does so in one scan that keeps the
entering mass as a running sum; because the expected prize only falls as
more mass enters, a point whose cost exceeds the prize at a failure above it
fails too, unread. The scan reads the prize curve speculatively, at the
masses the next points would have if they all entered, and keeps those
reads across failures: a failure leaves the mass unchanged, and on the
equal-weight supports that :func:`~contest_forge.distributions.discretize`
builds the masses after each entrant are the ones read. A solve is linear
in the support size and returns the profile once, with its round count;
:func:`best_response` evaluates the curve once per distinct beat
probability.

Participation profiles here are masks over the support of an
:class:`~contest_forge.distributions.EmpiricalTypes`; the distinct-q
invariant of that class is what makes strict rank comparisons safe. The
decreasing-quality order belongs to the support, not to a contest: the
support sorts it once, and the scan, the beat probabilities and
:func:`rule_from_profile` all read that stored order. The experiments solve
each distinct contest once; winner-take-all is M^1.

Objectives of a profile on a finite support have a closed form
(:func:`exact_objective`), which the experiments use. :func:`mc_objective`
estimates them by simulation instead, for rules over continuous laws such as
:class:`MedianRule`; its estimates are bitwise reproducible for a fixed
(seed, replicas, n): replicas are drawn and aggregated in index order from a
single deterministic stream. Every function that takes a finite support
refuses anything but an :class:`EmpiricalTypes` with :class:`ValidationError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contest import (
    PrizeVector,
    expected_prize,
    expected_prize_curve,
    lottery_decomposition,
    make_simple_contest,
    validate_contest,
)
from .distributions import (
    EmpiricalTypes,
    RectComponent,
    RectMixture,
    _check_seed,
    _finite_types,
    _is_integer,
    discretize,
    low_cost_max_cdf,
    median_max_quality,
    sample_joint,
)
from .errors import (
    BudgetTooSmall,
    IndexOutOfRange,
    NotSubEquilibrium,
    PopulationTooLarge,
    ProfileNotSubEquilibrium,
    ValidationError,
)
from .homogeneous import _check_scalars

__all__ = [
    "ParticipationProfile",
    "EquilibriumBracket",
    "ObjectiveEstimate",
    "MedianRule",
    "beat_probability",
    "expected_payoff",
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

_IR_TOL = 1e-12
_FOSD_TOL = 1e-12
# relative distance above a failing point's prize within which the
# equilibrium scan still compares a later point's cost with its own prize:
# the prize curve falls in p but its kernel need not, bit for bit, so any
# value above a few ulps changes only how many points are read.
_DEFER_RTOL = 1e-12
# curve elements (points x mixture terms) of the first speculative read of an
# equilibrium scan, and of each read after a mismatched mass; a read used up
# doubles the next
_FIRST_BLOCK = 32
# largest replicas x n that mc_objective draws; see its docstring
MAX_MC_DRAWS = 2**20
# most simple contests wta_approx_experiment solves, and most contests x
# support points: one contest on m points took about 0.13 ms + 0.8 us x m
# (2-core x86 host), 0.44 ms at the CLI's m = 400, so either limit is a
# run of about 4 s; both meet at m = 400
MAX_APPROX_CONTESTS = 10_000
MAX_APPROX_POINTS = 4_000_000


@dataclass(frozen=True, eq=False)
class ParticipationProfile:
    """Boolean participation mask aligned with an EmpiricalTypes support.

    ``mask`` is a read-only copy of the given array, so neither the caller
    nor a reader can change a profile, or its hash, afterwards.
    """

    mask: np.ndarray

    def __post_init__(self):
        mask = np.array(self.mask, dtype=bool)
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)
        if self.mask.ndim != 1:
            raise ValidationError("profile mask must be one-dimensional")

    @classmethod
    def empty(cls, size: int) -> "ParticipationProfile":
        return cls(np.zeros(size, dtype=bool))

    @classmethod
    def full(cls, size: int) -> "ParticipationProfile":
        return cls(np.ones(size, dtype=bool))

    @property
    def size(self) -> int:
        return int(self.mask.size)

    @property
    def count(self) -> int:
        return int(self.mask.sum())

    def same(self, other: "ParticipationProfile") -> bool:
        return bool(np.array_equal(self.mask, other.mask))

    def subset_of(self, other: "ParticipationProfile") -> bool:
        return bool(np.all(~self.mask | other.mask))

    def __eq__(self, other) -> bool:  # type: ignore[override]
        return isinstance(other, ParticipationProfile) and self.same(other)

    def __hash__(self):
        return hash(self.mask.tobytes())


@dataclass(frozen=True)
class EquilibriumBracket:
    """The equilibrium of :func:`equilibrium`: its ``profile``, and its
    ``iterations``, the rounds as :func:`equilibrium` defines them."""

    profile: ParticipationProfile
    iterations: int
    # the scan always finds the equilibrium; bench/workloads.py still reads
    # this, and ROADMAP item 1 deletes it
    converged = True


@dataclass(frozen=True)
class ObjectiveEstimate:
    mean: float
    std_error: float
    replicas: int
    seed: int


def _check_support(types) -> None:
    if not isinstance(types, EmpiricalTypes):
        raise ValidationError(
            f"{type(types).__name__} is not a finite support; "
            "use discretize to build one from a joint law"
        )


def _population(contest: PrizeVector, types: EmpiricalTypes) -> int:
    _check_support(types)
    if types.n is not None and types.n != contest.n:
        raise ValidationError(
            f"types expect population {types.n}, contest has {contest.n} ranks"
        )
    return contest.n


def _check_profile(types: EmpiricalTypes, profile: ParticipationProfile) -> None:
    _check_support(types)
    if profile.size != types.support_size:
        raise ValidationError(
            f"profile size {profile.size} != support size {types.support_size}"
        )


def beat_probability(
    types: EmpiricalTypes, profile: ParticipationProfile, i: int
) -> float:
    """Probability that one opponent draw participates and outranks point i."""
    _check_profile(types, profile)
    if not (_is_integer(i) and 0 <= i < types.support_size):
        raise IndexOutOfRange(f"support index {i} outside 0..{types.support_size - 1}")
    return float(_beat_probabilities(types, profile)[i])


def expected_payoff(
    contest: PrizeVector,
    types: EmpiricalTypes,
    profile: ParticipationProfile,
    i: int,
) -> float:
    """Participation payoff of point i against the given opponent profile."""
    _population(contest, types)
    p = beat_probability(types, profile, i)
    return expected_prize(contest, p) - float(types.c[i])


def _mass_above(w_desc: np.ndarray, mask_desc: np.ndarray) -> np.ndarray:
    """Entering mass strictly above each point, with points in decreasing q."""
    masked_w = np.where(mask_desc, w_desc, 0.0)
    return np.concatenate(([0.0], np.cumsum(masked_w)[:-1]))


def _beat_probabilities(
    types: EmpiricalTypes, profile: ParticipationProfile
) -> np.ndarray:
    """Vectorised beat_probability over the whole support."""
    order = types._order
    out = np.empty(types.support_size)
    out[order] = _mass_above(types._by_quality[1], profile.mask[order])
    return out


def best_response(
    contest: PrizeVector, types: EmpiricalTypes, profile: ParticipationProfile
) -> ParticipationProfile:
    """Pointwise best reply: participate iff cost <= expected prize (tie enters).

    Antitone: enlarging the opponent profile can only shrink the response.
    """
    _population(contest, types)
    _check_profile(types, profile)
    # k participants leave at most k + 1 distinct beat probabilities
    levels, level_of = np.unique(_beat_probabilities(types, profile), return_inverse=True)
    prizes = expected_prize_curve(contest, levels)[level_of]
    return ParticipationProfile(types.c <= prizes)


def equilibrium(contest: PrizeVector, types: EmpiricalTypes) -> EquilibriumBracket:
    """The unique equilibrium, by one scan in decreasing quality.

    A point's beat probability is the entering mass above it, so the points
    are decided from the top down, in the decreasing-quality order the
    support stores with its costs and weights (no sort or copy here). The
    scan keeps that mass as a running sum and lets each point enter iff its
    cost is at most the prize at the mass, the comparison
    :func:`best_response` makes: the prize at p depends only on p, and the
    running sum has the bits of the sequential sum over the entrants, so the
    result is its fixed point. The expected prize only falls as more mass
    enters, so a point whose cost exceeds the prize at a failure stays out
    unread; the curve need not fall bit for bit in p, so a point within
    ``_DEFER_RTOL`` of that prize is read.

    Reads are speculative. Where the prize at the current mass is unknown,
    one curve call evaluates the masses that the next ``block`` undecided
    points would have if they all entered. The scan moves along those masses
    while the mass after each entrant matches the next one bit for bit, which
    it always does on equal weights; a failure leaves the mass, and so its
    known prize, as it is. ``block`` starts at ``_FIRST_BLOCK`` points
    shared among the contest's mixture terms, doubles each time a read is
    used up and starts over after a mismatch. ``iterations`` counts rounds:
    the failures, plus one if an entrant follows the last of them, as in a
    sweep that restarts below each failure.
    """
    _population(contest, types)
    order = types._order
    c_desc, w_desc, c, w = types._by_quality
    first = max(1, _FIRST_BLOCK // max(1, len(contest.ranks)))
    block = first
    entrants = []  # positions in q order
    cap = math.inf  # a point with c > cap fails unread
    mass = 0.0  # entering mass above the current point
    # the last read: the prize at masses[k] is prizes[k]; a NaN ends masses,
    # so one comparison finds a read used up or mismatched
    masses, prizes, k = [math.nan], [], 0
    failures, last_failure = 0, -1
    for i, ci in enumerate(c):
        if ci > cap:
            continue
        if masses[k] != mass:  # read used up (double the block) or mismatched
            block = 2 * block if k == len(prizes) and prizes else first
            masses = _speculative_masses(c_desc, w_desc, i, cap, mass, block)
            prizes = expected_prize_curve(contest, masses).tolist()
            masses = masses.tolist() + [math.nan]
            k = 0
        if ci <= prizes[k]:
            entrants.append(i)
            mass += w[i]
            k += 1
        else:
            cap = min(cap, prizes[k] * (1.0 + _DEFER_RTOL))
            failures += 1
            last_failure = i
    mask = np.zeros(types.support_size, dtype=bool)
    mask[order[np.array(entrants, dtype=np.intp)]] = True
    tail = bool(entrants) and entrants[-1] > last_failure
    return EquilibriumBracket(ParticipationProfile(mask), iterations=failures + tail)


def _speculative_masses(
    c: np.ndarray, w: np.ndarray, i: int, cap: float, mass: float, block: int
) -> np.ndarray:
    """Masses above the first ``block`` points from i on with c <= cap, if all enter.

    Point i is one of them. The sum is sequential from ``mass``, so each
    mass has the bits of the scan's running sum after the same entrants.
    """
    span = block  # widened until it holds block such points or reaches the end
    while True:
        live = np.flatnonzero(c[i : i + span] <= cap)
        if live.size >= block or i + span >= c.size:
            break
        span *= 4
    live = i + live[:block]
    # a mass sums the weights above its point, so the last weight is left out
    return np.cumsum(np.concatenate(([mass], w[live[:-1]])))


def is_sub_equilibrium(
    contest: PrizeVector, types: EmpiricalTypes, profile: ParticipationProfile
) -> bool:
    """Interim rationality of every participant (non-participants unconstrained)."""
    _population(contest, types)
    _check_profile(types, profile)
    if profile.count == 0:
        return True
    ps = _beat_probabilities(types, profile)[profile.mask]
    payoff = expected_prize_curve(contest, ps) - types.c[profile.mask]
    return bool(np.all(payoff >= -_IR_TOL * contest.budget))


def output_cdf(
    types: EmpiricalTypes, profile: ParticipationProfile, x: float
) -> float:
    """CDF at x of one draw's output q * participate (non-participants produce 0).

    One search of the output law that :func:`exact_objective` sums and
    :func:`fosd_check` compares, so the two give the same bits at every x.
    """
    _check_profile(types, profile)
    if not x >= 0.0:  # NaN fails here too
        raise ValidationError(f"need x >= 0, got {x!r}")
    return float(_output_cdfs(types, profile, x))


def fosd_check(
    types: EmpiricalTypes,
    eq_profile: ParticipationProfile,
    sub_profile: ParticipationProfile,
    contest: PrizeVector,
) -> bool:
    """Does equilibrium output first-order dominate the sub-equilibrium's?

    Verifies the premises first: ``sub_profile`` must pass is_sub_equilibrium
    and ``eq_profile`` must be a best-response fixed point for the same
    contest (:class:`ProfileNotSubEquilibrium` otherwise). Then checks
    output_cdf(eq, x) <= output_cdf(sub, x) + 1e-12 at 0 and at every
    support quality. The dominance lemma is known only on equal-weight
    supports, as ``discretize`` builds them: with unequal weights this can
    be False for a valid sub-equilibrium.
    """
    if not is_sub_equilibrium(contest, types, sub_profile):
        raise ProfileNotSubEquilibrium("sub profile violates interim rationality")
    if not best_response(contest, types, eq_profile).same(eq_profile):
        raise ProfileNotSubEquilibrium("eq profile is not a best-response fixed point")
    xs = np.concatenate(([0.0], types.q))
    cdf_eq = _output_cdfs(types, eq_profile, xs)
    cdf_sub = _output_cdfs(types, sub_profile, xs)
    return bool(np.all(cdf_eq <= cdf_sub + _FOSD_TOL))


def _output_cdfs(
    types: EmpiricalTypes, profile: ParticipationProfile, xs: np.ndarray
) -> np.ndarray:
    """output_cdf at every x in ``xs`` (or at one x): one search of the output law."""
    out, cum = _output_law(types, profile)
    return cum[np.searchsorted(out, xs, side="right")]


def _output_law(
    types: EmpiricalTypes, profile: ParticipationProfile
) -> tuple[np.ndarray, np.ndarray]:
    """(x, F): one draw's outputs q * participate, stably sorted, and F_k,
    the weight of the first k of them for k = 0..m (F_0 = 0)."""
    out = np.where(profile.mask, types.q, 0.0)
    order = np.argsort(out, kind="stable")
    return out[order], np.concatenate(([0.0], np.cumsum(types.w[order])))


def rule_from_profile(types: EmpiricalTypes, profile: ParticipationProfile):
    """Participation predicate over (q, c) arrays for draws from this support.

    Points are identified by their (distinct) quality; draws must be support
    atoms, which is what sampling from EmpiricalTypes produces.
    """
    _check_profile(types, profile)
    order = types._order[::-1]  # increasing q
    sorted_q = types.q[order]
    sorted_mask = profile.mask[order]

    def rule(qs, cs):
        pos = np.searchsorted(sorted_q, np.asarray(qs, dtype=float))
        pos = np.clip(pos, 0, sorted_q.size - 1)
        return sorted_mask[pos]

    return rule


def _draw_types(jd, rng: np.random.Generator, count: int):
    if isinstance(jd, EmpiricalTypes):
        idx = rng.choice(jd.support_size, size=count, p=jd.w)
        return jd.q[idx], jd.c[idx]
    if isinstance(jd, RectMixture):
        return sample_joint(jd, rng, size=count)
    raise ValidationError(f"cannot sample from {type(jd).__name__}")


def mc_objective(
    jd,
    rule,
    n: int,
    objective,
    replicas: int,
    seed,
) -> ObjectiveEstimate:
    """Monte Carlo estimate of an output objective under a participation rule.

    ``jd`` is a RectMixture or EmpiricalTypes; ``rule`` maps (q, c) arrays to
    a participation mask; ``objective`` is "max", "sum", or ("top_k", k)
    with an integer 1 <= k <= n. Non-participants produce 0, and empty
    participant sets score 0. ``n`` and ``replicas`` >= 2 are integers, and
    ``seed`` follows :func:`~contest_forge.distributions.discretize`'s rule:
    an integer >= 0. replicas x n above ``MAX_MC_DRAWS`` (2^20) raises
    :class:`PopulationTooLarge` before any allocation: the draws take 25-50
    bytes each at their peak, about 50 MiB at the limit.
    """
    if not (_is_integer(replicas) and replicas >= 2):
        raise ValidationError(f"need an integer replicas >= 2, got {replicas!r}")
    _check_scalars(n=n)
    if (draws := int(replicas) * int(n)) > MAX_MC_DRAWS:  # Python ints cannot wrap
        raise PopulationTooLarge(
            f"replicas x n = {draws} exceeds the largest Monte Carlo run {MAX_MC_DRAWS}"
        )
    _check_seed(seed)
    if isinstance(objective, tuple) and len(objective) == 2 and objective[0] == "top_k":
        k = objective[1]
        if not (_is_integer(k) and 1 <= k <= n):
            raise ValidationError(f"top_k needs an integer 1 <= k <= n, got {k!r}")
    elif objective not in ("max", "sum"):
        raise ValidationError(f"unknown objective {objective!r}")
    rng = np.random.default_rng(seed)
    qs, cs = _draw_types(jd, rng, replicas * n)
    participate = np.asarray(rule(qs, cs), dtype=bool)
    outputs = np.where(participate, qs, 0.0).reshape(replicas, n)

    if objective == "max":
        per_replica = outputs.max(axis=1)
    elif objective == "sum":
        per_replica = outputs.sum(axis=1)
    else:
        per_replica = np.partition(outputs, n - k, axis=1)[:, n - k :].sum(axis=1)

    mean = float(per_replica.mean())
    std_error = float(per_replica.std(ddof=1) / math.sqrt(replicas))
    return ObjectiveEstimate(
        mean=mean, std_error=std_error, replicas=int(replicas), seed=int(seed)
    )


def exact_objective(
    types: EmpiricalTypes, profile: ParticipationProfile, n: int, objective
) -> float:
    """Exact expected output objective of n i.i.d. draws from the support.

    A draw of point i outputs x_i = q_i if the profile includes i and 0
    otherwise. ``objective`` is "max" or "sum". On the output law that
    :func:`output_cdf` reads, x_k in increasing order and F_k their weight,
    E[max] = sum_k x_k (F_k^n - F_{k-1}^n) (tied outputs telescope, and
    negative q needs no special case); E[sum] = n sum_i w_i x_i.
    """
    _check_profile(types, profile)
    _check_scalars(n=n)
    if objective == "sum":
        return float(n * np.dot(types.w, np.where(profile.mask, types.q, 0.0)))
    if objective != "max":
        raise ValidationError(f"unknown objective {objective!r}")
    x, cum = _output_law(types, profile)
    return float(np.dot(x, np.diff(cum**n)))


@dataclass(frozen=True)
class MedianRule:
    """Enter iff q >= mu and c <= cost_cap; a winner-take-all sub-equilibrium.

    ``win_floor`` is the certified lower bound on a participant's win
    probability (at least 1/2 by the median construction).
    """

    mu: float
    cost_cap: float
    win_floor: float

    def __call__(self, qs, cs):
        qs = np.asarray(qs, dtype=float)
        cs = np.asarray(cs, dtype=float)
        return (qs >= self.mu) & (cs <= self.cost_cap)


def median_subequilibrium(jd: RectMixture, budget: float, n: int) -> MedianRule:
    """The median construction: threshold at the median of the best low-cost rival.

    mu is the median of max{q : c <= V/2} over n-1 draws; an entrant with
    q >= mu wins with probability at least 1/2, so the expected prize is at
    least V/2 >= her cost and the rule is interim-rational under
    winner-take-all.
    """
    _check_scalars(n=n, budget=budget)
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    cap = budget / 2.0
    mu = median_max_quality(jd, cap, n - 1)
    win_floor = low_cost_max_cdf(jd, cap, n - 1, mu)
    if win_floor < 0.5 - 1e-9:
        raise NotSubEquilibrium(
            f"median construction certifies win probability {win_floor} < 1/2"
        )
    return MedianRule(mu=mu, cost_cap=cap, win_floor=win_floor)


def highcost_subequilibrium(
    contest: PrizeVector, types: EmpiricalTypes
) -> ParticipationProfile:
    """Expensive participants of any budget-exhausting equilibrium, as a WTA profile.

    V is ``contest.budget``, which the prizes must exhaust
    (:class:`BudgetNotExhausted` otherwise). Takes the equilibrium of
    ``contest``, keeps participants with c > V/2, and verifies directly that
    the kept set is interim-rational under winner-take-all with budget V
    (the lottery decomposition argument says it must be: ranks below the
    top pay at most V/2 < c, so the top-rank term carries the rationality).
    A failure raises :class:`NotSubEquilibrium` loudly. That WTA's equilibrium
    dominates it rests on the lemma of :func:`fosd_check`, on equal weights.
    """
    lottery_decomposition(contest)  # validates budget exhaustion
    budget = contest.budget
    n = _population(contest, types)
    bracket = equilibrium(contest, types)
    base = bracket.profile.mask
    kept = ParticipationProfile(base & (types.c > budget / 2.0))
    if kept.count > 0:
        wta = make_simple_contest(1, budget, n)
        ps = _beat_probabilities(types, kept)[kept.mask]
        worst = float((expected_prize_curve(wta, ps) - types.c[kept.mask]).min())
        if worst < -1e-9 * budget:
            raise NotSubEquilibrium(
                f"high-cost profile breaks winner-take-all rationality by {worst}"
            )
    return kept


def wta_approx_experiment(
    jd: RectMixture,
    n: int,
    budget: float,
    discretization: int,
    replicas: int,
    seed,
) -> dict:
    """Measure how far winner-take-all falls below the best simple contest.

    Discretizes the joint law (an EmpiricalTypes ``jd`` is used without
    discretizing), then solves the equilibrium of every simple contest with
    at most V / min-cost prizes and its exact expected maximum output. M^1
    is winner-take-all, so its row gives W; the best row, B, is a certified
    lower bound on the optimum. Reports the ratio B / W and the exact check
    3W >= B. The bound rests on the lemma of :func:`fosd_check`, known only
    on equal weights: a discretized law, not any ``EmpiricalTypes``.
    ``seed`` drives the discretization only; ``replicas`` is accepted for
    compatibility and does not affect the result. More than
    ``MAX_APPROX_CONTESTS`` (10^4) contests, or more than
    ``MAX_APPROX_POINTS`` (4 x 10^6) contests x support points, raise
    :class:`PopulationTooLarge` before any contest is solved.
    """
    _check_scalars(n=n, budget=budget)
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    types = _finite_types(jd, discretization, seed, n)
    min_cost = float(types.c.min())
    ratio_cap = budget / min_cost if min_cost > 0.0 else math.inf
    j_cap = n if ratio_cap >= n else max(1, math.floor(ratio_cap + 1e-12))
    if j_cap > MAX_APPROX_CONTESTS or j_cap * types.support_size > MAX_APPROX_POINTS:
        raise PopulationTooLarge(
            f"the experiment would solve {j_cap} simple contests on {types.support_size} "
            f"support points; the largest run is {MAX_APPROX_CONTESTS} contests and "
            f"{MAX_APPROX_POINTS} contests x points"
        )

    contests = []
    all_collapsed = True
    best_mean = -math.inf
    best_j = 1
    for j in range(1, j_cap + 1):
        contest = make_simple_contest(j, budget, n)
        bracket = equilibrium(contest, types)
        all_collapsed = all_collapsed and bracket.converged
        mean = exact_objective(types, bracket.profile, n, "max")
        contests.append(
            {"j": j, "converged": bracket.converged, "estimate": {"mean": mean}}
        )
        if mean > best_mean:
            best_mean = mean
            best_j = j

    w_mean = contests[0]["estimate"]["mean"]  # M^1 is winner-take-all
    ratio = best_mean / w_mean if w_mean > 0.0 else math.inf
    return {
        "n": n,
        "budget": budget,
        "discretization": discretization,
        "wta": {"mean": w_mean},
        "contests": contests,
        "best_j": best_j,
        "best": best_mean,
        "ratio": ratio,
        "checks": {
            "three_w_geq_best": bool(3.0 * w_mean >= best_mean),
            "all_brackets_collapsed": bool(all_collapsed),
        },
    }


def example_obj(
    budget: float, n: int, eps: float, seed, *, replicas: int = 200, m: int = 1600
) -> dict:
    """Two-cluster instance where max and sum objectives need different contests.

    Half the mass is a low cluster (q near 1, cost near 1), half a high
    cluster (q in [20, 21], cost near 0.9 V). Winner-take-all elicits a few
    expensive stars (good max, poor sum); spreading the budget as V/2 prizes
    of 2 elicits many cheap types (good sum, poor max). Four checks:

    a. WTA equilibrium expected max > 2;
    b. the spread contest's expected sum >= V/4;
    c. the spread contest's equilibrium contains no high-cost types;
    d. every tested top-heavy contest (v_1 >= 9V/10 - 1) keeps the expected
       sum below V/4.

    Every objective is the exact expectation on the discretized support;
    ``seed`` drives the discretization only, and ``replicas`` is accepted for
    compatibility and does not affect the result. The contests need
    n >= max(11, round(V/2)) ranks.
    """
    _check_scalars(n=n, budget=budget)
    if budget < 160.0:
        raise BudgetTooSmall(
            f"the separation argument needs budget >= 160, got {budget!r}"
        )
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"need 0 < eps < 1, got {eps!r}")
    V = float(budget)
    j_mid = int(round(V / 2.0))
    # the spread contest pays j_mid ranks and floor_plus_ten pays 11
    min_n = max(11, j_mid)
    if n < min_n:
        raise ValidationError(
            f"need n >= max(11, round(V/2)) = {min_n} for budget V={V!r}, got n={n}"
        )
    jd = RectMixture(
        (
            RectComponent(1.0, 1.0 + eps, 1.0 - eps, 1.0, 0.5),
            RectComponent(20.0, 21.0, 0.9 * V - 1.0, 0.9 * V, 0.5),
        )
    )
    types = discretize(jd, m, seed, n=n)
    high_cost = V / 2.0  # separates the clusters for any budget >= 160

    wta = make_simple_contest(1, V, n)
    wta_bracket = equilibrium(wta, types)
    wta_max = exact_objective(types, wta_bracket.profile, n, "max")

    spread = make_simple_contest(j_mid, V, n)
    spread_bracket = equilibrium(spread, types)
    spread_sum = exact_objective(types, spread_bracket.profile, n, "sum")
    spread_high_count = int(
        np.sum(spread_bracket.profile.mask & (types.c > high_cost))
    )

    # top-heavy family: winner-take-all plus near-maximal first prizes with the
    # remainder spread over 1, 2, or 10 runner-up ranks
    v1_floor = 0.9 * V - 1.0
    top_heavy: list[tuple[str, PrizeVector]] = [("wta", wta)]
    rest = V - v1_floor
    top_heavy.append(
        ("floor_plus_one", validate_contest((v1_floor, rest) + (0.0,) * (n - 2), V))
    )
    top_heavy.append(
        (
            "floor_plus_ten",
            validate_contest((v1_floor,) + (rest / 10.0,) * 10 + (0.0,) * (n - 11), V),
        )
    )
    v1_mid = 0.95 * V
    top_heavy.append(
        (
            "mid_plus_two",
            validate_contest((v1_mid,) + ((V - v1_mid) / 2.0,) * 2 + (0.0,) * (n - 3), V),
        )
    )

    top_heavy_rows = []
    all_below = True
    for name, cv in top_heavy:
        bracket = wta_bracket if cv is wta else equilibrium(cv, types)
        total = exact_objective(types, bracket.profile, n, "sum")
        below = total < V / 4.0
        all_below = all_below and below
        top_heavy_rows.append(
            {
                "name": name,
                "v1": cv.values[0],
                "sum_estimate": {"mean": total},
                "below_quarter": bool(below),
            }
        )

    return {
        "budget": V,
        "n": n,
        "eps": eps,
        "discretization": m,
        "wta_max": {"mean": wta_max},
        "spread_j": j_mid,
        "spread_sum": {"mean": spread_sum},
        "spread_high_participants": spread_high_count,
        "top_heavy": top_heavy_rows,
        "checks": {
            "wta_max_exceeds_2": bool(wta_max > 2.0),
            "spread_sum_geq_quarter": bool(spread_sum >= V / 4.0),
            "spread_has_no_high_types": bool(spread_high_count == 0),
            "top_heavy_sum_below_quarter": bool(all_below),
        },
    }
