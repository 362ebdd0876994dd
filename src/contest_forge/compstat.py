"""Comparative statics in the participation cost, and the large-n limit.

As the common cost c falls from V to 0, the optimal number of equal prizes
steps up through breakpoints V = c_1 > c_2 > ... > c_n > 0: M^j is optimal
exactly on [c_{j+1}, c_j]. Each interior breakpoint p_j is the unique
positive root (mapped by p = r/(1+r)) of the polynomial

    Q_j(x) = (j-1) C(n-1, j-1) x^(j-1) - sum_{k=1}^{j-1} C(n-1, k-1) x^(k-1),

which has a single sign change by Descartes' rule. With p = r/(1+r),
(1-p)^(n-1) Q_j(r) = (j-1) pmf(j-1) - S_{j-1}(p) for B(n-1, p), so
``breakpoints`` finds every p_j at once as the root of
g(p) = log((j-1) pmf(j-1)) - log S_{j-1}(p) on (0, 1), by a safeguarded
Newton iteration over all j together. The roots and S_j(p_j) depend on n
alone and c_j = (V/j) S_j(p_j) scales with V, so that budget-free chain is
solved once per n <= 1024 and kept in a memo of at most 128 chains (3.1 MB);
a repeat table at a kept n is O(n) array work and no kernel read. The
expanded polynomial overflows a float near n = 190; ``q_polynomial`` stays
as the test reference. In the scaling limit (n -> infinity, lambda = n p
fixed) binomial curves become Poisson ones and the design problem has a
clean limit object: the rate of M^j inverts the Poisson curve in closed
form, and the best j is found by the first-descent search of the finite
design, started at the measured j* ~ V/c - sqrt((V/c) / ln(V/c)). The
bound_audit routine numerically spot-checks the inequalities the asymptotic
analysis leans on, with the pmf and tail taken from the same binomial
kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .contest import make_simple_contest
from .distributions import Uniform, _is_integer, _is_real
from .errors import IterationLimit, NumericalError, PopulationTooLarge, ValidationError
from .homogeneous import MAX_POPULATION, _check_scalars, optimal_contest, participation_rate
from .numerics import (
    LogPmfKernel,
    RankKernel,
    binom_logpmf,
    first_descent,
    poisson_cdf_partial,
    poisson_cdf_partial_inv,
    rank_cdf,
)

__all__ = [
    "BreakpointTable",
    "PoissonLimit",
    "ConvergenceRow",
    "ConvergenceTable",
    "ScanRow",
    "q_polynomial",
    "breakpoints",
    "classify_by_breakpoints",
    "wta_optimal",
    "poisson_value",
    "poisson_limit",
    "finite_to_limit_convergence",
    "asymptotic_scan",
    "bound_audit",
]

# largest V/c that poisson_limit accepts
MAX_POISSON_SCALE = 1e8
# largest n that breakpoints accepts; see its docstring
MAX_BREAKPOINT_POPULATION = 500_000
# cap on the Newton rounds of the breakpoint roots, which take 6 to 11 up to
# n = 20000; a root still open after it raises IterationLimit
_ROOT_STEPS = 64
# relative Newton step under which a breakpoint root counts as converged
_ROOT_RTOL = 1e-12
# largest n whose breakpoint chain is kept once solved; 128 chains of at most
# 1023 rows of 24 B (j, p_j, S_j(p_j)) hold at most 3.1 MB
_MEMO_POPULATION = 1024

# Audit constants for the tail band check; the underlying analysis only pins
# the orders, so these are deliberately generous.
TAIL_BAND_C0 = 0.001
TAIL_BAND_C1 = 100.0


@dataclass(frozen=True)
class BreakpointTable:
    """Cost breakpoints: entries (j, p_j, c_j) for j = 2..n; c_1 = V, c_{n+1} = 0."""

    n: int
    budget: float
    entries: tuple[tuple[int, float, float], ...]

    def thresholds(self) -> np.ndarray:
        """[c_1, c_2, ..., c_n, c_{n+1}] with c_1 = V and c_{n+1} = 0, read-only.

        Built once per table, so repeated classifications do not rebuild it
        from the entries.
        """
        return self._thresholds

    @cached_property
    def _thresholds(self) -> np.ndarray:
        out = np.array([self.budget] + [c for (_, _, c) in self.entries] + [0.0])
        out.flags.writeable = False
        return out

    @cached_property
    def _negated_lower(self) -> np.ndarray:
        """[-c_2, ..., -c_n, -c_{n+1}], ascending and read-only, for ``classify_by_breakpoints``."""
        out = -self._thresholds[1:]
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class PoissonLimit:
    lambda_star: float
    j_star: int
    value: float


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    j_star: int
    lambda_star: float
    gap: float


@dataclass(frozen=True)
class ConvergenceTable:
    limit: PoissonLimit
    rows: tuple[ConvergenceRow, ...]


@dataclass(frozen=True)
class ScanRow:
    vc: float
    n: int
    j_star: int
    lambda_star: float
    r_j: float
    r_lambda: float


def q_polynomial(n: int, j: int, x: float) -> float:
    """Q_j(x); Q_j(0) = -1 and Q_j increases through its single positive root.

    Exact-integer coefficients; a reference for ``breakpoints``, whose roots
    it defines. Raises OverflowError once C(n-1, j-1) x^(j-1) exceeds a float.
    """
    if not 2 <= j <= n:
        raise ValidationError(f"need 2 <= j <= n, got j={j}, n={n}")
    lead = (j - 1) * math.comb(n - 1, j - 1) * x ** (j - 1)
    tail = math.fsum(math.comb(n - 1, k - 1) * x ** (k - 1) for k in range(1, j))
    return lead - tail


def breakpoints(n: int, budget: float) -> BreakpointTable:
    """Tabulate (p_j, c_j) for j = 2..n.

    p_j is where (j-1) Pr[B(n-1, p) = j-1] = Pr[B(n-1, p) <= j-2], the root
    of Q_j mapped to p; all n-1 roots are solved together by
    ``_breakpoint_roots``. c_j = (V/j) S_j(p_j) is the common value of the
    M^j and M^{j-1} curves there. Raises NumericalError if the resulting
    sequence is not strictly decreasing with gaps above 1e-12 * V. n above
    MAX_BREAKPOINT_POPULATION raises PopulationTooLarge before any work: the
    smallest gap, c_{n-1} - c_n, shrinks like 1/n^2, from 3.7e-12 V at
    n = 500000 to below the check at n = 10^6, and a table of 500000 rows
    takes a few seconds to solve.

    The chain (j, p_j, S_j(p_j)) does not depend on the budget: for
    n <= 1024 it is solved once and kept (``_breakpoint_chain``, at most 128
    chains, 3.1 MB), and a table at a kept n costs the O(n) array work of
    c_j, the entries and the ordering check, with no kernel read. Larger n
    solve on every call.
    """
    _check_scalars(n=n, budget=budget)
    n = int(n)
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    if n > MAX_BREAKPOINT_POPULATION:
        raise PopulationTooLarge(
            f"n = {n} exceeds the largest supported breakpoint table "
            f"{MAX_BREAKPOINT_POPULATION}"
        )
    solve = _breakpoint_chain if n <= _MEMO_POPULATION else _breakpoint_chain.__wrapped__
    js, p, s = solve(n)
    c = (budget / js) * s
    table = BreakpointTable(
        n=n, budget=float(budget), entries=tuple(zip(js.tolist(), p.tolist(), c.tolist()))
    )
    # the thresholds the table would build from its entries, taken from c
    thresholds = np.concatenate(([table.budget], c, [0.0]))
    thresholds.flags.writeable = False
    table.__dict__["_thresholds"] = thresholds
    gaps = thresholds[:-1] - thresholds[1:]
    if np.any(gaps <= 1e-12 * budget):
        bad = int(np.argmax(gaps <= 1e-12 * budget)) + 1
        raise NumericalError(
            f"breakpoints not strictly decreasing at c_{bad} -> c_{bad + 1}"
        )
    return table


@lru_cache(maxsize=128)
def _breakpoint_chain(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The budget-free part of ``breakpoints``: j = 2..n, p_j and S_j(p_j), read-only."""
    js = np.arange(2, n + 1)
    p = _breakpoint_roots(n, js)
    s = rank_cdf(n, js, p)
    for a in (js, p, s):
        a.flags.writeable = False
    return js, p, s


def _breakpoint_roots(n: int, js: np.ndarray) -> np.ndarray:
    """The roots p_j in (0, 1) of g(p) = log((j-1) b(j-1; p)) - log S_{j-1}(p).

    b is the pmf of B(n-1, p). g rises from -inf at p = 0 to +inf at p = 1,
    and dS_{j-1}/dp = -(j-1) b(j-1; p) / p gives its slope without another
    kernel call: g'(p) = (j-1)/p - (n-j)/(1-p) + e^g / p. Both kernels are
    prepared once, for ranks j - 1 at n, and the solver carries only its
    open lanes: their x, sign brackets [lo, hi], index into ``js`` and
    constants. Each round evaluates g on them, narrows the brackets and
    takes the Newton step; a step that leaves the bracket (its ends count as
    inside; a NaN or infinite step fails the comparison) becomes a bisection
    step. A lane closes on a Newton step below _ROOT_RTOL * x, or below
    (n-1) eps * x: S_{j-1} is evaluated at the rounded 1 - x, and its
    (n-1)-fold power turns that rounding into noise in g of about
    (n-1) eps relative in p for the small j, which a fixed tolerance would
    chase forever at large n. A round in which lanes close writes their
    roots out and compacts the rest, kernels included. A lane still open
    after _ROOT_STEPS rounds raises IterationLimit.
    """
    rtol = max(_ROOT_RTOL, (n - 1) * np.finfo(float).eps)
    out = np.empty(js.shape)
    lane = np.arange(js.size)
    cdf = RankKernel(n, js - 1)
    log_pmf = LogPmfKernel(n - 1, js - 1)
    # B(n-1, p) = j - 1 is k = j - 1 successes and rest = n - j failures
    k = js - 1.0
    log_k = np.log(k)
    rest = (n - js).astype(float)
    lo = np.zeros(js.shape)
    hi = np.ones(js.shape)
    x = np.clip((js - 1.5) / (n - 1), 1e-3, 1.0 - 1e-3)
    # g is -inf where the pmf underflows and +inf where S_{j-1} does; both
    # give the right sign and a non-finite step, hence a bisection step
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_ROOT_STEPS):
            q = 1.0 - x
            g = log_k + log_pmf(x) - np.log(cdf.of_complement(q))
            positive = g > 0.0
            lo = np.where(positive, lo, x)
            hi = np.where(positive, x, hi)
            step = g / (k / x - rest / q + np.exp(g) / x)
            newton = x - step
            accept = (lo <= newton) & (newton <= hi)
            done = accept & (np.abs(step) <= rtol * x)
            x = np.where(accept, newton, 0.5 * (lo + hi))
            if done.any():
                out[lane[done]] = x[done]
                keep = ~done
                lane = lane[keep]
                if lane.size == 0:
                    return out
                x, lo, hi = x[keep], lo[keep], hi[keep]
                k, log_k, rest = k[keep], log_k[keep], rest[keep]
                cdf, log_pmf = cdf.take(keep), log_pmf.take(keep)
    raise IterationLimit(
        f"{lane.size} breakpoint roots open after {_ROOT_STEPS} rounds at n = {n}, "
        f"first at j = {int(js[lane[0]])}"
    )


def classify_by_breakpoints(table: BreakpointTable, c: float) -> int:
    """The j whose interval [c_{j+1}, c_j] contains c; boundaries go to the smaller j."""
    if not (_is_real(c) and 0.0 < c < table.budget):
        raise ValidationError(f"need 0 < c < V = {table.budget}, got {c!r}")
    # the first j with c >= c_{j+1}; c_2 > ... > c_n > 0 ascend once negated,
    # and side="left" puts c = c_{j+1} at that j
    return int(np.searchsorted(table._negated_lower, -c, side="left")) + 1


def wta_optimal(n: int, budget: float, c: float) -> bool:
    """Winner-take-all is optimal iff V/c <= (1 + 1/(n-1))^(n-1)."""
    _check_scalars(n=n, budget=budget, c=c)
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    return budget / c <= (1.0 + 1.0 / (n - 1)) ** (n - 1)


def poisson_value(budget: float, j: int, lam: float) -> float:
    """Limit expected-prize curve of M^j: (V/j) * Pr[Poisson(lam) < j]."""
    _check_scalars(budget=budget)
    if not (_is_integer(j) and j >= 1 and _is_real(lam) and lam >= 0.0):  # NaN fails too
        raise ValidationError(f"need an integer j >= 1 and lam >= 0, got j={j!r}, lam={lam!r}")
    return (budget / j) * poisson_cdf_partial(lam, j)


def poisson_limit(budget: float, c: float) -> PoissonLimit:
    """Solve max_{1 <= j <= V/c} (V/j) Pr[Poisson(lam) < j] = c for lam.

    Each curve falls from V/j at lam = 0, so M^j alone reaches c at
    lam_j = Q^{-1}(j, c j / V) and the upper envelope reaches it at
    lam* = max_j lam_j. As in the finite design, lam_j is unimodal in j, so
    j_star is its first descent: the smallest argmax, ties within 1e-12
    relative. The search's first read is a window of 6 j from one below
    the measured j* ~ vc - sqrt(vc / ln vc), vc = V/c (its leading constant
    is 1 to within 3% above vc = 10^3), and usually holds j*; a miss reads
    the neighbouring window. From any start the answer is the same. V/c
    above 1e8, or not finite, raises PopulationTooLarge: past it the steps
    of lam_j in j come near the tie tolerance and the search stops matching
    a dense argmax.
    """
    _check_scalars(budget=budget)
    if not (_is_real(c) and 0.0 < c < budget):
        raise ValidationError(f"need 0 < c < V = {budget}, got {c!r}")
    vc = budget / c
    if not vc <= MAX_POISSON_SCALE:
        raise PopulationTooLarge(
            f"V/c = {vc!r} exceeds the largest supported scale {MAX_POISSON_SCALE:g}"
        )
    j_max = int(math.floor(vc + 1e-12))
    near = vc - math.sqrt(vc / math.log(vc))
    j_star, lam = first_descent(
        lambda js: poisson_cdf_partial_inv(js, c * js / budget), j_max, near
    )
    return PoissonLimit(
        lambda_star=lam, j_star=j_star, value=poisson_value(budget, j_star, lam)
    )


def finite_to_limit_convergence(
    budget: float, c: float, n_list
) -> ConvergenceTable:
    """Optimal design at each finite n alongside the Poisson-limit solution."""
    limit = poisson_limit(budget, c)
    qd = Uniform(0.0, 1.0)
    rows = []
    for n in n_list:
        _check_scalars(n=n)
        if n < 2:
            raise ValidationError(f"population sizes must be >= 2, got {n}")
        design = optimal_contest(int(n), budget, c, qd)
        lam_n = design.equilibrium.lam
        rows.append(
            ConvergenceRow(
                n=int(n),
                j_star=design.j_star,
                lambda_star=lam_n,
                gap=abs(lam_n - limit.lambda_star),
            )
        )
    return ConvergenceTable(limit=limit, rows=tuple(rows))


def asymptotic_scan(c: float, vc_list, n_factor: float = 3.0) -> tuple[ScanRow, ...]:
    """Residual ratios of (vc - j*) and (vc - lambda*) against their growth rates.

    For each scale vc = V/c (each >= 20), solves the design problem at
    n = ceil(n_factor * vc) and reports r_j = (vc - j*) / sqrt(vc / ln vc)
    and r_lambda = (vc - lambda*) / sqrt(vc * ln vc). The interesting content
    is that both stay order one; the audit band is a harness choice. An
    n_factor * vc above 2^53 raises PopulationTooLarge before it is rounded
    to n, as an n beyond the solvers' range.
    """
    if not (math.isfinite(n_factor) and n_factor >= 2.5):
        raise ValidationError(f"n_factor must be finite and >= 2.5, got {n_factor!r}")
    qd = Uniform(0.0, 1.0)
    rows = []
    for vc in vc_list:
        vc = float(vc)
        if not (math.isfinite(vc) and vc >= 20.0):
            raise ValidationError(f"scan scales must be finite and >= 20, got {vc}")
        V = c * vc
        scaled = n_factor * vc
        if not scaled <= MAX_POPULATION:  # an overflow to inf fails here too
            raise PopulationTooLarge(
                f"population n_factor * vc = {scaled!r} exceeds {MAX_POPULATION}"
            )
        n = int(math.ceil(scaled))
        design = optimal_contest(n, V, c, qd)
        lam = design.equilibrium.lam
        log_vc = math.log(vc)
        rows.append(
            ScanRow(
                vc=vc,
                n=n,
                j_star=design.j_star,
                lambda_star=lam,
                r_j=(vc - design.j_star) / math.sqrt(vc / log_vc),
                r_lambda=(vc - lam) / math.sqrt(vc * log_vc),
            )
        )
    return tuple(rows)


def _check(name: str, ok: bool, lhs: float, rhs: float) -> dict:
    return {"check": name, "status": "pass" if ok else "fail", "lhs": lhs, "rhs": rhs}


def _skip(name: str, reason: str) -> dict:
    return {"check": name, "status": "skipped", "reason": reason}


def bound_audit(n: int, p: float, j: int, vc: float | None = None) -> dict:
    """Numerically audit the pmf/tail inequalities behind the asymptotics.

    Evaluates, where each hypothesis holds (entries are skipped otherwise):

    * a lower bound on the binomial pmf for pn <= j <= n/2:
      pmf > (1/4) sqrt(1/j) exp(-2 (j - pn)^2 / (pn)); below the mean the
      bound is false (the pmf decays at the KL rate, which is faster), so
      those points are skipped;
    * an upper bound for j > pn: pmf < exp(-((j - pn)^2 - 2) / (2j));
    * a two-sided tail band for pn < j < n/2 when pmf is of order 1/j
      (between 1/(2j) and 1/j): sqrt(C0/(j ln j)) <= Pr[X >= j] <=
      sqrt(C1/(j ln j)) with C0 = 0.001, C1 = 100;
    * with ``vc`` given, the participation floor of the near-boundary simple
      contest with floor(vc - sqrt(vc)) prizes at n agents:
      p > (vc - sqrt(5 vc ln vc)) / (n - 1). Skipped for vc < 7, where the
      floor is vacuous.

    The log pmf is ``binom_logpmf`` and the tail is 1 - ``rank_cdf``(n+1, j, p),
    the one binomial kernel of the solvers. The two pmf inequalities are
    compared in log space (their report entries carry the log sides), so
    deep-tail points where both sides underflow a float still audit correctly.

    Returns a report dict keyed by check name.
    """
    _check_scalars(n=n)
    if not 0.0 < p < 1.0:
        raise ValidationError(f"p must lie strictly in (0, 1), got {p!r}")
    if not (_is_integer(j) and 1 <= j <= n):
        raise ValidationError(f"need an integer 1 <= j <= n, got j={j!r}, n={n}")
    report: dict[str, dict] = {}
    pn = p * n
    log_pmf = float(binom_logpmf(n, j, p))
    pmf = math.exp(log_pmf)

    if pn <= j <= n / 2:
        log_lower = math.log(0.25) - 0.5 * math.log(j) - 2.0 * (j - pn) ** 2 / pn
        report["pmf_lower"] = _check("pmf_lower", log_pmf > log_lower, log_pmf, log_lower)
    else:
        report["pmf_lower"] = _skip("pmf_lower", "requires pn <= j <= n/2")

    if j > pn:
        log_upper = -((j - pn) ** 2 - 2.0) / (2.0 * j)
        report["pmf_upper"] = _check("pmf_upper", log_pmf < log_upper, log_pmf, log_upper)
    else:
        report["pmf_upper"] = _skip("pmf_upper", "requires j > pn")

    in_window = j >= 2 and pn < j < n / 2 and 1.0 / (2.0 * j) <= pmf <= 1.0 / j
    if in_window:
        # Pr[B(n, p) >= j] = 1 - Pr[B(n, p) <= j-1] = 1 - S_j(p) at n+1 agents
        tail = 1.0 - float(rank_cdf(n + 1, j, p))
        lo = math.sqrt(TAIL_BAND_C0 / (j * math.log(j)))
        hi = math.sqrt(TAIL_BAND_C1 / (j * math.log(j)))
        ok = lo <= tail <= hi
        report["tail_band"] = {
            "check": "tail_band",
            "status": "pass" if ok else "fail",
            "lhs": lo,
            "tail": tail,
            "rhs": hi,
        }
    else:
        report["tail_band"] = _skip(
            "tail_band", "requires pn < j < n/2 and pmf of order 1/j"
        )

    if vc is not None:
        report["participation_floor"] = participation_floor_audit(vc, n)
    return report


def participation_floor_audit(vc: float, n: int) -> dict:
    """Check that M^{floor(vc - sqrt(vc))} retains near-full-scale participation.

    Solves the equilibrium at budget vc, cost 1, and compares the rate
    against (vc - sqrt(5 vc ln vc)) / (n - 1). Scales below 7 are skipped
    (the floor is vacuous there).
    """
    _check_scalars(n=n, budget=vc)
    if vc < 7.0:
        return _skip("participation_floor", "floor vacuous for vc < 7")
    j_ld = int(math.floor(vc - math.sqrt(vc)))
    if j_ld < 1 or j_ld > n:
        return _skip("participation_floor", f"prize count {j_ld} outside 1..{n}")
    contest = make_simple_contest(j_ld, float(vc), n)
    rate, _ = participation_rate(contest, 1.0)
    bound = (vc - math.sqrt(5.0 * vc * math.log(vc))) / (n - 1)
    return _check("participation_floor", rate > bound, rate, bound)
