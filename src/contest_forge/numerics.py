"""Numerics shared by the contest solvers.

Conventions
-----------
* Binomial(n, p) counts successes among n independent trials; the pmf at k is
  C(n, k) p^k (1-p)^(n-k), zero outside 0 <= k <= n.
* ``rank_cdf(n, js, p)`` is S_j(p) = Pr[Binomial(n-1, p) <= j-1], the chance
  that an entrant who loses to each of n-1 opponents with probability p
  finishes in the top j. Every expected-prize curve, the design frontier and
  the cost breakpoints are built from it. ``RankKernel(n, js)`` is the same
  kernel with its arguments prepared once per (n, ranks), for a caller that
  evaluates one set of ranks at many p; ``rank_cdf`` is one such call.
* ``poisson_cdf_partial(lam, j)`` is the partial sum sum_{k=0}^{j-1}
  e^(-lam) lam^k / k!, i.e. Pr[Poisson(lam) < j].
* ``rank_cdf_inv`` and ``poisson_cdf_partial_inv`` invert the two curves in
  their rate argument. Both curves fall from 1 to 0, so (V/j) times either
  one equals a cost c at the rate the inverse returns for s = c j / V: this
  is the equilibrium rate of the simple contest M^j, in closed form.
* ``first_descent`` finds the first j at which a sequence stops increasing,
  the argmax of a unimodal sequence, without evaluating all of a long one.
* Root finders return a :class:`BracketedRoot`; saturation flags mark targets
  that fall outside the value range on the bracket instead of raising.

Everything here is deterministic. ``RankKernel`` and ``binom_logpmf`` are the
one vectorised binomial kernel; every binomial pmf, cdf and tail in the
package, the bound audit's included, is computed through it, and
``RankKernel`` is the one caller of ``special.betainc``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .errors import BracketFailure, IterationLimit, NonFinite

__all__ = [
    "BracketedRoot",
    "log_factorial",
    "RankKernel",
    "rank_cdf",
    "rank_cdf_inv",
    "binom_logpmf",
    "poisson_cdf_partial",
    "poisson_cdf_partial_inv",
    "first_descent",
    "bisect_decreasing",
    "find_positive_root_sign_change",
]

_MAX_BISECT_ITER = 200
_MAX_DOUBLINGS = 128
_REL_ROOT_TOL = 1e-12
# relative tolerance under which first_descent treats a step as a tie
_TIE_TOL = 1e-12
# indices probed per round of first_descent
_PROBES = 64


@dataclass(frozen=True)
class BracketedRoot:
    """Result of a one-dimensional bracketed solve.

    ``saturated_low``/``saturated_high`` mean the target lay outside the
    function's range on the bracket and the corresponding endpoint was
    returned; ``residual`` is f(root) - target (or the raw polynomial value
    for sign-change solves).
    """

    root: float
    residual: float
    iterations: int
    saturated_low: bool = False
    saturated_high: bool = False


def log_factorial(n: int) -> float:
    """Natural log of n! for integer n >= 0."""
    if n < 0 or n != int(n):
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    return math.lgamma(n + 1.0)


class RankKernel:
    """S_j(p) = Pr[Binomial(n-1, p) <= j-1] at fixed n and ranks ``js``.

    The float arguments (max(n - j, 1), j) of the incomplete beta function
    and the mask of ranks j >= n, where S_j is exactly 1, are computed once
    here, so a call costs one ``betainc`` (and one masked fill when some
    j >= n). ``kernel(p)`` is ``rank_cdf(n, js, p)`` bit for bit: ``p`` is a
    float or an array that broadcasts against ``js``, and the result has the
    broadcast shape.
    """

    __slots__ = ("_a", "_b", "_full")

    def __init__(self, n: int, js):
        js = np.asarray(js)
        # a = 1 stands in where j >= n; those entries are overwritten with 1
        self._a = np.maximum(n - js, 1).astype(float)
        self._b = js.astype(float)
        full = js >= n
        self._full = full if full.any() else None

    def __call__(self, p) -> np.ndarray:
        # S_j(p) = I_{1-p}(n-j, j), the regularised incomplete beta function
        s = np.asarray(special.betainc(self._a, self._b, 1.0 - p))
        if self._full is not None:
            np.copyto(s, 1.0, where=self._full)
        return s


def rank_cdf(n: int, js, p) -> np.ndarray:
    """S_j(p) = Pr[Binomial(n-1, p) <= j-1] for integer rank counts j >= 1.

    ``js`` and ``p`` broadcast against each other; the result is an array of
    the broadcast shape (0-d for scalar inputs). One call of a
    :class:`RankKernel` prepared for these ranks.
    """
    return RankKernel(n, js)(np.asarray(p))


def rank_cdf_inv(n: int, js, s) -> np.ndarray:
    """The largest p in [0, 1] with S_j(p) >= s, or 0 when there is none.

    ``js`` and ``s`` broadcast against each other. For 1 <= j < n, S_j falls
    from 1 to 0 and p solves S_j(p) = s: 1 - S_j(p) = I_p(j, n-j), so
    p = ``special.betainccinv``(j, n-j, s), which keeps its relative accuracy
    where p underflows 1 - p (``1 - betaincinv`` would round it to 0). S_j is
    1 for j >= n, so p is 1 there unless s > 1.
    """
    js = np.asarray(js)
    s = np.asarray(s, dtype=float)
    # b = 1 stands in where j >= n; those entries are overwritten with 1
    p = special.betainccinv(js, np.maximum(n - js, 1), np.clip(s, 0.0, 1.0))
    return np.where(s > 1.0, 0.0, np.where(js >= n, 1.0, p))


def binom_logpmf(n: int, ks, p) -> np.ndarray:
    """log Pr[X = k] for X ~ Binomial(n, p), broadcast over ks and p; -inf outside 0 <= k <= n.

    log C(n, k) + k log p + (n-k) log(1-p) on ``gammaln``; ``xlogy``/``xlog1py``
    give 0 * log 0 = 0, so p = 0 and p = 1 need no special case.
    """
    ks = np.asarray(ks)
    p = np.asarray(p, dtype=float)
    inside = (ks >= 0) & (ks <= n)
    k = np.where(inside, ks, 0)
    out = (
        special.gammaln(n + 1.0)
        - special.gammaln(k + 1.0)
        - special.gammaln(n - k + 1.0)
        + special.xlogy(k, p)
        + special.xlog1py(n - k, -p)
    )
    return np.where(inside, out, -np.inf)


def poisson_cdf_partial(lam: float, j: int) -> float:
    """sum_{k=0}^{j-1} e^(-lam) lam^k / k!  (requires j >= 1, lam >= 0)."""
    if j < 1:
        raise ValueError(f"j must be a positive integer, got {j!r}")
    if lam < 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam!r}")
    # Regularised upper incomplete gamma Q(j, lam) equals this partial sum
    # exactly for integer j.
    return float(special.gammaincc(j, lam))


def poisson_cdf_partial_inv(js, s) -> np.ndarray:
    """The lam >= 0 with Pr[Poisson(lam) < j] = s, broadcast over ``js`` and ``s``.

    The partial sum is Q(j, lam), which falls from 1 at lam = 0 to 0 at
    infinity, so lam = ``special.gammainccinv``(j, s): s >= 1 gives 0 and
    s = 0 gives inf.
    """
    s = np.asarray(s, dtype=float)
    return special.gammainccinv(js, np.clip(s, 0.0, 1.0))


def first_descent(
    f: Callable[[np.ndarray], np.ndarray], hi: int
) -> tuple[int, float]:
    """(j, f(j)) for the first j in [1, hi] with f(j) > 0 and f(j+1) <= f(j) (1 + 1e-12).

    Returns j = hi when f never descends. ``f`` maps an integer array of
    indices in [1, hi] to the values there. For a unimodal f the first
    descent is the smallest argmax (ties within 1e-12 relative), so it is
    searched for instead of scanned: while the bracket holding it is wider
    than 64, a round probes 64 evenly spaced indices j and j + 1 and narrows
    the bracket to the gap between two probes; a bracket of at most 65
    indices is then read whole, each index once. So hi <= 65 takes one call
    of f on hi points. f(j) == 0 means a left tail has underflowed, not that
    f has peaked.
    """
    lo = 1  # the first descent lies in [lo, hi]
    while hi - lo > _PROBES:
        # spacing >= 1, so the probes are distinct; the last is hi - 1
        js = lo + (np.arange(_PROBES) * (hi - 1 - lo)) // (_PROBES - 1)
        values = f(np.concatenate([js, js + 1]))
        y, y_next = values[:_PROBES], values[_PROBES:]
        descent = (y > 0.0) & (y_next <= y * (1.0 + _TIE_TOL))
        if not descent.any():  # the last probe is hi - 1, so f peaks at hi
            return hi, float(y_next[-1])
        first = int(np.argmax(descent))
        if first > 0:
            lo = int(js[first - 1]) + 1
        hi = int(js[first])
        if lo == hi:
            return hi, float(y[first])
    y = f(np.arange(lo, hi + 1))
    descent = (y[:-1] > 0.0) & (y[1:] <= y[:-1] * (1.0 + _TIE_TOL))
    if not descent.any():
        return hi, float(y[-1])
    first = int(np.argmax(descent))
    return lo + first, float(y[first])


def bisect_decreasing(
    f: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    tol: float,
) -> BracketedRoot:
    """Solve f(x) = target for weakly decreasing f on [lo, hi].

    Stops when |f(mid) - target| <= tol. Targets above f(lo) return lo with
    ``saturated_low`` set; targets below f(hi) return hi with
    ``saturated_high``. Raises :class:`NonFinite` if f produces a non-finite
    value and :class:`IterationLimit` after 200 bisection steps without
    meeting the residual tolerance. No solver in the package calls it; it is
    the reference the tests check ``participation_rate`` against.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    if tol < 0.0:
        raise ValueError(f"tol must be nonnegative, got {tol!r}")

    f_lo = f(lo)
    f_hi = f(hi)
    if not (math.isfinite(f_lo) and math.isfinite(f_hi)):
        raise NonFinite(f"f non-finite at bracket endpoints: f({lo})={f_lo}, f({hi})={f_hi}")
    if target > f_lo:
        return BracketedRoot(lo, f_lo - target, 0, saturated_low=True)
    if target < f_hi:
        return BracketedRoot(hi, f_hi - target, 0, saturated_high=True)
    if abs(f_lo - target) <= tol:
        return BracketedRoot(lo, f_lo - target, 0)
    if abs(f_hi - target) <= tol:
        return BracketedRoot(hi, f_hi - target, 0)

    for iteration in range(1, _MAX_BISECT_ITER + 1):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if not math.isfinite(f_mid):
            raise NonFinite(f"f({mid}) = {f_mid}")
        if abs(f_mid - target) <= tol:
            return BracketedRoot(mid, f_mid - target, iteration)
        if f_mid > target:
            lo = mid
        else:
            hi = mid
    raise IterationLimit(
        f"bisection did not reach |f - target| <= {tol} in {_MAX_BISECT_ITER} steps"
    )


def find_positive_root_sign_change(
    poly_eval: Callable[[float], float],
    x_start: float,
) -> BracketedRoot:
    """Locate the unique positive root of a function negative near 0+.

    Doubles ``x_start`` until the sign changes (at most 128 doublings, else
    :class:`BracketFailure`), then bisects to relative tolerance 1e-12 on the
    argument. Intended for polynomials with a single sign change on (0, inf).
    """
    if x_start <= 0.0:
        raise ValueError(f"x_start must be positive, got {x_start!r}")

    lo = 0.0
    f_lo = poly_eval(lo)
    if not math.isfinite(f_lo):
        raise NonFinite(f"poly({lo}) = {f_lo}")
    if f_lo >= 0.0:
        raise BracketFailure(f"expected poly(0) < 0, got {f_lo}")

    x = x_start
    doublings = 0
    while True:
        f_x = poly_eval(x)
        if not math.isfinite(f_x):
            raise NonFinite(f"poly({x}) = {f_x}")
        if f_x == 0.0:
            return BracketedRoot(x, 0.0, doublings)
        if f_x > 0.0:
            hi = x
            break
        lo = x
        doublings += 1
        if doublings > _MAX_DOUBLINGS:
            raise BracketFailure(
                f"no sign change within {_MAX_DOUBLINGS} doublings from {x_start}"
            )
        x *= 2.0

    iterations = doublings
    while hi - lo > _REL_ROOT_TOL * hi:
        iterations += 1
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval at float resolution
            break
        f_mid = poly_eval(mid)
        if not math.isfinite(f_mid):
            raise NonFinite(f"poly({mid}) = {f_mid}")
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    return BracketedRoot(root, poly_eval(root), iterations)
