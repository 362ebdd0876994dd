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
  Its slope in p, dS_j/dp = -(n-1) Pr[Binomial(n-2, p) = j-1], is one read
  of ``LogPmfKernel``; ``participation_rate`` needs only values.
* ``binom_logpmf(n, ks, p)`` is log Pr[Binomial(n, p) = k]. ``LogPmfKernel(n,
  ks)`` holds its log C(n, k) once per (n, ks), and ``binom_logpmf`` is one
  call of it, as ``rank_cdf`` is of ``RankKernel``. Both prepared kernels
  narrow to a subset of their lanes with ``take(keep)``, so an iterative
  solver drops its closed lanes without rebuilding either one, and
  ``RankKernel.of_complement`` takes q = 1 - p for a caller that already
  holds it.
* ``poisson_cdf_partial(lam, j)`` is the partial sum sum_{k=0}^{j-1}
  e^(-lam) lam^k / k!, i.e. Pr[Poisson(lam) < j].
* ``rank_cdf_inv`` and ``poisson_cdf_partial_inv`` invert the two curves in
  their rate argument. Both curves fall from 1 to 0, so (V/j) times either
  one equals a cost c at the rate the inverse returns for s = c j / V: this
  is the equilibrium rate of the simple contest M^j, in closed form.
* ``first_descent`` finds the first j at which a sequence stops increasing,
  the argmax of a unimodal sequence, without evaluating all of a long one.
  It is one loop: each round reads the whole bracket when at most 65
  indices remain, else a window of 6 contiguous indices at a predicted index
  (stepped to the neighbouring window on a miss, at most 3 windows), else
  64 probe pairs, and narrows the bracket by the one descent test. The
  prediction moves the reads, never the answer.
* Root finders return a :class:`BracketedRoot`; saturation flags mark targets
  that fall outside the value range on the bracket instead of raising.

Everything here is deterministic. ``RankKernel`` and ``LogPmfKernel`` are the
one vectorised binomial kernel; every binomial pmf, cdf, tail and density in
the package, the bound audit's included, is computed through it.
``RankKernel`` is the one caller of ``special.betainc``,
``LogPmfKernel`` of ``gammaln``, and the two kernels share ``xlogy`` and
``xlog1py``. No other module calls these or the inverse and Poisson
functions this module wraps, and the test suite scans the package's source
to keep it so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .errors import IterationLimit, NumericalError, ValidationError

__all__ = [
    "BracketedRoot",
    "RankKernel",
    "rank_cdf",
    "rank_cdf_inv",
    "LogPmfKernel",
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
# contiguous indices in each of first_descent's guided reads
_WINDOW = 6
# guided reads first_descent makes before its probe rounds take over
_WINDOW_STEPS = 3


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
        return self.of_complement(1.0 - p)

    def of_complement(self, q) -> np.ndarray:
        """S_j at p = 1 - q, for a caller that holds q: the same bits as ``kernel(p)``."""
        # S_j(p) = I_{1-p}(n-j, j), the regularised incomplete beta function
        s = np.asarray(special.betainc(self._a, self._b, q))
        if self._full is not None:
            np.copyto(s, 1.0, where=self._full)
        return s

    def take(self, keep) -> RankKernel:
        """The kernel of the ranks ``js[keep]``, from a kernel prepared on 1-d ``js``."""
        out = RankKernel.__new__(RankKernel)
        out._a, out._b = self._a[keep], self._b[keep]
        full = None if self._full is None else self._full[keep]
        out._full = full if full is not None and full.any() else None
        return out


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


class LogPmfKernel:
    """log Pr[X = k] for X ~ Binomial(n, p) at fixed n and counts ``ks``.

    log C(n, k) is computed once here on ``gammaln``, so a call adds
    k log p + (n-k) log(1-p) on ``xlogy``/``xlog1py``, which give
    0 * log 0 = 0: p = 0 and p = 1 need no special case. Counts outside
    0 <= k <= n give -inf. ``kernel(p)`` is ``binom_logpmf(n, ks, p)`` bit
    for bit, broadcast over ``ks`` and ``p``.
    """

    __slots__ = ("_k", "_rest", "_log_comb", "_outside")

    def __init__(self, n: int, ks):
        ks = np.asarray(ks)
        inside = (ks >= 0) & (ks <= n)
        k = np.where(inside, ks, 0)
        self._k = k
        self._rest = n - k
        self._log_comb = (
            special.gammaln(n + 1.0) - special.gammaln(k + 1.0) - special.gammaln(n - k + 1.0)
        )
        self._outside = None if inside.all() else ~inside

    def __call__(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        out = self._log_comb + special.xlogy(self._k, p) + special.xlog1py(self._rest, -p)
        if self._outside is not None:
            out = np.where(self._outside, -np.inf, out)
        return out

    def take(self, keep) -> LogPmfKernel:
        """The kernel of the counts ``ks[keep]``, from a kernel prepared on 1-d ``ks``."""
        out = LogPmfKernel.__new__(LogPmfKernel)
        out._k, out._rest, out._log_comb = self._k[keep], self._rest[keep], self._log_comb[keep]
        outside = None if self._outside is None else self._outside[keep]
        out._outside = outside if outside is not None and outside.any() else None
        return out


def binom_logpmf(n: int, ks, p) -> np.ndarray:
    """log Pr[X = k] for X ~ Binomial(n, p), broadcast over ks and p; -inf outside 0 <= k <= n.

    One call of a :class:`LogPmfKernel` prepared for these counts.
    """
    return LogPmfKernel(n, ks)(p)


def poisson_cdf_partial(lam: float, j: int) -> float:
    """sum_{k=0}^{j-1} e^(-lam) lam^k / k!  (requires j >= 1, lam >= 0).

    j < 1 and a negative or NaN ``lam`` raise :class:`ValidationError`.
    """
    if j < 1:
        raise ValidationError(f"j must be a positive integer, got {j!r}")
    if not lam >= 0.0:  # NaN fails too
        raise ValidationError(f"lam must be nonnegative, got {lam!r}")
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
    f: Callable[[np.ndarray], np.ndarray], hi: int, near: float | None = None
) -> tuple[int, float]:
    """(j, f(j)) for the first j in [1, hi] with f(j) > 0 and f(j+1) <= f(j) (1 + 1e-12).

    Returns j = hi when f never descends. ``f`` maps an integer array of
    indices in [1, hi] to the values there. For a unimodal f the first
    descent is the smallest argmax (ties within 1e-12 relative), so it is
    searched for instead of scanned, in rounds of one call of f each. A
    bracket [lo, hi] of at most 65 indices is read whole, so hi <= 65 is one
    call on hi points. Given ``near``, a predicted first descent, a wider
    bracket is first read in a window of 6 contiguous indices [a, a + 5],
    a = round(near) - 1 clipped into [1, hi - 5], which tests round(near) - 1
    to round(near) + 3 and so answers in one call when the first descent is
    one of round(near) to round(near) + 3. A window that holds no descent,
    or descends at its first index, is followed by the neighbouring window
    in that direction, [lo, lo + 5] or [hi - 5, hi], until 3 windows are
    read or at most 6 indices remain. Any other round probes 64 evenly
    spaced j, the last hi - 1, and each j + 1: 128 points. A round narrows
    the bracket by one rule: hi becomes the first tested j that descends,
    and lo the tested j before it, plus 1; with no descent, lo becomes the
    last index read. The search ends at a bracket of one index, whose value
    the round has read. f(j) == 0 means a left tail has underflowed, not
    that f has peaked. A window whose values are all 0 narrows nothing,
    since it cannot tell a left tail from a right one, and ends the
    windows. The answer does not depend on ``near``: the rule relies only
    on f descending from its first descent on.
    """
    lo = 1  # the first descent lies in [lo, hi]
    # guided windows left to read, and where the next one starts, unclipped
    windows = 0 if near is None or hi <= _PROBES + 1 else _WINDOW_STEPS
    at = round(near) - 1 if windows else 0
    while True:
        window = windows > 0 and hi - lo >= _WINDOW
        if window:
            a = min(max(at, lo), hi - _WINDOW + 1)
            read = np.arange(a, a + _WINDOW)
            js = read[:-1]
            windows -= 1
        elif hi - lo <= _PROBES:
            read = np.arange(lo, hi + 1)
            js = read[:-1]
        else:
            # spacing >= 1, so the probes are distinct; the last is hi - 1
            js = lo + (np.arange(_PROBES) * (hi - 1 - lo)) // (_PROBES - 1)
            read = np.concatenate([js, js + 1])
        values = f(read)
        if window and not values.any():
            windows = 0
            continue
        # f(j + 1) is read 1 after f(j) in a contiguous read, 64 after in probes
        y, y_next = values[: js.size], values[read.size - js.size :]
        descent = (y > 0.0) & (y_next <= y * (1.0 + _TIE_TOL))
        if descent.any():
            first = int(descent.argmax())
            if first > 0:
                lo = int(js[first - 1]) + 1
            hi, value = int(js[first]), y[first]
        else:
            lo, value = int(read[-1]), values[-1]
        if lo == hi:
            return hi, float(value)
        if window:
            # no descent moved lo past a: step right, to start at lo; a
            # descent at a moved hi to a: step left, to end at hi
            at = lo if lo > a else hi - _WINDOW + 1


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
    ``saturated_high``. Raises :class:`NumericalError` if f produces a non-finite
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
        raise NumericalError(f"f non-finite at bracket endpoints: f({lo})={f_lo}, f({hi})={f_hi}")
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
            raise NumericalError(f"f({mid}) = {f_mid}")
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
    :class:`NumericalError`), then bisects to relative tolerance 1e-12 on the
    argument. Intended for polynomials with a single sign change on (0, inf).
    """
    if x_start <= 0.0:
        raise ValueError(f"x_start must be positive, got {x_start!r}")

    lo = 0.0
    f_lo = poly_eval(lo)
    if not math.isfinite(f_lo):
        raise NumericalError(f"poly({lo}) = {f_lo}")
    if f_lo >= 0.0:
        raise NumericalError(f"expected poly(0) < 0, got {f_lo}")

    x = x_start
    doublings = 0
    while True:
        f_x = poly_eval(x)
        if not math.isfinite(f_x):
            raise NumericalError(f"poly({x}) = {f_x}")
        if f_x == 0.0:
            return BracketedRoot(x, 0.0, doublings)
        if f_x > 0.0:
            hi = x
            break
        lo = x
        doublings += 1
        if doublings > _MAX_DOUBLINGS:
            raise NumericalError(
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
            raise NumericalError(f"poly({mid}) = {f_mid}")
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    return BracketedRoot(root, poly_eval(root), iterations)
