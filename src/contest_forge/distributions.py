"""Type distributions: quality marginals, joint (q, c) laws, and finite surrogates.

Quality marginals are atomless (strictly increasing continuous CDFs); joint
laws are mixtures of axis-aligned rectangles with uniform mass, which is
enough to express every worked example while keeping all integrals closed
form. The finite-support surrogate :class:`EmpiricalTypes` requires pairwise
distinct qualities so that rank comparisons never tie; it keeps read-only
copies of its arrays and its points' decreasing-quality order, sorted once
when it is built, which the heterogeneous solvers read instead of sorting
again. :func:`discretize`
draws it from a rectangle mixture by stratified sampling and enforces that
with a deterministic micro-jitter (at most 1e-9 of the support width,
applied only to colliding points). This distinct-q convention is the finite
stand-in for an atomless marginal and is relied on by the solvers' strict
comparisons. The solvers and the CLI turn a type law into a finite support
in one place, ``_finite_types``: a support is used as given, a mixture is
discretized, and a quality marginal, which has no costs, is rejected. The
homogeneous solvers refuse anything but a quality marginal in
``_check_marginal``.

Convention used throughout: the maximum over an empty participant set is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import NumericalError, PopulationTooLarge, ValidationError

__all__ = [
    "Uniform",
    "PiecewiseLinearCDF",
    "QualityDistribution",
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
]

_WEIGHT_TOL = 1e-12
# largest m that discretize accepts; see its docstring
MAX_SUPPORT_POINTS = 100_000


def _is_integer(x) -> bool:
    """Whether ``x`` is a Python or numpy integer; a bool does not count."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """Whether ``x`` is one real number: a Python or numpy int or float, or a
    0-d array of one; a bool and an array with a shape do not count."""
    if type(x) is float:  # the common case, on the solvers' hot paths
        return True
    if isinstance(x, np.ndarray):
        return x.ndim == 0 and x.dtype.kind in "iuf"
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _check_seed(seed) -> None:
    """The seed rule: an integer >= 0, so every draw is reproducible from it."""
    if not (_is_integer(seed) and seed >= 0):
        raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")


def _unit_interval(u):
    """``u`` checked to lie in [0, 1], NaN excluded: a float for a scalar, else an array."""
    if isinstance(u, (int, float)):
        if 0.0 <= u <= 1.0:
            return float(u)
    else:
        u = np.asarray(u, dtype=float)
        if ((u >= 0.0) & (u <= 1.0)).all():
            return u
    raise ValidationError("quantile argument outside [0, 1]")


@dataclass(frozen=True)
class Uniform:
    """Uniform quality on [a, b), a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)) or self.a >= self.b:
            raise ValidationError(f"need finite a < b, got [{self.a!r}, {self.b!r}]")

    def cdf(self, x):
        return np.clip((np.asarray(x, dtype=float) - self.a) / (self.b - self.a), 0.0, 1.0)

    def quantile(self, u):
        return self.a + _unit_interval(u) * (self.b - self.a)

    @property
    def support(self) -> tuple[float, float]:
        return (self.a, self.b)


@dataclass(frozen=True)
class PiecewiseLinearCDF:
    """Continuous strictly increasing CDF through the given knots.

    ``knots`` is a sequence of (quality, probability) pairs with strictly
    increasing qualities and probabilities running from 0 to 1.
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.knots) < 2:
            raise ValidationError("need at least two knots")
        qs = [k[0] for k in self.knots]
        us = [k[1] for k in self.knots]
        if not all(map(math.isfinite, qs + us)):
            raise ValidationError(f"knots must be finite, got {self.knots!r}")
        if any(b <= a for a, b in zip(qs, qs[1:])):
            raise ValidationError("knot qualities must be strictly increasing")
        if any(b <= a for a, b in zip(us, us[1:])):
            raise ValidationError("knot probabilities must be strictly increasing")
        if abs(us[0]) > _WEIGHT_TOL or abs(us[-1] - 1.0) > _WEIGHT_TOL:
            raise ValidationError("knot probabilities must run from 0 to 1")
        # the knot qualities and probabilities as contiguous read-only rows, built once
        arrays = np.array(self.knots, dtype=float).T.copy()
        arrays.flags.writeable = False
        object.__setattr__(self, "_arrays", tuple(arrays))

    def cdf(self, x):
        qs, us = self._arrays
        return np.interp(np.asarray(x, dtype=float), qs, us, left=0.0, right=1.0)

    def quantile(self, u):
        u = _unit_interval(u)
        qs, us = self._arrays
        return np.interp(u, us, qs)

    @property
    def support(self) -> tuple[float, float]:
        return (self.knots[0][0], self.knots[-1][0])


QualityDistribution = Uniform | PiecewiseLinearCDF


def cdf(qd: QualityDistribution, x):
    """F(x); scalar in, scalar out."""
    out = qd.cdf(x)
    return float(out) if np.ndim(x) == 0 else out


def quantile(qd: QualityDistribution, u):
    """F^{-1}(u): right inverse of cdf; endpoints map to support endpoints."""
    out = qd.quantile(u)
    return float(out) if isinstance(out, float) or np.ndim(out) == 0 else out


@dataclass(frozen=True)
class RectComponent:
    q_lo: float
    q_hi: float
    c_lo: float
    c_hi: float
    weight: float

    def __post_init__(self):
        edges = (self.q_lo, self.q_hi, self.c_lo, self.c_hi, self.weight)
        if not all(math.isfinite(x) for x in edges):
            raise ValidationError(f"rectangle edges and weight must be finite, got {edges!r}")
        if self.q_lo < 0.0 or self.c_lo < 0.0:
            raise ValidationError("rectangle endpoints must be nonnegative")
        if self.q_hi < self.q_lo or self.c_hi < self.c_lo:
            raise ValidationError("rectangle intervals must be nonempty")
        if self.weight < 0.0:
            raise ValidationError("component weight must be nonnegative")


@dataclass(frozen=True)
class RectMixture:
    """Mixture of uniform rectangles in the (q, c) plane; weights sum to 1."""

    components: tuple[RectComponent, ...]

    def __post_init__(self):
        if len(self.components) == 0:
            raise ValidationError("mixture needs at least one component")
        total = math.fsum(comp.weight for comp in self.components)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValidationError(f"component weights sum to {total}, expected 1")

    @property
    def q_support(self) -> tuple[float, float]:
        return (
            min(c.q_lo for c in self.components),
            max(c.q_hi for c in self.components),
        )

    def _weight_array(self) -> np.ndarray:
        w = np.array([c.weight for c in self.components], dtype=float)
        return w / w.sum()


@dataclass(frozen=True)
class EmpiricalTypes:
    """Weighted finite support of (q, c) types with pairwise distinct q.

    ``n`` is the contest population size the support will be paired with; it
    may be left as None and supplied by the contest at solve time.

    ``q``, ``c`` and ``w`` are read-only float copies of the given arrays, so
    a validated support cannot change afterwards. The support also keeps its
    points' decreasing-quality order (``_order``, read-only), the order in
    which the heterogeneous equilibrium is decided; it is sorted once here.
    The costs and weights in that order (``_by_quality``) are built once, on
    first use.
    """

    q: np.ndarray
    c: np.ndarray
    w: np.ndarray
    n: int | None = None

    def __post_init__(self):
        for name in ("q", "c", "w"):
            array = np.array(getattr(self, name), dtype=float)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        if not (self.q.shape == self.c.shape == self.w.shape) or self.q.ndim != 1:
            raise ValidationError("q, c, w must be 1-d arrays of equal length")
        if self.q.size == 0:
            raise ValidationError("empty support")
        if not np.isfinite(np.stack((self.q, self.c, self.w))).all():
            raise ValidationError("support qualities, costs and weights must be finite")
        if np.any(self.w <= 0.0):
            raise ValidationError("support weights must be positive")
        if abs(math.fsum(self.w.tolist()) - 1.0) > _WEIGHT_TOL:
            raise ValidationError("support weights must sum to 1")
        if self.n is not None and not (_is_integer(self.n) and self.n >= 1):
            raise ValidationError(f"population size must be an integer >= 1, got {self.n!r}")
        order = np.argsort(-self.q, kind="stable")
        q_desc = self.q[order]
        if np.any(q_desc[1:] == q_desc[:-1]):
            raise ValidationError("support qualities must be pairwise distinct")
        order.flags.writeable = False
        object.__setattr__(self, "_order", order)

    @property
    def support_size(self) -> int:
        return int(self.q.size)

    @cached_property
    def _by_quality(self) -> tuple[np.ndarray, np.ndarray, tuple, tuple]:
        """(c, w, c, w) in decreasing quality: read-only arrays, then as tuples of floats."""
        c_desc, w_desc = self.c[self._order], self.w[self._order]
        c_desc.flags.writeable = w_desc.flags.writeable = False
        return c_desc, w_desc, tuple(c_desc.tolist()), tuple(w_desc.tolist())

    def with_n(self, n: int) -> "EmpiricalTypes":
        return replace(self, n=n)


def sample_joint(jd: RectMixture, rng: np.random.Generator, size: int):
    """Draw ``size`` (q, c) pairs as two arrays: pick a rectangle by weight, then uniform inside it."""
    if not (_is_integer(size) and size >= 0):
        raise ValidationError(f"need an integer size >= 0, got {size!r}")
    w = jd._weight_array()
    k = len(jd.components)
    q_lo = np.array([c.q_lo for c in jd.components])
    q_hi = np.array([c.q_hi for c in jd.components])
    c_lo = np.array([c.c_lo for c in jd.components])
    c_hi = np.array([c.c_hi for c in jd.components])
    idx = rng.choice(k, size=size, p=w)
    qs = q_lo[idx] + rng.random(size) * (q_hi[idx] - q_lo[idx])
    cs = c_lo[idx] + rng.random(size) * (c_hi[idx] - c_lo[idx])
    return qs, cs


def _pr_q_above(comp: RectComponent, x: float) -> float:
    if comp.q_hi <= x:
        return 0.0
    if comp.q_lo > x:
        return 1.0
    return (comp.q_hi - x) / (comp.q_hi - comp.q_lo)


def _pr_c_at_most(comp: RectComponent, cap: float) -> float:
    if comp.c_lo > cap:
        return 0.0
    if comp.c_hi <= cap:
        return 1.0
    return (cap - comp.c_lo) / (comp.c_hi - comp.c_lo)


def _check_draws(cost_cap: float, m: int) -> None:
    """The cost cap and draw count of the low-cost maximum: a cap that is a
    number, and an integer m >= 1."""
    if math.isnan(cost_cap):
        raise ValidationError(f"cost cap must not be NaN, got {cost_cap!r}")
    if not (_is_integer(m) and m >= 1):
        raise ValidationError(f"m must be an integer >= 1, got {m!r}")


def low_cost_max_cdf(jd: RectMixture, cost_cap: float, m: int, x: float) -> float:
    """Pr[max{q_i : c_i <= cap} <= x] over m independent draws.

    Equals [Pr(q <= x or c > cap)]^m; the empty max counts as 0, so a cap
    below every cost gives 1 for any x >= 0. A NaN cap or x, or an m that is
    not an integer >= 1, raises :class:`ValidationError`.
    """
    _check_draws(cost_cap, m)
    if math.isnan(x):
        raise ValidationError(f"x must not be NaN, got {x!r}")
    beat = math.fsum(
        comp.weight * _pr_q_above(comp, x) * _pr_c_at_most(comp, cost_cap)
        for comp in jd.components
    )
    base = min(1.0, max(0.0, 1.0 - beat))
    return base**m


def median_max_quality(jd: RectMixture, cost_cap: float, m: int) -> float:
    """Median of max{q_i : c_i <= cap} over m draws, by bisection on the CDF.

    Returns inf{x : CDF(x) >= 1/2}; when the CDF crosses 1/2 continuously
    this solves low_cost_max_cdf(mu) = 1/2 to float resolution.
    """
    _check_draws(cost_cap, m)
    qualifying = math.fsum(
        comp.weight * _pr_c_at_most(comp, cost_cap) for comp in jd.components
    )
    if qualifying <= 0.0:
        raise ValidationError(f"no mass with cost <= {cost_cap}")
    if low_cost_max_cdf(jd, cost_cap, m, 0.0) >= 0.5:
        return 0.0
    hi = max(
        comp.q_hi for comp in jd.components if _pr_c_at_most(comp, cost_cap) > 0.0
    )
    lo = 0.0
    # invariant: CDF(lo) < 1/2 <= CDF(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if low_cost_max_cdf(jd, cost_cap, m, mid) >= 0.5:
            hi = mid
        else:
            lo = mid
    return hi


def _stratified_counts(weights: np.ndarray, m: int) -> np.ndarray:
    """Largest-remainder apportionment of m points; each count within +-1 of m*w."""
    exact = weights * m
    counts = np.floor(exact).astype(int)
    remainder = m - counts.sum()
    if remainder > 0:
        order = np.argsort(-(exact - counts), kind="stable")
        counts[order[:remainder]] += 1
    return counts


def _force_distinct(q: np.ndarray, scale: float) -> np.ndarray:
    """Deterministically separate duplicate values by multiples of ``scale``.

    One sort finds whether any value repeats; only then does the jitter run.
    """
    ascending = np.sort(q)
    if not (ascending[1:] == ascending[:-1]).any():
        return q
    q = q.copy()
    for _ in range(100):
        values, inverse, counts = np.unique(q, return_inverse=True, return_counts=True)
        if values.size == q.size:
            return q
        for v_idx in np.nonzero(counts > 1)[0]:
            members = np.nonzero(inverse == v_idx)[0]
            for rank, point in enumerate(members[1:], start=1):
                q[point] += rank * scale / counts[v_idx]
        scale *= 2.0
    raise NumericalError("could not separate duplicate support qualities")


def discretize(jd: RectMixture, m: int, seed, *, n: int | None = None) -> EmpiricalTypes:
    """Finite weighted support of m points drawn from the mixture.

    Points are allocated to components by largest remainder, so
    per-component counts stay within +-1 of m * weight, and drawn uniformly
    inside each rectangle. Weights are uniform 1/m. Duplicate q values
    (possible with degenerate rectangles) are separated by a deterministic
    jitter of at most 1e-9 of the support width. A law that is not a
    :class:`RectMixture`, an m that is not an integer >= 1 and a seed that
    is not an integer >= 0 raise :class:`ValidationError`; ``None`` is
    rejected too, so every support is reproducible from its seed. m above
    ``MAX_SUPPORT_POINTS`` (10^5) raises :class:`PopulationTooLarge` before
    any allocation: ``hetero-eq`` prints every participant's index and
    ``wta_approx_experiment`` solves up to n equilibria on one support,
    within its own limit on contests x support points. One
    general-contest equilibrium takes 0.03-0.06 s at 10^5 points and
    0.3-0.55 s at 10^6 (2-core x86 host shared with other jobs; the ranges
    are the spread between quiet and busy runs).
    """
    if not isinstance(jd, RectMixture):
        raise ValidationError(
            f"discretize needs a rect_mixture joint law, got {type(jd).__name__}"
        )
    if not (_is_integer(m) and m >= 1):
        raise ValidationError(f"m must be an integer >= 1, got {m!r}")
    if m > MAX_SUPPORT_POINTS:
        raise PopulationTooLarge(
            f"m = {m} exceeds the largest supported discretization {MAX_SUPPORT_POINTS}"
        )
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    counts = _stratified_counts(jd._weight_array(), m)
    qs_parts, cs_parts = [], []
    for comp, count in zip(jd.components, counts):
        if count == 0:
            continue
        qs_parts.append(comp.q_lo + rng.random(count) * (comp.q_hi - comp.q_lo))
        cs_parts.append(comp.c_lo + rng.random(count) * (comp.c_hi - comp.c_lo))
    qs = np.concatenate(qs_parts)
    cs = np.concatenate(cs_parts)

    q_lo, q_hi = jd.q_support
    width = q_hi - q_lo
    jitter_scale = 1e-9 * max(width, 1.0, abs(q_hi))
    qs = _force_distinct(qs, jitter_scale)
    weights = np.full(m, 1.0 / m)
    return EmpiricalTypes(q=qs, c=cs, w=weights, n=n)


def _finite_types(law, m: int, seed, n: int) -> EmpiricalTypes:
    """The finite support a type law gives for a population of n.

    An :class:`EmpiricalTypes` is used as it is, with ``n`` set; a
    :class:`RectMixture` is discretized to m points with ``seed``. Any other
    law, such as a quality marginal, has no costs and raises
    :class:`ValidationError`.
    """
    if isinstance(law, EmpiricalTypes):
        return law if law.n == n else law.with_n(n)
    if isinstance(law, RectMixture):
        return discretize(law, m, seed, n=n)
    raise ValidationError(
        f"{type(law).__name__} is not a joint (quality, cost) type law; "
        "use a rect_mixture or an empirical support"
    )


def _check_marginal(qd) -> None:
    """A joint (q, c) law or a finite support is not a quality marginal."""
    if not isinstance(qd, QualityDistribution):
        raise ValidationError(
            f"{type(qd).__name__} is not a quality marginal; use Uniform or PiecewiseLinearCDF"
        )


# --- JSON wire formats ----------------------------------------------------


def distribution_from_dict(doc: dict):
    try:
        kind = doc["kind"]
        if kind == "uniform_quality":
            return Uniform(float(doc["a"]), float(doc["b"]))
        if kind == "piecewise_cdf":
            return PiecewiseLinearCDF(
                tuple((float(q), float(u)) for q, u in doc["knots"])
            )
        if kind == "rect_mixture":
            comps = tuple(
                RectComponent(
                    q_lo=float(c["q"][0]),
                    q_hi=float(c["q"][1]),
                    c_lo=float(c["c"][0]),
                    c_hi=float(c["c"][1]),
                    weight=float(c["weight"]),
                )
                for c in doc["components"]
            )
            return RectMixture(comps)
        if kind == "empirical":
            pts = np.asarray(doc["points"], dtype=float)
            if pts.ndim != 2 or pts.shape[1] != 3:
                raise ValidationError("empirical points must be [q, c, w] triples")
            return EmpiricalTypes(q=pts[:, 0], c=pts[:, 1], w=pts[:, 2])
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ValidationError(f"malformed distribution document: {exc}") from exc
    raise ValidationError(f"unknown distribution kind: {kind!r}")
