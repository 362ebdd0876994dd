"""Seeded designer queries for the three benchmark workloads.

Only the standard library is used here, so a cold-start process can build its
first query before it starts the clock and imports ``contest_forge``. A query
is plain data (numbers, lists, dicts); turning it into library objects is
part of the timed work.

The parameters that set a query's cost are drawn jointly from a randomly
shifted low-discrepancy sequence, handed out in shuffled order. Every seed
then covers the parameter box with nearly the same density, alone and in
combination, so the spread of a run's median between seeds comes from timing
noise, not from one seed drawing more large problems than another.

Deliberately excluded inputs (see ``BENCHMARK.json``):

* ``breakpoints`` at n above 60. From n of about 190 it raises a raw
  ``OverflowError``, and it already takes about 1.6 s at n = 180.
* Non-finite, zero or negative sizes, costs and budgets. Those are
  validation cases, not load.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("design-desk", "scale-tables", "hetero-experiments")

# design-desk
DESK_N = (5, 60)
DESK_VECTORS = 3
# scale-tables
TABLE_N = (10, 60)
SCALE_VC = (50.0, 2000.0)
# hetero-experiments, after acceptance criterion 09
HETERO_N = 50
HETERO_POINTS = 400
HETERO_REPLICAS = 1000
HETERO_KEEP = 0.6


def _spread(rng: random.Random, count: int, dims: int) -> list[tuple[float, ...]]:
    """``count`` points of [0, 1)^dims, evenly spread, in shuffled order.

    The additive recurrence x_i = frac(s + i * alpha) with alpha_k =
    phi_d^-k, where phi_d is the positive root of x^(d+1) = x + 1 (Roberts'
    R_d sequence), under a random shift s.
    """
    phi = 2.0
    for _ in range(60):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    alpha = [phi ** -(k + 1) for k in range(dims)]
    shift = [rng.random() for _ in range(dims)]
    points = [
        tuple((s + i * a) % 1.0 for s, a in zip(shift, alpha)) for i in range(count)
    ]
    rng.shuffle(points)
    return points


def _int_in(u: float, lo: int, hi: int) -> int:
    """Map u in [0, 1) onto the integers lo..hi, equal mass each."""
    return lo + int(u * (hi - lo + 1))


def _log_in(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _general_prizes(rng: random.Random, n: int, budget: float, paid: int) -> list[float]:
    """A budget-exhausting, non-increasing prize vector that is not simple.

    The top ``paid`` (at least 2) ranks get distinct positive prizes, so at
    least two rank-gap weights are nonzero.
    """
    raw = sorted((rng.random() + 1e-3 for _ in range(paid)), reverse=True)
    total = math.fsum(raw)
    return [budget * x / total for x in raw] + [0.0] * (n - paid)


def _design_desk(rng: random.Random, count: int) -> list[dict]:
    out = []
    for u_n, *u_cost in _spread(rng, count, 1 + DESK_VECTORS):
        n = _int_in(u_n, *DESK_N)
        budget = _log_in(rng.random(), 1.0, 100.0)
        q_lo = rng.uniform(0.0, 1.0)
        contests = []
        for k in range(DESK_VECTORS):
            values = _general_prizes(rng, n, budget, rng.randint(2, n))
            # strictly inside (v_n, v_1): the equilibrium is interior, so
            # every query does the full solve rather than exiting early
            u = 0.01 + 0.98 * u_cost[k]
            cost = values[-1] + u * (values[0] - values[-1])
            contests.append({"values": values, "cost": cost})
        out.append(
            {
                "n": n,
                "budget": budget,
                "quality": [q_lo, q_lo + rng.uniform(0.5, 2.0)],
                "contests": contests,
            }
        )
    return out


def _scale_tables(rng: random.Random, count: int) -> list[dict]:
    out = []
    for u_n, u_cost, u_vc in _spread(rng, count, 3):
        n = _int_in(u_n, *TABLE_N)
        out.append(
            {
                "table_n": n,
                "table_cost": _log_in(u_cost, 0.5 / n, 0.95),
                "vc": _log_in(u_vc, *SCALE_VC),
            }
        )
    return out


def _hetero_experiments(rng: random.Random, count: int) -> list[dict]:
    # the cheapest rectangle's cost floor sets how many simple contests the
    # experiment solves (up to V / min cost), and the general contest's curve
    # costs one binomial cdf per paid rank
    out = []
    for u_floor, u_parts, u_paid in _spread(rng, count, 3):
        parts = 1 if u_parts < 0.5 else 2
        weights = [rng.uniform(0.2, 1.0) for _ in range(parts)]
        total = math.fsum(weights)
        floor = 0.08 + 0.42 * u_floor
        rects = []
        for k in range(parts):
            q_lo = rng.uniform(0.0, 1.0)
            c_lo = floor if k == 0 else rng.uniform(floor, 0.5)
            rects.append(
                [
                    q_lo,
                    q_lo + rng.uniform(0.1, 1.0),
                    c_lo,
                    c_lo + rng.uniform(0.05, 0.6),
                    weights[k] / total,
                ]
            )
        out.append(
            {
                "rects": rects,
                "seed": rng.randrange(2**31),
                "prizes": _general_prizes(rng, HETERO_N, 1.0, _int_in(u_paid, 2, HETERO_N)),
                "keep": [rng.random() < HETERO_KEEP for _ in range(HETERO_POINTS)],
            }
        )
    return out


_GENERATORS = {
    "design-desk": _design_desk,
    "scale-tables": _scale_tables,
    "hetero-experiments": _hetero_experiments,
}


def generate(workload: str, seed: int, count: int, stream: str = "timed") -> list[dict]:
    """The ``count`` queries of one workload; equal arguments give equal lists.

    ``stream`` separates the timed list from the warm-up list, so warm-up
    never replays a timed query.
    """
    rng = random.Random(f"{workload}/{stream}/{seed}")
    return _GENERATORS[workload](rng, count)
