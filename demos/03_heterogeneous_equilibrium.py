"""
Heterogeneous types: the quality-order equilibrium and stochastic dominance
===========================================================================

Types are now (quality, cost) pairs from a joint law with no structure
assumed between the two coordinates. Participation sets are no longer
intervals, but an entrant's chance of being beaten depends only on the
entrants of higher quality. Deciding the support points from the top
quality down therefore fixes the unique equilibrium, and since more rivals
in means a smaller expected prize, a point that cannot afford to enter at
some stage never can later. The solver decides them in one such scan.
"""

import numpy as np

from contest_forge import (
    best_response,
    equilibrium,
    exact_objective,
    expected_prize_curve,
    fosd_check,
    make_simple_contest,
    median_subequilibrium,
    output_cdf,
)
from contest_forge.distributions import RectComponent, RectMixture, discretize
from contest_forge.heterogeneous import ParticipationProfile

# Two clusters: cheap mediocre types and expensive strong ones.
jd = RectMixture((
    RectComponent(0.2, 1.0, 0.05, 0.25, 0.7),
    RectComponent(1.5, 2.5, 0.40, 0.90, 0.3),
))
n = 8
types = discretize(jd, 200, seed=1, n=n)
contest = make_simple_contest(3, 1.0, n)

solved = equilibrium(contest, types)
print(f"equilibrium found in {solved.iterations} sweep rounds")
eq = solved.profile
print(f"equilibrium: {eq.count} of {types.support_size} support points enter, "
      f"mass = {float(types.w[eq.mask].sum()):.3f}")

# The equilibrium is a fixed point of the best-response map.
assert best_response(contest, types, eq).same(eq)

# Every participant clears her cost in expectation; print the tightest one.
# An entrant is beaten by the entering mass of higher quality.
entrants = np.flatnonzero(eq.mask)
beaten = [types.w[eq.mask & (types.q > types.q[i])].sum() for i in entrants]
payoffs = expected_prize_curve(contest, beaten) - types.c[entrants]
print(f"worst participant payoff: {payoffs.min():+.5f} (individual rationality)")

# Any individually-rational subset of the equilibrium produces first-order
# stochastically dominated output: per draw, the equilibrium's output CDF
# sits weakly below the subset's everywhere (non-entrants produce 0).
rng = np.random.default_rng(7)
sub = ParticipationProfile(eq.mask & (rng.random(types.support_size) < 0.5))
print("FOSD (equilibrium dominates thinned subset):",
      fosd_check(types, eq, sub, contest))
x = 0.6
print(f"  P[output <= {x}]: eq {output_cdf(types, eq, x):.4f}"
      f" vs subset {output_cdf(types, sub, x):.4f}")

# Dominance in distribution implies dominance in expectation; the expected
# maximum of n draws has a closed form on the support.
print(f"expected max: eq {exact_objective(types, eq, n, 'max'):.4f}, "
      f"subset {exact_objective(types, sub, n, 'max'):.4f}")

# A distribution-free participation rule: "enter if your quality beats the
# median best cheap entrant and your cost is at most V/2". It is a certified
# sub-equilibrium under any contest that concentrates half the budget up top.
rule = median_subequilibrium(jd, 1.0, n)
print(f"\nmedian rule: enter if q >= {rule.mu:.4f} and c <= {rule.cost_cap:.2f}"
      f" (win probability floor {rule.win_floor:.3f})")
