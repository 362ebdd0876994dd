"""
Designing a prize schedule for maximal participation
====================================================

A contest pays v_1 >= ... >= v_n >= 0 by rank. Agents only decide whether
to show up: entering costs c, quality is drawn once from F, and prizes go
to the highest-quality entrants. Everything below is driven by the
expected-prize curve c_M(p): what a participant expects to win when each
opponent independently enters-and-beats her with probability p.
"""

import numpy as np

from contest_forge import (
    breakpoints,
    classify_by_breakpoints,
    equilibrium_threshold,
    expected_prize,
    expected_prize_curve,
    make_simple_contest,
    optimal_contest,
    validate_contest,
)
from contest_forge.distributions import Uniform

n = 5
budget = 1.0
uniform = Uniform(0.0, 1.0)

# A hand-rolled schedule and its curve. The curve starts at v_1 (no
# competition) and falls to v_n (beaten by everyone).
contest = validate_contest((0.5, 0.3, 0.2, 0.0, 0.0), budget)
for p in (0.0, 0.25, 0.5, 0.75, 1.0):
    print(f"c_M({p:.2f}) = {expected_prize(contest, p):.4f}")

# Threshold equilibrium at cost c: types with q >= theta enter, and theta
# solves c_M(1 - F(theta)) = c.
eq = equilibrium_threshold(contest, uniform, 0.25)
print(f"\ncost 0.25: theta = {eq.theta:.4f}, entry rate p = {eq.p:.4f}, "
      f"expected entrants lambda = {eq.lam:.4f}")

# The designer's problem has a clean answer: some "simple" contest M^j
# (j equal prizes of V/j) is always optimal, and j* steps up as c falls.
print("\ncost   j*  entry rate")
for c in (0.8, 0.5, 0.35, 0.25, 0.15):
    design = optimal_contest(n, budget, c, uniform)
    print(f"{c:.2f}  {design.j_star:3d}  {design.equilibrium.p:.4f}")

# The switch points are the breakpoints c_j where M^{j-1} and M^j tie.
table = breakpoints(n, budget)
print("\nbreakpoints for n = 5, V = 1:")
for j, p_j, c_j in table.entries:
    print(f"  c_{j} = {c_j:.6f} (curves cross at p = {p_j:.6f})")

# classify_by_breakpoints reads j* straight off the table; spot-check it
# against the direct solver on a random cost.
rng = np.random.default_rng(0)
c = float(rng.uniform(0.05, 0.95))
j_table = classify_by_breakpoints(table, c)
j_direct = optimal_contest(n, budget, c, uniform).j_star
assert j_table == j_direct
print(f"\nrandom cost {c:.4f}: table says M^{j_table}, solver agrees")

# Sanity: the vectorised curve matches scalar evaluation on a grid.
ps = np.linspace(0.0, 1.0, 11)
curve = expected_prize_curve(make_simple_contest(2, budget, n), ps)
scalar = [expected_prize(make_simple_contest(2, budget, n), float(p)) for p in ps]
print("curve check, max abs gap:", float(np.max(np.abs(curve - scalar))))
