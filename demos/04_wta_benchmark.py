"""
Winner-take-all as a universal benchmark for the max objective
==============================================================

When the designer cares about the single best output, winner-take-all is
never far from optimal: its expected maximum W satisfies 3W >= B for the
best simple contest B, under any joint law of (quality, cost). This
script computes the gap exactly on a discretized instance, then rebuilds the
two-cluster example showing that no one contest serves both the max and
the sum objectives.
"""

from contest_forge import example_obj, wta_approx_experiment
from contest_forge.distributions import RectComponent, RectMixture

jd = RectMixture((
    RectComponent(0.0, 1.0, 0.10, 0.50, 0.6),
    RectComponent(0.8, 2.0, 0.30, 0.90, 0.4),
))

report = wta_approx_experiment(jd, n=50, budget=1.0, discretization=400,
                               replicas=4000, seed=11)
print(f"WTA expected max W = {report['wta']['mean']:.4f}")
print(f"best simple contest: M^{report['best_j']} with B = {report['best']:.4f}")
print(f"ratio B/W = {report['ratio']:.3f}  (theory caps this at 3)")
print("3W >= B holds:", report["checks"]["three_w_geq_best"])

# per-j breakdown of the simple-contest sweep
print("\n  j   expected max")
for row in report["contests"]:
    print(f"{row['j']:3d}   {row['estimate']['mean']:.4f}")

# The separation example: half the population is cheap with quality
# about 1, half costs nearly the whole budget but has quality about 20.
# Winner-take-all recruits a star (great max, terrible sum); many small
# prizes recruit the crowd (great sum, max stuck near 1); and anything
# top-heavy enough to recruit a star forfeits the crowd. Scaled-down
# configuration so this runs in seconds; the headline instance uses
# V = 400, n = 4000.
rep = example_obj(200.0, 500, 0.01, seed=0, m=800)
print(f"\nseparation instance (V = {rep['budget']:.0f}, n = {rep['n']}):")
print(f"  WTA expected max  = {rep['wta_max']['mean']:.2f}")
print(f"  M^{rep['spread_j']} expected sum = {rep['spread_sum']['mean']:.1f}"
      f" with {rep['spread_high_participants']} expensive entrants")
for row in rep["top_heavy"]:
    print(f"  top-heavy {row['name']:<15} (v1 = {row['v1']:5.1f}): "
          f"sum = {row['sum_estimate']['mean']:6.1f}, "
          f"below V/4: {row['below_quarter']}")
print("checks:", rep["checks"])
