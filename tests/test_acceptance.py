"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Each test prints its verdict directly to the terminal (bypassing capture) so
a plain ``pytest -v`` run shows the twelve lines alongside the outcomes.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from contest_forge.cli import main as cli_main
from contest_forge.compstat import (
    asymptotic_scan,
    bound_audit,
    breakpoints,
    classify_by_breakpoints,
    finite_to_limit_convergence,
    participation_floor_audit,
    poisson_limit,
)
from contest_forge.contest import (
    PrizeVector,
    expected_prize,
    expected_prize_curve,
    lottery_decomposition,
    make_simple_contest,
    w_inverse,
    w_transform,
)
from contest_forge.distributions import (
    EmpiricalTypes,
    RectComponent,
    RectMixture,
    Uniform,
)
from contest_forge.heterogeneous import (
    ParticipationProfile,
    equilibrium,
    example_obj,
    exact_objective,
    fosd_check,
    wta_approx_experiment,
)
from contest_forge.homogeneous import (
    brute_force_design_check,
    c_star,
    equilibrium_threshold,
    optimal_contest,
)
from test_contest import random_contest
from test_numerics import log_factorial

UNIFORM = Uniform(0.0, 1.0)


def report(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {name} ({detail})"


class TestAcceptance:
    def test_01_equilibrium_equation(self, capsys):
        t0 = time.time()
        rng = np.random.default_rng(42)
        grid = np.linspace(0.0, 1.0, 1000)
        worst_resid = 0.0
        worst_dev = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 51))
            contest = random_contest(rng, n, exhaust=bool(rng.integers(0, 2)))
            v_top, v_bot = contest.values[0], contest.values[-1]
            if v_top - v_bot < 1e-6:
                continue
            c = float(rng.uniform(v_bot + 1e-6, v_top - 1e-6))
            eq = equilibrium_threshold(contest, UNIFORM, c)
            assert eq.saturated is None
            resid = abs(expected_prize(contest, eq.p) - c)
            worst_resid = max(worst_resid, resid / max(contest.budget, c))
            # deviation audit: entry payoff over a quality grid; types above
            # theta must not lose by entering, types below must not gain
            beat = 1.0 - np.maximum(grid, eq.theta)
            payoff = expected_prize_curve(contest, beat) - c
            enter = grid >= eq.theta
            gain = float(max(np.max(-payoff[enter], initial=0.0),
                             np.max(payoff[~enter], initial=0.0)))
            worst_dev = max(worst_dev, gain / contest.budget)
        elapsed = time.time() - t0
        ok = worst_resid <= 1e-9 and worst_dev <= 1e-8 and elapsed < 5.0
        report(capsys, 1, "equilibrium equation + deviation audit", ok,
               f"max residual {worst_resid:.2e}, max deviation {worst_dev:.2e}, {elapsed:.1f}s")

    def test_02_simplicity_of_optima(self, capsys):
        t0 = time.time()
        worst_gap = 0.0
        for n in (2, 3):
            for c in (0.3, 0.5, 0.7):
                rep = brute_force_design_check(n, 1.0, c, grid_step=1.0 / 20.0)
                worst_gap = max(worst_gap, rep.gap)
        # frontier dominance: c_star against a large random pool plus the
        # simple contests themselves (which attain it)
        rng = np.random.default_rng(42)
        n = 10
        pool = [random_contest(rng, n, exhaust=True).values for _ in range(10_000)]
        pool += [make_simple_contest(j, 1.0, n).values for j in range(1, n + 1)]
        values = np.array(pool)
        ps = np.linspace(0.04, 0.96, 20)
        pmf = np.array([stats.binom.pmf(np.arange(n), n - 1, p) for p in ps])
        curve_max = (values @ pmf.T).max(axis=0)
        stars = np.array([c_star(n, 1.0, float(p)) for p in ps])
        above = float(np.max(curve_max - stars))
        below = float(np.max(stars - curve_max))
        elapsed = time.time() - t0
        ok = worst_gap <= 1e-9 and above <= 1e-12 and below <= 1e-12 and elapsed < 60.0
        report(capsys, 2, "simple contests are optimal", ok,
               f"grid gap {worst_gap:.2e}, frontier slack {above:.2e}/{below:.2e}, {elapsed:.1f}s")

    def test_03_breakpoints(self, capsys):
        t0 = time.time()
        rng = np.random.default_rng(42)
        ok = True
        details = []
        for n in range(2, 51):
            table = breakpoints(n, 1.0)
            thresholds = table.thresholds()
            if not np.all(np.diff(thresholds) < 0.0):
                ok = False
                details.append(f"chain not strict at n={n}")
            if abs(table.entries[0][1] - 1.0 / n) > 1e-12:
                ok = False
                details.append(f"p2 != 1/n at n={n}")
            for _ in range(100):
                c = float(rng.uniform(1e-3, 0.999))
                if classify_by_breakpoints(table, c) != optimal_contest(
                    n, 1.0, c, UNIFORM
                ).j_star:
                    ok = False
                    details.append(f"classification mismatch n={n} c={c}")
        t5 = breakpoints(5, 1.0)
        if abs(t5.entries[0][2] - 0.4096) > 1e-10:
            ok = False
            details.append("c2 off")
        if abs(t5.entries[1][2] - 8.0 / 27.0) > 1e-10:
            ok = False
            details.append("c3 off")
        elapsed = time.time() - t0
        ok = ok and elapsed < 10.0
        report(capsys, 3, "breakpoint table", ok,
               details[0] if details else f"n=2..50 chain, p2, frozen values, 4900 classifications, {elapsed:.1f}s")

    def test_04_wta_criterion_flip(self, capsys):
        t0 = time.time()
        ok = True
        details = []
        for n in (2, 5, 10, 100):
            boundary = 1.0 / (1.0 + 1.0 / (n - 1)) ** (n - 1)
            below = optimal_contest(n, 1.0, boundary - 1e-6, UNIFORM).j_star
            above = optimal_contest(n, 1.0, boundary + 1e-6, UNIFORM).j_star
            if (below, above) != (2, 1):
                ok = False
                details.append(f"n={n}: got ({below}, {above})")
        elapsed = time.time() - t0
        ok = ok and elapsed < 5.0
        report(capsys, 4, "winner-take-all flip at the first breakpoint", ok,
               details[0] if details else f"j* = 2/1 across both sides for n in (2,5,10,100), {elapsed:.1f}s")

    def test_05_poisson_limit(self, capsys):
        t0 = time.time()
        table = finite_to_limit_convergence(5.0, 1.0, [50, 100, 200, 400, 800, 1600])
        gaps = [row.gap for row in table.rows]
        monotone = all(a >= b - 1e-9 for a, b in zip(gaps, gaps[1:]))
        limit2 = poisson_limit(1.0, 0.5)
        ln2_err = abs(limit2.lambda_star - math.log(2.0))
        elapsed = time.time() - t0
        ok = (monotone and gaps[-1] < 0.05 and ln2_err <= 1e-9
              and limit2.j_star == 1 and elapsed < 30.0)
        report(capsys, 5, "Poisson limit convergence", ok,
               f"final gap {gaps[-1]:.4f}, ln2 error {ln2_err:.1e}, {elapsed:.1f}s")

    def test_06_asymptotic_residuals(self, capsys):
        t0 = time.time()
        rows = asymptotic_scan(1.0, [100.0, 1000.0, 10000.0])
        in_band = all(0.3 <= r.r_j <= 3.0 and 0.3 <= r.r_lambda <= 3.0 for r in rows)
        elapsed = time.time() - t0
        ok = in_band and elapsed < 120.0
        detail = ", ".join(f"vc={r.vc:g}: r_j={r.r_j:.2f}, r_l={r.r_lambda:.2f}" for r in rows)
        report(capsys, 6, "asymptotic residual bands", ok, f"{detail}, {elapsed:.1f}s")

    def test_07_inequality_audits(self, capsys):
        t0 = time.time()
        ok = True
        details = []
        # factorial window on a log grid
        for n in np.unique(np.geomspace(2, 10**6, 80).astype(int)):
            n = int(n)
            base = n * math.log(n) - n + 0.5 * math.log(n)
            if not (base + 2.0 / 3.0 < log_factorial(n) <= base + 1.0):
                ok = False
                details.append(f"factorial window fails at n={n}")
        # two-sided pmf checks on a 200-point grid inside the hypotheses
        rng = np.random.default_rng(42)
        evaluated = 0
        while evaluated < 200:
            n = int(rng.integers(10, 5001))
            p = float(rng.uniform(0.02, 0.45))
            lo, hi = int(math.ceil(p * n)), n // 2
            if lo > hi:
                continue
            j = int(rng.integers(lo, hi + 1))
            rep = bound_audit(n, p, j)
            statuses = [rep["pmf_lower"]["status"], rep["pmf_upper"]["status"]]
            if "fail" in statuses or rep["tail_band"]["status"] == "fail":
                ok = False
                details.append(f"bound fails at n={n}, p={p:.3f}, j={j}")
            evaluated += 1
        # tail band at points where the pmf-magnitude gate is active; the
        # window is a few j wide per (n, p), so sweep j at unit stride
        active = 0
        for n, p in ((400, 0.2), (1000, 0.1), (2000, 0.05), (4000, 0.1), (4000, 0.3)):
            for j in range(int(p * n) + 1, n // 2):
                rep = bound_audit(n, p, j)
                if rep["tail_band"]["status"] == "pass":
                    active += 1
                elif rep["tail_band"]["status"] == "fail":
                    ok = False
                    details.append(f"tail band fails at n={n}, p={p}, j={j}")
        if active < 10:
            ok = False
            details.append(f"tail band only evaluated at {active} points")
        # participation floor at the scales of the statement
        for vc in (50.0, 100.0, 500.0):
            entry = participation_floor_audit(vc, int(3 * vc))
            if entry["status"] != "pass":
                ok = False
                details.append(f"participation floor {entry['status']} at vc={vc}")
        elapsed = time.time() - t0
        ok = ok and elapsed < 30.0
        report(capsys, 7, "factorial, pmf, tail, and floor bound audits", ok,
               details[0] if details else f"window + 200-pt grid + {active} tail points + floors, {elapsed:.1f}s")

    def test_08_sub_equilibrium_dominance(self, capsys):
        t0 = time.time()
        rng = np.random.default_rng(42)
        ok = True
        details = []
        for _ in range(200):
            size = int(rng.integers(3, 30))
            n = int(rng.integers(2, 9))
            q = rng.uniform(0.0, 1.0, size=size) + np.arange(size) * 1e-9
            c = rng.uniform(0.01, 1.0, size=size)
            w = rng.uniform(0.2, 1.0, size=size)
            w /= w.sum()
            w = w.round(12)
            w[-1] = 1.0 - w[:-1].sum()
            types = EmpiricalTypes(q=q, c=c, w=w, n=n)
            contest = make_simple_contest(int(rng.integers(1, n + 1)), 1.0, n)
            eq = equilibrium(contest, types).profile
            sub = ParticipationProfile(eq.mask & (rng.random(size) < 0.6))
            if not fosd_check(types, eq, sub, contest):
                ok = False
                details.append("FOSD violated")
                continue
            # a draw no longer used, kept so the 200 instances stay the same
            rng.integers(0, 2**32)
            # the exact expected maxima, ordered with no slack
            max_eq = exact_objective(types, eq, n, "max")
            max_sub = exact_objective(types, sub, n, "max")
            if max_eq < max_sub:
                ok = False
                details.append(f"expected max ordering violated: {max_eq} < {max_sub}")
        elapsed = time.time() - t0
        ok = ok and elapsed < 120.0
        report(capsys, 8, "sub-equilibrium FOSD + expectation ordering", ok,
               details[0] if details else f"200 instances, {elapsed:.1f}s")

    def test_09_three_approximation(self, capsys):
        t0 = time.time()
        rng = np.random.default_rng(42)
        ok = True
        details = []
        ratios = []
        for _ in range(100):
            parts = int(rng.integers(1, 3))
            comps = []
            weights = rng.uniform(0.2, 1.0, size=parts)
            weights /= weights.sum()
            for kk in range(parts):
                q_lo = float(rng.uniform(0.0, 1.0))
                q_hi = q_lo + float(rng.uniform(0.1, 1.0))
                c_lo = float(rng.uniform(0.08, 0.5))
                c_hi = c_lo + float(rng.uniform(0.05, 0.6))
                comps.append(RectComponent(q_lo, q_hi, c_lo, c_hi, float(weights[kk])))
            jd = RectMixture(tuple(comps))
            rep = wta_approx_experiment(jd, 50, 1.0, 400, 10_000,
                                        int(rng.integers(0, 2**31)))
            ratios.append(rep["ratio"])
            if not rep["checks"]["three_w_geq_best"]:
                ok = False
                details.append(f"3W >= B violated, ratio {rep['ratio']:.3f}")
        # homogeneous regime: cost above the first breakpoint, WTA optimal
        jd = RectMixture((RectComponent(0.0, 1.0, 0.5, 0.5005, 1.0),))
        rep = wta_approx_experiment(jd, 50, 1.0, 400, 10_000, 7)
        if not 0.9 <= rep["ratio"] <= 1.1:
            ok = False
            details.append(f"homogeneous ratio {rep['ratio']:.3f} outside [0.9, 1.1]")
        elapsed = time.time() - t0
        ok = ok and elapsed < 600.0
        report(capsys, 9, "winner-take-all 3-approximation", ok,
               details[0] if details else
               f"100 instances, max ratio {max(ratios):.3f}, homogeneous {rep['ratio']:.3f}, {elapsed:.0f}s")

    def test_10_max_vs_sum_conflict(self, capsys):
        t0 = time.time()
        rep = example_obj(400.0, 4000, 0.01, seed=0)
        checks = rep["checks"]
        elapsed = time.time() - t0
        ok = all(checks.values()) and elapsed < 300.0
        report(capsys, 10, "no single contest optimizes max and sum", ok,
               f"wta max {rep['wta_max']['mean']:.1f} > 2, spread sum {rep['spread_sum']['mean']:.0f} >= 100, "
               f"high participants {rep['spread_high_participants']}, "
               f"top-heavy below quarter: {checks['top_heavy_sum_below_quarter']}, {elapsed:.0f}s")

    def test_11_exact_algebra(self, capsys):
        t0 = time.time()
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 25))
            contest = random_contest(rng, n, exhaust=True)
            w = w_transform(contest)
            back = w_inverse(w.weights, budget=contest.budget)
            worst = max(worst, float(np.max(np.abs(
                np.array(back.values) - np.array(contest.values)))))
            lot = lottery_decomposition(contest)
            worst = max(worst, abs(math.fsum(lot.probabilities) - 1.0))
            probs = np.asarray(lot.probabilities)
            per_prize = contest.budget / np.arange(1, n + 1)
            for r in range(n):
                payoff = float(np.sum(probs[r:] * per_prize[r:]))
                worst = max(worst, abs(payoff - contest.values[r]))
        elapsed = time.time() - t0
        ok = worst <= 1e-12 and elapsed < 1.0
        report(capsys, 11, "transform and lottery algebra", ok,
               f"max error {worst:.2e} over 100 contests, {elapsed:.2f}s")

    def test_12_cli_determinism(self, capsys, tmp_path):
        t0 = time.time()
        dist = tmp_path / "dist.json"
        contest = tmp_path / "contest.json"
        dist.write_text(json.dumps({
            "kind": "rect_mixture",
            "components": [
                {"q": [0.0, 1.0], "c": [0.05, 0.3], "weight": 0.6},
                {"q": [0.5, 2.0], "c": [0.1, 0.8], "weight": 0.4},
            ],
        }))
        contest.write_text(json.dumps(
            {"budget": 1.0, "values": [0.5, 0.3, 0.2, 0.0, 0.0, 0.0]}))
        commands = [
            ["design", "--n", "5", "--prize", "1", "--cost", "0.4"],
            ["compstat", "--n", "10"],
            ["poisson", "--prize", "1", "--cost", "0.3"],
            ["scan", "--vc-min", "50", "--vc-max", "500", "--steps", "3"],
            ["hetero-eq", "--dist", str(dist), "--contest", str(contest),
             "--n", "6", "--m", "60", "--seed", "5"],
            ["approx", "--dist", str(dist), "--n", "6", "--prize", "1",
             "--m", "60", "--replicas", "500", "--seed", "5"],
            ["example-obj", "--prize", "160", "--n", "200", "--eps", "0.01",
             "--seed", "1"],
        ]
        ok = True
        details = []
        for argv in commands:
            assert cli_main(argv) == 0
            first = capsys.readouterr().out
            assert cli_main(argv) == 0
            second = capsys.readouterr().out
            if first != second or not first:
                ok = False
                details.append(f"{argv[0]} not reproducible")
        elapsed = time.time() - t0
        ok = ok and elapsed < 30.0
        report(capsys, 12, "CLI byte-for-byte determinism", ok,
               details[0] if details else f"all 7 subcommands identical across reruns, {elapsed:.0f}s")
