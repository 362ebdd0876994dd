import math

import numpy as np
import pytest
from scipy import special, stats

from contest_forge import homogeneous, numerics
from contest_forge.contest import expected_prize, make_simple_contest, validate_contest
from contest_forge.distributions import PiecewiseLinearCDF, Uniform, cdf
from contest_forge.errors import (
    InvalidCost,
    IterationLimit,
    OutOfRange,
    PopulationTooLarge,
    ValidationError,
)
from contest_forge.homogeneous import (
    FULL_PARTICIPATION,
    ZERO_PARTICIPATION,
    brute_force_design_check,
    c_star,
    equilibrium_threshold,
    feasible,
    optimal_contest,
    optimal_prize_count,
    participation_rate,
)
from contest_forge.numerics import bisect_decreasing, rank_cdf, rank_cdf_inv
from test_contest import random_contest

UNIFORM = Uniform(0.0, 1.0)


def scan_prize_count(n, p):
    """Independent full scan of y_j = (V/j) * BinCDF(j-1; n-1, p), V = 1."""
    js = np.arange(1, n + 1)
    ys = stats.binom.cdf(js - 1, n - 1, p) / js
    best = ys.max()
    return int(js[ys >= best - 1e-12][0])


class TestParticipationRate:
    def test_wta_two_players_closed_form(self):
        # c(p) = V(1 - p), so p = 1 - c/V
        wta = make_simple_contest(1, 1.0, 2)
        for c in (0.1, 0.5, 0.9):
            p, flag = participation_rate(wta, c)
            assert flag is None
            np.testing.assert_allclose(p, 1.0 - c, atol=1e-10)

    def test_residual_on_random_contests(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(2, 51))
            v = random_contest(rng, n)
            c = float(rng.uniform(v.values[-1] + 1e-6, max(v.values[0], 2e-6)))
            if c <= 0 or c > v.values[0]:
                continue
            p, flag = participation_rate(v, c)
            if flag is None:
                resid = abs(expected_prize(v, p) - c)
                assert resid <= 1e-9 * max(v.budget, c)

    def test_boundary_flags(self):
        v = validate_contest((0.5, 0.3, 0.2), 1.0)
        assert participation_rate(v, 0.6) == (0.0, ZERO_PARTICIPATION)
        assert participation_rate(v, 0.1) == (1.0, FULL_PARTICIPATION)

    def test_rejects_nonpositive_cost(self):
        v = make_simple_contest(1, 1.0, 3)
        for c in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InvalidCost):
                participation_rate(v, c)

    def test_decreasing_in_cost(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            v = random_contest(rng, 10, exhaust=True)
            cs = np.linspace(v.values[-1] + 1e-4, v.values[0] - 1e-4, 9)
            ps = [participation_rate(v, float(c))[0] for c in cs]
            assert all(a >= b - 1e-9 for a, b in zip(ps, ps[1:]))


def rate_contract(contest, c, p):
    """|c(p) - c| / max(V, c): participation_rate promises at most 1e-10."""
    return abs(expected_prize(contest, p) - c) / max(contest.budget, c)


def bisected_rate(contest, c):
    """The participation rate by bisection on expected_prize, the route it replaced."""
    tol = 1e-10 * max(contest.budget, c)
    return bisect_decreasing(lambda p: expected_prize(contest, p), c, 0.0, 1.0, tol).root


def desk_contest(rng, n):
    """A design-desk-like query: the budget over the top k ranks, cost inside (v_n, v_1)."""
    budget = float(np.exp(rng.uniform(0.0, math.log(100.0))))
    k = int(rng.integers(2, n + 1))
    raw = np.sort(rng.uniform(0.0, 1.0, size=k))[::-1]
    values = tuple(float(v) for v in raw * budget / raw.sum()) + (0.0,) * (n - k)
    contest = validate_contest(values, budget)
    c = values[-1] + float(rng.uniform(0.01, 0.99)) * (values[0] - values[-1])
    return contest, c


class TestNewtonRate:
    """participation_rate's regula falsi (Pegasus) route, with the bisection
    as its oracle. It replaced Newton's method and reads only values of c(p),
    one kernel call a step, no slope.

    Flat stretches of c(p) let the routes differ by about 1e-7 in p while
    all meet the contract, so the contract is what is pinned.
    """

    def test_random_general_contests_meet_the_contract(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            n = int(rng.integers(2, 61))
            contest, c = desk_contest(rng, n)
            p, flag = participation_rate(contest, c)
            assert flag is None
            assert rate_contract(contest, c, p) <= 1e-10, (n, c)
            assert rate_contract(contest, c, bisected_rate(contest, c)) <= 1e-10

    def test_costs_just_inside_the_end_prizes(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 61))
            contest, _ = desk_contest(rng, n)
            top, bottom = contest.values[0], contest.values[-1]
            for gap in (1e-9, 1e-6, 1e-3):
                for c in (top - gap * (top - bottom), bottom + gap * (top - bottom)):
                    p, flag = participation_rate(contest, c)
                    assert flag is None
                    assert rate_contract(contest, c, p) <= 1e-10, (n, c)

    def test_last_rank_weight_adds_a_constant_term(self):
        # every rank pays, so w_n > 0 and the mixture holds S_n = 1
        rng = np.random.default_rng(12)
        for n in (2, 3, 7, 40):
            for _ in range(10):
                contest = random_contest(rng, n, exhaust=True)
                top, bottom = contest.values[0], contest.values[-1]
                c = bottom + float(rng.uniform(0.01, 0.99)) * (top - bottom)
                p, flag = participation_rate(contest, c)
                assert flag is None
                assert rate_contract(contest, c, p) <= 1e-10, (n, c)
                assert rate_contract(contest, c, bisected_rate(contest, c)) <= 1e-10
        # only w_1 and w_n are positive: c(p) = (v_1 - v_n) S_1(p) + v_n
        contest = validate_contest((0.5,) + (0.1,) * 5, 1.0)
        p, _ = participation_rate(contest, 0.3)
        np.testing.assert_allclose(p, 1.0 - 0.5 ** (1.0 / 5.0), rtol=1e-9)

    @pytest.mark.parametrize("n", [10_000, 100_000])
    def test_simple_contests_at_large_n(self, n):
        # the contests participation_floor_audit solves: budget V/c = n/3
        vc = n / 3.0
        for j in (1, int(vc / 2), int(math.floor(vc - math.sqrt(vc)))):
            contest = make_simple_contest(j, vc, n)
            p, flag = participation_rate(contest, 1.0)
            assert flag is None
            assert rate_contract(contest, 1.0, p) <= 1e-10, j
            exact = float(rank_cdf_inv(n, j, j / vc))
            np.testing.assert_allclose(p, exact, rtol=1e-6)

    def test_deep_tail_cost(self):
        # S_j(p) = 1e-9 j of a few prizes is far down its tail
        c = 1e-9
        for n, j in ((60, 1), (60, 3), (500, 10)):
            contest = make_simple_contest(j, 1.0, n)
            p, flag = participation_rate(contest, c)
            assert flag is None
            assert rate_contract(contest, c, p) <= 1e-10, (n, j)
            assert expected_prize(contest, p) > 0.0
        # a winner's prize over a dust of runner-up prizes, cost in the dust
        contest = validate_contest((1.0 - 59e-9,) + (1e-9,) * 59, 1.0)
        p, _ = participation_rate(contest, 2e-9)
        assert rate_contract(contest, 2e-9, p) <= 1e-10

    def test_median_steps_on_design_desk_contests(self, monkeypatch):
        rng = np.random.default_rng(14)
        queries = [desk_contest(rng, int(rng.integers(5, 61))) for _ in range(300)]
        calls = []

        def counted(contest, p):
            calls.append(p)
            return expected_prize(contest, p)

        monkeypatch.setattr(homogeneous, "expected_prize", counted)
        steps = []
        for contest, c in queries:
            before = len(calls)
            p, _ = participation_rate(contest, c)
            steps.append(len(calls) - before)
            assert calls[-1] == p
        assert np.median(steps) <= 7, np.median(steps)
        assert max(steps) <= 16, max(steps)

    def test_one_kernel_read_per_step(self, monkeypatch):
        """Each step is one expected_prize call, and that call is the step's
        only read of the binomial kernel: one betainc, and no slope."""
        rng = np.random.default_rng(15)
        queries = [desk_contest(rng, int(rng.integers(2, 61))) for _ in range(50)]
        queries.append((make_simple_contest(3, 1.0, 40), 0.01))
        prizes, reads, special_calls = [], [], []
        of_complement = numerics.RankKernel.of_complement

        def counted_prize(contest, p):
            prizes.append(p)
            return expected_prize(contest, p)

        def counted_read(kernel, q):
            reads.append(q)
            return of_complement(kernel, q)

        class CountedSpecial:
            def __getattr__(self, name):
                function = getattr(special, name)

                def counted(*args, **kwargs):
                    special_calls.append(name)
                    return function(*args, **kwargs)

                return counted

        monkeypatch.setattr(homogeneous, "expected_prize", counted_prize)
        monkeypatch.setattr(numerics.RankKernel, "of_complement", counted_read)
        monkeypatch.setattr(numerics, "special", CountedSpecial())
        for contest, c in queries:
            del prizes[:], reads[:], special_calls[:]
            participation_rate(contest, c)
            assert len(prizes) == len(reads) > 0
            assert special_calls == ["betainc"] * len(prizes)

    def test_step_cap_raises_iteration_limit(self, monkeypatch):
        monkeypatch.setattr(homogeneous, "_MAX_RATE_STEPS", 2)
        contest = validate_contest((0.5, 0.3, 0.2), 1.0)
        with pytest.raises(IterationLimit):
            participation_rate(contest, 0.31)

    def test_closed_bracket_raises_iteration_limit(self, monkeypatch):
        # a curve that jumps over the cost at p = 0.3 has no root to find
        calls = []

        def jump(_, p):
            calls.append(p)
            return 0.9 - p if p < 0.3 else 0.5 - p

        monkeypatch.setattr(homogeneous, "expected_prize", jump)
        with pytest.raises(IterationLimit):
            participation_rate(make_simple_contest(1, 1.0, 2), 0.5)
        assert 0.0 < min(calls) and max(calls) < 1.0
        assert len(calls) < 200


class TestEquilibriumThreshold:
    def test_wta_uniform(self):
        wta = make_simple_contest(1, 1.0, 2)
        eq = equilibrium_threshold(wta, UNIFORM, 0.5)
        np.testing.assert_allclose(eq.theta, 0.5, atol=1e-10)
        np.testing.assert_allclose(eq.p, 0.5, atol=1e-10)
        np.testing.assert_allclose(eq.lam, 1.0, atol=1e-9)

    def test_threshold_matches_quantile(self):
        pw = PiecewiseLinearCDF(((0.0, 0.0), (1.0, 0.25), (2.0, 1.0)))
        v = make_simple_contest(2, 1.0, 6)
        eq = equilibrium_threshold(v, pw, 0.21)
        np.testing.assert_allclose(cdf(pw, eq.theta), 1.0 - eq.p, atol=1e-9)


class TestOptimalPrizeCount:
    def test_frozen_ties_and_interior(self):
        assert optimal_prize_count(5, 0.2) == 1  # tie with j=2, smallest wins
        assert optimal_prize_count(5, 1.0 / 3.0) == 2  # tie with j=3
        assert optimal_prize_count(5, 0.25) == 2

    def test_against_full_scan(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(2, 201))
            p = float(rng.uniform(0.01, 0.99))
            assert optimal_prize_count(n, p) == scan_prize_count(n, p)

    def test_monotone_in_p(self):
        # more participation supports more prizes
        for n in (10, 60):
            js = [optimal_prize_count(n, p) for p in np.linspace(0.02, 0.98, 25)]
            assert all(a <= b for a, b in zip(js, js[1:]))

    def test_rejects_degenerate_p(self):
        with pytest.raises(OutOfRange):
            optimal_prize_count(5, 0.0)
        with pytest.raises(OutOfRange):
            optimal_prize_count(5, 1.0)


class TestCStar:
    def test_frozen_values(self):
        np.testing.assert_allclose(c_star(5, 1.0, 0.2), 0.4096, atol=1e-12)
        np.testing.assert_allclose(c_star(5, 1.0, 1.0 / 3.0), 8.0 / 27.0, atol=1e-12)

    def test_dominates_random_contests(self):
        """c_star is the pointwise max of the expected-prize curve over all
        contests with the budget; random contests may approach but never
        exceed it."""
        rng = np.random.default_rng(42)
        for p in (0.1, 0.37, 0.8):
            star = c_star(12, 1.0, p)
            for _ in range(300):
                v = random_contest(rng, 12, exhaust=True)
                assert expected_prize(v, p) <= star + 1e-12

    def test_rejects_bad_scalars(self):
        bad = ((0, 1.0), (-3, 1.0), (2.5, 1.0), (5, math.nan), (5, math.inf), (5, 0.0))
        for n, budget in bad:
            with pytest.raises(ValidationError):
                c_star(n, budget, 0.3)

    def test_decreasing_until_equal_split_floor(self):
        # strictly decreasing while above V/n; once the equal split is
        # optimal the frontier is pinned at exactly V/n for every p
        values = [c_star(8, 1.0, p) for p in np.linspace(0.05, 0.95, 19)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        for a, b in zip(values, values[1:]):
            if a > 0.125 + 1e-12:
                assert a > b
        assert values[-1] == 0.125

    def test_feasible(self):
        assert feasible(5, 1.0, 0.40, 0.2)
        assert not feasible(5, 1.0, 0.41, 0.2)


def scan_simple_rates(n, budget, c, js):
    """The 60-step vectorised bisection that found each rate of M^j before the
    closed-form inverse; ``c`` may be a column to solve several costs at once."""
    shape = np.broadcast_shapes(np.shape(js), np.shape(c))
    lo = np.zeros(shape)
    hi = np.ones(shape)
    scale = budget / js
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        above = scale * rank_cdf(n, js, mid) > c
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return 0.5 * (lo + hi)


def scan_design(n, budget, c):
    """(j*, p) of the interior design by the full 60-step scan over j <= V/c."""
    j_max = min(n, int(math.floor(budget / c + 1e-12)))
    js = np.arange(1, j_max + 1)
    rates = scan_simple_rates(n, budget, c, js)
    j_star = int(js[rates >= rates.max() - 1e-12][0])
    return j_star, float(rates[j_star - 1])


def assert_design_matches(res, n, budget, c, j_ref, p_ref):
    assert res.j_star == j_ref, (n, budget, c)
    assert abs(res.equilibrium.p - p_ref) <= 1e-12, (n, budget, c)
    resid = abs(expected_prize(res.contest, res.equilibrium.p) - c)
    assert resid <= 1e-10 * max(budget, c), (n, budget, c)


class TestSearchReads:
    """The design searches read each index of a bracket of at most 65 once."""

    @staticmethod
    def spy(monkeypatch, name):
        calls = []
        kernel = getattr(homogeneous, name)

        def recorded(n, js, *args):
            calls.append(np.array(js))
            return kernel(n, js, *args)

        monkeypatch.setattr(homogeneous, name, recorded)
        return calls

    def test_c_star_reads_n_points_in_one_call(self, monkeypatch):
        calls = self.spy(monkeypatch, "rank_cdf")
        rng = np.random.default_rng(31)
        for n in list(range(1, 66)) + [int(k) for k in rng.integers(1, 66, size=40)]:
            calls.clear()
            c_star(n, 2.5, float(rng.uniform(0.01, 0.99)))
            assert len(calls) == 1
            np.testing.assert_array_equal(calls[0], np.arange(1, n + 1))

    def test_optimal_contest_reads_each_rank_at_most_once(self, monkeypatch):
        calls = self.spy(monkeypatch, "rank_cdf_inv")
        rng = np.random.default_rng(32)
        for _ in range(300):
            n = int(rng.integers(2, 66))
            budget = float(np.exp(rng.uniform(0.0, 5.0)))
            c = budget * float(rng.uniform(1.0 / n, 1.0))
            calls.clear()
            optimal_contest(n, budget, c, UNIFORM)
            read = np.concatenate(calls) if calls else np.array([], dtype=int)
            j_max = min(n, int(math.floor(budget / c + 1e-12)))
            assert read.size == np.unique(read).size
            assert read.size == 0 or (read.min() >= 1 and read.max() <= j_max)


class TestDesignAgainstScan:
    def test_acceptance_breakpoint_inputs(self):
        # the 4900 (n, c) pairs that acceptance criterion 03 classifies
        rng = np.random.default_rng(42)
        for n in range(2, 51):
            cs = np.array([rng.uniform(1e-3, 0.999) for _ in range(100)])
            js = np.arange(1, n + 1)
            rates = scan_simple_rates(n, 1.0, cs[:, None], js)
            for c, row in zip(cs, rates):
                res = optimal_contest(n, 1.0, float(c), UNIFORM)
                if c <= 1.0 / n:
                    assert res.j_star == n and res.equilibrium.p == 1.0
                    continue
                row = row[: min(n, int(math.floor(1.0 / c + 1e-12)))]
                j_ref = int(np.flatnonzero(row >= row.max() - 1e-12)[0]) + 1
                assert_design_matches(res, n, 1.0, c, j_ref, row[j_ref - 1])

    @pytest.mark.parametrize("vc", [50.0, 137.5, 420.0, 2000.0])
    def test_scale_table_sizes(self, vc):
        # the large design of the scale tables: n = ceil(3 V/c), c = 1
        n = math.ceil(3.0 * vc)
        res = optimal_contest(n, vc, 1.0, UNIFORM)
        assert_design_matches(res, n, vc, 1.0, *scan_design(n, vc, 1.0))

    def test_first_descent_is_the_argmax_of_every_rate(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(2, 3001))
            c = 1.0 / float(rng.uniform(1.0, 1.2 * n))
            res = optimal_contest(n, 1.0, c, UNIFORM)
            if c <= 1.0 / n:
                continue
            js = np.arange(1, min(n, int(math.floor(1.0 / c + 1e-12))) + 1)
            rates = rank_cdf_inv(n, js, c * js)
            assert res.j_star == int(np.argmax(rates)) + 1, (n, c)
            assert res.equilibrium.p == rates.max()

    def test_deep_tail_rate(self):
        # winner-take-all at c just below V: (1 - p)^(n-1) = c/V; scan_design
        # gives 5.59e-17 here, 24 times the exact rate
        c = float(np.nextafter(1.0, 0.0))
        res = optimal_contest(50, 1.0, c, UNIFORM)
        exact = -math.expm1(math.log(c) / 49)
        assert res.j_star == 1
        assert exact == pytest.approx(2.2657612747452172e-18, rel=1e-12)
        np.testing.assert_allclose(res.equilibrium.p, exact, rtol=1e-12)


class TestOptimalContest:
    def test_design_flip(self):
        a = optimal_contest(5, 1.0, 0.40, UNIFORM)
        b = optimal_contest(5, 1.0, 0.41, UNIFORM)
        assert a.j_star == 2 and b.j_star == 1
        assert a.contest.values == (0.5, 0.5, 0.0, 0.0, 0.0)

    def test_equilibrium_equation_holds(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            c = float(rng.uniform(0.05, 0.95))
            res = optimal_contest(n, 1.0, c, UNIFORM)
            if res.equilibrium.saturated is None:
                resid = abs(expected_prize(res.contest, res.equilibrium.p) - c)
                assert resid <= 1e-9 * max(1.0, c)
                # at the optimum the frontier is attained: by M^{j*}'s curve
                # and by the frontier search
                attained = expected_prize(res.contest, res.equilibrium.p)
                np.testing.assert_allclose(attained, c, rtol=1e-8)
                np.testing.assert_allclose(c_star(n, 1.0, res.equilibrium.p), c, rtol=1e-8)

    def test_reported_frontier_matches_the_search(self):
        # M^{j*} attains the frontier at its own rate, so its curve there
        # differs from the c_star search only by rounding
        rng = np.random.default_rng(19)
        for _ in range(300):
            n = int(rng.integers(2, 3000))
            budget = float(rng.uniform(0.5, 50.0))
            c = budget * float(np.exp(rng.uniform(np.log(1.0 / n), 0.0)))
            res = optimal_contest(n, budget, c, UNIFORM)
            if res.equilibrium.saturated is None:
                searched = c_star(n, budget, res.equilibrium.p)
                attained = expected_prize(res.contest, res.equilibrium.p)
                assert abs(attained - searched) <= 1e-13 * searched, (n, budget, c)

    def test_never_searches_the_frontier(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("optimal_contest called c_star")

        monkeypatch.setattr(homogeneous, "c_star", forbidden)
        for n, c in ((5, 0.19), (5, 0.4), (40, 0.05), (40, 1.5), (3000, 0.002)):
            optimal_contest(n, 1.0, c, UNIFORM)

    def test_prize_count_weakly_decreasing_in_cost(self):
        for n in (4, 9, 30):
            js = [
                optimal_contest(n, 1.0, float(c), UNIFORM).j_star
                for c in np.linspace(0.02, 0.98, 30)
            ]
            assert all(a >= b for a, b in zip(js, js[1:]))

    def test_cheap_cost_full_participation(self):
        res = optimal_contest(5, 1.0, 0.19, UNIFORM)
        assert res.j_star == 5
        assert res.equilibrium.p == 1.0
        assert res.equilibrium.saturated == FULL_PARTICIPATION
        assert res.contest.values == (0.2,) * 5

    def test_cost_above_budget_nobody_enters(self):
        res = optimal_contest(5, 1.0, 1.5, UNIFORM)
        assert res.j_star == 1
        assert res.equilibrium.p == 0.0
        assert res.equilibrium.saturated == ZERO_PARTICIPATION

    def test_rejects_nonpositive_cost(self):
        for c in (0.0, math.nan, math.inf):
            with pytest.raises(InvalidCost):
                optimal_contest(5, 1.0, c, UNIFORM)

    def test_rejects_bad_population_and_budget(self):
        for n, budget in ((0, 1.0), (-1, 1.0), (5, math.nan), (5, math.inf)):
            with pytest.raises(ValidationError):
                optimal_contest(n, budget, 0.4, UNIFORM)

    def test_contest_size_limit_is_checked_before_the_search(self, monkeypatch):
        """n = 10^6 + 1 fails as make_simple_contest does, with no rate read."""
        reads = []
        monkeypatch.setattr(homogeneous, "rank_cdf_inv", lambda *a: reads.append(a))
        for c in (1e-7, 1.0, 3e5):  # full participation, interior, zero participation
            with pytest.raises(
                PopulationTooLarge,
                match="^n = 1000001 exceeds the largest supported contest 1000000$",
            ):
                optimal_contest(1_000_001, 3e5, c, UNIFORM)
        assert reads == []


class TestBruteForce:
    def test_simple_contest_wins_small_grids(self):
        for n in (2, 3):
            for c in (0.3, 0.5, 0.7):
                report = brute_force_design_check(n, 1.0, c, grid_step=0.1)
                assert report.gap <= 1e-9, (n, c, report)

    def test_population_cap(self):
        with pytest.raises(PopulationTooLarge):
            brute_force_design_check(7, 1.0, 0.5, grid_step=0.25)

    def test_grid_cap(self):
        """1/50 is the finest grid; anything finer, down to a step whose
        reciprocal overflows, is refused before any schedule is built."""
        brute_force_design_check(2, 1.0, 0.5, grid_step=1.0 / 50.0)
        for step in (1.0 / 51.0, 1e-300, 5e-324):
            with pytest.raises(PopulationTooLarge):
                brute_force_design_check(6, 1.0, 0.5, grid_step=step)
        for step in (math.nan, 0.0, -0.1, 1.5, math.inf):
            with pytest.raises(OutOfRange):
                brute_force_design_check(6, 1.0, 0.5, grid_step=step)
