import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from scipy import special, stats

from contest_forge import compstat, homogeneous
from contest_forge.compstat import (
    MAX_BREAKPOINT_POPULATION,
    BreakpointTable,
    asymptotic_scan,
    bound_audit,
    breakpoints,
    classify_by_breakpoints,
    finite_to_limit_convergence,
    participation_floor_audit,
    poisson_limit,
    poisson_value,
    q_polynomial,
    wta_optimal,
)
from contest_forge.contest import expected_prize, make_simple_contest
from contest_forge.distributions import Uniform
from contest_forge.errors import IterationLimit, PopulationTooLarge, ValidationError
from contest_forge.homogeneous import optimal_contest
from contest_forge.numerics import (
    LogPmfKernel,
    RankKernel,
    binom_logpmf,
    bisect_decreasing,
    find_positive_root_sign_change,
    poisson_cdf_partial_inv,
    rank_cdf,
)

UNIFORM = Uniform(0.0, 1.0)


def bisected_breakpoints(n, budget, js=None):
    """(js, p_j, c_j) by 64 bisection steps on the sign of each root function,
    the route breakpoints took before the Newton solve. ``js`` picks the rows,
    2..n by default; each row is bisected independently of the others."""
    js = np.arange(2, n + 1) if js is None else np.asarray(js)
    log_rank = np.log(js - 1.0)
    lo = np.zeros(js.shape)
    hi = np.ones(js.shape)
    with np.errstate(divide="ignore"):
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            above = log_rank + binom_logpmf(n - 1, js - 1, mid) > np.log(
                rank_cdf(n, js - 1, mid)
            )
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
    p = 0.5 * (lo + hi)
    return js, p, (budget / js) * rank_cdf(n, js, p)


def looped_classification(table, c):
    """classify_by_breakpoints as the walk over the thresholds it replaced."""
    thresholds = table.thresholds()
    for j in range(1, table.n + 1):
        if c >= thresholds[j]:  # thresholds[j] is c_{j+1}
            return j
    return table.n


def bisected_poisson_limit(budget, c):
    """(lam*, j*, value) by bisecting the upper envelope of the limit curves,
    the route poisson_limit took before the closed-form inverse."""
    js = np.arange(1, max(1, int(math.floor(budget / c + 1e-12))) + 1)

    def envelope(lam):
        return float(((budget / js) * special.gammaincc(js, lam)).max())

    lam = bisect_decreasing(envelope, c, 0.0, budget / c + 1.0, 1e-12 * max(budget, c)).root
    values = (budget / js) * special.gammaincc(js, lam)
    j_star = int(js[values >= values.max() - 1e-12][0])
    return lam, j_star, float(values.max())


class TestQPolynomial:
    def test_frozen_n5(self):
        # Q_2(x) = 4x - 1 and Q_3(x) = 12x^2 - 4x - 1 for n = 5
        np.testing.assert_allclose(q_polynomial(5, 2, 0.25), 0.0, atol=1e-14)
        np.testing.assert_allclose(q_polynomial(5, 2, 0.5), 1.0, atol=1e-14)
        np.testing.assert_allclose(q_polynomial(5, 3, 0.5), 0.0, atol=1e-14)
        np.testing.assert_allclose(q_polynomial(5, 3, 1.0), 7.0, atol=1e-13)

    def test_negative_at_origin(self):
        for n in (3, 8, 20):
            for j in range(2, n + 1):
                np.testing.assert_allclose(q_polynomial(n, j, 0.0), -1.0, atol=0)


class TestBreakpoints:
    def test_matches_q_polynomial_roots(self):
        # the paper's route: the positive root r of Q_j, mapped by p = r/(1+r)
        for n in range(2, 51):
            table = breakpoints(n, 1.0)
            for j, p_j, _ in table.entries:
                root = find_positive_root_sign_change(
                    lambda x: q_polynomial(n, j, x), 1.0 / (n - 1)
                ).root
                np.testing.assert_allclose(p_j, root / (1.0 + root), rtol=0, atol=1e-12)

    def test_p2_is_one_over_n(self):
        for n in (3, 5, 10, 25, 50, 200, 1000):
            table = breakpoints(n, 1.0)
            j, p2, _ = table.entries[0]
            assert j == 2
            np.testing.assert_allclose(p2, 1.0 / n, atol=1e-12)

    def test_frozen_n5(self):
        table = breakpoints(5, 1.0)
        np.testing.assert_allclose(table.entries[0][2], 0.4096, atol=1e-10)
        np.testing.assert_allclose(table.entries[1][2], 8.0 / 27.0, atol=1e-10)
        np.testing.assert_allclose(table.entries[1][1], 1.0 / 3.0, atol=1e-10)

    def test_strictly_decreasing_chain(self):
        # n = 200 and 1000 lie beyond where the expanded Q_j overflows a float
        for n in (50, 200, 1000):
            table = breakpoints(n, 1.0)
            assert len(table.entries) == n - 1
            thresholds = table.thresholds()
            assert thresholds[0] == 1.0 and thresholds[-1] == 0.0
            assert np.all(np.diff(thresholds) < 0.0)

    def test_scales_with_budget(self):
        t1 = breakpoints(8, 1.0)
        t5 = breakpoints(8, 5.0)
        for (j1, p1, c1), (j5, p5, c5) in zip(t1.entries, t5.entries):
            assert j1 == j5
            np.testing.assert_allclose(p1, p5, atol=1e-12)
            np.testing.assert_allclose(5.0 * c1, c5, rtol=1e-12)

    def test_wta_closed_form_boundary(self):
        # c_2 = V / (1 + 1/(n-1))^(n-1)
        for n in (2, 5, 10, 100, 200, 1000):
            table = breakpoints(n, 1.0)
            c2 = table.entries[0][2]
            np.testing.assert_allclose(
                c2, 1.0 / (1.0 + 1.0 / (n - 1)) ** (n - 1), atol=1e-10
            )


class TestNewtonBreakpoints:
    """The safeguarded Newton solve against the bisection it replaced."""

    @staticmethod
    def _columns(table):
        return tuple(np.array(col) for col in zip(*table.entries))

    def test_matches_bisection_oracle(self):
        for n in [*range(2, 201), 1000, 5000]:
            js, p, c = self._columns(breakpoints(n, 1.0))
            js_ref, p_ref, c_ref = bisected_breakpoints(n, 1.0)
            np.testing.assert_array_equal(js, js_ref)
            np.testing.assert_allclose(p, p_ref, rtol=1e-12, atol=0, err_msg=f"n={n}")
            np.testing.assert_allclose(c, c_ref, rtol=1e-12, atol=0, err_msg=f"n={n}")

    def test_matches_bisection_oracle_at_population_limit(self):
        # S_{j-1} is evaluated at the rounded 1 - p, and its (n-1)-fold power
        # makes every route noisy at about (n-1) eps ~ 1e-10 relative here;
        # the rows cover the noisiest small j, a sample of the middle and the
        # smallest gaps near j = n
        n = MAX_BREAKPOINT_POPULATION
        table = breakpoints(n, 1.0)
        rows = np.unique(
            np.concatenate([np.arange(2, 1002), np.arange(1002, n - 1000, 997),
                            np.arange(n - 1000, n + 1)])
        )
        _, p_ref, c_ref = bisected_breakpoints(n, 1.0, rows)
        _, p, c = self._columns(table)
        np.testing.assert_allclose(p[rows - 2], p_ref, rtol=1e-10, atol=0)
        np.testing.assert_allclose(c[rows - 2], c_ref, rtol=1e-10, atol=0)

    def test_criterion_03_classifications(self):
        rng = np.random.default_rng(42)
        for n in range(2, 51):
            table = breakpoints(n, 1.0)
            js, p_ref, c_ref = bisected_breakpoints(n, 1.0)
            oracle = BreakpointTable(
                n=n, budget=1.0, entries=tuple(zip(js.tolist(), p_ref.tolist(), c_ref.tolist()))
            )
            for _ in range(100):
                c = float(rng.uniform(1e-3, 0.999))
                j_star = optimal_contest(n, 1.0, c, UNIFORM).j_star
                assert classify_by_breakpoints(table, c) == j_star, (n, c)
                assert classify_by_breakpoints(oracle, c) == j_star, (n, c)

    def test_round_count(self, monkeypatch):
        # each round evaluates the prepared S_{j-1} kernel once, on its open
        # lanes; c_j takes one more call, through rank_cdf, on all n - 1 rows
        calls = []
        of_complement = RankKernel.of_complement

        def counting(kernel, q):
            calls.append(np.size(q))
            return of_complement(kernel, q)

        monkeypatch.setattr(RankKernel, "of_complement", counting)
        for n in [*range(2, 201), 1000, 5000]:
            calls.clear()
            compstat._breakpoint_chain.cache_clear()
            breakpoints(n, 1.0)
            rounds = calls[:-1]
            assert 1 <= len(rounds) <= 10, (n, len(rounds))
            # the first round sees every lane, and closed lanes never come back
            assert rounds[0] == n - 1 and calls[-1] == n - 1, (n, calls)
            assert all(a >= b for a, b in zip(rounds, rounds[1:])), (n, calls)

    def test_open_root_raises_iteration_limit(self, monkeypatch):
        n = 1000
        js = np.arange(2, n + 1)
        for steps in (3, 6):
            monkeypatch.setattr(compstat, "_ROOT_STEPS", steps)
            compstat._breakpoint_chain.cache_clear()
            with pytest.raises(IterationLimit) as info:
                breakpoints(n, 1.0)
            match = re.fullmatch(
                rf"(\d+) breakpoint roots open after {steps} rounds at n = {n}, first at j = (\d+)",
                str(info.value),
            )
            assert match, str(info.value)
            # lanes are independent, so a lane solved alone takes the rounds it
            # takes among all of them: the message must name the smallest rank
            # still open, mapped back from the compacted lanes, and count them
            still_open = []
            for j in js:
                try:
                    compstat._breakpoint_roots(n, np.array([j]))
                except IterationLimit:
                    still_open.append(int(j))
            assert int(match[2]) == still_open[0] > 2, (steps, match[0])
            assert int(match[1]) == len(still_open), (steps, match[0])

    def test_entries_pinned_bit_for_bit(self):
        # sha256 of the "j p.hex() c.hex()" lines of breakpoints(n, 1.0), as
        # computed by the solver that rebuilt both kernels every round, before
        # the kernels were prepared once and the open lanes carried between
        # rounds (Python 3.11, numpy 2.4, scipy 1.17, x86-64); the CLI rounds
        # to 12 digits, so only this pins the exact bits
        digests = {
            2: "41fa427a0a59535c192ff536c1a1a0180597a8bf5e576e326c7b3ed0c3eb716c",
            3: "ac871ce3ea4ff71a2c42419bd2ab8dbf08002e877e060875e57d6446fcfcf00f",
            10: "accc531bdd2993ebb9cfc7e874be37abcbfb36482b7a7413059542614fc50055",
            35: "0574aa313a42d19be20d1e3645182fe055c06678c4ef728dcc57fd74eb9a3294",
            60: "c59595d089e2490804f0265ae27e9ec711cdeb3ccf8f7fb003e46155ab701edb",
            1000: "8bd7f5e578825925db58efacdbac8cc6e3a0c766360b1f6e1ab2c56629d3931a",
            20000: "bbdc6ea3dee42bea47643c5cbd80ebf24374e80320916261ca07a59765d8f9ad",
        }
        for n, digest in digests.items():
            text = "\n".join(
                f"{j} {p.hex()} {c.hex()}" for j, p, c in breakpoints(n, 1.0).entries
            )
            assert hashlib.sha256(text.encode()).hexdigest() == digest, n

    def test_thresholds_match_entries(self):
        for n in (2, 3, 17, 300):
            table = breakpoints(n, 2.5)
            want = np.array([2.5] + [c for (_, _, c) in table.entries] + [0.0])
            assert table.thresholds().tobytes() == want.tobytes()
            assert not table.thresholds().flags.writeable

    def test_population_limit(self):
        with pytest.raises(PopulationTooLarge):
            breakpoints(MAX_BREAKPOINT_POPULATION + 1, 1.0)


class TestBreakpointMemo:
    """The budget-free chain (j, p_j, S_j(p_j)) is solved once per n <= 1024."""

    def test_hit_makes_no_kernel_read(self, monkeypatch):
        reads = []
        for kernel, name in ((RankKernel, "of_complement"), (LogPmfKernel, "__call__")):
            def spy(self, x, _read=getattr(kernel, name)):
                reads.append(np.size(x))
                return _read(self, x)

            monkeypatch.setattr(kernel, name, spy)
        breakpoints(60, 1.0)
        assert reads
        reads.clear()
        breakpoints(60, 2.5)
        assert reads == []

    @pytest.mark.parametrize("n", [2, 5, 60, 1024])
    def test_hit_equals_a_fresh_solve_bit_for_bit(self, n):
        breakpoints(n, 1.0)
        js = np.arange(2, n + 1)
        p = compstat._breakpoint_roots(n, js)
        s = rank_cdf(n, js, p)
        for budget in (1.0, 2.5, 1e-3, 1e300):
            table = breakpoints(n, budget)
            assert compstat._breakpoint_chain.cache_info().misses == 1
            c = (budget / js) * s
            assert [(j, x.hex(), y.hex()) for j, x, y in table.entries] == [
                (j, x.hex(), y.hex()) for j, x, y in zip(js.tolist(), p.tolist(), c.tolist())
            ], budget

    def test_beyond_the_memo_solves_every_call(self, monkeypatch):
        solved = []
        roots = compstat._breakpoint_roots

        def counting(n, js):
            solved.append(n)
            return roots(n, js)

        monkeypatch.setattr(compstat, "_breakpoint_roots", counting)
        for budget in (1.0, 2.5):
            breakpoints(1025, budget)
            breakpoints(1024, budget)
        assert solved == [1025, 1024, 1025]

    def test_bounded_and_read_only(self):
        for n in range(2, 142):
            breakpoints(n, 1.0)
        info = compstat._breakpoint_chain.cache_info()
        assert (info.maxsize, info.currsize, info.misses) == (128, 128, 140)
        chain = compstat._breakpoint_chain(141)
        assert compstat._breakpoint_chain.cache_info().hits == 1
        for a in chain:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0
        # the stated bound: 128 chains of 1023 rows of 24 B at most
        rows = compstat._MEMO_POPULATION - 1
        assert sum(a.nbytes for a in compstat._breakpoint_chain(1024)) == rows * 24
        assert 128 * rows * 24 <= 3.2e6

    def test_iteration_limit_leaves_nothing(self, monkeypatch):
        monkeypatch.setattr(compstat, "_ROOT_STEPS", 3)
        with pytest.raises(IterationLimit):
            breakpoints(1000, 1.0)
        assert compstat._breakpoint_chain.cache_info().currsize == 0

    def test_numpy_integers_share_one_entry(self):
        a = breakpoints(np.int64(60), 1.0)
        b = breakpoints(60, 1.0)
        info = compstat._breakpoint_chain.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
        assert a.entries == b.entries and type(a.n) is int
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = breakpoints(np.int8(127), 1.0)
        assert c.n == 127 and c.entries == breakpoints(127, 1.0).entries

    def test_optimal_contest_reads_no_chain(self, monkeypatch):
        solved = []
        monkeypatch.setattr(compstat, "_breakpoint_roots", lambda n, js: solved.append(n))
        for n in (10, 60, 1000):
            for c in (0.05, 0.3):
                optimal_contest(n, 1.0, c, UNIFORM)
        assert solved == []
        info = compstat._breakpoint_chain.cache_info()
        assert (info.currsize, info.misses, info.hits) == (0, 0, 0)


class TestClassification:
    def test_agrees_with_direct_design(self):
        rng = np.random.default_rng(42)
        qd = Uniform(0.0, 1.0)
        for n in (3, 5, 10, 25):
            table = breakpoints(n, 1.0)
            for _ in range(40):
                c = float(rng.uniform(1e-3, 0.999))
                j_table = classify_by_breakpoints(table, c)
                j_direct = optimal_contest(n, 1.0, c, qd).j_star
                assert j_table == j_direct, (n, c)

    def test_matches_threshold_walk(self):
        rng = np.random.default_rng(8)
        for n in (2, 5, 60, 1000):
            table = breakpoints(n, 1.0)
            # every exact threshold c_2..c_n, where ties go to the smaller j
            costs = [*(c for _, _, c in table.entries), *rng.uniform(1e-6, 1.0 - 1e-6, 500)]
            for c in costs:
                assert classify_by_breakpoints(table, c) == looped_classification(table, c), (n, c)

    def test_thresholds_built_once_read_only(self):
        table = breakpoints(1000, 1.0)
        first = table.thresholds()
        assert table.thresholds() is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[1] = 0.5
        fresh = np.array([1.0] + [c for _, _, c in table.entries] + [0.0])
        np.testing.assert_array_equal(first, fresh)
        rng = np.random.default_rng(9)
        for c in rng.uniform(1e-6, 1.0 - 1e-6, 200):
            j = classify_by_breakpoints(table, c)
            assert j == int(np.argmax(c >= fresh[1:])) + 1, c

    def test_negated_view_built_once_read_only(self):
        table = breakpoints(1000, 1.0)
        classify_by_breakpoints(table, 0.5)
        view = table.__dict__["_negated_lower"]
        # every exact threshold c_2..c_n, where ties go to the smaller j
        for _, _, c in table.entries:
            assert classify_by_breakpoints(table, c) == looped_classification(table, c), c
        assert table.__dict__["_negated_lower"] is view
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = 0.0
        np.testing.assert_array_equal(view, -table.thresholds()[1:])
        assert np.all(np.diff(view) > 0.0)

    def test_range_gate(self):
        table = breakpoints(5, 1.0)
        with pytest.raises(ValidationError, match="^need 0 < c < V = 1.0, got 0.0$"):
            classify_by_breakpoints(table, 0.0)
        with pytest.raises(ValidationError, match="^need 0 < c < V = 1.0, got 1.0$"):
            classify_by_breakpoints(table, 1.0)

    def test_wta_criterion_equivalence(self):
        rng = np.random.default_rng(5)
        for n in (2, 5, 10, 100):
            table = breakpoints(n, 1.0)
            boundary = 1.0 / (1.0 + 1.0 / (n - 1)) ** (n - 1)
            for _ in range(25):
                c = float(rng.uniform(1e-3, 0.999))
                if abs(c - boundary) < 1e-8:
                    continue
                assert wta_optimal(n, 1.0, c) == (
                    classify_by_breakpoints(table, c) == 1
                )


class TestPoissonLimit:
    def test_ln2_at_scale_two(self):
        limit = poisson_limit(1.0, 0.5)
        np.testing.assert_allclose(limit.lambda_star, math.log(2.0), atol=1e-9)
        assert limit.j_star == 1

    def test_value_equation(self):
        for c in (0.05, 0.2, 0.5, 0.9):
            limit = poisson_limit(1.0, c)
            np.testing.assert_allclose(limit.value, c, atol=1e-9)
            assert limit.lambda_star * c <= 1.0 + 1e-9

    def test_poisson_value_frozen(self):
        # j = 2: (V/2)(e^-l + l e^-l) at l = ln 2 gives (1 + ln 2)/4
        np.testing.assert_allclose(
            poisson_value(1.0, 2, math.log(2.0)),
            (1.0 + math.log(2.0)) / 4.0,
            rtol=1e-12,
        )

    def test_range_gate(self):
        with pytest.raises(ValidationError, match="^need 0 < c < V = 1.0, got 1.0$"):
            poisson_limit(1.0, 1.0)
        with pytest.raises(ValidationError, match="^need 0 < c < V = 1.0, got 0.0$"):
            poisson_limit(1.0, 0.0)

    def test_matches_envelope_bisection(self):
        rng = np.random.default_rng(12)
        scales = np.concatenate(
            [np.geomspace(1.0001, 4000.0, 150), rng.uniform(1.0001, 3000.0, 150), [2.0, 5.0]]
        )
        for vc in scales:
            for budget in (1.0, float(vc)):
                c = budget / vc
                limit = poisson_limit(budget, c)
                lam, j_star, _ = bisected_poisson_limit(budget, c)
                assert limit.j_star == j_star, (budget, c)
                np.testing.assert_allclose(limit.lambda_star, lam, rtol=1e-8)
                assert abs(limit.value - c) <= 1e-12 * max(budget, c)

    def test_first_descent_is_the_argmax_of_every_rate(self):
        rng = np.random.default_rng(13)
        for vc in rng.uniform(1.0001, 20000.0, 200):
            limit = poisson_limit(float(vc), 1.0)
            js = np.arange(1, int(math.floor(vc + 1e-12)) + 1)
            lams = poisson_cdf_partial_inv(js, js / vc)
            assert limit.j_star == int(np.argmax(lams)) + 1, vc
            assert limit.lambda_star == lams.max()

    def test_scale_gate(self):
        poisson_limit(1e8, 1.0)
        for budget, c in ((1e300, 1e-300), (1e9, 1.0)):
            with pytest.raises(PopulationTooLarge):
                poisson_limit(budget, c)

    def test_matches_binomial_at_large_n(self):
        # c_{M^j}(lambda/n) -> poisson_value(V, j, lambda)
        n = 10**6
        for j in (1, 3, 10):
            for lam in (0.5, 2.0, 20.0):
                binom_route = expected_prize(make_simple_contest(j, 1.0, n), lam / n)
                limit_route = poisson_value(1.0, j, lam)
                np.testing.assert_allclose(binom_route, limit_route, atol=1e-4)


class TestGuidedSearchReads:
    """The scale searches start at the predicted j* and find it in one read
    of 34 rates; without the guess they probe 128 rates and then read the
    bracket, two calls."""

    @staticmethod
    def spy(monkeypatch, module, name):
        sizes = []
        inner = getattr(module, name)

        def counted(*args):
            sizes.append(np.size(args[-2]))  # the ranks precede the targets
            return inner(*args)

        monkeypatch.setattr(module, name, counted)
        return sizes

    @pytest.mark.parametrize("n, vc", [(6000, 2000.0), (10**6, 3e5)])
    def test_one_read_of_at_most_34_rates(self, monkeypatch, n, vc):
        design_reads = self.spy(monkeypatch, homogeneous, "rank_cdf_inv")
        limit_reads = self.spy(monkeypatch, compstat, "poisson_cdf_partial_inv")
        optimal_contest(n, vc, 1.0, Uniform(0.0, 1.0))
        poisson_limit(vc, 1.0)
        assert len(design_reads) == 1 and design_reads[0] <= 34
        assert len(limit_reads) == 1 and limit_reads[0] <= 34


class TestConvergence:
    def test_gap_shrinks_with_n(self):
        table = finite_to_limit_convergence(5.0, 1.0, [50, 100, 200, 400, 800])
        gaps = [row.gap for row in table.rows]
        assert all(a >= b - 1e-9 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.05


class TestAsymptoticScan:
    def test_residuals_in_band(self):
        rows = asymptotic_scan(1.0, [100.0, 300.0])
        for row in rows:
            assert 0.3 <= row.r_j <= 3.0
            assert 0.3 <= row.r_lambda <= 3.0

    def test_gates(self):
        with pytest.raises(ValidationError, match="^scan scales must be finite and >= 20"):
            asymptotic_scan(1.0, [10.0])
        with pytest.raises(ValidationError):
            asymptotic_scan(1.0, [100.0], n_factor=2.0)

    def test_rejects_non_finite_inputs(self):
        for vc_list, n_factor in (([100.0], math.nan), ([100.0], math.inf),
                                  ([math.inf], 3.0), ([math.nan], 3.0)):
            with pytest.raises(ValidationError):
                asymptotic_scan(1.0, vc_list, n_factor=n_factor)


class TestBoundAudit:
    def test_all_pass_on_grid(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(10, 2000))
            p = float(rng.uniform(0.02, 0.9))
            j = int(rng.integers(1, n + 1))
            report = bound_audit(n, p, j)
            for entry in report.values():
                assert entry["status"] in ("pass", "skipped"), (n, p, j, entry)

    def test_tail_band_active_point(self):
        # pn = 100 < j = 118 < 500 and pmf(1000, 118, 0.1) is of order 1/j,
        # so the two-sided band is actually evaluated here
        report = bound_audit(1000, 0.1, 118)
        assert report["tail_band"]["status"] == "pass"
        assert report["pmf_lower"]["status"] == "pass"
        assert report["pmf_upper"]["status"] == "pass"

    def test_tail_and_pmf_match_scipy_on_criterion_07_sweeps(self):
        # every point of acceptance criterion 07's five unit-stride sweeps
        # where the tail band is evaluated
        active = 0
        for n, p in ((400, 0.2), (1000, 0.1), (2000, 0.05), (4000, 0.1), (4000, 0.3)):
            for j in range(int(p * n) + 1, n // 2):
                report = bound_audit(n, p, j)
                if report["tail_band"]["status"] == "skipped":
                    continue
                active += 1
                np.testing.assert_allclose(
                    report["tail_band"]["tail"], stats.binom.sf(j - 1, n, p), rtol=1e-11
                )
                np.testing.assert_allclose(
                    report["pmf_upper"]["lhs"], stats.binom.logpmf(j, n, p), rtol=1e-11
                )
        assert active >= 10

    def test_skip_reasons(self):
        report = bound_audit(100, 0.9, 95)
        assert report["pmf_lower"]["status"] == "skipped"

    def test_participation_floor(self):
        for vc in (50.0, 100.0, 500.0):
            entry = participation_floor_audit(vc, n=int(3 * vc))
            assert entry["status"] == "pass", entry

    def test_floor_vacuous_at_small_scale(self):
        assert participation_floor_audit(5.0, 15)["status"] == "skipped"

    def test_gates(self):
        with pytest.raises(ValidationError):
            bound_audit(10, 1.5, 3)
        with pytest.raises(ValidationError):
            bound_audit(10, 0.5, 11)
