import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import contest_forge
from contest_forge.errors import BracketFailure, IterationLimit, NonFinite
from contest_forge.numerics import (
    binom_logpmf,
    binom_pmf,
    binom_tail_geq,
    bisect_decreasing,
    find_positive_root_sign_change,
    log_binom_pmf,
    log_factorial,
    poisson_cdf_partial,
    poisson_cdf_partial_deriv,
    rank_cdf,
)


class TestLogFactorial:
    def test_small_exact(self):
        for n in range(0, 21):
            np.testing.assert_allclose(
                log_factorial(n), math.log(math.factorial(n)), rtol=1e-14
            )

    def test_stirling_window(self):
        """ln n! sits between the Stirling brackets with constants 2/3 and 1.

        The window n ln n - n + (1/2) ln n + (2/3, 1] is what the asymptotic
        arguments lean on, so it is audited directly on a log grid.
        """
        for n in np.unique(np.geomspace(2, 10**6, 60).astype(int)):
            n = int(n)
            base = n * math.log(n) - n + 0.5 * math.log(n)
            value = log_factorial(n)
            assert base + 2.0 / 3.0 < value <= base + 1.0, n


class TestBinomPmf:
    def test_matches_scipy_across_route_switch(self):
        # the implementation changes route near n = 30
        rng = np.random.default_rng(42)
        for n in (5, 28, 29, 30, 31, 32, 200, 5000):
            p = float(rng.uniform(0.05, 0.95))
            for k in (0, 1, n // 2, n - 1, n):
                np.testing.assert_allclose(
                    binom_pmf(n, k, p),
                    stats.binom.pmf(k, n, p),
                    rtol=1e-12,
                    atol=1e-300,
                )

    def test_sums_to_one(self):
        for n, p in ((7, 0.3), (40, 0.77), (123, 0.01)):
            total = math.fsum(binom_pmf(n, k, p) for k in range(n + 1))
            np.testing.assert_allclose(total, 1.0, rtol=1e-12)

    def test_degenerate_p(self):
        assert binom_pmf(6, 0, 0.0) == 1.0
        assert binom_pmf(6, 3, 0.0) == 0.0
        assert binom_pmf(6, 6, 1.0) == 1.0
        assert binom_pmf(6, 2, 1.0) == 0.0


class TestBinomTail:
    def test_complement(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 300))
            j = int(rng.integers(1, n + 1))
            p = float(rng.uniform(0.01, 0.99))
            upper = binom_tail_geq(n, j, p)
            lower = math.fsum(binom_pmf(n, k, p) for k in range(j))
            np.testing.assert_allclose(upper + lower, 1.0, rtol=0, atol=1e-12)

    def test_matches_scipy_sf(self):
        for n, j, p in ((50, 10, 0.1), (400, 380, 0.93), (12, 1, 0.5)):
            np.testing.assert_allclose(
                binom_tail_geq(n, j, p), stats.binom.sf(j - 1, n, p), rtol=1e-10
            )

    def test_whole_line(self):
        assert binom_tail_geq(9, 0, 0.4) == 1.0
        assert binom_tail_geq(9, 10, 0.4) == 0.0


class TestRankCdf:
    def test_matches_scipy_cdf(self):
        rng = np.random.default_rng(42)
        for n in (2, 7, 30, 31, 200, 5000):
            js = np.arange(1, n + 1)
            for p in (0.0, float(rng.uniform(0.01, 0.99)), 1.0 - 1e-9, 1.0):
                np.testing.assert_allclose(
                    rank_cdf(n, js, p),
                    stats.binom.cdf(js - 1, n - 1, p),
                    rtol=1e-12,
                    atol=1e-300,
                )

    def test_top_n_is_certain(self):
        # S_j = 1 exactly for j >= n, also at p = 1, where betainc(0, j, 0) is 0
        for p in (0.0, 0.3, 1.0):
            np.testing.assert_array_equal(rank_cdf(6, [6, 7, 40], p), 1.0)

    def test_broadcasts_over_ranks_and_rates(self):
        js = np.arange(1, 9)[:, None]
        ps = np.linspace(0.0, 1.0, 5)
        grid = rank_cdf(8, js, ps)
        assert grid.shape == (8, 5)
        for i, j in enumerate(js[:, 0]):
            np.testing.assert_array_equal(grid[i], rank_cdf(8, j, ps))
        assert rank_cdf(8, 3, 0.25).shape == ()


class TestBinomLogpmf:
    def test_matches_scalar_route(self):
        rng = np.random.default_rng(3)
        for n in (1, 6, 45, 3000):
            ks = np.arange(-1, n + 2)
            for p in (0.0, float(rng.uniform(0.01, 0.99)), 1.0):
                scalar = [log_binom_pmf(n, int(k), p) for k in ks]
                np.testing.assert_allclose(binom_logpmf(n, ks, p), scalar, rtol=1e-12)

    def test_matches_scipy_logpmf(self):
        ks = np.arange(0, 301)
        for p in (1e-3, 0.4, 0.999):
            np.testing.assert_allclose(
                binom_logpmf(300, ks, p), stats.binom.logpmf(ks, 300, p), rtol=1e-11
            )


def test_import_leaves_scipy_stats_unloaded():
    src = str(Path(contest_forge.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import contest_forge; "
        "print('scipy.stats' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    ).stdout
    assert out.strip() == "False"


class TestPoissonPartial:
    def test_against_direct_sum(self):
        for lam in (0.3, 1.0, 4.5):
            for j in (1, 2, 5, 12):
                direct = math.fsum(
                    math.exp(-lam) * lam**k / math.factorial(k) for k in range(j)
                )
                np.testing.assert_allclose(
                    poisson_cdf_partial(lam, j), direct, rtol=1e-12
                )

    def test_derivative_central_difference(self):
        h = 1e-5
        for lam in (0.2, 0.7, 3.0, 10.0):
            for j in (1, 2, 6):
                numeric = (
                    poisson_cdf_partial(lam + h, j) - poisson_cdf_partial(lam - h, j)
                ) / (2 * h)
                np.testing.assert_allclose(
                    poisson_cdf_partial_deriv(lam, j), numeric, atol=1e-7
                )

    def test_zero_rate(self):
        assert poisson_cdf_partial(0.0, 3) == 1.0
        assert poisson_cdf_partial_deriv(0.0, 1) == -1.0
        assert poisson_cdf_partial_deriv(0.0, 2) == 0.0


class TestBisectDecreasing:
    def test_linear(self):
        res = bisect_decreasing(lambda x: 1.0 - x, 0.3, 0.0, 1.0, 1e-12)
        np.testing.assert_allclose(res.root, 0.7, atol=1e-11)
        assert not res.saturated_low and not res.saturated_high

    def test_saturation_flags(self):
        # target above the whole range: clamps to the low endpoint
        res = bisect_decreasing(lambda x: 1.0 - x, 2.0, 0.0, 1.0, 1e-12)
        assert res.root == 0.0 and res.saturated_low
        res = bisect_decreasing(lambda x: 1.0 - x, -1.0, 0.0, 1.0, 1e-12)
        assert res.root == 1.0 and res.saturated_high

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFinite):
            bisect_decreasing(lambda x: math.inf if x == 0.0 else 1 - x, 0.5, 0.0, 1.0, 1e-9)

    def test_iteration_limit_on_jump(self):
        f = lambda x: 1.0 if x < 0.5 else 0.0
        with pytest.raises(IterationLimit):
            bisect_decreasing(f, 0.25, 0.0, 1.0, 1e-30)


class TestPositiveRootFinder:
    def test_linear_root(self):
        res = find_positive_root_sign_change(lambda x: x - 5.0, 1.0)
        np.testing.assert_allclose(res.root, 5.0, rtol=1e-10)
        assert abs(res.residual) < 1e-9

    def test_quadratic(self):
        res = find_positive_root_sign_change(lambda x: x * x - 2.0, 0.5)
        np.testing.assert_allclose(res.root, math.sqrt(2.0), rtol=1e-10)

    def test_requires_negative_origin(self):
        with pytest.raises(BracketFailure):
            find_positive_root_sign_change(lambda x: x + 1.0, 1.0)
