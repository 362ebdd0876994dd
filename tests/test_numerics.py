import ast
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

import contest_forge
from contest_forge.errors import IterationLimit, NumericalError
from contest_forge.numerics import (
    LogPmfKernel,
    RankKernel,
    binom_logpmf,
    bisect_decreasing,
    find_positive_root_sign_change,
    first_descent,
    poisson_cdf_partial,
    poisson_cdf_partial_inv,
    rank_cdf,
    rank_cdf_inv,
)


def log_factorial(n: int) -> float:
    """ln n! for an integer n >= 0; criterion 07 audits its Stirling window."""
    return math.lgamma(n + 1.0)


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


def binom_pmf(n, k, p):
    """The binomial pmf as the bound audit takes it, exp of the kernel log-pmf."""
    return np.exp(binom_logpmf(n, k, p))


def binom_tail_geq(n, j, p):
    """Pr[B(n, p) >= j] as the bound audit takes it, 1 - S_j(p) at n+1 agents."""
    return 1.0 - rank_cdf(n + 1, j, p)


class TestBinomPmf:
    def test_matches_scipy_pmf(self):
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
            total = math.fsum(binom_pmf(n, np.arange(n + 1), p))
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
            lower = math.fsum(binom_pmf(n, np.arange(j), p))
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


# the rates at which the prepared kernel is pinned: both ends, the smallest
# subnormal, an interior point and the float just below 1
EDGE_RATES = (0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0)


def unprepared_rank_cdf(n, js, p):
    """S_j(p) as one inline incomplete-beta call on integer arguments."""
    js = np.asarray(js)
    s = np.asarray(special.betainc(np.maximum(n - js, 1), js, 1.0 - np.asarray(p)))
    np.copyto(s, 1.0, where=js >= n)
    return s


class TestRankKernel:
    def test_bitwise_equal_to_unprepared_call(self):
        """The prepared float arguments and S_n slot change no bit, with and
        without ranks j >= n, at scalar and broadcast rates."""
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 400))
            js = rng.integers(1, n + 1, size=int(rng.integers(1, 30)))
            if rng.random() < 0.5:
                js[-1] = n + int(rng.integers(0, 3))
            kernel = RankKernel(n, js)
            ps = np.concatenate((EDGE_RATES, rng.uniform(0.0, 1.0, size=5)))
            for p in ps:
                want = unprepared_rank_cdf(n, js, p)
                assert kernel(float(p)).tobytes() == want.tobytes()
                assert rank_cdf(n, js, p).tobytes() == want.tobytes()
            grid = kernel(ps[:, None])
            assert grid.tobytes() == unprepared_rank_cdf(n, js, ps[:, None]).tobytes()
            assert kernel.of_complement(1.0 - ps[:, None]).tobytes() == grid.tobytes()

    def test_take_is_the_kernel_of_the_kept_ranks(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 300))
            js = rng.integers(1, n + 3, size=int(rng.integers(1, 30)))
            kernel = RankKernel(n, js)
            keep = rng.random(js.size) < 0.6
            for subset in (keep, np.flatnonzero(keep), js < n):
                narrowed = kernel.take(subset)
                fresh = RankKernel(n, js[subset])
                for p in (*EDGE_RATES, float(rng.uniform())):
                    assert narrowed(p).tobytes() == fresh(p).tobytes()
                # a narrowed kernel narrows again
                twice = narrowed.take(slice(None, None, 2))
                assert twice(0.3).tobytes() == RankKernel(n, js[subset][::2])(0.3).tobytes()


def slope_oracle(mp, n, j, p):
    """dS_j/dp = -p^(j-1) (1-p)^(n-j-1) / B(n-j, j) in mpmath at the float p."""
    p = mp.mpf(p)
    return -(p ** (j - 1)) * (1 - p) ** (n - j - 1) / mp.beta(n - j, j)


def pmf_slope(n, js, p):
    """dS_j/dp = -(n-1) Pr[B(n-2, p) = j-1], one read of the pmf kernel (n >= 2)."""
    return -(n - 1) * np.exp(binom_logpmf(n - 2, np.asarray(js) - 1, p))


class TestRankKernelSlope:
    """The slope of S_j in p, which no solver reads: participation_rate
    brackets its root on values alone. Where one is needed (a first-order
    correction in p), it is one read of the pmf kernel, and these tests pin
    that route against the value kernel and mpmath."""

    def test_central_difference_of_the_kernel(self):
        rng = np.random.default_rng(37)
        h = 1e-6
        for _ in range(100):
            n = int(rng.integers(2, 80))
            js = rng.integers(1, n + 2, size=int(rng.integers(1, 12)))
            kernel = RankKernel(n, js)
            for p in rng.uniform(0.05, 0.95, size=4):
                fd = (kernel(p + h) - kernel(p - h)) / (2 * h)
                np.testing.assert_allclose(pmf_slope(n, js, p), fd, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 10, 60, 300, 1000, 10**4, 10**5, 10**6])
    def test_matches_mpmath(self, n):
        """Within 1e-12 to n = 300; past it the error of the log-gamma sums
        in log C(n-2, j-1), about eps n ln n relative, dominates."""
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        rtol = max(1e-12, 2.0 * np.finfo(float).eps * n * math.log(n))
        rng = np.random.default_rng(n)
        js = np.unique(np.concatenate(([1, 2, n // 2, n - 1], rng.integers(1, n, size=8))))
        js = js[(js >= 1) & (js < n)]
        for p in (1e-7, 0.5, 1.0 - 1e-7, *rng.uniform(0.0, 1.0, size=3)):
            got = pmf_slope(n, js, p)
            for j, value in zip(js.tolist(), got.tolist()):
                want = slope_oracle(mp, n, j, p)
                if abs(want) < 1e-290:  # the float result underflows
                    assert abs(value) < 1e-280
                    continue
                assert float(abs((value - want) / want)) <= rtol, (n, j, p)
        # at the mode p = (j-1)/(n-2), where the log terms cancel the most
        for j in js.tolist():
            p = (j - 1) / max(n - 2, 1)
            want = slope_oracle(mp, n, j, p)
            value = float(pmf_slope(n, j, p))
            assert float(abs((value - want) / want)) <= rtol, (n, j)

    def test_zero_where_the_rank_is_certain(self):
        rng = np.random.default_rng(41)
        for n in (2, 3, 6, 300):
            js = np.array([n, n + 1, n + 7, n - 1])
            for p in (*EDGE_RATES, float(rng.uniform())):
                assert pmf_slope(n, js, p)[:3].tolist() == [0.0, 0.0, 0.0]

    def test_ends_of_the_rate_range(self):
        # at p = 0 only the winner's curve moves, at p = 1 only the
        # (n-1)-th: both at rate n - 1; n = 2, j = 1 is S_1 = 1 - p
        for n in (2, 3, 9, 500):
            js = np.arange(1, n)
            want0 = np.where(js == 1, -(n - 1.0), 0.0)
            want1 = np.where(js == n - 1, -(n - 1.0), 0.0)
            np.testing.assert_allclose(pmf_slope(n, js, 0.0), want0, rtol=1e-12)
            np.testing.assert_allclose(pmf_slope(n, js, 1.0), want1, rtol=1e-12)
        assert pmf_slope(2, [1], 0.3).tolist() == [-1.0]


def unprepared_logpmf(n, ks, p):
    """log Pr[B(n, p) = k] as one expression, log C(n, k) included."""
    ks = np.asarray(ks)
    p = np.asarray(p, dtype=float)
    inside = (ks >= 0) & (ks <= n)
    k = np.where(inside, ks, 0)
    out = (
        special.gammaln(n + 1.0)
        - special.gammaln(k + 1.0)
        - special.gammaln(n - k + 1.0)
        + special.xlogy(k, p)
        + special.xlog1py(n - k, -p)
    )
    return np.where(inside, out, -np.inf)


class TestLogPmfKernel:
    def test_bitwise_equal_to_unprepared_expression(self):
        """Preparing log C(n, k) changes no bit, in or outside 0 <= k <= n."""
        rng = np.random.default_rng(29)
        for _ in range(200):
            n = int(rng.integers(0, 400))
            ks = rng.integers(-2, n + 3, size=int(rng.integers(1, 30)))
            if rng.random() < 0.5:
                ks = np.clip(ks, 0, n)
            kernel = LogPmfKernel(n, ks)
            ps = np.concatenate((EDGE_RATES, rng.uniform(0.0, 1.0, size=5)))
            for p in ps:
                want = unprepared_logpmf(n, ks, p)
                assert np.asarray(kernel(float(p))).tobytes() == want.tobytes()
                assert np.asarray(binom_logpmf(n, ks, p)).tobytes() == want.tobytes()
            grid = np.asarray(kernel(ps[:, None]))
            assert grid.tobytes() == unprepared_logpmf(n, ks, ps[:, None]).tobytes()

    def test_take_is_the_kernel_of_the_kept_counts(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(0, 300))
            ks = rng.integers(-2, n + 3, size=int(rng.integers(1, 30)))
            kernel = LogPmfKernel(n, ks)
            keep = rng.random(ks.size) < 0.6
            for subset in (keep, np.flatnonzero(keep), (ks >= 0) & (ks <= n)):
                narrowed = kernel.take(subset)
                fresh = LogPmfKernel(n, ks[subset])
                for p in (*EDGE_RATES, float(rng.uniform())):
                    assert np.asarray(narrowed(p)).tobytes() == np.asarray(fresh(p)).tobytes()


class TestRankCdfInv:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(2, 3001))
            j = int(rng.integers(1, n))
            s = float(rng.uniform(0.0, 1.0))
            p = float(rank_cdf_inv(n, j, s))
            assert 0.0 <= p <= 1.0
            assert abs(float(rank_cdf(n, j, p)) - s) <= 1e-12

    def test_solves_the_scipy_stats_cdf(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 500))
            j = int(rng.integers(1, n))
            s = float(rng.uniform(0.0, 1.0))
            p = float(rank_cdf_inv(n, j, s))
            assert abs(stats.binom.cdf(j - 1, n - 1, p) - s) <= 1e-12

    def test_deep_tail_keeps_relative_accuracy(self):
        # S_1(p) = (1-p)^(n-1), so p = -expm1(log(s)/(n-1)) exactly
        s = np.nextafter(1.0, 0.0)
        exact = -math.expm1(math.log(s) / 49)
        np.testing.assert_allclose(rank_cdf_inv(50, 1, s), exact, rtol=1e-12)
        assert exact == pytest.approx(2.2657612747452172e-18, rel=1e-12)

    def test_edges(self):
        # no p reaches s > 1; S_j(0) = 1 and S_j(1) = 0 for j < n; S_j = 1 for j >= n
        np.testing.assert_array_equal(
            rank_cdf_inv(5, [1, 3, 5, 5, 3, 3], [1.5, 1.0, 1.0, 1.5, 0.0, -0.5]),
            [0.0, 0.0, 1.0, 0.0, 1.0, 1.0],
        )

    def test_broadcasts_over_ranks_and_targets(self):
        js = np.arange(1, 8)[:, None]
        s = np.array([0.1, 0.5, 0.9])
        out = rank_cdf_inv(8, js, s)
        assert out.shape == (7, 3)
        np.testing.assert_allclose(rank_cdf(8, js, out), np.broadcast_to(s, (7, 3)), atol=1e-13)


class TestBinomLogpmf:
    def test_closed_form_edges(self):
        # p = 0 puts all mass on k = 0 and p = 1 on k = n; k = -1 and k = n + 1
        # lie outside the support at every p
        for n in (1, 6, 45, 3000):
            ks = np.arange(-1, n + 2)
            for p, atom in ((0.0, 0), (1.0, n)):
                np.testing.assert_array_equal(
                    binom_logpmf(n, ks, p), np.where(ks == atom, 0.0, -np.inf)
                )
            np.testing.assert_array_equal(binom_logpmf(n, [-1, n + 1], 0.37), -np.inf)

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
        # the partial sum telescopes under d/dlam to -e^-lam lam^(j-1) / (j-1)!
        h = 1e-5
        for lam in (0.2, 0.7, 3.0, 10.0):
            for j in (1, 2, 6):
                numeric = (
                    poisson_cdf_partial(lam + h, j) - poisson_cdf_partial(lam - h, j)
                ) / (2 * h)
                exact = -math.exp(-lam) * lam ** (j - 1) / math.factorial(j - 1)
                np.testing.assert_allclose(numeric, exact, atol=1e-7)

    def test_zero_rate(self):
        assert poisson_cdf_partial(0.0, 3) == 1.0
        assert poisson_cdf_partial(0.0, 1) == 1.0


class TestPoissonPartialInv:
    def test_round_trip(self):
        for j in (1, 2, 7, 40, 1000):
            for s in (1e-12, 0.01, 0.5, 0.99):
                lam = float(poisson_cdf_partial_inv(j, s))
                np.testing.assert_allclose(poisson_cdf_partial(lam, j), s, rtol=1e-10)

    def test_winner_take_all_closed_form(self):
        # Pr[Poisson(lam) < 1] = e^-lam
        for s in (0.5, 1e-3, np.nextafter(1.0, 0.0)):
            np.testing.assert_allclose(poisson_cdf_partial_inv(1, s), -math.log(s), rtol=1e-12)

    def test_edges(self):
        np.testing.assert_array_equal(
            poisson_cdf_partial_inv([3, 3, 3], [1.0, 1.5, 0.0]), [0.0, 0.0, np.inf]
        )


class TestFirstDescent:
    @staticmethod
    def counted(values):
        calls = []

        def f(js):
            calls.append(js.size)
            return np.asarray(values)[js - 1]

        return f, calls

    def test_matches_argmax_on_unimodal_sequences(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            hi = int(rng.integers(1, 5000))
            peak = int(rng.integers(1, hi + 1))
            js = np.arange(1, hi + 1)
            values = np.exp(-((js - peak) / rng.uniform(0.5, 300.0)) ** 2)
            f, _ = self.counted(values)
            j, y = first_descent(f, hi)
            assert j == int(np.argmax(values)) + 1 and y == values.max()

    def test_ties_go_to_the_smallest_index(self):
        values = [1.0, 2.0, 2.0 * (1 + 5e-13), 3.0, 0.5]
        assert first_descent(self.counted(values)[0], 5) == (2, 2.0)

    def test_never_descending_returns_hi(self):
        values = np.arange(1.0, 101.0)
        assert first_descent(self.counted(values)[0], 100) == (100, 100.0)
        assert first_descent(self.counted([4.0])[0], 1) == (1, 4.0)

    def test_leading_zeros_are_not_a_peak(self):
        values = [0.0] * 80 + [1.0, 2.0, 1.0] + [0.0] * 20
        assert first_descent(self.counted(values)[0], len(values)) == (82, 2.0)

    @staticmethod
    def dense_first_descent(values):
        """The first descent by reading every index, the definition itself."""
        y = np.asarray(values)
        for j in range(1, y.size):
            if y[j - 1] > 0.0 and y[j] <= y[j - 1] * (1.0 + 1e-12):
                return j, float(y[j - 1])
        return y.size, float(y[-1])

    @staticmethod
    def tie_sequences():
        """(trial, values): leading zeros, a rise, a peak that may be a
        near-tie (within the 1e-12 tolerance) or a plateau, then a fall with
        exact ties. Each sequence descends from its first descent on, which
        is what makes the probed search exact; this is checked before it is
        handed out."""
        rng = np.random.default_rng(23)
        for trial in range(400):
            hi = int(rng.integers(1, 3000)) if trial % 2 else int(rng.integers(1, 66))
            zeros = int(rng.integers(0, hi))
            rise = int(rng.integers(0, hi - zeros + 1))
            y = [0.0] * zeros
            v = float(rng.uniform(1e-3, 1.0))
            for _ in range(rise):
                y.append(v)
                v *= 1.0 + float(rng.uniform(1e-9, 1e-2))
            while len(y) < hi:
                kind = rng.integers(0, 4)
                if kind == 0:  # near-tie: up, but within the tolerance
                    v *= 1.0 + float(rng.uniform(0.0, 0.9e-12))
                elif kind == 1:  # fall
                    v *= float(rng.uniform(0.5, 1.0))
                y.append(v)  # kinds 2 and 3 repeat v, a plateau
            values = np.array(y[:hi])
            step = (values[:-1] > 0.0) & (values[1:] <= values[:-1] * (1.0 + 1e-12))
            assert not (step[:-1] & ~step[1:]).any()
            yield trial, values

    def test_matches_dense_scan_on_ties_plateaus_and_zeros(self):
        for trial, values in self.tie_sequences():
            f, _ = self.counted(values)
            assert first_descent(f, values.size) == self.dense_first_descent(values), trial

    def test_guided_matches_dense_scan_from_any_start(self):
        """The predicted index changes the reads, never the answer: at the
        descent, beside it, 16 and 17 away, on and past the edges of the
        first window (which tests round(near) - 1 to round(near) + 3) and of
        the stepped windows after it, at the ends of [1, hi] and outside it."""
        bump = np.array([0.0] * 80 + [1.0, 2.0, 1.0] + [0.0] * 20)
        for trial, values in [*self.tie_sequences(), ("bump", bump)]:
            hi = values.size
            expected = self.dense_first_descent(values)
            d = expected[0]
            for near in (d, d - 1, d + 1, d - 16, d + 16, d - 17, d + 17,
                         1, hi, 0, -40, hi + 1, hi + 500, d + 0.5,
                         d + 2, d - 3, d - 4, d - 5, d + 6, d + 7, d - 9, d - 10,
                         d + 11, d + 12, d - 14, d - 15):
                f, _ = self.counted(values)
                assert first_descent(f, hi, near) == expected, (trial, near)

    @staticmethod
    def recorded(values):
        reads = []

        def f(js):
            reads.append(js.copy())
            return np.asarray(values)[js - 1]

        return f, reads

    # a peak at 300 of hi = 1000; a guided window reads [r - 1, r + 4],
    # r = round(near), and tests r - 1 to r + 3
    PEAKED = 1e4 - np.abs(np.arange(1, 1001) - 300.0)

    @staticmethod
    def window(first):
        return np.arange(first, first + 6)

    def test_guided_hit_is_one_read_of_6(self):
        # near rounds to 297 to 300, so the window tests 300 past its first index
        for near in (296.6, 297, 298, 299.5, 300, 300.4):
            f, reads = self.recorded(self.PEAKED)
            assert first_descent(f, 1000, near) == (300, 1e4)
            assert len(reads) == 1
            np.testing.assert_array_equal(reads[0], self.window(round(near) - 1))

    def test_guided_miss_steps_to_the_neighbouring_window(self):
        # [294, 299] does not descend, so [299, 304] is read, where 300 descends
        f, reads = self.recorded(self.PEAKED)
        assert first_descent(f, 1000, 295) == (300, 1e4)
        assert [js.tolist() for js in reads] == [list(range(294, 300)), list(range(299, 305))]
        # [304, 309] descends at 304, its first index, so [299, 304] is read next
        f, reads = self.recorded(self.PEAKED)
        assert first_descent(f, 1000, 305) == (300, 1e4)
        assert [js.tolist() for js in reads] == [list(range(304, 310)), list(range(299, 305))]

    def test_stepping_goes_on_where_the_bracket_narrows_below_65(self):
        # the first window leaves [294, 340], read whole by an unguided search;
        # the guided search keeps stepping instead
        values = self.PEAKED[:340]
        f, reads = self.recorded(values)
        assert first_descent(f, 340, 290) == (300, 1e4)
        assert [js[0] for js in reads] == [289, 294, 299]
        assert all(js.size == 6 for js in reads)

    def test_guided_descent_before_the_window_narrows_left(self):
        f, reads = self.recorded(self.PEAKED)
        assert first_descent(f, 1000, 400) == (300, 1e4)
        # each window descends at its first index and the next ends there:
        # after three, [1, 389] holds the answer and the probe rounds take over
        for js, first in zip(reads, (399, 394, 389)):
            np.testing.assert_array_equal(js, self.window(first))
        assert reads[3].size == 128
        assert len(reads) > 3 and all(js.max() <= 389 for js in reads[3:])

    def test_guided_window_before_the_descent_narrows_right(self):
        f, reads = self.recorded(self.PEAKED)
        assert first_descent(f, 1000, 100) == (300, 1e4)
        # no window descends and the next starts at its last index:
        # after three, [114, 1000] holds the answer
        for js, first in zip(reads, (99, 104, 109)):
            np.testing.assert_array_equal(js, self.window(first))
        assert reads[3].size == 128
        assert len(reads) > 3 and all(js.min() >= 114 for js in reads[3:])

    def test_guided_window_is_clipped_into_the_range(self):
        for near, first in ((-40, 1), (1, 1), (1000, 995), (5000, 995)):
            f, reads = self.recorded(self.PEAKED)
            assert first_descent(f, 1000, near) == (300, 1e4)
            np.testing.assert_array_equal(reads[0], self.window(first))

    def test_all_zero_window_narrows_nothing(self):
        # a window in the trailing zeros of a bump cannot tell them from a
        # left tail, so the probe rounds search all of [1, 103]
        bump = np.array([0.0] * 80 + [1.0, 2.0, 1.0] + [0.0] * 20)
        f, reads = self.recorded(bump)
        assert first_descent(f, bump.size, 95) == (82, 2.0)
        np.testing.assert_array_equal(reads[0], self.window(94))
        assert reads[1].size == 128 and (reads[1].min(), reads[1].max()) == (1, 103)

    @pytest.mark.parametrize("near", [None, 150, 151, 10, 290])
    def test_tie_tolerance_is_1e_12_relative(self, near):
        # a rise to index 150, one step up, then a fall: a step of 0.5e-12
        # relative is a tie, so the descent is at 150; one of 1e-10 is a rise
        rise = 1.0 + np.arange(150) / 150.0
        for step, expected in ((0.5e-12, 150), (1e-10, 151)):
            top = rise[-1] * (1.0 + step)
            values = np.concatenate([rise, [top], top * 0.5 ** np.arange(1, 150)])
            f, _ = self.counted(values)
            assert first_descent(f, values.size, near) == (expected, float(values[expected - 1]))

    def test_guess_is_ignored_where_the_range_is_read_whole(self):
        values = 100.0 - np.abs(np.arange(1, 66) - 30.0)
        f, calls = self.counted(values)
        assert first_descent(f, 65, 30) == (30, 100.0)
        assert calls == [65]

    def test_probe_budget(self):
        # one call of f on hi <= 65 indices, peaked or not; O(log hi) calls beyond
        for values in (np.arange(1.0, 66.0), 100.0 - np.abs(np.arange(1, 66) - 30.0)):
            f, calls = self.counted(values)
            first_descent(f, 65)
            assert calls == [65]
        hi = 10**6
        values = 1e7 - np.abs(np.arange(1, hi + 1) - 777_777.0)
        f, calls = self.counted(values)
        assert first_descent(f, hi)[0] == 777_777
        assert len(calls) <= 5 and max(calls) <= 128


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
        with pytest.raises(NumericalError, match="^f non-finite at bracket endpoints"):
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
        with pytest.raises(NumericalError, match=r"^expected poly\(0\) < 0, got 1.0$"):
            find_positive_root_sign_change(lambda x: x + 1.0, 1.0)


# the binomial and Poisson special functions the kernels wrap
KERNEL_FUNCTIONS = frozenset({
    "betainc", "betainccinv", "betaln", "gammainccinv", "gammaincc", "gammaln", "xlogy",
    "xlog1py",
})


def special_function_uses(source: str) -> list[tuple[int, str]]:
    """(line, name) of every attribute, name or import of a kernel function in ``source``."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in KERNEL_FUNCTIONS:
            uses.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in KERNEL_FUNCTIONS:
            uses.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            uses += [(node.lineno, a.name) for a in node.names if a.name in KERNEL_FUNCTIONS]
    return uses


def test_special_functions_have_one_caller():
    """numerics is the one module that calls the binomial and Poisson special
    functions, so every curve goes through its kernels."""
    package = Path(contest_forge.__file__).resolve().parent
    found = {
        path.name: uses
        for path in sorted(package.glob("*.py"))
        if path.name != "numerics.py"
        and (uses := special_function_uses(path.read_text(encoding="utf-8")))
    }
    assert found == {}
    # the scan sees the calls that numerics does make: all but betaln, which
    # no module calls and which stays in the set so that none starts to
    numerics_uses = {name for _, name in special_function_uses(
        (package / "numerics.py").read_text(encoding="utf-8"))}
    assert numerics_uses == KERNEL_FUNCTIONS - {"betaln"}


def test_special_function_scan_sees_every_spelling():
    source = (
        "from scipy import special\n"
        "from scipy.special import gammaln as g\n"
        "import scipy.special as sc\n"
        "x = special.betainc(1, 2, 0.5) + sc.xlog1py(1, 0.1)\n"
        "y = special.betaln(1, 2)\n"
    )
    assert sorted(name for _, name in special_function_uses(source)) == [
        "betainc", "betaln", "gammaln", "xlog1py"
    ]
