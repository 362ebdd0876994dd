import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy import special, stats

from contest_forge import contest as contest_module
from contest_forge.contest import (
    PrizeVector,
    contest_from_dict,
    contest_to_dict,
    expected_prize,
    expected_prize_curve,
    lottery_decomposition,
    make_simple_contest,
    validate_contest,
    w_inverse,
    w_transform,
)
from contest_forge.distributions import EmpiricalTypes, Uniform
from contest_forge.errors import (
    BudgetExceeded,
    BudgetNotExhausted,
    IndexOutOfRange,
    NegativePrize,
    NegativeWeight,
    NotMonotone,
    PopulationTooLarge,
    ValidationError,
)
from contest_forge.heterogeneous import equilibrium
from contest_forge.homogeneous import c_star, optimal_contest, participation_rate
from contest_forge.numerics import rank_cdf


def random_contest(rng, n, budget=1.0, exhaust=False):
    """Random monotone nonnegative prize schedule within the budget."""
    raw = np.sort(rng.uniform(0.0, 1.0, size=n))[::-1]
    total = raw.sum()
    if exhaust:
        scale = budget / total
    else:
        scale = budget * rng.uniform(0.2, 1.0) / total
    return validate_contest(tuple(float(v * scale) for v in raw), budget)


class TestPrizeVector:
    def test_accepts_valid(self):
        v = validate_contest((0.5, 0.3, 0.2), 1.0)
        assert v.n == 3
        np.testing.assert_allclose(v.total, 1.0)

    def test_rejects_increase(self):
        with pytest.raises(NotMonotone) as err:
            validate_contest((0.2, 0.5, 0.1), 1.0)
        assert err.value.index == 2

    def test_rejects_negative(self):
        with pytest.raises(NegativePrize):
            validate_contest((0.5, -0.2), 1.0)

    def test_tolerates_tiny_negative(self):
        validate_contest((0.5, -1e-13), 1.0)

    def test_rejects_budget_overrun(self):
        with pytest.raises(BudgetExceeded):
            validate_contest((0.8, 0.4), 1.0)

    def test_simple_contest(self):
        m2 = make_simple_contest(2, 1.0, 5)
        assert m2.values == (0.5, 0.5, 0.0, 0.0, 0.0)
        with pytest.raises(IndexOutOfRange):
            make_simple_contest(6, 1.0, 5)
        with pytest.raises(IndexOutOfRange):
            make_simple_contest(0, 1.0, 5)

    def test_simple_contest_population_limit(self):
        assert make_simple_contest(3, 1.0, 10**6).n == 10**6
        for n in (10**6 + 1, 10**8):
            with pytest.raises(PopulationTooLarge, match=f"n = {n} exceeds"):
                make_simple_contest(1, 1.0, n)


def parent_w_inverse_values(weights):
    """The prize loop w_inverse ran over all n ranks before contests stored weights."""
    values = [0.0] * len(weights)
    acc = 0.0
    for j in range(len(weights), 0, -1):
        acc += max(weights[j - 1], 0.0) / j
        values[j - 1] = acc
    return tuple(values)


def parent_first_violation(values):
    """(error class, rank) of the per-prize loop PrizeVector ran before it stored weights."""
    for j, v in enumerate(values, start=1):
        if not math.isfinite(v) or v < -1e-12:
            return NegativePrize, j
        if j > 1 and v > values[j - 2] + 1e-12:
            return NotMonotone, j
    return None, None


class TestMixtureStorage:
    def test_simple_contest_is_built_in_constant_time(self):
        t0 = time.perf_counter()
        for _ in range(1000):
            make_simple_contest(17, 1.0, 10**6)
        assert time.perf_counter() - t0 < 0.5

    @pytest.mark.parametrize("budget", [1.0, 1.0 / 3.0, 0.7, 250.0, 1e-6])
    def test_simple_contest_values_exact(self, budget):
        for n in (1, 2, 7, 49, 50, 1000):
            for j in sorted({1, min(2, n), max(n // 3, 1), max(n - 1, 1), n}):
                m = make_simple_contest(j, budget, n)
                assert (m.ranks, m.weights) == ((j,), (budget,))
                assert m.values == (budget / j,) * j + (0.0,) * (n - j)

    def test_w_inverse_bitwise_equal_to_reverse_loop(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            w = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.6)
            w[rng.uniform(size=n) < 0.2] = -rng.uniform(0.0, 1e-12)
            weights = tuple(float(x) for x in w)
            got = w_inverse(weights, budget=2.0 * n).values
            want = parent_w_inverse_values(weights)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_validate_contest_reports_first_violation_like_prize_loop(self):
        rng = np.random.default_rng(9)
        seen = set()
        for _ in range(500):
            n = int(rng.integers(1, 12))
            values = np.sort(rng.uniform(0.0, 1.0, n))[::-1] / n
            for k in rng.integers(0, n, size=int(rng.integers(0, 3))):
                values[k] = rng.choice([-0.1, -2e-12, -5e-13, 2.0, math.nan, math.inf, -math.inf,
                                        values[k] + 5e-13, values[k] + 2e-12])
            values = tuple(float(v) for v in values)
            want_class, want_rank = parent_first_violation(values)
            if want_class is None:
                assert validate_contest(values, 100.0).values == values
                continue
            with pytest.raises(want_class) as err:
                validate_contest(values, 100.0)
            if want_class is NotMonotone:
                assert err.value.index == want_rank
            else:
                assert f"rank {want_rank} " in str(err.value)
            seen.add(want_class)
        assert seen == {NegativePrize, NotMonotone}

    def test_serialized_simple_contest_round_trips(self):
        m = make_simple_contest(49, 1.0, 50)
        back = contest_from_dict(contest_to_dict(m))
        assert back == m and hash(back) == hash(m)
        assert back != make_simple_contest(48, 1.0, 50)
        assert back != validate_contest(m.values, 2.0)

    def test_solvers_leave_simple_prizes_unbuilt(self):
        contest = make_simple_contest(3, 1.0, 200)
        types = EmpiricalTypes(q=[1.0, 2.0, 3.0], c=[0.1, 0.2, 0.9], w=[0.3, 0.3, 0.4], n=200)
        expected_prize(contest, 0.01)
        expected_prize_curve(contest, np.linspace(0.0, 1.0, 5))
        equilibrium(contest, types)
        c_star(200, 1.0, 0.01)
        for cost in (0.5, 0.3, 0.001):  # saturated at p = 0, interior, saturated at p = 1
            participation_rate(contest, cost)
        result = optimal_contest(200, 1.0, 0.05, Uniform(0.0, 1.0))
        assert "values" not in vars(contest) and "values" not in vars(result.contest)

    @pytest.mark.parametrize(
        "n, ranks, weights, budget, error",
        [
            (3, (2, 1), (0.5, 0.5), 1.0, IndexOutOfRange),
            (3, (1, 1), (0.5, 0.5), 1.0, IndexOutOfRange),
            (3, (0,), (0.5,), 1.0, IndexOutOfRange),
            (3, (4,), (0.5,), 1.0, IndexOutOfRange),
            (3, (1.5,), (0.5,), 1.0, IndexOutOfRange),
            (3, (math.nan,), (0.5,), 1.0, IndexOutOfRange),
            (3, (1, 2), (0.5,), 1.0, IndexOutOfRange),
            (0, (), (), 1.0, IndexOutOfRange),
            (3.0, (1,), (0.5,), 1.0, IndexOutOfRange),
            (3, (1,), (0.0,), 1.0, NegativeWeight),
            (3, (1, 2), (0.5, math.nan), 1.0, NegativeWeight),
            (3, (1, 2), (math.inf, 0.5), 1.0, NegativeWeight),
            (3, (1, 2), (0.6, 0.5), 1.0, BudgetExceeded),
            (3, (1,), (0.5,), math.nan, BudgetExceeded),
        ],
    )
    def test_constructor_checks_the_terms(self, n, ranks, weights, budget, error):
        with pytest.raises(error):
            PrizeVector(n, budget, ranks, weights)


class TestExpectedPrize:
    def test_frozen_value(self):
        # n=3, split top two: c(p) = 0.5 [(1-p)^2 + 2p(1-p)] + 0.5 * 2 ... at
        # p = 1/2 the three placement probabilities are (1/4, 1/2, 1/4)
        v = validate_contest((0.5, 0.5, 0.0), 1.0)
        np.testing.assert_allclose(expected_prize(v, 0.5), 0.375, rtol=1e-14)

    def test_endpoints(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            v = random_contest(rng, int(rng.integers(2, 9)))
            np.testing.assert_allclose(expected_prize(v, 0.0), v.values[0], rtol=1e-12)
            np.testing.assert_allclose(expected_prize(v, 1.0), v.values[-1], atol=1e-15)

    def test_decreasing_in_p(self):
        rng = np.random.default_rng(3)
        ps = np.linspace(0.0, 1.0, 41)
        for _ in range(25):
            v = random_contest(rng, int(rng.integers(2, 12)))
            curve = expected_prize_curve(v, ps)
            assert np.all(np.diff(curve) <= 1e-12)
            if v.values[0] > v.values[-1] + 1e-9:
                assert np.all(np.diff(curve) < 0.0)

    def test_flat_for_equal_split(self):
        v = make_simple_contest(4, 1.0, 4)
        curve = expected_prize_curve(v, np.linspace(0, 1, 11))
        np.testing.assert_allclose(curve, 0.25, rtol=1e-12)

    def test_two_routes_agree(self):
        """Both routes evaluate the rank-gap mixture through one kernel, so each
        is pinned to an independent sum_j v_j Pr[rank j] computed here."""
        rng = np.random.default_rng(11)
        ps = np.linspace(0.0, 1.0, 21)
        for _ in range(100):
            n = int(rng.integers(2, 15))
            v = random_contest(rng, n)
            direct = np.array(
                [np.dot(np.asarray(v.values), stats.binom.pmf(np.arange(n), n - 1, p)) for p in ps]
            )
            np.testing.assert_allclose(expected_prize_curve(v, ps), direct, rtol=0, atol=1e-12)
            scalar = np.array([expected_prize(v, p) for p in ps])
            np.testing.assert_allclose(scalar, direct, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(), (7,), (400,), (3, 5)])
    @pytest.mark.parametrize("general", [False, True])
    def test_bitwise_equal_to_scalar(self, shape, general):
        """c(p) depends on p alone: an array of any shape holds the scalar's bits."""
        rng = np.random.default_rng(21)
        n = 50
        v = random_contest(rng, n, exhaust=True) if general else make_simple_contest(7, 1.0, n)
        ps = rng.uniform(0.0, 1.0, size=shape)
        got = expected_prize_curve(v, ps)
        want = np.array([expected_prize(v, p) for p in np.ravel(ps)]).reshape(np.shape(ps))
        assert got.shape == np.shape(ps)
        assert got.tobytes() == want.tobytes()

    def test_bitwise_pointwise_for_every_term_count(self):
        """Subsets, permutations and reshapes of the points keep each value's
        bits, for mixtures of 1 to 60 terms."""
        rng = np.random.default_rng(8)
        n = 80
        for terms in range(1, 61):
            ranks = np.sort(rng.choice(np.arange(1, n + 1), size=terms, replace=False))
            if terms % 3 == 0:
                ranks[-1] = n  # S_n = 1 exactly
            weights = rng.uniform(0.1, 1.0, size=ranks.size)
            v = PrizeVector(n, float(weights.sum()), ranks.tolist(), weights.tolist())
            ps = np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, size=598)))
            full = expected_prize_curve(v, ps)
            pick = rng.choice(ps.size, size=400, replace=False)
            assert expected_prize_curve(v, ps[pick]).tobytes() == full[pick].tobytes()
            perm = rng.permutation(ps.size)
            assert expected_prize_curve(v, ps[perm]).tobytes() == full[perm].tobytes()
            grid = expected_prize_curve(v, ps[:15].reshape(3, 5))
            assert grid.tobytes() == full[:15].tobytes()
            for k in rng.choice(ps.size, size=10, replace=False):
                assert expected_prize(v, ps[k]) == full[k], (terms, ps[k])

    @pytest.mark.parametrize("last_rank", [False, True])
    def test_prepared_scalar_path_bitwise_equal_to_kernel(self, last_rank):
        """The scalar path through the contest's prepared kernel, ``rank_cdf``
        on the same terms, the curve and an inline incomplete-beta sum all
        give one value's bits, with and without a j = n term."""
        rng = np.random.default_rng(41 + last_rank)
        edge_rates = (0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0)
        for _ in range(150):
            n = int(rng.integers(2, 120))
            terms = int(rng.integers(1, n + 1))
            ranks = np.sort(rng.choice(np.arange(1, n + 1), size=terms, replace=False))
            if last_rank:
                ranks[-1] = n
            elif ranks[-1] == n:
                ranks = ranks[:-1] if ranks.size > 1 else ranks - 1
            weights = rng.uniform(0.1, 1.0, size=ranks.size)
            v = PrizeVector(n, float(weights.sum()), ranks.tolist(), weights.tolist())
            coef = weights / ranks
            curve = expected_prize_curve(v, np.array(edge_rates))
            for k, p in enumerate(edge_rates):
                s = np.asarray(special.betainc(np.maximum(n - ranks, 1), ranks, 1.0 - p))
                np.copyto(s, 1.0, where=ranks >= n)
                inline = float(np.add.reduce(s * coef))
                kernel = float(np.add.reduce(rank_cdf(n, ranks, p) * coef))
                bits = {expected_prize(v, p).hex(), kernel.hex(), inline.hex(),
                        float(curve[k]).hex()}
                assert len(bits) == 1, (n, p, bits)

    @pytest.mark.parametrize("terms", [1000, 70_000])
    def test_chunked_rows_bitwise_equal_to_scalar(self, terms):
        """Past the chunk size the curve goes a chunk of rows at a time (one
        row when a row alone is larger); every value keeps the scalar's bits."""
        rng = np.random.default_rng(14)
        n = 2 * terms
        ranks = np.sort(rng.choice(np.arange(1, n + 1), size=terms, replace=False))
        weights = rng.uniform(0.1, 1.0, size=terms)
        v = PrizeVector(n, float(weights.sum()), ranks.tolist(), weights.tolist())
        rows = max(1, contest_module._CHUNK_ELEMENTS // terms)
        count = 3 * rows + 2 if terms < contest_module._CHUNK_ELEMENTS else 3
        ps = np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, size=count - 2)))
        assert ps.size * terms > contest_module._CHUNK_ELEMENTS
        got = expected_prize_curve(v, ps)
        want = np.array([expected_prize(v, p) for p in ps])
        assert got.tobytes() == want.tobytes()
        grid = expected_prize_curve(v, ps[: 2 * (count // 2)].reshape(2, -1))
        assert grid.tobytes() == want[: 2 * (count // 2)].tobytes()

    def test_curve_temporary_is_bounded(self):
        """400 points against a 5000-term contest peaked at 30 MiB when the
        points x terms array was built whole."""
        values = np.linspace(2.0, 1.0, 5000)
        v = validate_contest(values / values.sum(), 1.0)
        ps = np.linspace(0.0, 1.0, 400)
        tracemalloc.start()
        try:
            expected_prize_curve(v, ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestWTransform:
    def test_frozen_pair(self):
        w = w_transform(validate_contest((0.6, 0.3, 0.1), 1.0))
        np.testing.assert_allclose(w.weights, (0.3, 0.4, 0.3), atol=1e-15)
        back = w_inverse(w.weights, budget=1.0)
        np.testing.assert_allclose(back.values, (0.6, 0.3, 0.1), atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            v = random_contest(rng, int(rng.integers(2, 20)), exhaust=True)
            w = w_transform(v)
            back = w_inverse(w.weights, budget=v.budget)
            np.testing.assert_allclose(back.values, v.values, rtol=0, atol=1e-12)

    def test_weight_total_is_prize_total(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            v = random_contest(rng, 8)
            w = w_transform(v)
            np.testing.assert_allclose(math.fsum(w.weights), v.total, rtol=1e-12)


class TestLotteryDecomposition:
    def test_frozen_example(self):
        lot = lottery_decomposition(validate_contest((0.6, 0.3, 0.1), 1.0))
        np.testing.assert_allclose(lot.probabilities, (0.3, 0.4, 0.3), atol=1e-15)

    def test_per_rank_payoff_identity(self):
        # rank r earns sum_{j >= r} Pr(j) V/j, which must telescope back to v_r
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 16))
            v = random_contest(rng, n, exhaust=True)
            lot = lottery_decomposition(v)
            probs = np.asarray(lot.probabilities)
            per_prize = v.budget / np.arange(1, n + 1)
            for r in range(n):
                payoff = float(np.sum(probs[r:] * per_prize[r:]))
                np.testing.assert_allclose(payoff, v.values[r], rtol=0, atol=1e-12)

    def test_requires_exhausted_budget(self):
        with pytest.raises(BudgetNotExhausted):
            lottery_decomposition(validate_contest((0.4, 0.1), 1.0))


class TestSerialization:
    def test_round_trip(self):
        v = validate_contest([0.5, 0.25, 0.25], 1.0)
        doc = contest_to_dict(v)
        assert doc == {"budget": 1.0, "values": [0.5, 0.25, 0.25]}
        assert contest_from_dict(doc) == v

    def test_missing_field(self):
        with pytest.raises(ValidationError):
            contest_from_dict({"values": [1.0]})

    def test_bad_values(self):
        with pytest.raises(ValidationError):
            contest_from_dict({"budget": 1.0, "values": ["x"]})
