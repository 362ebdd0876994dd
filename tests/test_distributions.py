import math

import numpy as np
import pytest

from contest_forge.distributions import (
    EmpiricalTypes,
    PiecewiseLinearCDF,
    RectComponent,
    RectMixture,
    Uniform,
    cdf,
    discretize,
    distribution_from_dict,
    distribution_to_dict,
    low_cost_max_cdf,
    median_max_quality,
    quantile,
    sample_joint,
)
from contest_forge.errors import NoLowCostMass, ValidationError


def two_cluster(V=400.0, eps=0.01):
    return RectMixture(
        (
            RectComponent(1.0, 1.0 + eps, 1.0 - eps, 1.0, 0.5),
            RectComponent(20.0, 21.0, 0.9 * V - 1.0, 0.9 * V, 0.5),
        )
    )


class TestUniform:
    def test_cdf_quantile_inverse(self):
        u = Uniform(2.0, 5.0)
        xs = np.linspace(2.0, 5.0, 13)
        np.testing.assert_allclose(quantile(u, cdf(u, xs)), xs, atol=1e-12)

    def test_clipping(self):
        u = Uniform(0.0, 1.0)
        assert cdf(u, -3.0) == 0.0
        assert cdf(u, 7.0) == 1.0

    def test_rejects_empty_interval(self):
        with pytest.raises(ValidationError):
            Uniform(1.0, 1.0)


QUANTILE_LAWS = [Uniform(2.0, 5.0), PiecewiseLinearCDF(((0.0, 0.0), (0.3, 0.6), (1.0, 1.0)))]


class TestQuantileArgument:
    @pytest.mark.parametrize("qd", QUANTILE_LAWS, ids=["uniform", "piecewise"])
    def test_scalar_path_matches_array_path_bitwise(self, qd):
        us = np.concatenate((np.linspace(0.0, 1.0, 1001), [1e-300, 0.5 - 2**-53, 1.0 - 2**-53]))
        scalars = np.array([quantile(qd, float(u)) for u in us])
        assert scalars.tobytes() == quantile(qd, us).tobytes()
        assert all(type(quantile(qd, u)) is float for u in (0.3, np.float64(0.3), np.array(0.3), 1))

    @pytest.mark.parametrize("qd", QUANTILE_LAWS, ids=["uniform", "piecewise"])
    @pytest.mark.parametrize("u", [math.nan, -1e-300, 1.0 + 2**-52, -math.inf, math.inf])
    def test_rejects_outside_unit_interval(self, qd, u):
        with pytest.raises(ValidationError):
            quantile(qd, u)
        with pytest.raises(ValidationError):
            quantile(qd, np.array([0.5, u]))


class TestPiecewiseLinearCDF:
    def test_frozen_values(self):
        pw = PiecewiseLinearCDF(((0.0, 0.0), (1.0, 0.25), (2.0, 1.0)))
        np.testing.assert_allclose(cdf(pw, 1.5), 0.625, rtol=1e-14)
        np.testing.assert_allclose(quantile(pw, 0.625), 1.5, rtol=1e-14)

    def test_inverse_on_grid(self):
        pw = PiecewiseLinearCDF(((0.0, 0.0), (0.3, 0.6), (1.0, 1.0)))
        us = np.linspace(0.0, 1.0, 21)
        np.testing.assert_allclose(cdf(pw, quantile(pw, us)), us, atol=1e-10)

    def test_knot_arrays_built_once_read_only(self):
        knots = ((0.0, 0.0), (0.3, 0.6), (1.0, 1.0))
        pw = PiecewiseLinearCDF(knots)
        qs, us = pw._arrays
        cdf(pw, 0.5), quantile(pw, 0.5)
        assert pw._arrays[0] is qs and pw._arrays[1] is us
        assert not qs.flags.writeable and not us.flags.writeable
        with pytest.raises(ValueError):
            qs[0] = 1.0
        np.testing.assert_array_equal(np.column_stack((qs, us)), np.asarray(knots))
        assert pw == PiecewiseLinearCDF(knots) and hash(pw) == hash(PiecewiseLinearCDF(knots))
        xs = np.linspace(-0.5, 1.5, 41)
        np.testing.assert_array_equal(cdf(pw, xs), np.interp(xs, qs, us, left=0.0, right=1.0))

    def test_rejects_non_monotone(self):
        with pytest.raises(ValidationError):
            PiecewiseLinearCDF(((0.0, 0.0), (1.0, 0.8), (2.0, 0.5)))
        with pytest.raises(ValidationError):
            PiecewiseLinearCDF(((0.0, 0.1), (1.0, 1.0)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_knots(self, bad):
        for k in range(3):
            for coord in (0, 1):
                knots = [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]]
                knots[k][coord] = bad
                with pytest.raises(ValidationError, match="finite"):
                    PiecewiseLinearCDF(tuple(map(tuple, knots)))


class TestRectMixture:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            RectMixture((RectComponent(0, 1, 0, 1, 0.7),))

    def test_rejects_negative_endpoints(self):
        with pytest.raises(ValidationError):
            RectComponent(-0.1, 1.0, 0.0, 1.0, 1.0)

    def test_rejects_non_finite_edges_and_weight(self):
        good = (0.0, 1.0, 0.0, 1.0, 1.0)
        for k in range(5):
            for bad in (math.inf, math.nan):
                args = list(good)
                args[k] = bad
                with pytest.raises(ValidationError):
                    RectComponent(*args)


class TestEmpiricalTypes:
    def test_validation(self):
        EmpiricalTypes(q=[1.0, 2.0], c=[0.1, 0.2], w=[0.5, 0.5])
        with pytest.raises(ValidationError):
            EmpiricalTypes(q=[1.0, 1.0], c=[0.1, 0.2], w=[0.5, 0.5])
        with pytest.raises(ValidationError):
            EmpiricalTypes(q=[1.0, 2.0], c=[0.1, 0.2], w=[0.5, 0.4])
        with pytest.raises(ValidationError):
            EmpiricalTypes(q=[1.0, 2.0], c=[0.1, 0.2], w=[1.0, 0.0])
        with pytest.raises(ValidationError, match="distinct"):
            EmpiricalTypes(q=[0.0, -0.0], c=[0.1, 0.2], w=[0.5, 0.5])

    def test_arrays_are_read_only_copies(self):
        q, c, w = np.array([1.0, 3.0, 2.0]), np.array([0.1, 0.2, 0.3]), np.full(3, 1 / 3)
        t = EmpiricalTypes(q=q, c=c, w=w)
        for given, held in ((q, t.q), (c, t.c), (w, t.w)):
            assert not held.flags.writeable
            assert not np.shares_memory(given, held)
            with pytest.raises(ValueError):
                held[0] = 0.5
        q[0] = 2.0  # the caller's array stays the caller's
        assert t.q.tolist() == [1.0, 3.0, 2.0]

    def test_stores_decreasing_quality_order(self):
        q = np.random.default_rng(0).permutation(np.linspace(-1.0, 2.0, 25))
        t = EmpiricalTypes(q=q, c=np.full(25, 0.1), w=np.full(25, 1 / 25))
        np.testing.assert_array_equal(t._order, np.argsort(-q))
        assert not t._order.flags.writeable

    def test_keeps_costs_and_weights_in_quality_order_once(self):
        rng = np.random.default_rng(1)
        q, c = rng.permutation(np.linspace(0.0, 1.0, 30)), rng.uniform(0.1, 0.9, 30)
        t = EmpiricalTypes(q=q, c=c, w=np.full(30, 1 / 30))
        c_desc, w_desc, c_list, w_list = t._by_quality
        assert t._by_quality is t._by_quality  # built on first use, then kept
        np.testing.assert_array_equal(c_desc, c[np.argsort(-q)])
        assert c_list == tuple(c_desc.tolist()) and w_list == tuple(w_desc.tolist())
        assert not c_desc.flags.writeable and not w_desc.flags.writeable

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        for field in ("q", "c", "w"):
            arrays = {"q": [0.5, 2.0], "c": [0.1, 0.2], "w": [0.5, 0.5]}
            arrays[field][0] = bad
            with pytest.raises(ValidationError, match="finite"):
                EmpiricalTypes(**arrays)

    def test_accepts_negative_quality(self):
        EmpiricalTypes(q=[-1.0, 2.0], c=[0.1, 0.2], w=[0.5, 0.5])

    def test_with_n(self):
        t = EmpiricalTypes(q=[1.0, 2.0], c=[0.1, 0.2], w=[0.5, 0.5])
        assert t.n is None
        assert t.with_n(7).n == 7


class TestSampleJoint:
    def test_deterministic(self):
        jd = two_cluster()
        q1, c1 = sample_joint(jd, np.random.default_rng(42), size=1000)
        q2, c2 = sample_joint(jd, np.random.default_rng(42), size=1000)
        np.testing.assert_array_equal(q1, q2)
        np.testing.assert_array_equal(c1, c2)

    def test_draws_inside_components(self):
        jd = two_cluster()
        q, c = sample_joint(jd, np.random.default_rng(1), size=5000)
        low = q < 10.0
        assert np.all((q[low] >= 1.0) & (q[low] <= 1.01))
        assert np.all((c[low] >= 0.99) & (c[low] <= 1.0))
        assert np.all((q[~low] >= 20.0) & (q[~low] <= 21.0))

    def test_mixture_proportion(self):
        # half the mass is the high cluster; 3 sigma at 1e5 draws
        jd = two_cluster()
        q, _ = sample_joint(jd, np.random.default_rng(7), size=100_000)
        frac = float(np.mean(q >= 20.0))
        assert abs(frac - 0.5) < 3.0 * 0.5 / math.sqrt(100_000)


class TestLowCostMaxCdf:
    def test_single_rect_closed_form(self):
        # all costs qualify, so the max of m uniforms has CDF x^m
        jd = RectMixture((RectComponent(0.0, 1.0, 0.0, 0.4, 1.0),))
        for m in (1, 2, 5):
            for x in (0.2, 0.5, 0.9):
                np.testing.assert_allclose(
                    low_cost_max_cdf(jd, 1.0, m, x), x**m, rtol=1e-12
                )

    def test_against_monte_carlo(self):
        jd = two_cluster(V=400.0)
        m, cap, x = 9, 200.0, 1.004
        rng = np.random.default_rng(42)
        reps = 40_000
        q, c = sample_joint(jd, rng, size=reps * m)
        z = np.where(c.reshape(reps, m) <= cap, q.reshape(reps, m), 0.0)
        mc = float(np.mean(z.max(axis=1) <= x))
        exact = low_cost_max_cdf(jd, cap, m, x)
        assert abs(mc - exact) < 3.0 * math.sqrt(exact * (1 - exact) / reps) + 1e-9


class TestMedianMaxQuality:
    def test_single_rect_medians(self):
        jd = RectMixture((RectComponent(0.0, 1.0, 0.0, 0.4, 1.0),))
        np.testing.assert_allclose(median_max_quality(jd, 0.5, 1), 0.5, atol=1e-9)
        np.testing.assert_allclose(
            median_max_quality(jd, 0.5, 2), math.sqrt(0.5), atol=1e-9
        )

    def test_median_property(self):
        jd = two_cluster()
        mu = median_max_quality(jd, 200.0, 3999)
        assert 1.0 <= mu <= 1.01
        assert low_cost_max_cdf(jd, 200.0, 3999, mu) >= 0.5

    def test_no_qualifying_mass(self):
        jd = RectMixture((RectComponent(0.0, 1.0, 2.0, 3.0, 1.0),))
        with pytest.raises(NoLowCostMass):
            median_max_quality(jd, 1.0, 4)


class TestDiscretize:
    def test_stratified_counts(self):
        jd = RectMixture(
            (
                RectComponent(0.0, 1.0, 0.0, 1.0, 0.25),
                RectComponent(2.0, 3.0, 0.0, 1.0, 0.75),
            )
        )
        types = discretize(jd, 101, seed=42)
        in_low = np.sum(types.q <= 1.5)
        assert abs(in_low - 0.25 * 101) <= 1.0

    def test_distinct_and_deterministic(self):
        jd = two_cluster()
        a = discretize(jd, 400, seed=9, n=50)
        b = discretize(jd, 400, seed=9, n=50)
        np.testing.assert_array_equal(a.q, b.q)
        np.testing.assert_array_equal(a.c, b.c)
        assert np.unique(a.q).size == 400
        assert a.n == 50
        np.testing.assert_allclose(a.w, 1.0 / 400.0)

    def test_separates_a_degenerate_rectangle(self):
        """A rectangle of zero quality width draws one quality m times; the
        jitter separates them deterministically within 1e-9 of the range."""
        jd = RectMixture((RectComponent(1.0, 1.0, 0.1, 0.2, 0.5), RectComponent(0.0, 2.0, 0.1, 0.3, 0.5)))
        a = discretize(jd, 400, seed=5, n=50)
        b = discretize(jd, 400, seed=5, n=50)
        assert a.q.tobytes() == b.q.tobytes()
        assert np.unique(a.q).size == 400
        assert np.sum(np.abs(a.q - 1.0) <= 1e-9 * 2.0) >= 200

    def test_keeps_distinct_draws_unchanged(self):
        """Without duplicates the support holds the uniform draws bit for bit."""
        jd = two_cluster()
        types = discretize(jd, 400, seed=11)
        rng = np.random.default_rng(11)
        raw = []
        for comp, count in zip(jd.components, (200, 200)):
            raw.append(comp.q_lo + rng.random(count) * (comp.q_hi - comp.q_lo))
            rng.random(count)  # the costs
        assert types.q.tobytes() == np.concatenate(raw).tobytes()

    def test_rejects_a_law_without_rectangles(self):
        for law in (Uniform(0.0, 1.0), EmpiricalTypes(q=[1.0, 2.0], c=[0.1, 0.2], w=[0.5, 0.5])):
            with pytest.raises(ValidationError, match="rect_mixture"):
                discretize(law, 50, 0)

    def test_rejects_a_point_count_that_is_not_a_positive_integer(self):
        for m in (1.5, 400.0, 0, -3, True, "400", None):
            with pytest.raises(ValidationError, match="m must be an integer"):
                discretize(two_cluster(), m, 0)
        assert discretize(two_cluster(), np.int64(3), 0).support_size == 3

    def test_rejects_negative_seed(self):
        jd = RectMixture((RectComponent(0.0, 1.0, 0.0, 0.4, 1.0),))
        for seed in (-1, [3, -2]):
            with pytest.raises(ValidationError):
                discretize(jd, 10, seed)

    @pytest.mark.parametrize("seed", [None, "x", 1.7, True, -1], ids=repr)
    def test_rejects_a_seed_that_is_not_a_nonnegative_integer(self, seed):
        jd = RectMixture((RectComponent(0.0, 1.0, 0.0, 0.4, 1.0),))
        with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
            discretize(jd, 10, seed)

    def test_accepts_a_numpy_integer_seed(self):
        jd = RectMixture((RectComponent(0.0, 1.0, 0.0, 0.4, 1.0),))
        a = discretize(jd, 10, np.int64(7))
        b = discretize(jd, 10, 7)
        np.testing.assert_array_equal(a.q, b.q)
        np.testing.assert_array_equal(a.c, b.c)


class TestSerialization:
    def test_round_trips(self):
        dists = [
            Uniform(0.0, 2.0),
            PiecewiseLinearCDF(((0.0, 0.0), (1.0, 0.25), (2.0, 1.0))),
            two_cluster(),
            EmpiricalTypes(q=[1.0, 2.0], c=[0.1, 0.2], w=[0.5, 0.5]),
        ]
        for d in dists:
            doc = distribution_to_dict(d)
            back = distribution_from_dict(doc)
            assert distribution_to_dict(back) == doc

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            distribution_from_dict({"kind": "spline"})

    def test_malformed(self):
        with pytest.raises(ValidationError):
            distribution_from_dict({"kind": "rect_mixture", "components": [{}]})
        with pytest.raises(ValidationError):
            distribution_from_dict({})
