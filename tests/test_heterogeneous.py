import itertools
import math

import numpy as np
import pytest

from contest_forge import heterogeneous
from contest_forge.contest import (
    expected_prize,
    expected_prize_curve,
    make_simple_contest,
    validate_contest,
)
from contest_forge.distributions import (
    EmpiricalTypes,
    RectComponent,
    RectMixture,
    Uniform,
    discretize,
)
from contest_forge.errors import PopulationTooLarge, ValidationError
from contest_forge.heterogeneous import (
    MAX_APPROX_CONTESTS,
    MAX_APPROX_POINTS,
    MAX_MC_DRAWS,
    ParticipationProfile,
    _beat_probabilities,
    _output_cdfs,
    best_response,
    equilibrium,
    exact_objective,
    example_obj,
    fosd_check,
    highcost_subequilibrium,
    is_sub_equilibrium,
    mc_objective,
    median_subequilibrium,
    output_cdf,
    rule_from_profile,
    wta_approx_experiment,
)
from contest_forge.homogeneous import participation_rate

TWO_POINT = EmpiricalTypes(q=[2.0, 1.0], c=[0.3, 0.3], w=[0.5, 0.5], n=2)
WTA2 = make_simple_contest(1, 1.0, 2)


# seeds discretize rejects: not integers, a bool, or negative
BAD_SEEDS = (None, "x", 1.7, True, -1)


def random_types(rng, size, n, c_hi=1.0):
    q = rng.uniform(0.0, 1.0, size=size)
    q += np.arange(size) * 1e-9  # distinct qualities
    c = rng.uniform(0.01, c_hi, size=size)
    w = rng.uniform(0.2, 1.0, size=size)
    w /= w.sum()
    w = w.round(12)
    w[-1] = 1.0 - w[:-1].sum()
    return EmpiricalTypes(q=q, c=c, w=w, n=n)


def beat_mass(types, profile, i):
    """Point i's beat probability by a plain loop: the weights of the entrants
    with a larger q, summed in decreasing q, as ``_beat_probabilities`` sums
    them, so the two give the same bits."""
    total = 0.0
    for k in np.argsort(-types.q, kind="stable"):
        if profile.mask[k] and types.q[k] > types.q[i]:
            total += float(types.w[k])
    return total


def payoff(contest, types, profile, i):
    """Point i's participation payoff against ``profile``: prize minus cost."""
    return expected_prize(contest, beat_mass(types, profile, i)) - float(types.c[i])


def count_equilibria(monkeypatch):
    """Spy on heterogeneous.equilibrium; returns the list of contests it solves."""
    calls = []

    def spy(contest, types):
        calls.append(contest)
        return equilibrium(contest, types)

    monkeypatch.setattr(heterogeneous, "equilibrium", spy)
    return calls


def random_profile(rng, size):
    return ParticipationProfile(rng.random(size) < rng.uniform(0.2, 0.8))


def bracket_oracle(contest, types):
    """The double best-response bracket: A_{k+1} = BR(B_k) grows from the empty
    profile and B_{k+1} = BR(A_k) shrinks from the full one, trapping every
    fixed point between them. Returns (lower, upper) once both stabilize."""
    size = types.support_size
    lower = ParticipationProfile.empty(size)
    upper = ParticipationProfile.full(size)
    for _ in range(10 * size):
        new_lower = best_response(contest, types, upper)
        new_upper = best_response(contest, types, lower)
        if new_lower.same(lower) and new_upper.same(upper):
            return lower, upper
        lower, upper = new_lower, new_upper
    raise AssertionError(f"bracket did not stabilize in {10 * size} rounds")


def sweep_oracle(contest, types):
    """The equilibrium sweep that evaluates the prize curve over the whole
    undecided tail in every round. Returns (mask, rounds)."""
    order = np.argsort(-types.q, kind="stable")
    c = types.c[order]
    w = types.w[order]
    alive = np.ones(types.support_size, dtype=bool)
    start = 0
    rounds = 0
    while (undecided := start + np.flatnonzero(alive[start:])).size:
        rounds += 1
        above = np.concatenate(([0.0], np.cumsum(np.where(alive, w, 0.0))[:-1]))
        prizes = expected_prize_curve(contest, above[undecided])
        failed = np.flatnonzero(c[undecided] > prizes)
        if failed.size == 0:
            break
        first = failed[0]
        later = undecided[first + 1 :]
        alive[undecided[first]] = False
        alive[later[c[later] > prizes[first] * (1.0 + heterogeneous._DEFER_RTOL)]] = False
        start = undecided[first] + 1
    mask = np.empty_like(alive)
    mask[order] = alive
    return mask, rounds


def doubling_reads(entrants, contest):
    """The most curve calls of an equilibrium scan whose every read is used
    up before the next: reads of b, 2b, 4b, ... masses with
    b = max(1, 32 // terms), one mass consumed per entrant."""
    first = max(1, 32 // max(1, len(contest.ranks)))
    return math.floor(math.log2(entrants / first + 1)) + 1


def count_curve_points(monkeypatch):
    """Spy on heterogeneous.expected_prize_curve; returns the number of points
    of each call."""
    sizes = []

    def spy(contest, ps):
        sizes.append(np.size(ps))
        return expected_prize_curve(contest, ps)

    monkeypatch.setattr(heterogeneous, "expected_prize_curve", spy)
    return sizes


def criterion_09_types(rng, m=400, n=50):
    """A discretized one- or two-rectangle law drawn as in acceptance criterion 09."""
    parts = int(rng.integers(1, 3))
    weights = rng.uniform(0.2, 1.0, size=parts)
    weights /= weights.sum()
    comps = []
    for k in range(parts):
        q_lo = float(rng.uniform(0.0, 1.0))
        c_lo = float(rng.uniform(0.08, 0.5))
        comps.append(
            RectComponent(
                q_lo,
                q_lo + float(rng.uniform(0.1, 1.0)),
                c_lo,
                c_lo + float(rng.uniform(0.05, 0.6)),
                float(weights[k]),
            )
        )
    return discretize(RectMixture(tuple(comps)), m, int(rng.integers(0, 2**31)), n=n)


def block_weight_types(rng, types):
    """``types`` with weights equal within runs of consecutive points in q
    order and different between runs."""
    size = types.support_size
    count = int(rng.integers(1, min(size, 8) + 1))
    cuts = np.sort(rng.choice(np.arange(1, size), size=count - 1, replace=False))
    runs = np.diff(np.concatenate(([0], cuts, [size])))
    w_desc = np.repeat(rng.uniform(0.2, 1.0, size=runs.size), runs)
    w = np.empty(size)
    w[types._order] = w_desc / w_desc.sum()
    return EmpiricalTypes(q=types.q, c=types.c, w=w, n=types.n)


def with_ties(contest, types):
    """Put every participant just below a non-participant (in q) onto its
    tie c_i = c(beat_i), as best_response computes it. Returns the tied
    support and the tied points."""
    eq = equilibrium(contest, types).profile
    prizes = expected_prize_curve(contest, _beat_probabilities(types, eq))
    order = np.argsort(-types.q, kind="stable")
    mask_desc = eq.mask[order]
    ties = order[1:][mask_desc[1:] & ~mask_desc[:-1]]
    c = types.c.copy()
    c[ties] = prizes[ties]
    return EmpiricalTypes(q=types.q, c=c, w=types.w, n=types.n), ties


def random_general_contest(rng, n):
    """Budget-exhausting, geometrically decaying prizes on at least 2 top ranks,
    top-heavy enough that some criterion-09 types enter."""
    paid = int(rng.integers(2, n + 1))
    decay = np.exp(-rng.uniform(0.1, 1.5) * np.arange(paid))
    raw = np.sort(decay * rng.uniform(0.5, 1.0, size=paid))[::-1]
    values = tuple(float(v) for v in raw / raw.sum()) + (0.0,) * (n - paid)
    return validate_contest(values, 1.0)


class TestParticipationProfile:
    def test_constructors(self):
        assert ParticipationProfile.empty(3).count == 0
        assert ParticipationProfile.full(3).count == 3

    def test_equality_and_subset(self):
        a = ParticipationProfile(np.array([True, False, True]))
        b = ParticipationProfile(np.array([True, False, True]))
        c = ParticipationProfile(np.array([True, True, True]))
        assert a == b and a != c
        assert a.subset_of(c) and not c.subset_of(a)
        assert hash(a) == hash(b)

    def test_keeps_a_read_only_copy(self):
        source = np.array([True, False, True])
        profile = ParticipationProfile(source)
        before = hash(profile)
        source[1] = True
        assert profile.mask.tolist() == [True, False, True]
        assert hash(profile) == before
        assert profile == ParticipationProfile(np.array([True, False, True]))
        with pytest.raises(ValueError, match="read-only"):
            profile.mask[0] = False
        assert profile.count == 2


class TestBeatProbability:
    def test_two_point(self):
        full = ParticipationProfile.full(2)
        assert [beat_mass(TWO_POINT, full, i) for i in range(2)] == [0.0, 0.5]
        assert _beat_probabilities(TWO_POINT, full).tolist() == [0.0, 0.5]

    def test_mask_matters(self):
        only_weak = ParticipationProfile(np.array([False, True]))
        assert beat_mass(TWO_POINT, only_weak, 1) == 0.0
        assert _beat_probabilities(TWO_POINT, only_weak).tolist() == [0.0, 0.0]

    def test_vectorised_route_equals_the_loop(self):
        """The cumulative sum over the stored order has the loop's bits, on
        supports given in any order, with unequal weights."""
        rng = np.random.default_rng(31)
        for _ in range(60):
            size = int(rng.integers(1, 40))
            types = random_types(rng, size, 5)
            profile = random_profile(rng, size)
            loop = [beat_mass(types, profile, i) for i in range(size)]
            assert _beat_probabilities(types, profile).tolist() == loop


class TestExpectedPayoff:
    def test_two_point_oracle(self):
        full = ParticipationProfile.full(2)
        np.testing.assert_allclose(payoff(WTA2, TWO_POINT, full, 0), 0.7, atol=1e-14)
        np.testing.assert_allclose(payoff(WTA2, TWO_POINT, full, 1), 0.2, atol=1e-14)

    def test_removing_competitor_never_hurts(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            types = random_types(rng, 12, 6)
            contest = make_simple_contest(int(rng.integers(1, 7)), 1.0, 6)
            profile = random_profile(rng, 12)
            i = int(rng.integers(0, 12))
            base = payoff(contest, types, profile, i)
            drop = profile.mask.copy()
            drop[int(rng.integers(0, 12))] = False
            less = payoff(contest, types, ParticipationProfile(drop), i)
            assert less >= base - 1e-12

    def test_nonnegative_payoff_iff_best_response_enters(self):
        """The loop's payoff and best_response read beat masses with the same
        bits and one pointwise prize curve, so they agree exactly, ties
        included."""
        rng = np.random.default_rng(77)
        n = 50
        ties = 0
        for _ in range(40):
            types = criterion_09_types(rng, m=int(rng.integers(20, 120)), n=n)
            contest = (
                random_general_contest(rng, n) if rng.random() < 0.7
                else make_simple_contest(int(rng.integers(1, 13)), 1.0, n)
            )
            profile = random_profile(rng, types.support_size)
            # put a third of the points on their tie c_i = c(beat_i)
            c = types.c.copy()
            on_tie = rng.random(c.size) < 0.33
            c[on_tie] = expected_prize_curve(contest, _beat_probabilities(types, profile))[on_tie]
            types = EmpiricalTypes(q=types.q, c=c, w=types.w, n=n)
            response = best_response(contest, types, profile)
            for i in range(types.support_size):
                gain = payoff(contest, types, profile, i)
                assert (gain >= 0.0) == response.mask[i], i
                ties += gain == 0.0
        assert ties > 0


class TestBestResponse:
    def test_empty_profile_draws_everyone_below_top_prize(self):
        rng = np.random.default_rng(1)
        types = random_types(rng, 20, 8, c_hi=1.5)
        contest = validate_contest((0.6, 0.4) + (0.0,) * 6, 1.0)
        response = best_response(contest, types, ParticipationProfile.empty(20))
        np.testing.assert_array_equal(response.mask, types.c <= 0.6)

    def test_antitone_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            size = int(rng.integers(2, 25))
            n = int(rng.integers(2, 9))
            types = random_types(rng, size, n)
            contest = make_simple_contest(int(rng.integers(1, n + 1)), 1.0, n)
            small = random_profile(rng, size)
            grown = ParticipationProfile(small.mask | (rng.random(size) < 0.3))
            br_small = best_response(contest, types, small)
            br_grown = best_response(contest, types, grown)
            assert br_grown.subset_of(br_small)

    def test_matches_scalar_definition(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            types = random_types(rng, 15, 5)
            contest = make_simple_contest(2, 1.0, 5)
            profile = random_profile(rng, 15)
            response = best_response(contest, types, profile)
            for i in range(15):
                prize = expected_prize(contest, beat_mass(types, profile, i))
                assert response.mask[i] == (types.c[i] <= prize)


class TestEquilibrium:
    def test_two_point_full_participation(self):
        bracket = equilibrium(WTA2, TWO_POINT)
        assert bracket.profile == ParticipationProfile.full(2)

    def test_everyone_priced_out(self):
        types = EmpiricalTypes(q=[1.0, 2.0], c=[3.0, 4.0], w=[0.5, 0.5], n=3)
        bracket = equilibrium(make_simple_contest(1, 1.0, 3), types)
        assert bracket.profile.count == 0

    def test_fixed_point_when_converged(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            size = int(rng.integers(2, 40))
            n = int(rng.integers(2, 10))
            types = random_types(rng, size, n)
            contest = make_simple_contest(int(rng.integers(1, n + 1)), 1.0, n)
            bracket = equilibrium(contest, types)
            assert best_response(contest, types, bracket.profile) == bracket.profile

    def test_bracket_contains_all_fixed_points(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            size = 10
            n = 4
            types = random_types(rng, size, n)
            contest = make_simple_contest(int(rng.integers(1, n + 1)), 1.0, n)
            bracket = equilibrium(contest, types)
            for code in range(2**size):
                mask = np.array(
                    [(code >> b) & 1 == 1 for b in range(size)], dtype=bool
                )
                profile = ParticipationProfile(mask)
                if best_response(contest, types, profile) == profile:
                    assert profile == bracket.profile

    def test_homogeneous_cost_reduces_to_threshold(self):
        """With equal costs the empirical equilibrium is a quality cutoff
        whose participating count is within one support point of the
        continuous solver's rate."""
        rng = np.random.default_rng(42)
        m, n, c = 200, 6, 0.3
        q = np.sort(rng.uniform(0.0, 1.0, size=m))
        types = EmpiricalTypes(q=q, c=np.full(m, c), w=np.full(m, 1.0 / m), n=n)
        contest = make_simple_contest(2, 1.0, n)
        mask = equilibrium(contest, types).profile.mask
        # top set in quality
        assert np.all(mask[np.argsort(q)][: m - mask.sum()] == False)  # noqa: E712
        p_star, flag = participation_rate(contest, c)
        assert flag is None
        assert abs(mask.sum() - (math.floor(m * p_star) + 1)) <= 1

    def test_population_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            equilibrium(make_simple_contest(1, 1.0, 3), TWO_POINT)


class TestEquilibriumSweep:
    def check_against_oracle(self, contest, types):
        eq = equilibrium(contest, types)
        lower, upper = bracket_oracle(contest, types)
        assert lower.same(upper)
        np.testing.assert_array_equal(eq.profile.mask, upper.mask)
        assert best_response(contest, types, eq.profile).same(eq.profile)
        assert 1 <= eq.iterations <= types.support_size + 1
        return eq

    def check_against_both(self, contest, types):
        eq = self.check_against_oracle(contest, types)
        mask, rounds = sweep_oracle(contest, types)
        np.testing.assert_array_equal(eq.profile.mask, mask)
        assert eq.iterations == rounds
        return eq

    @pytest.mark.parametrize("general", [False, True])
    def test_matches_oracles_on_unequal_weights(self, general, monkeypatch):
        """On unequal weights the mass after an entrant that follows a
        failure is not a mass already read, so the scan reads again; some
        solves read more often than the doubling schedule allows."""
        rng = np.random.default_rng(31 + general)
        n = 50
        sizes = count_curve_points(monkeypatch)
        rereads = 0
        for m in (1, 2, 3, 5, 8, 13, 31, 32, 33, 64, 100, 150, 199, 250, 300):
            for _ in range(3):
                types = random_types(rng, m, n)
                contest = (
                    random_general_contest(rng, n) if general
                    else make_simple_contest(int(rng.integers(1, 13)), 1.0, n)
                )
                before = len(sizes)
                eq = equilibrium(contest, types)
                reads = len(sizes) - before
                rereads += reads > doubling_reads(eq.profile.count, contest)
                self.check_against_both(contest, types)
        assert rereads > 0

    def test_matches_oracles_on_block_equal_weights(self):
        rng = np.random.default_rng(41)
        n = 50
        for _ in range(8):
            m = int(rng.integers(1, 400))
            types = block_weight_types(rng, criterion_09_types(rng, m=m, n=n))
            contests = [random_general_contest(rng, n)]
            contests += [make_simple_contest(j, 1.0, n) for j in (1, 2, 5, 12)]
            for contest in contests:
                self.check_against_both(contest, types)

    @pytest.mark.parametrize("weights", ["random", "blocks"])
    def test_cost_equal_to_prize_ties_on_unequal_weights(self, weights):
        n = 50
        tied = 0
        for seed in range(8):
            rng = np.random.default_rng(500 + seed)
            types = (
                random_types(rng, int(rng.integers(20, 300)), n) if weights == "random"
                else block_weight_types(rng, criterion_09_types(rng, m=300, n=n))
            )
            for contest in (random_general_contest(rng, n),
                            make_simple_contest(int(rng.integers(1, 13)), 1.0, n)):
                tie_types, ties = with_ties(contest, types)
                got = self.check_against_both(contest, tie_types)
                assert np.all(got.profile.mask[ties])
                tied += ties.size
        assert tied > 0

    def test_matches_bracket_oracle_on_criterion_09_instances(self):
        rng = np.random.default_rng(2024)
        n = 50
        checked = 0
        for _ in range(16):
            types = criterion_09_types(rng, n=n)
            contests = [random_general_contest(rng, n)]
            contests += [make_simple_contest(j, 1.0, n) for j in range(1, 13)]
            for contest in contests:
                self.check_against_oracle(contest, types)
                checked += 1
        assert checked >= 200

    @pytest.mark.parametrize(
        "general, size, seeds",
        [(False, 400, range(6)), (True, 400, range(6)), (True, 399, range(270, 290))],
    )
    def test_cost_equal_to_prize_ties(self, general, size, seeds):
        """Set every participant just below a non-participant (in q) onto its
        tie c_i = c(beat_i), as best_response computes it; the tie enters,
        whatever the support size."""
        n = 50
        tied = 0
        for seed in seeds:
            rng = np.random.default_rng(seed)
            types = criterion_09_types(rng, m=size, n=n)
            contest = (
                random_general_contest(rng, n) if general
                else make_simple_contest(int(rng.integers(1, 13)), 1.0, n)
            )
            tie_types, ties = with_ties(contest, types)
            got = self.check_against_oracle(contest, tie_types)
            assert np.all(got.profile.mask[ties])
            tied += ties.size
        assert tied > 0

    def test_wta_top_point_at_budget(self):
        """The top point's beat probability is 0, so its WTA prize is V = c."""
        rng = np.random.default_rng(10)
        n = 50
        for _ in range(5):
            types = criterion_09_types(rng, n=n)
            c = types.c.copy()
            top = int(np.argmax(types.q))
            c[top] = 1.0
            tie_types = EmpiricalTypes(q=types.q, c=c, w=types.w, n=n)
            eq = self.check_against_oracle(make_simple_contest(1, 1.0, n), tie_types)
            assert eq.profile.mask[top]


# the hetero-eq CLI example: a two-rectangle law and a 3-prize contest over 6 ranks
RECT_LAW = RectMixture(
    (RectComponent(0.0, 1.0, 0.05, 0.3, 0.6), RectComponent(0.5, 2.0, 0.1, 0.8, 0.4))
)
THREE_PRIZES = validate_contest((0.5, 0.3, 0.2, 0.0, 0.0, 0.0), 1.0)


class TestSweepWork:
    """The scan reads the prize curve speculatively and keeps its reads
    across failures; profiles and round counts match the full-tail sweep."""

    def test_matches_full_tail_sweep_on_criterion_09_instances(self, monkeypatch):
        """The supports have equal weights, so the mass after each entrant is
        one already read and a scan makes O(log m) curve calls, however many
        points fail."""
        rng = np.random.default_rng(2025)
        n = 50
        entered = failed = 0
        for _ in range(16):
            types = criterion_09_types(rng, n=n)
            contests = [random_general_contest(rng, n)]
            contests += [make_simple_contest(j, 1.0, n) for j in range(1, 13)]
            for contest in contests:
                sizes = count_curve_points(monkeypatch)
                eq = equilibrium(contest, types)
                assert len(sizes) <= doubling_reads(eq.profile.count, contest)
                mask, rounds = sweep_oracle(contest, types)
                np.testing.assert_array_equal(eq.profile.mask, mask)
                assert eq.iterations == rounds
                entered += eq.profile.count
                failed += rounds > 1
        assert entered > 0 and failed > 0

    def test_matches_full_tail_sweep_at_ten_thousand_points(self, monkeypatch):
        types = discretize(RECT_LAW, 10_000, 3, n=6)
        mask, rounds = sweep_oracle(THREE_PRIZES, types)
        sizes = count_curve_points(monkeypatch)
        eq = equilibrium(THREE_PRIZES, types)
        np.testing.assert_array_equal(eq.profile.mask, mask)
        assert eq.iterations == rounds > 50
        # a round reads fewer than twice the points it passes, plus one block,
        # and every point it passes enters for good
        assert sum(sizes) <= 2 * types.support_size + 32 * rounds
        # equal weights: every read is used up, whatever fails (the full-tail
        # sweep reads 188 times here)
        assert len(sizes) <= doubling_reads(eq.profile.count, THREE_PRIZES) == 10

    def test_priced_out_support_reads_one_block(self, monkeypatch):
        """The first read holds 32 curve elements: max(1, 32 // T) points
        against a T-term contest."""
        rng = np.random.default_rng(3)
        n = 50
        contests = [random_general_contest(rng, n) for _ in range(5)]
        contests.append(validate_contest(tuple(np.linspace(0.1, 0.05, 26) / 1.95) + (0.0,) * 24, 1.0))
        contests += [make_simple_contest(j, 1.0, n) for j in (1, 30)]
        assert len(contests[5].ranks) == 26
        for contest in contests:
            types = criterion_09_types(rng, n=n)
            dear = EmpiricalTypes(q=types.q, c=types.c + contest.values[0], w=types.w, n=n)
            sizes = count_curve_points(monkeypatch)
            eq = equilibrium(contest, dear)
            assert eq.profile.count == 0 and eq.iterations == 1
            assert sum(sizes) <= 32
            assert sizes == [max(1, 32 // len(contest.ranks))]

    def test_full_entry_reads_each_point_once(self, monkeypatch):
        rng = np.random.default_rng(4)
        n = 50
        for m in (1, 31, 32, 33, 400, 1000):
            types = criterion_09_types(rng, m=m, n=n)
            cheap = EmpiricalTypes(q=types.q, c=types.c * 1e-3, w=types.w, n=n)
            sizes = count_curve_points(monkeypatch)
            eq = equilibrium(make_simple_contest(n, 1.0, n), cheap)
            assert eq.profile.count == m and eq.iterations == 1
            assert sum(sizes) == m

    def test_best_response_reads_one_point_per_level(self, monkeypatch):
        rng = np.random.default_rng(6)
        n = 50
        for _ in range(20):
            types = criterion_09_types(rng, m=int(rng.integers(1, 300)), n=n)
            contest = random_general_contest(rng, n)
            profile = random_profile(rng, types.support_size)
            sizes = count_curve_points(monkeypatch)
            response = best_response(contest, types, profile)
            assert sizes == [len(set(_beat_probabilities(types, profile)))]
            assert sizes[0] <= profile.count + 1
            full = expected_prize_curve(contest, _beat_probabilities(types, profile))
            np.testing.assert_array_equal(response.mask, types.c <= full)


class TestIsSubEquilibrium:
    def test_equilibrium_passes(self):
        bracket = equilibrium(WTA2, TWO_POINT)
        assert is_sub_equilibrium(WTA2, TWO_POINT, bracket.profile)

    def test_subsets_of_equilibrium_pass(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            size = int(rng.integers(2, 30))
            n = int(rng.integers(2, 8))
            types = random_types(rng, size, n)
            contest = make_simple_contest(int(rng.integers(1, n + 1)), 1.0, n)
            eq = equilibrium(contest, types).profile
            sub = ParticipationProfile(eq.mask & (rng.random(size) < 0.6))
            assert is_sub_equilibrium(contest, types, sub)

    def test_overpriced_participant_fails(self):
        types = EmpiricalTypes(q=[1.0, 2.0], c=[0.1, 5.0], w=[0.5, 0.5], n=2)
        profile = ParticipationProfile(np.array([False, True]))
        assert not is_sub_equilibrium(WTA2, types, profile)


class TestOutputCdf:
    def test_empty_profile(self):
        empty = ParticipationProfile.empty(2)
        for x in (0.0, 0.5, 10.0):
            assert output_cdf(TWO_POINT, empty, x) == 1.0

    def test_full_profile_is_empirical_cdf(self):
        full = ParticipationProfile.full(2)
        assert output_cdf(TWO_POINT, full, 0.5) == 0.0
        assert output_cdf(TWO_POINT, full, 1.0) == 0.5
        assert output_cdf(TWO_POINT, full, 2.0) == 1.0

    def test_half_masked_hand_sum(self):
        types = EmpiricalTypes(
            q=[1.0, 2.0, 3.0], c=[0.1, 0.1, 0.1], w=[0.2, 0.3, 0.5], n=2
        )
        profile = ParticipationProfile(np.array([True, False, True]))
        # at x = 1.5: point 0 participates and is below (0.2), point 1 does
        # not participate (0.3), point 2 produces 3 > 1.5
        np.testing.assert_allclose(output_cdf(types, profile, 1.5), 0.5)

    def test_rejects_negative_x(self):
        with pytest.raises(ValidationError):
            output_cdf(TWO_POINT, ParticipationProfile.full(2), -0.1)

    def test_bits_of_the_cdfs_fosd_check_compares(self):
        """At 0 and at every support quality, one x at a time gives the bits
        of the sorted cumulative weights, unequal weights included."""
        rng = np.random.default_rng(19)
        for _ in range(100):
            size = int(rng.integers(1, 60))
            types = random_types(rng, size, 5)
            profile = random_profile(rng, size)
            xs = np.concatenate(([0.0], types.q))
            want = _output_cdfs(types, profile, xs)
            got = np.array([output_cdf(types, profile, float(x)) for x in xs])
            assert got.tobytes() == want.tobytes()


def matrix_output_cdfs(types, profile, xs):
    """output_cdf at every x as one (len(xs), m) comparison matrix times w."""
    out = np.where(profile.mask, types.q, 0.0)
    return (out[None, :] <= np.asarray(xs)[:, None]) @ types.w


class TestFosd:
    def test_sorted_cdfs_match_matrix_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            size = int(rng.integers(1, 60))
            types = random_types(rng, size, 5)
            a, b = random_profile(rng, size), random_profile(rng, size)
            xs = np.concatenate(([0.0], types.q, rng.uniform(-0.5, 1.5, size=5)))
            for profile in (a, b):
                np.testing.assert_allclose(
                    _output_cdfs(types, profile, xs),
                    matrix_output_cdfs(types, profile, xs),
                    rtol=0.0, atol=1e-14,
                )
            xs = np.concatenate(([0.0], types.q))
            want = np.all(
                matrix_output_cdfs(types, a, xs) <= matrix_output_cdfs(types, b, xs) + 1e-12
            )
            got = np.all(_output_cdfs(types, a, xs) <= _output_cdfs(types, b, xs) + 1e-12)
            assert got == want

    def test_reflexive(self):
        bracket = equilibrium(WTA2, TWO_POINT)
        assert fosd_check(TWO_POINT, bracket.profile, bracket.profile, WTA2)

    def test_random_ir_subsets_dominated(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            size = int(rng.integers(2, 30))
            n = int(rng.integers(2, 8))
            types = random_types(rng, size, n)
            contest = make_simple_contest(int(rng.integers(1, n + 1)), 1.0, n)
            eq = equilibrium(contest, types).profile
            sub = ParticipationProfile(eq.mask & (rng.random(size) < 0.6))
            assert fosd_check(types, eq, sub, contest)

    def test_lemma_on_every_sub_equilibrium_of_equal_weights(self):
        """All 2^m profiles of small equal-weight supports, kept where
        is_sub_equilibrium passes: the equilibrium dominates each, in one
        draw's output law and in the exact expected maximum of n draws,
        including sub-equilibria that hold points the equilibrium leaves out.
        Simple and general contests alternate."""
        rng = np.random.default_rng(1)
        kept = outside = 0
        for k in range(120):
            m, n = int(rng.integers(2, 11)), int(rng.integers(2, 8))
            q = rng.uniform(0.0, 1.0, size=m) + np.arange(m) * 1e-9
            c = rng.uniform(0.01, 1.0, size=m)
            types = EmpiricalTypes(q=q, c=c, w=np.full(m, 1.0 / m), n=n)
            if k % 2:
                contest = random_general_contest(rng, n)
            else:
                contest = make_simple_contest(int(rng.integers(1, n + 1)), 1.0, n)
            eq = equilibrium(contest, types).profile
            max_eq = exact_objective(types, eq, n, "max")
            for mask in (np.arange(2**m)[:, None] >> np.arange(m)) & 1 == 1:
                sub = ParticipationProfile(mask)
                if not is_sub_equilibrium(contest, types, sub):
                    continue
                kept += 1
                outside += not sub.subset_of(eq)
                assert fosd_check(types, eq, sub, contest)
                assert exact_objective(types, sub, n, "max") <= max_eq
        # 2,397 sub-equilibria, 940 of them not subsets of the equilibrium
        assert kept > 2000 and outside > 500

    def test_lemma_needs_equal_weights(self):
        """Under winner-take-all at n = 2 the high point (q = 2, c = 0.5)
        enters at prize 1, and the prize left for the low point, 1 - w_high,
        is below its cost 0.9, so the equilibrium is {high}. The low point
        alone is a sub-equilibrium: with no entrant above it, its prize is 1.
        Weights (0.6, 0.4), a draw of criterion 08's law, give the sub-
        equilibrium output more mass above 0 than the equilibrium's, so
        dominance fails; equal weights give the lemma's tie at 0."""
        wta = make_simple_contest(1, 1.0, 2)
        low = ParticipationProfile(np.array([True, False]))
        for w, dominated in (([0.6, 0.4], False), ([0.5, 0.5], True)):
            types = EmpiricalTypes(q=[1.0, 2.0], c=[0.9, 0.5], w=w, n=2)
            eq = equilibrium(wta, types).profile
            assert eq == ParticipationProfile(np.array([False, True]))
            assert is_sub_equilibrium(wta, types, low)
            assert fosd_check(types, eq, low, wta) is dominated

    def test_gate_on_non_sub_equilibrium(self):
        types = EmpiricalTypes(q=[1.0, 2.0], c=[0.1, 5.0], w=[0.5, 0.5], n=2)
        eq = equilibrium(WTA2, types).profile
        bad = ParticipationProfile(np.array([True, True]))
        with pytest.raises(ValidationError, match="^sub profile violates interim rationality$"):
            fosd_check(types, eq, bad, WTA2)

    def test_gate_on_non_fixed_point(self):
        bad_eq = ParticipationProfile.empty(2)  # everyone wants in at c=0.3
        sub = ParticipationProfile.empty(2)
        with pytest.raises(
            ValidationError, match="^eq profile is not a best-response fixed point$"
        ):
            fosd_check(TWO_POINT, bad_eq, sub, WTA2)


class TestMcObjective:
    def test_never_rule(self):
        est = mc_objective(
            TWO_POINT, lambda q, c: np.zeros_like(q, dtype=bool), 2, "max", 50, 0
        )
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_degenerate_type_exact(self):
        types = EmpiricalTypes(q=[1.0], c=[0.1], w=[1.0], n=3)
        est = mc_objective(
            types, lambda q, c: np.ones_like(q, dtype=bool), 3, "max", 100, 1
        )
        assert est.mean == 1.0 and est.std_error == 0.0

    def test_two_point_max_expectation(self):
        # max of two draws: 2 with prob 3/4, 1 with prob 1/4
        est = mc_objective(
            TWO_POINT, lambda q, c: np.ones_like(q, dtype=bool), 2, "max", 100_000, 42
        )
        assert abs(est.mean - 1.75) <= 3.0 * est.std_error

    def test_top_k_equals_sum_at_full_width(self):
        rule = lambda q, c: q > 1.5
        a = mc_objective(TWO_POINT, rule, 2, ("top_k", 2), 500, 7)
        b = mc_objective(TWO_POINT, rule, 2, "sum", 500, 7)
        np.testing.assert_allclose(a.mean, b.mean, rtol=1e-12)

    def test_bitwise_reproducible(self):
        rule = lambda q, c: c <= 0.3
        a = mc_objective(TWO_POINT, rule, 4, "max", 1000, 99)
        b = mc_objective(TWO_POINT, rule, 4, "max", 1000, 99)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_draw_limit(self):
        """replicas x n up to MAX_MC_DRAWS runs; past it, or past int64,
        raises before any allocation."""
        rule = lambda q, c: q > 1.5
        side = 2**10
        assert side * side == MAX_MC_DRAWS
        est = mc_objective(TWO_POINT, rule, side, "max", side, 0)
        assert est.mean == 2.0 and est.replicas == side
        for replicas, n in ((side + 1, side), (2, MAX_MC_DRAWS // 2 + 1),
                            (10**15, 10**6), (np.int64(2**32), np.int64(2**32))):
            with pytest.raises(PopulationTooLarge, match="Monte Carlo"):
                mc_objective(TWO_POINT, rule, n, "max", replicas, 0)

    def test_gates(self):
        rule = lambda q, c: np.ones_like(q, dtype=bool)
        with pytest.raises(ValidationError):
            mc_objective(TWO_POINT, rule, 2, "max", 1, 0)
        with pytest.raises(ValidationError):
            mc_objective(TWO_POINT, rule, 2, "median", 10, 0)
        with pytest.raises(ValidationError):
            mc_objective(TWO_POINT, rule, 2, ("top_k", 3), 10, 0)


def brute_force_objective(types, profile, n, objective):
    """Expectation by enumerating all m^n draws with their probabilities."""
    x = np.where(profile.mask, types.q, 0.0)
    total = 0.0
    for draw in itertools.product(range(types.support_size), repeat=n):
        outputs = [x[i] for i in draw]
        value = max(outputs) if objective == "max" else sum(outputs)
        total += math.prod(types.w[i] for i in draw) * value
    return total


class TestExactObjective:
    @pytest.mark.parametrize("objective", ["max", "sum"])
    def test_matches_enumeration(self, objective):
        rng = np.random.default_rng(17)
        for m, n in itertools.product(range(1, 5), range(1, 5)):
            q = rng.uniform(0.1, 2.0, size=m)
            q[0] = -0.7  # a negative-quality atom
            if m >= 2:
                q[1] = 0.0  # a zero-quality atom, tied with non-participants
            w = rng.uniform(0.2, 1.0, size=m)
            w /= w.sum()
            w[-1] = 1.0 - w[:-1].sum()
            types = EmpiricalTypes(q=q, c=np.full(m, 0.1), w=w, n=n)
            profiles = [
                ParticipationProfile.empty(m),
                ParticipationProfile.full(m),
                ParticipationProfile(np.arange(m) < 2),  # negative and zero q enter
                ParticipationProfile(np.arange(m) >= 1),
            ]
            for profile in profiles:
                want = brute_force_objective(types, profile, n, objective)
                got = exact_objective(types, profile, n, objective)
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_matches_monte_carlo_on_criterion_09_instance(self):
        jd = RectMixture(
            (
                RectComponent(0.2, 0.9, 0.1, 0.4, 0.6),
                RectComponent(0.5, 1.4, 0.2, 0.7, 0.4),
            )
        )
        n = 50
        types = discretize(jd, 400, 5, n=n)
        profile = equilibrium(make_simple_contest(2, 1.0, n), types).profile
        rule = rule_from_profile(types, profile)
        for tag, objective in enumerate(("max", "sum")):
            est = mc_objective(types, rule, n, objective, 10_000, 100 + tag)
            exact = exact_objective(types, profile, n, objective)
            assert abs(exact - est.mean) <= 4.0 * est.std_error, (objective, exact, est)

    def test_gates(self):
        full = ParticipationProfile.full(2)
        with pytest.raises(ValidationError):
            exact_objective(TWO_POINT, full, 2, ("top_k", 1))
        with pytest.raises(ValidationError):
            exact_objective(TWO_POINT, full, 0, "max")
        with pytest.raises(ValidationError):
            exact_objective(TWO_POINT, ParticipationProfile.full(3), 2, "max")


class TestRuleFromProfile:
    def test_maps_support_points_to_mask(self):
        rng = np.random.default_rng(3)
        types = random_types(rng, 30, 5)
        profile = random_profile(rng, 30)
        rule = rule_from_profile(types, profile)
        np.testing.assert_array_equal(rule(types.q, types.c), profile.mask)


class TestMedianSubequilibrium:
    def test_single_rectangle(self):
        jd = RectMixture((RectComponent(0.0, 1.0, 0.0, 0.4, 1.0),))
        rule = median_subequilibrium(jd, 1.0, 2)
        np.testing.assert_allclose(rule.mu, 0.5, atol=1e-9)
        assert rule.cost_cap == 0.5
        assert rule.win_floor >= 0.5
        assert bool(rule(np.array([0.7]), np.array([0.3]))[0])
        assert not bool(rule(np.array([0.3]), np.array([0.3]))[0])

    def test_no_low_cost_mass(self):
        jd = RectMixture((RectComponent(0.0, 1.0, 2.0, 3.0, 1.0),))
        with pytest.raises(ValidationError, match="^no mass with cost <= 0.5$"):
            median_subequilibrium(jd, 1.0, 5)

    def test_interim_rationality_via_win_floor(self):
        # expected WTA prize >= V * win_floor >= V/2 >= cost cap
        jd = RectMixture(
            (
                RectComponent(0.0, 2.0, 0.0, 1.0, 0.5),
                RectComponent(1.0, 3.0, 0.5, 4.0, 0.5),
            )
        )
        rule = median_subequilibrium(jd, 2.0, 6)
        assert 1.0 * rule.win_floor * 2.0 >= rule.cost_cap - 1e-9


class TestHighcostSubequilibrium:
    def test_cheap_population_empty(self):
        rng = np.random.default_rng(4)
        types = random_types(rng, 15, 5, c_hi=0.49)
        contest = make_simple_contest(3, 1.0, 5)
        profile = highcost_subequilibrium(contest, types)
        assert profile.count == 0

    def test_lone_expensive_winner(self):
        types = EmpiricalTypes(q=[5.0, 1.0], c=[0.8, 2.0], w=[0.5, 0.5], n=2)
        profile = highcost_subequilibrium(WTA2, types)
        assert profile.count == 1 and bool(profile.mask[0])
        assert is_sub_equilibrium(WTA2, types, profile)

    def test_random_instances_pass_wta_check(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            size = int(rng.integers(3, 25))
            n = int(rng.integers(2, 7))
            types = random_types(rng, size, n, c_hi=1.2)
            j = int(rng.integers(1, n + 1))
            contest = make_simple_contest(j, 1.0, n)
            profile = highcost_subequilibrium(contest, types)
            wta = make_simple_contest(1, 1.0, n)
            assert is_sub_equilibrium(wta, types, profile)
            assert np.all(types.c[profile.mask] > 0.5)

    def test_requires_exhausted_budget(self):
        contest = validate_contest((0.5, 0.0), 1.0)
        with pytest.raises(ValidationError, match="needs an exhausted budget$"):
            highcost_subequilibrium(contest, TWO_POINT)

    def test_threshold_is_half_the_contest_budget(self):
        # V = 5: the 3.0 type clears V/2 = 2.5 and the 2.0 type does not
        types = EmpiricalTypes(q=[3.0, 2.0, 1.0], c=[3.0, 2.0, 0.5], w=[0.2, 0.3, 0.5], n=2)
        contest = make_simple_contest(1, 5.0, 2)
        eq = equilibrium(contest, types).profile
        assert eq.mask.tolist() == [True, True, True]
        profile = highcost_subequilibrium(contest, types)
        assert profile.mask.tolist() == [True, False, False]
        assert is_sub_equilibrium(contest, types, profile)


class TestWtaApproxExperiment:
    def test_degenerate_single_type_ratio_one(self):
        types = EmpiricalTypes(q=[1.0], c=[0.05], w=[1.0], n=4)
        report = wta_approx_experiment(types, 4, 1.0, 1, 50, 0)
        assert report["ratio"] == 1.0
        assert report["checks"]["three_w_geq_best"]

    def test_homogeneous_wta_regime(self):
        # cost above the first breakpoint, so WTA is itself optimal
        jd = RectMixture((RectComponent(0.0, 1.0, 0.55, 0.56, 1.0),))
        report = wta_approx_experiment(jd, 8, 1.0, 300, 4000, 11)
        assert 0.9 <= report["ratio"] <= 1.1
        assert report["checks"]["three_w_geq_best"]

    def test_report_shape(self):
        jd = RectMixture((RectComponent(0.0, 1.0, 0.2, 0.9, 1.0),))
        report = wta_approx_experiment(jd, 5, 1.0, 40, 100, 2)
        assert {"wta", "contests", "ratio", "checks", "best_j"} <= report.keys()
        assert report["wta"].keys() == {"mean"}
        assert set(report["checks"]) == {"three_w_geq_best", "all_brackets_collapsed"}
        assert all({"j", "estimate"} <= row.keys() for row in report["contests"])
        js = [row["j"] for row in report["contests"]]
        assert js == sorted(js) and js[0] == 1

    def test_rejects_a_quality_marginal(self):
        with pytest.raises(ValidationError, match="not a joint"):
            wta_approx_experiment(Uniform(0.0, 1.0), 10, 1.0, 50, 2, 0)

    def test_solves_each_simple_contest_once(self, monkeypatch):
        calls = count_equilibria(monkeypatch)
        jd = RectMixture((RectComponent(0.0, 1.0, 0.2, 0.9, 1.0),))
        report = wta_approx_experiment(jd, 8, 1.0, 40, 2, 2)
        j_cap = len(report["contests"])
        assert j_cap == math.floor(1.0 / discretize(jd, 40, 2).c.min()) > 1
        assert [contest.ranks for contest in calls] == [(j,) for j in range(1, j_cap + 1)]

    def test_wta_mean_is_the_winner_take_all_objective(self):
        jd = RectMixture(
            (RectComponent(0.0, 1.0, 0.1, 0.6, 0.7), RectComponent(0.5, 2.0, 0.3, 0.9, 0.3))
        )
        report = wta_approx_experiment(jd, 7, 1.0, 60, 2, 4)
        types = discretize(jd, 60, 4, n=7)
        wta = equilibrium(make_simple_contest(1, 1.0, 7), types).profile
        assert report["wta"]["mean"] == exact_objective(types, wta, 7, "max")

    @pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
    def test_rejects_a_seed_that_is_not_a_nonnegative_integer(self, seed):
        jd = RectMixture((RectComponent(0.0, 1.0, 0.2, 0.9, 1.0),))
        with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
            wta_approx_experiment(jd, 6, 1.0, 40, 2, seed)

    @pytest.mark.parametrize("n, budget", [(MAX_APPROX_CONTESTS + 1, 1e6), (10**6, 1e6),
                                           (2**53, 1e300)])
    def test_too_many_contests_refused_before_any_solve(self, monkeypatch, n, budget):
        # costs from 0.05 up, so V / min cost exceeds n and every rank is a contest
        calls = count_equilibria(monkeypatch)
        jd = RectMixture((RectComponent(0.0, 1.0, 0.05, 0.9, 1.0),))
        with pytest.raises(PopulationTooLarge, match=f"solve {n} simple contests on 40"):
            wta_approx_experiment(jd, n, budget, 40, 2, 0)
        assert calls == []

    def test_contests_times_points_limit(self, monkeypatch):
        """10^4 contests are admitted on 400 points and refused on 401; the
        spy stops the admitted run at its first solve."""

        class Admitted(Exception):
            pass

        def stop(contest, types):
            raise Admitted

        monkeypatch.setattr(heterogeneous, "equilibrium", stop)
        for m, admitted in ((MAX_APPROX_POINTS // MAX_APPROX_CONTESTS, True),
                            (MAX_APPROX_POINTS // MAX_APPROX_CONTESTS + 1, False)):
            types = EmpiricalTypes(q=np.arange(m, dtype=float), c=np.full(m, 1e-3),
                                   w=np.full(m, 1.0 / m))
            # V / min cost = 10^4 contests, one per rank of n = 10^4
            with pytest.raises(Admitted if admitted else PopulationTooLarge):
                wta_approx_experiment(types, MAX_APPROX_CONTESTS, 10.0, m, 2, 0)


class TestExampleObj:
    def test_solves_each_contest_once(self, monkeypatch):
        # winner-take-all, the spread contest and three more top-heavy ones
        calls = count_equilibria(monkeypatch)
        example_obj(160.0, 200, 0.01, seed=1, m=40)
        assert len(calls) == 5

    def test_small_scale_all_checks(self):
        report = example_obj(200.0, 500, 0.01, seed=3, m=800)
        assert all(report["checks"].values()), report["checks"]

    def test_budget_gate(self):
        with pytest.raises(
            ValidationError, match="^the separation argument needs budget >= 160, got 100.0$"
        ):
            example_obj(100.0, 500, 0.01, seed=0)

    def test_eps_gate(self):
        with pytest.raises(ValidationError):
            example_obj(400.0, 500, 0.0, seed=0)

    @pytest.mark.parametrize("n, need", [(10, 200), (80, 200), (199, 200)])
    def test_population_gate_names_n_and_budget(self, n, need):
        with pytest.raises(ValidationError, match=rf"= {need} for budget V=400.0, got n={n}$"):
            example_obj(400.0, n, 0.01, seed=0)

    @pytest.mark.parametrize("budget", [math.nan, math.inf])
    def test_non_finite_budget(self, budget):
        with pytest.raises(ValidationError, match="budget must be positive and finite"):
            example_obj(budget, 500, 0.01, seed=0)

    @pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
    def test_rejects_a_seed_that_is_not_a_nonnegative_integer(self, seed):
        with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
            example_obj(160.0, 200, 0.01, seed=seed, m=40)
