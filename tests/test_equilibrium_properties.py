"""Property tests of the heterogeneous equilibrium on small supports.

Supports have m <= 40 points with arbitrary positive weights, and some
points sit exactly on their tie c_i = c(beat_i), with the prize read from
``expected_prize_curve``. The equilibrium must be a best-response fixed
point and equal the double best-response bracket.
"""

import math
from datetime import timedelta

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from contest_forge.contest import (  # noqa: E402
    expected_prize_curve,
    make_simple_contest,
    validate_contest,
)
from contest_forge.distributions import EmpiricalTypes  # noqa: E402
from contest_forge.heterogeneous import (  # noqa: E402
    ParticipationProfile,
    _beat_probabilities,
    best_response,
    equilibrium,
)
from test_heterogeneous import bracket_oracle  # noqa: E402

unit = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def contests(draw, n):
    """M^j, or a general contest with budget 1 and up to n paid ranks."""
    if draw(st.booleans()):
        return make_simple_contest(draw(st.integers(1, n)), 1.0, n)
    raw = sorted(draw(st.lists(unit, min_size=1, max_size=n)), reverse=True)
    if raw[0] == 0.0:
        return make_simple_contest(1, 1.0, n)
    total = math.fsum(raw)
    return validate_contest([v / total for v in raw] + [0.0] * (n - len(raw)), 1.0)


@st.composite
def tied_instances(draw):
    m = draw(st.integers(1, 40))
    n = draw(st.integers(1, 30))
    contest = draw(contests(n))
    q = np.array(draw(st.permutations(range(m))), dtype=float)
    raw_w = np.array(draw(st.lists(st.floats(1e-6, 1.0), min_size=m, max_size=m)))
    c = np.array(draw(st.lists(st.floats(0.0, 1.2), min_size=m, max_size=m)))
    types = EmpiricalTypes(q=q, c=c, w=raw_w / raw_w.sum(), n=n)
    # ties at the beat probabilities of the oracle's equilibrium or of any profile
    if draw(st.booleans()):
        profile = bracket_oracle(contest, types)[1]
    else:
        profile = ParticipationProfile(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    tie = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    c[tie] = expected_prize_curve(contest, _beat_probabilities(types, profile))[tie]
    return contest, EmpiricalTypes(q=q, c=c, w=types.w, n=n)


@settings(max_examples=200, deadline=timedelta(seconds=2), derandomize=True, database=None)
@given(tied_instances())
def test_equilibrium_is_the_fixed_point_inside_the_bracket(instance):
    contest, types = instance
    eq = equilibrium(contest, types)
    lower, upper = bracket_oracle(contest, types)
    assert best_response(contest, types, eq.profile).same(eq.profile)
    assert lower.same(upper)
    np.testing.assert_array_equal(eq.profile.mask, upper.mask)
    assert 1 <= eq.iterations <= types.support_size + 1
