"""Property tests of the homogeneous equilibrium rate on general contests.

Contests have n from 2 to 200 ranks, prizes drawn with ties, and some pay
every rank (w_n > 0, so c(1) = v_n > 0). Costs lie inside (v_n, v_1),
among them costs within 1e-12 V of either end and deep-tail costs such as
1e-9 V. Every rate must meet |c(p) - c| <= 1e-10 max(V, c) without an
IterationLimit, and p must not rise with c.
"""

import math
from datetime import timedelta

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from contest_forge.contest import validate_contest  # noqa: E402
from contest_forge.homogeneous import participation_rate  # noqa: E402
from test_homogeneous import rate_contract  # noqa: E402

# a few shared levels, so that prizes tie
prize = st.floats(1e-3, 1.0) | st.sampled_from([0.05, 0.25, 1.0])


@st.composite
def general_contests(draw):
    n = draw(st.integers(2, 200))
    pays_all = draw(st.booleans())
    raw = sorted(draw(st.lists(prize, min_size=n if pays_all else 1, max_size=n)),
                 reverse=True)
    budget = draw(st.floats(0.5, 100.0))
    total = math.fsum(raw)
    values = [budget * v / total for v in raw] + [0.0] * (n - len(raw))
    return validate_contest(values, budget)


@st.composite
def costs(draw, contest):
    """Costs strictly inside (v_n, v_1), ends and deep tail included."""
    top, bottom, budget = contest.values[0], contest.values[-1], contest.budget
    inner = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                          min_size=1, max_size=6))
    out = [bottom + u * (top - bottom) for u in inner]
    out += [top - 1e-12 * budget, bottom + 1e-12 * budget, 1e-9 * budget, 1e-7 * budget]
    return sorted(c for c in out if bottom < c < top)


@settings(max_examples=200, deadline=timedelta(seconds=2), derandomize=True, database=None)
@given(st.data())
def test_rate_meets_the_contract_and_falls_with_cost(data):
    contest = data.draw(general_contests())
    assume(contest.values[0] > contest.values[-1])
    cs = data.draw(costs(contest))
    rates = []
    for c in cs:
        p, flag = participation_rate(contest, c)
        assert flag is None
        assert 0.0 <= p <= 1.0
        assert rate_contract(contest, c, p) <= 1e-10, (contest.n, c)
        rates.append(p)
    # p may only rise with c between costs the contract cannot tell apart
    tol = 1e-10 * contest.budget
    for (c_a, p_a), (c_b, p_b) in zip(zip(cs, rates), zip(cs[1:], rates[1:])):
        if c_b - c_a > 2.0 * tol:
            assert p_a >= p_b, (c_a, c_b)
