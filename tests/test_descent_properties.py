"""Property test of the reads ``numerics.first_descent`` makes.

Over unimodal sequences of up to 10^5 values, with leading zeros, plateaus
and near-ties within the 1e-12 tolerance, and with the predicted index
absent or anywhere, outside [1, hi] included, the search answers what a
dense scan answers and keeps to its read plan: one call on all hi points
when hi <= 65, a first call on 34 contiguous indices when a guess is given
and hi > 65, and never more than 128 points in one call.
"""

from __future__ import annotations

from datetime import timedelta

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from contest_forge.numerics import first_descent  # noqa: E402

HI = st.integers(1, 65) | st.integers(66, 3000) | st.integers(3001, 10**5)


def unimodal(hi: int, zeros: int, rise: int, seed: int) -> np.ndarray:
    """``zeros`` zeros, ``rise`` strict rises, then steps that each descend:
    a fall, a plateau or a near-tie up within the tolerance."""
    rng = np.random.default_rng(seed)
    rise_steps = 1.0 + rng.uniform(1e-9, 1e-3, rise)
    up = float(rng.uniform(1e-3, 1.0)) * np.cumprod(rise_steps)
    rest = hi - zeros - rise
    kind = rng.integers(0, 4, rest)
    after = np.where(kind == 0, 1.0 + rng.uniform(0.0, 0.9e-12, rest),
                     np.where(kind == 1, rng.uniform(0.99, 1.0, rest), 1.0))
    peak = up[-1] if rise else float(rng.uniform(1e-3, 1.0))
    values = np.concatenate([np.zeros(zeros), up, peak * np.cumprod(after)])
    step = (values[:-1] > 0.0) & (values[1:] <= values[:-1] * (1.0 + 1e-12))
    assert not (step[:-1] & ~step[1:]).any()  # descends from its first descent on
    return values


def dense_first_descent(values: np.ndarray) -> tuple[int, float]:
    step = (values[:-1] > 0.0) & (values[1:] <= values[:-1] * (1.0 + 1e-12))
    if not step.any():
        return values.size, float(values[-1])
    j = int(np.argmax(step)) + 1
    return j, float(values[j - 1])


@settings(max_examples=300, deadline=timedelta(seconds=2), derandomize=True, database=None)
@given(st.data(), HI, st.integers(0, 2**32 - 1))
def test_reads_follow_the_plan_and_match_the_dense_scan(data, hi, seed):
    zeros = data.draw(st.integers(0, hi - 1), label="zeros")
    rise = data.draw(st.integers(0, hi - zeros), label="rise")
    values = unimodal(hi, zeros, rise, seed)
    expected = dense_first_descent(values)
    # the window [a, a + 31] is read with a - 1 and a + 32, a = round(near) - 16:
    # offsets of 15 to 17 put the descent on or just past its edges
    offsets = st.sampled_from((-17, -16, -15, 15, 16, 17)) | st.integers(-40, 40)
    near = data.draw(
        st.none()
        | st.floats(-2.0 * hi, 3.0 * hi, allow_nan=False)
        | offsets.map(lambda k: expected[0] + k),
        label="near",
    )
    reads = []

    def f(js):
        reads.append(js.copy())
        return values[js - 1]

    assert first_descent(f, hi, near) == expected
    assert all(1 <= js.min() and js.max() <= hi for js in reads)
    assert max(js.size for js in reads) <= 128
    if hi <= 65:
        assert len(reads) == 1
        np.testing.assert_array_equal(reads[0], np.arange(1, hi + 1))
    elif near is not None:
        first = reads[0]
        assert first.size == 34
        np.testing.assert_array_equal(first, np.arange(first[0], first[0] + 34))
