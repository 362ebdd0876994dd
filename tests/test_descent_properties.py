"""Property test of the reads ``numerics.first_descent`` makes.

Over unimodal sequences of up to 10^5 values, with leading zeros, plateaus
and near-ties within the 1e-12 tolerance, and with the predicted index
absent or anywhere, outside [1, hi] included, the search answers what a
dense scan answers and keeps to its read plan: one call on all hi points
when hi <= 65; when a guess is given and hi > 65, a first call on the 6
contiguous indices from round(guess) - 1 (clipped into [1, hi]), each
later window the neighbouring 6 indices, at most 3 windows before the
first probe round; never more than 128 points in one call, and at most 6
calls in all.
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
    # the window [a, a + 5] is read, a = round(near) - 1, and tests a to a + 4:
    # offsets of 1 and -3 put the descent on its edges, 2, -4 and -5 past them
    offsets = st.sampled_from((-5, -4, -3, 1, 2)) | st.integers(-40, 40)
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
        a = min(max(round(near) - 1, 1), hi - 5)
        np.testing.assert_array_equal(reads[0], np.arange(a, a + 6))
        # the reads before the first probe round are the windows, each the
        # neighbour of the one before (it starts at that one's last index or
        # ends at its first), and at most one last read of the narrowed
        # bracket, read whole, that ends the search
        probe = next((k for k, js in enumerate(reads) if js.size == 128), len(reads))
        guided = reads[:probe]
        assert len(guided) <= (3 if probe < len(reads) else 4)
        assert all(js.size == 6 for js in guided[: 3 if probe < len(reads) else -1])
        for before, js in zip(guided, guided[1:]):
            np.testing.assert_array_equal(js, np.arange(js[0], js[0] + js.size))
            assert js[0] == before[-1] or js[-1] == before[0]
    assert len(reads) <= 6
