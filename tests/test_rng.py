"""Counter-based RNG streams: replay and stream independence."""

import numpy as np
import pytest

from harnack.rng import philox


def test_same_seed_same_stream_replays():
    a = philox(7, stream=3).integers(0, 1 << 30, size=16)
    b = philox(7, stream=3).integers(0, 1 << 30, size=16)
    assert np.array_equal(a, b)


def test_streams_are_distinct():
    base = philox(7, stream=0).integers(0, 1 << 30, size=16)
    other = philox(7, stream=1).integers(0, 1 << 30, size=16)
    third = philox(8, stream=0).integers(0, 1 << 30, size=16)
    assert not np.array_equal(base, other)
    assert not np.array_equal(base, third)


def test_draw_order_does_not_couple_streams():
    # Drawing from one stream must not perturb another (fresh generators).
    first = philox(0, stream=5).uniform(size=4)
    gen_a = philox(0, stream=6)
    gen_a.uniform(size=1000)
    second = philox(0, stream=5).uniform(size=4)
    assert np.array_equal(first, second)


def test_keys_must_fit_in_64_bits():
    top = (1 << 64) - 1
    assert philox(top, stream=top).integers(0, 2, size=1).shape == (1,)
    for seed, stream in ((1 << 64, 0), (0, 1 << 64), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            philox(seed, stream)
