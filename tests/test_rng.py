"""Determinism and distribution sanity of the portable generator."""

import numpy as np
import pytest

from vpfuse.rng import Rng, fnv1a64, stream_seed


def test_streams_are_reproducible():
    a = Rng(7, "data").uniform((100,))
    b = Rng(7, "data").uniform((100,))
    np.testing.assert_array_equal(a, b)


def test_streams_with_distinct_labels_differ():
    a = Rng(7, "data").uniform((100,))
    b = Rng(7, "init").uniform((100,))
    assert not np.array_equal(a, b)


def test_draw_batching_does_not_change_sequence():
    r1 = Rng(3, "x")
    whole = r1.uniform((10,))
    r2 = Rng(3, "x")
    parts = np.concatenate([r2.uniform((4,)), r2.uniform((6,))])
    np.testing.assert_array_equal(whole, parts)


def test_known_hash_constants():
    # FNV-1a reference value for "a" (offset ^ 0x61 then * prime)
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C
    assert stream_seed(0, "x") == stream_seed(0, "x")


def test_uniform_range_and_moments():
    u = Rng(0, "u").uniform((20000,))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01


def test_normal_moments():
    z = Rng(0, "n").normal((20000,), std=1.0)
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03


def vector_integers(rng, high, n):
    """``n`` integers in [0, high) as floor(u * high) of one vector draw."""
    return np.minimum((rng.uniform((n,)) * high).astype(np.int64), high - 1)


def test_integers_cover_range():
    r = Rng(0, "i")
    v = [r.integers(5) for _ in range(5000)]
    assert set(np.unique(v)) == {0, 1, 2, 3, 4}


@pytest.mark.parametrize("high", [0, -3])
def test_integers_rejects_an_empty_range(high):
    # A bound below 1 has no integer to draw; floor(u * high) would return
    # one outside [0, high) anyway.
    with pytest.raises(ValueError, match="empty range"):
        Rng(0, "i").integers(high)


def test_choice_distinct():
    v = Rng(0, "c").choice_distinct(10, 10)
    assert sorted(v.tolist()) == list(range(10))


def test_scalar_draws_equal_vector_draws():
    # Scalar draws take a pure-Python path; it must match the numpy path bit
    # for bit and advance the stream by the same count.
    n = 3000
    r = Rng(5, "scalar/uniform")
    scalars = np.array([r.uniform() for _ in range(n)])
    assert scalars.tobytes() == Rng(5, "scalar/uniform").uniform((n,)).tobytes()

    for high in (1, 2, 7, 27, 1000, 2 ** 40 + 3):
        r = Rng(5, f"scalar/int{high}")
        scalars = np.array([r.integers(high) for _ in range(n)], dtype=np.int64)
        np.testing.assert_array_equal(
            scalars, vector_integers(Rng(5, f"scalar/int{high}"), high, n))

    r = Rng(5, "scalar/mixed")
    mixed = [r.uniform(), *r.uniform((3,)), r.uniform(), *r.uniform((2,))]
    assert np.array(mixed).tobytes() == Rng(5, "scalar/mixed").uniform((7,)).tobytes()


def test_choice_distinct_equals_vector_draws():
    r = Rng(5, "scalar/choice")
    picks = np.concatenate([r.choice_distinct(20, 8) for _ in range(300)])
    # Reference: the same stream drawn as one vector (longer than the ~3000
    # draws needed), filtered the same way.
    stream = iter(vector_integers(Rng(5, "scalar/choice"), 20, 10000).tolist())
    want = []
    for _ in range(300):
        seen = []
        while len(seen) < 8:
            v = next(stream)
            if v not in seen:
                seen.append(v)
        want.extend(seen)
    np.testing.assert_array_equal(picks, want)
