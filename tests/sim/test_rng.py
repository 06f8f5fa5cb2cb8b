"""Tests for the seeded RNG plumbing."""

import numpy as np

from repro.sim.rng import SeedSequenceFactory, jittered, jittered_sum


def test_same_name_same_stream():
    a = SeedSequenceFactory(42)
    b = SeedSequenceFactory(42)
    xs = a.generator("workload").random(8)
    ys = b.generator("workload").random(8)
    assert np.allclose(xs, ys)


def test_same_name_returns_same_generator_instance():
    factory = SeedSequenceFactory(1)
    assert factory.generator("x") is factory.generator("x")


def test_different_names_independent():
    factory = SeedSequenceFactory(42)
    xs = factory.generator("a").random(8)
    ys = factory.generator("b").random(8)
    assert not np.allclose(xs, ys)


def test_different_seeds_differ():
    xs = SeedSequenceFactory(1).generator("w").random(8)
    ys = SeedSequenceFactory(2).generator("w").random(8)
    assert not np.allclose(xs, ys)


def test_adding_stream_does_not_perturb_others():
    """The name-keyed derivation means new consumers are non-invasive."""
    a = SeedSequenceFactory(7)
    before = a.generator("stable").random(4)
    b = SeedSequenceFactory(7)
    b.generator("newcomer").random(4)  # drawn first
    after = b.generator("stable").random(4)
    assert np.allclose(before, after)


def test_spawn_children_are_deterministic_and_distinct():
    parent = SeedSequenceFactory(5)
    child1 = parent.spawn("sub")
    child2 = SeedSequenceFactory(5).spawn("sub")
    assert child1.seed == child2.seed
    assert child1.seed != parent.seed
    other = parent.spawn("other")
    assert other.seed != child1.seed


def test_jittered_positive_and_near_mean():
    rng = np.random.default_rng(0)
    samples = [jittered(rng, 1000, 0.05) for _ in range(500)]
    assert all(s >= 1 for s in samples)
    assert abs(np.mean(samples) - 1000) < 25


def test_jittered_clamps_tiny_means():
    rng = np.random.default_rng(0)
    assert all(jittered(rng, 1, 5.0) >= 1 for _ in range(100))


# ----------------------------------------------------------------------
# Buffered streams: bit-identity with unbuffered draws
# ----------------------------------------------------------------------

def _raw(name="s", seed=9):
    """A generator identical to the one backing stream(name) of seed."""
    return SeedSequenceFactory(seed).generator(name)


def test_stream_scalar_normal_bit_identical_across_refills():
    stream = SeedSequenceFactory(9).stream("s", "normal", block=4)
    rng = _raw()
    ours = [stream.normal(250.0, 12.5) for _ in range(11)]
    ref = [rng.normal(250.0, 12.5) for _ in range(11)]
    assert ours == ref  # exact equality, not allclose


def test_stream_scalar_exponential_bit_identical():
    stream = SeedSequenceFactory(9).stream("s", "exponential", block=4)
    rng = _raw()
    ours = [stream.exponential(1e6) for _ in range(11)]
    ref = [rng.exponential(1e6) for _ in range(11)]
    assert ours == ref


def test_stream_scalar_random_bit_identical():
    stream = SeedSequenceFactory(9).stream("s", "random", block=4)
    rng = _raw()
    assert [stream.random() for _ in range(11)] == [rng.random() for _ in range(11)]


def test_stream_vector_normal_bit_identical():
    stream = SeedSequenceFactory(9).stream("s", "normal", block=4)
    rng = _raw()
    ours = stream.normal(5.0, 2.0, size=10)
    ref = rng.normal(5.0, 2.0, size=10)
    assert np.array_equal(ours, ref)
    # and the stream position stays aligned for subsequent scalars
    assert stream.normal(5.0, 2.0) == rng.normal(5.0, 2.0)


def test_stream_batch_apis_bit_identical():
    factory = SeedSequenceFactory(9)
    assert np.array_equal(
        factory.stream("n", "normal").normal_batch(100.0, 7.0, 9),
        _raw("n").normal(100.0, 7.0, size=9),
    )
    assert np.array_equal(
        factory.stream("e", "exponential").exponential_batch(3.0, 9),
        _raw("e").exponential(3.0, size=9),
    )


def test_stream_mixed_scalar_and_vector_stay_aligned():
    stream = SeedSequenceFactory(9).stream("s", "normal", block=8)
    rng = _raw()
    ours = [stream.normal(1.0, 0.5)]
    ref = [rng.normal(1.0, 0.5)]
    ours.extend(stream.normal(1.0, 0.5, size=13))
    ref.extend(rng.normal(1.0, 0.5, size=13))
    ours.append(stream.normal(1.0, 0.5))
    ref.append(rng.normal(1.0, 0.5))
    assert ours == ref


def test_jittered_identical_on_stream_and_generator():
    stream = SeedSequenceFactory(9).stream("s", "normal", block=4)
    rng = _raw()
    assert [jittered(stream, 1000, 0.06) for _ in range(20)] == [
        jittered(rng, 1000, 0.06) for _ in range(20)
    ]


def test_stream_is_cached_per_name():
    factory = SeedSequenceFactory(1)
    assert factory.stream("x", "normal") is factory.stream("x", "normal")


def test_stream_kind_conflicts_raise():
    import pytest

    factory = SeedSequenceFactory(1)
    factory.stream("x", "normal")
    with pytest.raises(RuntimeError):
        factory.stream("x", "exponential")
    with pytest.raises(RuntimeError):
        factory.stream("x", "normal").exponential(1.0)


def test_stream_and_raw_generator_are_mutually_exclusive():
    import pytest

    factory = SeedSequenceFactory(1)
    factory.stream("buffered", "normal")
    with pytest.raises(RuntimeError):
        factory.generator("buffered")
    factory.generator("raw")
    with pytest.raises(RuntimeError):
        factory.stream("raw", "normal")


COSTS = ((1200, 0.06), (5400, 0.08), (800, 0.10), (2500, 0.05))


def test_jittered_sum_matches_sequential_jittered():
    """Same values AND same stream state as separate jittered() calls."""
    a = SeedSequenceFactory(42).stream("costs", "normal")
    b = SeedSequenceFactory(42).stream("costs", "normal")
    for _ in range(700):  # cross several buffer refills
        coalesced = jittered_sum(a, COSTS)
        sequential = sum(jittered(b, mean, sigma) for mean, sigma in COSTS)
        assert coalesced == sequential
    assert a.state_dict() == b.state_dict()


def test_jittered_sum_raw_generator_fallback():
    a = SeedSequenceFactory(7).generator("raw")
    b = SeedSequenceFactory(7).generator("raw")
    total = jittered_sum(a, COSTS)
    assert total == sum(jittered(b, mean, sigma) for mean, sigma in COSTS)
    assert isinstance(total, int) and total > 0


def test_jittered_sum_clamps_each_component():
    """Each component clamps to >= 1 individually, like jittered does."""
    stream = SeedSequenceFactory(1).stream("tiny", "normal")
    total = jittered_sum(stream, ((1, 5.0),) * 100)
    assert total >= 100  # 100 components, each at least 1
