"""Tests for deterministic named RNG streams."""

from repro.sim import RngRegistry


def test_same_seed_same_name_gives_identical_streams():
    a = RngRegistry(seed=7).stream("channel")
    b = RngRegistry(seed=7).stream("channel")
    assert list(a.integers(0, 1000, 10)) == list(b.integers(0, 1000, 10))


def test_different_names_give_independent_streams():
    reg = RngRegistry(seed=7)
    a = list(reg.stream("alpha").integers(0, 10**9, 8))
    b = list(reg.stream("beta").integers(0, 10**9, 8))
    assert a != b


def test_different_seeds_differ():
    a = list(RngRegistry(seed=1).stream("x").integers(0, 10**9, 8))
    b = list(RngRegistry(seed=2).stream("x").integers(0, 10**9, 8))
    assert a != b


def test_stream_is_cached_not_restarted():
    reg = RngRegistry(seed=3)
    first = reg.stream("s").integers(0, 10**9)
    second = reg.stream("s").integers(0, 10**9)
    fresh = RngRegistry(seed=3).stream("s")
    assert first == fresh.integers(0, 10**9)
    assert second == fresh.integers(0, 10**9)
