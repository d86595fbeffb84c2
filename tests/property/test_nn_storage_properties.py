"""Property-based tests for the NN compression stack and the DDI stores."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ddi import DiskDB, MemDB, Record
from repro.nn import kmeans_1d, make_mlp, measure, prune, quantize

_COUNTER = [0]


@given(sparsity=st.floats(min_value=0.0, max_value=0.95, allow_nan=False),
       seed=st.integers(min_value=0, max_value=100))
@settings(max_examples=60)
def test_prune_invariants(sparsity, seed):
    """Pruning hits the requested sparsity, preserves shapes, keeps the
    largest magnitudes, and masks match the zero pattern."""
    net = make_mlp(6, (24,), 3, seed=seed)
    shapes = [arr.shape for _l, _n, arr in net.parameters()]
    masks = prune(net, sparsity)
    assert [arr.shape for _l, _n, arr in net.parameters()] == shapes
    for _layer, name, arr in net.parameters():
        if name != "W":
            continue
        # prune() zeros floor(sparsity * size) weights (ties may add more).
        expected_zeros = int(sparsity * arr.size)
        assert (arr == 0).sum() >= expected_zeros
        mask = masks[id(arr)]
        assert ((arr == 0) | (mask == 1)).all()


@given(bits=st.integers(min_value=1, max_value=8),
       seed=st.integers(min_value=0, max_value=100))
@settings(max_examples=40)
def test_quantize_respects_codebook_size(bits, seed):
    net = make_mlp(6, (24,), 3, seed=seed)
    prune(net, 0.3)
    quantize(net, bits)
    for _layer, name, arr in net.parameters():
        if name == "W":
            assert len(np.unique(arr[arr != 0.0])) <= 2**bits


@given(sparsity=st.floats(min_value=0.1, max_value=0.9, allow_nan=False),
       bits=st.integers(min_value=2, max_value=8))
@settings(max_examples=40)
def test_measure_compressed_size_decreases_with_sparsity_and_bits(sparsity, bits):
    net = make_mlp(8, (32,), 4, seed=0)
    prune(net, sparsity)
    report = measure(net, bits=bits)
    # For tiny nets the fixed codebooks can dominate; bound by original
    # plus the codebook overhead rather than assuming net shrinkage.
    codebook_cap = 2 * (2**bits) * 4.0
    assert 0 < report.compressed_bytes <= report.original_bytes + codebook_cap
    assert report.nonzero_weights <= report.total_weights
    # Tighter compression (more sparsity) never increases the size.
    net2 = make_mlp(8, (32,), 4, seed=0)
    prune(net2, min(0.95, sparsity + 0.05))
    report2 = measure(net2, bits=bits)
    assert report2.compressed_bytes <= report.compressed_bytes + 1e-9


@given(values=st.lists(st.floats(min_value=-100, max_value=100,
                                 allow_nan=False), min_size=1, max_size=200),
       k=st.integers(min_value=1, max_value=16))
@settings(max_examples=100)
def test_kmeans_centroids_within_range_and_assignment_valid(values, k):
    arr = np.array(values)
    centroids, assignment = kmeans_1d(arr, k)
    assert len(assignment) == len(arr)
    assert assignment.max(initial=0) < max(1, len(centroids))
    if len(centroids):
        assert centroids.min() >= arr.min() - 1e-9
        assert centroids.max() <= arr.max() + 1e-9


@given(entries=st.lists(
    st.tuples(st.text(min_size=1, max_size=8), st.integers(), st.floats(
        min_value=0.1, max_value=100.0, allow_nan=False)),
    min_size=1, max_size=40),
    probe_time=st.floats(min_value=0.0, max_value=200.0, allow_nan=False))
@settings(max_examples=100)
def test_memdb_ttl_semantics(entries, probe_time):
    """A key is readable iff its (latest) TTL has not elapsed."""
    now = [0.0]
    db = MemDB(lambda: now[0], default_ttl_s=1000.0, max_entries=10_000)
    latest: dict[str, float] = {}
    for key, value, ttl in entries:
        db.put(key, value, ttl_s=ttl)
        latest[key] = ttl
    now[0] = probe_time
    for key, ttl in latest.items():
        value = db.get(key)
        if probe_time < ttl:
            assert value is not None
        else:
            assert value is None


@given(records=st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
              st.floats(min_value=-500.0, max_value=500.0, allow_nan=False)),
    min_size=1, max_size=60),
    t0=st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    span=st.floats(min_value=0.0, max_value=1000.0, allow_nan=False))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_diskdb_query_equals_brute_force(records, t0, span, tmp_path):
    """Range queries after arbitrary interleaved writes = brute-force scan,
    and everything survives a close/reopen."""
    # tmp_path is shared across hypothesis examples: make each DB unique.
    _COUNTER[0] += 1
    root = str(tmp_path / f"db-{_COUNTER[0]}")
    db = DiskDB(root)
    for i, (t, x) in enumerate(records):
        db.put(Record("s", t, x, 0.0, {"i": i}))
    t1 = t0 + span
    got = [(r.timestamp, r.payload["i"]) for r in db.query("s", t0, t1)]
    expected = sorted(
        (t, i) for i, (t, _x) in enumerate(records) if t0 <= t < t1
    )
    assert sorted(got) == expected
    db.close()
    reopened = DiskDB(root)
    again = [(r.timestamp, r.payload["i"]) for r in reopened.query("s", t0, t1)]
    assert sorted(again) == expected
    reopened.close()
