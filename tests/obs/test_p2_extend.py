"""``P2Quantile.extend`` is bit-identical to the per-sample reference.

Every marker height, position and desired position, the count and the
estimate must equal what :func:`~tests.obs.p2_oracle.reference_add`
leaves, whether the sequence arrives in one batch, split at a cut, or one
:meth:`~repro.obs.P2Quantile.add` at a time.  NaN compares equal to NaN;
every other float compares by its exact bits.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import P2Quantile

from .p2_oracle import reference_add

_QUANTILES = st.sampled_from([0.1, 0.5, 0.95, 0.99])

#: Sample sequences: ties, integer-valued, heavy-tailed, with NaN, sorted
#: either way, and as short as nothing.
_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, 1.0, 2.5, -3.0]),
    st.integers(min_value=-50, max_value=50).map(float),
    st.floats(min_value=1e-9, max_value=1e9),
    st.floats(min_value=-1e6, max_value=1e6),
    st.just(math.nan),
)


@st.composite
def _sequences(draw):
    values = draw(st.lists(_VALUES, max_size=300))
    order = draw(st.sampled_from(["as drawn", "ascending", "descending"]))
    if order != "as drawn":
        finite = [v for v in values if not math.isnan(v)]
        values = sorted(finite, reverse=order == "descending")
    return values


def _bits(value: float) -> str:
    return "nan" if math.isnan(value) else float(value).hex()


def _state(estimator: P2Quantile) -> tuple:
    return (
        [_bits(v) for v in estimator._heights],
        [_bits(v) for v in estimator._positions],
        [_bits(v) for v in estimator._desired],
        [_bits(v) for v in estimator._increments],
        estimator.count,
        _bits(estimator.value),
    )


def _oracle(q: float, values: list) -> tuple:
    estimator = P2Quantile(q)
    for value in values:
        reference_add(estimator, value)
    return _state(estimator)


@given(q=_QUANTILES, values=_sequences(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_extend_matches_the_per_sample_reference(q, values, data):
    expected = _oracle(q, values)

    whole = P2Quantile(q)
    whole.extend(values)
    assert _state(whole) == expected

    cut = data.draw(st.integers(min_value=0, max_value=len(values)))
    split = P2Quantile(q)
    split.extend(values[:cut])
    split.extend(values[cut:])
    assert _state(split) == expected

    one_by_one = P2Quantile(q)
    for value in values:
        one_by_one.add(value)
    assert _state(one_by_one) == expected


def test_extend_accepts_any_iterable_of_numbers():
    values = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7]
    from_ints = P2Quantile(0.5)
    from_ints.extend(iter(values))
    assert _state(from_ints) == _oracle(0.5, [float(v) for v in values])


@pytest.mark.parametrize("q", [0.1, 0.5, 0.95, 0.99])
@pytest.mark.parametrize("nan_at", range(5))
def test_nan_among_the_first_five_samples_matches_the_reference(q, nan_at):
    """A NaN marker height makes every comparison with it false; the cell
    search must ask the same questions as the reference to agree."""
    values = [1.0, 2.0, 3.0, 4.0]
    values.insert(nan_at, math.nan)
    values += [0.5 * k for k in range(12)] * 4
    whole = P2Quantile(q)
    whole.extend(values)
    assert _state(whole) == _oracle(q, values)
