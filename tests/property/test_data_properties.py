"""Property-based tests on datasets, injection, and serialization."""

import functools
import json

import numpy as np
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.attribute import AttributeCombination
from repro.core.cuboid import Cuboid, enumerate_cuboids
from repro.data.dataset import FineGrainedDataset, deviation
from repro.data.injection import InjectionConfig, inject_failures
from repro.data.io import case_from_dict, case_to_dict
from repro.data.injection import LocalizationCase
from repro.data.schema import schema_from_sizes


@st.composite
def valued_datasets(draw, max_attrs=3, max_elements=3):
    sizes = draw(st.lists(st.integers(2, max_elements), min_size=2, max_size=max_attrs))
    schema = schema_from_sizes(sizes)
    n = schema.n_leaves
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    v = rng.uniform(1.0, 100.0, n)
    labels = rng.random(n) < draw(st.floats(0.0, 0.5))
    return FineGrainedDataset.full(schema, v, v * rng.uniform(0.9, 1.1, n), labels)


@st.composite
def combination_for(draw, schema):
    values = []
    for i in range(schema.n_attributes):
        values.append(draw(st.sampled_from((None,) + schema.elements(i))))
    return AttributeCombination(values)


@given(valued_datasets(), st.data())
@settings(max_examples=60, deadline=None)
def test_support_decomposes_over_children(dataset, data):
    """support(ac) = sum of support over any free attribute's children."""
    combination = data.draw(combination_for(dataset.schema))
    free = [i for i, v in enumerate(combination.values) if v is None]
    if not free:
        return
    attr = data.draw(st.sampled_from(free))
    total = 0
    for element in dataset.schema.elements(attr):
        values = list(combination.values)
        values[attr] = element
        total += dataset.support_count(AttributeCombination(values))
    assert total == dataset.support_count(combination)


@given(valued_datasets(), st.data())
@settings(max_examples=60, deadline=None)
def test_value_aggregation_decomposes(dataset, data):
    """Fig. 4 additivity: v(ac) = sum of v over children along any attribute."""
    combination = data.draw(combination_for(dataset.schema))
    free = [i for i, v in enumerate(combination.values) if v is None]
    if not free:
        return
    attr = data.draw(st.sampled_from(free))
    v_total, f_total = dataset.values_of(combination)
    v_sum = f_sum = 0.0
    for element in dataset.schema.elements(attr):
        values = list(combination.values)
        values[attr] = element
        v, f = dataset.values_of(AttributeCombination(values))
        v_sum += v
        f_sum += f
    assert abs(v_sum - v_total) < 1e-6 * max(1.0, abs(v_total))
    assert abs(f_sum - f_total) < 1e-6 * max(1.0, abs(f_total))


@given(valued_datasets(), st.data())
@settings(max_examples=60, deadline=None)
def test_confidence_is_weighted_mean_of_children(dataset, data):
    combination = data.draw(combination_for(dataset.schema))
    support = dataset.support_count(combination)
    if support == 0:
        assert dataset.confidence(combination) == 0.0
        return
    conf = dataset.confidence(combination)
    assert 0.0 <= conf <= 1.0
    assert conf * support == dataset.anomalous_support_count(combination)


@given(valued_datasets())
@settings(max_examples=40, deadline=None)
def test_aggregate_supports_sum_to_rows(dataset):
    for cuboid in enumerate_cuboids(dataset.schema.n_attributes):
        agg = dataset.aggregate(cuboid)
        assert agg.support.sum() == dataset.n_rows
        assert agg.anomalous_support.sum() == dataset.n_anomalous


@given(valued_datasets(), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_injection_dev_roundtrip(dataset, seed):
    """Injected forecasts reproduce the drawn Dev through Eq. 4 exactly."""
    rng = np.random.default_rng(seed)
    cfg = InjectionConfig()
    mask_pattern = AttributeCombination(
        [dataset.schema.elements(0)[0]] + [None] * (dataset.schema.n_attributes - 1)
    )
    labelled, truth = inject_failures(dataset, [mask_pattern], rng, cfg)
    dev = deviation(labelled.v, labelled.f, cfg.epsilon)
    assert (dev[truth] > cfg.threshold()).all()
    assert (dev[~truth] <= cfg.threshold()).all()
    assert np.array_equal(labelled.labels, truth)


#: Float64 bit patterns a packed lane must carry unchanged: quiet and
#: signalling NaNs with payloads, a negative NaN, -0.0, +-inf, denormals.
SPECIAL_BITS = (
    0x7FF8000000000000,
    0x7FF8DEADBEEF0001,
    0x7FF0000000000001,
    0xFFF8000000000123,
    0x8000000000000000,
    0x7FF0000000000000,
    0xFFF0000000000000,
    0x0000000000000001,
)

#: First-attribute sizes at each code-width boundary: the largest code
#: that fits ``|u1`` (255), the first that needs ``<u2``, the largest
#: ``<u2`` code and the first ``<u4`` one.
BOUNDARY_SIZES = (2, 256, 257, 65536, 65537)


@functools.lru_cache(maxsize=None)
def _schema(sizes):
    return schema_from_sizes(sizes)


@st.composite
def lane_datasets(draw):
    """Small leaf tables whose lanes hit every packed-lane edge case."""
    sizes = [draw(st.sampled_from(BOUNDARY_SIZES))]
    sizes += draw(st.lists(st.integers(1, 3), max_size=2))
    schema = _schema(tuple(sizes))
    n_rows = draw(st.integers(0, 6))
    codes = np.array(
        [[draw(st.integers(0, size - 1)) for size in sizes] for __ in range(n_rows)],
        dtype=np.int64,
    ).reshape(n_rows, len(sizes))
    if n_rows:
        codes[draw(st.integers(0, n_rows - 1)), 0] = sizes[0] - 1
    bits = st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(0, 2**64 - 1))
    v, f = (
        np.array([draw(bits) for __ in range(n_rows)], dtype=np.uint64).view(np.float64)
        for __ in range(2)
    )
    labels = np.array([draw(st.booleans()) for __ in range(n_rows)], dtype=bool)
    return FineGrainedDataset(schema, codes, v, f, labels)


@given(lane_datasets())
@settings(max_examples=40, deadline=None)
def test_case_dict_roundtrip(dataset):
    """Packed lanes survive a JSON round trip bit for bit; lists still decode."""
    case = LocalizationCase(
        case_id="prop",
        dataset=dataset,
        true_raps=(
            AttributeCombination(
                [dataset.schema.elements(0)[0]]
                + [None] * (dataset.schema.n_attributes - 1)
            ),
        ),
        metadata={"n": dataset.n_rows},
    )
    encoded = case_to_dict(case)
    largest = dataset.schema.sizes[0] - 1
    assert encoded["codes"]["dtype"] == (
        "|u1" if largest <= 0xFF else "<u2" if largest <= 0xFFFF else "<u4"
    )
    rebuilt = case_from_dict(json.loads(json.dumps(encoded)))
    assert rebuilt.case_id == case.case_id
    assert rebuilt.true_raps == case.true_raps
    assert rebuilt.metadata == case.metadata
    assert rebuilt.dataset.schema == dataset.schema
    for lane in ("codes", "v", "f", "labels"):
        got, want = getattr(rebuilt.dataset, lane), getattr(dataset, lane)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), lane

    # The plain-list form decodes to the same arrays (JSON text keeps
    # every float but a NaN's sign and payload, so NaNs compare as NaNs).
    listed = dict(
        encoded,
        codes=dataset.codes.tolist(),
        v=dataset.v.tolist(),
        f=dataset.f.tolist(),
        labels=dataset.labels.astype(int).tolist(),
    )
    from_lists = case_from_dict(json.loads(json.dumps(listed))).dataset
    assert from_lists.codes.tobytes() == dataset.codes.tobytes()
    assert from_lists.labels.tobytes() == dataset.labels.tobytes()
    for lane in ("v", "f"):
        got, want = getattr(from_lists, lane), getattr(dataset, lane)
        assert np.array_equal(got, want, equal_nan=True)
        numbers = ~np.isnan(want)
        assert np.array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))
