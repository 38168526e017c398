"""Properties of the serving tier: admission invariants, parser totality.

The admission controller is pure state, so hypothesis can drive it with
arbitrary admit/release interleavings and check the ledger invariants
that the live server depends on (a slot leak would eventually wedge the
whole front door at ``queue_full``).  The request parser must be
*total* over byte strings and over case bundles whose packed lanes
are arbitrary: whatever arrives off the wire, the only non-value
outcome is a typed :class:`~repro.serving.ProtocolError` — anything
else would let one malformed client kill a handler task.
"""

from __future__ import annotations

import base64
import functools
import json
from typing import List, Tuple

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core.attribute import AttributeCombination
from repro.data.dataset import FineGrainedDataset
from repro.data.injection import LocalizationCase
from repro.data.io import case_to_dict
from repro.data.schema import schema_from_sizes
from repro.serving import AdmissionConfig, AdmissionController, ProtocolError
from repro.serving.protocol import decode_frame, parse_request

TENANTS = ["a", "b", "c"]


@st.composite
def admission_runs(draw) -> Tuple[AdmissionConfig, List[Tuple[str, str]]]:
    """A config plus an interleaving of admit/release ops per tenant."""
    max_depth = draw(st.integers(min_value=1, max_value=8))
    soft = draw(
        st.one_of(st.none(), st.integers(min_value=1, max_value=max_depth))
    )
    config = AdmissionConfig(
        max_queue_depth=max_depth,
        soft_queue_depth=soft,
        tenant_inflight_limit=draw(st.integers(min_value=1, max_value=6)),
    )
    ops = draw(
        st.lists(
            st.tuples(st.sampled_from(["admit", "release"]), st.sampled_from(TENANTS)),
            max_size=60,
        )
    )
    return config, ops


@settings(deadline=None, max_examples=200)
@given(admission_runs())
def test_admission_ledger_invariants(run):
    """Depth == sum of tenant shares; caps never exceeded; verdicts typed."""
    config, ops = run
    ctl = AdmissionController(config)
    held = {tenant: 0 for tenant in TENANTS}
    for op, tenant in ops:
        if op == "admit":
            verdict = ctl.try_admit(tenant)
            if verdict.admitted:
                held[tenant] += 1
                assert verdict.tier in ("full", "degraded")
                assert verdict.shed_reason is None
                if verdict.tier == "degraded":
                    assert verdict.deadline_ms == config.degraded_deadline_ms
            else:
                assert verdict.tier is None
                assert verdict.shed_reason in ("queue_full", "tenant_quota")
        elif held[tenant] > 0:
            ctl.release(tenant)
            held[tenant] -= 1
        # The ledger invariants hold after every single operation.
        total = sum(held.values())
        assert ctl.depth == total
        assert ctl.depth <= config.max_queue_depth
        for t in TENANTS:
            assert ctl.tenant_inflight(t) == held[t]
            assert held[t] <= config.tenant_inflight_limit
        assert ctl.snapshot() == {t: n for t, n in held.items() if n}


@functools.lru_cache(maxsize=None)
def _valid_bundle_json() -> str:
    """A 2x2 leaf table's case bundle: four rows, packed lanes."""
    schema = schema_from_sizes([2, 2])
    dataset = FineGrainedDataset.full(schema, np.arange(1.0, 5.0), np.full(4, 2.0))
    case = LocalizationCase(
        case_id="prop",
        dataset=dataset,
        true_raps=(AttributeCombination.parse("(e0_0, *)"),),
    )
    return json.dumps(case_to_dict(case))


#: Whitelisted and foreign dtypes, so drawn lanes hit both branches.
_DTYPES = ("|u1", "<u2", "<u4", "<u8", "<f8", ">f8", "<i8", "|b1", "O", "<c16", "<f4")

#: One arbitrary packed lane: any dtype, any (often valid) base64 text.
_PACKED_LANES = st.fixed_dictionaries(
    {
        "dtype": st.one_of(st.sampled_from(_DTYPES), st.text(max_size=4), st.integers()),
        "b64": st.one_of(
            st.binary(max_size=40).map(lambda raw: base64.b64encode(raw).decode()),
            st.text(max_size=24),
            st.none(),
        ),
    },
    optional={"extra": st.just(1)},
)


def _with_lanes(lanes: dict) -> bytes:
    bundle = json.loads(_valid_bundle_json())
    bundle.update(lanes)
    return json.dumps({"case": bundle}).encode()


#: Requests whose case bundle has arbitrary packed lanes swapped in.
packed_lane_requests = st.dictionaries(
    st.sampled_from(["codes", "v", "f", "labels"]), _PACKED_LANES, min_size=1
).map(_with_lanes)


@settings(deadline=None, max_examples=300)
@given(st.one_of(st.binary(max_size=512), packed_lane_requests))
def test_parse_request_is_total(payload):
    """Arbitrary bytes, or arbitrary packed lanes, parse or raise ProtocolError."""
    try:
        parse_request(payload)
    except ProtocolError as exc:
        assert exc.code in ("bad_json", "bad_request", "bad_case")


@settings(deadline=None, max_examples=300)
@given(st.binary(max_size=64), st.integers(min_value=0, max_value=64))
def test_decode_frame_is_total(data, cap):
    """Arbitrary bytes never crash the frame decoder untyped."""
    try:
        decode_frame(data, max_payload=cap)
    except ProtocolError as exc:
        assert exc.code in ("bad_frame", "truncated", "oversized_payload")
