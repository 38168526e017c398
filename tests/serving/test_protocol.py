"""Protocol tests: framing, request validation, typed codes."""

from __future__ import annotations

import base64
import json

import numpy as np
import pytest

from repro.data.io import case_to_dict
from repro.data.rapmd import RAPMDConfig, generate_rapmd
from repro.data.schema import cdn_schema
from repro.serving import protocol
from repro.serving.protocol import (
    ERROR_CODES,
    FRAME_HEADER,
    KIND_REQUEST,
    KIND_RESPONSE,
    MAGIC,
    ProtocolError,
    SHED_CODES,
    decode_frame,
    encode_frame,
    error_body,
    http_status_for,
    ok_body,
    parse_request,
    shed_body,
)


@pytest.fixture(scope="module")
def case():
    return generate_rapmd(
        cdn_schema(3, 2, 2), RAPMDConfig(n_cases=1, n_days=1, seed=5)
    )[0]


def request_bytes(case, **extra) -> bytes:
    return json.dumps({"case": case_to_dict(case), **extra}).encode()


def list_form(case) -> dict:
    """The case bundle with plain JSON-list lanes (the pre-packed form)."""
    data = case_to_dict(case)
    dataset = case.dataset
    data.update(
        codes=dataset.codes.tolist(),
        v=dataset.v.tolist(),
        f=dataset.f.tolist(),
        labels=dataset.labels.astype(int).tolist(),
    )
    return data


def packed(array, dtype: str) -> dict:
    raw = np.asarray(array).astype(dtype).tobytes()
    return {"dtype": dtype, "b64": base64.b64encode(raw).decode()}


def _set_first(lane: str, value):
    def mutate(data):
        if lane == "codes":
            data["codes"][0][0] = value
        else:
            data[lane][0] = value
    return mutate


def _set_lane(lane: str, make):
    def mutate(data):
        data[lane] = make(data[lane])
    return mutate


def _patch(lane: str, **fields):
    """Mutation: override fields of one packed lane."""
    return _set_lane(lane, lambda packed_lane: {**packed_lane, **fields})


def _fill(lane: str, value: int):
    """Mutation: a ``|u1`` lane of the same length, every element *value*."""
    return _set_lane(
        lane, lambda packed_lane: packed(np.full(len(base64.b64decode(packed_lane["b64"])), value), "|u1")
    )


#: Malformed case bundles, each on top of a valid one: (form, mutation).
MALFORMED_CASES = {
    # List form: values the pre-packed decoder silently coerced.
    "list-code-float": ("list", _set_first("codes", 1.7)),
    "list-code-bool": ("list", _set_first("codes", True)),
    "list-label-7": ("list", _set_first("labels", 7)),
    "list-label-negative": ("list", _set_first("labels", -1)),
    "list-v-string": ("list", _set_first("v", "3.5")),
    "list-f-null": ("list", _set_first("f", None)),
    "list-codes-row-width": ("list", _set_lane("codes", lambda c: [r[:-1] for r in c])),
    "list-v-short": ("list", _set_lane("v", lambda v: v[:-1])),
    "list-lane-scalar": ("list", _set_lane("labels", lambda __: 1)),
    # Packed lanes.
    "packed-bad-base64": ("packed", _set_lane("v", lambda lane: {**lane, "b64": "!!" + lane["b64"]})),
    "packed-bad-padding": ("packed", _set_lane("f", lambda lane: {**lane, "b64": lane["b64"][:-1]})),
    "packed-ragged-bytes": ("packed", _patch("v", b64=base64.b64encode(b"\0" * 12).decode())),
    "packed-dtype-object": ("packed", _patch("v", dtype="O")),
    "packed-dtype-big-endian": ("packed", _patch("f", dtype=">f8")),
    "packed-dtype-complex": ("packed", _patch("v", dtype="<c16")),
    "packed-dtype-signed-codes": ("packed", _patch("codes", dtype="<i8")),
    "packed-dtype-not-a-string": ("packed", _patch("labels", dtype=1)),
    "packed-b64-not-a-string": ("packed", _patch("labels", b64=[1])),
    "packed-extra-key": ("packed", _patch("v", shape=[3])),
    "packed-missing-b64": ("packed", _set_lane("f", lambda lane: {"dtype": lane["dtype"]})),
    "packed-codes-not-whole-rows": ("packed", _set_lane("codes", lambda __: packed(np.zeros(7), "|u1"))),
    "packed-codes-row-count": ("packed", _set_lane("codes", lambda __: packed(np.zeros(6), "|u1"))),
    "packed-labels-count": ("packed", _set_lane("labels", lambda __: packed([0, 1], "|u1"))),
    "packed-labels-not-0-1": ("packed", _fill("labels", 2)),
    "packed-code-out-of-range": ("packed", _fill("codes", 250)),
}


class TestFraming:
    def test_round_trip(self):
        payload = {"hello": "world", "n": 3}
        kind, body = decode_frame(encode_frame(KIND_REQUEST, payload))
        assert kind == KIND_REQUEST
        assert json.loads(body) == payload

    def test_response_and_error_kinds_encode(self):
        for kind in (protocol.KIND_RESPONSE, protocol.KIND_ERROR):
            got, __ = decode_frame(encode_frame(kind, {}))
            assert got == kind

    def test_unknown_kind_rejected_on_encode(self):
        with pytest.raises(ValueError):
            encode_frame(7, {})

    def test_truncated_header(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(b"RPS")
        assert excinfo.value.code == "truncated"

    def test_truncated_payload(self):
        frame = encode_frame(KIND_REQUEST, {"a": 1})
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(frame[:-2])
        assert excinfo.value.code == "truncated"

    def test_bad_magic(self):
        frame = b"XXXX" + encode_frame(KIND_REQUEST, {})[4:]
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(frame)
        assert excinfo.value.code == "bad_frame"

    def test_bad_version(self):
        frame = bytearray(encode_frame(KIND_REQUEST, {}))
        frame[4] = 99
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(bytes(frame))
        assert excinfo.value.code == "bad_frame"

    def test_bad_kind(self):
        frame = bytearray(encode_frame(KIND_REQUEST, {}))
        frame[5] = 9
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(bytes(frame))
        assert excinfo.value.code == "bad_frame"

    def test_oversized_declaration(self):
        header = FRAME_HEADER.pack(MAGIC, protocol.PROTOCOL_VERSION, KIND_REQUEST, 10_000)
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(header + b"x" * 10_000, max_payload=100)
        assert excinfo.value.code == "oversized_payload"


class TestParseRequest:
    def test_valid_minimal(self, case):
        request = parse_request(request_bytes(case))
        assert request.case.case_id == case.case_id
        assert request.tenant == "default"
        assert request.k is None and request.deadline_ms is None

    def test_full_fields(self, case):
        request = parse_request(
            request_bytes(case, tenant="edge", k=3, deadline_ms=50, request_id="r7")
        )
        assert request.tenant == "edge"
        assert request.k == 3
        assert request.deadline_ms == 50.0
        assert request.request_id == "r7"

    def test_tenant_falls_back_to_case_metadata(self, case):
        data = {"case": case_to_dict(case)}
        data["case"]["metadata"]["tenant"] = "from-meta"
        request = parse_request(json.dumps(data).encode())
        assert request.tenant == "from-meta"

    def test_bad_json(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b"{nope")
        assert excinfo.value.code == "bad_json"

    def test_non_utf8(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b"\xff\xfe\x00")
        assert excinfo.value.code == "bad_json"

    def test_not_an_object(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b"[1, 2]")
        assert excinfo.value.code == "bad_request"

    def test_missing_case(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b'{"tenant": "a"}')
        assert excinfo.value.code == "bad_request"

    def test_unknown_field(self, case):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(request_bytes(case, wat=1))
        assert excinfo.value.code == "bad_request"

    @pytest.mark.parametrize("k", [0, -1, 1.5, "3", True])
    def test_bad_k(self, case, k):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(request_bytes(case, k=k))
        assert excinfo.value.code == "bad_request"

    @pytest.mark.parametrize("deadline", [0, -5, "fast", True])
    def test_bad_deadline(self, case, deadline):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(request_bytes(case, deadline_ms=deadline))
        assert excinfo.value.code == "bad_request"

    def test_bad_case_bundle(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b'{"case": {"schema": "not-a-schema"}}')
        assert excinfo.value.code == "bad_case"

    def test_lanes_travel_packed(self, case):
        data = json.loads(request_bytes(case))["case"]
        assert data["codes"]["dtype"] == "|u1"
        assert data["labels"]["dtype"] == "|u1"
        assert data["v"]["dtype"] == data["f"]["dtype"] == "<f8"

    def test_list_form_still_parses(self, case):
        request = parse_request(json.dumps({"case": list_form(case)}).encode())
        for lane in ("codes", "v", "f", "labels"):
            got = getattr(request.case.dataset, lane)
            assert got.tobytes() == getattr(case.dataset, lane).tobytes()

    @pytest.mark.parametrize("name", sorted(MALFORMED_CASES))
    def test_malformed_case_is_bad_case(self, case, name):
        form, mutate = MALFORMED_CASES[name]
        data = list_form(case) if form == "list" else case_to_dict(case)
        mutate(data)
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(json.dumps({"case": data}).encode())
        assert excinfo.value.code == "bad_case"


class TestBodies:
    def test_ok_status_is_200(self):
        body = ok_body(
            case_id="c", tenant="t", root_causes=[], seconds=0.1,
            tier=None, stop_reason=None, shard=0, request_id=None,
        )
        assert body["tier"] == "full"
        assert http_status_for(body) == 200

    def test_every_error_code_maps(self):
        for code, status in ERROR_CODES.items():
            assert http_status_for(error_body(code, "x")) == status

    def test_every_shed_code_maps(self):
        for code, status in SHED_CODES.items():
            assert http_status_for(shed_body(code)) == status

    def test_unknown_codes_rejected(self):
        with pytest.raises(ValueError):
            error_body("nope", "x")
        with pytest.raises(ValueError):
            shed_body("nope")
        with pytest.raises(ValueError):
            ProtocolError("nope", "x")

    def test_code_sets_disjoint(self):
        assert not set(ERROR_CODES) & set(SHED_CODES)
