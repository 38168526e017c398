"""Serialization of schemas, leaf tables, and localization cases.

Three interchange formats are provided:

* **CSV** for the leaf table itself — one column per attribute plus
  ``v``, ``f``, ``label`` — matching the layout of Table III and of the
  published Squeeze dataset's per-timestamp CSV files, so externally
  produced data can be dropped in.
* **JSON** for full :class:`~repro.data.injection.LocalizationCase` bundles
  (schema + leaf table + ground-truth RAPs + metadata), used to persist
  generated benchmarks so experiment runs are replayable byte-for-byte,
  and as the ``case`` object of every serving request.  The four
  leaf-table lanes (``codes``, ``v``, ``f``, ``labels``) are written as
  **packed lanes** — ``{"dtype": "<f8", "b64": "..."}``, the base64 of
  the raw little-endian buffer — so a lane decodes with one base64 pass
  and one ``np.frombuffer``, keeping every bit (NaN payloads, ``-0.0``)
  and building no per-leaf Python objects.  :func:`case_from_dict` also
  reads the older plain-list form, so hand-written JSON and earlier
  ``.json`` files keep working; both forms are validated strictly
  (:data:`LANE_DTYPES`, integer codes, 0/1 labels, numeric values).
* **NPZ** for the same bundles in binary form: the four leaf-table arrays
  are stored as raw numpy buffers with the non-array fields in an
  embedded JSON header.  ``.npz`` is the fast path for many bundles on
  disk and the batch execution layer's replay inputs.
  :func:`save_cases` / :func:`load_cases` pick the format by suffix.
"""

from __future__ import annotations

import base64
import binascii
import csv
import io
import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from ..core.attribute import AttributeCombination, AttributeSchema
from .dataset import FineGrainedDataset
from .injection import LocalizationCase

__all__ = [
    "LANE_DTYPES",
    "dataset_to_csv",
    "dataset_from_csv",
    "schema_to_dict",
    "schema_from_dict",
    "case_to_dict",
    "case_from_dict",
    "save_cases",
    "load_cases",
    "save_cases_npz",
    "load_cases_npz",
    "write_cases_npz",
    "read_cases_npz",
    "cases_to_npz_bytes",
    "cases_from_npz_bytes",
]

PathLike = Union[str, Path]

#: Packed-lane dtypes :func:`case_from_dict` accepts, per lane (numpy
#: ``dtype.str`` spelling: explicit byte order, fixed width).  Codes take
#: the narrowest unsigned width that holds the schema's largest code.
LANE_DTYPES: Dict[str, Tuple[str, ...]] = {
    "codes": ("|u1", "<u2", "<u4", "<u8"),
    "v": ("<f8",),
    "f": ("<f8",),
    "labels": ("|u1",),
}

#: Element types the plain-list form accepts per lane (exact types, so
#: JSON ``true`` is not a code and ``"3.5"`` is not a value).
_LIST_TYPES: Dict[str, Tuple[type, ...]] = {
    "codes": (int,),
    "v": (int, float),
    "f": (int, float),
    "labels": (bool, int),
}


def schema_to_dict(schema: AttributeSchema) -> Dict:
    """JSON-ready representation of a schema."""
    return {name: list(schema.elements(name)) for name in schema.names}


def schema_from_dict(data: Dict) -> AttributeSchema:
    """Inverse of :func:`schema_to_dict`."""
    return AttributeSchema({name: list(elements) for name, elements in data.items()})


def dataset_to_csv(dataset: FineGrainedDataset, path: PathLike) -> None:
    """Write a leaf table as CSV with attribute columns plus ``v,f,label``."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(dataset.schema.names) + ["v", "f", "label"])
        for values, v, f, label in dataset.to_records():
            writer.writerow(list(values) + [repr(v), repr(f), int(label)])


def dataset_from_csv(path: PathLike, schema: AttributeSchema) -> FineGrainedDataset:
    """Read a leaf table written by :func:`dataset_to_csv` (or compatible)."""
    path = Path(path)
    rows = []
    labels = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path} is empty")
        expected = list(schema.names) + ["v", "f", "label"]
        if header != expected:
            raise ValueError(f"{path} header {header} does not match schema columns {expected}")
        n_attrs = schema.n_attributes
        for line in reader:
            if not line:
                continue
            values = tuple(line[:n_attrs])
            rows.append((values, float(line[n_attrs]), float(line[n_attrs + 1])))
            labels.append(bool(int(line[n_attrs + 2])))
    return FineGrainedDataset.from_rows(schema, rows, labels)


def case_to_dict(case: LocalizationCase) -> Dict:
    """JSON-ready representation of a localization case (packed lanes)."""
    dataset = case.dataset
    largest = max(dataset.schema.sizes, default=1) - 1
    code_dtype = next(
        d for d in LANE_DTYPES["codes"] if largest <= np.iinfo(np.dtype(d)).max
    )
    return {
        "case_id": case.case_id,
        "schema": schema_to_dict(dataset.schema),
        "codes": _pack(dataset.codes, code_dtype),
        "v": _pack(dataset.v, "<f8"),
        "f": _pack(dataset.f, "<f8"),
        "labels": _pack(dataset.labels, "|u1"),
        "true_raps": [str(rap) for rap in case.true_raps],
        "metadata": _jsonify(case.metadata),
    }


def case_from_dict(data: Dict) -> LocalizationCase:
    """Inverse of :func:`case_to_dict`; also reads the plain-list form.

    Malformed input raises (``ValueError`` for a bad lane) instead of
    being coerced: a lane must be a packed lane with a whitelisted dtype
    and whole items, or a list holding only the lane's JSON type; codes
    must fit the schema's attribute count and ranges, ``v``/``f``/
    ``labels`` must match the row count, and labels must be 0/1.
    """
    schema = schema_from_dict(data["schema"])
    codes, v, f, labels = (_lane(data, name) for name in ("codes", "v", "f", "labels"))
    if codes.ndim == 1:
        if codes.size % schema.n_attributes:
            raise ValueError(
                f"codes hold {codes.size} elements, not a multiple of "
                f"{schema.n_attributes} attributes"
            )
        codes = codes.reshape(-1, schema.n_attributes)
    if labels.size and (labels.min() < 0 or labels.max() > 1):
        raise ValueError("labels must be 0/1")
    dataset = FineGrainedDataset(
        schema,
        codes.astype(np.int64),
        np.array(v, dtype=np.float64),
        np.array(f, dtype=np.float64),
        labels.astype(bool),
    )
    raps = tuple(AttributeCombination.parse(text) for text in data["true_raps"])
    return LocalizationCase(
        case_id=data["case_id"],
        dataset=dataset,
        true_raps=raps,
        metadata=dict(data.get("metadata", {})),
    )


def _pack(array: np.ndarray, dtype: str) -> Dict[str, str]:
    """One packed lane: *array* as *dtype*, base64 of the raw buffer."""
    buffer = np.ascontiguousarray(array, dtype=dtype)
    return {"dtype": dtype, "b64": binascii.b2a_base64(buffer, newline=False).decode("ascii")}


def _lane(data: Dict, name: str) -> np.ndarray:
    """Decode lane *name* of a case bundle, packed or list form, strictly."""
    lane = data[name]
    if isinstance(lane, dict):
        if set(lane) != {"dtype", "b64"}:
            raise ValueError(f"packed lane {name!r} must hold exactly 'dtype' and 'b64'")
        dtype, text = lane["dtype"], lane["b64"]
        if not isinstance(dtype, str) or dtype not in LANE_DTYPES[name]:
            raise ValueError(
                f"packed lane {name!r} dtype {dtype!r} is not one of {LANE_DTYPES[name]}"
            )
        if not isinstance(text, str):
            raise ValueError(f"packed lane {name!r} 'b64' must be a string")
        raw = base64.b64decode(text, validate=True)
        itemsize = np.dtype(dtype).itemsize
        if len(raw) % itemsize:
            raise ValueError(
                f"packed lane {name!r} holds {len(raw)} bytes, not a multiple "
                f"of the {dtype} itemsize {itemsize}"
            )
        return np.frombuffer(raw, dtype=dtype)
    if isinstance(lane, list):
        values = np.array(lane, dtype=object)
        allowed = _LIST_TYPES[name]
        for value in values.flat:
            if type(value) not in allowed:
                raise ValueError(f"lane {name!r} holds {value!r}, not {allowed}")
        return values.astype(np.float64 if float in allowed else np.int64)
    raise ValueError(f"lane {name!r} must be a packed lane object or a list")


def save_cases(cases: Sequence[LocalizationCase], path: PathLike) -> None:
    """Persist a case list; the suffix picks the format (``.npz`` or JSON)."""
    path = Path(path)
    if path.suffix == ".npz":
        save_cases_npz(cases, path)
        return
    payload = {"format": "repro.cases.v1", "cases": [case_to_dict(c) for c in cases]}
    with path.open("w") as handle:
        json.dump(payload, handle)


def load_cases(path: PathLike) -> List[LocalizationCase]:
    """Load a case list written by :func:`save_cases` (format by suffix)."""
    path = Path(path)
    if path.suffix == ".npz":
        return load_cases_npz(path)
    with path.open() as handle:
        payload = json.load(handle)
    if payload.get("format") != "repro.cases.v1":
        raise ValueError(f"{path} is not a repro case bundle")
    return [case_from_dict(entry) for entry in payload["cases"]]


#: Format tag embedded in the npz header; bump on layout changes.
NPZ_FORMAT = "repro.cases.npz.v1"


def save_cases_npz(cases: Sequence[LocalizationCase], path: PathLike) -> None:
    """Persist a case list as one uncompressed ``.npz`` archive.

    The leaf-table arrays (``codes``, ``v``, ``f``, ``labels``) are written
    as raw numpy buffers — dtypes and bit patterns survive exactly, unlike
    the JSON path's ``tolist()``/re-parse round trip — and everything
    non-array (schema, RAP strings, metadata) rides in a JSON header
    stored as a ``uint8`` byte array, so loading never needs
    ``allow_pickle``.
    """
    path = Path(path)
    with path.open("wb") as handle:
        write_cases_npz(cases, handle)


def write_cases_npz(cases: Sequence[LocalizationCase], handle) -> None:
    """:func:`save_cases_npz` onto an open binary file object.

    Split out so the fleet's segment log (:mod:`repro.fleet.store`) can
    embed npz-encoded cases as in-memory record blobs without a
    filesystem round trip.
    """
    header = {
        "format": NPZ_FORMAT,
        "cases": [
            {
                "case_id": case.case_id,
                "schema": schema_to_dict(case.dataset.schema),
                "true_raps": [str(rap) for rap in case.true_raps],
                "metadata": _jsonify(case.metadata),
            }
            for case in cases
        ],
    }
    arrays = {
        "header": np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    }
    for i, case in enumerate(cases):
        dataset = case.dataset
        arrays[f"codes_{i}"] = dataset.codes
        arrays[f"v_{i}"] = dataset.v
        arrays[f"f_{i}"] = dataset.f
        arrays[f"labels_{i}"] = dataset.labels
    np.savez(handle, **arrays)


def cases_to_npz_bytes(cases: Sequence[LocalizationCase]) -> bytes:
    """The exact :func:`save_cases_npz` byte stream, in memory."""
    buffer = io.BytesIO()
    write_cases_npz(cases, buffer)
    return buffer.getvalue()


def cases_from_npz_bytes(data: bytes) -> List[LocalizationCase]:
    """Inverse of :func:`cases_to_npz_bytes` (bit-exact round trip)."""
    return read_cases_npz(io.BytesIO(data))


def load_cases_npz(path: PathLike) -> List[LocalizationCase]:
    """Load a case list written by :func:`save_cases_npz`."""
    return read_cases_npz(Path(path))


def read_cases_npz(source) -> List[LocalizationCase]:
    """:func:`load_cases_npz` from a path or open binary file object."""
    with np.load(source, allow_pickle=False) as archive:
        if "header" not in archive:
            raise ValueError(f"{source} is not a repro npz case bundle")
        header = json.loads(archive["header"].tobytes().decode("utf-8"))
        if header.get("format") != NPZ_FORMAT:
            raise ValueError(f"{source} is not a repro npz case bundle")
        cases = []
        for i, entry in enumerate(header["cases"]):
            schema = schema_from_dict(entry["schema"])
            dataset = FineGrainedDataset(
                schema,
                archive[f"codes_{i}"],
                archive[f"v_{i}"],
                archive[f"f_{i}"],
                archive[f"labels_{i}"],
            )
            raps = tuple(
                AttributeCombination.parse(text) for text in entry["true_raps"]
            )
            cases.append(
                LocalizationCase(
                    case_id=entry["case_id"],
                    dataset=dataset,
                    true_raps=raps,
                    metadata=dict(entry.get("metadata", {})),
                )
            )
    return cases


def _jsonify(value):
    """Coerce numpy scalars / tuples in metadata into JSON-native types."""
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value
