"""Ingestion and persistence: `t,value` CSV and JSON model documents.

CSV contract: UTF-8, header line exactly ``t,value``, one record per line,
``.`` decimal point, LF or CRLF endings, strictly increasing times.  Parse
errors carry the 1-based line number.  Model documents are JSON objects with
fields ``a``, ``b``, ``c``, optional ``forcing {kappa, alpha, eta}`` and an
optional ``metadata`` string map; unknown fields are rejected with their
path.  Both formats round-trip doubles exactly through shortest-repr
rendering.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyBodyError,
    MalformedHeaderError,
    MissingFieldError,
    NonMonotonicTimeError,
    NonNumericFieldError,
    TypeMismatchError,
    UnknownFieldError,
)
from .integrator import ForcingSpec, GoodwillSpec
from .model import ModelParams
from .series import TimeSeries

__all__ = [
    "ModelDocument",
    "decode_model_document",
    "encode_model_document",
    "format_number",
    "load_timeseries_csv",
    "write_forecast_csv",
    "write_timeseries_csv",
]

_HEADER = "t,value"
# the bytes of a body that _load_plain parses in one pass
_PLAIN_BYTES = b"0123456789+-.eE,\n"


@dataclass(frozen=True)
class ModelDocument:
    """Model parameters plus optional forcing and free-form metadata."""

    params: ModelParams
    forcing: ForcingSpec | None = None
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key, value in self.metadata.items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise TypeError("metadata must map strings to strings")
        object.__setattr__(self, "metadata", dict(self.metadata))


def format_number(value: float) -> str:
    """Shortest decimal that parses back to the same double: ``repr`` with
    the trailing ``.0`` of an integral value dropped (1.0 renders as ``1``,
    -0.0 as ``-0``, 1e16 as ``1e+16``; inf and nan render as repr does).
    """
    return repr(value).removesuffix(".0")


def _parse_field(token: str, line_number: int, column: str) -> float:
    if token != token.strip() or "_" in token:
        raise NonNumericFieldError(
            f"line {line_number}: {column} field {token!r} is not a plain decimal"
        )
    try:
        value = float(token)
    except ValueError:
        raise NonNumericFieldError(
            f"line {line_number}: {column} field {token!r} is not a number"
        ) from None
    if not math.isfinite(value):
        raise NonNumericFieldError(
            f"line {line_number}: {column} field {token!r} is not finite"
        )
    return value


def _load_plain(text: str) -> TimeSeries | None:
    """Parse the CSV in one np.loadtxt pass, or return None if it is bad.

    Only a nonempty body of ``_PLAIN_BYTES`` with no blank line and two
    fields a record is parsed: loadtxt would skip blank lines, comments and
    whitespace that the contract refuses.  Over those bytes loadtxt reads
    each field as float() does, so every good body is taken here.
    """
    # end the last line in \n too, so that a lone \r ending it is dropped
    text = (text if text.endswith("\n") else text + "\n").replace("\r\n", "\n")
    if not (text.startswith(_HEADER + "\n") and text.isascii()):
        return None
    body = text[len(_HEADER) + 1 :]
    if not body or "\n\n" in text or body.encode("ascii").translate(None, _PLAIN_BYTES):
        return None
    try:
        fields = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        return TimeSeries(fields[:, 0], fields[:, 1]) if fields.shape[1] == 2 else None
    except ValueError:  # a bad field, a field count that changes, inf or a time out of order
        return None


def load_timeseries_csv(data: bytes | str) -> TimeSeries:
    """Parse a `t,value` CSV byte stream into a TimeSeries."""
    try:
        text = data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data
    except UnicodeDecodeError as exc:
        line_number = data.count(b"\n", 0, exc.start) + 1
        error = MalformedHeaderError if line_number == 1 else NonNumericFieldError
        raise error(f"line {line_number}: invalid UTF-8 ({exc.reason})") from None
    series = _load_plain(text)
    if series is not None:
        return series
    # _load_plain takes every good body, so this pass only names the first bad line
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    if not lines or lines[0] != _HEADER:
        got = lines[0] if lines else ""
        raise MalformedHeaderError(f"expected header {_HEADER!r}, got {got!r}")
    if not text.isascii():  # float() would accept non-ASCII digits
        line_number = next(n for n, line in enumerate(lines, 1) if not line.isascii())
        raise NonNumericFieldError(
            f"line {line_number}: {lines[line_number - 1]!r} has a non-ASCII "
            "character; fields must be plain decimals"
        )
    previous = -math.inf
    for line_number, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 2:
            raise NonNumericFieldError(
                f"line {line_number}: expected 2 comma-separated fields, "
                f"got {len(fields)}"
            )
        t = _parse_field(fields[0], line_number, "t")
        _parse_field(fields[1], line_number, "value")
        if t <= previous:
            raise NonMonotonicTimeError(
                f"line {line_number}: time {format_number(t)} does not increase "
                f"past {format_number(previous)}"
            )
        previous = t
    raise EmptyBodyError("CSV has a header but no records")


def _emit_csv(header: str, *columns: np.ndarray) -> bytes:
    # format_number's rule, written out: a call per field costs 7-14 % more
    fields = ([r.removesuffix(".0") for r in map(repr, col.tolist())] for col in columns)
    return "\n".join([header, *map(",".join, zip(*fields)), ""]).encode("utf-8")


def write_timeseries_csv(series: TimeSeries) -> bytes:
    """Emit the exact format accepted by load_timeseries_csv."""
    return _emit_csv(_HEADER, series.times, series.values)


def write_forecast_csv(influence: TimeSeries, rate: TimeSeries) -> bytes:
    """Emit a ``t,value,rate`` CSV from forecast's two series on one grid."""
    return _emit_csv("t,value,rate", influence.times, influence.values, rate.values)


# --- model documents -------------------------------------------------------


def encode_model_document(document: ModelDocument) -> str:
    """Serialize a ModelDocument to deterministic JSON text."""
    params = document.params
    obj: dict = {"a": params.a, "b": params.b, "c": params.c}
    forcing = document.forcing
    if forcing is not None:
        block: dict = {}
        if forcing.theta is not None:
            block["kappa"] = forcing.theta.kappa
            block["alpha"] = forcing.theta.alpha
        if isinstance(forcing.eta, TimeSeries):
            block["eta"] = [[t, v] for t, v in forcing.eta]
        elif forcing.eta is not None:
            block["eta"] = forcing.eta
        obj["forcing"] = block
    if document.metadata:
        obj["metadata"] = {k: document.metadata[k] for k in sorted(document.metadata)}
    return json.dumps(obj, indent=2) + "\n"


def _unique_fields(pairs: list) -> dict:
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise TypeMismatchError(f"field {key!r} appears more than once")
        seen.add(key)
    return dict(pairs)


def _number(value, path: str) -> float:
    """The one JSON number rule: a non-bool int or float that is a finite double."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeMismatchError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the double range
        number = math.inf
    if not math.isfinite(number):
        raise TypeMismatchError(f"{path}: expected a finite number")
    return number


def _fields(obj, path: str, allowed: tuple[str, ...]) -> None:
    """Check that obj is an object with no field outside allowed."""
    if not isinstance(obj, dict):
        raise TypeMismatchError(f"{path or 'root'}: expected an object, got {obj!r}")
    for key in obj:
        if key not in allowed:
            raise UnknownFieldError(f"{path}.{key}" if path else key)


def _require(obj: dict, key: str, path: str) -> float:
    if key not in obj:
        raise MissingFieldError(path)
    return _number(obj[key], path)


def _decode_forcing(block) -> ForcingSpec:
    _fields(block, "forcing", ("kappa", "alpha", "eta"))
    theta = eta = None
    if "kappa" in block or "alpha" in block:
        theta = GoodwillSpec(
            _require(block, "kappa", "forcing.kappa"), _require(block, "alpha", "forcing.alpha")
        )
    if "eta" in block:  # not block.get: "eta": null is a type error
        raw = block["eta"]
        if not isinstance(raw, list):
            eta = _number(raw, "forcing.eta")
        elif all(isinstance(item, list) and len(item) == 2 for item in raw):
            eta = TimeSeries.from_pairs(
                [_number(x, f"forcing.eta[{i}]") for x in item] for i, item in enumerate(raw)
            )
        else:
            raise TypeMismatchError("forcing.eta: expected a list of [time, value] pairs")
    return ForcingSpec(theta=theta, eta=eta)


def decode_model_document(text: str | bytes) -> ModelDocument:
    """Parse JSON text into a validated ModelDocument.

    Unknown fields are rejected with their dotted path; numbers are parsed
    at full double precision; the domain constraints of ModelParams,
    GoodwillSpec and TimeSeries (c >= 0, kappa > 0, ...) become
    TypeMismatchError, never clamped values.
    """
    try:
        if isinstance(text, (bytes, bytearray)):
            text = text.decode("utf-8")
        obj = json.loads(text, object_pairs_hook=_unique_fields)
    except ValueError as exc:  # bad UTF-8 or JSON, or an integer too long to parse
        raise TypeMismatchError(f"document is not valid JSON: {exc}") from None
    _fields(obj, "", ("a", "b", "c", "forcing", "metadata"))
    try:
        params = ModelParams(*(_require(obj, key, key) for key in ("a", "b", "c")))
    except ValueError as exc:
        raise TypeMismatchError(str(exc)) from None
    try:
        forcing = _decode_forcing(obj["forcing"]) if "forcing" in obj else None
    except ValueError as exc:
        raise TypeMismatchError(f"forcing: {exc}") from None
    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict):
        raise TypeMismatchError("metadata: expected an object")
    try:
        return ModelDocument(params=params, forcing=forcing, metadata=metadata)
    except TypeError as exc:
        raise TypeMismatchError(f"metadata: {exc}") from None
