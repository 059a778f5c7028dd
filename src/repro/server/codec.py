"""JSON codec of the `/v1` wire: one :func:`encode` and one :func:`decode`.

Both follow the declarations in :mod:`repro.server.api`, compiled once into
one straight-line function per class and direction: the code a hand-written
codec would be.  Decode errors are :class:`TransportError`,
which the HTTP layer returns as a precise 400.  A missing field is named by
its key, a wrong value by its path: a nested object field prefixes its
children's names (``box.x``), while the items of an array start afresh.
"""

from __future__ import annotations

import base64
import binascii
import dataclasses
import functools
import json
import types
import typing
from collections.abc import Mapping, Sequence
from typing import Any, Callable, TypeVar

from repro.exceptions import DatasetError, TransportError
from repro.server import api
from repro.server.api import MAX_RESULT_COUNT

T = TypeVar("T")


def validate_count(count: int) -> int:
    """Bound-check a next-results count (every transport rejects identically)."""
    if count < 1:
        raise TransportError(f"Field 'count' must be >= 1, got {count}")
    if count > MAX_RESULT_COUNT:
        raise TransportError(
            f"Field 'count' must be <= {MAX_RESULT_COUNT}, got {count}"
        )
    return count


# ---------------------------------------------------------------------------
# the walk, compiled once per class
# ---------------------------------------------------------------------------
def encode(message: Any) -> "dict[str, Any]":
    """The JSON payload of one declared message."""
    return (_ENCODERS.get(type(message)) or _encoder(type(message)))(message)


def decode(cls: "type[T]", data: Any, **known: Any) -> T:
    """The ``cls`` message in a JSON payload.

    ``known`` values replace the payload's fields of the same name, as the
    session id in a URL replaces a body's.
    """
    if known and (isinstance(data, dict) or isinstance(data, Mapping)):
        data = {**data, **known}
    return _decoder(cls)(data)


_ENCODERS: "dict[type, Callable[[Any], dict[str, Any]]]" = {}
"""Every declared message's encoder, for the one lookup ``encode`` makes."""

_SCALARS = {
    str: ("not isinstance({0}, str)", "a string"),
    int: ("isinstance({0}, bool) or not isinstance({0}, int)", "an integer"),
    float: ("isinstance({0}, bool) or not isinstance({0}, (int, float))", "a number"),
    bool: ("not isinstance({0}, bool)", "a boolean"),
    dict: ("not isinstance({0}, dict) and not isinstance({0}, Mapping)", "a JSON object"),
}
"""Each scalar wire type: the test that rejects a value, and its noun."""


def _wire_fields(cls: type) -> "list[tuple[dataclasses.Field[Any], type, bool, bool]]":
    """Each field of ``cls``, its item type, and whether it is an array, nullable."""
    hints = typing.get_type_hints(cls)
    declared = []
    for f in dataclasses.fields(cls):
        annotation, nullable = hints[f.name], False
        if typing.get_origin(annotation) in (typing.Union, types.UnionType):
            (annotation,) = [a for a in typing.get_args(annotation) if a is not type(None)]
            nullable = True
        array = typing.get_origin(annotation) in (tuple, Sequence)
        item = typing.get_args(annotation)[0] if array else annotation
        declared.append((f, item, array, nullable))
    return declared


def _compile(argument: str, body: "list[str]", namespace: "dict[str, Any]") -> Any:
    # The source is built from the declarations alone, never from a payload.
    exec("\n    ".join([f"def codec({argument}):", *body]), namespace)
    return namespace["codec"]


def _indent(lines: "list[str]") -> "list[str]":
    return [f"    {line}" for line in lines]


def _raise(message: str) -> str:
    return f"raise TransportError({message!r})"


@functools.cache
def _encoder(cls: type) -> "Callable[[Any], dict[str, Any]]":
    namespace: "dict[str, Any]" = {}
    payload, omitted = _payload(cls, "obj", namespace)
    return _compile("obj", [f"out = {payload}", *omitted, "return out"], namespace)


def _payload(cls: type, obj: str, namespace: "dict[str, Any]") -> "tuple[str, list[str]]":
    """A dict display of the ``cls`` at ``obj``, and the statements adding the
    fields it omits while unset.

    Nested objects and array items are displayed inline, as a hand-written
    encoder would; one that may be null or omits unset fields calls its
    class's encoder.
    """
    entries, omitted = [], []
    for f, item, array, nullable in _wire_fields(cls):
        value = expr = f"{obj}.{f.name}"
        if dataclasses.is_dataclass(item):
            each = f"{f.name}_item"  # comprehensions scope it: nesting cannot clash
            inline, inline_omits = _payload(item, each if array else value, namespace)
            if nullable or inline_omits:
                convert = f"encode_{len(namespace)}"
                namespace[convert] = _encoder(item)
                expr = f"[{convert}(x) for x in {value}]" if array else f"{convert}({value})"
                if nullable:
                    expr = f"(None if {value} is None else {expr})"
            else:
                expr = f"[{inline} for {each} in {value}]" if array else inline
        elif array:
            expr = f"list({value})"
        if f.metadata.get("revision", 1) > 1 and f.default is None:
            omitted += [f"if {value} is not None:", f"    out[{f.name!r}] = {expr}"]
        else:
            entries.append(f"{f.name!r}: {expr}")
    return "{" + ", ".join(entries) + "}", omitted


@functools.cache
def _decoder(cls: type, prefix: str = "", context: "str | None" = None) -> "Callable[[Any], Any]":
    """The decoder of ``cls``, or of a nested object field whose path is ``prefix``."""
    namespace = {"Mapping": Mapping, "Sequence": Sequence, "TransportError": TransportError}
    context = context or f"{api.CONTEXT_NAMES.get(cls, cls.__name__)} must be a JSON object"
    body, arguments = [], []
    for i, (f, item, array, nullable) in enumerate(_wire_fields(cls)):
        var = f"v{i}"
        if f.default is not dataclasses.MISSING:
            namespace[f"default{i}"], absent = f.default, f"{var} = default{i}"
        elif f.default_factory is not dataclasses.MISSING:
            namespace[f"default{i}"], absent = f.default_factory, f"{var} = default{i}()"
        else:
            absent = _raise(f"Missing required field {f.name!r}")
        checks = _check(var, item, array, prefix + f.name, f.metadata, namespace)
        if nullable:
            checks = [f"if {var} is not None:", *_indent(checks)]
        body += [f"if {f.name!r} in data:", f"    {var} = data[{f.name!r}]"]
        body += [*_indent(checks), "else:", f"    {absent}"]
        arguments.append(f"{f.name}={var}")
    body.append(f"return cls({', '.join(arguments)})")
    namespace["cls"] = cls
    if cls in api.DATASET_RECORDS:
        namespace["DatasetError"] = DatasetError
        invalid = f"Invalid {api.DATASET_RECORDS[cls]}: "
        body = ["try:", *_indent(body), "except DatasetError as exc:"]
        body.append(f"    raise TransportError({invalid!r} + str(exc)) from exc")
    # A parsed payload's objects are dicts and its arrays lists: those are
    # tested first, ahead of the slower abstract-base-class checks.
    guard = ["if not isinstance(data, dict) and not isinstance(data, Mapping):"]
    return _compile("data", [*guard, f"    {_raise(context)}", *body], namespace)


def _check(
    var: str,
    item: type,
    array: bool,
    path: str,
    metadata: "Mapping[str, Any]",
    namespace: "dict[str, Any]",
) -> "list[str]":
    """Statements that validate (and convert) ``var``, the value at ``path``."""
    if array:
        lines = [
            f"if not isinstance({var}, (list, tuple)) and ("
            f"isinstance({var}, (str, bytes)) or not isinstance({var}, Sequence)):",
            f"    {_raise(f'Field {path!r} must be an array')}",
        ]
        if dataclasses.is_dataclass(item):
            namespace[f"decode_{var}"] = _decoder(item)
            lines.append(f"{var} = tuple([decode_{var}(x) for x in {var}])")
        else:
            lines += ["items = []", f"for x in {var}:"]
            lines += _indent(_check("x", item, False, path, {}, namespace))
            lines += ["    items.append(x)", f"{var} = tuple(items)"]
        if metadata.get("nonempty"):
            lines += [f"if not {var}:", f"    {_raise(f'Field {path!r} must not be empty')}"]
        return lines
    if dataclasses.is_dataclass(item):
        context = f"Field {path!r} must be a JSON object"
        namespace[f"decode_{var}"] = _decoder(item, path + ".", context)
        return [f"{var} = decode_{var}({var})"]
    test, noun = _SCALARS[item]
    lines = [f"if {test.format(var)}:", f"    {_raise(f'Field {path!r} must be {noun}')}"]
    if item is float:
        lines.append(f"{var} = float({var})")
    if "max" in metadata:
        too_large = f"Field {path!r} must be <= {metadata['max']}, got "
        lines += [f"if {var} > {metadata['max']!r}:"]
        lines += [f"    raise TransportError({too_large!r} + str({var}))"]
    return lines


# Compiled at import (≈ 10 ms for all), so no request pays a compile.  Peak
# RSS no longer depends on it: with the heap thresholds the service freezes,
# compiling on first use reads within 0.5 MB of this on live_rw.
for _message in vars(api).values():
    if dataclasses.is_dataclass(_message) and _message.__module__ == api.__name__:
        _ENCODERS[_message] = _encoder(_message)
        _decoder(_message)

# The direct codec timings of perf/run.py call these names.
encode_feedback_request = encode_next_results_response = encode


def decode_feedback_request(
    data: Any, session_id: "str | None" = None
) -> api.FeedbackRequest:
    """Decode a feedback body; ``session_id`` from the URL wins over the body."""
    if session_id is None:
        return decode(api.FeedbackRequest, data)
    return decode(api.FeedbackRequest, data, session_id=session_id)


# ---------------------------------------------------------------------------
# paging cursors
# ---------------------------------------------------------------------------
def encode_cursor(sequence: int) -> str:
    """Encode a session creation sequence number as an opaque cursor token.

    Sequence numbers (not session ids) survive deletion: a page boundary
    stays valid even when the session it pointed at is closed before the
    next page is fetched.
    """
    return base64.urlsafe_b64encode(f"s:{sequence}".encode("ascii")).decode("ascii")


def decode_cursor(cursor: str) -> int:
    """Decode a cursor token; raises :class:`TransportError` on garbage."""
    try:
        raw = base64.urlsafe_b64decode(cursor.encode("ascii")).decode("ascii")
        prefix, _, sequence = raw.partition(":")
        if prefix != "s":
            raise ValueError(raw)
        return int(sequence)
    except (ValueError, UnicodeError, binascii.Error) as exc:
        raise TransportError(f"Malformed cursor '{cursor}'") from exc


# ---------------------------------------------------------------------------
# wire helpers
# ---------------------------------------------------------------------------
def dump_json(payload: Mapping[str, Any]) -> bytes:
    """Serialize a response payload to UTF-8 JSON bytes."""
    return json.dumps(payload).encode("utf-8")


def parse_json(body: "bytes | None") -> Any:
    """Parse a request body, raising :class:`TransportError` on bad JSON."""
    if not body:
        raise TransportError("Request body must be a JSON object")
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TransportError(f"Request body is not valid JSON: {exc}") from exc
