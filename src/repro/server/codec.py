"""JSON codecs for the service API dataclasses.

Each request/response dataclass in :mod:`repro.server.api` gets an explicit
encoder (dataclass → plain dict) and decoder (plain dict → dataclass).
Decoders validate shapes and types and raise :class:`TransportError` with a
message naming the offending field, so the HTTP layer can return a precise
400 instead of a stack trace.
"""

from __future__ import annotations

import base64
import binascii
import json
from collections.abc import Mapping, Sequence
from typing import Any

from repro.data.geometry import BoundingBox
from repro.data.image import ObjectInstance, SyntheticImage
from repro.exceptions import DatasetError, TransportError
from repro.server.api import (
    BoxPayload,
    DatasetInfo,
    FeedbackRequest,
    NextResultsResponse,
    ResultItem,
    SessionInfo,
    SessionListEntry,
    SessionPage,
    StartSessionRequest,
)

MAX_RESULT_COUNT = 1024
"""Upper bound on a single ``next`` result count.  Values above it are
rejected at the app boundary with a structured 400: a count in the millions
would otherwise reach the engine and pin a worker on one request-sized top-k
for the whole corpus."""

MAX_PAGE_LIMIT = 500
"""Upper bound on one ``GET /v1/sessions`` page."""


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
# field helpers
# ---------------------------------------------------------------------------
def _require(data: Mapping[str, Any], field: str) -> Any:
    if field not in data:
        raise TransportError(f"Missing required field '{field}'")
    return data[field]


def _as_str(value: Any, field: str) -> str:
    if not isinstance(value, str):
        raise TransportError(f"Field '{field}' must be a string")
    return value


def _as_int(value: Any, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TransportError(f"Field '{field}' must be an integer")
    return value


def _as_float(value: Any, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TransportError(f"Field '{field}' must be a number")
    return float(value)


def _as_bool(value: Any, field: str) -> bool:
    if not isinstance(value, bool):
        raise TransportError(f"Field '{field}' must be a boolean")
    return value


def _as_mapping(value: Any, context: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise TransportError(f"{context} must be a JSON object")
    return value


def _as_sequence(value: Any, field: str) -> Sequence[Any]:
    if isinstance(value, (str, bytes)) or not isinstance(value, Sequence):
        raise TransportError(f"Field '{field}' must be an array")
    return value


# ---------------------------------------------------------------------------
# per-type codecs
# ---------------------------------------------------------------------------
def encode_start_session_request(request: StartSessionRequest) -> "dict[str, Any]":
    payload: "dict[str, Any]" = {
        "dataset": request.dataset,
        "text_query": request.text_query,
        "batch_size": request.batch_size,
        "multiscale": request.multiscale,
    }
    # Added at protocol revision 4; omitted when unset so revision-3 servers
    # keep accepting unpinned starts from newer clients.
    if request.dataset_version is not None:
        payload["dataset_version"] = request.dataset_version
    return payload


def decode_start_session_request(data: Any) -> StartSessionRequest:
    data = _as_mapping(data, "StartSessionRequest")
    dataset_version: "int | None" = None
    if data.get("dataset_version") is not None:
        dataset_version = _as_int(data["dataset_version"], "dataset_version")
    return StartSessionRequest(
        dataset=_as_str(_require(data, "dataset"), "dataset"),
        text_query=_as_str(_require(data, "text_query"), "text_query"),
        batch_size=_as_int(data.get("batch_size", 3), "batch_size"),
        multiscale=_as_bool(data.get("multiscale", True), "multiscale"),
        dataset_version=dataset_version,
    )


def encode_box_payload(box: BoxPayload) -> "dict[str, Any]":
    return {"x": box.x, "y": box.y, "width": box.width, "height": box.height}


def decode_box_payload(data: Any) -> BoxPayload:
    data = _as_mapping(data, "Box")
    return BoxPayload(
        x=_as_float(_require(data, "x"), "x"),
        y=_as_float(_require(data, "y"), "y"),
        width=_as_float(_require(data, "width"), "width"),
        height=_as_float(_require(data, "height"), "height"),
    )


def encode_feedback_request(request: FeedbackRequest) -> "dict[str, Any]":
    return {
        "session_id": request.session_id,
        "image_id": request.image_id,
        "relevant": request.relevant,
        "boxes": [encode_box_payload(box) for box in request.boxes],
    }


def decode_feedback_request(
    data: Any, session_id: "str | None" = None
) -> FeedbackRequest:
    """Decode a feedback body; ``session_id`` from the URL wins over the body."""
    data = _as_mapping(data, "FeedbackRequest")
    if session_id is None:
        session_id = _as_str(_require(data, "session_id"), "session_id")
    return FeedbackRequest(
        session_id=session_id,
        image_id=_as_int(_require(data, "image_id"), "image_id"),
        relevant=_as_bool(_require(data, "relevant"), "relevant"),
        boxes=tuple(
            decode_box_payload(item)
            for item in _as_sequence(data.get("boxes", ()), "boxes")
        ),
    )


def encode_result_item(item: ResultItem) -> "dict[str, Any]":
    return {
        "image_id": item.image_id,
        "score": item.score,
        "box": {
            "x": item.box_x,
            "y": item.box_y,
            "width": item.box_width,
            "height": item.box_height,
        },
    }


def decode_result_item(data: Any) -> ResultItem:
    data = _as_mapping(data, "ResultItem")
    box = _as_mapping(_require(data, "box"), "Field 'box'")
    return ResultItem(
        image_id=_as_int(_require(data, "image_id"), "image_id"),
        score=_as_float(_require(data, "score"), "score"),
        box_x=_as_float(_require(box, "x"), "box.x"),
        box_y=_as_float(_require(box, "y"), "box.y"),
        box_width=_as_float(_require(box, "width"), "box.width"),
        box_height=_as_float(_require(box, "height"), "box.height"),
    )


def encode_next_results_response(response: NextResultsResponse) -> "dict[str, Any]":
    return {
        "session_id": response.session_id,
        "items": [encode_result_item(item) for item in response.items],
        "total_shown": response.total_shown,
        "positives_found": response.positives_found,
    }


def decode_next_results_response(data: Any) -> NextResultsResponse:
    data = _as_mapping(data, "NextResultsResponse")
    return NextResultsResponse(
        session_id=_as_str(_require(data, "session_id"), "session_id"),
        items=tuple(
            decode_result_item(item)
            for item in _as_sequence(_require(data, "items"), "items")
        ),
        total_shown=_as_int(_require(data, "total_shown"), "total_shown"),
        positives_found=_as_int(_require(data, "positives_found"), "positives_found"),
    )


def encode_session_info(info: SessionInfo) -> "dict[str, Any]":
    return {
        "session_id": info.session_id,
        "dataset": info.dataset,
        "text_query": info.text_query,
        "total_shown": info.total_shown,
        "positives_found": info.positives_found,
        "rounds": info.rounds,
    }


def decode_session_info(data: Any) -> SessionInfo:
    data = _as_mapping(data, "SessionInfo")
    return SessionInfo(
        session_id=_as_str(_require(data, "session_id"), "session_id"),
        dataset=_as_str(_require(data, "dataset"), "dataset"),
        text_query=_as_str(_require(data, "text_query"), "text_query"),
        total_shown=_as_int(_require(data, "total_shown"), "total_shown"),
        positives_found=_as_int(_require(data, "positives_found"), "positives_found"),
        rounds=_as_int(_require(data, "rounds"), "rounds"),
    )


def encode_session_list_entry(entry: SessionListEntry) -> "dict[str, Any]":
    return {
        **encode_session_info(entry.info),
        "telemetry": {
            "idle_seconds": entry.idle_seconds,
            "lookup_seconds": entry.lookup_seconds,
            "update_seconds": entry.update_seconds,
            "seconds_per_round": entry.seconds_per_round,
        },
    }


def decode_session_list_entry(data: Any) -> SessionListEntry:
    data = _as_mapping(data, "SessionListEntry")
    telemetry = _as_mapping(_require(data, "telemetry"), "Field 'telemetry'")
    return SessionListEntry(
        info=decode_session_info(data),
        idle_seconds=_as_float(_require(telemetry, "idle_seconds"), "idle_seconds"),
        lookup_seconds=_as_float(
            _require(telemetry, "lookup_seconds"), "lookup_seconds"
        ),
        update_seconds=_as_float(
            _require(telemetry, "update_seconds"), "update_seconds"
        ),
        # Added at protocol revision 2; default keeps revision-1 payloads
        # (an older server behind a newer client) decodable.
        seconds_per_round=_as_float(
            telemetry.get("seconds_per_round", 0.0), "seconds_per_round"
        ),
    )


def encode_session_page(page: SessionPage) -> "dict[str, Any]":
    return {
        "sessions": [encode_session_list_entry(entry) for entry in page.sessions],
        "next_cursor": page.next_cursor,
    }


def decode_session_page(data: Any) -> SessionPage:
    data = _as_mapping(data, "SessionPage")
    cursor = data.get("next_cursor")
    if cursor is not None:
        cursor = _as_str(cursor, "next_cursor")
    return SessionPage(
        sessions=tuple(
            decode_session_list_entry(item)
            for item in _as_sequence(_require(data, "sessions"), "sessions")
        ),
        next_cursor=cursor,
    )


# ---------------------------------------------------------------------------
# live-dataset codecs (protocol revision 4)
# ---------------------------------------------------------------------------
def encode_object_instance(instance: ObjectInstance) -> "dict[str, Any]":
    return {
        "category": instance.category,
        "box": {
            "x": instance.box.x,
            "y": instance.box.y,
            "width": instance.box.width,
            "height": instance.box.height,
        },
        "instance_id": instance.instance_id,
        "distinctiveness": instance.distinctiveness,
    }


def decode_object_instance(data: Any) -> ObjectInstance:
    data = _as_mapping(data, "ObjectInstance")
    box = _as_mapping(_require(data, "box"), "Field 'box'")
    try:
        return ObjectInstance(
            category=_as_str(_require(data, "category"), "category"),
            box=BoundingBox(
                _as_float(_require(box, "x"), "box.x"),
                _as_float(_require(box, "y"), "box.y"),
                _as_float(_require(box, "width"), "box.width"),
                _as_float(_require(box, "height"), "box.height"),
            ),
            instance_id=_as_int(data.get("instance_id", 0), "instance_id"),
            distinctiveness=_as_float(
                data.get("distinctiveness", 1.0), "distinctiveness"
            ),
        )
    except DatasetError as exc:
        raise TransportError(f"Invalid object instance: {exc}") from exc


def encode_synthetic_image(image: SyntheticImage) -> "dict[str, Any]":
    return {
        "image_id": image.image_id,
        "width": image.width,
        "height": image.height,
        "context": image.context,
        "objects": [encode_object_instance(obj) for obj in image.objects],
    }


def decode_synthetic_image(data: Any) -> SyntheticImage:
    data = _as_mapping(data, "Image")
    objects = tuple(
        decode_object_instance(item)
        for item in _as_sequence(data.get("objects", ()), "objects")
    )
    try:
        return SyntheticImage(
            image_id=_as_int(_require(data, "image_id"), "image_id"),
            width=_as_int(_require(data, "width"), "width"),
            height=_as_int(_require(data, "height"), "height"),
            context=_as_str(_require(data, "context"), "context"),
            objects=objects,
        )
    except DatasetError as exc:
        raise TransportError(f"Invalid image: {exc}") from exc


def encode_upsert_request(images: "Sequence[SyntheticImage]") -> "dict[str, Any]":
    return {"images": [encode_synthetic_image(image) for image in images]}


def decode_upsert_request(data: Any) -> "list[SyntheticImage]":
    data = _as_mapping(data, "UpsertRequest")
    images = [
        decode_synthetic_image(item)
        for item in _as_sequence(_require(data, "images"), "images")
    ]
    if not images:
        raise TransportError("Field 'images' must not be empty")
    return images


def encode_delete_request(image_ids: "Sequence[int]") -> "dict[str, Any]":
    return {"image_ids": [int(image_id) for image_id in image_ids]}


def decode_delete_request(data: Any) -> "list[int]":
    data = _as_mapping(data, "DeleteRequest")
    image_ids = [
        _as_int(item, "image_ids")
        for item in _as_sequence(_require(data, "image_ids"), "image_ids")
    ]
    if not image_ids:
        raise TransportError("Field 'image_ids' must not be empty")
    return image_ids


def decode_dataset_info(data: Any) -> DatasetInfo:
    """Decode one registry manifest row (tolerant of extra server fields)."""
    data = _as_mapping(data, "DatasetInfo")
    return DatasetInfo(
        name=_as_str(_require(data, "name"), "name"),
        version=_as_int(_require(data, "version"), "version"),
        generation=_as_int(_require(data, "generation"), "generation"),
        image_count=_as_int(_require(data, "image_count"), "image_count"),
        delta_rows=_as_int(data.get("delta_rows", 0), "delta_rows"),
        tombstones=_as_int(data.get("tombstones", 0), "tombstones"),
        merges_completed=_as_int(
            data.get("merges_completed", 0), "merges_completed"
        ),
        retained_versions=tuple(
            _as_int(item, "retained_versions")
            for item in _as_sequence(
                data.get("retained_versions", ()), "retained_versions"
            )
        ),
    )


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
