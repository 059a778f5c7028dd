"""Round-trip and validation tests for the service JSON codecs."""

from __future__ import annotations

import pytest

from repro.exceptions import TransportError
from repro.server.api import (
    BoxPayload,
    FeedbackRequest,
    NextResultsResponse,
    ResultItem,
    SessionInfo,
    StartSessionRequest,
)
from repro.server.codec import (
    decode_box_payload,
    decode_feedback_request,
    decode_next_results_response,
    decode_session_info,
    decode_start_session_request,
    encode_box_payload,
    encode_feedback_request,
    encode_next_results_response,
    encode_session_info,
    encode_start_session_request,
    parse_json,
)


class TestRoundTrips:
    def test_start_session_request(self):
        request = StartSessionRequest(
            dataset="bdd", text_query="a wheelchair", batch_size=5, multiscale=False
        )
        assert decode_start_session_request(encode_start_session_request(request)) == request

    def test_start_session_request_defaults(self):
        decoded = decode_start_session_request({"dataset": "bdd", "text_query": "a dog"})
        assert decoded.batch_size == 3
        assert decoded.multiscale is True

    def test_box_payload(self):
        box = BoxPayload(x=1.5, y=2.0, width=10.0, height=20.0)
        assert decode_box_payload(encode_box_payload(box)) == box

    def test_feedback_request(self):
        request = FeedbackRequest(
            session_id="session-9",
            image_id=17,
            relevant=True,
            boxes=(BoxPayload(0.0, 0.0, 5.0, 5.0), BoxPayload(1.0, 2.0, 3.0, 4.0)),
        )
        assert decode_feedback_request(encode_feedback_request(request)) == request

    def test_feedback_request_url_session_id_wins(self):
        encoded = encode_feedback_request(
            FeedbackRequest(session_id="body-id", image_id=3, relevant=False)
        )
        decoded = decode_feedback_request(encoded, session_id="url-id")
        assert decoded.session_id == "url-id"

    def test_next_results_response(self):
        response = NextResultsResponse(
            session_id="session-1",
            items=(
                ResultItem(image_id=4, score=0.75, box_x=0.0, box_y=1.0,
                           box_width=24.0, box_height=48.0),
            ),
            total_shown=12,
            positives_found=3,
        )
        decoded = decode_next_results_response(encode_next_results_response(response))
        assert decoded.session_id == response.session_id
        assert tuple(decoded.items) == tuple(response.items)
        assert decoded.total_shown == response.total_shown
        assert decoded.positives_found == response.positives_found

    def test_session_info(self):
        info = SessionInfo(
            session_id="session-2",
            dataset="coco",
            text_query="a spoon",
            total_shown=6,
            positives_found=1,
            rounds=2,
        )
        assert decode_session_info(encode_session_info(info)) == info


class TestValidation:
    def test_missing_field_names_the_field(self):
        with pytest.raises(TransportError, match="text_query"):
            decode_start_session_request({"dataset": "bdd"})

    def test_wrong_type_rejected(self):
        with pytest.raises(TransportError, match="batch_size"):
            decode_start_session_request(
                {"dataset": "bdd", "text_query": "a dog", "batch_size": "many"}
            )

    def test_bool_is_not_an_int(self):
        with pytest.raises(TransportError, match="image_id"):
            decode_feedback_request(
                {"session_id": "s", "image_id": True, "relevant": False}
            )

    def test_non_object_body_rejected(self):
        with pytest.raises(TransportError, match="JSON object"):
            decode_start_session_request([1, 2, 3])

    def test_boxes_must_be_array(self):
        with pytest.raises(TransportError, match="boxes"):
            decode_feedback_request(
                {"session_id": "s", "image_id": 1, "relevant": True, "boxes": "nope"}
            )

    def test_parse_json_rejects_empty_and_garbage(self):
        with pytest.raises(TransportError):
            parse_json(None)
        with pytest.raises(TransportError):
            parse_json(b"")
        with pytest.raises(TransportError):
            parse_json(b"{not json")

    def test_parse_json_accepts_valid(self):
        assert parse_json(b'{"a": 1}') == {"a": 1}
