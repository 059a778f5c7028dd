"""``docs/api.md`` states what ``repro.server.api`` declares.

Each route of ``ROUTES`` has exactly one endpoint heading, and each
endpoint heading names a route.  Each ``json`` example under the session
headings decodes as its declared type, so the reference cannot name a key
the declaration lacks or omit a field the declaration requires.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any

import pytest

from repro.server.api import (
    ROUTES,
    FeedbackRequest,
    NextResultsResponse,
    SessionInfo,
    SessionPage,
    StartSessionRequest,
)
from repro.server.codec import decode, encode

API_DOC = Path(__file__).resolve().parents[2] / "docs" / "api.md"

EXAMPLES = {
    "`POST /v1/sessions` → 201": (StartSessionRequest, SessionInfo),
    "`GET /v1/sessions?cursor=&limit=`": (SessionPage,),
    "`GET /v1/sessions/{id}/next?count=N`": (NextResultsResponse,),
    "`POST /v1/sessions/{id}/feedback`": (FeedbackRequest,),
}
"""Each heading's ``json`` examples, in order, and the message each shows."""

URL_FIELDS = {FeedbackRequest: {"session_id": "session-1"}}
"""Fields a route takes from the URL rather than the body."""


def test_every_route_has_exactly_one_heading_and_every_heading_a_route():
    headings = re.findall(r"^### `([A-Z]+) (/[^`?]*)", API_DOC.read_text(encoding="utf-8"), re.M)
    routes = [(row.method, row.template) for row in ROUTES]
    assert sorted(headings) == sorted(routes)


def _json_examples(heading: str) -> "list[Any]":
    text = API_DOC.read_text(encoding="utf-8")
    section = re.split(r"\n#{2,3} ", text.split(f"### {heading}\n", 1)[1], maxsplit=1)[0]
    return [json.loads(block) for block in re.findall(r"```json\n(.*?)```", section, re.S)]


def _undeclared(example: Any, encoded: Any, path: str = "") -> "list[str]":
    """Keys of ``example`` that re-encoding the decoded message does not carry."""
    if isinstance(example, dict):
        found = []
        for key, value in example.items():
            if key not in encoded:
                found.append(path + key)
            else:
                found += _undeclared(value, encoded[key], f"{path}{key}.")
        return found
    if isinstance(example, list):
        return [name for a, b in zip(example, encoded) for name in _undeclared(a, b, path)]
    return []


@pytest.mark.parametrize("heading", sorted(EXAMPLES))
def test_examples_decode_as_their_declared_messages(heading):
    examples = _json_examples(heading)
    assert len(examples) == len(EXAMPLES[heading])
    for example, cls in zip(examples, EXAMPLES[heading]):
        message = decode(cls, example, **URL_FIELDS.get(cls, {}))
        assert _undeclared(example, encode(message)) == [], cls.__name__


def test_an_undeclared_key_is_caught():
    example = {"dataset": "bdd", "text_query": "a dog", "max_results": 5}
    message = decode(StartSessionRequest, example)
    assert _undeclared(example, encode(message)) == ["max_results"]
