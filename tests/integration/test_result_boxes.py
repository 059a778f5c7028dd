"""Every result box is the pre-indexed box of the patch vector that scored.

Stores hold vectors only; a result's box is read off the index's patch
columns.  These tests pin that read against the columns' source,
``generate_patches``, as the client sees it: after the first page and after
one feedback round, each ``ResultItem`` box serialises to the same JSON as
``generate_patches(image)[k]``, where ``k`` is the returned vector's
position in its image's segment.  Run over a flat exact index, a sharded
one, and a live view after an upsert and a delete.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.config import SeeSawConfig
from repro.core.interfaces import SearchContext
from repro.core.multiscale import generate_patches
from repro.server import (
    FeedbackRequest,
    InProcessClient,
    SeeSawApp,
    SeeSawService,
    SessionManager,
    StartSessionRequest,
)


@pytest.fixture()
def returned_vectors(monkeypatch):
    """``(index, image_id) -> vector_id`` of every result the service built."""
    returned: "dict[tuple[int, int], int]" = {}
    indexes: "dict[int, object]" = {}
    adapt = SearchContext.results_from_arrays

    def spy(self, image_ids, scores, vector_ids):
        indexes[id(self.index)] = self.index
        for image_id, vector_id in zip(image_ids.tolist(), vector_ids.tolist()):
            returned[(id(self.index), image_id)] = vector_id
        return adapt(self, image_ids, scores, vector_ids)

    monkeypatch.setattr(SearchContext, "results_from_arrays", spy)
    return returned, indexes


def _box_json(x, y, width, height) -> bytes:
    return json.dumps([x, y, width, height]).encode()


def assert_boxes_are_patch_boxes(items, index, returned) -> None:
    assert items
    for item in items:
        vector_id = returned[(id(index), item.image_id)]
        k = index.vector_ids_for_image(item.image_id).index(vector_id)
        image = index.dataset.image(item.image_id)
        box, _ = generate_patches(image.width, image.height, index.config.multiscale)[k]
        assert _box_json(
            item.box.x, item.box.y, item.box.width, item.box.height
        ) == _box_json(box.x, box.y, box.width, box.height)


def _mutate_live(service: SeeSawService, dataset) -> None:
    first, second = dataset.images[:2]
    service.live.upsert_images(
        dataset.name, [dataclasses.replace(first, image_id=9_001)]
    )
    service.live.delete_images(dataset.name, [second.image_id])


@pytest.mark.parametrize(
    "overrides",
    [{}, {"n_shards": 3}, {"live_datasets": True}],
    ids=["flat-exact", "sharded", "live-view"],
)
def test_result_boxes_are_generated_patch_boxes(
    overrides, tiny_dataset, tiny_clip, returned_vectors
):
    returned, indexes = returned_vectors
    service = SeeSawService(SeeSawConfig(embedding_dim=64, seed=7, **overrides))
    service.register_dataset(tiny_dataset, tiny_clip, preprocess=True)
    try:
        if overrides.get("live_datasets"):
            _mutate_live(service, tiny_dataset)
            assert service.index_for("tiny").store.delta_rows > 0
        client = InProcessClient(SeeSawApp(SessionManager(service)))
        info = client.start_session(
            StartSessionRequest(dataset="tiny", text_query="a cat_easy", batch_size=6)
        )
        index = service.index_for("tiny")
        first = client.next_results(info.session_id).items
        assert_boxes_are_patch_boxes(first, index, returned)
        if overrides.get("live_datasets"):
            # The upserted copy ranks on the first page: its box is a delta row's.
            assert 9_001 in {item.image_id for item in first}
        # One positive judgement boxed on its returned patch, the rest negative:
        # the round labels patches from the same columns the boxes came from.
        boxed, *rest = first
        client.give_feedback(
            FeedbackRequest(info.session_id, boxed.image_id, True, boxes=(boxed.box,))
        )
        for item in rest:
            client.give_feedback(FeedbackRequest(info.session_id, item.image_id, False))
        second = client.next_results(info.session_id).items
        assert_boxes_are_patch_boxes(second, index, returned)
        assert list(indexes.values()) == [index]
    finally:
        service.live.close()
