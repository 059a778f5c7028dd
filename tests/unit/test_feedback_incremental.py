"""The memoised patch-label construction is bit-identical to a from-scratch one.

``FeedbackMap.training_set`` keeps each judged image's rows and labels and
reuses them on later rounds; ``to_patch_labels`` returns a copy of them.  The reference below is the from-scratch loop it
replaced: every call re-walks every patch of every judged image.  Memoised
and reference outputs must be equal array for array, dtype included, over
any sequence of judgements, re-judgements, overlap thresholds and indexes —
and whole sessions must produce byte-identical query vectors.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.simulate import OracleUser
from repro.config import MultiscaleConfig, SeeSawConfig
from repro.core.feedback import BoxFeedback, FeedbackMap, _label_block
from repro.core.indexing import SeeSawIndex
from repro.core.seesaw_method import SeeSawSearchMethod
from repro.core.session import SearchSession
from repro.data import load_dataset
from repro.data.geometry import BoundingBox
from repro.embedding import SyntheticClip


def patch_box(index, vector_id):
    """One patch's box, read row by row off the index's box column."""
    return BoundingBox(*index.patch_boxes[vector_id].tolist())


def reference_patch_labels(feedback_map, index, min_box_overlap=0.0):
    """The per-round from-scratch loop: re-label every judged image's patches."""
    vector_ids: list[int] = []
    labels: list[float] = []
    for feedback in feedback_map:
        for vector_id in index.vector_ids_for_image(feedback.image_id):
            if feedback.relevant:
                overlap = any(
                    patch_box(index, vector_id).intersection(box) > min_box_overlap
                    for box in feedback.boxes
                )
                labels.append(1.0 if overlap else 0.0)
            else:
                labels.append(0.0)
            vector_ids.append(vector_id)
    if not vector_ids:
        dim = index.store.dim
        return np.zeros((0, dim)), np.zeros(0), np.zeros(0, dtype=np.int64)
    ids = np.asarray(vector_ids, dtype=np.int64)
    vectors = np.asarray(index.store.vectors[ids])
    return vectors, np.asarray(labels, dtype=np.float64), ids


def reference_weights(index, vector_ids):
    """1 / (patches of the vector's image), from per-image id lists."""
    segments = index.segments
    image_ids = segments.image_ids[segments.vector_image_rows[vector_ids]]
    return np.asarray(
        [1.0 / len(index.vector_ids_for_image(image_id)) for image_id in image_ids],
        dtype=np.float64,
    )


def assert_same_arrays(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def assert_matches_reference(feedback_map, index, min_box_overlap):
    expected = reference_patch_labels(feedback_map, index, min_box_overlap)
    assert_same_arrays(feedback_map.to_patch_labels(index, min_box_overlap), expected)
    vectors, labels, ids = expected
    weights = reference_weights(index, ids)
    assert_same_arrays(
        feedback_map.to_weighted_patch_labels(index, min_box_overlap),
        (vectors, labels, weights, ids),
    )


@pytest.fixture(scope="module")
def coarse_tiny_index(tiny_dataset, tiny_clip) -> SeeSawIndex:
    """A second index over the same images: one vector per image."""
    config = SeeSawConfig(
        embedding_dim=64, seed=7, multiscale=MultiscaleConfig(enabled=False)
    )
    return SeeSawIndex.build(tiny_dataset, tiny_clip, config)


box_strategy = st.builds(
    BoundingBox,
    x=st.floats(0, 600),
    y=st.floats(0, 440),
    width=st.floats(1, 640),
    height=st.floats(1, 480),
)
judgement_strategy = st.tuples(
    st.integers(0, 11),  # which of the first images
    st.booleans(),  # relevant
    st.lists(box_strategy, min_size=1, max_size=3),
)
step_strategy = st.one_of(
    st.tuples(st.just("judge"), judgement_strategy),
    st.tuples(
        st.just("labels"),
        st.tuples(st.sampled_from([0.0, 0.0, 500.0, 5000.0]), st.booleans()),
    ),
)


class TestMemoisedLabelsMatchReference:
    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(step_strategy, min_size=1, max_size=25))
    def test_random_judge_sequences(self, tiny_index, coarse_tiny_index, steps):
        image_ids = [image.image_id for image in tiny_index.dataset.images[:12]]
        feedback_map = FeedbackMap()
        for kind, payload in steps:
            if kind == "judge":
                position, relevant, boxes = payload
                image_id = image_ids[position]
                feedback_map.update(
                    BoxFeedback.positive(image_id, boxes)
                    if relevant
                    else BoxFeedback.negative(image_id)
                )
            else:
                min_box_overlap, use_coarse = payload
                index = coarse_tiny_index if use_coarse else tiny_index
                assert_matches_reference(feedback_map, index, min_box_overlap)
        assert_matches_reference(feedback_map, tiny_index, 0.0)

    def test_rejudged_image_keeps_its_position(self, tiny_index):
        dataset = tiny_index.dataset
        first, second, third = (image.image_id for image in dataset.images[:3])
        feedback_map = FeedbackMap()
        for image_id in (first, second, third):
            feedback_map.update(BoxFeedback.negative(image_id))
        assert_matches_reference(feedback_map, tiny_index, 0.0)

        # not relevant -> relevant: the first image's block is rebuilt in place
        box = dataset.image(first).full_box
        feedback_map.update(BoxFeedback.positive(first, [box]))
        _, labels, ids = feedback_map.to_patch_labels(tiny_index)
        first_ids = tiny_index.vector_ids_for_image(first)
        assert tuple(int(v) for v in ids[: len(first_ids)]) == first_ids
        assert labels[: len(first_ids)].max() == 1.0
        assert_matches_reference(feedback_map, tiny_index, 0.0)

        # new boxes, then relevant -> not relevant
        corner = BoundingBox(0, 0, 10, 10)
        feedback_map.update(BoxFeedback.positive(first, [corner]))
        assert_matches_reference(feedback_map, tiny_index, 0.0)
        feedback_map.update(BoxFeedback.negative(first))
        _, labels, _ = feedback_map.to_patch_labels(tiny_index)
        assert labels.max() == 0.0
        assert_matches_reference(feedback_map, tiny_index, 0.0)

    def test_min_box_overlap_change_rebuilds_labels(self, tiny_index):
        image = tiny_index.dataset.images[0]
        feedback_map = FeedbackMap()
        feedback_map.update(BoxFeedback.positive(image.image_id, [image.full_box]))
        _, loose, _ = feedback_map.to_patch_labels(tiny_index, 0.0)
        _, strict, _ = feedback_map.to_patch_labels(tiny_index, image.full_box.area)
        assert loose.max() == 1.0 and strict.max() == 0.0
        assert_matches_reference(feedback_map, tiny_index, 0.0)

    def test_second_index_gets_its_own_labels(self, tiny_index, coarse_tiny_index):
        feedback_map = FeedbackMap()
        for image in tiny_index.dataset.images[:4]:
            feedback_map.update(BoxFeedback.positive(image.image_id, [image.full_box]))
        assert_matches_reference(feedback_map, tiny_index, 0.0)
        assert_matches_reference(feedback_map, coarse_tiny_index, 0.0)
        assert_matches_reference(feedback_map, tiny_index, 0.0)

    def test_empty_map(self, tiny_index):
        assert_matches_reference(FeedbackMap(), tiny_index, 0.0)

    def test_returned_arrays_do_not_alias_the_memo(self, tiny_index):
        image = tiny_index.dataset.images[0]
        feedback_map = FeedbackMap()
        feedback_map.update(BoxFeedback.positive(image.image_id, [image.full_box]))
        _, labels, ids = feedback_map.to_patch_labels(tiny_index)
        labels[:] = -1.0
        ids[:] = 0
        assert_matches_reference(feedback_map, tiny_index, 0.0)


# ----------------------------------------------------------------------
# the vectorised overlap against a frozen per-box loop
# ----------------------------------------------------------------------
PATCH_EDGES = [0.0, 120.0, 240.0, 360.0, 400.0, 480.0, 600.0, 640.0]
"""Every patch edge of the tiny index (640x480 images, 240-pixel patches
strided by 120): feedback boxes drawn on them share edges with patches."""

FINE_PATCH_AREA = 240.0 * 240.0


def frozen_label_block(feedback, index, min_box_overlap):
    """The per-box loop the vectorised ``_label_block`` replaced."""
    vector_ids = index.vector_ids_for_image(feedback.image_id)
    labels = [0.0] * len(vector_ids)
    if feedback.relevant:
        for position, vector_id in enumerate(vector_ids):
            box = patch_box(index, vector_id)
            if any(box.intersection(other) > min_box_overlap for other in feedback.boxes):
                labels[position] = 1.0
    return np.asarray(vector_ids, dtype=np.int64), np.asarray(labels, dtype=np.float64)


def assert_label_block_matches_loop(index, image_id, boxes, min_box_overlap):
    for feedback in (BoxFeedback.positive(image_id, boxes), BoxFeedback.negative(image_id)):
        assert_same_arrays(
            _label_block(feedback, index, min_box_overlap),
            frozen_label_block(feedback, index, min_box_overlap),
        )


coordinate = st.one_of(st.sampled_from(PATCH_EDGES), st.floats(-50, 700))
side = st.one_of(st.sampled_from([120.0, 240.0, 480.0, 640.0]), st.floats(0.5, 700))
oracle_box = st.one_of(
    st.just(BoundingBox(0.0, 0.0, 640.0, 480.0)),  # the whole image
    st.builds(BoundingBox, x=coordinate, y=coordinate, width=side, height=side),
)


class TestLabelBlockOracle:
    def test_threshold_is_an_exact_patch_area(self, tiny_index):
        areas = tiny_index.patch_boxes[:, 2] * tiny_index.patch_boxes[:, 3]
        assert FINE_PATCH_AREA in areas.tolist()

    @settings(max_examples=200, deadline=None)
    @given(
        position=st.integers(0, 11),
        boxes=st.lists(oracle_box, min_size=1, max_size=4),
        min_box_overlap=st.sampled_from([-1.0, 0.0, 0.5, FINE_PATCH_AREA]),
    )
    def test_vectorised_overlap_equals_per_box_loop(
        self, tiny_index, position, boxes, min_box_overlap
    ):
        image_id = tiny_index.dataset.images[position].image_id
        assert_label_block_matches_loop(tiny_index, image_id, boxes, min_box_overlap)

    @pytest.mark.parametrize("min_box_overlap", [-1.0, 0.0, 0.5, FINE_PATCH_AREA])
    @pytest.mark.parametrize(
        "boxes",
        [
            [BoundingBox(240.0, 0.0, 120.0, 480.0)],
            [BoundingBox(700.0, 500.0, 10.0, 10.0)],
            [BoundingBox(0.0, 0.0, 640.0, 480.0)],
            [BoundingBox(120.0, 120.0, 240.0, 240.0), BoundingBox(640.0, 0.0, 5.0, 5.0)],
        ],
        ids=["shared-edges", "disjoint", "whole-image", "exact-patch-and-corner"],
    )
    def test_edge_cases_equal_per_box_loop(self, tiny_index, boxes, min_box_overlap):
        image_id = tiny_index.dataset.images[0].image_id
        assert_label_block_matches_loop(tiny_index, image_id, boxes, min_box_overlap)


# ----------------------------------------------------------------------
# whole sessions: query vectors byte-identical with and without the memo
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def bdd_graph_index() -> SeeSawIndex:
    """bdd at size_scale 0.15 with its kNN graph and DB-alignment matrix."""
    dataset = load_dataset("bdd", seed=0, size_scale=0.15)
    embedding = SyntheticClip.for_dataset(dataset, dim=128, seed=0)
    index = SeeSawIndex.build(dataset, embedding, SeeSawConfig())
    assert index.db_matrix is not None
    return index


def run_sessions(index, page=10, rounds=6):
    """Bytes of every round's query vector and shown ids, one session per category."""
    transcript = []
    for category in index.dataset.category_names:
        session = SearchSession(index, SeeSawSearchMethod(), category, batch_size=page)
        user = OracleUser(index.dataset, category)
        for _ in range(rounds):
            shown = session.next_batch()
            for result in shown:
                judgement = user.judge(result.image_id)
                session.give_feedback(result.image_id, judgement.relevant, judgement.boxes)
            transcript.append(
                (
                    np.asarray(session.method.query_vector).tobytes(),
                    tuple(result.image_id for result in shown),
                )
            )
    return transcript


def test_sessions_identical_to_from_scratch_labels(bdd_graph_index, monkeypatch):
    memoised = run_sessions(bdd_graph_index)

    memo_call = FeedbackMap.training_set

    def from_scratch(self, index, min_box_overlap=0.0):
        self._blocks_for = None
        return memo_call(self, index, min_box_overlap)

    monkeypatch.setattr(FeedbackMap, "training_set", from_scratch)
    cleared = run_sessions(bdd_graph_index)

    assert len(memoised) == 10 * 6
    assert memoised == cleared
