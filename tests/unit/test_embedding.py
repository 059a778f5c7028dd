"""Tests for the synthetic CLIP embedding substrate."""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import SeeSawConfig
from repro.core.indexing import SeeSawIndex
from repro.data import load_dataset
from repro.data.dataset import CategoryInfo
from repro.data.geometry import BoundingBox
from repro.data.image import ObjectInstance, SyntheticImage
from repro.embedding.calibration import PlattScaler, expected_calibration_error
from repro.embedding.concepts import ConceptSpace
from repro.embedding.synthetic_clip import SyntheticClip, _normalize_query_text
from repro.exceptions import EmbeddingError
from repro.utils.linalg import cosine_similarity, normalize_vector


class TestConceptSpace:
    def test_concept_vectors_are_unit_and_stable(self):
        space = ConceptSpace(dim=32, seed=0)
        first = space.concept_vector("dog")
        second = space.concept_vector("dog")
        assert np.allclose(first, second)
        assert np.linalg.norm(first) == pytest.approx(1.0)

    def test_different_categories_differ(self):
        space = ConceptSpace(dim=64, seed=0)
        assert abs(cosine_similarity(space.concept_vector("dog"), space.concept_vector("cat"))) < 0.5

    def test_text_vector_deficit_controls_angle(self):
        space = ConceptSpace(dim=64, seed=0)
        concept = space.concept_vector("dog")
        aligned = space.text_vector("dog", 0.0)
        misaligned = space.text_vector("dog", 1.0)
        assert np.allclose(aligned, concept)
        assert cosine_similarity(misaligned, concept) == pytest.approx(np.cos(1.0), abs=1e-6)

    def test_negative_deficit_rejected(self):
        with pytest.raises(EmbeddingError):
            ConceptSpace(dim=8).text_vector("dog", -0.1)

    def test_noise_has_requested_norm(self):
        space = ConceptSpace(dim=32, seed=0)
        noise = space.instance_noise(1, 2, 0.3)
        assert np.linalg.norm(noise) == pytest.approx(0.3)
        assert np.allclose(space.instance_noise(1, 2, 0.0), 0.0)

    def test_invalid_dimension(self):
        with pytest.raises(EmbeddingError):
            ConceptSpace(dim=1)


class TestQueryNormalisation:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("a wheelchair", "wheelchair"),
            ("A Dog", "dog"),
            ("a photo of a dog", "dog"),
            ("car with open door", "car_with_open_door"),
        ],
    )
    def test_prompts_map_to_category_names(self, raw, expected):
        assert _normalize_query_text(raw) == expected


class TestSyntheticClip:
    def test_embeddings_are_unit_norm(self, tiny_dataset, tiny_clip):
        image = tiny_dataset.images[0]
        assert np.linalg.norm(tiny_clip.embed_image(image)) == pytest.approx(1.0)
        assert np.linalg.norm(tiny_clip.embed_text("a cat_easy")) == pytest.approx(1.0)

    def test_known_category_uses_deficit(self, tiny_dataset, tiny_clip):
        easy = tiny_clip.embed_text("a cat_easy")
        easy_concept = tiny_clip.concept_vector("cat_easy")
        hard = tiny_clip.embed_text("a cat_hard")
        hard_concept = tiny_clip.concept_vector("cat_hard")
        assert cosine_similarity(easy, easy_concept) > cosine_similarity(hard, hard_concept)

    def test_unknown_text_still_embeds(self, tiny_clip):
        vector = tiny_clip.embed_text("a completely unknown thing")
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_embed_text_is_deterministic(self, tiny_clip):
        assert np.allclose(tiny_clip.embed_text("a cat_easy"), tiny_clip.embed_text("a cat_easy"))

    def test_region_with_object_aligns_with_concept(self, tiny_dataset, tiny_clip):
        category = "cat_easy"
        image_id = next(iter(tiny_dataset.positive_image_ids(category)))
        image = tiny_dataset.image(image_id)
        instance = image.instances_of(category)[0]
        region_vector = tiny_clip.embed_region(image, instance.box)
        concept = tiny_clip.concept_vector(category)
        background_only = [img for img in tiny_dataset if not img.contains_category(category)][0]
        other_vector = tiny_clip.embed_image(background_only)
        assert cosine_similarity(region_vector, concept) > cosine_similarity(other_vector, concept)

    def test_small_object_is_diluted_in_coarse_embedding(self, tiny_clip):
        from repro.data.image import ObjectInstance, SyntheticImage

        small_object = ObjectInstance("cat_easy", BoundingBox(10, 10, 40, 40), instance_id=1)
        image = SyntheticImage(
            image_id=999, width=640, height=480, context="indoor", objects=(small_object,)
        )
        concept = tiny_clip.concept_vector("cat_easy")
        coarse = tiny_clip.embed_image(image)
        tight = tiny_clip.embed_region(image, BoundingBox(0, 0, 80, 80))
        assert cosine_similarity(tight, concept) > cosine_similarity(coarse, concept)

    def test_embed_images_batch(self, tiny_dataset, tiny_clip):
        batch = tiny_clip.embed_images(list(tiny_dataset.images[:5]))
        assert batch.shape == (5, tiny_clip.dim)

    def test_unknown_category_concept_raises(self, tiny_clip):
        with pytest.raises(EmbeddingError):
            tiny_clip.concept_vector("nope")

    def test_requires_categories(self):
        with pytest.raises(EmbeddingError):
            SyntheticClip(categories=[])


def reference_embed_region(clip, image, region):
    """The per-region embedding ``embed_patches`` replaced, frozen as an oracle.

    Re-derives every overlapping object's appearance noise for each region;
    ``embed_patches`` must reproduce its rows byte for byte.
    """
    region = region.clipped_to(image.width, image.height)
    vector = np.zeros(clip.dim, dtype=np.float64)
    covered = 0.0
    for instance, visible_fraction in image.objects_in_region(region):
        visible_area = instance.box.area * visible_fraction
        coverage = min(1.0, visible_area / region.area)
        if coverage <= 0.0:
            continue
        info = clip._categories.get(instance.category)
        locality_noise = info.locality_noise if info is not None else 0.04
        concept = clip._space.concept_vector(instance.category)
        appearance = concept + clip._space.instance_noise(
            image.image_id, instance.instance_id, locality_noise
        )
        weight = coverage ** clip.coverage_exponent
        vector += instance.distinctiveness * weight * normalize_vector(appearance)
        covered += coverage
    background_weight = clip.background_strength * max(0.0, 1.0 - min(covered, 1.0))
    if background_weight > 0.0:
        background = clip._space.context_vector(image.context)
        background = background + clip._space.image_noise(
            image.image_id, clip.clutter_noise
        )
        vector += background_weight * normalize_vector(background)
    if not np.any(vector):
        vector = clip._space.image_noise(image.image_id, 1.0)
    return normalize_vector(vector)


CATALOG = (
    CategoryInfo("dog", "a dog", locality_noise=0.05),
    CategoryInfo("cat", "a cat", locality_noise=0.0),
    CategoryInfo("bus", "a bus", locality_noise=0.2),
)
# ``zebra`` is outside the catalog: its objects embed with locality 0.04.
CATEGORIES = ("dog", "cat", "bus", "zebra")


def make_clip(background_strength=0.6, coverage_exponent=0.5, clutter_noise=0.08):
    return SyntheticClip(
        CATALOG,
        dim=16,
        seed=5,
        background_strength=background_strength,
        clutter_noise=clutter_noise,
        contexts=("indoor", "street"),
        coverage_exponent=coverage_exponent,
    )


def assert_rows_match_reference(clip, image, regions):
    rows = clip.embed_patches(image, regions)
    assert rows.shape == (len(regions), clip.dim)
    assert rows.dtype == np.float64
    for row, region in zip(rows, regions):
        assert row.tobytes() == reference_embed_region(clip, image, region).tobytes()


def coordinate(low, high):
    """Pixel coordinates as ints (edges that touch exactly) or floats."""
    return st.one_of(st.integers(int(np.ceil(low)), int(high)), st.floats(low, high))


@st.composite
def boxes_inside(draw, width, height):
    x = draw(coordinate(0, width - 1))
    y = draw(coordinate(0, height - 1))
    box = BoundingBox(
        x, y, draw(coordinate(0.5, width - x)), draw(coordinate(0.5, height - y))
    )
    assume(box.x2 <= width and box.y2 <= height)
    return box


@st.composite
def regions_over(draw, width, height):
    """Regions that may overhang the image (so need clipping) but meet it."""
    x = draw(coordinate(-width / 2, width - 1))
    y = draw(coordinate(-height / 2, height - 1))
    box = BoundingBox(
        x, y, draw(coordinate(1, 1.5 * width)), draw(coordinate(1, 1.5 * height))
    )
    assume(box.x2 > 0 and box.y2 > 0)
    return box


@st.composite
def scenes(draw):
    width = draw(st.integers(8, 700))
    height = draw(st.integers(8, 500))
    objects = tuple(
        ObjectInstance(
            category=draw(st.sampled_from(CATEGORIES)),
            box=draw(boxes_inside(width, height)),
            instance_id=draw(st.integers(0, 2)),
            distinctiveness=draw(st.floats(0.05, 1.0)),
        )
        for _ in range(draw(st.integers(0, 5)))
    )
    image = SyntheticImage(
        image_id=draw(st.integers(0, 10**6)),
        width=width,
        height=height,
        context=draw(st.sampled_from(("indoor", "street", "unseen"))),
        objects=objects,
    )
    regions = [image.full_box] + draw(
        st.lists(regions_over(width, height), min_size=0, max_size=8)
    )
    return image, regions


class TestEmbedPatches:
    @settings(max_examples=150, deadline=None)
    @given(
        scene=scenes(),
        background_strength=st.sampled_from((0.0, 0.6, 1.0)),
        coverage_exponent=st.sampled_from((0.5, 1.0, 0.37)),
        clutter_noise=st.sampled_from((0.0, 0.08)),
    )
    def test_rows_equal_the_per_region_oracle_byte_for_byte(
        self, scene, background_strength, coverage_exponent, clutter_noise
    ):
        image, regions = scene
        clip = make_clip(background_strength, coverage_exponent, clutter_noise)
        assert_rows_match_reference(clip, image, regions)

    def test_named_edge_cases_equal_the_oracle(self):
        # Two objects share instance_id 0 but differ in category, one of them
        # outside the catalog; regions include an object-free corner and boxes
        # overhanging every edge.
        image = SyntheticImage(
            image_id=42,
            width=640,
            height=480,
            context="street",
            objects=(
                ObjectInstance("dog", BoundingBox(10, 10, 200, 150)),
                ObjectInstance("zebra", BoundingBox(100, 60, 300, 200), distinctiveness=0.5),
                ObjectInstance("cat", BoundingBox(0, 0, 640, 480), instance_id=3),
            ),
        )
        regions = [
            image.full_box,
            BoundingBox(-50.0, -20.0, 120.0, 90.0),
            BoundingBox(600.0, 400.0, 100.0, 100.0),
            BoundingBox(150.5, 70.25, 40.0, 40.0),
        ]
        for strength in (0.0, 0.6):
            assert_rows_match_reference(make_clip(strength), image, regions)
        lone = SyntheticImage(
            image_id=43,
            width=640,
            height=480,
            context="indoor",
            objects=(ObjectInstance("dog", BoundingBox(10, 10, 50, 50)),),
        )
        # No object in the region and no background weight: the image-noise
        # fallback.
        empty = BoundingBox(300.0, 200.0, 100.0, 100.0)
        clip = make_clip(background_strength=0.0)
        assert_rows_match_reference(clip, lone, [lone.full_box, empty])
        expected = clip.concept_space.image_noise(43, 1.0)
        assert np.array_equal(clip.embed_region(lone, empty), normalize_vector(expected))

    def test_embed_region_is_the_one_row_case(self, tiny_dataset, tiny_clip):
        image = tiny_dataset.images[0]
        region = BoundingBox(-10.0, 20.0, 300.0, 300.0)
        assert np.array_equal(
            tiny_clip.embed_region(image, region),
            tiny_clip.embed_patches(image, [region])[0],
        )
        assert tiny_clip.embed_patches(image, []).shape == (0, tiny_clip.dim)

    def test_region_outside_the_image_is_rejected(self, tiny_dataset, tiny_clip):
        from repro.exceptions import DatasetError

        image = tiny_dataset.images[0]
        with pytest.raises(DatasetError):
            tiny_clip.embed_patches(
                image, [image.full_box, BoundingBox(image.width + 5.0, 0.0, 10.0, 10.0)]
            )


# sha256 of a cold build's ``store.vectors`` bytes (float64, dim 128, embedding
# seed 0, dataset seed 0, size_scale 0.1), recorded before the index build
# embedded each image's patches in one call.  ``normalize_vector`` takes its
# norm with a BLAS dot whose summation order follows the kernel OpenBLAS picks
# for the CPU, so each dataset has one value per kernel family (recorded with
# OPENBLAS_CORETYPE set to each); a build must reproduce one of them exactly.
GOLDEN_VECTOR_SHA256 = {
    "coco": {
        "SkylakeX": "16f8812f33525bac4c75ba71075074ba7e2a842e319eea6b6d820238dc811f70",
        "Haswell": "0d9b35368ae286547074367d2277433a94556fc0521f3b411397e32df4199eb2",
        "Sandybridge": "77a3d97d6ab86870fe05153b65f1f54a03c291b15c1333e59c20710ac26d6cc4",
        "Nehalem": "8838d5e94142316b2bb2507ca3f00649787e11ef1af0211ae30167ca40a08d7d",
    },
    "lvis": {
        "SkylakeX": "0d1ed9427605d5081ff7c0a17d38e8d9982719b7eacd7a82e14de57202ca5dcc",
        "Haswell": "8ccf1361228d4b316bc71cf1124935d4891dab61ae09af674096cb48d4ab2f6e",
        "Sandybridge": "19b01416eed06fd983a187cff6a68463a90b4cfa3f6a8b47b833a170eeea9c81",
        "Nehalem": "1666d3124c97452b504dc43712ea2b1b1faf4701145fe5c88dd6037cd4fef606",
    },
    "objectnet": {
        "SkylakeX": "7549e8995382dee2fac2efb2926428cf7a3ea54d0717fa82ec152fb3a3726e0c",
        "Haswell": "00c2a5b9f7e7d15eba1a227102adb9ec89abada2e6adfd4fe7096db8163c9a1f",
        "Sandybridge": "2876e1f853090c1189a7f5db0be3bf86c75f98810023b62940c2095cbf49d2bc",
        "Nehalem": "8c3aa9b9ae4e189ee1b153c05289fcff934c39aa85eb9caf22d447a2122461f8",
    },
    "bdd": {
        "SkylakeX": "47df8f146bcc092286498918e6d2392c1ead995804c88e985d4ee59269f04f88",
        "Haswell": "461a47e0d7497084903a935bcacc3ebf35f3f60d4f440809c889da045f525a49",
        "Sandybridge": "2c0949b914e38eca4a32247a4eef1024421ebeff7462d19b9dbaa738cc3623a3",
        "Nehalem": "2542eab6457173d71c5f93b377336b1c506ac5ce70cfa2a05495adfef2e0898c",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_VECTOR_SHA256))
def test_cold_build_vectors_match_golden_hash(name):
    dataset = load_dataset(name, seed=0, size_scale=0.1)
    clip = SyntheticClip.for_dataset(dataset, dim=128, seed=0)
    index = SeeSawIndex.build(dataset, clip, SeeSawConfig(), build_graph=False)
    vectors = np.ascontiguousarray(index.store.vectors)
    assert vectors.dtype == np.float64
    digest = hashlib.sha256(vectors.tobytes()).hexdigest()
    assert digest in GOLDEN_VECTOR_SHA256[name].values()


class TestPlattScaler:
    def test_calibration_improves_ece(self, rng):
        # Raw scores: informative but badly scaled (like CLIP cosine scores).
        labels = rng.random(400) < 0.3
        scores = 0.1 * labels + 0.05 * rng.standard_normal(400)
        raw_probabilities = np.clip((scores + 1) / 2, 0, 1)
        calibrated = PlattScaler().fit_transform(scores, labels.astype(float))
        raw_ece = expected_calibration_error(raw_probabilities, labels.astype(float))
        calibrated_ece = expected_calibration_error(calibrated, labels.astype(float))
        assert calibrated_ece < raw_ece

    def test_transform_monotonic_in_scores(self):
        scaler = PlattScaler().fit(np.array([-1.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]))
        probabilities = scaler.transform(np.array([-1.0, 0.0, 1.0]))
        assert probabilities[0] < probabilities[1] < probabilities[2]

    def test_empty_fit_rejected(self):
        from repro.exceptions import OptimizationError

        with pytest.raises(OptimizationError):
            PlattScaler().fit(np.array([]), np.array([]))

    def test_mismatched_lengths_rejected(self):
        from repro.exceptions import OptimizationError

        with pytest.raises(OptimizationError):
            PlattScaler().fit(np.array([1.0, 2.0]), np.array([1.0]))
