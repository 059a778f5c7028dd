"""Tests for the shared utility helpers (rng, linalg, validation, memory)."""

import ctypes

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.live.delta import DeltaVectorStore
from repro.utils import memory
from repro.utils.linalg import (
    angular_distance,
    assert_no_copy,
    cosine_similarity,
    ensure_dtype,
    has_canonical_rows,
    normalize_rows,
    normalize_vector,
    pairwise_inner,
    random_unit_vectors,
    resolve_compute_dtype,
    rotate_towards,
    unit_norm_tolerance,
    unit_rows,
)
from repro.utils.rng import (
    derive_rng,
    ensure_rng,
    sample_without_replacement,
    shuffled,
    spawn_seeds,
)
from repro.utils.validation import (
    check_finite,
    check_positive,
    check_probability,
    check_shape,
    check_unit_norm,
)
from repro.vectorstore.exact import ExactVectorStore


class TestRng:
    def test_ensure_rng_accepts_int_and_generator(self):
        generator = ensure_rng(3)
        assert isinstance(generator, np.random.Generator)
        assert ensure_rng(generator) is generator

    def test_derive_rng_is_label_stable(self):
        first = derive_rng(5, "a", "b").integers(0, 1_000_000)
        second = derive_rng(5, "a", "b").integers(0, 1_000_000)
        assert first == second

    def test_derive_rng_differs_by_label(self):
        a = derive_rng(5, "a").integers(0, 1_000_000)
        b = derive_rng(5, "b").integers(0, 1_000_000)
        assert a != b

    def test_spawn_seeds_count(self):
        assert len(spawn_seeds(0, 7)) == 7

    def test_shuffled_does_not_mutate(self):
        items = [1, 2, 3, 4]
        shuffled(items, seed=0)
        assert items == [1, 2, 3, 4]

    def test_sample_without_replacement_handles_small_pool(self):
        assert sorted(sample_without_replacement([1, 2], 5, seed=0)) == [1, 2]


class TestLinalg:
    def test_normalize_vector_unit_norm(self):
        vector = normalize_vector(np.array([3.0, 4.0]))
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_normalize_vector_zero_stays_zero(self):
        assert np.allclose(normalize_vector(np.zeros(4)), 0.0)

    def test_normalize_rows(self):
        matrix = normalize_rows(np.array([[3.0, 4.0], [0.0, 2.0]]))
        assert np.allclose(np.linalg.norm(matrix, axis=1), 1.0)

    def test_cosine_similarity_bounds(self):
        a = np.array([1.0, 0.0])
        assert cosine_similarity(a, a) == pytest.approx(1.0)
        assert cosine_similarity(a, -a) == pytest.approx(-1.0)

    def test_pairwise_inner_shape(self):
        queries = np.eye(3)[:2]
        database = np.eye(3)
        assert pairwise_inner(queries, database).shape == (2, 3)

    def test_random_unit_vectors_are_unit(self):
        vectors = random_unit_vectors(10, 16, seed=0)
        assert np.allclose(np.linalg.norm(vectors, axis=1), 1.0)

    def test_rotate_towards_angle(self):
        start = np.array([1.0, 0.0, 0.0])
        target = np.array([0.0, 1.0, 0.0])
        rotated = rotate_towards(start, target, 0.5)
        assert angular_distance(start, rotated) == pytest.approx(0.5, abs=1e-6)

    def test_rotate_towards_parallel_is_noop(self):
        start = np.array([1.0, 0.0])
        rotated = rotate_towards(start, start, 0.7)
        assert np.allclose(rotated, start)


class TestValidation:
    def test_check_positive(self):
        assert check_positive("x", 2.0) == 2.0
        with pytest.raises(ConfigurationError):
            check_positive("x", 0.0)
        assert check_positive("x", 0.0, allow_zero=True) == 0.0

    def test_check_probability(self):
        with pytest.raises(ConfigurationError):
            check_probability("p", 1.5)

    def test_check_shape_wildcards(self):
        array = np.zeros((3, 4))
        check_shape("a", array, (None, 4))
        with pytest.raises(ConfigurationError):
            check_shape("a", array, (None, 5))

    def test_check_finite(self):
        with pytest.raises(ConfigurationError):
            check_finite("a", np.array([1.0, np.nan]))

    def test_check_unit_norm(self):
        check_unit_norm("v", np.array([1.0, 0.0]))
        with pytest.raises(ConfigurationError):
            check_unit_norm("v", np.array([2.0, 0.0]))


class TestComputeDtypeHelpers:
    """The dtype-tier plumbing: zero-copy pass-throughs and their guards."""

    def test_resolve_compute_dtype(self):
        assert resolve_compute_dtype(None) == np.float64
        assert resolve_compute_dtype("float32") == np.float32
        assert resolve_compute_dtype(np.float64) == np.float64
        with pytest.raises(ValueError, match="compute dtype"):
            resolve_compute_dtype("float16")
        with pytest.raises(ValueError, match="compute dtype"):
            resolve_compute_dtype(np.int8)

    def test_unit_norm_tolerance_scales_with_precision(self):
        assert unit_norm_tolerance(np.float64) == 1e-12
        assert unit_norm_tolerance(np.float32) == 1e-6

    def test_ensure_dtype_is_identity_when_already_there(self):
        array = np.ones((4, 3), dtype=np.float32)
        assert ensure_dtype(array, np.float32) is array
        converted = ensure_dtype(array, np.float64)
        assert converted.dtype == np.float64
        assert converted is not array

    def test_assert_no_copy_accepts_views_and_rejects_copies(self):
        array = np.arange(12.0).reshape(3, 4)
        view = array.view()
        assert assert_no_copy(array, view) is view
        assert assert_no_copy(array, array) is array
        with pytest.raises(AssertionError, match="zero-copy"):
            assert_no_copy(array, array.copy())

    def test_unit_rows_passes_unit_input_through_without_copying(self):
        rows = random_unit_vectors(8, 16, seed=0)
        assert unit_rows(rows) is rows
        f32 = rows.astype(np.float32)
        assert unit_rows(f32) is f32

    def test_unit_rows_normalizes_non_unit_input(self):
        rng = np.random.default_rng(1)
        raw = 3.0 * rng.standard_normal((5, 8))
        normalized = unit_rows(raw)
        assert normalized is not raw
        assert np.allclose(np.linalg.norm(normalized, axis=1), 1.0)
        # dtype is preserved for compute dtypes...
        raw32 = raw.astype(np.float32)
        assert unit_rows(raw32).dtype == np.float32
        # ...and promoted to float64 for everything else.
        assert unit_rows(np.array([[3, 4]], dtype=np.int64)).dtype == np.float64


class TestCanonicalRows:
    """One canonical-row rule, and the adopt / copy / normalise choice on it."""

    @staticmethod
    def reference(matrix):
        """The rule as first written, over ``np.linalg.norm``'s row norms."""
        norms = np.linalg.norm(matrix, axis=1)
        return bool(
            ((np.abs(norms - 1.0) < unit_norm_tolerance(matrix.dtype)) | (norms < 1e-12)).all()
        )

    @staticmethod
    def scaled(dtype, row, factor):
        """Unit rows with one row's norm moved to ``factor`` (set in float64)."""
        matrix = random_unit_vectors(6, 16, seed=0)
        matrix[row] *= factor
        return matrix.astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_unit_zero_and_off_tolerance_rows(self, dtype):
        tolerance = unit_norm_tolerance(dtype)
        with_zero = self.scaled(dtype, 2, 1.0)
        with_zero[2] = 0.0
        cases = {
            "unit": (self.scaled(dtype, 0, 1.0), True),
            "inside tolerance": (self.scaled(dtype, 3, 1.0 + tolerance / 4), True),
            "zero row": (with_zero, True),
            "off by 4x tolerance": (self.scaled(dtype, 3, 1.0 + 4 * tolerance), False),
            "short by 4x tolerance": (self.scaled(dtype, 5, 1.0 - 4 * tolerance), False),
            "near-zero but not zero": (self.scaled(dtype, 1, 1e-6), False),
        }
        for name, (matrix, expected) in cases.items():
            assert has_canonical_rows(matrix) is expected, name
            assert self.reference(matrix) is expected, name

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_stores_adopt_copy_or_normalise(self, dtype):
        unit = self.scaled(dtype, 0, 1.0)
        copied = ExactVectorStore(unit)
        assert not np.shares_memory(copied.vectors, unit)
        assert np.array_equal(copied.vectors, unit)
        frozen = unit.copy()
        frozen.setflags(write=False)
        assert np.shares_memory(ExactVectorStore(frozen).vectors, frozen)
        assert unit_rows(unit) is unit
        off = self.scaled(dtype, 3, 2.0)
        for vectors in (
            ExactVectorStore(off).vectors,
            unit_rows(off),
            DeltaVectorStore(copied, off, np.zeros(12, dtype=bool)).take(np.arange(6, 12)),
        ):
            assert vectors.dtype == dtype
            assert np.allclose(np.linalg.norm(vectors, axis=1), 1.0, atol=1e-6)
        delta = DeltaVectorStore(copied, unit, np.zeros(12, dtype=bool))
        assert np.array_equal(delta.take(np.arange(6, 12)), unit)


class TestReleaseFreeHeap:
    def test_runs_where_supported(self):
        assert memory.release_free_heap() in (True, False)

    def test_noop_without_malloc_trim(self, monkeypatch):
        """macOS and musl libcs lack the symbol: the helper does nothing."""
        class LibcWithoutTrim:
            pass

        monkeypatch.setattr(ctypes, "CDLL", lambda name: LibcWithoutTrim())
        memory._malloc_trim.cache_clear()
        try:
            assert memory.release_free_heap() is False
        finally:
            memory._malloc_trim.cache_clear()


def _mallinfo2():
    """glibc's ``mallinfo2`` (2.33+), or ``None`` where the C library lacks it."""

    class Mallinfo2(ctypes.Structure):
        _fields_ = [
            (name, ctypes.c_size_t)
            for name in (
                "arena", "ordblks", "smblks", "hblks", "hblkhd",
                "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost",
            )
        ]

    try:
        function = ctypes.CDLL(None).mallinfo2
    except (AttributeError, OSError, TypeError):
        return None
    function.restype = Mallinfo2
    return function


class TestFreezeHeapThresholds:
    def test_noop_without_mallopt(self, monkeypatch):
        """macOS and musl libcs lack the symbol: the helper does nothing."""
        class LibcWithoutMallopt:
            pass

        monkeypatch.setattr(ctypes, "CDLL", lambda name: LibcWithoutMallopt())
        memory._mallopt.cache_clear()
        try:
            assert memory.freeze_heap_thresholds() is False
        finally:
            memory._mallopt.cache_clear()

    def test_service_start_mmaps_corpus_sized_blocks_only(self):
        """After a service starts, a 3 MiB block is mmapped (``hblkhd``
        counts it) and a 1 MiB one comes from the heap, whatever glibc's
        dynamic threshold had grown to."""
        mallinfo2 = _mallinfo2()
        if mallinfo2 is None:
            pytest.skip("the C library has no mallinfo2")
        from repro.config import SeeSawConfig
        from repro.server.service import SeeSawService

        SeeSawService(SeeSawConfig())
        before = mallinfo2().hblkhd
        small = np.ones((1 << 20) // 8)
        assert mallinfo2().hblkhd == before
        large = np.ones((3 << 20) // 8)
        assert mallinfo2().hblkhd >= before + large.nbytes
        del small, large
