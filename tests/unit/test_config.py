"""Tests for configuration dataclasses and their validation."""

import pytest

from repro.config import (
    PAPER_DEFAULT_CONFIG,
    RETIRED_FIELDS,
    BenchmarkTaskConfig,
    KnnGraphConfig,
    LossWeights,
    MultiscaleConfig,
    OptimizerConfig,
    SeeSawConfig,
)
from repro.exceptions import ConfigurationError


class TestLossWeights:
    def test_defaults_are_positive(self):
        weights = LossWeights()
        assert weights.lambda_norm > 0
        assert weights.lambda_clip > 0
        assert weights.lambda_db > 0

    def test_zero_weights_allowed(self):
        weights = LossWeights(lambda_norm=0, lambda_clip=0, lambda_db=0)
        assert weights.lambda_clip == 0

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            LossWeights(lambda_norm=-1)


class TestKnnGraphConfig:
    def test_defaults(self):
        config = KnnGraphConfig()
        assert config.k == 10
        assert config.sigma == pytest.approx(0.05)

    def test_invalid_k(self):
        with pytest.raises(ConfigurationError):
            KnnGraphConfig(k=0)

    def test_invalid_sigma(self):
        with pytest.raises(ConfigurationError):
            KnnGraphConfig(sigma=0)


class TestMultiscaleConfig:
    def test_defaults_match_paper(self):
        config = MultiscaleConfig()
        assert config.min_patch_pixels == 224
        assert config.patch_fraction == pytest.approx(0.5)

    def test_zero_patch_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            MultiscaleConfig(patch_fraction=0.0)


class TestOptimizerConfig:
    def test_invalid_iterations(self):
        with pytest.raises(ConfigurationError):
            OptimizerConfig(max_iterations=0)


class TestBenchmarkTaskConfig:
    def test_paper_cutoffs(self):
        config = BenchmarkTaskConfig()
        assert config.target_results == 10
        assert config.max_images == 60

    def test_budget_must_cover_target(self):
        with pytest.raises(ConfigurationError):
            BenchmarkTaskConfig(target_results=10, max_images=5)


class TestSeeSawConfig:
    def test_with_overrides_returns_new_object(self):
        config = SeeSawConfig()
        changed = config.with_overrides(use_db_alignment=False)
        assert changed.use_db_alignment is False
        assert config.use_db_alignment is True

    def test_invalid_dimension(self):
        with pytest.raises(ConfigurationError):
            SeeSawConfig(embedding_dim=1)

    def test_paper_default_config_exists(self):
        assert PAPER_DEFAULT_CONFIG.task.target_results == 10


class TestScalingKnobs:
    def test_defaults_keep_flat_store(self):
        assert SeeSawConfig().n_shards == 1

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError, match="n_shards"):
            SeeSawConfig(n_shards=0)

    def test_round_trip_through_dict(self):
        config = SeeSawConfig(n_shards=4)
        assert SeeSawConfig.from_dict(config.to_dict()).n_shards == 4


class TestRetiredFields:
    def test_from_dict_drops_retired_fields(self):
        data = SeeSawConfig(n_shards=2).to_dict()
        data["batch_window_ms"] = 0.0
        data["optimizer"]["wolfe_c2"] = 0.9
        data["knn"].update(
            use_nn_descent=True, nn_descent_iterations=8, nn_descent_sample_rate=1.0
        )
        data.update(
            overload_ef_floor=4,
            retry_max_attempts=7,
            retry_base_ms=10.0,
            retry_max_ms=80.0,
            breaker_failure_threshold=2,
            breaker_reset_s=1.5,
            faults={"seed": 21, "error_probability": 1.0},
        )
        data["optimizer"].update(
            history_size=5, initial_step=0.5, wolfe_c1=1e-3, max_line_search_steps=10
        )
        assert RETIRED_FIELDS == {
            "batch_window_ms",
            "optimizer.wolfe_c2",
            "knn.use_nn_descent",
            "knn.nn_descent_iterations",
            "knn.nn_descent_sample_rate",
            "overload_ef_floor",
            "retry_max_attempts",
            "retry_base_ms",
            "retry_max_ms",
            "breaker_failure_threshold",
            "breaker_reset_s",
            "optimizer.history_size",
            "optimizer.initial_step",
            "optimizer.wolfe_c1",
            "optimizer.max_line_search_steps",
            "faults",
        }
        assert SeeSawConfig.from_dict(data) == SeeSawConfig(n_shards=2)

    @pytest.mark.parametrize(
        "section, name", [(None, "future_knob"), ("optimizer", "future_knob")]
    )
    def test_unknown_field_is_a_configuration_error(self, section, name):
        data = SeeSawConfig().to_dict()
        (data if section is None else data[section])[name] = 1
        dotted = name if section is None else f"{section}.{name}"
        with pytest.raises(ConfigurationError, match=f"'{dotted}'"):
            SeeSawConfig.from_dict(data)


class TestStorageComputeTierKnobs:
    def test_defaults_are_bit_parity_float64_with_mmap(self):
        config = SeeSawConfig()
        assert config.compute_dtype == "float64"
        assert config.quantized_store is False
        assert config.quantized_rerank_factor == 4
        assert config.mmap_index is True

    def test_invalid_tier_values_rejected(self):
        with pytest.raises(ConfigurationError, match="compute_dtype"):
            SeeSawConfig(compute_dtype="float16")
        with pytest.raises(ConfigurationError, match="quantized_rerank_factor"):
            SeeSawConfig(quantized_rerank_factor=0)

    def test_round_trip_through_dict(self):
        config = SeeSawConfig(
            compute_dtype="float32",
            quantized_store=True,
            quantized_rerank_factor=8,
            mmap_index=False,
        )
        rebuilt = SeeSawConfig.from_dict(config.to_dict())
        assert rebuilt == config
