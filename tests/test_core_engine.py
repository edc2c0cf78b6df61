"""Tests for repro.core.engine: kernel routing, parity, table cache."""

import numpy as np
import pytest

from repro.core.dp import best_monotone_path
from repro.core.engine import AssignmentEngine
from repro.core.model import ScoreTableCache, SkillParameters
from repro.core.parallel import ParallelConfig
from repro.core.training import fit_skill_model
from repro.obs.metrics import MetricsRegistry, use_registry


@pytest.fixture
def score_table():
    rng = np.random.default_rng(0)
    return rng.normal(size=(4, 50))


@pytest.fixture
def user_rows():
    rng = np.random.default_rng(1)
    return [rng.integers(0, 50, size=rng.integers(1, 40)) for _ in range(30)]


class TestStrategySelection:
    def test_auto_large_batch_is_batched(self, score_table, user_rows, monkeypatch):
        """Without user parallelism the engine runs the batched kernel."""
        import repro.core.engine as engine_module

        calls = []
        kernel = engine_module.batch_assign

        def spy(*args, **kwargs):
            calls.append(len(args[1]))
            return kernel(*args, **kwargs)

        monkeypatch.setattr(engine_module, "batch_assign", spy)
        with AssignmentEngine() as engine:
            assert not engine.pooled
            engine.assign(score_table, user_rows)
        assert calls == [len(user_rows)]

    def test_auto_prefers_pool_when_enabled(self):
        with AssignmentEngine(ParallelConfig(users=True, workers=2)) as engine:
            assert engine.pooled
        with AssignmentEngine(ParallelConfig(users=True, workers=1)) as engine:
            assert not engine.pooled  # nothing to fan out

    def test_assign_is_timed(self, score_table, user_rows):
        registry = MetricsRegistry()
        with use_registry(registry), AssignmentEngine() as engine:
            engine.assign(score_table, user_rows)
        snapshot = registry.snapshot()
        assert snapshot["histograms"]["engine.assign_seconds"]["count"] == 1


class TestStrategyParity:
    @pytest.mark.parametrize("strategy", ["batched", "pooled"])
    def test_matches_scalar_dp(self, strategy, score_table, user_rows):
        parallel = (
            ParallelConfig(users=True, workers=2) if strategy == "pooled" else None
        )
        with AssignmentEngine(parallel) as engine:
            results = engine.assign(score_table, user_rows)
            flat, lls = engine.assign_flat(score_table, user_rows)
        np.testing.assert_array_equal(flat, np.concatenate([r.levels for r in results]))
        for k, (rows, got) in enumerate(zip(user_rows, results)):
            expected = best_monotone_path(score_table[:, rows].T)
            np.testing.assert_array_equal(got.levels, expected.levels)
            assert got.log_likelihood == expected.log_likelihood == lls[k]

    def test_small_batch_matches_scalar_dp(self, score_table, user_rows):
        """Small batches take the batched kernel too; it must agree with the
        scalar DP down to one user (and return nothing for none)."""
        with AssignmentEngine() as engine:
            for num_users in (0, 1, 2, 15):
                batch = user_rows[:num_users]
                results = engine.assign(score_table, batch)
                flat, lls = engine.assign_flat(score_table, batch)
                assert len(results) == len(lls) == num_users
                assert len(flat) == sum(len(rows) for rows in batch)
                for k, (rows, got) in enumerate(zip(batch, results)):
                    expected = best_monotone_path(score_table[:, rows].T)
                    np.testing.assert_array_equal(got.levels, expected.levels)
                    assert got.log_likelihood == expected.log_likelihood == lls[k]

    def test_pooled_without_shared_memory_matches(self, score_table, user_rows):
        config = ParallelConfig(users=True, workers=2, shared_memory=False)
        with AssignmentEngine(config) as engine:
            results = engine.assign(score_table, user_rows)
        for rows, got in zip(user_rows, results):
            expected = best_monotone_path(score_table[:, rows].T)
            np.testing.assert_array_equal(got.levels, expected.levels)
            assert got.log_likelihood == expected.log_likelihood

    def test_skip_level_configuration_flows_through(self, score_table, user_rows):
        penalties = np.array([0.0, np.log(0.6), np.log(0.4)])
        with AssignmentEngine(max_step=2, step_log_penalties=penalties) as engine:
            results = engine.assign(score_table, user_rows)
        for rows, got in zip(user_rows, results):
            expected = best_monotone_path(
                score_table[:, rows].T, max_step=2, step_log_penalties=penalties
            )
            np.testing.assert_array_equal(got.levels, expected.levels)
            assert got.log_likelihood == expected.log_likelihood


def _fit_params(encoded, levels_of, num_levels=3):
    rows = np.arange(encoded.num_items)
    return SkillParameters.fit_from_assignments(
        encoded, rows, levels_of(rows), num_levels=num_levels
    )


class TestScoreTableCache:
    def test_warm_rebuild_recomputes_zero_rows(self, tiny_catalog, tiny_feature_set):
        """Refitting identical assignments must hit the cache on every row."""
        encoded = tiny_feature_set.encode(tiny_catalog)
        params = _fit_params(encoded, lambda rows: rows % 3)
        refit = _fit_params(encoded, lambda rows: rows % 3)  # equal cells, new objects
        registry = MetricsRegistry()
        with use_registry(registry):
            cache = ScoreTableCache()
            cold = params.item_score_table(encoded, cache=cache)
            assert cache.misses == 3 * len(tiny_feature_set) and cache.hits == 0
            warm = refit.item_score_table(encoded, cache=cache)
            assert cache.misses == 3 * len(tiny_feature_set)  # zero new rows
            assert cache.hits == 3 * len(tiny_feature_set)
        np.testing.assert_array_equal(cold, warm)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["score_cache.hits"] == cache.hits
        assert snapshot["counters"]["score_cache.misses"] == cache.misses

    def test_changed_cells_are_recomputed(self, tiny_catalog, tiny_feature_set):
        encoded = tiny_feature_set.encode(tiny_catalog)
        cache = ScoreTableCache()
        _fit_params(encoded, lambda rows: rows % 3).item_score_table(
            encoded, cache=cache
        )
        misses_before = cache.misses
        changed = _fit_params(encoded, lambda rows: (rows + 1) % 3)
        table = changed.item_score_table(encoded, cache=cache)
        assert cache.misses > misses_before
        np.testing.assert_array_equal(table, changed.item_score_table(encoded))

    def test_cached_table_equals_uncached(self, tiny_catalog, tiny_feature_set):
        encoded = tiny_feature_set.encode(tiny_catalog)
        params = _fit_params(encoded, lambda rows: rows % 3)
        cached = params.item_score_table(encoded, cache=ScoreTableCache())
        np.testing.assert_array_equal(cached, params.item_score_table(encoded))

    def test_repeated_encode_is_memoized(self, tiny_catalog, tiny_feature_set):
        """Same feature set + same catalog → the very same EncodedItems."""
        assert tiny_feature_set.encode(tiny_catalog) is tiny_feature_set.encode(
            tiny_catalog
        )

    def test_different_catalog_resets_cache(self, tiny_catalog, tiny_feature_set):
        encoded = tiny_feature_set.encode(tiny_catalog)
        # Equal content, new identity — bypass the encode memoizer, which
        # would otherwise hand back the same object.
        other = tiny_feature_set._encode(tiny_catalog)
        params = _fit_params(encoded, lambda rows: rows % 3)
        cache = ScoreTableCache()
        params.item_score_table(encoded, cache=cache)
        hits_before = cache.hits
        params.item_score_table(other, cache=cache)
        assert cache.hits == hits_before  # all rows recomputed for the new catalog

    def test_engine_owns_a_cache(self, tiny_catalog, tiny_feature_set):
        encoded = tiny_feature_set.encode(tiny_catalog)
        params = _fit_params(encoded, lambda rows: rows % 3)
        with AssignmentEngine() as engine:
            engine.score_table(params, encoded)
            assert engine.cache.hits == 0
            engine.score_table(params, encoded)
            assert engine.cache.hits == 3 * len(tiny_feature_set)


class TestTrainerIntegration:
    def test_fit_reports_cache_hits_after_first_iteration(
        self, tiny_log, tiny_catalog, tiny_feature_set
    ):
        """Late-iteration table builds must be mostly cache hits."""
        registry = MetricsRegistry()
        with use_registry(registry):
            fit_skill_model(
                tiny_log, tiny_catalog, tiny_feature_set, 3, init_min_actions=5
            )
        counters = registry.snapshot()["counters"]
        assert counters["score_cache.misses"] > 0
        assert counters["score_cache.hits"] > 0
