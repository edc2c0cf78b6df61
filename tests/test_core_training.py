"""Tests for repro.core.training: initialization, alternation, convergence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.training import Trainer, TrainerConfig, fit_skill_model, uniform_segment_levels
from repro.data.actions import Action, ActionLog
from repro.exceptions import ConfigurationError, DataError
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.telemetry import TRAINER_STAGES, IterationRecord


class TestUniformSegmentLevels:
    def test_even_split(self):
        levels = uniform_segment_levels(9, 3)
        assert levels.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_uneven_split_front_loads(self):
        levels = uniform_segment_levels(7, 3)
        assert levels.tolist() == [0, 0, 0, 1, 1, 2, 2]

    def test_shorter_than_levels(self):
        levels = uniform_segment_levels(2, 5)
        assert levels.tolist() == [0, 1]

    def test_zero_actions(self):
        assert uniform_segment_levels(0, 3).tolist() == []

    def test_invalid_args(self):
        with pytest.raises(ConfigurationError):
            uniform_segment_levels(5, 0)
        with pytest.raises(ConfigurationError):
            uniform_segment_levels(-1, 3)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 200), s=st.integers(1, 10))
    def test_properties(self, n, s):
        levels = uniform_segment_levels(n, s)
        assert len(levels) == n
        if n:
            assert np.all(np.diff(levels) >= 0)  # monotone
            assert levels.min() >= 0 and levels.max() < s
            # group sizes differ by at most one
            sizes = np.bincount(levels, minlength=s)
            assert sizes.max() - sizes.min() <= 1


class TestTrainerConfig:
    def test_validation(self):
        for kwargs in (
            {"num_levels": 0},
            {"num_levels": 3, "smoothing": -1},
            {"num_levels": 3, "init_min_actions": 0},
            {"num_levels": 3, "max_iterations": 0},
            {"num_levels": 3, "tol": -1e-3},
        ):
            with pytest.raises(ConfigurationError):
                TrainerConfig(**kwargs)


class TestTrainer:
    def test_empty_log_rejected(self, tiny_catalog, tiny_feature_set):
        trainer = Trainer(TrainerConfig(num_levels=2))
        with pytest.raises(DataError):
            trainer.fit(ActionLog([]), tiny_catalog, tiny_feature_set)

    def test_log_likelihood_non_decreasing(self, tiny_log, tiny_catalog, tiny_feature_set):
        model = fit_skill_model(
            tiny_log, tiny_catalog, tiny_feature_set, 3, init_min_actions=5, max_iterations=30
        )
        lls = np.asarray(model.trace.log_likelihoods)
        # coordinate ascent: allow hair-width numerical dips only
        assert np.all(np.diff(lls) >= -1e-6 * np.abs(lls[:-1]))

    def test_converges_and_assignments_cover_all_users(
        self, tiny_log, tiny_catalog, tiny_feature_set
    ):
        model = fit_skill_model(
            tiny_log, tiny_catalog, tiny_feature_set, 3, init_min_actions=5, max_iterations=50
        )
        assert model.trace.converged
        assert set(model.assignments) == set(tiny_log.users)

    def test_single_level_degenerates_gracefully(
        self, tiny_log, tiny_catalog, tiny_feature_set
    ):
        model = fit_skill_model(
            tiny_log, tiny_catalog, tiny_feature_set, 1, init_min_actions=5, max_iterations=5
        )
        assert np.all(model.all_assigned_levels() == 1)

    def test_unknown_item_in_log(self, tiny_catalog, tiny_feature_set):
        log = ActionLog.from_actions([Action(time=0.0, user="u", item="ghost")])
        with pytest.raises(Exception):  # SchemaError via rows_for
            fit_skill_model(log, tiny_catalog, tiny_feature_set, 2)

    def test_init_fallback_when_no_long_user(self, tiny_log, tiny_catalog, tiny_feature_set):
        """init_min_actions higher than any sequence length must still train."""
        model = fit_skill_model(
            tiny_log, tiny_catalog, tiny_feature_set, 2, init_min_actions=10_000, max_iterations=5
        )
        assert model.trace.num_iterations >= 1

    def test_deterministic(self, tiny_log, tiny_catalog, tiny_feature_set):
        m1 = fit_skill_model(
            tiny_log, tiny_catalog, tiny_feature_set, 3, init_min_actions=5, max_iterations=20
        )
        m2 = fit_skill_model(
            tiny_log, tiny_catalog, tiny_feature_set, 3, init_min_actions=5, max_iterations=20
        )
        assert m1.trace.log_likelihoods == m2.trace.log_likelihoods
        for user in tiny_log.users:
            np.testing.assert_array_equal(
                m1.skill_trajectory(user), m2.skill_trajectory(user)
            )

    def test_max_iterations_respected(self, tiny_log, tiny_catalog, tiny_feature_set):
        model = fit_skill_model(
            tiny_log, tiny_catalog, tiny_feature_set, 3, init_min_actions=5, max_iterations=2
        )
        assert model.trace.num_iterations <= 2

    def test_recovers_planted_progression(self):
        """On data with a strong planted signal the model should track it."""
        from repro.synth import SyntheticConfig, generate_synthetic

        ds = generate_synthetic(SyntheticConfig(num_users=80, num_items=400, seed=5))
        model = fit_skill_model(
            ds.log, ds.catalog, ds.feature_set, 5, init_min_actions=30, max_iterations=30
        )
        truth = ds.true_skill_array()
        estimate = model.all_assigned_levels()
        correlation = np.corrcoef(truth, estimate)[0, 1]
        assert correlation > 0.5

    def test_smoothing_zero_allowed_when_data_covers(self, tiny_log, tiny_catalog, tiny_feature_set):
        """λ=0 works as long as every level sees data for every category."""
        model = fit_skill_model(
            tiny_log,
            tiny_catalog,
            tiny_feature_set.subset(["steps", "weight"]),  # no categorical
            2,
            smoothing=0.0,
            init_min_actions=5,
            max_iterations=5,
        )
        assert np.isfinite(model.log_likelihood)


def assert_cutoff_fits_match_cold_refit(data, ds):
    """Fit ``data`` (``ds``'s log or a store of it) cut off after k = 1..6
    iterations; each fit must carry exactly the parameters a cold M-step
    over its final assignments produces, cell for cell."""
    from repro.core.model import SkillParameters, _cell_cache_key

    encoded = ds.feature_set.encode(ds.catalog)
    users = list(ds.log.users)
    rows = np.concatenate(
        [encoded.rows_for_sequence(ds.log.sequence(u)) for u in users]
    )
    for k in range(1, 7):
        model = fit_skill_model(
            data, ds.catalog, ds.feature_set, 5,
            init_min_actions=30, max_iterations=k,
        )
        assert not model.trace.converged
        levels = np.concatenate([model.assignments[u] - 1 for u in users])
        cold = SkillParameters.fit_from_assignments(
            encoded, rows, levels, num_levels=5, smoothing=0.01
        )
        for row_fit, row_cold in zip(model.parameters.cells, cold.cells):
            for cell_fit, cell_cold in zip(row_fit, row_cold):
                assert _cell_cache_key(cell_fit) == _cell_cache_key(cell_cold)


class TestIncrementalMStep:
    def test_parameters_match_cold_refit(self):
        """The incremental reduce is exact: a log fit cut off mid-flight
        equals a cold M-step over its assignments.  The store path runs
        the same check in ``test_core_shard``."""
        from repro.synth import SyntheticConfig, generate_synthetic

        ds = generate_synthetic(SyntheticConfig(num_users=80, num_items=400, seed=5))
        assert_cutoff_fits_match_cold_refit(ds.log, ds)

    def test_cells_refit_gauge_tracks_churn(self):
        """The gauge starts at the full grid (cold build), shrinks to a
        partial refit as assignments settle, and reaches zero before the
        convergence check fires."""
        from repro.synth import SyntheticConfig, generate_synthetic

        ds = generate_synthetic(SyntheticConfig(num_users=80, num_items=400, seed=5))
        registry = MetricsRegistry()
        observed: list[float] = []
        with use_registry(registry):
            model = fit_skill_model(
                ds.log, ds.catalog, ds.feature_set, 5,
                init_min_actions=30, max_iterations=30,
                on_iteration=lambda record: observed.append(
                    registry.gauge("train.cells_refit").value
                ),
            )
        assert model.trace.converged
        num_cells = 5 * len(ds.feature_set)
        assert observed[0] == num_cells  # first update is a cold full refit
        assert observed[-1] == 0.0  # nothing moved by the end
        # Some mid-training iteration refit a strict, non-empty subset.
        assert any(0 < value < num_cells for value in observed)


class _FakeClock:
    """Advances a fixed step on every read: deterministic positive timings."""

    def __init__(self, step: float = 0.001) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestTelemetry:
    def test_telemetry_matches_trace(self, tiny_log, tiny_catalog, tiny_feature_set):
        model = fit_skill_model(
            tiny_log, tiny_catalog, tiny_feature_set, 3, init_min_actions=5, max_iterations=30
        )
        telemetry = model.telemetry
        assert telemetry is not None
        assert len(telemetry.log_likelihoods) == model.trace.num_iterations
        assert telemetry.log_likelihoods == model.trace.log_likelihoods
        assert telemetry.converged == model.trace.converged
        assert len(telemetry.iterations) == model.trace.num_iterations
        # One record per iteration, numbered and valued consistently.
        for k, record in enumerate(telemetry.iterations, start=1):
            assert record.iteration == k
            assert record.log_likelihood == model.trace.log_likelihoods[k - 1]
        assert telemetry.iterations[0].improvement is None
        assert set(telemetry.pool_events) == {"rebuilds", "degraded", "chunk_timeouts"}
        assert all(v == 0 for v in telemetry.pool_events.values())

    def test_telemetry_lls_monotone_under_strict(
        self, tiny_log, tiny_catalog, tiny_feature_set
    ):
        model = fit_skill_model(
            tiny_log,
            tiny_catalog,
            tiny_feature_set,
            3,
            init_min_actions=5,
            max_iterations=30,
            strict=True,
        )
        lls = np.asarray(model.telemetry.log_likelihoods)
        assert np.all(np.diff(lls) >= -1e-6 * np.abs(lls[:-1]))

    def test_on_iteration_callback(self, tiny_log, tiny_catalog, tiny_feature_set):
        seen: list[IterationRecord] = []
        model = fit_skill_model(
            tiny_log,
            tiny_catalog,
            tiny_feature_set,
            3,
            init_min_actions=5,
            max_iterations=30,
            on_iteration=seen.append,
        )
        assert len(seen) == model.trace.num_iterations
        assert seen[-1].log_likelihood == model.log_likelihood
        assert all(isinstance(record, IterationRecord) for record in seen)
        # The histogram in each record covers every action exactly once.
        assert sum(seen[-1].level_histogram) == tiny_log.num_actions

    def test_stage_seconds_deterministic_with_fake_clock(
        self, tiny_log, tiny_catalog, tiny_feature_set
    ):
        registry = MetricsRegistry(clock=_FakeClock())
        with use_registry(registry):
            model = fit_skill_model(
                tiny_log, tiny_catalog, tiny_feature_set, 3, init_min_actions=5, max_iterations=10
            )
        telemetry = model.telemetry
        # Every trainer stage is reported, and the timed ones are positive
        # (the fake clock advances on every read — no time.sleep involved).
        assert set(telemetry.stage_seconds) == set(TRAINER_STAGES)
        for stage in ("table_build", "assign", "iteration"):
            assert telemetry.stage_seconds[stage] > 0
        assert telemetry.stage_seconds["checkpoint"] == 0.0  # checkpointing off
        assert telemetry.total_seconds > 0
        # The same wall-time landed in the registry histograms.
        snapshot = registry.snapshot()
        for stage in TRAINER_STAGES:
            hist = snapshot["histograms"][f"train.{stage}_seconds"]
            assert hist["count"] == model.trace.num_iterations
        assert snapshot["counters"]["train.iterations"] == model.trace.num_iterations
        assert snapshot["gauges"]["train.log_likelihood"] == model.log_likelihood

    def test_telemetry_records_checkpoints(
        self, tiny_log, tiny_catalog, tiny_feature_set, tmp_path
    ):
        from repro.core.checkpoint import CheckpointConfig

        path = tmp_path / "ck.json"
        model = fit_skill_model(
            tiny_log,
            tiny_catalog,
            tiny_feature_set,
            3,
            checkpoint=CheckpointConfig(path=path, every=1),
            init_min_actions=5,
            max_iterations=30,
        )
        events = model.telemetry.checkpoints
        assert events, "checkpointing every iteration must record events"
        for event in events:
            assert event.path == str(path)
            assert event.num_bytes > 0
            assert event.seconds >= 0
        assert model.telemetry.stage_seconds["checkpoint"] >= 0
