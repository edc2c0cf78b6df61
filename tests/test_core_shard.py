"""Tests for store fits: the trainer over shard blocks (repro.core.shard).

The contract under test is exactness: a store fit — serial, pooled, or
recovering from worker deaths — must be bit-identical to the fit of the
same data as an in-RAM log (LL trace, final assignments, fitted cells),
for any shard geometry.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.model import _cell_cache_key
from repro.core.parallel import ParallelConfig, WorkerPoolWarning
from repro.core.shard import ShardedFitResult
from repro.core.training import Trainer, TrainerConfig, fit_skill_model
from repro.data.actions import Action, ActionLog
from repro.data.store import ActionStore, StoreWriter
from repro.exceptions import ConfigurationError, DataError
from repro.obs.telemetry import TRAINER_STAGES
from repro.testing.faults import kill_shard_worker
from tests.test_core_training import assert_cutoff_fits_match_cold_refit


def _progression_log(num_users=24, seed=11) -> ActionLog:
    """Progression-flavoured sequences over the 12-item tiny catalog."""
    rng = np.random.default_rng(seed)
    actions = []
    for u in range(num_users):
        length = int(rng.integers(6, 18))
        for t in range(length):
            tier = min(2, (3 * t) // length)
            item = f"i{int(rng.integers(4 * tier, 4 * tier + 4))}"
            actions.append(Action(time=float(t), user=f"u{u:03d}", item=item))
    return ActionLog.from_actions(actions)


def _fit_pair(log, store, catalog, feature_set, **config_kwargs):
    """Fit the same data in RAM and out of core with one configuration."""
    defaults = dict(
        num_levels=3, max_iterations=8, init_min_actions=8, smoothing=0.5
    )
    defaults.update(config_kwargs)
    ram = Trainer(TrainerConfig(**defaults)).fit(log, catalog, feature_set)
    sharded = Trainer(TrainerConfig(**defaults)).fit(
        store, catalog, feature_set
    )
    return ram, sharded


def _assert_identical(ram, sharded):
    assert ram.trace.log_likelihoods == sharded.trace.log_likelihoods
    assert ram.trace.converged == sharded.trace.converged
    assert set(ram.assignments) == set(sharded.assignments)
    for user in ram.assignments:
        assert np.array_equal(ram.assignments[user], sharded.assignments[user])
    for row_a, row_b in zip(ram.parameters.cells, sharded.parameters.cells):
        for cell_a, cell_b in zip(row_a, row_b):
            assert _cell_cache_key(cell_a) == _cell_cache_key(cell_b)


@pytest.fixture
def dataset(tiny_catalog, tiny_feature_set, tmp_path):
    log = _progression_log()
    feature_set = tiny_feature_set.with_id_feature()

    def make_store(users_per_shard):
        path = tmp_path / f"shards-{users_per_shard}.store"
        return ActionStore.from_log(log, path, users_per_shard=users_per_shard)

    return log, tiny_catalog, feature_set, make_store


class TestShardedParity:
    @pytest.mark.parametrize("users_per_shard", [1, 4, 1000])
    def test_bit_identical_for_any_geometry(self, dataset, users_per_shard):
        """One user per shard, several, or everything in a single shard."""
        log, catalog, feature_set, make_store = dataset
        store = make_store(users_per_shard)
        ram, sharded = _fit_pair(log, store, catalog, feature_set)
        _assert_identical(ram, sharded)

    def test_cold_mstep_parity(self, tmp_path):
        """A store fit's incremental M-step is exact: cut off after k
        iterations, it equals a cold M-step over its assignments."""
        from repro.synth import SyntheticConfig, generate_synthetic

        ds = generate_synthetic(SyntheticConfig(num_users=80, num_items=400, seed=5))
        store = ActionStore.from_log(ds.log, tmp_path / "s.store", users_per_shard=16)
        assert_cutoff_fits_match_cold_refit(store, ds)

    def test_pooled_parity(self, dataset):
        """workers > 1 routes shards through the process pool; results
        must not depend on which process ran which shard."""
        log, catalog, feature_set, make_store = dataset
        store = make_store(4)
        parallel = ParallelConfig(users=True, workers=2, restart_backoff=0.0)
        ram, pooled = _fit_pair(
            log, store, catalog, feature_set, parallel=parallel
        )
        _assert_identical(ram, pooled)

    def test_fit_skill_model_dispatches_stores(self, dataset):
        log, catalog, feature_set, make_store = dataset
        store = make_store(6)
        via_log = fit_skill_model(
            log, catalog, feature_set, 3, max_iterations=6, init_min_actions=8
        )
        via_store = fit_skill_model(
            store, catalog, feature_set, 3, max_iterations=6, init_min_actions=8
        )
        _assert_identical(via_log, via_store)

    def test_checkpointing_rejected_for_stores(self, dataset, tmp_path):
        from repro.core.checkpoint import CheckpointConfig

        _, catalog, feature_set, make_store = dataset
        store = make_store(6)
        checkpoint = CheckpointConfig(path=tmp_path / "m.ckpt.json", every=1)
        with pytest.raises(ConfigurationError, match="checkpoint"):
            fit_skill_model(
                store, catalog, feature_set, 3, checkpoint=checkpoint
            )


class TestShardedResultShape:
    def test_materialize_false_skips_assignments(self, dataset):
        log, catalog, feature_set, make_store = dataset
        store = make_store(4)
        config = TrainerConfig(
            num_levels=3, max_iterations=6, init_min_actions=8
        )
        full = Trainer(config).fit(store, catalog, feature_set)
        slim = Trainer(config).fit(
            store, catalog, feature_set, materialize=False
        )
        assert isinstance(slim, ShardedFitResult)
        assert slim.trace.log_likelihoods == full.trace.log_likelihoods
        assert slim.num_users == store.num_users
        assert slim.num_actions == store.num_actions
        assert slim.num_shards == store.num_shards

    def test_telemetry_covers_shard_stages(self, dataset):
        _, catalog, feature_set, make_store = dataset
        store = make_store(4)
        config = TrainerConfig(
            num_levels=3, max_iterations=4, init_min_actions=8
        )
        model = Trainer(config).fit(store, catalog, feature_set)
        stage_names = {
            name
            for record in model.telemetry.iterations
            for name in record.stage_seconds
        }
        assert stage_names == set(TRAINER_STAGES)

    def test_empty_store_rejected(self, tiny_catalog, tiny_feature_set, tmp_path):
        store = StoreWriter(tmp_path / "empty.store").finalize()
        config = TrainerConfig(num_levels=3)
        with pytest.raises(DataError, match="empty action store"):
            Trainer(config).fit(
                store, tiny_catalog, tiny_feature_set.with_id_feature()
            )


class TestShardedFaults:
    def test_worker_death_triggers_rebuild_with_parity(self, dataset, tmp_path):
        """One shard worker dying mid-fit must cost a pool rebuild, not
        correctness: the recovered fit stays bit-identical."""
        log, catalog, feature_set, make_store = dataset
        store = make_store(4)
        parallel = ParallelConfig(users=True, workers=2, restart_backoff=0.0)
        ram, _ = _fit_pair(log, store, catalog, feature_set)
        config = TrainerConfig(
            num_levels=3,
            max_iterations=8,
            init_min_actions=8,
            smoothing=0.5,
            parallel=parallel,
        )
        trainer = Trainer(config)
        with kill_shard_worker(tmp_path, deaths=1) as token_dir:
            with pytest.warns(WorkerPoolWarning, match="rebuilding pool"):
                recovered = trainer.fit(store, catalog, feature_set)
            claimed = [p for p in token_dir.iterdir() if p.suffix == ".claimed"]
            assert len(claimed) == 1
        _assert_identical(ram, recovered)

    def test_repeated_deaths_degrade_to_serial_with_parity(
        self, dataset, tmp_path
    ):
        """Exhausting the rebuild budget falls back to serial shard
        execution for the rest of the run — still bit-identical."""
        log, catalog, feature_set, make_store = dataset
        store = make_store(4)
        parallel = ParallelConfig(
            users=True, workers=2, max_pool_restarts=1, restart_backoff=0.0
        )
        ram, _ = _fit_pair(log, store, catalog, feature_set)
        config = TrainerConfig(
            num_levels=3,
            max_iterations=8,
            init_min_actions=8,
            smoothing=0.5,
            parallel=parallel,
        )
        trainer = Trainer(config)
        with kill_shard_worker(tmp_path, deaths=20):
            with pytest.warns(WorkerPoolWarning, match="degrading to serial"):
                degraded = trainer.fit(store, catalog, feature_set)
        _assert_identical(ram, degraded)


class TestStoreFitDifferential:
    """Property: a store fit is the log fit, for any log, geometry, and
    skip-level configuration."""

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_store_fit_equals_log_fit(self, tiny_catalog, tiny_feature_set, data):
        num_users = data.draw(st.integers(1, 8), label="users")
        actions = []
        for u in range(num_users):
            items = data.draw(
                st.lists(st.integers(0, 11), min_size=1, max_size=15),
                label=f"items[{u}]",
            )
            actions.extend(
                Action(time=float(t), user=f"u{u}", item=f"i{item}")
                for t, item in enumerate(items)
            )
        log = ActionLog.from_actions(actions)
        users_per_shard = data.draw(st.integers(1, num_users + 1), label="per_shard")
        max_step = data.draw(st.sampled_from([1, 2]), label="max_step")
        penalties = None
        if data.draw(st.booleans(), label="penalised"):
            weights = data.draw(
                st.lists(
                    st.floats(0.05, 1.0), min_size=max_step + 1, max_size=max_step + 1
                ),
                label="step_weights",
            )
            penalties = tuple(float(np.log(w / sum(weights))) for w in weights)
        config = dict(
            max_iterations=data.draw(st.integers(1, 8), label="max_iterations"),
            init_min_actions=data.draw(st.integers(1, 12), label="init_min_actions"),
            smoothing=0.5,
            max_step=max_step,
            step_log_penalties=penalties,
        )
        feature_set = tiny_feature_set.with_id_feature()
        with tempfile.TemporaryDirectory() as scratch:
            store = ActionStore.from_log(
                log, Path(scratch) / "log.store", users_per_shard=users_per_shard
            )
            via_log = fit_skill_model(log, tiny_catalog, feature_set, 3, **config)
            via_store = fit_skill_model(store, tiny_catalog, feature_set, 3, **config)
        _assert_identical(via_log, via_store)


class TestStoreRewrittenInPlace:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_refit_after_rebuilding_store_at_same_path(
        self, dataset, tmp_path, workers
    ):
        """A store rebuilt at a path already fitted in this process must be
        read afresh — in-process and by pool workers — not through a reader
        cached for the old manifest."""
        log, catalog, feature_set, _ = dataset
        path = tmp_path / "rewritten.store"
        kwargs = dict(
            max_iterations=6,
            init_min_actions=8,
            smoothing=0.5,
            parallel=ParallelConfig(users=True, workers=workers, restart_backoff=0.0),
        )
        fit_skill_model(
            ActionStore.from_log(log, path, users_per_shard=6),
            catalog, feature_set, 3, **kwargs,
        )
        shutil.rmtree(path)
        store = ActionStore.from_log(log, path, users_per_shard=4)
        refit = fit_skill_model(store, catalog, feature_set, 3, **kwargs)
        _assert_identical(
            fit_skill_model(log, catalog, feature_set, 3, **kwargs), refit
        )

