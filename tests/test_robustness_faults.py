"""Fault-injection tests: worker death, torn writes, checkpoint/resume.

Uses the deterministic harness in :mod:`repro.testing.faults` to inject
crashes at exact points — a pool worker killed mid-assignment, a save
interrupted between its two file commits, training interrupted right
after a checkpoint — and proves recovery is bit-for-bit equivalent to the
undisturbed run.
"""

import dataclasses
import os

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.core import checkpoint as checkpointing
from repro.core import parallel as parallel_mod
from repro.core import serialize
from repro.core.checkpoint import CheckpointConfig, read_checkpoint
from repro.core.engine import AssignmentEngine
from repro.core.parallel import ParallelConfig, PoolAssigner, WorkerPoolWarning
from repro.core.serialize import load_model, save_model
from repro.core.training import (
    Trainer,
    TrainerConfig,
    fit_skill_model,
    resume_fit,
    uniform_segment_levels,
)
from repro.data.actions import Action, ActionLog
from repro.data.items import Item, ItemCatalog
from repro.core.features import FeatureKind, FeatureSet, FeatureSpec
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    ConvergenceError,
    DataError,
    WorkerPoolError,
)
from repro.testing import faults


def _medium_dataset():
    """Big enough that training runs a few iterations before converging."""
    rng = np.random.default_rng(7)
    num_items = 30
    catalog = ItemCatalog(
        [
            Item(
                id=f"i{k}",
                features={"c": ["a", "b", "c", "d"][k % 4], "n": k % 6, "v": 0.5 + 0.25 * k},
            )
            for k in range(num_items)
        ]
    )
    features = FeatureSet(
        [
            FeatureSpec("c", FeatureKind.CATEGORICAL),
            FeatureSpec("n", FeatureKind.COUNT),
            FeatureSpec("v", FeatureKind.POSITIVE),
        ]
    )
    actions = []
    for u in range(8):
        for t in range(24):
            tier = min(4, (5 * t) // 24)
            item = min(num_items - 1, 6 * tier + int(rng.integers(0, 8)))
            actions.append(Action(time=float(t), user=f"u{u}", item=f"i{item}"))
    return ActionLog.from_actions(actions), catalog, features


FIT_KWARGS = dict(init_min_actions=5, max_iterations=30)


@pytest.fixture
def score_table():
    rng = np.random.default_rng(0)
    return rng.normal(size=(4, 50))


@pytest.fixture
def user_rows():
    rng = np.random.default_rng(1)
    return [rng.integers(0, 50, size=rng.integers(1, 40)) for _ in range(13)]


class TestPoolFailureRecovery:
    def test_worker_death_recovers_with_identical_results(self, tmp_path):
        """Acceptance: kill a pool worker mid-assignment; training completes
        with assignments identical to a serial run."""
        log, catalog, features = _medium_dataset()
        serial = fit_skill_model(log, catalog, features, 5, **FIT_KWARGS)
        config = ParallelConfig(users=True, workers=2, restart_backoff=0.0)
        with faults.kill_worker_once(tmp_path) as claimed:
            with pytest.warns(WorkerPoolWarning, match="rebuilding pool"):
                recovered = fit_skill_model(
                    log, catalog, features, 5, parallel=config, **FIT_KWARGS
                )
            assert claimed.exists(), "no worker actually died"
        assert serial.trace.log_likelihoods == pytest.approx(
            recovered.trace.log_likelihoods
        )
        for user in log.users:
            np.testing.assert_array_equal(
                serial.skill_trajectory(user), recovered.skill_trajectory(user)
            )

    def test_worker_death_at_assigner_level(self, tmp_path, score_table, user_rows):
        serial = PoolAssigner().assign(score_table, user_rows)
        config = ParallelConfig(users=True, workers=2, restart_backoff=0.0)
        with faults.kill_worker_once(tmp_path) as claimed:
            with PoolAssigner(config) as assigner:
                with pytest.warns(WorkerPoolWarning):
                    recovered = assigner.assign(score_table, user_rows)
            assert claimed.exists()
        for a, b in zip(serial, recovered):
            np.testing.assert_array_equal(a.levels, b.levels)
            assert a.log_likelihood == pytest.approx(b.log_likelihood)

    def test_exhausted_retries_degrade_to_serial(
        self, monkeypatch, score_table, user_rows
    ):
        config = ParallelConfig(
            users=True, workers=2, max_pool_restarts=1, restart_backoff=0.0
        )
        expected = PoolAssigner().assign(score_table, user_rows)

        def always_broken(self, tasks):
            raise BrokenProcessPool("injected: pool is gone")

        monkeypatch.setattr(PoolAssigner, "_run_chunks", always_broken)
        with PoolAssigner(config) as assigner:
            with pytest.warns(WorkerPoolWarning, match="degrading to serial"):
                results = assigner.assign(score_table, user_rows)
            assert assigner._serial_fallback
            # later calls stay serial without further recovery churn
            import warnings as _warnings

            with _warnings.catch_warnings(record=True) as later:
                _warnings.simplefilter("always")
                again = assigner.assign(score_table, user_rows)
        assert not [w for w in later if issubclass(w.category, WorkerPoolWarning)]
        for a, b, c in zip(expected, results, again):
            np.testing.assert_array_equal(a.levels, b.levels)
            np.testing.assert_array_equal(a.levels, c.levels)

    def test_exhausted_retries_raise_when_fallback_disabled(
        self, monkeypatch, score_table, user_rows
    ):
        config = ParallelConfig(
            users=True,
            workers=2,
            max_pool_restarts=0,
            restart_backoff=0.0,
            fallback_serial=False,
        )

        def always_broken(self, tasks):
            raise BrokenProcessPool("injected: pool is gone")

        monkeypatch.setattr(PoolAssigner, "_run_chunks", always_broken)
        with PoolAssigner(config) as assigner:
            with pytest.raises(WorkerPoolError, match="serial fallback is disabled"):
                assigner.assign(score_table, user_rows)

    def test_chunk_timeout_triggers_recovery(self, score_table, user_rows):
        config = ParallelConfig(
            users=True,
            workers=2,
            max_pool_restarts=0,
            restart_backoff=0.0,
            chunk_timeout=0.05,
        )
        expected = PoolAssigner().assign(score_table, user_rows)
        with faults.slow_workers(1.0):
            with PoolAssigner(config) as assigner:
                with pytest.warns(WorkerPoolWarning, match="degrading to serial"):
                    results = assigner.assign(score_table, user_rows)
        for a, b in zip(expected, results):
            np.testing.assert_array_equal(a.levels, b.levels)

    def test_pool_sized_from_config_not_first_call(self, score_table):
        """Regression: the pool used to be frozen at min(workers, first
        call's user count), starving later, larger calls."""
        rng = np.random.default_rng(3)
        small = [rng.integers(0, 50, size=10) for _ in range(2)]
        with PoolAssigner(ParallelConfig(users=True, workers=4)) as assigner:
            assigner.assign(score_table, small)
            assert assigner._pool is not None
            assert assigner._pool._max_workers == 4

    def test_invalid_recovery_config(self):
        with pytest.raises(ConfigurationError):
            ParallelConfig(max_pool_restarts=-1)
        with pytest.raises(ConfigurationError):
            ParallelConfig(restart_backoff=-0.5)
        with pytest.raises(ConfigurationError):
            ParallelConfig(chunk_timeout=0.0)

    def test_chunk_timeout_is_a_batch_deadline(self, score_table, user_rows):
        """The timeout budgets the whole batch, not each chunk.

        Two workers, four chunks of ~0.4 s each finish in two waves at
        ~0.4 s and ~0.8 s; a 0.6 s budget admits every chunk under the old
        per-future accounting but must expire mid-batch under the shared
        deadline.
        """
        config = ParallelConfig(
            users=True,
            workers=2,
            max_pool_restarts=0,
            restart_backoff=0.0,
            chunk_timeout=0.6,
        )
        expected = PoolAssigner().assign(score_table, user_rows)
        with faults.slow_workers(0.4):
            with PoolAssigner(config) as assigner:
                with pytest.warns(WorkerPoolWarning, match="degrading to serial"):
                    results = assigner.assign(score_table, user_rows)
        assert assigner.event_counts["chunk_timeouts"] >= 1
        for a, b in zip(expected, results):
            np.testing.assert_array_equal(a.levels, b.levels)


def _our_segments():
    """Shared-memory segments created by this process and still alive."""
    prefix = f"{parallel_mod.SHM_PREFIX}{os.getpid()}_"
    return [name for name in os.listdir("/dev/shm") if name.startswith(prefix)]


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
class TestSharedMemoryLifecycle:
    """The per-iteration score-table segment must never outlive its call."""

    def test_publish_and_release(self, score_table):
        assigner = PoolAssigner(ParallelConfig(users=True, workers=2))
        ref = assigner._publish_table(score_table)
        assert ref is not None and ref.name in _our_segments()
        assert ref.shape == (score_table.shape[1], score_table.shape[0])
        assigner._release_table()
        assert ref.name not in _our_segments()
        assigner._release_table()  # idempotent
        assigner.close()

    def test_released_after_normal_assign(self, score_table, user_rows):
        with PoolAssigner(ParallelConfig(users=True, workers=2)) as assigner:
            assigner.assign(score_table, user_rows)
            assert not _our_segments()
            assigner.assign(score_table * 0.5, user_rows)
            assert not _our_segments()
        assert not _our_segments()

    def test_released_after_worker_death_rebuild(
        self, tmp_path, score_table, user_rows
    ):
        config = ParallelConfig(users=True, workers=2, restart_backoff=0.0)
        with faults.kill_worker_once(tmp_path) as claimed:
            with PoolAssigner(config) as assigner:
                with pytest.warns(WorkerPoolWarning):
                    assigner.assign(score_table, user_rows)
            assert claimed.exists()
        assert not _our_segments()

    def test_released_after_timeout_degrade(self, score_table, user_rows):
        config = ParallelConfig(
            users=True,
            workers=2,
            max_pool_restarts=0,
            restart_backoff=0.0,
            chunk_timeout=0.05,
        )
        with faults.slow_workers(1.0):
            with PoolAssigner(config) as assigner:
                with pytest.warns(WorkerPoolWarning, match="degrading to serial"):
                    assigner.assign(score_table, user_rows)
        assert not _our_segments()

    def test_released_when_pool_error_raises(
        self, monkeypatch, score_table, user_rows
    ):
        config = ParallelConfig(
            users=True,
            workers=2,
            max_pool_restarts=0,
            restart_backoff=0.0,
            fallback_serial=False,
        )

        def always_broken(self, tasks):
            raise BrokenProcessPool("injected: pool is gone")

        monkeypatch.setattr(PoolAssigner, "_run_chunks", always_broken)
        with PoolAssigner(config) as assigner:
            with pytest.raises(WorkerPoolError):
                assigner.assign(score_table, user_rows)
            assert not _our_segments()

    def test_end_to_end_pooled_fit_leaves_no_segments(self):
        log, catalog, features = _medium_dataset()
        config = ParallelConfig(users=True, workers=2)
        fit_skill_model(log, catalog, features, 5, parallel=config, **FIT_KWARGS)
        assert not _our_segments()


class TestCheckpointResume:
    def test_interrupt_and_resume_matches_uninterrupted(self, tmp_path, monkeypatch):
        """Acceptance: interrupt at iteration k; resume reaches the same
        final log-likelihood (1e-9) and identical assignments."""
        log, catalog, features = _medium_dataset()
        baseline = fit_skill_model(log, catalog, features, 5, **FIT_KWARGS)
        assert baseline.trace.num_iterations >= 3  # the interrupt must be mid-run

        ckpt = tmp_path / "train.ckpt.json"
        monkeypatch.setattr(
            checkpointing,
            "write_checkpoint",
            faults.fail_after_call(checkpointing.write_checkpoint, calls=1),
        )
        with pytest.raises(faults.SimulatedCrash):
            fit_skill_model(
                log,
                catalog,
                features,
                5,
                checkpoint=CheckpointConfig(path=ckpt, every=1),
                **FIT_KWARGS,
            )
        monkeypatch.undo()

        state = read_checkpoint(ckpt)
        assert state.iteration == 1
        resumed = resume_fit(ckpt, log, catalog, features)
        assert resumed.log_likelihood == pytest.approx(
            baseline.log_likelihood, abs=1e-9
        )
        assert resumed.trace.log_likelihoods == pytest.approx(
            baseline.trace.log_likelihoods, abs=1e-9
        )
        assert resumed.trace.converged == baseline.trace.converged
        assert resumed.trace.num_iterations == baseline.trace.num_iterations
        for user in log.users:
            np.testing.assert_array_equal(
                baseline.skill_trajectory(user), resumed.skill_trajectory(user)
            )

    def test_resume_keeps_checkpointing_to_same_path(self, tmp_path, monkeypatch):
        log, catalog, features = _medium_dataset()
        ckpt = tmp_path / "c.ckpt.json"
        monkeypatch.setattr(
            checkpointing,
            "write_checkpoint",
            faults.fail_after_call(checkpointing.write_checkpoint, calls=1),
        )
        with pytest.raises(faults.SimulatedCrash):
            fit_skill_model(
                log,
                catalog,
                features,
                5,
                checkpoint=CheckpointConfig(path=ckpt, every=1),
                **FIT_KWARGS,
            )
        monkeypatch.undo()
        assert read_checkpoint(ckpt).iteration == 1
        resumed = resume_fit(ckpt, log, catalog, features)
        # the resumed run advanced the checkpoint on the same file (the
        # converging iteration itself breaks before writing — parameters
        # do not change on it)
        final = read_checkpoint(ckpt)
        assert final.iteration > 1
        assert final.log_likelihoods == pytest.approx(
            resumed.trace.log_likelihoods[: final.iteration]
        )

    def test_resume_at_max_iterations_materializes_assignments(self, tmp_path):
        log, catalog, features = _medium_dataset()
        ckpt = tmp_path / "m.ckpt.json"
        cfg = TrainerConfig(num_levels=5, init_min_actions=5, max_iterations=2)
        fitted = Trainer(cfg).fit(
            log, catalog, features, checkpoint=CheckpointConfig(path=ckpt, every=2)
        )
        assert read_checkpoint(ckpt).iteration == 2  # checkpoint is at the cap
        resumed = resume_fit(ckpt, log, catalog, features)
        assert resumed.trace.log_likelihoods == pytest.approx(
            fitted.trace.log_likelihoods
        )
        for user in log.users:
            assert len(resumed.skill_trajectory(user)) == len(
                fitted.skill_trajectory(user)
            )

    def test_resume_rejects_mismatched_data(self, tmp_path):
        log, catalog, features = _medium_dataset()
        ckpt = tmp_path / "c.ckpt.json"
        fit_skill_model(
            log,
            catalog,
            features,
            5,
            checkpoint=CheckpointConfig(path=ckpt, every=1),
            init_min_actions=5,
            max_iterations=2,
        )
        smaller = ActionLog.from_actions(
            [a for seq in log for a in seq if a.user != "u0"]
        )
        with pytest.raises(CheckpointError, match="does not match the training data"):
            resume_fit(ckpt, smaller, catalog, features)

    def test_missing_checkpoint(self, tmp_path):
        log, catalog, features = _medium_dataset()
        with pytest.raises(CheckpointError, match="no checkpoint file"):
            resume_fit(tmp_path / "nope.ckpt.json", log, catalog, features)

    def test_truncated_checkpoint(self, tmp_path):
        log, catalog, features = _medium_dataset()
        ckpt = tmp_path / "c.ckpt.json"
        fit_skill_model(
            log,
            catalog,
            features,
            5,
            checkpoint=CheckpointConfig(path=ckpt, every=1),
            init_min_actions=5,
            max_iterations=2,
        )
        data = ckpt.read_bytes()
        ckpt.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match=str(ckpt)):
            read_checkpoint(ckpt)

    def test_edited_checkpoint_fails_checksum(self, tmp_path):
        import json

        log, catalog, features = _medium_dataset()
        ckpt = tmp_path / "c.ckpt.json"
        fit_skill_model(
            log,
            catalog,
            features,
            5,
            checkpoint=CheckpointConfig(path=ckpt, every=1),
            init_min_actions=5,
            max_iterations=2,
        )
        document = json.loads(ckpt.read_text())
        document["payload"]["iteration"] = 99
        ckpt.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            read_checkpoint(ckpt)

    def test_checkpoint_config_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CheckpointConfig(path=tmp_path / "c", every=0)

    def test_interrupt_mid_checkpoint_write_leaves_previous_intact(
        self, tmp_path, monkeypatch
    ):
        """A crash inside the checkpoint write itself must not tear the
        previously written checkpoint (atomic tmp + replace)."""
        log, catalog, features = _medium_dataset()
        ckpt = tmp_path / "c.ckpt.json"
        monkeypatch.setattr(
            checkpointing.os,
            "replace",
            faults.fail_on_call(checkpointing.os.replace, calls=2),
        )
        with pytest.raises(faults.SimulatedCrash):
            fit_skill_model(
                log,
                catalog,
                features,
                5,
                checkpoint=CheckpointConfig(path=ckpt, every=1),
                **FIT_KWARGS,
            )
        monkeypatch.undo()
        assert read_checkpoint(ckpt).iteration == 1  # first write survived
        assert not list(tmp_path.glob("*.tmp"))


class TestCrashSafePersistence:
    def test_crash_while_staging_preserves_old_model(
        self, fitted_tiny_model, tmp_path, monkeypatch
    ):
        save_model(fitted_tiny_model, tmp_path / "model")
        reference = load_model(tmp_path / "model").log_likelihood
        monkeypatch.setattr(
            serialize,
            "_write_bytes",
            faults.fail_on_call(serialize._write_bytes, calls=1),
        )
        with pytest.raises(faults.SimulatedCrash):
            save_model(fitted_tiny_model, tmp_path / "model")
        monkeypatch.undo()
        assert load_model(tmp_path / "model").log_likelihood == reference
        assert not list(tmp_path.glob("*.tmp"))

    def test_crash_between_replaces_is_detected_not_silently_loaded(
        self, tmp_path, monkeypatch
    ):
        # two models with different level counts: their array payloads are
        # guaranteed to differ, so the torn pair has a detectable mismatch
        log, catalog, features = _medium_dataset()
        first = fit_skill_model(log, catalog, features, 4, **FIT_KWARGS)
        second = fit_skill_model(log, catalog, features, 5, **FIT_KWARGS)
        save_model(first, tmp_path / "model")
        # crash after the NPZ replace but before the JSON replace
        monkeypatch.setattr(
            serialize, "_replace", faults.fail_on_call(serialize._replace, calls=2)
        )
        with pytest.raises(faults.SimulatedCrash):
            save_model(second, tmp_path / "model")
        monkeypatch.undo()
        with pytest.raises(DataError, match="checksum mismatch"):
            load_model(tmp_path / "model")
        assert not list(tmp_path.glob("*.tmp"))


class TestStrictConvergence:
    def test_strict_failure_names_iterations_and_checkpoint_survives(
        self, tiny_log, tiny_catalog, tiny_feature_set, tmp_path, monkeypatch
    ):
        """Satellite: the strict check reports the offending iteration pair
        and the checkpoint written just before the failure still loads."""
        lls = iter([0.0, -1000.0])

        def fake_assign_flat(self, table, user_rows):
            ll = next(lls) / max(1, len(user_rows))
            levels = np.concatenate(
                [uniform_segment_levels(len(rows), 3) for rows in user_rows]
            )
            return levels, np.full(len(user_rows), ll)

        monkeypatch.setattr(AssignmentEngine, "assign_flat", fake_assign_flat)
        ckpt = tmp_path / "strict.ckpt.json"
        trainer = Trainer(
            TrainerConfig(
                num_levels=3, strict=True, init_min_actions=5, max_iterations=5
            )
        )
        with pytest.raises(ConvergenceError) as excinfo:
            trainer.fit(
                tiny_log,
                tiny_catalog,
                tiny_feature_set,
                checkpoint=CheckpointConfig(path=ckpt, every=1),
            )
        message = str(excinfo.value)
        assert "(iteration 1)" in message and "(iteration 2)" in message
        state = read_checkpoint(ckpt)
        assert state.iteration == 1
        assert state.parameters.num_levels == 3
