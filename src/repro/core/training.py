"""Hard-assignment coordinate-ascent training (paper Section IV-B).

The trainer alternates two steps until the log-likelihood (Equation 3)
stops improving:

1. **Assignment** — with parameters fixed, find every user's best monotone
   skill path by dynamic programming (:mod:`repro.core.dp`).
2. **Update** — with assignments fixed, re-estimate each ``θ_f(s)`` by
   (smoothed) maximum likelihood (Equations 5-7).

Initialization follows the paper: take the users with at least ``N``
actions (``U_{≥N}``), split each of their sequences into ``S`` equal-time
groups, label the ``s``-th group with level ``s``, and fit the first
parameter set from those labels.  If no user is that long, all users are
used — a small-data fallback the paper's filtered datasets never need.

There is one loop.  It takes users in blocks, in first-appearance order:
an in-RAM :class:`~repro.data.actions.ActionLog` is one
:class:`ResidentBlock`, and an :class:`~repro.data.store.ActionStore` is
one on-disk block per shard (:class:`~repro.core.shard.ShardBlocks`).  A
block kind supplies only its E-step, its catalog rows, and its previous
levels.  Everything else — initialization, the convergence checks, the
reduce into :class:`~repro.core.stats.SkillStats`, the M-step,
checkpoints, and telemetry — is written once here.  Statistics are
integer counts folded block by block (cold ``add`` on the first update,
warm ``update`` of the moved actions after it, refitting only the dirty
levels), and the log-likelihood is one sequential sum over users in
order, so the model is bit-identical for any block geometry.

This hard-assignment scheme is Yang et al.'s: it was reported to run about
1000× faster than EM with comparable fit quality; the EM comparison lives
in ``benchmarks/test_ablation_hard_vs_soft.py``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import checkpoint as checkpointing
from repro.core.checkpoint import CheckpointConfig
from repro.core.engine import AssignmentEngine
from repro.core.features import FeatureSet
from repro.core.model import SkillModel, SkillParameters, TrainingTrace
from repro.core.parallel import ParallelConfig, make_cell_fitter
from repro.core.shard import ShardBlocks, ShardedFitResult
from repro.core.stats import SkillStats
from repro.data.actions import ActionLog
from repro.data.items import ItemCatalog
from repro.data.store import ActionStore
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    ConvergenceError,
    DataError,
)
from repro.obs.logging import current_run_id, get_logger
from repro.obs.metrics import get_registry
from repro.obs.resource import ResourceSampler
from repro.obs.telemetry import (
    TRAINER_STAGES,
    CheckpointEvent,
    IterationRecord,
    TelemetryBuilder,
)
from repro.obs.trace import get_tracer, new_span_id

_log = get_logger("core.training")

__all__ = [
    "TrainerConfig",
    "Trainer",
    "ResidentBlock",
    "uniform_segment_levels",
    "fit_skill_model",
    "resume_fit",
]


def uniform_segment_levels(num_actions: int, num_levels: int) -> np.ndarray:
    """Split ``num_actions`` positions into ``num_levels`` equal groups.

    Returns 0-based level per position.  This is both the initialization
    labeling (Section IV-B) and the whole of the Uniform baseline
    (Section VI-D).  When the sequence is shorter than ``num_levels`` the
    trailing levels simply receive no actions.
    """
    if num_levels <= 0:
        raise ConfigurationError("num_levels must be positive")
    if num_actions < 0:
        raise ConfigurationError("num_actions must be non-negative")
    # Same group sizes as ``np.array_split(np.arange(num_actions), S)``:
    # the first ``num_actions % S`` groups get one extra position.
    base, remainder = divmod(num_actions, num_levels)
    sizes = np.full(num_levels, base, dtype=np.int64)
    sizes[:remainder] += 1
    return np.repeat(np.arange(num_levels, dtype=np.int64), sizes)


@dataclass(frozen=True)
class TrainerConfig:
    """Hyper-parameters of the training loop.

    ``init_min_actions`` is the paper's ``N``: only users with at least
    this many actions inform the initial parameter fit (``U_{≥N}``,
    Section IV-B; both the paper and Shin et al. use 50).  ``tol`` is the
    relative log-likelihood improvement below which we declare convergence.
    ``strict`` raises :class:`~repro.exceptions.ConvergenceError` if the
    objective ever *decreases* materially — with additive smoothing and the
    numerical gamma fit, hair-width decreases are legal, so the check uses
    a generous margin.

    ``on_iteration`` is the progress hook: called after every completed
    iteration with that iteration's
    :class:`~repro.obs.telemetry.IterationRecord` (log-likelihood,
    improvement, per-stage seconds, assignment churn), so long fits can
    report progress without monkey-patching the trainer.  It is a runtime
    concern like ``parallel`` and is never checkpointed.
    """

    num_levels: int
    smoothing: float = 0.01
    init_min_actions: int = 50
    max_iterations: int = 100
    tol: float = 1e-6
    strict: bool = False
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    #: Largest level jump per transition (1 = the paper's base model).
    max_step: int = 1
    #: Optional log-weights per step size 0..max_step (skip-level
    #: progressions à la Shin et al.); ``None`` = unweighted.
    step_log_penalties: tuple[float, ...] | None = None
    #: Per-iteration progress callback (see class docstring).
    on_iteration: Callable[[IterationRecord], None] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.num_levels < 1:
            raise ConfigurationError("num_levels must be >= 1")
        if self.smoothing < 0:
            raise ConfigurationError("smoothing must be >= 0")
        if self.init_min_actions < 1:
            raise ConfigurationError("init_min_actions must be >= 1")
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        if self.tol < 0:
            raise ConfigurationError("tol must be >= 0")
        if self.max_step < 1:
            raise ConfigurationError("max_step must be >= 1")
        if self.step_log_penalties is not None:
            penalties = tuple(float(p) for p in self.step_log_penalties)
            if len(penalties) != self.max_step + 1:
                raise ConfigurationError(
                    "step_log_penalties needs one entry per step size 0..max_step"
                )
            object.__setattr__(self, "step_log_penalties", penalties)


class ResidentBlock:
    """An in-RAM :class:`~repro.data.actions.ActionLog` as a single block.

    The E-step runs :meth:`AssignmentEngine.assign_flat
    <repro.core.engine.AssignmentEngine.assign_flat>` over the same
    ``user_rows`` list every iteration, so the engine prepares its batch
    plan once; previous levels stay in memory and nothing touches disk.
    """

    num_blocks = 1

    def __init__(self, log: ActionLog, encoded, engine: AssignmentEngine):
        self.users = list(log.users)
        sequences = [log.sequence(u) for u in self.users]
        self.user_rows = [encoded.rows_for_sequence(s) for s in sequences]
        self._times = [np.asarray(s.times, dtype=np.float64) for s in sequences]
        lengths = np.fromiter(
            (len(rows) for rows in self.user_rows), dtype=np.int64, count=len(self.users)
        )
        self._offsets = np.concatenate(([0], np.cumsum(lengths)))
        self.num_users = len(self.users)
        self.num_actions = log.num_actions
        self._engine = engine
        self._new: np.ndarray | None = None
        self._previous: np.ndarray | None = None

    def __enter__(self) -> "ResidentBlock":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    @property
    def event_counts(self) -> dict[str, int]:
        return dict(self._engine.event_counts)

    def offsets(self, index: int) -> np.ndarray:
        return self._offsets

    def rows(self, index: int) -> np.ndarray:
        # Concatenated per call, like a shard's codes are read per call:
        # the reduce needs it briefly, and holding a second copy of every
        # user's rows for the whole fit raises the peak resident set.
        return np.concatenate(self.user_rows)

    def estep(self, table: np.ndarray) -> list[np.ndarray]:
        self._new, lls = self._engine.assign_flat(table, self.user_rows)
        return [lls]

    def advance(self, index: int) -> tuple[np.ndarray, np.ndarray | None]:
        new, previous = self._new, self._previous
        self._previous = new
        return new, previous

    def paths(self) -> Iterator[tuple[object, np.ndarray, np.ndarray]]:
        levels = np.split(self._previous, self._offsets[1:-1])
        return zip(self.users, levels, self._times)


class Trainer:
    """Fits a :class:`~repro.core.model.SkillModel` to an action log or an
    out-of-core action store."""

    def __init__(self, config: TrainerConfig):
        self.config = config

    def fit(
        self,
        data: ActionLog | ActionStore,
        catalog: ItemCatalog,
        feature_set: FeatureSet,
        *,
        checkpoint: CheckpointConfig | None = None,
        materialize: bool = True,
    ) -> SkillModel | ShardedFitResult:
        """Run initialization + alternation to convergence.

        ``checkpoint`` enables periodic crash-safe snapshots of the loop
        state (log fits only); an interrupted fit can then be continued
        with :func:`resume_fit` and reaches the same final model.
        ``materialize=False`` skips rebuilding the per-user assignments and
        returns a :class:`~repro.core.shard.ShardedFitResult` instead of a
        :class:`~repro.core.model.SkillModel`.

        Raises :class:`~repro.exceptions.DataError` on empty data or on
        actions referencing items missing from ``catalog``.
        """
        kind = "store" if isinstance(data, ActionStore) else "log"
        if data.num_actions == 0:
            raise DataError(f"cannot train on an empty action {kind}")
        encoded = feature_set.encode(catalog)
        fingerprint = (
            checkpointing.data_fingerprint(data, feature_set, encoded.num_items)
            if checkpoint is not None
            else None
        )
        return self._run(data, encoded, None, [], checkpoint, fingerprint, materialize)

    def _run(
        self,
        data: ActionLog | ActionStore,
        encoded,
        parameters: SkillParameters | None,
        log_likelihoods: list[float],
        checkpoint: CheckpointConfig | None,
        fingerprint: dict | None,
        materialize: bool,
    ) -> SkillModel | ShardedFitResult:
        """Open the blocks and run the alternation inside the ``train.fit``
        root span, so every span recorded during the fit lands in one
        trace, bracketed by the GC-pause hooks (released on every exit
        path) whose stats join the telemetry.

        ``parameters`` is ``None`` for a fresh fit (initialize first) or
        the checkpointed grid of a resumed one.
        """
        cfg = self.config
        store_fit = isinstance(data, ActionStore)
        if store_fit and checkpoint is not None:
            raise ConfigurationError(
                "checkpointing is not supported for store-backed fits; "
                "convert to an in-RAM log or drop the checkpoint config"
            )
        sampler = ResourceSampler(get_registry())
        sampler.install_gc_hooks()
        try:
            with AssignmentEngine(
                cfg.parallel,
                max_step=cfg.max_step,
                step_log_penalties=cfg.step_log_penalties,
            ) as engine, (
                ShardBlocks(data, encoded, cfg)
                if store_fit
                else ResidentBlock(data, encoded, engine)
            ) as blocks, get_tracer().span(
                "train.fit",
                users=blocks.num_users,
                resumed=bool(log_likelihoods),
                blocks=blocks.num_blocks,
            ) as fit_span:
                result = self._alternate(
                    encoded,
                    blocks,
                    engine,
                    parameters,
                    log_likelihoods,
                    checkpoint,
                    fingerprint,
                    sampler,
                    materialize,
                )
                fit_span.set(
                    iterations=result.trace.num_iterations,
                    converged=result.trace.converged,
                )
                return result
        finally:
            sampler.uninstall_gc_hooks()

    def _alternate(
        self,
        encoded,
        blocks,
        engine: AssignmentEngine,
        parameters: SkillParameters | None,
        log_likelihoods: list[float],
        checkpoint: CheckpointConfig | None,
        fingerprint: dict | None,
        sampler: ResourceSampler,
        materialize: bool,
    ) -> SkillModel | ShardedFitResult:
        """The assignment/update alternation, resumable at any iteration.

        ``log_likelihoods`` carries the history of already-completed
        iterations (empty for a fresh fit); ``parameters`` must be the
        parameter grid produced after the last of them.

        Every iteration is instrumented: per-stage wall-time (score-table
        build, assignment, reduce, cell fits, checkpoint write) goes to the
        active metrics registry under ``train.<stage>_seconds`` histograms,
        convergence health to the ``train.*`` gauges, and the whole run is
        condensed into the result's
        :class:`~repro.obs.telemetry.TrainingTelemetry`.
        """
        cfg = self.config
        registry = get_registry()
        tracer = get_tracer()
        clock = registry.clock
        builder = TelemetryBuilder(run_id=current_run_id(), stages=TRAINER_STAGES)
        fit_start = clock()
        cell_fitter = make_cell_fitter(cfg.parallel)
        if parameters is None:
            parameters = self._initialize(encoded, blocks, cell_fitter)
        log_likelihoods = list(log_likelihoods)
        first_iteration = len(log_likelihoods)
        converged = False
        num_features = len(encoded.feature_set)
        stats: SkillStats | None = None
        previous_hist: np.ndarray | None = None
        for iteration in range(first_iteration, cfg.max_iterations):
            iteration_ts = tracer.wall() if tracer.enabled else 0.0
            iteration_start = clock()
            stage_seconds = dict.fromkeys(TRAINER_STAGES, 0.0)
            stage_start = clock()
            table = engine.score_table(parameters, encoded)
            stage_seconds["table_build"] = clock() - stage_start
            stage_start = clock()
            block_lls = blocks.estep(table)
            stage_seconds["assign"] = clock() - stage_start
            # One sequential Python sum over per-user values in user order
            # (block order *is* user order): the same float additions for
            # every block geometry, down to the last bit.
            total_ll = float(sum(ll for lls in block_lls for ll in lls.tolist()))

            improvement = None
            if log_likelihoods:
                previous = log_likelihoods[-1]
                improvement = total_ll - previous
                if cfg.strict and improvement < -1e-3 * max(1.0, abs(previous)):
                    raise ConvergenceError(
                        f"objective decreased from {previous:.6f} "
                        f"(iteration {iteration}) to {total_ll:.6f} "
                        f"(iteration {iteration + 1})"
                    )
                if abs(improvement) <= cfg.tol * max(1.0, abs(previous)):
                    converged = True
            log_likelihoods.append(total_ll)

            # Reduce: one pass over the blocks' new assignments, folding
            # churn diagnostics and (unless converged) integer statistics
            # into fit-wide state.  The first update of a run builds
            # the statistics cold; later ones move only the changed actions.
            stage_start = clock()
            level_hist = np.zeros(cfg.num_levels, dtype=np.int64)
            unchanged = 0
            dirty: np.ndarray | None = None
            cold = not converged and stats is None
            if cold:
                stats = SkillStats(encoded, cfg.num_levels)
            for index in range(blocks.num_blocks):
                new, prior = blocks.advance(index)
                level_hist += np.bincount(new, minlength=cfg.num_levels)
                if cold:
                    stats.add(blocks.rows(index), new)
                if prior is None:
                    continue
                changed = new != prior
                # Per-user "any level changed" via prefix sums — one pass
                # over the block's paths instead of one compare per user.
                bounds = blocks.offsets(index)
                changed_cum = np.concatenate(([0], np.cumsum(changed)))
                per_user = changed_cum[bounds[1:]] - changed_cum[bounds[:-1]]
                unchanged += int(np.count_nonzero(per_user == 0))
                moved = np.flatnonzero(changed)
                if not converged and not cold and len(moved):
                    touched = stats.update(
                        blocks.rows(index)[moved], prior[moved], new[moved]
                    )
                    dirty = touched if dirty is None else np.union1d(dirty, touched)
            stage_seconds["reduce"] = clock() - stage_start

            if not converged:
                stage_start = clock()
                # With nothing moved the statistics — and hence every
                # refit cell — are unchanged.
                if cold or dirty is not None:
                    parameters = SkillParameters.fit_from_stats(
                        stats,
                        smoothing=cfg.smoothing,
                        cell_fitter=cell_fitter,
                        previous=None if cold else parameters,
                        dirty_levels=None if cold else dirty,
                    )
                refit_levels = cfg.num_levels if cold else 0 if dirty is None else len(dirty)
                registry.gauge("train.cells_refit").set(refit_levels * num_features)
                stage_seconds["cell_fit"] = clock() - stage_start
                if checkpoint is not None and len(log_likelihoods) % checkpoint.every == 0:
                    stage_start = clock()
                    written = checkpointing.write_checkpoint(
                        checkpoint.path,
                        parameters=parameters,
                        log_likelihoods=log_likelihoods,
                        trainer_config=_config_payload(cfg),
                        fingerprint=fingerprint or {},
                        every=checkpoint.every,
                    )
                    checkpoint_seconds = clock() - stage_start
                    stage_seconds["checkpoint"] = checkpoint_seconds
                    builder.record_checkpoint(
                        CheckpointEvent(
                            iteration=len(log_likelihoods),
                            path=str(written),
                            num_bytes=written.stat().st_size,
                            seconds=checkpoint_seconds,
                        )
                    )

            stage_seconds["iteration"] = clock() - iteration_start
            record = self._observe_iteration(
                registry,
                stage_seconds,
                total_ll=total_ll,
                improvement=improvement,
                iteration_number=len(log_likelihoods),
                unchanged=unchanged if prior is not None else None,
                level_hist=level_hist,
                previous_hist=previous_hist,
            )
            builder.record_iteration(record)
            if tracer.enabled:
                # Reconstructed from the stage clocks already taken — the
                # hot loop pays no extra timing calls.  Stage start times
                # are cumulative approximations; durations are the
                # measured values.
                iter_span_id = new_span_id()
                tracer.record(
                    "train.iteration",
                    span=iter_span_id,
                    ts=iteration_ts,
                    duration=stage_seconds["iteration"],
                    iteration=len(log_likelihoods),
                    log_likelihood=total_ll,
                )
                offset = iteration_ts
                for stage in TRAINER_STAGES[:-1]:  # all but "iteration"
                    seconds = stage_seconds[stage]
                    if seconds:
                        tracer.record(
                            f"train.{stage}",
                            parent=iter_span_id,
                            ts=offset,
                            duration=seconds,
                        )
                        offset += seconds
            if cfg.on_iteration is not None:
                cfg.on_iteration(record)
            previous_hist = level_hist
            if converged:
                break

        if len(log_likelihoods) == first_iteration and materialize:
            # Resumed with no iterations left to run (the checkpoint was
            # written at max_iterations): materialize assignments from the
            # checkpointed parameters without extending the trace.
            blocks.estep(engine.score_table(parameters, encoded))
            for index in range(blocks.num_blocks):
                blocks.advance(index)

        telemetry = builder.build(
            log_likelihoods=tuple(log_likelihoods),
            pool_events=blocks.event_counts,
            converged=converged,
            total_seconds=clock() - fit_start,
            resources=sampler.sample(),
        )
        _log.info(
            "fit complete",
            extra={
                "obs": {
                    "iterations": len(log_likelihoods),
                    "converged": converged,
                    "blocks": blocks.num_blocks,
                    "log_likelihood": (
                        round(log_likelihoods[-1], 3) if log_likelihoods else None
                    ),
                    "seconds": round(telemetry.total_seconds, 6),
                }
            },
        )
        trace = TrainingTrace(
            log_likelihoods=tuple(log_likelihoods),
            converged=converged,
            num_iterations=len(log_likelihoods),
        )
        if not materialize:
            return ShardedFitResult(
                parameters=parameters,
                trace=trace,
                telemetry=telemetry,
                num_users=blocks.num_users,
                num_actions=blocks.num_actions,
                num_shards=blocks.num_blocks,
            )
        assignments: dict = {}
        times: dict = {}
        for user, levels, user_times in blocks.paths():
            assignments[user] = (levels + 1).astype(np.int64)  # expose 1-based levels
            times[user] = user_times
        return SkillModel(
            parameters=parameters,
            encoded=encoded,
            assignments=assignments,
            trace=trace,
            _assignment_times=times,
            telemetry=telemetry,
        )

    @staticmethod
    def _observe_iteration(
        registry,
        stage_seconds: dict[str, float],
        *,
        total_ll: float,
        improvement: float | None,
        iteration_number: int,
        unchanged: int | None,
        level_hist: np.ndarray,
        previous_hist: np.ndarray | None,
    ) -> IterationRecord:
        """Publish one iteration's diagnostics to metrics + logs.

        Assignment churn is summarized two ways: ``unchanged`` (how many
        users' whole paths were identical to the previous iteration — the
        converged-users count) and ``level_drift`` (normalized L1 distance
        between consecutive level histograms).
        """
        for stage, seconds in stage_seconds.items():
            registry.histogram(f"train.{stage}_seconds").observe(seconds)
        drift = (
            float(np.abs(level_hist - previous_hist).sum() / max(1, int(level_hist.sum())))
            if previous_hist is not None
            else None
        )
        registry.counter("train.iterations").inc()
        registry.gauge("train.log_likelihood").set(total_ll)
        if improvement is not None:
            registry.gauge("train.improvement").set(improvement)
        if unchanged is not None:
            registry.gauge("train.unchanged_users").set(unchanged)
        if drift is not None:
            registry.gauge("train.level_drift").set(drift)
        record = IterationRecord(
            iteration=iteration_number,
            log_likelihood=total_ll,
            improvement=improvement,
            stage_seconds=stage_seconds,
            unchanged_users=unchanged,
            level_histogram=tuple(int(v) for v in level_hist),
            level_drift=drift,
        )
        _log.info(
            "iteration",
            extra={
                "obs": {
                    "iteration": iteration_number,
                    "log_likelihood": round(total_ll, 3),
                    "improvement": (
                        None if improvement is None else round(improvement, 6)
                    ),
                    "ms": round(stage_seconds["iteration"] * 1000.0, 3),
                }
            },
        )
        return record

    def _initialize(self, encoded, blocks, cell_fitter) -> SkillParameters:
        """Fit the first parameter set from uniform-segment labels of the
        long sequences (``U_{≥N}``), accumulated block by block.

        Integer statistics make the per-block sum bit-identical to one
        concatenate-then-fit over the same users.
        """
        cfg = self.config
        # The second pass is the small-data fallback: no user reaches N
        # actions, so everyone informs the first fit.
        for min_actions in (cfg.init_min_actions, 0):
            stats = SkillStats(encoded, cfg.num_levels)
            any_user = False
            for index in range(blocks.num_blocks):
                bounds = blocks.offsets(index)
                lengths = np.diff(bounds)
                keep = np.flatnonzero(lengths >= min_actions)
                if not len(keep):
                    continue
                rows = blocks.rows(index)
                stats.add(
                    np.concatenate([rows[bounds[k] : bounds[k + 1]] for k in keep]),
                    np.concatenate(
                        [uniform_segment_levels(int(lengths[k]), cfg.num_levels) for k in keep]
                    ),
                )
                any_user = True
            if any_user:
                break
        return SkillParameters.fit_from_stats(
            stats, smoothing=cfg.smoothing, cell_fitter=cell_fitter
        )


def _config_payload(config: TrainerConfig) -> dict:
    """The JSON-serializable TrainerConfig state stored in checkpoints.

    ``parallel`` and ``on_iteration`` are deliberately excluded: both are
    runtime concerns (host topology, progress reporting) that change
    wall-clock but never results, and must not pin a resume to the
    crashed process's environment.
    """
    return {
        "num_levels": config.num_levels,
        "smoothing": config.smoothing,
        "init_min_actions": config.init_min_actions,
        "max_iterations": config.max_iterations,
        "tol": config.tol,
        "strict": config.strict,
        "max_step": config.max_step,
        "step_log_penalties": (
            list(config.step_log_penalties)
            if config.step_log_penalties is not None
            else None
        ),
    }


def fit_skill_model(
    log: ActionLog | ActionStore,
    catalog: ItemCatalog,
    feature_set: FeatureSet,
    num_levels: int,
    checkpoint: CheckpointConfig | None = None,
    **config_kwargs,
) -> SkillModel:
    """One-call convenience wrapper around :class:`Trainer`.

    ``log`` may be an in-RAM :class:`~repro.data.actions.ActionLog` or an
    out-of-core :class:`~repro.data.store.ActionStore`; both produce
    bit-identical models.  ``config_kwargs`` are forwarded to
    :class:`TrainerConfig`.
    """
    config = TrainerConfig(num_levels=num_levels, **config_kwargs)
    return Trainer(config).fit(log, catalog, feature_set, checkpoint=checkpoint)


def resume_fit(
    path: str | Path,
    log: ActionLog,
    catalog: ItemCatalog,
    feature_set: FeatureSet,
    *,
    parallel: ParallelConfig | None = None,
    checkpoint: CheckpointConfig | None = None,
    on_iteration: Callable[[IterationRecord], None] | None = None,
) -> SkillModel:
    """Continue an interrupted :meth:`Trainer.fit` from a checkpoint.

    The trainer configuration is restored from the checkpoint, so the
    resumed run provably converges to the same final model as the original
    would have — provided ``log``/``catalog``/``feature_set`` are the same
    data (enforced via the stored fingerprint).  ``parallel`` may differ:
    parallelism changes wall-clock, never results.

    By default the resumed run keeps checkpointing to the same ``path`` at
    the stored cadence; pass ``checkpoint`` to override.

    Raises :class:`~repro.exceptions.CheckpointError` for a missing,
    corrupted, or mismatched checkpoint.
    """
    state = checkpointing.read_checkpoint(path)
    config_kwargs = dict(state.trainer_config)
    if parallel is not None:
        config_kwargs["parallel"] = parallel
    if on_iteration is not None:
        config_kwargs["on_iteration"] = on_iteration
    try:
        config = TrainerConfig(**config_kwargs)
    except TypeError as exc:
        raise CheckpointError(
            f"{path}: checkpoint trainer configuration is not understood ({exc})"
        ) from exc

    if log.num_actions == 0:
        raise DataError("cannot resume training on an empty action log")
    encoded = feature_set.encode(catalog)
    fingerprint = checkpointing.data_fingerprint(log, feature_set, encoded.num_items)
    if fingerprint != state.fingerprint:
        raise CheckpointError(
            f"{path}: checkpoint does not match the training data "
            f"(checkpoint fingerprint {state.fingerprint}, data {fingerprint}); "
            f"resume requires the exact log/catalog/features the fit started with"
        )
    if checkpoint is None:
        checkpoint = CheckpointConfig(path=path, every=state.every)
    return Trainer(config)._run(
        log,
        encoded,
        state.parameters,
        list(state.log_likelihoods),
        checkpoint,
        fingerprint,
        materialize=True,
    )
