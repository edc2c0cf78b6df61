"""Assignment engine: one front door for the assignment step.

"Best monotone path for every user" runs on one kernel,
:func:`~repro.core.dp_batch.batch_assign` — the vectorized multi-user
DP, bit-identical per user to :func:`~repro.core.dp.best_monotone_path`
(kept as the test oracle).  It runs in-process, or on
:class:`~repro.core.parallel.PoolAssigner` workers over a shared-memory
score table when :class:`~repro.core.parallel.ParallelConfig` enables
user parallelism (the Table XIII experiments).  The route only moves
wall-clock, never results.

:class:`AssignmentEngine` also owns the
:class:`~repro.core.model.ScoreTableCache` that makes score-table
rebuilds incremental across training iterations, and surfaces the pool's
recovery events so trainer telemetry keeps working unchanged.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from contextlib import contextmanager

import numpy as np

from repro.core.dp import PathResult
from repro.core.dp_batch import BatchPlan, batch_assign, batch_assign_flat, prepare_batch
from repro.core.model import ScoreTableCache, SkillParameters
from repro.core.parallel import ParallelConfig, PoolAssigner
from repro.exceptions import ConfigurationError
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer

__all__ = ["AssignmentEngine"]


class AssignmentEngine:
    """The assignment step with an incremental table cache.

    Use as a context manager, like the pool it wraps::

        with AssignmentEngine(parallel_config) as engine:
            for _ in range(iterations):
                table = engine.score_table(parameters, encoded)
                paths = engine.assign(table, user_rows)
    """

    def __init__(
        self,
        parallel: ParallelConfig | None = None,
        *,
        max_step: int = 1,
        step_log_penalties: np.ndarray | None = None,
    ):
        self.max_step = max_step
        self.step_log_penalties = (
            None
            if step_log_penalties is None
            else np.asarray(step_log_penalties, dtype=np.float64)
        )
        self.cache = ScoreTableCache()
        self._pool = PoolAssigner(
            parallel, max_step=max_step, step_log_penalties=step_log_penalties
        )
        self._plan: BatchPlan | None = None

    def __enter__(self) -> "AssignmentEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self._pool.close()

    @property
    def event_counts(self) -> dict[str, int]:
        """The wrapped pool's recovery-event counts (telemetry passthrough)."""
        return self._pool.event_counts

    @property
    def pooled(self) -> bool:
        """Whether assignment fans out to :class:`PoolAssigner` workers."""
        return self._pool.parallel_enabled

    def score_table(self, parameters: SkillParameters, encoded) -> np.ndarray:
        """``log P(i | s)`` via the engine's incremental row cache.

        Across training iterations only the rows whose fitted cell changed
        are recomputed; a warm iteration rebuilds zero rows (observable as
        ``score_cache.hits`` / ``score_cache.misses`` in the registry).
        """
        with get_tracer().span("engine.score_table"):
            return parameters.item_score_table(encoded, cache=self.cache)

    def assign(
        self, score_table: np.ndarray, user_rows: Sequence[np.ndarray]
    ) -> list[PathResult]:
        """Best monotone path per user; order matches ``user_rows``.

        Wall-time lands in the ``engine.assign_seconds`` histogram.
        """
        with self._timed(len(user_rows)):
            if self.pooled:
                return self._pool.assign(score_table, user_rows)
            return batch_assign(
                score_table,
                list(user_rows),
                max_step=self.max_step,
                step_log_penalties=self.step_log_penalties,
            )

    @contextmanager
    def _timed(self, num_users: int) -> Iterator[None]:
        """One ``engine.assign`` span and histogram sample per call."""
        registry = get_registry()
        start = registry.clock()
        try:
            with get_tracer().span("engine.assign", pooled=self.pooled, users=num_users):
                yield
        finally:
            registry.histogram("engine.assign_seconds").observe(
                registry.clock() - start
            )

    def _plan_for(self, user_rows: list[np.ndarray], num_levels: int) -> BatchPlan:
        """The batching plan for ``user_rows``, rebuilt only when the user
        list changes (identity check: the trainer passes the same list
        every iteration)."""
        plan = self._plan
        if plan is None or plan.user_rows is not user_rows or plan.num_levels != num_levels:
            plan = prepare_batch(user_rows, num_levels)
            self._plan = plan
        return plan

    def assign_flat(
        self, score_table: np.ndarray, user_rows: list[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Like :meth:`assign`, returning flat arrays instead of
        :class:`~repro.core.dp.PathResult` objects.

        Returns ``(flat_levels, log_likelihoods)``: all users' 0-based
        levels concatenated in ``user_rows`` order, and one log-likelihood
        per user.  The training loop consumes this form directly — per-user
        churn masks, level histograms, and the sufficient-statistics deltas
        all operate on the flat array — and the in-process kernel reuses a
        cached :class:`~repro.core.dp_batch.BatchPlan`, skipping the
        per-iteration pad/bucket/marshalling work entirely.
        """
        if self.pooled:
            paths = self.assign(score_table, user_rows)
            lls = np.fromiter(
                (p.log_likelihood for p in paths), dtype=np.float64, count=len(paths)
            )
            if not paths:
                return np.empty(0, dtype=np.int64), lls
            flat = np.concatenate([p.levels for p in paths])
            return flat.astype(np.int64, copy=False), lls
        with self._timed(len(user_rows)):
            score_table = np.asarray(score_table, dtype=np.float64)
            if score_table.ndim != 2:
                raise ConfigurationError(
                    f"score_table must be 2-D, got shape {score_table.shape}"
                )
            plan = self._plan_for(user_rows, score_table.shape[0])
            return batch_assign_flat(
                np.ascontiguousarray(score_table.T),
                plan,
                max_step=self.max_step,
                step_log_penalties=self.step_log_penalties,
            )
