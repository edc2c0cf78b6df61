"""Out-of-core training blocks: an action store, one shard at a time.

:class:`~repro.core.training.Trainer` runs the alternation over users in
blocks.  An in-RAM log is one resident block; this module supplies the
on-disk kind, :class:`ShardBlocks`, which presents each shard of an
:class:`~repro.data.store.ActionStore` as one block, so peak memory is
bounded by the largest shard, never the corpus:

- **E-step** — each shard task loads its columns eagerly (a bounded
  copy; memmapped pages a fit touches would stay resident and defeat the
  out-of-core point), runs the batched assignment DP from
  :mod:`repro.core.dp_batch` against the iteration's score table, and
  returns per-user levels + log-likelihoods.  Tasks run serially
  in-process or on a :class:`ShardPool` process pool (score tables then
  ride the shared-memory publication of :mod:`repro.core.parallel`).
- **catalog rows** — a shard's item codes mapped through the store
  vocabulary, read back per reduce.
- **previous levels** — the last committed assignment of each shard, kept
  as int32 ``.npy`` files in a scratch directory: derived data, rebuilt
  by any restart of the fit.

The trainer folds the blocks into one
:class:`~repro.core.stats.SkillStats` by exact integer addition, in user
(first-appearance) order, and sums per-user log-likelihoods with one
sequential Python ``sum``; because the batched DP is bit-identical per
user regardless of batch composition, a store fit's LL trace and final
assignments are **bit-identical** to the in-RAM fit of the same corpus,
for any shard geometry (asserted by ``tests/test_core_shard.py`` and
``tools/bench_scale.py``).
"""

from __future__ import annotations

import os
import tempfile
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.dp_batch import batch_assign_flat, prepare_batch
from repro.core.model import SkillParameters, TrainingTrace
from repro.core.parallel import (
    RecoveringPool,
    _SharedScoreTable,
    _open_shared_table,
    publish_item_major,
)
from repro.data.store import ActionStore
from repro.obs.metrics import get_registry

__all__ = ["ShardBlocks", "ShardPool", "ShardedFitResult"]


# --------------------------------------------------------------------------
# E-step: one task per shard.
# --------------------------------------------------------------------------

#: Pool workers' readers, one per store path.  Only worker processes fill
#: it — the training process hands its own :class:`ActionStore` to
#: in-process tasks — so a worker forked from it never inherits a reader
#: for a store that was since rewritten at the same path.
_STORE_CACHE: dict[str, ActionStore] = {}


def _worker_store(path: str) -> ActionStore:
    store = _STORE_CACHE.get(path)
    if store is None:
        store = _STORE_CACHE[path] = ActionStore(path)
    return store


def _estep_shard_impl(
    task: tuple[
        ActionStore | str, int, np.ndarray | _SharedScoreTable, int, int, np.ndarray | None
    ],
) -> tuple[np.ndarray, np.ndarray, float]:
    """Worker body: batched assignment DP over one shard.

    ``task`` is ``(store, shard_index, code_major_table, num_levels,
    max_step, step_log_penalties)``.  ``store`` is the trainer's reader for
    in-process tasks or the store path for pool tasks.  The table is
    code-major ``(V, S)`` — row ``c`` holds the level scores of store code
    ``c`` — either inline or as a shared-memory descriptor.  Returns
    ``(levels, lls, seconds)``: concatenated 0-based levels in shard user
    order, one log-likelihood per user, and the task's wall time.
    """
    start = time.perf_counter()
    store, shard_index, table_ref, num_levels, max_step, penalties = task
    if not isinstance(store, ActionStore):
        store = _worker_store(store)
    shard = store.shard(shard_index, eager=True)
    plan = prepare_batch(shard.user_rows(), num_levels)
    if isinstance(table_ref, _SharedScoreTable):
        view, segment = _open_shared_table(table_ref)
        try:
            # batch_assign_flat gathers with np.take into its own buffers,
            # so no view into the segment survives the call.
            levels, lls = batch_assign_flat(
                view, plan, max_step=max_step, step_log_penalties=penalties
            )
        finally:
            del view
            segment.close()
    else:
        levels, lls = batch_assign_flat(
            np.ascontiguousarray(table_ref),
            plan,
            max_step=max_step,
            step_log_penalties=penalties,
        )
    return levels, lls, time.perf_counter() - start


#: Resolved through the module namespace by :class:`ShardPool` at call
#: time so fault-injection harnesses can swap the worker body in; the
#: serial fallback always runs the real implementation.
_estep_shard = _estep_shard_impl


class ShardPool(RecoveringPool):
    """Process pool over shard E-step tasks with the standard recovery
    ladder (rebuild with backoff → degrade to serial)."""

    pool_kind = "shard pool"
    serial_noun = "shard execution"

    def _resolve_worker(self) -> Callable:
        return _estep_shard


# --------------------------------------------------------------------------
# Blocks.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardedFitResult:
    """A fit summary without materialized per-user assignments.

    ``Trainer.fit(..., materialize=False)`` returns this at scales where a
    million-entry assignments dict (and the
    :class:`~repro.core.model.SkillModel` JSON it implies) stops being a
    sensible artifact.  Parameters, trace, and telemetry are exactly what
    the materialized model would carry.
    """

    parameters: SkillParameters
    trace: TrainingTrace
    telemetry: object
    num_users: int
    num_actions: int
    num_shards: int


class ShardBlocks:
    """An :class:`~repro.data.store.ActionStore` as one block per shard.

    ``parallel.users``/``workers`` in the trainer configuration put the
    E-step on a :class:`ShardPool`.  Use as a context manager: closing
    shuts the pool down and removes the scratch directory.
    """

    def __init__(self, store: ActionStore, encoded, config):
        self.store = store
        self.num_users = store.num_users
        self.num_actions = store.num_actions
        self.num_blocks = store.num_shards
        # Store code -> catalog row, fixed for the whole fit.  Gathering
        # the score table through this map once per iteration gives the
        # E-step a code-major table bit-identical to what the in-RAM
        # engine gathers per action.
        self._vocab_rows = encoded.rows_for(store.item_ids)
        # Per-user offsets are fixed across iterations; ~8 bytes per user
        # is the one per-user allocation a store fit keeps in the trainer.
        self._offsets = [
            np.load(store.path / entry["name"] / "offsets.npy", allow_pickle=False)
            for entry in store.manifest["shards"]
        ]
        self._task_config = (
            config.num_levels,
            config.max_step,
            None
            if config.step_log_penalties is None
            else np.asarray(config.step_log_penalties, dtype=np.float64),
        )
        parallel = config.parallel
        self._pool = (
            ShardPool(parallel) if parallel.users and parallel.workers > 1 else None
        )
        self._scratch = tempfile.TemporaryDirectory(prefix="repro-shard-")
        self._dir = Path(self._scratch.name)
        get_registry().gauge("train.shards").set(self.num_blocks)

    def __enter__(self) -> "ShardBlocks":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._pool is not None:
            self._pool.close()
        self._scratch.cleanup()

    @property
    def event_counts(self) -> dict[str, int]:
        if self._pool is not None:
            return dict(self._pool.event_counts)
        return {"rebuilds": 0, "degraded": 0, "chunk_timeouts": 0}

    def offsets(self, index: int) -> np.ndarray:
        return self._offsets[index]

    def rows(self, index: int) -> np.ndarray:
        return self._vocab_rows[self.store.shard_codes(index)]

    def estep(self, table: np.ndarray) -> list[np.ndarray]:
        """Assign every shard against ``table``; stage each shard's new
        levels in scratch and return the per-shard log-likelihoods."""
        code_major = np.ascontiguousarray(table.T[self._vocab_rows])
        shard_seconds = get_registry().histogram("train.shard_seconds")

        def _stage(index: int, result) -> np.ndarray:
            levels, lls, seconds = result
            shard_seconds.observe(seconds)
            # int32 halves scratch I/O; levels are < num_levels, and every
            # consumer re-widens to int64 (exactly) on load.
            np.save(
                self._dir / f"new-{index}.npy",
                np.asarray(levels, dtype=np.int32),
                allow_pickle=False,
            )
            return lls

        def _serial() -> list[np.ndarray]:
            return [
                _stage(
                    index,
                    _estep_shard_impl((self.store, index, code_major, *self._task_config)),
                )
                for index in range(self.num_blocks)
            ]

        pool = self._pool
        if pool is None or pool._serial_fallback:
            return _serial()
        shm, ref = publish_item_major(code_major)
        try:
            table_ref = ref if ref is not None else code_major
            store_path = str(self.store.path)
            tasks = [
                (store_path, index, table_ref, *self._task_config)
                for index in range(self.num_blocks)
            ]
            status, results = pool._run_with_recovery(tasks, get_registry())
        finally:
            if shm is not None:
                for finalize in (shm.close, shm.unlink):
                    try:
                        finalize()
                    except FileNotFoundError:  # pragma: no cover
                        pass
        if status == "serial":
            # The pool degraded mid-iteration; rerun every shard with the
            # real worker body (tasks are pure, reruns are safe).
            return _serial()
        return [_stage(index, result) for index, result in enumerate(results)]

    def advance(self, index: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Commit shard ``index``'s staged levels; returns ``(new,
        previous)``, ``previous`` being ``None`` on the first commit."""
        new_path = self._dir / f"new-{index}.npy"
        prev_path = self._dir / f"prev-{index}.npy"
        new = np.load(new_path, allow_pickle=False)
        previous = np.load(prev_path, allow_pickle=False) if prev_path.exists() else None
        os.replace(new_path, prev_path)
        return new, previous

    def paths(self) -> Iterator[tuple[object, np.ndarray, np.ndarray]]:
        """``(user, committed 0-based levels, times)`` in user order."""
        for index in range(self.num_blocks):
            shard = self.store.shard(index, eager=True)
            levels = np.load(self._dir / f"prev-{index}.npy", allow_pickle=False)
            for k, user in enumerate(shard.users):
                lo, hi = int(shard.offsets[k]), int(shard.offsets[k + 1])
                yield user, levels[lo:hi], np.asarray(shard.times[lo:hi], dtype=np.float64)
