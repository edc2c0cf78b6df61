"""Training telemetry: the run record a fitted model carries with it.

:class:`~repro.core.model.TrainingTrace` answers *what* the trainer
converged to; :class:`TrainingTelemetry` answers *how the run went*:
where the wall-time was spent per stage, how assignments churned, which
checkpoints were written, and whether the worker pool degraded.  It is
attached to the fitted :class:`~repro.core.model.SkillModel`, survives
``save_model``/``load_model`` (stored in the model JSON), is dumped by
``repro fit --metrics-out``, and pretty-printed by ``repro inspect``.

Everything here is plain data with exact JSON round-trips — no clocks,
no registries — so it can cross process and storage boundaries freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = [
    "CheckpointEvent",
    "IterationRecord",
    "TelemetryBuilder",
    "TrainingTelemetry",
]

#: The per-iteration stage keys the hard trainer reports (seconds);
#: ``iteration`` (the whole step) comes last.
TRAINER_STAGES = ("table_build", "assign", "reduce", "cell_fit", "checkpoint", "iteration")


@dataclass(frozen=True)
class CheckpointEvent:
    """One snapshot written during training."""

    iteration: int
    path: str
    num_bytes: int
    seconds: float

    def to_json(self) -> dict[str, Any]:
        return {
            "iteration": self.iteration,
            "path": self.path,
            "num_bytes": self.num_bytes,
            "seconds": self.seconds,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "CheckpointEvent":
        return cls(
            iteration=int(payload["iteration"]),
            path=str(payload["path"]),
            num_bytes=int(payload["num_bytes"]),
            seconds=float(payload["seconds"]),
        )


@dataclass(frozen=True)
class IterationRecord:
    """Diagnostics for one completed training iteration.

    ``improvement``, ``unchanged_users``, and ``level_drift`` are ``None``
    on the first iteration (there is nothing to compare against).
    ``level_drift`` is the L1 distance between consecutive level
    histograms, normalized by the action count — 0 means assignments have
    stopped moving.
    """

    iteration: int
    log_likelihood: float
    improvement: float | None
    stage_seconds: Mapping[str, float]
    unchanged_users: int | None
    level_histogram: tuple[int, ...]
    level_drift: float | None

    def to_json(self) -> dict[str, Any]:
        return {
            "iteration": self.iteration,
            "log_likelihood": self.log_likelihood,
            "improvement": self.improvement,
            "stage_seconds": dict(self.stage_seconds),
            "unchanged_users": self.unchanged_users,
            "level_histogram": list(self.level_histogram),
            "level_drift": self.level_drift,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "IterationRecord":
        return cls(
            iteration=int(payload["iteration"]),
            log_likelihood=float(payload["log_likelihood"]),
            improvement=(
                None if payload.get("improvement") is None else float(payload["improvement"])
            ),
            stage_seconds={k: float(v) for k, v in payload.get("stage_seconds", {}).items()},
            unchanged_users=(
                None
                if payload.get("unchanged_users") is None
                else int(payload["unchanged_users"])
            ),
            level_histogram=tuple(int(v) for v in payload.get("level_histogram", ())),
            level_drift=(
                None if payload.get("level_drift") is None else float(payload["level_drift"])
            ),
        )


@dataclass(frozen=True)
class TrainingTelemetry:
    """The full observability record of one fit.

    ``log_likelihoods`` spans the *entire* trajectory (including
    iterations completed before a resume); ``iterations`` holds the
    per-iteration records of the iterations this process actually ran.
    """

    run_id: str
    log_likelihoods: tuple[float, ...]
    iterations: tuple[IterationRecord, ...]
    stage_seconds: Mapping[str, float]
    pool_events: Mapping[str, int]
    checkpoints: tuple[CheckpointEvent, ...]
    converged: bool
    total_seconds: float
    #: Process resource stats sampled at the end of the fit (peak RSS in
    #: bytes, GC pause totals; see :mod:`repro.obs.resource`).  Empty for
    #: artifacts that predate resource sampling.
    resources: Mapping[str, float] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        payload = {
            "run_id": self.run_id,
            "log_likelihoods": list(self.log_likelihoods),
            "iterations": [record.to_json() for record in self.iterations],
            "stage_seconds": dict(self.stage_seconds),
            "pool_events": dict(self.pool_events),
            "checkpoints": [event.to_json() for event in self.checkpoints],
            "converged": self.converged,
            "total_seconds": self.total_seconds,
        }
        if self.resources:
            # Only when sampled, so pre-resource payloads round-trip
            # byte-identically through load → save.
            payload["resources"] = dict(self.resources)
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "TrainingTelemetry":
        return cls(
            run_id=str(payload["run_id"]),
            log_likelihoods=tuple(float(v) for v in payload["log_likelihoods"]),
            iterations=tuple(
                IterationRecord.from_json(entry) for entry in payload.get("iterations", ())
            ),
            stage_seconds={
                k: float(v) for k, v in payload.get("stage_seconds", {}).items()
            },
            pool_events={k: int(v) for k, v in payload.get("pool_events", {}).items()},
            checkpoints=tuple(
                CheckpointEvent.from_json(entry) for entry in payload.get("checkpoints", ())
            ),
            converged=bool(payload["converged"]),
            total_seconds=float(payload["total_seconds"]),
            resources={
                k: float(v) for k, v in payload.get("resources", {}).items()
            },
        )

    # ------------------------------------------------------------- report

    def summary_lines(self) -> list[str]:
        """Markdown bullet lines for model cards and ``repro inspect``."""
        lines = [
            f"- run id: {self.run_id}; wall time {self.total_seconds:.2f}s over "
            f"{len(self.iterations)} instrumented iteration(s) "
            f"(converged: {self.converged})"
        ]
        if self.stage_seconds:
            total = sum(
                v for k, v in self.stage_seconds.items() if k != "iteration"
            ) or 1.0
            shares = ", ".join(
                f"{stage} {seconds:.3f}s ({seconds / total:.0%})"
                for stage, seconds in self.stage_seconds.items()
                if stage != "iteration"
            )
            lines.append(f"- stage wall-time: {shares}")
        if self.pool_events:
            lines.append(
                "- pool events: "
                + ", ".join(f"{k}={v}" for k, v in sorted(self.pool_events.items()))
            )
        if self.checkpoints:
            total_bytes = sum(event.num_bytes for event in self.checkpoints)
            lines.append(
                f"- checkpoints: {len(self.checkpoints)} written, "
                f"{total_bytes} bytes total, last at iteration "
                f"{self.checkpoints[-1].iteration}"
            )
        if self.log_likelihoods:
            lines.append(
                f"- log-likelihood: {self.log_likelihoods[0]:.1f} → "
                f"{self.log_likelihoods[-1]:.1f} over "
                f"{len(self.log_likelihoods)} iteration(s)"
            )
        if self.resources.get("peak_rss_bytes"):
            rss_mib = self.resources["peak_rss_bytes"] / (1024.0 * 1024.0)
            gc_note = ""
            if self.resources.get("gc_collections"):
                gc_note = (
                    f", {int(self.resources['gc_collections'])} GC pause(s) "
                    f"totalling {self.resources.get('gc_pause_seconds_total', 0.0):.3f}s"
                )
            lines.append(f"- resources: peak RSS {rss_mib:.1f} MiB{gc_note}")
        return lines

    def summary(self) -> str:
        return "\n".join(self.summary_lines())


@dataclass
class TelemetryBuilder:
    """Mutable accumulator the training loop feeds; ``build()`` freezes it."""

    run_id: str
    #: Stage keys reported even when they never ran (e.g. ``checkpoint``
    #: with checkpointing disabled), so metrics consumers see a stable set.
    stages: tuple[str, ...] = ()
    iterations: list[IterationRecord] = field(default_factory=list)
    checkpoints: list[CheckpointEvent] = field(default_factory=list)

    def record_iteration(self, record: IterationRecord) -> None:
        self.iterations.append(record)

    def record_checkpoint(self, event: CheckpointEvent) -> None:
        self.checkpoints.append(event)

    def build(
        self,
        *,
        log_likelihoods: tuple[float, ...],
        pool_events: Mapping[str, int],
        converged: bool,
        total_seconds: float,
        resources: Mapping[str, float] | None = None,
    ) -> TrainingTelemetry:
        stage_seconds: dict[str, float] = dict.fromkeys(self.stages, 0.0)
        for record in self.iterations:
            for stage, seconds in record.stage_seconds.items():
                stage_seconds[stage] = stage_seconds.get(stage, 0.0) + seconds
        return TrainingTelemetry(
            run_id=self.run_id,
            log_likelihoods=tuple(log_likelihoods),
            iterations=tuple(self.iterations),
            stage_seconds=stage_seconds,
            pool_events=dict(pool_events),
            checkpoints=tuple(self.checkpoints),
            converged=converged,
            total_seconds=total_seconds,
            resources=dict(resources) if resources else {},
        )
