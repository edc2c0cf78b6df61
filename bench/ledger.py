"""Per-layer metrics from the spans ``bench/launch.py`` records.

A span's *self time* is its duration minus the part of it that its
wrapped children cover, so nested layers are never counted twice.  The
serve ledger joins each read request the load generator sent to the
server spans it caused (through the ``X-Bench-Id`` header) and splits its
client-observed latency into:

- ``bench.client.queue``: due time to send (both connections busy);
- ``serve.dispatch``: the handler outside the batcher (validation,
  user resolution, admission);
- ``serve.batcher.wait``: queued and coalescing in the micro-batcher;
- ``serve.batcher.flush``: the flush outside the wrapped kernels;
- one row per kernel the request's flush ran;
- ``serve.server.residual``: send to reply minus the server's dispatch
  span, which is reading and parsing the request, encoding and writing
  the reply, and event-loop scheduling on both sides.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from loadgen import median, tail

#: Per-layer metrics, name -> unit.  Every traced run reports all of
#: them; a layer a workload never enters reads 0.
LAYER_METRICS: dict[str, str] = {
    "serve.batcher.wait_ms_p50": "ms",
    "serve.batcher.batch_size_mean": "count",
    "serve.admission.rejected": "count",
    "serve.server.residual_ms_mean": "ms",
    "recsys.ranking.predict_items_ms_p50": "ms",
    "core.model.top_items_ms_p50": "ms",
    "recsys.upskill.recommend_batch_ms_p50": "ms",
    "core.difficulty.difficulty_array_ms_p50": "ms",
    "recsys.similarity.similar_harder_ms_p50": "ms",
    "recsys.similarity.index_builds": "count",
    "recsys.similarity.build_s_total": "s",
    "serve.state.swaps": "count",
    "serve.state.reload_ms_p50": "ms",
    "core.serialize.load_model_ms_p50": "ms",
    "serve.ingest.append_ms_p50": "ms",
    "serve.ingest.append_ms_tail": "ms",
    "serve.ingest.events_per_append": "count",
    "ingest.ack_ms_p50": "ms",
    "ingest.ack_ms_tail": "ms",
    "ingest.to_swap_s_p50": "s",
    "serve.foldin.fold_s_p50": "s",
    "serve.foldin.events_per_fold": "count",
    "core.incremental.extend_model_s_p50": "s",
    "core.serialize.save_model_s_p50": "s",
    "data.io.load_log_s": "s",
    "data.store.shard_load_s_total": "s",
    "data.store.shards": "count",
    "core.engine.score_table_s_total": "s",
    "core.model.score_cache_hit_ratio": "ratio",
    "core.engine.assign_s_total": "s",
    "core.shard.assign_s_total": "s",
    "core.stats.reduce_s_total": "s",
    "core.model.cell_fit_s_total": "s",
    "core.model.cells_refit_ratio": "ratio",
    "fit.other_s": "s",
    "fit.log.wall_s_p50": "s",
    "fit.store.wall_s_p50": "s",
    "fit.log.peak_rss_mb": "MB",
    "fit.store.peak_rss_mb": "MB",
    "fit.iterations": "count",
    "bench.loadgen.late_ms_tail": "ms",
}

#: Wrapped layers each workload must enter at least once in a traced run.
SERVE_READ_LAYERS = (
    "serve.dispatch",
    "serve.batcher.submit",
    "serve.batcher.flush",
    "recsys.ranking.predict_items",
    "core.model.top_items",
    "recsys.upskill.recommend_batch",
    "core.difficulty.difficulty_array",
    "serve.state.maybe_reload",
    "core.serialize.load_model",
)
SIMILAR_LAYERS = ("recsys.similarity.similar_harder", "recsys.similarity.build_index")
INGEST_LAYERS = (
    "serve.ingest.append",
    "serve.foldin.run_once",
    "core.incremental.extend_model",
    "core.serialize.save_model",
)
FIT_LAYERS = (
    "data.io.load_log",
    "data.store.shard",
    "core.engine.score_table",
    "core.engine.assign",
    "core.shard.assign",
    "core.stats.reduce",
    "core.model.cell_fit",
    "core.serialize.save_model",
)

#: Largest share by which the ledger's rows may miss the end-to-end mean.
LEDGER_TOLERANCE = 0.05


@dataclass(frozen=True)
class Span:
    layer: str
    id: int
    parent: int | None
    start: float
    end: float
    attrs: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def load(path: Path) -> tuple[list[Span], dict, float]:
    """Spans, registry counters and peak RSS (MB) from a launcher report."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    spans = [Span(*row) for row in payload["spans"]]
    return spans, payload["counters"], payload["peak_rss_mb"]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = span.duration - covered
    return result


def missing_layers(spans: list[Span], expected) -> list[str]:
    """Expected layers that recorded no span (a stale binding)."""
    seen = {span.layer for span in spans}
    return [layer for layer in expected if layer not in seen]


def _by_layer(spans: list[Span]) -> dict[str, list[Span]]:
    grouped: dict[str, list[Span]] = {}
    for span in spans:
        grouped.setdefault(span.layer, []).append(span)
    return grouped


def _flush_of(submits: list[Span], flushes: list[Span]) -> dict[int, Span]:
    """Submit span id -> the flush that served it.

    A flush names the payload objects it carried; the submit that queued
    a payload is the one whose interval contains the flush's start.
    """
    by_payload: dict[int, list[Span]] = {}
    for submit in submits:
        by_payload.setdefault(submit.attrs["payload"], []).append(submit)
    served: dict[int, Span] = {}
    for flush in flushes:
        for payload in flush.attrs["payloads"]:
            for submit in by_payload.get(payload, ()):
                if submit.start <= flush.start <= submit.end:
                    served[submit.id] = flush
    return served


def serve_layers(
    spans: list[Span], reads, metrics: dict
) -> tuple[dict[str, float], list[tuple[str, float]], list[str]]:
    """Serve-side per-layer metrics, the read ledger, and ledger problems.

    ``reads`` are the load generator's outcomes for read requests in the
    measured window; ``metrics`` is the server's ``/metrics`` snapshot.
    """
    grouped = _by_layer(spans)
    selfs = self_times(spans)
    ms = 1000.0

    def p50_ms(layer: str) -> float:
        return median(selfs[s.id] for s in grouped.get(layer, ())) * ms

    submits = [
        s for s in grouped.get("serve.batcher.submit", ())
        if not s.attrs["batcher"].startswith("ingest")
    ]
    flush_of = _flush_of(submits, grouped.get("serve.batcher.flush", []))
    waits = [s.duration - flush_of[s.id].duration for s in submits if s.id in flush_of]
    swaps = [s for s in grouped.get("serve.state.maybe_reload", ()) if s.attrs["swapped"]]
    appends = grouped.get("serve.ingest.append", [])
    folds = [s for s in grouped.get("serve.foldin.run_once", ()) if s.attrs["events"]]
    builds = grouped.get("recsys.similarity.build_index", [])
    histograms = metrics.get("histograms", {})
    layers = {
        "serve.batcher.wait_ms_p50": median(waits) * ms,
        "serve.batcher.batch_size_mean": float(
            histograms.get("serve.batch_size", {}).get("mean", 0.0)
        ),
        "serve.admission.rejected": float(metrics.get("counters", {}).get("serve.shed", 0)),
        "recsys.ranking.predict_items_ms_p50": p50_ms("recsys.ranking.predict_items"),
        "core.model.top_items_ms_p50": p50_ms("core.model.top_items"),
        "recsys.upskill.recommend_batch_ms_p50": p50_ms("recsys.upskill.recommend_batch"),
        "core.difficulty.difficulty_array_ms_p50": p50_ms("core.difficulty.difficulty_array"),
        "recsys.similarity.similar_harder_ms_p50": p50_ms("recsys.similarity.similar_harder"),
        "recsys.similarity.index_builds": float(len(builds)),
        "recsys.similarity.build_s_total": sum(s.duration for s in builds),
        "serve.state.swaps": float(len(swaps)),
        "serve.state.reload_ms_p50": median(s.duration for s in swaps) * ms,
        "core.serialize.load_model_ms_p50": p50_ms("core.serialize.load_model"),
        "serve.ingest.append_ms_p50": median(s.duration for s in appends) * ms,
        "serve.ingest.append_ms_tail": tail(s.duration for s in appends)[0] * ms,
        "serve.ingest.events_per_append": (
            sum(s.attrs["events"] for s in appends) / len(appends) if appends else 0.0
        ),
        "serve.foldin.fold_s_p50": median(s.duration for s in folds),
        "serve.foldin.events_per_fold": (
            sum(s.attrs["events"] for s in folds) / len(folds) if folds else 0.0
        ),
        "core.incremental.extend_model_s_p50": median(
            s.duration for s in grouped.get("core.incremental.extend_model", ())
        ),
        "core.serialize.save_model_s_p50": median(
            s.duration for s in grouped.get("core.serialize.save_model", ())
        ),
    }
    rows, residual_mean, problems = _read_ledger(spans, selfs, grouped, flush_of, reads)
    layers["serve.server.residual_ms_mean"] = residual_mean * ms
    return layers, rows, problems


def _read_ledger(spans, selfs, grouped, flush_of, reads):
    """Mean per-read ledger rows (seconds) and its consistency problems."""
    dispatch_of = {
        s.attrs["id"]: s for s in grouped.get("serve.dispatch", ()) if s.attrs["id"]
    }
    submit_of = {
        s.parent: s for s in grouped.get("serve.batcher.submit", ()) if s.id in flush_of
    }
    kernels_of: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None and span.layer not in (
            "serve.batcher.submit",
            "serve.batcher.flush",
        ):
            kernels_of.setdefault(span.parent, []).append(span)
    totals: dict[str, float] = {}
    joined = 0
    residuals: list[float] = []
    for outcome in reads:
        dispatch = dispatch_of.get(outcome.request.headers.get("X-Bench-Id"))
        if dispatch is None:
            continue
        joined += 1
        parts = {
            "bench.client.queue": outcome.sent - outcome.due,
            "serve.server.residual": (outcome.done - outcome.sent) - dispatch.duration,
        }
        submit = submit_of.get(dispatch.id)
        if submit is None:
            parts["serve.dispatch"] = dispatch.duration
        else:
            flush = flush_of[submit.id]
            parts["serve.dispatch"] = dispatch.duration - submit.duration
            parts["serve.batcher.wait"] = submit.duration - flush.duration
            parts["serve.batcher.flush"] = selfs[flush.id]
            for kernel in kernels_of.get(flush.id, ()):
                parts[kernel.layer] = parts.get(kernel.layer, 0.0) + selfs[kernel.id]
        residuals.append(parts["serve.server.residual"])
        for name, seconds in parts.items():
            totals[name] = totals.get(name, 0.0) + seconds
    if not joined:
        return [], 0.0, ["no read request joined to a server span"]
    rows = sorted(
        ((name, total / joined) for name, total in totals.items()),
        key=lambda row: -row[1],
    )
    problems: list[str] = []
    end_to_end = sum(outcome.latency for outcome in reads) / len(reads)
    explained = sum(seconds for _name, seconds in rows)
    if abs(explained - end_to_end) > LEDGER_TOLERANCE * end_to_end:
        problems.append(
            f"ledger rows sum to {explained * 1000:.3f} ms but the mean read "
            f"latency is {end_to_end * 1000:.3f} ms ({joined}/{len(reads)} joined)"
        )
    residual_mean = sum(residuals) / len(residuals)
    if residual_mean < 0:
        problems.append(f"negative server residual {residual_mean * 1000:.3f} ms")
    return rows, residual_mean, problems


def fit_layers(fits) -> dict[str, float]:
    """Fit-side per-layer metrics over the traced fits of one run.

    ``fits`` are records with ``spans``, ``counters``, ``wall`` and
    ``path`` ("log" or "store") attributes.  Totals are means per fit
    over the fits of the path that enters the layer; ``fit.other_s`` is
    wall time outside every top-level span (interpreter start, imports,
    argument parsing, catalog loading, building the model object), per
    fit.
    """
    selfs = [self_times(fit.spans) for fit in fits]

    def per_fit(layer: str, path: str | None = None) -> float:
        totals = [
            sum(own[s.id] for s in fit.spans if s.layer == layer)
            for fit, own in zip(fits, selfs)
            if path is None or fit.path == path
        ]
        return sum(totals) / len(totals) if totals else 0.0

    hits = sum(fit.counters.get("score_cache.hits", 0) for fit in fits)
    misses = sum(fit.counters.get("score_cache.misses", 0) for fit in fits)
    cells = [s.attrs for fit in fits for s in fit.spans if s.layer == "core.model.cell_fit"]
    refit = sum(a["cells"] for a in cells)
    possible = sum(a["possible"] for a in cells)
    other = [
        fit.wall - sum(s.duration for s in fit.spans if s.parent is None) for fit in fits
    ]
    saves = [
        s.duration for fit in fits for s in fit.spans if s.layer == "core.serialize.save_model"
    ]
    return {
        "data.io.load_log_s": per_fit("data.io.load_log", "log"),
        "data.store.shard_load_s_total": per_fit("data.store.shard", "store"),
        "core.engine.score_table_s_total": per_fit("core.engine.score_table"),
        "core.model.score_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.engine.assign_s_total": per_fit("core.engine.assign", "log"),
        "core.shard.assign_s_total": per_fit("core.shard.assign", "store"),
        "core.stats.reduce_s_total": per_fit("core.stats.reduce"),
        "core.model.cell_fit_s_total": per_fit("core.model.cell_fit"),
        "core.model.cells_refit_ratio": refit / possible if possible else 0.0,
        "core.serialize.save_model_s_p50": median(saves),
        "fit.other_s": sum(other) / len(other) if other else 0.0,
    }
