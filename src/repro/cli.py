"""Command-line interface: experiments, simulation, training, scoring.

Experiment reproduction::

    python -m repro list
    python -m repro run table6 --scale small
    python -m repro run all --scale small
    python -m repro datasets
    python -m repro report                 # regenerate EXPERIMENTS.md

End-to-end tool usage on files (JSONL logs/catalogs, JSON+NPZ models)::

    python -m repro simulate cooking --out data/cooking --users 500
    python -m repro fit data/cooking --levels 5 --model models/cooking
    python -m repro score models/cooking --top 10

Out-of-core training on corpora that don't fit in RAM (columnar store
directories; see docs/architecture.md)::

    python -m repro simulate synthetic --out data/big --users 100000 --store
    python -m repro convert data/cooking.log.jsonl data/cooking.store
    python -m repro fit data/big --levels 5 --model models/big --workers 4
    python -m repro inspect data/big.store

Serving::


    python -m repro serve models/cooking --port 8080
    python -m repro serve models/cooking --ingest-wal wal/ --data data/cooking
    python -m repro recommend models/cooking --user u12 --data data/cooking
    python -m repro wal inspect wal/

Observability (``fit``, ``run``, and ``serve``): ``--log-level INFO`` /
``--log-json`` select structured logging, ``--metrics-out metrics.json``
dumps the run's counters, stage timings, and training telemetry, and
``--trace-out spans.jsonl`` enables span tracing (both schemas checked by
``tools/check_obs_output.py``; summarize spans with ``repro trace``).

Everything the CLI does is a thin veneer over the library; the same flows
are available programmatically (see README).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.exceptions import ReproError
from repro.experiments import all_experiments, get_experiment
from repro.experiments.registry import SCALES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed separately for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-upskill",
        description=(
            "Reproduction of 'Toward Recommendation for Upskilling' (ICDE 2020): "
            "run any of the paper's tables and figures on simulated data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the registered experiments")

    def add_obs_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--log-level",
            default=None,
            metavar="LEVEL",
            help="logging level for repro.* loggers (DEBUG/INFO/WARNING/...; "
            "default: $REPRO_LOG_LEVEL or WARNING)",
        )
        p.add_argument(
            "--log-json",
            action="store_true",
            help="emit logs as JSON lines instead of human-readable text",
        )
        p.add_argument(
            "--metrics-out",
            default=None,
            metavar="PATH",
            help="write a JSON metrics snapshot (counters, stage timings, "
            "telemetry) to PATH when done",
        )
        p.add_argument(
            "--trace-out",
            default=None,
            metavar="PATH",
            help="enable span tracing and append repro-trace/1 JSONL spans "
            "to PATH (tracing is off without this flag; inspect with "
            "`repro trace PATH`)",
        )

    run_parser = sub.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment", help="experiment id (e.g. table6, fig3) or 'all'")
    run_parser.add_argument(
        "--scale",
        choices=SCALES,
        default="small",
        help="dataset scale preset (default: small)",
    )
    add_obs_flags(run_parser)

    sub.add_parser("datasets", help="show the simulated dataset statistics")

    report_parser = sub.add_parser(
        "report", help="run every experiment and write a paper-vs-measured report"
    )
    report_parser.add_argument("--scale", choices=SCALES, default="small")
    report_parser.add_argument(
        "--output", default="EXPERIMENTS.md", help="markdown file to write"
    )

    simulate_parser = sub.add_parser(
        "simulate", help="generate a simulated domain and write it as JSONL"
    )
    simulate_parser.add_argument(
        "domain", choices=("synthetic", "language", "cooking", "beer", "film")
    )
    simulate_parser.add_argument("--out", required=True, help="output path prefix")
    simulate_parser.add_argument("--users", type=int, default=None)
    simulate_parser.add_argument("--items", type=int, default=None)
    simulate_parser.add_argument("--seed", type=int, default=0)
    simulate_parser.add_argument(
        "--store",
        action="store_true",
        help="write the actions as an out-of-core columnar store "
        "(<out>.store/) instead of a JSONL log; synthetic domain only — "
        "generation then streams and never holds the corpus in RAM",
    )
    simulate_parser.add_argument(
        "--users-per-shard",
        type=int,
        default=4096,
        metavar="N",
        help="with --store: how many users each shard buckets (default: 4096)",
    )

    convert_parser = sub.add_parser(
        "convert",
        help="convert a JSONL action log into an out-of-core columnar store",
    )
    convert_parser.add_argument(
        "data", help="JSONL log file, or a path prefix written by `simulate`"
    )
    convert_parser.add_argument("store", help="store directory to create")
    convert_parser.add_argument(
        "--users-per-shard",
        type=int,
        default=4096,
        metavar="N",
        help="how many users each shard buckets (default: 4096)",
    )

    fit_parser = sub.add_parser(
        "fit", help="train a skill model from JSONL data (or a columnar "
        "store) and save it"
    )
    fit_parser.add_argument(
        "data",
        help="path prefix written by `simulate`, or a columnar store "
        "directory written by `convert`/`simulate --store` (a prefix with "
        "a sibling <data>.store also selects the store)",
    )
    fit_parser.add_argument("--levels", type=int, required=True)
    fit_parser.add_argument("--model", required=True, help="model output path prefix")
    fit_parser.add_argument("--max-iterations", type=int, default=50)
    fit_parser.add_argument("--init-min-actions", type=int, default=50)
    fit_parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="write a training checkpoint to <model>.ckpt.json every N "
        "iterations (0 disables checkpointing)",
    )
    fit_parser.add_argument(
        "--resume",
        action="store_true",
        help="continue training from <model>.ckpt.json; the trainer "
        "configuration is taken from the checkpoint, so --levels and "
        "--max-iterations are ignored",
    )
    fit_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the E-step (N > 1 enables the "
        "user-parallel pool; parallelism changes wall-clock, never "
        "results)",
    )
    add_obs_flags(fit_parser)

    score_parser = sub.add_parser(
        "score", help="estimate item difficulties with a saved model"
    )
    score_parser.add_argument("model", help="model path prefix written by `fit`")
    score_parser.add_argument(
        "--prior", choices=("uniform", "empirical"), default="empirical"
    )
    score_parser.add_argument("--top", type=int, default=0, help="print only the N hardest")
    score_parser.add_argument("--output", default=None, help="optional JSONL output")

    recommend_parser = sub.add_parser(
        "recommend",
        help="difficulty-targeted next items from a saved model "
        "(the offline twin of POST /recommend; see docs/recommendation.md)",
    )
    recommend_parser.add_argument("model", help="model path prefix written by `fit`")
    recommend_parser.add_argument(
        "--user", default=None, help="recommend for this training user"
    )
    recommend_parser.add_argument(
        "--time",
        type=float,
        default=None,
        help="infer the user's level at this time (default: their latest)",
    )
    recommend_parser.add_argument("--k", type=int, default=10)
    recommend_parser.add_argument(
        "--data",
        default=None,
        metavar="PREFIX",
        help="data path prefix (written by `simulate`); enables "
        "exclude-seen so already-done items are skipped",
    )
    recommend_parser.add_argument(
        "--window",
        default="-0.25,0.75",
        metavar="LOW,HIGH",
        help="challenge window relative to the user's level "
        "(default: -0.25,0.75)",
    )
    recommend_parser.add_argument(
        "--interest-weight",
        type=float,
        default=0.5,
        metavar="W",
        help="interest/challenge blend (0 = challenge only, 1 = interest only)",
    )
    recommend_parser.add_argument(
        "--similar-harder",
        default=None,
        metavar="ITEM",
        help="instead of the upskill blend: items performance-similar to "
        "ITEM but strictly harder (Kappa-style progression)",
    )
    recommend_parser.add_argument(
        "--margin",
        type=float,
        default=0.0,
        help="with --similar-harder: require at least this much extra "
        "difficulty over the anchor",
    )
    recommend_parser.add_argument(
        "--max-jump",
        type=float,
        default=None,
        help="re-rank: drop items more than this far above the user's "
        "level (the skip-level extension)",
    )
    recommend_parser.add_argument(
        "--satisfaction",
        default=None,
        metavar="PATH",
        help="re-rank: JSONL of {item, satisfaction} weights in [0, 1] "
        "(the satisfaction extension)",
    )
    recommend_parser.add_argument(
        "--output", default=None, help="optional JSONL output path"
    )

    inspect_parser = sub.add_parser(
        "inspect",
        help="print a model card for a saved model, or a shard/checksum "
        "report for a columnar action store",
    )
    inspect_parser.add_argument(
        "model",
        help="model path prefix written by `fit`, or a store directory "
        "written by `convert`/`simulate --store`",
    )
    inspect_parser.add_argument(
        "--data",
        default=None,
        help="optional data path prefix (enables the calibration section)",
    )

    serve_parser = sub.add_parser(
        "serve", help="serve a saved model over HTTP (see docs/serving.md)"
    )
    serve_parser.add_argument("model", help="model path prefix written by `fit`")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8080)
    serve_parser.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="largest coalesced batch per kernel call (1 = sequential dispatch)",
    )
    serve_parser.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="upper bound on batching delay: a batch flushes as soon as the "
        "event loop has no more ready requests, and at most this long after "
        "its first request (0 = flush without yielding)",
    )
    serve_parser.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help="bound on concurrently admitted requests; overflow gets HTTP 429",
    )
    serve_parser.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="per-request deadline; expired requests get HTTP 503",
    )
    serve_parser.add_argument(
        "--poll-seconds",
        type=float,
        default=1.0,
        help="how often to check the artifact pair for a hot-reload",
    )
    serve_parser.add_argument(
        "--ingest-wal",
        default=None,
        metavar="DIR",
        help="enable POST /ingest, journaling events to a write-ahead log "
        "in DIR and folding them into the model in the background "
        "(requires --data for the base action log)",
    )
    serve_parser.add_argument(
        "--data",
        default=None,
        metavar="PREFIX",
        help="data path prefix the model was fitted on (written by "
        "`simulate`); required with --ingest-wal so fold-in extends the "
        "real training sequences",
    )
    serve_parser.add_argument(
        "--foldin-every",
        type=float,
        default=5.0,
        metavar="N",
        help="seconds between fold-in drains of the ingest WAL",
    )
    serve_parser.add_argument(
        "--decay-half-life",
        type=float,
        default=None,
        help="enable forgetting-curve decay for idle users during fold-in "
        "(Ebbinghaus half-life in event-time units; needs --decay-stale-after)",
    )
    serve_parser.add_argument(
        "--decay-stale-after",
        type=float,
        default=None,
        help="re-solve users idle longer than this many event-time units "
        "under the decay lattice (needs --decay-half-life)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="prefork mode: N worker processes share the listen address "
        "(SO_REUSEPORT) and one shared-memory copy of every model; "
        "omit for the classic single-process server",
    )
    serve_parser.add_argument(
        "--tenant",
        action="append",
        default=None,
        metavar="NAME=PREFIX",
        help="serve an additional named model at /t/NAME/... (repeatable); "
        "the positional model is the default tenant",
    )
    serve_parser.add_argument(
        "--residency-budget-mb",
        type=float,
        default=None,
        metavar="MB",
        help="LRU byte budget across resident tenant models (counted "
        "against the shared-memory segments in prefork mode)",
    )
    serve_parser.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help="prefork coordination directory (worker registrations, "
        "generation manifests; default: a temporary directory)",
    )
    serve_parser.add_argument(
        "--recommend-window",
        default="-0.25,0.75",
        metavar="LOW,HIGH",
        help="challenge window for POST /recommend, relative to the "
        "user's level (default: -0.25,0.75 — the 'moderately "
        "challenging' zone; see docs/recommendation.md)",
    )
    serve_parser.add_argument(
        "--interest-weight",
        type=float,
        default=0.5,
        metavar="W",
        help="geometric blend between interest and challenge for "
        "POST /recommend (0 = challenge only, 1 = interest only; "
        "default: 0.5)",
    )
    serve_parser.add_argument(
        "--trace-sample",
        type=float,
        default=0.1,
        metavar="RATE",
        help="with --trace-out: fraction of requests recorded with full "
        "span detail (every request still gets an X-Trace-Id header and "
        "journaled trace id; default 0.1 keeps tracing inside the <5%% "
        "serve-overhead budget — set 1.0 to trace every request)",
    )
    add_obs_flags(serve_parser)

    wal_parser = sub.add_parser(
        "wal", help="operate on a serving ingest write-ahead log"
    )
    wal_sub = wal_parser.add_subparsers(dest="wal_command", required=True)
    wal_inspect = wal_sub.add_parser(
        "inspect",
        help="print segment/offset/checksum status of a WAL directory "
        "(read-only; safe against a live server)",
    )
    wal_inspect.add_argument("directory", help="WAL directory (--ingest-wal DIR)")
    wal_inspect.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )

    trace_parser = sub.add_parser(
        "trace",
        help="summarize a repro-trace/1 JSONL span file "
        "(per-stage breakdown, critical path, p95 outliers)",
    )
    trace_parser.add_argument("file", help="span file written via --trace-out")
    trace_parser.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    trace_parser.add_argument(
        "--outliers",
        type=int,
        default=5,
        metavar="N",
        help="how many slow root spans to list (default: 5)",
    )
    return parser


def _configure_obs(
    log_level: str | None,
    log_json: bool,
    trace_out: str | None = None,
    trace_sample: float = 1.0,
) -> None:
    """One-shot observability setup for commands that train or measure.

    ``trace_sample`` only matters for the serve loop (per-request span
    detail); batch commands trace every unit of work regardless.
    """
    from repro.obs.logging import configure_logging

    configure_logging(level=log_level, json_lines=True if log_json else None)
    if trace_out:
        from pathlib import Path

        from repro.obs.trace import configure_tracing

        Path(trace_out).parent.mkdir(parents=True, exist_ok=True)
        configure_tracing(enabled=True, out=trace_out, sample=trace_sample)


def _finish_tracing(trace_out: str | None) -> None:
    """Flush and close the span sink opened by ``--trace-out``."""
    if not trace_out:
        return
    from repro.obs.trace import get_tracer

    tracer = get_tracer()
    tracer.close()
    print(f"wrote trace spans to {trace_out}")


def _write_metrics(path: str, telemetry=None) -> None:
    """Dump the run's metrics snapshot (plus optional fit telemetry)."""
    import json
    from pathlib import Path

    from repro.obs.logging import current_run_id
    from repro.obs.metrics import get_registry

    payload = {
        "schema": "repro-metrics/1",
        "run": current_run_id(),
        **get_registry().snapshot(),
        "telemetry": telemetry.to_json() if telemetry is not None else None,
    }
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, ensure_ascii=False, indent=2), encoding="utf-8")
    print(f"wrote metrics to {out}")


def _cmd_list() -> int:
    for exp in all_experiments():
        print(f"{exp.experiment_id:10s} {exp.title}  [{exp.paper_reference}]")
    return 0


def _cmd_run(
    experiment: str,
    scale: str,
    metrics_out: str | None = None,
) -> int:
    experiments = (
        all_experiments() if experiment == "all" else [get_experiment(experiment)]
    )
    any_failed = False
    for exp in experiments:
        start = time.perf_counter()
        result = exp.run(scale)
        elapsed = time.perf_counter() - start
        print(result.to_text())
        print(f"[{exp.experiment_id}: {elapsed:.1f}s]")
        print()
        if not result.all_checks_pass:
            any_failed = True
    if metrics_out:
        # Everything the experiments trained/assigned during this process
        # recorded stage timings into the registry (train.*, pool.*, exp13.*);
        # the snapshot turns e.g. `repro run table13` into measured numbers.
        _write_metrics(metrics_out)
    return 1 if any_failed else 0


def _cmd_datasets() -> int:
    from repro.experiments.registry import run_experiment

    print(run_experiment("table1", "small").to_text())
    return 0


def _cmd_report(scale: str, output: str) -> int:
    """Run the whole suite and write EXPERIMENTS.md-style markdown."""
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Generated by `python -m repro report`. Every table and figure of the",
        "paper's evaluation (Section VI) is regenerated on simulated data at",
        f"scale `{scale}`; 'paper' rows quote the published numbers, 'measured'",
        "tables are this run's output. We reproduce *shape* (orderings, trends,",
        "crossovers) — absolute values belong to the authors' proprietary",
        "datasets and hardware. Each experiment carries machine-checked shape",
        "checks; their outcome is recorded per experiment below.",
        "",
    ]
    any_failed = False
    for exp in all_experiments():
        start = time.perf_counter()
        result = exp.run(scale)
        elapsed = time.perf_counter() - start
        status = "PASS" if result.all_checks_pass else "FAIL"
        if not result.all_checks_pass:
            any_failed = True
        lines.append(f"## {result.title}")
        lines.append("")
        lines.append(f"*Paper artifact:* {exp.paper_reference} — *runtime:* {elapsed:.1f}s — "
                     f"*shape checks:* {status}")
        lines.append("")
        if result.notes:
            lines.append(f"> {result.notes}")
            lines.append("")
        lines.append("```")
        from repro.experiments.tables import format_table

        lines.append(format_table(result.headers, result.rows))
        lines.append("```")
        lines.append("")
        lines.append(
            "Checks: "
            + ", ".join(
                f"`{name}` {'✓' if ok else '✗'}" for name, ok in result.checks.items()
            )
        )
        lines.append("")
        print(f"[{exp.experiment_id}: {status} in {elapsed:.1f}s]")
    with open(output, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))
    print(f"wrote {output}")
    return 1 if any_failed else 0


def _cmd_simulate(
    domain: str,
    out: str,
    users: int | None,
    items: int | None,
    seed: int,
    store: bool = False,
    users_per_shard: int = 4096,
) -> int:
    import dataclasses
    import json
    from pathlib import Path

    from repro.data.io import save_catalog, save_log
    from repro import synth

    generators = {
        "synthetic": (synth.generate_synthetic, synth.SyntheticConfig),
        "language": (synth.generate_language, synth.LanguageConfig),
        "cooking": (synth.generate_cooking, synth.CookingConfig),
        "beer": (synth.generate_beer, synth.BeerConfig),
        "film": (synth.generate_film, synth.FilmConfig),
    }
    generate, config_cls = generators[domain]
    overrides: dict = {"seed": seed}
    if users is not None:
        overrides["num_users"] = users
    if items is not None:
        if not any(f.name == "num_items" for f in dataclasses.fields(config_cls)):
            print("error: this domain has no --items knob", file=sys.stderr)
            return 2
        overrides["num_items"] = items

    if store:
        if domain != "synthetic":
            print(
                "error: --store is only supported for the synthetic domain "
                "(the sized-down real domains fit in RAM as JSONL)",
                file=sys.stderr,
            )
            return 2
        prefix = Path(out)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        store_path = Path(str(prefix) + ".store")
        result = synth.generate_synthetic_store(
            config_cls(**overrides), store_path, users_per_shard=users_per_shard
        )
        save_catalog(result.catalog, Path(str(prefix) + ".catalog.jsonl"))
        Path(str(prefix) + ".schema.json").write_text(
            json.dumps(result.feature_set.to_json()), encoding="utf-8"
        )
        written = result.store
        print(
            f"wrote {written.num_users} users / {written.num_items} items / "
            f"{written.num_actions} actions to {store_path} "
            f"({written.num_shards} shards, {written.total_bytes} bytes) "
            "+ catalog/schema"
        )
        return 0

    dataset = generate(config_cls(**overrides))

    prefix = Path(out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    save_log(dataset.log, Path(str(prefix) + ".log.jsonl"))
    save_catalog(dataset.catalog, Path(str(prefix) + ".catalog.jsonl"))
    Path(str(prefix) + ".schema.json").write_text(
        json.dumps(dataset.feature_set.to_json()), encoding="utf-8"
    )
    print(
        f"wrote {dataset.log.num_users} users / {len(dataset.catalog)} items / "
        f"{dataset.log.num_actions} actions to {prefix}.{{log,catalog}}.jsonl + schema"
    )
    return 0


def _cmd_convert(data: str, store: str, users_per_shard: int) -> int:
    from pathlib import Path

    from repro.data.store import convert_log_file

    log_path = Path(data)
    if not log_path.is_file():
        candidate = Path(str(log_path) + ".log.jsonl")
        if not candidate.is_file():
            print(
                f"error: no action log at {log_path} (also tried {candidate})",
                file=sys.stderr,
            )
            return 2
        log_path = candidate
    start = time.perf_counter()
    written = convert_log_file(log_path, store, users_per_shard=users_per_shard)
    elapsed = time.perf_counter() - start
    print(
        f"converted {written.num_users} users / {written.num_actions} actions "
        f"({written.num_items} items) into {written.num_shards} shard(s) at "
        f"{store} [{written.total_bytes} bytes, {elapsed:.1f}s]"
    )
    return 0


def _cmd_fit(
    data: str,
    levels: int,
    model_out: str,
    max_iterations: int,
    init_min_actions: int,
    checkpoint_every: int = 0,
    resume: bool = False,
    workers: int = 1,
    metrics_out: str | None = None,
) -> int:
    import json
    from pathlib import Path

    from repro.core.checkpoint import CheckpointConfig, read_checkpoint
    from repro.core.features import FeatureSet
    from repro.core.parallel import ParallelConfig
    from repro.core.serialize import save_model
    from repro.core.training import fit_skill_model, resume_fit
    from repro.data.io import load_catalog, load_log
    from repro.data.store import ActionStore, is_store

    prefix = Path(data)
    # A store directory (passed directly, or sitting beside the prefix)
    # selects the out-of-core sharded trainer; catalog and schema live
    # under the prefix either way.
    if is_store(prefix):
        store_dir = prefix
        base = (
            Path(str(prefix)[: -len(".store")])
            if str(prefix).endswith(".store")
            else prefix
        )
    elif is_store(Path(str(prefix) + ".store")):
        store_dir = Path(str(prefix) + ".store")
        base = prefix
    else:
        store_dir = None
        base = prefix
    if store_dir is not None:
        if resume or checkpoint_every:
            print(
                "error: --resume/--checkpoint-every are not supported for "
                "store-backed fits (the sharded trainer keeps no mid-run "
                "checkpoints); fit from the JSONL log to use them",
                file=sys.stderr,
            )
            return 2
        training_data = ActionStore(store_dir)
        print(
            f"training out-of-core from {store_dir} "
            f"({training_data.num_users} users / "
            f"{training_data.num_actions} actions in "
            f"{training_data.num_shards} shards, workers={workers})"
        )
    else:
        training_data = load_log(Path(str(base) + ".log.jsonl"))
    catalog = load_catalog(Path(str(base) + ".catalog.jsonl"))
    feature_set = FeatureSet.from_json(
        json.loads(Path(str(base) + ".schema.json").read_text(encoding="utf-8"))
    )
    parallel = ParallelConfig(users=True, workers=workers) if workers > 1 else None
    out = Path(model_out)
    # the directory must exist before training so checkpoints can land in it
    out.parent.mkdir(parents=True, exist_ok=True)
    ckpt_path = Path(str(out) + ".ckpt.json")
    checkpoint = (
        CheckpointConfig(path=ckpt_path, every=checkpoint_every)
        if checkpoint_every
        else None
    )
    if resume:
        if not ckpt_path.exists():
            print(
                f"error: --resume requested but no checkpoint at {ckpt_path}",
                file=sys.stderr,
            )
            return 2
        state = read_checkpoint(ckpt_path)
        print(f"resuming from {ckpt_path} (iteration {state.iteration})")
        model = resume_fit(
            ckpt_path,
            training_data,
            catalog,
            feature_set,
            parallel=parallel,
            checkpoint=checkpoint,
        )
    else:
        fit_kwargs = {"parallel": parallel} if parallel is not None else {}
        model = fit_skill_model(
            training_data,
            catalog,
            feature_set,
            levels,
            max_iterations=max_iterations,
            init_min_actions=init_min_actions,
            checkpoint=checkpoint,
            **fit_kwargs,
        )
    json_path, npz_path = save_model(model, out)
    print(
        f"fitted in {model.trace.num_iterations} iterations "
        f"(converged={model.trace.converged}, logL={model.log_likelihood:.1f}); "
        f"saved {json_path} + {npz_path}"
    )
    if metrics_out:
        _write_metrics(metrics_out, telemetry=model.telemetry)
    return 0


def _cmd_score(model_path: str, prior: str, top: int, output: str | None) -> int:
    import json
    from pathlib import Path

    from repro.core.difficulty import generation_difficulty
    from repro.core.serialize import load_model

    model = load_model(model_path)
    estimates = generation_difficulty(model, prior=prior)
    ranked = sorted(estimates.items(), key=lambda kv: -kv[1])
    if output:
        path = Path(output)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for item_id, value in ranked:
                handle.write(json.dumps({"item": item_id, "difficulty": value}) + "\n")
        print(f"wrote {len(ranked)} difficulty estimates to {path}")
    shown = ranked[:top] if top else ranked
    for item_id, value in shown:
        print(f"{value:6.3f}  {item_id}")
    return 0


def _cmd_inspect_store(path: str) -> int:
    from repro.data.store import ActionStore

    store = ActionStore(path)
    report = store.verify(deep=True)
    status = "verified" if report["ok"] else "FAILED"
    print("## Action store")
    print()
    print(f"- path: {store.path}")
    print(f"- format: {store.manifest['format']}")
    print(
        f"- users: {store.num_users}  actions: {store.num_actions}  "
        f"items: {store.num_items}"
    )
    print(
        f"- shards: {store.num_shards} "
        f"(users_per_shard={store.manifest['users_per_shard']})"
    )
    print(f"- bytes: {store.total_bytes}")
    print(f"- checksums: {report['files_checked']} files deep-checked, {status}")
    for problem in report["problems"]:
        print(f"    ! {problem}")
    print()
    shards = store.manifest["shards"]
    shown = shards[:20]
    print(f"{'shard':12s} {'users':>8s} {'actions':>10s} {'bytes':>12s}")
    for entry in shown:
        shard_bytes = sum(int(f["bytes"]) for f in entry["files"].values())
        print(
            f"{entry['name']:12s} {entry['num_users']:8d} "
            f"{entry['num_actions']:10d} {shard_bytes:12d}"
        )
    if len(shards) > len(shown):
        print(f"... and {len(shards) - len(shown)} more shard(s)")
    return 0 if report["ok"] else 1


def _cmd_inspect(model_path: str, data: str | None) -> int:
    from pathlib import Path

    from repro.analysis.report import model_card
    from repro.core.serialize import artifact_metadata, load_model
    from repro.data.io import load_log
    from repro.data.store import is_store

    if is_store(Path(model_path)):
        return _cmd_inspect_store(model_path)
    meta = artifact_metadata(model_path)
    checksum = meta["npz_checksum"] or "-"
    verified = "verified" if meta["checksum_verified"] else "NOT VERIFIED"
    npz_bytes = meta["npz_bytes"] if meta["npz_bytes"] is not None else "missing"
    print("## Artifacts")
    print()
    print(f"- structure: {meta['json_path']} ({meta['json_bytes']} bytes)")
    print(f"- arrays:    {meta['npz_path']} ({npz_bytes} bytes)")
    print(f"- format version: {meta['format_version']}")
    print(f"- sha256: {checksum[:12]}… ({verified})")
    print(f"- telemetry run: {meta['telemetry_run_id'] or '-'}")
    print()
    model = load_model(model_path)
    log = load_log(Path(str(Path(data)) + ".log.jsonl")) if data else None
    print(model_card(model, log))
    return 0


def _parse_window(text: str) -> tuple[float, float] | None:
    """``LOW,HIGH`` → floats; returns None (having printed) when malformed."""
    low_text, sep, high_text = text.partition(",")
    try:
        if not sep:
            raise ValueError(text)
        return float(low_text), float(high_text)
    except ValueError:
        print(
            f"error: expected a LOW,HIGH window like -0.25,0.75, got {text!r}",
            file=sys.stderr,
        )
        return None


def _resolve_id(identifier: str, known) -> str | int:
    """CLI args arrive as strings; recover integer training ids the same
    way the serve layer and the JSONL reader do."""
    if identifier not in known:
        try:
            coerced = int(identifier)
        except ValueError:
            return identifier
        if coerced in known:
            return coerced
    return identifier


def _cmd_recommend(args) -> int:
    import json
    from pathlib import Path

    from repro.core.difficulty import generation_difficulty
    from repro.core.serialize import load_model
    from repro.recsys.ranking import rerank_recommendations
    from repro.recsys.similarity import build_similarity_index, similar_harder
    from repro.recsys.upskill import UpskillConfig, UpskillRecommender

    window = _parse_window(args.window)
    if window is None:
        return 2
    model = load_model(args.model)
    recommender = UpskillRecommender(
        model,
        generation_difficulty(model, prior="empirical"),
        UpskillConfig(
            window_low=window[0],
            window_high=window[1],
            interest_weight=args.interest_weight,
            exclude_seen=bool(args.data),
        ),
    )

    if args.similar_harder is not None:
        anchor = _resolve_id(args.similar_harder, model.encoded.index_of)
        similars = similar_harder(
            build_similarity_index(model),
            recommender.difficulty_vector,
            anchor,
            k=args.k,
            margin=args.margin,
        )
        rows = [
            {
                "item": one.item,
                "similarity": one.similarity,
                "difficulty": one.difficulty,
            }
            for one in similars
        ]
        print(f"{'similarity':>10s} {'difficulty':>10s}  item")
        for row in rows:
            print(
                f"{row['similarity']:10.4f} {row['difficulty']:10.3f}  {row['item']}"
            )
    else:
        if args.user is None:
            print(
                "error: recommend needs --user (or --similar-harder ITEM)",
                file=sys.stderr,
            )
            return 2
        user = _resolve_id(args.user, model.assignments)
        log = None
        if args.data:
            from repro.data.io import load_log

            log = load_log(Path(str(Path(args.data)) + ".log.jsonl"))
        recommendations = recommender.recommend(
            user, time=args.time, k=args.k, log=log
        )
        satisfaction = None
        if args.satisfaction:
            satisfaction = {}
            with open(args.satisfaction, encoding="utf-8") as handle:
                for line in handle:
                    if line.strip():
                        record = json.loads(line)
                        satisfaction[record["item"]] = float(record["satisfaction"])
        if args.max_jump is not None or satisfaction is not None:
            recommendations = rerank_recommendations(
                recommendations,
                level=(
                    recommender.level_of(user, args.time)
                    if args.max_jump is not None
                    else None
                ),
                max_jump=args.max_jump,
                satisfaction=satisfaction,
            )
        level = recommender.level_of(user, args.time)
        print(f"user {user!r} at level {level} (window {args.window}):")
        print(f"{'score':>8s} {'difficulty':>10s} {'interest':>9s}  item")
        rows = []
        for rec in recommendations:
            rows.append(
                {
                    "item": rec.item,
                    "score": rec.score,
                    "difficulty": rec.difficulty,
                    "challenge_fit": rec.challenge_fit,
                    "interest": rec.interest,
                }
            )
            print(
                f"{rec.score:8.4f} {rec.difficulty:10.3f} {rec.interest:9.4f}  "
                f"{rec.item}"
            )
    if args.output:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
        print(f"wrote {len(rows)} rows to {out}")
    return 0


def _parse_tenants(args) -> dict[str, str] | None:
    """``--tenant NAME=PREFIX`` flags plus the positional default model;
    returns None (having printed an error) on a malformed flag."""
    tenants = {"default": args.model}
    for entry in args.tenant or ():
        name, sep, prefix = entry.partition("=")
        if not sep or not name or not prefix:
            print(f"error: --tenant expects NAME=PREFIX, got {entry!r}", file=sys.stderr)
            return None
        if "/" in name or name in tenants:
            print(f"error: invalid or duplicate tenant name {name!r}", file=sys.stderr)
            return None
        tenants[name] = prefix
    return tenants


def _serve_config(args):
    """One ServeConfig from the serve flags (shared by the single-process
    and prefork paths so /recommend behaves identically under both);
    returns None (having printed) on a malformed window."""
    from repro.serve import ServeConfig

    window = _parse_window(args.recommend_window)
    if window is None:
        return None
    return ServeConfig(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        max_queue=args.max_queue,
        timeout_seconds=args.timeout,
        poll_seconds=args.poll_seconds,
        recommend_window_low=window[0],
        recommend_window_high=window[1],
        interest_weight=args.interest_weight,
    )


def _cmd_serve_prefork(args, tenants: dict[str, str]) -> int:
    """``repro serve --workers N``: the prefork supervisor as pid 1."""
    import signal
    import tempfile
    from pathlib import Path

    from repro.serve import PreforkConfig, PreforkSupervisor

    if args.ingest_wal:
        print(
            "error: --workers is incompatible with --ingest-wal (ingest "
            "needs a single writer; run a dedicated single-process "
            "ingest server instead)",
            file=sys.stderr,
        )
        return 2
    run_dir = Path(args.run_dir or tempfile.mkdtemp(prefix="repro-prefork-"))
    budget = (
        int(args.residency_budget_mb * 1024 * 1024)
        if args.residency_budget_mb
        else None
    )
    serve_config = _serve_config(args)
    if serve_config is None:
        return 2
    supervisor = PreforkSupervisor(
        tenants,
        PreforkConfig(
            workers=args.workers,
            run_dir=run_dir,
            poll_seconds=args.poll_seconds,
            residency_budget_bytes=budget,
        ),
        serve_config,
    )
    host, port = supervisor.start()
    names = ", ".join(sorted(tenants))
    print(
        f"serving {args.model} on http://{host}:{port} "
        f"(workers={args.workers}, tenants=[{names}], run_dir={run_dir}); "
        "Ctrl-C to stop"
    )
    # SIGTERM and Ctrl-C both drain: workers finish in-flight requests,
    # then the parent unlinks every shm generation it owns.
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: supervisor.request_stop())
    try:
        supervisor.wait_ready()
        supervisor.serve_forever()
    finally:
        supervisor.stop()
    print("shutting down")
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import gc
    from pathlib import Path

    from repro.serve import (
        FoldinConfig,
        FoldinWorker,
        SkillServer,
        WriteAheadLog,
    )
    from repro.serve.state import ModelState, TenantRegistry, TenantSpec

    tenants = _parse_tenants(args)
    if tenants is None:
        return 2
    if args.workers is not None:
        return _cmd_serve_prefork(args, tenants)

    config = _serve_config(args)
    if config is None:
        return 2
    budget = (
        int(args.residency_budget_mb * 1024 * 1024)
        if args.residency_budget_mb
        else None
    )
    registry = TenantRegistry(
        [
            TenantSpec(name, prefix=Path(prefix))
            for name, prefix in tenants.items()
        ],
        residency_budget_bytes=budget,
        poll_seconds=args.poll_seconds,
    )
    state = registry.state()

    wal = None
    foldin = None
    if args.ingest_wal:
        if not args.data:
            print(
                "error: --ingest-wal requires --data PREFIX (the log the "
                "model was fitted on, for fold-in)",
                file=sys.stderr,
            )
            return 2
        from repro.data.io import load_log

        base_log = load_log(Path(str(Path(args.data)) + ".log.jsonl"))
        wal = WriteAheadLog(args.ingest_wal)
        foldin = FoldinWorker(
            wal,
            args.model,
            base_log,
            config=FoldinConfig(
                interval_seconds=args.foldin_every,
                decay_half_life=args.decay_half_life,
                decay_stale_after=args.decay_stale_after,
            ),
        )
        foldin.bootstrap()

    async def _run() -> None:
        server = SkillServer(registry, config, wal=wal, foldin=foldin)
        host, port = await server.start()
        meta = state.current.metadata
        print(
            f"serving {args.model} on http://{host}:{port} "
            f"(users={meta['num_users']}, items={meta['num_items']}, "
            f"sha256={str(meta['npz_checksum'])[:12]}…); Ctrl-C to stop"
        )
        if wal is not None:
            print(
                f"ingest WAL at {args.ingest_wal} "
                f"(last_seq={wal.last_seq}, fold-in every {args.foldin_every}s)"
            )
        # Supervisors (systemd, k8s, CI scripts) stop services with SIGTERM,
        # and a `&`-backgrounded process in a non-interactive shell starts
        # with SIGINT *ignored* — so Ctrl-C semantics alone leave no clean
        # stop signal in exactly the environments that script this server.
        # Treat SIGTERM like Ctrl-C: drain, close the WAL, flush the span
        # sink, exit 0.
        import signal

        stopping = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, stopping.set)
        except (NotImplementedError, RuntimeError):
            pass  # non-POSIX event loop: SIGTERM keeps its default fate
        serve_task = asyncio.ensure_future(server.serve_forever())
        stop_task = asyncio.ensure_future(stopping.wait())
        try:
            done, pending = await asyncio.wait(
                {serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
            )
            for task in pending:
                task.cancel()
            if stop_task in done:
                print("shutting down (SIGTERM)")
            elif serve_task in done:
                serve_task.result()  # surface a crashed accept loop
        finally:
            serve_task.cancel()
            await server.stop()

    # The serving loop allocates tens of short-lived objects per request
    # (parsed payloads, response dicts, trace tuples); at the default
    # gen-0 threshold of 700 that is a cyclic-GC pass every ~20 requests,
    # each scanning the long-lived server/model graph's young survivors.
    # Raising the thresholds trades a little collection latency for a lot
    # of per-request overhead — the standard tuning for long-lived
    # asyncio services.
    gc.set_threshold(20_000, 50, 50)
    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        if wal is not None:
            wal.close()
    return 0


def _cmd_wal_inspect(directory: str, as_json: bool) -> int:
    import json

    from repro.serve import inspect_wal

    report = inspect_wal(directory)
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        print(f"WAL {report['directory']}: last_seq={report['last_seq']} "
              f"records={report['total_records']} segments={len(report['segments'])}")
        for segment in report["segments"]:
            if segment["status"] == "corrupt" and "error" in segment:
                print(f"  {segment['file']:20s} CORRUPT  {segment['error']}")
                continue
            seqs = (
                f"seq {segment['first_seq']}..{segment['last_seq']}"
                if segment["first_seq"] is not None
                else "no records"
            )
            torn = ""
            if segment["valid_bytes"] != segment["bytes"]:
                torn = (
                    f"  ({segment['bytes'] - segment['valid_bytes']} trailing "
                    "bytes fail checksum)"
                )
            print(
                f"  {segment['file']:20s} {segment['status']:9s} "
                f"{segment['records']:6d} records  {seqs}  "
                f"{segment['valid_bytes']}/{segment['bytes']} bytes{torn}"
            )
        watermark = report.get("watermark")
        if watermark is not None:
            print(f"  watermark (advisory): {watermark}")
        snapshot = report.get("snapshot")
        if snapshot is not None:
            print(f"  applied-events snapshot: {snapshot}")
    # Non-zero exit on real corruption so scripts can alert; a torn tail
    # is expected crash damage and exits 0.
    corrupt = any(s["status"] == "corrupt" for s in report["segments"])
    return 1 if corrupt else 0


def _cmd_trace(file: str, as_json: bool, outliers: int) -> int:
    import json

    from repro.obs.trace import load_trace_file, summarize_spans

    try:
        spans = load_trace_file(file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not spans:
        print(f"no spans in {file}")
        return 0
    summary = summarize_spans(spans, outliers=outliers)
    if as_json:
        print(json.dumps(summary, indent=2))
        return 0
    traces = summary["traces"]
    print(
        f"{summary['spans']} spans across {traces['count']} trace(s) "
        f"({traces['roots']} roots) in {file}"
    )
    print()
    print(f"{'stage':28s} {'count':>6s} {'total ms':>9s} {'mean ms':>8s} "
          f"{'p50 ms':>8s} {'p95 ms':>8s} {'max ms':>8s}")
    for name, digest in summary["stages"].items():
        print(
            f"{name:28s} {digest['count']:6d} {digest['total_ms']:9.1f} "
            f"{digest['mean_ms']:8.2f} {digest['p50_ms']:8.2f} "
            f"{digest['p95_ms']:8.2f} {digest['max_ms']:8.2f}"
        )
    if summary["critical_path"]:
        print()
        print("critical path (slowest root, most expensive child at each level):")
        for depth, node in enumerate(summary["critical_path"]):
            print(
                f"  {'  ' * depth}{node['name']}  {node['ms']:.2f}ms "
                f"(self {node['self_ms']:.2f}ms)  trace={node['trace']}"
            )
    if summary["outliers"]:
        print()
        print("p95 outliers (slowest roots):")
        for row in summary["outliers"]:
            print(f"  {row['ms']:8.2f}ms  {row['name']:24s} trace={row['trace']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            _configure_obs(args.log_level, args.log_json, args.trace_out)
            try:
                return _cmd_run(
                    args.experiment, args.scale, metrics_out=args.metrics_out
                )
            finally:
                _finish_tracing(args.trace_out)
        if args.command == "datasets":
            return _cmd_datasets()
        if args.command == "report":
            return _cmd_report(args.scale, args.output)
        if args.command == "simulate":
            return _cmd_simulate(
                args.domain,
                args.out,
                args.users,
                args.items,
                args.seed,
                store=args.store,
                users_per_shard=args.users_per_shard,
            )
        if args.command == "convert":
            return _cmd_convert(args.data, args.store, args.users_per_shard)
        if args.command == "fit":
            _configure_obs(args.log_level, args.log_json, args.trace_out)
            try:
                return _cmd_fit(
                    args.data,
                    args.levels,
                    args.model,
                    args.max_iterations,
                    args.init_min_actions,
                    checkpoint_every=args.checkpoint_every,
                    resume=args.resume,
                    workers=args.workers,
                    metrics_out=args.metrics_out,
                )
            finally:
                _finish_tracing(args.trace_out)
        if args.command == "score":
            return _cmd_score(args.model, args.prior, args.top, args.output)
        if args.command == "recommend":
            return _cmd_recommend(args)
        if args.command == "inspect":
            return _cmd_inspect(args.model, args.data)
        if args.command == "serve":
            _configure_obs(
                args.log_level, args.log_json, args.trace_out, args.trace_sample
            )
            try:
                return _cmd_serve(args)
            finally:
                _finish_tracing(args.trace_out)
        if args.command == "wal":
            return _cmd_wal_inspect(args.directory, args.json)
        if args.command == "trace":
            return _cmd_trace(args.file, args.json, args.outliers)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
