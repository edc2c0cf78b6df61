"""Fit workload: cold ``repro fit`` subprocesses on the log and the store path.

Set-up simulates a synthetic corpus as a JSONL log and converts it into a
columnar store beside a copy of the catalog and schema.  The measured
window then runs *ops* until it is spent: an op is one cold fit of the
log followed by one of the store, each in a fresh subprocess, so every
op trains through both entry points and checks them against each other
(bit-identical log-likelihood traces and assignments).

Each fit's wall time is taken around the subprocess and its CPU time
comes from ``os.wait4``.  Its peak resident set comes from the fit
process itself, through ``bench/launch.py``'s report.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

import common
import ledger
import loadgen
from common import BenchError

USERS = 2000
ITEMS = 5000
USERS_PER_SHARD = 512
FIT_ARGS = ("--levels", "5", "--max-iterations", "10")
#: Fewest ops a run measures, however short its window.
MIN_OPS = 2
#: Fit paths in the order an op runs them.
PATHS = ("log", "store")


@dataclass
class Fit:
    """One cold fit subprocess."""

    path: str
    wall: float
    cpu: float
    max_rss_mb: float
    model: Path
    spans: list
    counters: dict


def _setup(seed: int, root: Path) -> dict[str, Path]:
    """Simulate the corpus and convert it; returns the data path per fit path."""
    log_prefix = root / "log" / "corpus"
    store_base = root / "store" / "corpus"
    common.run_cli(
        [
            "simulate", "synthetic", "--out", log_prefix, "--users", USERS,
            "--items", ITEMS, "--seed", seed,
        ]
    )
    # The store sits beside its own copy of catalog and schema, so the log
    # prefix has no sibling store and `repro fit` keeps it on the log path.
    store_base.parent.mkdir(parents=True, exist_ok=True)
    for suffix in (".catalog.jsonl", ".schema.json"):
        shutil.copyfile(f"{log_prefix}{suffix}", f"{store_base}{suffix}")
    store = Path(f"{store_base}.store")
    common.run_cli(
        ["convert", log_prefix, store, "--users-per-shard", USERS_PER_SHARD]
    )
    return {"log": log_prefix, "store": store}


def _fit(data: Path, model: Path, path: str, trace: bool) -> Fit:
    """One cold fit, started through the launcher so that the process
    reports its own peak resident set (and, traced, its spans)."""
    report = model.with_suffix(".report.json")
    argv = common.repro_argv(
        ["fit", data, "--model", model, *FIT_ARGS],
        report=report,
        layers="fit" if trace else None,
    )
    errors = model.with_suffix(".err")
    with open(errors, "w", encoding="utf-8") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=common.ROOT, env=common.child_env(),
            stdout=subprocess.DEVNULL, stderr=stderr,
        )
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(
            f"repro fit on the {path} path exited {proc.returncode}: "
            f"{errors.read_text(encoding='utf-8').strip()[-2000:]}"
        )
    spans, counters, peak_rss_mb = ledger.load(report)
    return Fit(
        path=path,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        max_rss_mb=peak_rss_mb,
        model=model,
        spans=spans,
        counters=counters,
    )


def run(
    name: str, seed: int, seconds: float, *, trace: bool, setups: int, work: Path
) -> common.Result:
    """One fit workload run: set-up, measured ops, parity gates, metrics."""
    common.import_repro()
    from repro.core.serialize import artifact_metadata, load_model

    setup_times = []
    for attempt in range(setups):
        start = time.perf_counter()
        data = _setup(seed, work / f"setup{attempt}")
        setup_times.append(time.perf_counter() - start)

    models = work / "models"
    models.mkdir(parents=True, exist_ok=True)
    ops: list[tuple[Fit, ...]] = []
    calibration = [common.host_calibration_ms()]
    window_start = time.perf_counter()
    while len(ops) < MIN_OPS or (
        time.perf_counter() - window_start + sum(fit.wall for fit in ops[-1]) <= seconds
    ):
        ops.append(
            tuple(
                _fit(data[path], models / f"op{len(ops)}-{path}", path, trace)
                for path in PATHS
            )
        )
    calibration.append(common.host_calibration_ms())

    problems: list[str] = []
    fits = [fit for op in ops for fit in op]
    for path in PATHS:
        checksums = {
            artifact_metadata(fit.model)["npz_checksum"] for fit in fits if fit.path == path
        }
        if len(checksums) != 1:
            problems.append(f"repeated {path} fits wrote {len(checksums)} different models")
    reference, other = (load_model(fit.model) for fit in ops[0])
    if reference.trace.log_likelihoods != other.trace.log_likelihoods or not (
        common.same_assignments(reference, other)
    ):
        problems.append("log and store fits differ in LL trace or assignments")

    walls = [sum(fit.wall for fit in op) * 1000.0 for op in ops]
    e2e = {
        "setup_s": loadgen.median(setup_times),
        "latency_p50_ms": loadgen.median(walls),
        "latency_tail_ms": loadgen.tail(walls)[0],
        "cpu_ms_per_op": loadgen.median(sum(fit.cpu for fit in op) * 1000.0 for op in ops),
        # An op's peak is the larger of its two fits' peaks: the memory a
        # host needs to run either entry point.
        "peak_rss_mb": loadgen.median(max(fit.max_rss_mb for fit in op) for op in ops),
    }
    walls_by_path = {
        path: ", ".join(f"{fit.wall:.3f}" for fit in fits if fit.path == path)
        for path in PATHS
    }
    notes = [
        f"ops={len(ops)} iterations={reference.trace.num_iterations} "
        f"log_walls_s={walls_by_path['log']} store_walls_s={walls_by_path['store']} "
        f"host_calibration_ms={calibration[0]:.1f}/{calibration[1]:.1f}"
    ]
    layers: dict[str, float] = {}
    for path in PATHS:
        own = [fit for fit in fits if fit.path == path]
        layers[f"fit.{path}.wall_s_p50"] = loadgen.median(fit.wall for fit in own)
        layers[f"fit.{path}.peak_rss_mb"] = loadgen.median(fit.max_rss_mb for fit in own)
    if trace:
        for layer in ledger.missing_layers(
            [s for fit in fits for s in fit.spans], ledger.FIT_LAYERS
        ):
            problems.append(f"wrapped layer {layer} never fired")
        layers.update(ledger.fit_layers(fits))
        manifest = json.loads((data["store"] / "manifest.json").read_text(encoding="utf-8"))
        layers["data.store.shards"] = float(len(manifest["shards"]))
        layers["fit.iterations"] = float(reference.trace.num_iterations)
    return common.Result(e2e, layers, len(fits), 0, problems, notes)
