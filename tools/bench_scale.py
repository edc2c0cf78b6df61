#!/usr/bin/env python
"""Benchmark out-of-core sharded training and write ``BENCH_scale.json``.

Two questions, answered with one grid (users × workers):

- **Does it scale?**  Each point generates a synthetic corpus straight
  into a columnar store (``repro.synth.generate_synthetic_store``; the
  corpus never exists in RAM), then fits it one shard at a time
  (``repro.core.training.Trainer`` over the ``ActionStore``) for a fixed
  number of iterations, reporting wall time, E-step throughput (events/s = actions
  × iterations / fit seconds), and **peak RSS**.  The headline point is
  1M users / ~100M actions: peak RSS must stay far below the corpus
  size, because shards are loaded one at a time and reduced to integer
  count matrices.
- **Is it still exact?**  A parity block fits one small corpus three
  ways — in-RAM trainer, sharded serial, sharded pooled — and asserts
  the LL traces and final assignments are bit-identical before any
  number is reported.  Sharding is a memory/throughput lever, never a
  semantic one.

Every grid point runs in its own subprocess (``--run-point`` is the
internal worker mode) so ``ru_maxrss`` — a process-lifetime high-water
mark — measures that point alone, not the largest point run so far.

Run from the repo root::

    PYTHONPATH=src python tools/bench_scale.py            # full grid, ~5 min
    PYTHONPATH=src python tools/bench_scale.py --tiny     # CI smoke, seconds

Numbers are environment-dependent; the committed ``BENCH_scale.json``
records the machine it was measured on.  CI runs ``--tiny`` and asserts
parity plus sanity floors, not absolute throughput.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

# The big grid points only assert the RSS-vs-corpus ratio once the corpus
# dwarfs the interpreter's ~100MB baseline footprint.
RSS_ASSERT_MIN_CORPUS = 200 * 1024 * 1024

FULL_POINTS = [
    # users, mean sequence length, workers, iterations
    (10_000, 100.0, 1, 3),
    (10_000, 100.0, 2, 3),
    (100_000, 100.0, 1, 3),
    (100_000, 100.0, 2, 3),
    (1_000_000, 100.0, 1, 3),  # the ≥100M-action headline point
]

TINY_POINTS = [
    (1_000, 20.0, 1, 2),
    (1_000, 20.0, 2, 2),
]


def _run_point(spec: dict) -> int:
    """Worker mode: one grid point in a fresh process, JSON on stdout."""
    from repro.core.training import Trainer, TrainerConfig
    from repro.obs.resource import peak_rss_bytes
    from repro.synth import SyntheticConfig, generate_synthetic_store

    config = SyntheticConfig(
        num_users=spec["users"],
        num_items=spec["items"],
        num_levels=spec["levels"],
        mean_sequence_length=spec["mean_sequence_length"],
        seed=spec["seed"],
    )
    store_path = Path(spec["dir"]) / "corpus.store"
    t0 = time.perf_counter()
    generated = generate_synthetic_store(
        config, store_path, users_per_shard=spec["users_per_shard"]
    )
    generate_seconds = time.perf_counter() - t0
    store = generated.store

    trainer_config = TrainerConfig(
        num_levels=spec["levels"],
        max_iterations=spec["iterations"],
        init_min_actions=spec["init_min_actions"],
    )
    if spec["workers"] > 1:
        from repro.core.parallel import ParallelConfig

        trainer_config = TrainerConfig(
            num_levels=spec["levels"],
            max_iterations=spec["iterations"],
            init_min_actions=spec["init_min_actions"],
            parallel=ParallelConfig(users=True, workers=spec["workers"]),
        )
    t1 = time.perf_counter()
    result = Trainer(trainer_config).fit(
        store, generated.catalog, generated.feature_set, materialize=False
    )
    fit_seconds = time.perf_counter() - t1

    iterations = result.trace.num_iterations
    corpus_bytes = store.total_bytes
    peak_rss = peak_rss_bytes()
    point = {
        "users": store.num_users,
        "actions": store.num_actions,
        "mean_sequence_length": spec["mean_sequence_length"],
        "workers": spec["workers"],
        "shards": store.num_shards,
        "users_per_shard": spec["users_per_shard"],
        "corpus_bytes": corpus_bytes,
        "generate_seconds": round(generate_seconds, 2),
        "fit_seconds": round(fit_seconds, 2),
        "iterations": iterations,
        "events_per_sec": round(store.num_actions * iterations / fit_seconds),
        "peak_rss_bytes": int(peak_rss),
        "rss_to_corpus": round(peak_rss / corpus_bytes, 3),
    }
    print(json.dumps(point))
    return 0


def _launch_point(spec: dict) -> dict:
    """Run one point via a subprocess so its peak RSS is its own."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--run-point", json.dumps(spec)],
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"grid point {spec['users']} users / {spec['workers']} workers "
            f"failed:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _parity_block(tmp_dir: Path) -> dict:
    """Small-corpus exactness check: in-RAM == sharded serial == pooled."""
    from repro.core.parallel import ParallelConfig
    from repro.core.training import Trainer, TrainerConfig
    from repro.data.store import ActionStore
    from repro.synth import SyntheticConfig, generate_synthetic

    dataset = generate_synthetic(
        SyntheticConfig(
            num_users=120, num_items=300, num_levels=4,
            mean_sequence_length=25.0, seed=17,
        )
    )
    store = ActionStore.from_log(
        dataset.log, tmp_dir / "parity.store", users_per_shard=16
    )
    kwargs = dict(num_levels=4, max_iterations=10, init_min_actions=20)
    ram = Trainer(TrainerConfig(**kwargs)).fit(
        dataset.log, dataset.catalog, dataset.feature_set
    )
    serial = Trainer(TrainerConfig(**kwargs)).fit(
        store, dataset.catalog, dataset.feature_set
    )
    pooled = Trainer(
        TrainerConfig(
            **kwargs, parallel=ParallelConfig(users=True, workers=2)
        )
    ).fit(store, dataset.catalog, dataset.feature_set)

    def identical(a, b) -> bool:
        if a.trace.log_likelihoods != b.trace.log_likelihoods:
            return False
        return all(
            np.array_equal(a.assignments[u], b.assignments[u])
            for u in a.assignments
        )

    serial_ok = identical(ram, serial)
    pooled_ok = identical(ram, pooled)
    assert serial_ok, "sharded serial fit diverged from the in-RAM trainer"
    assert pooled_ok, "sharded pooled fit diverged from the in-RAM trainer"
    return {
        "users": dataset.log.num_users,
        "shards": store.num_shards,
        "iterations": ram.trace.num_iterations,
        "ll_trace_identical": serial_ok,
        "assignments_identical": serial_ok,
        "pooled_identical": pooled_ok,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny", action="store_true",
        help="CI smoke: two small points plus the parity block",
    )
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_scale.json"))
    parser.add_argument(
        "--work-dir", default=None,
        help="where the per-point store directories are written "
        "(default: a fresh temp dir, deleted afterwards)",
    )
    parser.add_argument("--run-point", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.run_point is not None:
        return _run_point(json.loads(args.run_point))

    grid = TINY_POINTS if args.tiny else FULL_POINTS
    with tempfile.TemporaryDirectory(
        prefix="repro-bench-scale-", dir=args.work_dir
    ) as tmp:
        tmp_dir = Path(tmp)
        print("parity: fitting one corpus in-RAM, sharded serial, and pooled...")
        parity = _parity_block(tmp_dir)
        print(
            f"parity: bit-identical over {parity['iterations']} iterations "
            f"({parity['users']} users, {parity['shards']} shards, pooled included)"
        )

        points = []
        for users, mean_length, workers, iterations in grid:
            spec = {
                "users": users,
                "mean_sequence_length": mean_length,
                "workers": workers,
                "iterations": iterations,
                "items": 5_000,
                "levels": 5,
                "users_per_shard": 4_096,
                "init_min_actions": 20,
                "seed": 1,
            }
            point_dir = tmp_dir / f"point-{users}-{workers}"
            point_dir.mkdir()
            spec["dir"] = str(point_dir)
            print(f"point: {users:,} users × {workers} worker(s)...", flush=True)
            point = _launch_point(spec)
            points.append(point)
            print(
                f"  {point['actions']:,} actions in {point['shards']} shards "
                f"({point['corpus_bytes'] / 1e6:.0f}MB) — gen "
                f"{point['generate_seconds']}s, fit {point['fit_seconds']}s, "
                f"{point['events_per_sec']:,} events/s, peak RSS "
                f"{point['peak_rss_bytes'] / 1e6:.0f}MB "
                f"({point['rss_to_corpus']:.2f}× corpus)"
            )
            # Free the point's store before the next one lands.
            for child in sorted(point_dir.rglob("*"), reverse=True):
                child.unlink() if child.is_file() else child.rmdir()

    for point in points:
        assert point["events_per_sec"] > 0
        assert point["iterations"] >= 1
        if point["corpus_bytes"] >= RSS_ASSERT_MIN_CORPUS:
            assert point["rss_to_corpus"] < 0.5, (
                "out-of-core training must keep peak RSS far below the "
                f"corpus: {point['rss_to_corpus']:.2f}× at "
                f"{point['users']:,} users"
            )

    payload = {
        "schema": "repro-bench-scale/1",
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
        "grid": {"tiny": args.tiny, "points": len(points)},
        "parity": parity,
        "points": points,
    }
    Path(args.out).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    headline = max(points, key=lambda p: p["actions"])
    print(
        f"headline: {headline['users']:,} users / {headline['actions']:,} "
        f"actions → {headline['events_per_sec']:,} events/s at "
        f"{headline['peak_rss_bytes'] / 1e6:.0f}MB peak RSS "
        f"({headline['rss_to_corpus']:.2f}× the {headline['corpus_bytes'] / 1e6:.0f}MB corpus)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
