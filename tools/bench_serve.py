#!/usr/bin/env python
"""Benchmark the serving subsystem and write ``BENCH_serve.json``.

One measurement, the one the serving layer exists for: a closed-loop load
generator (``--concurrency`` client threads, each with a persistent
``http.client`` connection, each issuing its share of a fixed workload of
``/predict``, ``/difficulty``, and ``/recommend`` requests) against the
same in-process
:class:`~repro.serve.server.SkillServer` in two modes:

- **sequential** — ``max_batch=1``: every request takes its own
  ``predict_items`` / ``difficulty_array`` kernel call, through the same
  batcher code path (every flush is size 1);
- **batched** — ``max_batch=64``, ``max_wait_ms=2``: concurrent requests
  coalesce into shared kernel calls.

Both modes answer the *identical* workload; the script asserts every
response body is **byte-identical** across modes before reporting numbers
(batching is a throughput/latency lever, never a semantic one — JSON float
repr is shortest-round-trip, so byte equality means bit equality).

A dedicated ``recommend`` section repeats the two-mode comparison over a
``/recommend``-only workload (upskill queries plus ``similar_harder``
gathers), with its own byte-parity assert — the recommendation batch
kernel shares one score evaluation per distinct level, and that sharing
must be invisible in the bytes.

A third section measures tracing overhead: three warm ``repro serve``
server *subprocesses* — untraced, traced at the default head-sampling
rate, and traced at full detail (JSONL sink included in both) — answer
the same batched workload in ~1s slices whose order rotates every
round, and each arm's reported overhead is the median of its per-round
throughput ratios against the untraced slice.  Out-of-process, so the
load generator's GIL does not tax the serving loop and the delta is
the server-side tracing cost as deployed; time-adjacent rotated
rounds, so shared-runner throughput drift cancels out of each ratio
instead of masquerading as overhead.  The full bench asserts the
default configuration's overhead < 5% throughput, so the
``--trace-out`` lever stays safe to reach for in production; the
full-detail (``--trace-sample 1.0``) cost is reported unasserted.

A fourth section sweeps prefork core-scaling: real ``repro serve
--workers N`` subprocess trees (N in {1, 2, 4}; {1, 2} under
``--quick``) answer the same workload, with a byte-parity assert per
point against the in-process batched reference, per-worker ``smaps``
Pss samples proving the N workers map **one** physical model copy, and
a >=2.5x workers=4 throughput floor that is asserted only on hosts
with >=4 usable cores (recorded as ``checked``/``reason`` otherwise —
a fleet cannot out-scale its scheduler).

Run from the repo root::

    PYTHONPATH=src python tools/bench_serve.py

Numbers are environment-dependent; the committed ``BENCH_serve.json``
records the machine it was measured on.  CI runs ``--quick`` and asserts
only parity plus sanity floors, not speedups.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.serialize import save_model
from repro.core.training import fit_skill_model
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.trace import Tracer, set_tracer
from repro.serve import (
    FoldinConfig,
    FoldinWorker,
    ModelState,
    ServeConfig,
    ServerThread,
    SkillServer,
    WriteAheadLog,
)
from repro.synth import CookingConfig, generate_cooking

PRIORS = ("uniform", "empirical")

HEALTHZ_TIMEOUT_SECONDS = 30.0


def _wait_for_healthz(host: str, port: int, timeout: float = HEALTHZ_TIMEOUT_SECONDS):
    """Poll ``/healthz`` until the server answers 200, with a hard deadline.

    ``ServerThread.start`` returning only means the socket is bound; this
    proves the model actually loaded and the request path works before any
    timed measurement begins.  Raises ``RuntimeError`` naming the address
    and the last failure instead of letting the first measured request eat
    an unbounded connect/500 stall.
    """
    deadline = time.perf_counter() + timeout
    last_error: str = "no response"
    while time.perf_counter() < deadline:
        try:
            conn = http.client.HTTPConnection(host, port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return
                last_error = f"HTTP {response.status}"
            finally:
                conn.close()
        except OSError as exc:
            last_error = str(exc)
        time.sleep(0.05)
    raise RuntimeError(
        f"server at {host}:{port} not healthy within {timeout:.0f}s "
        f"(last error: {last_error}); the bench cannot start"
    )


def _build_model(prefix: Path, *, users: int, quick: bool) -> tuple[dict, object]:
    """Fit a model big enough that per-request kernel cost is non-trivial."""
    dataset = generate_cooking(CookingConfig(num_users=users, seed=7))
    model = fit_skill_model(
        dataset.log,
        dataset.catalog,
        dataset.feature_set,
        num_levels=4,
        max_iterations=2 if quick else 6,
        init_min_actions=10,
    )
    save_model(model, prefix)
    structure = json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8"))
    info = {
        "users": structure["users"],
        "items": structure["item_ids"],
        "num_actions": dataset.log.num_actions,
    }
    return info, dataset.log


def _workload(info: dict, num_requests: int) -> list[tuple[str, bytes]]:
    """A deterministic request list: (path, body) pairs, predict-heavy.

    Every read endpoint the batcher serves is represented — /predict,
    /difficulty, and both /recommend modes — so the parity asserts (and
    the prefork sweep's shared-memory residency check) cover the
    recommendation path with the same workload as everything else.
    """
    users = info["users"]
    items = info["items"]
    requests: list[tuple[str, bytes]] = []
    for r in range(num_requests):
        if r % 3 == 2:
            if (r // 3) % 2:
                if (r // 6) % 2:
                    body = {
                        "mode": "similar_harder",
                        "item": items[(r * 5) % len(items)],
                        "k": 8,
                        "margin": 0.0,
                    }
                else:
                    body = {
                        "user": users[(r * 3) % len(users)],
                        "k": 8,
                        "exclude": [items[(r * 7) % len(items)]],
                    }
                requests.append(("/recommend", json.dumps(body).encode("utf-8")))
                continue
            batch = [items[(r * 13 + j * 7) % len(items)] for j in range(8)]
            body = {"items": batch, "prior": PRIORS[r % 2]}
            requests.append(("/difficulty", json.dumps(body).encode("utf-8")))
        else:
            body = {
                "user": users[r % len(users)],
                "time": float(5 + r % 40),
                "k": 10,
                "item": items[(r * 11) % len(items)],
            }
            requests.append(("/predict", json.dumps(body).encode("utf-8")))
    return requests


def _recommend_workload(info: dict, num_requests: int) -> list[tuple[str, bytes]]:
    """A /recommend-only request list for the dedicated recommend section.

    Mostly upskill queries (the level-dedup path the batcher amortizes)
    with a similar_harder gather every fourth request, over varied users,
    exclude lists, and margins — enough shape diversity that byte parity
    across dispatch modes exercises every branch of the batch kernel.
    """
    users = info["users"]
    items = info["items"]
    requests: list[tuple[str, bytes]] = []
    for r in range(num_requests):
        if r % 4 == 3:
            body = {
                "mode": "similar_harder",
                "item": items[(r * 5) % len(items)],
                "k": 8,
                "margin": 0.1 * (r % 3),
            }
        else:
            body = {
                "user": users[(r * 3) % len(users)],
                "k": 10,
                "exclude": [
                    items[(r * 7 + j) % len(items)] for j in range(r % 3)
                ],
            }
        requests.append(("/recommend", json.dumps(body).encode("utf-8")))
    return requests


def _drive_workload(
    host: str, port: int, workload: list[tuple[str, bytes]], concurrency: int
) -> tuple[list[bytes | None], list[float], int, float]:
    """Fire the workload from ``concurrency`` client threads.

    Returns (bodies, per-request latencies, error count, wall seconds).
    """
    bodies: list[bytes | None] = [None] * len(workload)
    latencies: list[float] = [0.0] * len(workload)
    errors = [0]
    lock = threading.Lock()
    barrier = threading.Barrier(concurrency + 1)

    def client(worker: int) -> None:
        conn = http.client.HTTPConnection(host, port, timeout=120)
        barrier.wait()
        for index in range(worker, len(workload), concurrency):
            path, payload = workload[index]
            start = time.perf_counter()
            conn.request("POST", path, payload, {"Content-Type": "application/json"})
            response = conn.getresponse()
            body = response.read()
            latencies[index] = time.perf_counter() - start
            if response.status != 200:
                with lock:
                    errors[0] += 1
            bodies[index] = body
        conn.close()

    threads = [
        threading.Thread(target=client, args=(worker,), daemon=True)
        for worker in range(concurrency)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    wall_start = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - wall_start
    return bodies, latencies, errors[0], wall


def _count_spans(trace_out: Path | None) -> int:
    # Count spans from the sink file, not Tracer.export(): the in-memory
    # ring is bounded and undercounts runs larger than its capacity.
    if trace_out is None:
        return 0
    with open(trace_out, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def _stats(
    *,
    max_batch: int,
    spans: int,
    wall: float,
    workload_size: int,
    latencies: list[float],
    errors: int,
    bodies: list[bytes | None],
    mean_batch_size: float | None = None,
    flushes: float | None = None,
) -> dict:
    ordered = sorted(latencies)
    return {
        "max_batch": max_batch,
        "spans": spans,
        "wall_seconds": wall,
        "throughput_rps": workload_size / wall,
        "p50_ms": 1000.0 * statistics.median(ordered),
        "p95_ms": 1000.0 * ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))],
        "mean_ms": 1000.0 * statistics.fmean(ordered),
        "mean_batch_size": mean_batch_size,
        "flushes": flushes,
        "errors": errors,
        "bodies": bodies,
    }


def _run_mode(
    prefix: Path,
    workload: list[tuple[str, bytes]],
    *,
    max_batch: int,
    concurrency: int,
    trace_out: Path | None = None,
) -> dict:
    """Serve the whole workload once in-process; returns stats + bodies.

    ``trace_out`` turns span tracing on for the run; otherwise the run
    uses the disabled default tracer, exactly like an untraced
    production server.
    """
    registry = MetricsRegistry()
    set_registry(registry)
    tracer = Tracer(enabled=trace_out is not None, out=trace_out)
    set_tracer(tracer)
    state = ModelState(prefix)
    server = SkillServer(
        state,
        ServeConfig(port=0, max_batch=max_batch, max_wait_ms=2.0, max_queue=4096,
                    timeout_seconds=60.0),
    )
    thread = ServerThread(server)
    host, port = thread.start()
    _wait_for_healthz(host, port)
    bodies, latencies, errors, wall = _drive_workload(
        host, port, workload, concurrency
    )
    thread.stop()
    tracer.close()
    set_tracer(Tracer())  # back to the disabled default for later runs

    batch_hist = registry.snapshot()["histograms"].get("serve.batch_size", {})
    return _stats(
        max_batch=max_batch,
        spans=_count_spans(trace_out),
        wall=wall,
        workload_size=len(workload),
        latencies=latencies,
        errors=errors,
        bodies=bodies,
        mean_batch_size=batch_hist.get("mean"),
        flushes=batch_hist.get("count"),
    )


class _ServeSubprocess:
    """A ``repro serve`` server in its own process.

    Used for the tracing-overhead measurement: with the server
    out-of-process (as in any real deployment) the workload delta
    reflects server-side tracing cost, not GIL contention between the
    in-process load generator threads and the serving event loop — which
    amplifies every microsecond of loop-thread work several-fold and
    would gate the budget on an artifact of this harness.
    """

    def __init__(
        self,
        prefix: Path,
        *,
        max_batch: int,
        trace_out: Path | None = None,
        trace_sample: float | None = None,
        workers: int | None = None,
        run_dir: Path | None = None,
    ) -> None:
        self.trace_out = trace_out
        argv = [
            sys.executable, "-u", "-m", "repro.cli", "serve", str(prefix),
            "--host", "127.0.0.1", "--port", "0",
            "--max-batch", str(max_batch), "--max-wait-ms", "2",
            "--max-queue", "4096", "--timeout", "60",
            "--log-level", "WARNING",
        ]
        if trace_out is not None:
            argv += ["--trace-out", str(trace_out)]
        if trace_sample is not None:
            argv += ["--trace-sample", str(trace_sample)]
        if workers is not None:
            argv += ["--workers", str(workers)]
        if run_dir is not None:
            argv += ["--run-dir", str(run_dir)]
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        self._proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env,
        )
        match = None
        assert self._proc.stdout is not None
        for line in self._proc.stdout:
            match = re.search(r"on http://([\d.]+):(\d+)", line)
            if match:
                break
        if match is None:
            raise RuntimeError("serve subprocess exited before binding a port")
        self.host, self.port = match.group(1), int(match.group(2))
        _wait_for_healthz(self.host, self.port)

    def drive(self, workload: list[tuple[str, bytes]], concurrency: int):
        return _drive_workload(self.host, self.port, workload, concurrency)

    def stop(self) -> None:
        # SIGINT, not SIGTERM: the CLI's KeyboardInterrupt path flushes
        # and closes the span sink before exiting.
        self._proc.send_signal(signal.SIGINT)
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - hung server
            self._proc.kill()
            self._proc.wait()


def _segment_residency(pid: int, segment_names: set[str]) -> dict[str, dict]:
    """Per-segment Rss/Pss for one worker, from ``/proc/<pid>/smaps``.

    Proportional set size is the sharing proof: a segment mapped by N
    workers charges each ~size/N of Pss, while Rss reports the full
    mapping in every worker.  Returns ``{segment_name: {rss_kb, pss_kb}}``.
    """
    found: dict[str, dict] = {}
    current: str | None = None
    try:
        with open(f"/proc/{pid}/smaps", encoding="utf-8") as handle:
            for line in handle:
                # Mapping headers start with the hex address range; the
                # Key: value lines that follow belong to that mapping.
                if line[:1] in "0123456789abcdef" and "-" in line.split(" ", 1)[0]:
                    name = line.rsplit("/", 1)[-1].strip() if "/dev/shm/" in line else ""
                    current = name if name in segment_names else None
                elif current is not None:
                    # A worker can map a segment twice (its own attach plus
                    # the fork-inherited parent mapping); sum across them.
                    if line.startswith("Rss:"):
                        entry = found.setdefault(current, {})
                        entry["rss_kb"] = entry.get("rss_kb", 0) + int(line.split()[1])
                    elif line.startswith("Pss:"):
                        entry = found.setdefault(current, {})
                        entry["pss_kb"] = entry.get("pss_kb", 0) + int(line.split()[1])
    except OSError:
        pass  # non-linux /proc or worker exited between samples
    return found


def _bench_prefork(
    prefix: Path,
    workload: list[tuple[str, bytes]],
    reference_bodies: list[bytes | None],
    tmp: Path,
    *,
    concurrency: int,
    quick: bool,
) -> dict:
    """Core-scaling: the same batched workload against ``--workers N``.

    Each point boots a real ``repro serve --workers N`` subprocess tree,
    asserts byte-parity against the in-process batched reference, and
    samples per-worker smaps residency of the shared model segment.  The
    >=2.5x scaling floor is only *checked* when the host actually has
    >=4 usable cores — prefork cannot out-schedule the scheduler — and
    the result records whether it was.
    """
    points = [1, 2] if quick else [1, 2, 4]
    if quick:
        print("prefork: --quick caps the worker sweep at {1, 2} (not {1, 2, 4})")
    cores = len(os.sched_getaffinity(0))
    results: list[dict] = []
    for n in points:
        run_dir = tmp / f"prefork-w{n}"
        server = _ServeSubprocess(prefix, max_batch=64, workers=n, run_dir=run_dir)
        try:
            # Warm every worker's first-request path before timing.
            server.drive(workload[: max(64, len(workload) // 8)], concurrency)
            bodies, latencies, errors, wall = server.drive(workload, concurrency)
            assert errors == 0, f"workers={n}: {errors} HTTP errors"
            mismatches = sum(
                1 for a, b in zip(reference_bodies, bodies) if a != b
            )
            assert mismatches == 0, (
                f"workers={n}: {mismatches} responses differ from the "
                f"single-process batched reference"
            )
            worker_pids = []
            for reg_path in sorted((run_dir / "workers").glob("*.json")):
                try:
                    worker_pids.append(json.loads(reg_path.read_text())["pid"])
                except (OSError, ValueError, KeyError):
                    continue
            assert len(worker_pids) == n, (
                f"workers={n}: only {len(worker_pids)} registered"
            )
            segments = {
                name: os.path.getsize(f"/dev/shm/{name}")
                for name in os.listdir("/dev/shm")
                if name.startswith(f"repro_scores_model_{server._proc.pid}_")
            } if os.path.isdir("/dev/shm") else {}
            residency = {
                pid: _segment_residency(pid, set(segments)) for pid in worker_pids
            }
            stats = _stats(
                max_batch=64, spans=0, wall=wall, workload_size=len(workload),
                latencies=latencies, errors=errors, bodies=bodies,
            )
            stats.pop("bodies")
            point = {
                "workers": n,
                **{k: stats[k] for k in
                   ("wall_seconds", "throughput_rps", "p50_ms", "p95_ms",
                    "mean_ms", "errors")},
                "parity_mismatches": 0,
                "shm_segments": [
                    {
                        "name": name,
                        "size_bytes": size,
                        "per_worker": [
                            {"pid": pid, **residency[pid].get(name, {})}
                            for pid in worker_pids
                        ],
                    }
                    for name, size in sorted(segments.items())
                ],
            }
        finally:
            server.stop()
        results.append(point)
        shared = ""
        if point["shm_segments"]:
            seg = point["shm_segments"][0]
            pss = [w.get("pss_kb") for w in seg["per_worker"] if "pss_kb" in w]
            if pss:
                shared = (
                    f" shm {seg['size_bytes'] / 1024:.0f}kB, per-worker "
                    f"pss {'/'.join(str(p) for p in pss)}kB"
                )
        print(
            f"workers={n}  p50={point['p50_ms']:7.2f}ms "
            f"throughput={point['throughput_rps']:7.1f} req/s{shared}"
        )
    # One physical copy: with N workers mapping one segment, each
    # worker's proportional share is ~size/N, so the per-worker Pss sum
    # stays ~one segment size instead of N copies.  Checked for the
    # largest fleet where /proc gave us numbers.
    for point in reversed(results):
        if point["workers"] < 2 or not point["shm_segments"]:
            continue
        seg = point["shm_segments"][0]
        pss_kb = [w["pss_kb"] for w in seg["per_worker"] if "pss_kb" in w]
        if len(pss_kb) == point["workers"]:
            assert sum(pss_kb) * 1024 < 1.5 * seg["size_bytes"] + 1024 * len(pss_kb), (
                f"workers={point['workers']}: summed Pss "
                f"{sum(pss_kb)}kB looks like private copies of a "
                f"{seg['size_bytes']}B segment"
            )
            break
    by_workers = {p["workers"]: p["throughput_rps"] for p in results}
    scaling_checked = cores >= 4 and 4 in by_workers
    summary = {
        "points": results,
        "cores": cores,
        "speedup_vs_single": {
            str(n): by_workers[n] / by_workers[1] for n in sorted(by_workers) if n > 1
        },
        "scaling_assert": {
            "required_at_workers_4": 2.5,
            "checked": scaling_checked,
            "reason": None if scaling_checked else (
                f"host exposes {cores} usable core(s); a prefork fleet "
                "cannot scale past the scheduler"
            ),
        },
    }
    if scaling_checked:
        speedup = by_workers[4] / by_workers[1]
        assert speedup >= 2.5, (
            f"workers=4 throughput is {speedup:.2f}x single-worker "
            f"(>=2.5x required on a {cores}-core host)"
        )
    return summary


def _bench_ingest(
    prefix: Path,
    info: dict,
    base_log,
    wal_dir: Path,
    *,
    concurrency: int,
    events: int,
    batch_events: int = 16,
) -> dict:
    """Sustained ``POST /ingest`` journaling rate, then fold-in latency.

    Clients push the whole event stream through the live server (durable
    WAL appends, fsync per flush); the fold-in worker then drains it to a
    published artifact.  Both halves read their timings off the metrics
    registry the server ran under.
    """
    registry = MetricsRegistry()
    set_registry(registry)
    wal = WriteAheadLog(wal_dir)
    worker = FoldinWorker(
        wal, prefix, base_log, config=FoldinConfig(interval_seconds=3600.0)
    )
    worker.bootstrap()
    server = SkillServer(
        ModelState(prefix),
        ServeConfig(port=0, max_batch=64, max_wait_ms=2.0, max_queue=4096,
                    timeout_seconds=60.0),
        wal=wal,
        foldin=worker,
    )
    thread = ServerThread(server)
    host, port = thread.start()
    _wait_for_healthz(host, port)

    users = info["users"]
    items = info["items"]
    batches = [
        json.dumps(
            {
                "events": [
                    {
                        "user": users[(start + j) % len(users)],
                        "item": items[(start * 7 + j * 3) % len(items)],
                        "time": 1_000.0 + start + j,
                    }
                    for j in range(min(batch_events, events - start))
                ]
            }
        ).encode("utf-8")
        for start in range(0, events, batch_events)
    ]
    errors = [0]
    lock = threading.Lock()
    barrier = threading.Barrier(concurrency + 1)

    def client(worker_index: int) -> None:
        conn = http.client.HTTPConnection(host, port, timeout=120)
        barrier.wait()
        for index in range(worker_index, len(batches), concurrency):
            conn.request(
                "POST", "/ingest", batches[index],
                {"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            response.read()
            if response.status != 200:
                with lock:
                    errors[0] += 1
        conn.close()

    threads = [
        threading.Thread(target=client, args=(index,), daemon=True)
        for index in range(concurrency)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    wall_start = time.perf_counter()
    for t in threads:
        t.join()
    ingest_wall = time.perf_counter() - wall_start
    assert errors[0] == 0, f"{errors[0]} ingest requests failed"
    assert wal.durable_seq == events, "not every event was journaled"

    fold_start = time.perf_counter()
    worker.drain_now(timeout=600.0)
    fold_wall = time.perf_counter() - fold_start
    thread.stop()
    worker.stop()
    wal.close()

    snapshot = registry.snapshot()
    append_hist = snapshot["histograms"].get("ingest.append_seconds", {})
    fold_hist = snapshot["histograms"].get("foldin.fold_seconds", {})
    return {
        "events": events,
        "batch_events": batch_events,
        "concurrency": concurrency,
        "wall_seconds": ingest_wall,
        "events_per_sec": events / ingest_wall,
        "append_p50_ms": 1000.0 * append_hist.get("p50", 0.0),
        "append_p95_ms": 1000.0 * append_hist.get("p95", 0.0),
        "foldin": {
            "wall_seconds": fold_wall,
            "folds": int(snapshot["counters"].get("foldin.folds", 0)),
            "events_applied": int(
                snapshot["counters"].get("foldin.events_applied", 0)
            ),
            "fold_seconds_mean": fold_hist.get("mean", 0.0),
            "fold_seconds_p95": fold_hist.get("p95", 0.0),
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=400)
    parser.add_argument("--requests", type=int, default=2048)
    parser.add_argument("--concurrency", type=int, default=32)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_serve.json")
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: small model/workload, parity + sanity asserts only",
    )
    args = parser.parse_args()
    if args.quick:
        args.users = min(args.users, 80)
        args.requests = min(args.requests, 256)
        args.repeats = 1
    if args.concurrency < 32:
        parser.error("--concurrency must be >= 32 (the scenario being served)")

    with tempfile.TemporaryDirectory() as tmp:
        prefix = Path(tmp) / "bench_model"
        print(f"fitting bench model ({args.users} users)...")
        info, base_log = _build_model(prefix, users=args.users, quick=args.quick)
        workload = _workload(info, args.requests)
        print(
            f"workload: {len(workload)} requests "
            f"({sum(1 for p, _ in workload if p == '/predict')} predict / "
            f"{sum(1 for p, _ in workload if p == '/difficulty')} difficulty / "
            f"{sum(1 for p, _ in workload if p == '/recommend')} recommend) "
            f"at concurrency {args.concurrency}"
        )

        modes = {"sequential": 1, "batched": 64}
        results: dict[str, dict] = {}
        for name, max_batch in modes.items():
            best: dict | None = None
            for _ in range(args.repeats):
                run = _run_mode(
                    prefix, workload,
                    max_batch=max_batch, concurrency=args.concurrency,
                )
                if best is None or run["wall_seconds"] < best["wall_seconds"]:
                    best = run
            assert best is not None
            results[name] = best
            print(
                f"{name:10s} p50={best['p50_ms']:7.2f}ms p95={best['p95_ms']:7.2f}ms "
                f"throughput={best['throughput_rps']:7.1f} req/s "
                f"mean_batch={best['mean_batch_size'] or 1:.1f}"
            )

        # Difficulty-targeted recommendation: the same two dispatch modes
        # over a /recommend-only workload.  Upskill queries share one
        # score evaluation per distinct level in a flush and
        # similar_harder is a pure index gather, so batching should win
        # here too — and exactly as for /predict, it must win without
        # changing a single response byte.
        recommend_workload = _recommend_workload(
            info, max(256, args.requests // 2)
        )
        print(f"recommend: {len(recommend_workload)} /recommend requests...")
        recommend_results: dict[str, dict] = {}
        for name, max_batch in modes.items():
            best = None
            for _ in range(args.repeats):
                run = _run_mode(
                    prefix, recommend_workload,
                    max_batch=max_batch, concurrency=args.concurrency,
                )
                if best is None or run["wall_seconds"] < best["wall_seconds"]:
                    best = run
            assert best is not None
            recommend_results[name] = best
            print(
                f"recommend/{name:10s} p50={best['p50_ms']:7.2f}ms "
                f"p95={best['p95_ms']:7.2f}ms "
                f"throughput={best['throughput_rps']:7.1f} req/s "
                f"mean_batch={best['mean_batch_size'] or 1:.1f}"
            )
        recommend_mismatches = sum(
            1 for a, b in zip(
                recommend_results["sequential"]["bodies"],
                recommend_results["batched"]["bodies"],
            )
            if a != b
        )
        assert recommend_mismatches == 0, (
            f"{recommend_mismatches} /recommend responses differ between modes"
        )
        assert recommend_results["sequential"]["errors"] == 0, (
            "sequential /recommend mode had HTTP errors"
        )
        assert recommend_results["batched"]["errors"] == 0, (
            "batched /recommend mode had HTTP errors"
        )
        assert recommend_results["batched"]["mean_batch_size"] > 1.0, (
            "/recommend batched mode never coalesced"
        )
        print(
            f"recommend parity: all {len(recommend_workload)} response "
            f"bodies byte-identical across modes"
        )

        # Tracing overhead: the same batched workload with span tracing on
        # (JSONL sink included — the production cost, not just the ring).
        # Tracing must be a diagnosis lever, never a throughput one.
        #
        # Methodology: three long-lived server subprocesses — untraced,
        # traced at the default head-sampling rate, and traced at full
        # detail (out-of-process so the load generator's GIL does not tax
        # the serving loop, see _ServeSubprocess) — answer the same
        # workload in ~1s slices.  Machine throughput on shared runners
        # drifts by double-digit percent over tens of seconds, so
        # back-to-back whole-run comparisons cannot resolve a few-percent
        # effect.  Slices are grouped into rounds whose server order
        # rotates every round, so monotonic drift cannot systematically
        # tax one arm, and each arm's overhead is the median of its
        # per-round throughput ratios against the untraced slice of the
        # same round — comparisons between slices adjacent in time, where
        # drift is smallest.
        #
        # The <5% budget is asserted for the *default* configuration
        # (--trace-out with the default --trace-sample): that is what
        # production reaches for.  Full-detail tracing (--trace-sample
        # 1.0) is measured and reported alongside, unasserted — on a
        # single-core host its per-request span work is expected to cost
        # more than the budget allows.
        round_count = max(args.repeats, 1 if args.quick else 12)
        trace_path = Path(tmp) / "bench_spans.jsonl"
        full_trace_path = Path(tmp) / "bench_spans_full.jsonl"
        plain_server = _ServeSubprocess(prefix, max_batch=64)
        traced_server = _ServeSubprocess(prefix, max_batch=64, trace_out=trace_path)
        full_server = _ServeSubprocess(
            prefix, max_batch=64, trace_out=full_trace_path, trace_sample=1.0
        )
        servers = [plain_server, traced_server, full_server]
        runs: dict[int, list[dict]] = {id(server): [] for server in servers}
        try:
            for server in servers:  # warm every arm
                server.drive(workload[: max(64, len(workload) // 8)],
                             args.concurrency)
            for round_index in range(round_count):
                order = servers[round_index % 3:] + servers[:round_index % 3]
                for server in order:
                    bodies, latencies, errors, wall = server.drive(
                        workload, args.concurrency
                    )
                    runs[id(server)].append(
                        _stats(
                            max_batch=64, spans=0, wall=wall,
                            workload_size=len(workload), latencies=latencies,
                            errors=errors, bodies=bodies,
                        )
                    )
        finally:
            for server in servers:
                server.stop()
        plain_runs = runs[id(plain_server)]
        traced_runs = runs[id(traced_server)]
        full_runs = runs[id(full_server)]
        traced_best = min(traced_runs, key=lambda run: run["wall_seconds"])
        traced_best["spans"] = _count_spans(trace_path)
        full_spans = _count_spans(full_trace_path)
        assert all(
            r["errors"] == 0 for arm in runs.values() for r in arm
        ), "tracing A/B runs had HTTP errors"
        assert traced_best["spans"] > 0, "tracing was on but produced no spans"
        # Full detail records ~3 spans/request; the sampled default must
        # journal strictly fewer while still seeing every request.
        assert full_spans > traced_best["spans"], (
            f"full-detail tracing wrote {full_spans} spans, sampled wrote "
            f"{traced_best['spans']} — sampling is not thinning span detail"
        )
        for label, arm_runs in (("sampled", traced_runs), ("full", full_runs)):
            mismatches = sum(
                1 for a, b in zip(
                    results["batched"]["bodies"],
                    min(arm_runs, key=lambda run: run["wall_seconds"])["bodies"],
                )
                if a != b
            )
            assert mismatches == 0, (
                f"{mismatches} responses differ with {label} tracing enabled"
            )
        plain_median = statistics.median(r["throughput_rps"] for r in plain_runs)
        traced_median = statistics.median(r["throughput_rps"] for r in traced_runs)

        def _overhead(arm_runs: list[dict]) -> float:
            return 100.0 * (
                1.0
                - statistics.median(
                    arm["throughput_rps"] / plain["throughput_rps"]
                    for arm, plain in zip(arm_runs, plain_runs)
                )
            )

        overhead_pct = _overhead(traced_runs)
        full_overhead_pct = _overhead(full_runs)
        print(
            f"traced     p50={traced_best['p50_ms']:7.2f}ms "
            f"p95={traced_best['p95_ms']:7.2f}ms "
            f"throughput={traced_median:7.1f} req/s "
            f"(untraced {plain_median:7.1f} req/s, {traced_best['spans']} spans, "
            f"overhead {overhead_pct:+.1f}% over {round_count} rotated rounds; "
            f"full detail {full_overhead_pct:+.1f}%, {full_spans} spans)"
        )
        if not args.quick:
            # Quick CI runs are too small/noisy for a tight bound; the full
            # bench enforces the documented <5% tracing-overhead budget.
            assert overhead_pct < 5.0, (
                f"tracing overhead {overhead_pct:.1f}% exceeds the 5% budget"
            )

        # Prefork core-scaling: same workload, real --workers N process
        # trees, byte-parity per point.  Before ingest — fold-in rewrites
        # the artifact, which would invalidate the parity reference.
        print("prefork: core-scaling sweep...")
        prefork = _bench_prefork(
            prefix, workload, results["batched"]["bodies"], Path(tmp),
            concurrency=args.concurrency, quick=args.quick,
        )

        # Streaming loop: durable journaling rate, then fold-in latency.
        # Runs after the parity modes — fold-in republishes the artifact.
        ingest_events = 512 if args.quick else 4096
        print(f"ingest: journaling {ingest_events} events...")
        ingest = _bench_ingest(
            prefix, info, base_log, Path(tmp) / "wal",
            concurrency=args.concurrency, events=ingest_events,
        )
        print(
            f"ingest     {ingest['events_per_sec']:7.1f} events/s "
            f"(append p95={ingest['append_p95_ms']:.2f}ms), "
            f"fold-in {ingest['foldin']['folds']} folds "
            f"mean={ingest['foldin']['fold_seconds_mean']:.3f}s"
        )

    # Parity: coalesced batching must be semantically invisible.
    mismatches = sum(
        1 for a, b in zip(results["sequential"]["bodies"], results["batched"]["bodies"])
        if a != b
    )
    assert mismatches == 0, f"{mismatches} responses differ between modes"
    assert results["sequential"]["errors"] == 0, "sequential mode had HTTP errors"
    assert results["batched"]["errors"] == 0, "batched mode had HTTP errors"
    assert results["batched"]["mean_batch_size"] > 1.0, (
        "batched mode never coalesced — raise concurrency or workload size"
    )
    print(f"parity: all {len(workload)} response bodies byte-identical across modes")

    for mode in results.values():
        mode.pop("bodies")
    for mode in recommend_results.values():
        mode.pop("bodies")
    traced_best.pop("bodies")
    payload = {
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cores": len(os.sched_getaffinity(0)),
        },
        "workload": {
            "model_users": args.users,
            "model_items": len(info["items"]),
            "model_actions": info["num_actions"],
            "requests": args.requests,
            "concurrency": args.concurrency,
            "repeats": args.repeats,
            "quick": args.quick,
        },
        "sequential": results["sequential"],
        "batched": results["batched"],
        "speedup": {
            "p50": results["sequential"]["p50_ms"] / results["batched"]["p50_ms"],
            "p95": results["sequential"]["p95_ms"] / results["batched"]["p95_ms"],
            "throughput": (
                results["batched"]["throughput_rps"]
                / results["sequential"]["throughput_rps"]
            ),
        },
        "parity": {"responses_compared": len(workload), "mismatches": 0},
        "recommend": {
            "requests": len(recommend_workload),
            "sequential": recommend_results["sequential"],
            "batched": recommend_results["batched"],
            "speedup": {
                "p50": (
                    recommend_results["sequential"]["p50_ms"]
                    / recommend_results["batched"]["p50_ms"]
                ),
                "p95": (
                    recommend_results["sequential"]["p95_ms"]
                    / recommend_results["batched"]["p95_ms"]
                ),
                "throughput": (
                    recommend_results["batched"]["throughput_rps"]
                    / recommend_results["sequential"]["throughput_rps"]
                ),
            },
            "parity": {
                "responses_compared": len(recommend_workload),
                "mismatches": 0,
            },
        },
        "tracing": {
            "sample": 0.1,
            "throughput_rps": traced_median,
            "p50_ms": traced_best["p50_ms"],
            "p95_ms": traced_best["p95_ms"],
            "spans": traced_best["spans"],
            "overhead_pct": overhead_pct,
            "untraced_throughput_rps": plain_median,
            "slice_throughputs_rps": {
                "untraced": [round(r["throughput_rps"], 1) for r in plain_runs],
                "traced": [round(r["throughput_rps"], 1) for r in traced_runs],
                "full_detail": [round(r["throughput_rps"], 1) for r in full_runs],
            },
            "budget_pct": 5.0,
            # --trace-sample 1.0: unasserted, for reference only.
            "full_detail": {
                "sample": 1.0,
                "overhead_pct": full_overhead_pct,
                "spans": full_spans,
            },
        },
        "prefork": prefork,
        "ingest": ingest,
    }
    Path(args.out).write_text(
        json.dumps(payload, indent=1) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.out}")
    if not args.quick:
        speedup = payload["speedup"]
        print(
            f"speedups vs sequential: p50 {speedup['p50']:.2f}x, "
            f"p95 {speedup['p95']:.2f}x, throughput {speedup['throughput']:.2f}x"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
