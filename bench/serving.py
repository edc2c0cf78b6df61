"""Serve workloads: open-loop HTTP traffic against a ``repro serve`` subprocess.

Set-up generates a domain with ``repro simulate``, fits it with
``repro fit``, and starts ``repro serve`` with its CLI defaults (the
ingest workload adds ``--ingest-wal`` and ``--data``).  Set-up time runs from
spawning the server to the end of a short warm-up that touches every
endpoint of the mix, so lazy work (the similarity index build on the
first ``similar_harder``) lands in set-up, not in the measured window.

The measured window is an open-loop schedule fixed before it starts
(see ``loadgen``).  Read requests carry an ``X-Bench-Id`` header in both
arms, so the traced arm can join them to server spans without changing
the traffic.

Tails are taken per slice of the window and the median over slices is
reported, so one host hiccup moves one slice, not the metric.  A slice
must still hold the event its workload exists to measure: on
``ingest-swap`` the slices are cut between the swaps ``/healthz``
observed, so each slice holds exactly one swap and its stall.
"""

from __future__ import annotations

import bisect
import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path

import common
import ledger
import loadgen
from common import BenchError

#: Every 16th read request (by schedule position) is checked against a
#: direct library call on the model that served it.
SAMPLE_EVERY = 16
#: Largest generator lateness tail, for requests that found a connection
#: free, at which the run still measures the server rather than itself.
LATE_LIMIT_MS = 2.0
SETUP_WARMUP = 40
DRAIN_SECONDS = 20.0
#: Known-user, known-item events per ``/ingest`` request.
EVENTS_PER_INGEST = 16
#: Reads per tail slice on workloads without periodic events, so that
#: each slice's tail is its p95.
SLICE_READS = 200
#: How long before the first fold-in the measured window starts on ingest-swap.
FOLD_LEAD = 0.3


@dataclass(frozen=True)
class ServeSpec:
    """One serve workload: data, model fit, server flags, traffic."""

    domain: str
    users: int
    items: int
    fit_args: tuple[str, ...]
    read_rps: float
    #: read kinds and how many of each per block of ten reads.
    mix: tuple[tuple[str, int], ...]
    #: inclusive bounds on the number of items an upskill request excludes.
    exclude: tuple[int, int]
    ingest_rps: float = 0.0
    health_hz: float = 0.0
    #: ``repro serve --foldin-every``: seconds between fold-in drains.
    fold_period: float = 0.0


SMALL_MIX = (("predict", 4), ("difficulty", 2), ("skill", 1), ("upskill", 2), ("similar", 1))
COOKING = dict(
    domain="cooking",
    users=400,
    items=3000,
    fit_args=("--levels", "5", "--init-min-actions", "10", "--max-iterations", "6"),
)

SPECS: dict[str, ServeSpec] = {
    "serve-small": ServeSpec(**COOKING, read_rps=200.0, mix=SMALL_MIX, exclude=(0, 2)),
    "serve-catalog": ServeSpec(
        domain="synthetic",
        users=2000,
        items=50000,
        fit_args=("--levels", "5", "--max-iterations", "1"),
        # A read costs the server 4-7 ms of CPU here, by host phase.  At
        # 100 reads/s that kept its one event loop 40-72% busy, and the
        # queueing wait, which grows as 1/(1 - busy share), turned a 20%
        # slower host into a 30-50% higher median.
        read_rps=50.0,
        mix=(("predict", 4), ("difficulty", 2), ("upskill", 4)),
        exclude=(8, 16),
    ),
    "ingest-swap": ServeSpec(
        **COOKING,
        read_rps=100.0,
        mix=SMALL_MIX,
        exclude=(0, 2),
        ingest_rps=10.0,
        health_hz=10.0,
        # The CLI default.  A 15 s window starting 0.3 s before the first
        # fold with events holds three swaps, and the fourth fold falls
        # after it, so every run holds exactly three: enough for a median
        # over slices, few enough that stalls cover well under half the
        # window even when the host runs slow, so the read median stays
        # outside them.
        fold_period=5.0,
    ),
}


# ------------------------------------------------------------------ traffic


class Traffic:
    """Seeded request factory over a model's users, times and items."""

    def __init__(self, spec: ServeSpec, rng: random.Random, log, items: list) -> None:
        self.spec = spec
        self.rng = rng
        self.actions = [(seq.user, float(t)) for seq in log for t in seq.times]
        self.users = list(log.users)
        self.items = items
        self.next_time = max(t for _user, t in self.actions) + 1.0
        self.kinds: list[str] = []

    def _kind(self) -> str:
        if not self.kinds:
            self.kinds = [kind for kind, count in self.spec.mix for _ in range(count)]
            self.rng.shuffle(self.kinds)
        return self.kinds.pop()

    def read(self, due: float, index: int) -> loadgen.Request:
        rng = self.rng
        kind = self._kind()
        user, at = rng.choice(self.actions)
        if kind == "predict":
            payload = {"user": user, "time": at, "item": rng.choice(self.items), "k": 10}
        elif kind == "difficulty":
            payload = {
                "items": rng.sample(self.items, 5),
                "prior": rng.choice(("empirical", "uniform")),
            }
        elif kind == "skill":
            payload = {"user": user, "time": at}
        elif kind == "upskill":
            low, high = self.spec.exclude
            payload = {
                "user": user,
                "time": at,
                "k": 10,
                "exclude": rng.sample(self.items, rng.randint(low, high)),
            }
        else:
            payload = {"mode": "similar_harder", "item": rng.choice(self.items), "k": 10}
        headers = {"X-Bench-Id": str(index)}
        if kind == "skill":
            query = urllib.parse.urlencode({"user": user, "time": repr(at)})
            return loadgen.Request(
                due, "GET", f"/skill?{query}", headers=headers, tag=(kind, payload)
            )
        path = {"predict": "/predict", "difficulty": "/difficulty"}.get(kind, "/recommend")
        body = json.dumps(payload).encode("utf-8")
        return loadgen.Request(due, "POST", path, body, headers=headers, tag=(kind, payload))

    def ingest(self, due: float) -> loadgen.Request:
        events = []
        for _ in range(EVENTS_PER_INGEST):
            events.append(
                {
                    "user": self.rng.choice(self.users),
                    "item": self.rng.choice(self.items),
                    "time": self.next_time,
                }
            )
            self.next_time += 1.0
        body = json.dumps({"events": events}).encode("utf-8")
        return loadgen.Request(due, "POST", "/ingest", body, kind="ingest", tag=events)

    def schedule(self, seconds: float) -> list[loadgen.Request]:
        """Reads, ingests and health probes at fixed rates, by due time."""
        spec = self.spec
        requests = [
            self.read(i / spec.read_rps, i) for i in range(int(seconds * spec.read_rps))
        ]
        if spec.ingest_rps:
            count = int(seconds * spec.ingest_rps)
            requests += [self.ingest((j + 0.5) / spec.ingest_rps) for j in range(count)]
        if spec.health_hz:
            count = int(seconds * spec.health_hz)
            requests += [
                loadgen.Request((j + 0.25) / spec.health_hz, "GET", "/healthz", kind="health")
                for j in range(count)
            ]
        return sorted(requests, key=lambda request: request.due)


# ------------------------------------------------------------------- server


class Server:
    """A ``repro serve`` child process and its /proc accounting."""

    def __init__(self, argv: list[str], logs: Path) -> None:
        logs.mkdir(parents=True, exist_ok=True)
        self._out_path = logs / "server.out"
        self._err_path = logs / "server.err"
        self._out = open(self._out_path, "w", encoding="utf-8")
        self._err = open(self._err_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            argv, cwd=common.ROOT, env=common.child_env(), stdout=self._out, stderr=self._err
        )
        self.host, self.port = self._wait_for_address()

    def _wait_for_address(self) -> tuple[str, int]:
        deadline = time.monotonic() + 120.0
        pattern = re.compile(r"on http://([0-9.]+):(\d+)")
        while time.monotonic() < deadline:
            match = pattern.search(self._out_path.read_text(encoding="utf-8"))
            if match:
                # The line is printed once the server started its fold-in
                # worker and reload watcher, which tick from here on.
                self.ready_at = time.monotonic()
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise BenchError(f"server did not start: {self.errors()}")

    def errors(self) -> str:
        return self._err_path.read_text(encoding="utf-8").strip()[-2000:]

    def cpu_seconds(self) -> float:
        """utime + stime of the server process, from /proc/<pid>/stat."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2 :].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def get(self, path: str) -> dict:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
        finally:
            connection.close()
        if response.status != 200:
            raise BenchError(f"GET {path} answered {response.status}")
        return json.loads(body)

    def stop(self) -> None:
        """SIGTERM (the server drains and exits 0), SIGKILL after 30 s."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._out.close()
        self._err.close()


# ------------------------------------------------------------------ oracle


class Oracle:
    """Expected answers from direct library calls on one model artifact."""

    def __init__(self, prefix: Path) -> None:
        from repro.serve import ServeConfig
        from repro.serve.state import ModelState

        self.bundle = ModelState(prefix).load()
        self.recommender = self.bundle.recommender(ServeConfig().recommend_config())

    def expected(self, kind: str, payload: dict) -> dict:
        from repro.data.actions import Action
        from repro.data.splits import HeldOutAction
        from repro.recsys.ranking import predict_items
        from repro.recsys.similarity import similar_harder
        from repro.core.difficulty import difficulty_array

        bundle, model = self.bundle, self.bundle.model
        if kind == "difficulty":
            values = difficulty_array(bundle.difficulties[payload["prior"]], payload["items"])
            return {
                "prior": payload["prior"],
                "items": payload["items"],
                "difficulties": [float(v) for v in values],
            }
        if kind == "similar":
            picks = similar_harder(
                bundle.similarity_index(),
                self.recommender.difficulty_vector,
                payload["item"],
                k=payload["k"],
                margin=0.0,
            )
            return {
                "mode": "similar_harder",
                "item": payload["item"],
                "margin": 0.0,
                "recommendations": [
                    {"item": p.item, "similarity": p.similarity, "difficulty": p.difficulty}
                    for p in picks
                ],
            }
        user, at = payload["user"], payload["time"]
        level = model.skill_at(user, at)
        if kind == "skill":
            return {"user": user, "time": at, "level": level}
        if kind == "upskill":
            recs = self.recommender.recommend_for_level(
                level, k=payload["k"], exclude=frozenset(payload["exclude"])
            )
            return {
                "mode": "upskill",
                "user": user,
                "time": at,
                "level": level,
                "recommendations": [
                    {
                        "item": r.item,
                        "score": r.score,
                        "difficulty": r.difficulty,
                        "challenge_fit": r.challenge_fit,
                        "interest": r.interest,
                    }
                    for r in recs
                ],
            }
        held = HeldOutAction(
            action=Action(time=at, user=user, item=payload["item"]),
            position=0,
            sequence_length=1,
        )
        rank = float(predict_items(model, [held]).ranks[0])
        return {
            "user": user,
            "time": at,
            "level": level,
            "top": [
                {"item": item, "probability": p}
                for item, p in model.top_items(level, payload["k"])
            ],
            "item": payload["item"],
            "rank": rank,
            "reciprocal_rank": 1.0 / rank,
        }

    def matches(self, outcome: loadgen.Outcome) -> bool:
        kind, payload = outcome.request.tag
        served = json.loads(outcome.body)
        served.pop("model_version", None)
        expected = json.loads(json.dumps(self.expected(kind, payload)))
        return served == expected


# ----------------------------------------------------------------- workload


def _prepare(spec: ServeSpec, seed: int, work: Path) -> tuple[Path, Path]:
    data = work / "data" / spec.domain
    model = work / "model"
    common.run_cli(
        [
            "simulate", spec.domain, "--out", data, "--users", spec.users,
            "--items", spec.items, "--seed", seed,
        ]
    )
    common.run_cli(["fit", data, "--model", model, *spec.fit_args])
    return data, model


def _start(spec, model: Path, data: Path, run_dir: Path, warmup, report: Path | None):
    """Start one server and warm it up; returns (server, set-up seconds).

    With ingest on, fold-in rewrites the served artifact, so the server
    gets a private copy at ``run_dir/model`` and the fitted model stays
    the base the gates replay from.
    """
    run_dir.mkdir(parents=True, exist_ok=True)
    args = ["serve", model, "--port", "0"]
    if spec.ingest_rps:
        served = run_dir / "model"
        for suffix in (".json", ".npz"):
            shutil.copyfile(model.with_suffix(suffix), served.with_suffix(suffix))
        args = [
            "serve", served, "--port", "0", "--ingest-wal", run_dir / "wal",
            "--data", data, "--foldin-every", spec.fold_period,
        ]
    start = time.perf_counter()
    server = Server(common.repro_argv(args, report=report, layers="serve"), run_dir)
    try:
        outcomes = loadgen.run(server.host, server.port, warmup, connections=1)
        bad = [o for o in outcomes if o.status != 200]
        if bad:
            raise BenchError(
                f"warm-up {bad[0].request.path} answered {bad[0].status}: {server.errors()}"
            )
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start


def _slice_starts(spec: ServeSpec, outcomes, seconds: float) -> list[float]:
    """Due times (seconds into the window) at which tail slices start.

    Without fold-ins the window is cut into slices that each fall due
    ``SLICE_READS`` reads; the last one also takes any remainder.  With
    fold-ins each slice holds one observed swap: a swap is dated by
    the due time of the first ``/healthz`` probe that reported a newer
    model version, and slices meet midway between consecutive swaps.  The
    fold-in loop waits its period *after* each fold, so folds slip by the
    time the earlier ones took and a fixed-rate grid would drift off them.
    """
    if not spec.ingest_rps:
        length = SLICE_READS / spec.read_rps
        return [k * length for k in range(max(1, int(seconds / length)))]
    swaps, newest = [], None
    for outcome in sorted(outcomes, key=lambda o: o.due):
        if outcome.request.kind != "health" or outcome.status != 200:
            continue
        version = json.loads(outcome.body)["model_version"]
        if newest is not None and version > newest:
            swaps.append(outcome.request.due)
        newest = version if newest is None else max(newest, version)
    return [0.0] + [(a + b) / 2.0 for a, b in zip(swaps, swaps[1:])]


def _sliced_tail(outcomes, starts: list[float], value) -> tuple[float, float]:
    """Median over the window's slices of each slice's tail, with the
    median percentile that tail sits at (see ``loadgen.tail``)."""
    slices: dict[int, list[float]] = {}
    for outcome in outcomes:
        index = bisect.bisect_right(starts, outcome.request.due) - 1
        slices.setdefault(index, []).append(value(outcome))
    tails = [loadgen.tail(values) for values in slices.values()]
    return loadgen.median(t[0] for t in tails), loadgen.median(t[1] for t in tails)


def _served_watermark(health: dict) -> int:
    extra = health.get("model", {}).get("extra") or {}
    return int((extra.get("foldin") or {}).get("watermark_seq", 0))


def run(
    name: str, seed: int, seconds: float, *, trace: bool, setups: int, work: Path
) -> common.Result:
    """One serve workload run: set-up, measured window, gates, metrics."""
    common.import_repro()
    from repro.core.serialize import load_model
    from repro.data.io import load_log

    spec = SPECS[name]
    data, model_prefix = _prepare(spec, seed, work)
    log = load_log(Path(f"{data}.log.jsonl"))
    base = load_model(model_prefix)
    items = list(base.encoded.vocabulary("__item_id__"))
    warm_traffic = Traffic(spec, random.Random(seed * 7919 + 1), log, items)
    warmup = [warm_traffic.read(i * 0.01, -1 - i) for i in range(SETUP_WARMUP)]
    traffic = Traffic(spec, random.Random(seed), log, items)
    schedule = traffic.schedule(seconds)

    report = work / "report.json" if trace else None
    setup_times = []
    for attempt in range(setups):
        last = attempt == setups - 1
        run_dir = work / f"server{attempt}"
        server, setup_s = _start(
            spec, model_prefix, data, run_dir, warmup, report if last else None
        )
        setup_times.append(setup_s)
        if not last:
            server.stop()
    problems: list[str] = []
    notes: list[str] = []
    drain: list[tuple[float, dict]] = []
    try:
        if spec.ingest_rps:
            # No events arrive before the window, so until then each
            # fold-in is empty and takes milliseconds: the first fold with
            # events falls one period after server start.  Starting the
            # window just before it leaves room in the window for every
            # later swap's stall (reload poll up to 1 s, index rebuild
            # ~0.7 s) although each later fold slips by the earlier folds'
            # time.
            start = server.ready_at + spec.fold_period - FOLD_LEAD
            time.sleep(max(0.0, start - time.monotonic()))
        connections = len(os.sched_getaffinity(0))
        calibration = [common.host_calibration_ms()]
        cpu_before = server.cpu_seconds()
        outcomes = loadgen.run(server.host, server.port, schedule, connections=connections)
        cpu_after = server.cpu_seconds()
        calibration.append(common.host_calibration_ms())
        ingest = _ingest_outcomes(outcomes)
        if spec.ingest_rps:
            drain = _drain(server, sum(body["accepted"] for _o, body in ingest), problems)
        metrics = server.get("/metrics") if trace else {}
        peak_rss = common.peak_rss_mb(server.proc.pid)
    finally:
        server.stop()

    reads = [o for o in outcomes if o.request.kind == "read"]
    failed = [o for o in outcomes if o.status != 200]
    if failed:
        problems.append(
            f"{len(failed)} of {len(outcomes)} requests failed "
            f"(first: {failed[0].request.path} -> {failed[0].status})"
        )
    starts = _slice_starts(spec, outcomes, seconds)
    late_ms, late_pct = _sliced_tail(
        [o for o in outcomes if not o.queued], starts, lambda o: o.late * 1000.0
    )
    if late_ms > LATE_LIMIT_MS:
        # A host that preempts the generator makes it late; the answers
        # are still right, so this is reported, not failed.
        notes.append(
            f"WARNING generator lateness p{late_pct:.1f} {late_ms:.2f} ms exceeds "
            f"{LATE_LIMIT_MS} ms: this run partly measured the generator"
        )
    latencies = [o.latency * 1000.0 for o in reads]
    tail_ms, tail_pct = _sliced_tail(reads, starts, lambda o: o.latency * 1000.0)
    notes.append(
        f"reads={len(reads)} tail=p{tail_pct:.2f} over {len(starts)} slices "
        f"starting {','.join(f'{s:.2f}' for s in starts)}s "
        f"late_tail={late_ms:.3f}ms queued={sum(o.queued for o in outcomes)} "
        f"connections={connections} host_calibration_ms={calibration[0]:.1f}/{calibration[1]:.1f}"
    )
    e2e = {
        "setup_s": loadgen.median(setup_times),
        "latency_p50_ms": loadgen.median(latencies),
        "latency_tail_ms": tail_ms,
        "cpu_ms_per_op": (cpu_after - cpu_before) * 1000.0 / len(outcomes),
        "peak_rss_mb": peak_rss,
    }

    oracle_for = _oracles(
        spec, model_prefix, run_dir / "model", log, ingest, outcomes, drain, work, problems
    )
    checked = mismatched = 0
    for outcome in reads:
        if int(outcome.request.headers["X-Bench-Id"]) % SAMPLE_EVERY or outcome.status != 200:
            continue
        version = json.loads(outcome.body).get("model_version", 1)
        oracle = oracle_for(version)
        if oracle is None:
            problems.append(f"no model reconstruction for served version {version}")
            break
        checked += 1
        if not oracle.matches(outcome):
            mismatched += 1
    if mismatched:
        problems.append(f"{mismatched} of {checked} sampled reads differ from direct calls")
    notes.append(f"sampled reads checked={checked} mismatched={mismatched}")

    layers: dict[str, float] = {}
    if trace:
        span_list, _counters, _peak = ledger.load(report)
        expected = ledger.SERVE_READ_LAYERS
        if any(kind == "similar" for kind, _count in spec.mix):
            expected += ledger.SIMILAR_LAYERS
        if spec.ingest_rps:
            expected += ledger.INGEST_LAYERS
        for layer in ledger.missing_layers(span_list, expected):
            problems.append(f"wrapped layer {layer} never fired")
        layers, rows, ledger_problems = ledger.serve_layers(span_list, reads, metrics)
        problems += ledger_problems
        total = sum(seconds for _name, seconds in rows) or 1.0
        for layer, seconds in rows:
            notes.append(
                f"ledger {layer} {seconds * 1000.0:.4f} ms {100.0 * seconds / total:.1f}%"
            )
    layers.update(_client_ingest_layers(ingest, drain, outcomes))
    layers["bench.loadgen.late_ms_tail"] = late_ms
    return common.Result(e2e, layers, len(outcomes), len(failed), problems, notes)


# ------------------------------------------------------------- ingest gates


def _ingest_outcomes(outcomes) -> list[tuple[loadgen.Outcome, dict]]:
    """(outcome, ack body) for every acknowledged ingest request."""
    return [
        (o, json.loads(o.body))
        for o in outcomes
        if o.request.kind == "ingest" and o.status == 200
    ]


def _drain(server: Server, acked: int, problems: list[str]) -> list[tuple[float, dict]]:
    """Poll /healthz until the served watermark covers every acked event."""
    observations = []
    deadline = time.monotonic() + DRAIN_SECONDS
    while True:
        health = server.get("/healthz")
        observations.append((time.monotonic(), health))
        served = _served_watermark(health)
        if served >= acked or time.monotonic() > deadline:
            break
        time.sleep(0.1)
    if served != acked:
        problems.append(
            f"served watermark {served} != {acked} acked events after a "
            f"drain of at most {DRAIN_SECONDS:.0f} s"
        )
    return observations


def _health_observations(outcomes, drain) -> list[tuple[float, dict]]:
    window = [
        (o.done, json.loads(o.body))
        for o in outcomes
        if o.request.kind == "health" and o.status == 200
    ]
    return window + list(drain)


def _client_ingest_layers(ingest, drain, outcomes) -> dict[str, float]:
    """Ack latency and ack-to-swap time, measured by the client."""
    acks = [o.latency * 1000.0 for o, _body in ingest]
    health = _health_observations(outcomes, drain)
    to_swap = []
    for outcome, body in ingest:
        for at, observed in health:
            if at >= outcome.done and _served_watermark(observed) >= body["last_seq"]:
                to_swap.append(at - outcome.done)
                break
    return {
        "ingest.ack_ms_p50": loadgen.median(acks),
        "ingest.ack_ms_tail": loadgen.tail(acks)[0],
        "ingest.to_swap_s_p50": loadgen.median(to_swap),
    }


def _oracles(spec, model_prefix, served_prefix, log, ingest, outcomes, drain, work, problems):
    """version -> Oracle; fold-in versions are rebuilt from the base model.

    Fold-in keeps the parameters frozen and re-assigns each touched user
    from their full merged sequence, so the model at watermark ``w`` is
    one ``extend_model`` over the base log plus every event with
    ``seq <= w``, however the stream was cut into folds.
    """
    cache: dict[int, Oracle | None] = {1: Oracle(model_prefix)}
    if not spec.ingest_rps:
        return cache.get

    from repro.core.incremental import extend_model
    from repro.core.serialize import load_model, save_model
    from repro.data.actions import Action

    events: list[tuple[int, dict]] = []
    for outcome, body in ingest:
        events += [
            (body["first_seq"] + offset, event)
            for offset, event in enumerate(outcome.request.tag)
        ]
    events.sort(key=lambda pair: pair[0])
    base = load_model(model_prefix)
    watermark_of = {}
    for _at, health in _health_observations(outcomes, drain):
        watermark_of.setdefault(health["model_version"], _served_watermark(health))

    def rebuild(watermark: int):
        actions = [
            Action(time=e["time"], user=e["user"], item=e["item"])
            for seq, e in events
            if seq <= watermark
        ]
        model, _log = extend_model(base, log, actions)
        return model

    final = rebuild(len(events))
    if not common.same_assignments(final, load_model(served_prefix)):
        problems.append("final artifact assignments differ from one extend_model replay")

    def oracle_for(version: int) -> Oracle | None:
        if version not in cache:
            watermark = watermark_of.get(version)
            if watermark is None:
                cache[version] = None
            else:
                prefix = work / f"version{version}" / "model"
                prefix.parent.mkdir()
                save_model(rebuild(watermark), prefix)
                cache[version] = Oracle(prefix)
        return cache[version]

    return oracle_for
