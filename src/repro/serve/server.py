"""The online prediction service: HTTP endpoints over a fitted model.

This is the top of the serving stack.  :class:`SkillServer` binds an
``asyncio.start_server`` socket and answers the queries the paper's
envisioned upskilling recommender needs online (Section VI's downstream
tasks), plus the operational endpoints a running service requires:

==========================  =================================================
``POST /predict``           skill-conditioned item ranking: infer the user's
                            level at a time, return the top-k items and —
                            when a candidate ``item`` is given — its
                            mid-rank and reciprocal rank (Tables X/XI math)
``POST /difficulty``        difficulty estimates for a list of items under a
                            uniform or empirical prior (Section V)
``POST /recommend``         difficulty-targeted next items (the paper's
                            Figure 1 recommender): the upskilling blend at
                            the user's level, or ``similar_harder``
                            neighbors from the precomputed item-similarity
                            index (see :mod:`repro.recsys.similarity`)
``GET /skill``              a user's inferred level at ``?user=&time=``
``GET /healthz``            liveness plus the loaded artifact's metadata
                            (checksum, format version, telemetry run id)
``GET /metrics``            the process metrics snapshot in the
                            ``repro-metrics/1`` schema that
                            ``tools/check_obs_output.py`` validates
==========================  =================================================

Request flow: parse → admission (429 when the bounded queue is full) →
micro-batcher (``/predict``, ``/difficulty``, and ``/recommend`` coalesce
into one ``predict_items`` / ``difficulty_array`` / ``recommend_batch``
call per flush; see
:mod:`repro.serve.batcher`) → deadline check (503 past the per-endpoint
timeout) → JSON response.  Model hot-reload runs as a background watch
task over :class:`~repro.serve.state.ModelState`; each batch flush reads
one immutable bundle, so a swap mid-traffic never mixes models within a
response.

Everything is standard library: the HTTP layer is a deliberately small
HTTP/1.1 subset (keep-alive, ``Content-Length`` bodies) — enough for load
balancers, ``curl``, and ``http.client``, with no framework dependency.
"""

from __future__ import annotations

import asyncio
import functools
import json
import queue
import socket as socket_module
import threading
import urllib.parse
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.features import ID_FEATURE
from repro.data.splits import HeldOutAction
from repro.data.actions import Action
from repro.exceptions import ConfigurationError, DataError, ReproError
from repro.obs.logging import current_run_id, get_logger
from repro.obs.metrics import get_registry
from repro.obs.resource import ResourceSampler
from repro.obs.trace import get_tracer
from repro.recsys.ranking import predict_items
from repro.recsys.similarity import similar_harder
from repro.recsys.upskill import RecommendQuery, UpskillConfig
from repro.core.difficulty import PRIOR_EMPIRICAL, PRIOR_UNIFORM, difficulty_array
from repro.serve.admission import AdmissionConfig, AdmissionController
from repro.serve.batcher import MicroBatcher, TenantBatchers
from repro.serve.foldin import FoldinWorker
from repro.serve.ingest import WriteAheadLog
from repro.serve.state import ModelState, ServingModel, TenantRegistry

__all__ = ["ServeConfig", "SkillServer", "ServerThread", "merge_snapshots"]

_log = get_logger("serve.server")

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_PRIORS = (PRIOR_UNIFORM, PRIOR_EMPIRICAL)


@dataclass(frozen=True)
class ServeConfig:
    """Everything the serving subsystem can be tuned with."""

    host: str = "127.0.0.1"
    port: int = 8080  # 0 binds an ephemeral port (tests, benchmarks)
    max_batch: int = 64
    max_wait_ms: float = 2.0
    max_queue: int = 256
    timeout_seconds: float = 5.0
    endpoint_timeouts: Mapping[str, float] = field(default_factory=dict)
    poll_seconds: float = 1.0
    default_top_k: int = 10
    # /recommend knobs: the challenge window around the user's level and
    # the interest/challenge blend exponent (see recsys.upskill).
    recommend_window_low: float = -0.25
    recommend_window_high: float = 0.75
    interest_weight: float = 0.5
    recommend_decay: float = 2.0
    # Prefork workers bind N sockets to one address via SO_REUSEPORT, so
    # the kernel load-balances accepts across them without a proxy.
    reuse_port: bool = False

    def __post_init__(self) -> None:
        if self.default_top_k < 0:
            raise ConfigurationError("default_top_k must be >= 0")
        if self.poll_seconds <= 0:
            raise ConfigurationError("poll_seconds must be positive")
        self.recommend_config()  # validates the window/weight/decay knobs

    def recommend_config(self) -> UpskillConfig:
        """The serve knobs as an UpskillConfig; ``exclude_seen`` is off
        because the server has no action log — clients send an explicit
        ``exclude`` list instead."""
        return UpskillConfig(
            window_low=self.recommend_window_low,
            window_high=self.recommend_window_high,
            interest_weight=self.interest_weight,
            decay=self.recommend_decay,
            exclude_seen=False,
        )


class _HttpError(Exception):
    """A request-level failure with its HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _RequestError(Exception):
    """A per-payload failure inside a batch flush (carries the status)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class _Request:
    method: str
    path: str
    params: Mapping[str, list[str]]
    headers: Mapping[str, str]
    body: bytes
    keep_alive: bool


class SkillServer:
    """Micro-batched asyncio HTTP server over a hot-reloadable model."""

    def __init__(
        self,
        state: ModelState | TenantRegistry,
        config: ServeConfig | None = None,
        *,
        wal: WriteAheadLog | None = None,
        foldin: FoldinWorker | None = None,
        sock: socket_module.socket | None = None,
        worker: Any | None = None,
    ) -> None:
        # A bare ModelState (the original single-model API, used by every
        # existing test and the classic CLI path) becomes a one-tenant
        # registry; ``self.state`` stays the default tenant's state so the
        # legacy surface keeps reading through it.
        if isinstance(state, TenantRegistry):
            self.registry = state
        else:
            self.registry = TenantRegistry.single(state)
        self.state = self.registry.state()
        self.config = config if config is not None else ServeConfig()
        self.wal = wal
        self.foldin = foldin
        # ``sock`` is a pre-bound listen socket inherited from a prefork
        # parent on platforms without SO_REUSEPORT; ``worker`` is the
        # prefork WorkerRuntime (duck-typed: index / register / peers /
        # prefork_info) — None outside prefork mode.
        self._sock = sock
        self.worker = worker
        self._admissions: dict[str, AdmissionController] = {}
        self._recommend_config = self.config.recommend_config()
        self.admission = self._admission_for(self.registry.default)
        self._batchers = TenantBatchers(
            self._batch_fn,
            max_batch=self.config.max_batch,
            max_wait_ms=self.config.max_wait_ms,
        )
        self._server: asyncio.AbstractServer | None = None
        self._admin_server: asyncio.AbstractServer | None = None
        self.admin_port: int | None = None
        self._watch_task: asyncio.Task | None = None
        self._resources = ResourceSampler(get_registry())

    def _admission_for(self, tenant: str) -> AdmissionController:
        """Per-tenant admission: each tenant gets its own bounded queue so
        one tenant's burst can't starve the others.  The default tenant's
        controller is unlabelled — it owns the deployment-wide
        ``serve.queue_depth`` gauge, exactly as the single-tenant server
        always did; named tenants report ``serve.tenant.<name>.*``."""
        controller = self._admissions.get(tenant)
        if controller is None:
            spec = self.registry.spec(tenant)
            controller = AdmissionController(
                AdmissionConfig(
                    max_queue=spec.max_queue or self.config.max_queue,
                    default_timeout_seconds=self.config.timeout_seconds,
                    endpoint_timeouts=dict(self.config.endpoint_timeouts),
                ),
                label=None if tenant == self.registry.default else tenant,
            )
            self._admissions[tenant] = controller
        return controller

    def _batch_fn(self, tenant: str, endpoint: str):
        if endpoint == "predict":
            return functools.partial(self._predict_batch, tenant)
        if endpoint == "difficulty":
            return functools.partial(self._difficulty_batch, tenant)
        if endpoint == "recommend":
            return functools.partial(self._recommend_batch, tenant)
        # One fsync per flush: every /ingest request coalesced into a flush
        # shares a single WAL append + fsync, which is the durability/IOPS
        # trade the WAL's fsync-on-batch contract is about.  Ingest is not
        # tenant-scoped (the WAL feeds the default tenant's fold-in).
        if endpoint == "ingest":
            return self._ingest_batch
        raise ConfigurationError(f"no batch function for endpoint {endpoint!r}")

    def _bundle(self, tenant: str | None) -> ServingModel:
        """Resolve a tenant to its bundle; 503 when its artifact is sick."""
        try:
            return self.registry.get(tenant)
        except DataError as exc:
            raise _HttpError(503, f"tenant model unavailable: {exc}") from None

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> tuple[str, int]:
        """Load the model (unless preloaded), bind, and return the address."""
        if self._server is not None:
            raise ConfigurationError("server already started")
        if not self.state.loaded:
            self.state.load()
        self._resources.install_gc_hooks()
        self._resources.sample()
        self._watch_task = asyncio.create_task(self._watch(), name="serve-watch")
        if self._sock is not None:
            self._server = await asyncio.start_server(
                self._handle_client, sock=self._sock
            )
        elif self.config.reuse_port:
            self._server = await asyncio.start_server(
                self._handle_client,
                host=self.config.host,
                port=self.config.port,
                reuse_port=True,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_client, host=self.config.host, port=self.config.port
            )
        host, port = self._server.sockets[0].getsockname()[:2]
        if self.worker is not None:
            # A loopback admin listener (same handler, same routes) lets
            # peers and the parent scrape this worker without competing
            # with public traffic on the shared accept queue.
            self._admin_server = await asyncio.start_server(
                self._handle_client, host="127.0.0.1", port=0
            )
            self.admin_port = self._admin_server.sockets[0].getsockname()[1]
            self.worker.register(
                admin_port=self.admin_port,
                generations=self.registry.observed_generations(),
            )
            get_registry().gauge("serve.prefork.worker_index").set(
                float(self.worker.index)
            )
        if self.foldin is not None:
            self.foldin.start()
        _log.info(
            "serving",
            extra={
                "obs": {
                    "host": host,
                    "port": port,
                    "model": str(self.state.prefix),
                    "max_batch": self.config.max_batch,
                    "max_wait_ms": self.config.max_wait_ms,
                    "tenants": self.registry.names(),
                    "worker": getattr(self.worker, "index", None),
                }
            },
        )
        return host, port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    async def stop(self) -> None:
        if self._watch_task is not None:
            self._watch_task.cancel()
            try:
                await self._watch_task
            except asyncio.CancelledError:
                pass
            self._watch_task = None
        for server in (self._server, self._admin_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        self._server = None
        self._admin_server = None
        await self._batchers.stop()
        if self.foldin is not None:
            self.foldin.stop()
        self._resources.uninstall_gc_hooks()
        self.registry.close()

    async def _watch(self) -> None:
        """Poll every resident tenant and hot-swap models as they change;
        the new bundles build in a worker thread, off the event loop."""
        while True:
            await asyncio.sleep(self.state.poll_seconds)
            try:
                swapped = await self.registry.maybe_reload_all()
            except Exception:  # the watcher must outlive any reload bug
                _log.exception("model watch iteration failed")
                continue
            if swapped and self.worker is not None and self.admin_port is not None:
                # Re-ack with the newest observed shm generations so the
                # parent can retire old segments once every worker moved.
                try:
                    self.worker.register(
                        admin_port=self.admin_port,
                        generations=self.registry.observed_generations(),
                    )
                except Exception:
                    _log.exception("worker ack update failed")

    # ------------------------------------------------------------ transport

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                # One root span per request: dispatch AND response
                # serialization happen inside it, so the trace id in the
                # X-Trace-Id header covers everything the client waited
                # on.  Head sampling decides span *detail* per request
                # (full spans cost ~tens of µs on a busy single-core
                # host); unsampled requests still mint and propagate a
                # trace id for the header, access log, and WAL journal.
                tracer = get_tracer()
                scope = (
                    # path+status only: the method is in the access log,
                    # and every root-span attr is serialized per request.
                    tracer.span("serve.request", path=request.path)
                    if tracer.sampled()
                    else tracer.trace_only()
                )
                with scope as root:
                    status, payload = await self._dispatch(request)
                    root.set(status=status)
                    if root.span:
                        ser_ts, ser_start = tracer.wall(), tracer.clock()
                    body = json.dumps(payload).encode("utf-8")
                    if root.span:
                        # record(), not span(): serialization never opens
                        # child spans, and record costs a fraction of the
                        # context churn on this per-request path.
                        tracer.record(
                            "serve.serialize",
                            trace=root.trace,
                            parent=root.span,
                            ts=ser_ts,
                            duration=tracer.clock() - ser_start,
                        )
                trace_header = (
                    f"X-Trace-Id: {root.trace}\r\n" if root.trace is not None else ""
                )
                worker_header = (
                    f"X-Serve-Worker: {self.worker.index}\r\n"
                    if self.worker is not None
                    else ""
                )
                head = (
                    f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"{trace_header}"
                    f"{worker_header}"
                    f"Connection: {'keep-alive' if request.keep_alive else 'close'}\r\n"
                    "\r\n"
                ).encode("latin-1")
                writer.write(head + body)
                await writer.drain()
                if not request.keep_alive:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ValueError,  # oversized/garbled request line
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader) -> _Request | None:
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise ValueError(f"malformed request line: {line!r}")
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        body = await reader.readexactly(length) if length else b""
        path, _, query = target.partition("?")
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        return _Request(
            method=method.upper(),
            path=path,
            params=urllib.parse.parse_qs(query),
            headers=headers,
            body=body,
            keep_alive=keep_alive,
        )

    # ------------------------------------------------------------- routing

    #: endpoints reachable under a ``/t/<tenant>/`` prefix.
    _TENANT_ENDPOINTS = frozenset(
        {"predict", "difficulty", "recommend", "skill", "healthz"}
    )

    async def _dispatch(self, request: _Request) -> tuple[int, Any]:
        registry = get_registry()
        # ``/t/<tenant>/predict`` routes to the named tenant's model; the
        # unprefixed routes are the default tenant, byte-for-byte the
        # pre-multi-tenant behavior.
        tenant: str | None = None
        path = request.path
        if path.startswith("/t/"):
            name, slash, rest = path[3:].partition("/")
            if not name or not slash:
                registry.counter("serve.requests").inc()
                registry.counter("serve.errors").inc()
                return 404, {"error": "not found"}
            tenant, path = name, "/" + rest
        route = {
            ("GET", "/healthz"): ("healthz", self._handle_healthz),
            ("GET", "/metrics"): ("metrics", self._handle_metrics),
            ("GET", "/skill"): ("skill", self._handle_skill),
            ("POST", "/predict"): ("predict", self._handle_predict),
            ("POST", "/difficulty"): ("difficulty", self._handle_difficulty),
            ("POST", "/recommend"): ("recommend", self._handle_recommend),
            ("POST", "/ingest"): ("ingest", self._handle_ingest),
        }.get((request.method, path))
        if route is not None and tenant is not None:
            if route[0] not in self._TENANT_ENDPOINTS:
                route = None
            elif tenant not in self.registry.names():
                registry.counter("serve.requests").inc()
                registry.counter("serve.errors").inc()
                return 404, {"error": f"unknown tenant {tenant!r}"}
        if route is None:
            known_paths = {
                "/healthz", "/metrics", "/skill", "/predict", "/difficulty",
                "/recommend", "/ingest",
            }
            status = 405 if path in known_paths and tenant is None else 404
            registry.counter("serve.requests").inc()
            registry.counter("serve.errors").inc()
            return status, {"error": _REASONS[status].lower()}
        endpoint, handler = route
        tracer = get_tracer()
        trace_id = tracer.current_trace_id()
        registry.counter("serve.requests").inc()
        registry.counter(f"serve.requests.{endpoint}").inc()
        if tenant is not None:
            registry.counter(f"serve.tenant.{tenant}.requests").inc()
        start = registry.clock()
        try:
            status, payload = await handler(request, tenant)
        except _HttpError as exc:
            status, payload = exc.status, {"error": str(exc)}
        except ReproError as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # never leak a traceback to the socket
            _log.exception("unhandled error serving %s", endpoint)
            status, payload = 500, {"error": f"internal error: {type(exc).__name__}"}
        elapsed = registry.clock() - start
        # observe() picks up the ambient trace id, so the slowest samples
        # surface as exemplars next to the histogram in /metrics.
        registry.histogram("serve.request_seconds").observe(elapsed)
        if status >= 400:
            registry.counter("serve.errors").inc()
        fields = {
            "endpoint": endpoint,
            "status": status,
            "ms": round(elapsed * 1000.0, 3),
        }
        if tenant is not None:
            fields["tenant"] = tenant
        if trace_id is not None:
            fields["trace"] = trace_id
        _log.info("request", extra={"obs": fields})
        return status, payload

    async def _admit_and_submit(
        self, tenant: str, endpoint: str, payload: Any
    ) -> Any:
        """Per-tenant admission + deadline around one batched request."""
        admission = self._admission_for(tenant)
        batcher = await self._batchers.get(tenant, endpoint)
        tracer = get_tracer()
        if tracer.enabled:
            # Admission is non-blocking (admit() answers immediately), so
            # the happy-path duration is sub-microsecond noise: record a
            # serve.admission span only when admitting measurably stalled
            # (ever >0.1ms, e.g. under lock contention) or was refused —
            # rejections also raise 429 below and surface as serve.shed
            # events.  Skipping the always-~0ms record keeps per-request
            # tracing inside the bench's <5% overhead budget.
            adm_ts, adm_start = tracer.wall(), tracer.clock()
            ticket = admission.admit(endpoint)
            adm_wait = tracer.clock() - adm_start
            if adm_wait >= 1e-4 or ticket is None:
                tracer.record("serve.admission", ts=adm_ts, duration=adm_wait)
        else:
            ticket = admission.admit(endpoint)
        if ticket is None:
            raise _HttpError(429, "queue full; retry with backoff")
        try:
            remaining = admission.remaining(ticket)
            if remaining <= 0:
                admission.shed_deadline()
                raise _HttpError(503, f"deadline exceeded for {endpoint}")
            try:
                # The wait on the batcher is not separately recorded: the
                # batcher reconstructs the same submit→flush interval as a
                # serve.batch.queue span in each request's trace.
                result = await asyncio.wait_for(batcher.submit(payload), remaining)
            except (TimeoutError, asyncio.TimeoutError):
                admission.shed_deadline()
                raise _HttpError(503, f"deadline exceeded for {endpoint}") from None
        finally:
            admission.release(ticket)
        if isinstance(result, _RequestError):
            raise _HttpError(result.status, str(result))
        return result

    # ------------------------------------------------------------ endpoints

    async def _handle_healthz(
        self, request: _Request, tenant: str | None = None
    ) -> tuple[int, Any]:
        name = self.registry.default if tenant is None else tenant
        state = self.registry.state(name)
        bundle = self._bundle(tenant)
        payload = {
            "status": "ok",
            "model": bundle.metadata,
            "model_version": bundle.version,
            "reloads": state.reloads,
            "reload_failures": state.reload_failures,
            "inflight": self._admission_for(name).inflight,
        }
        if tenant is not None:
            payload["tenant"] = tenant
        else:
            payload["tenants"] = {
                "names": self.registry.names(),
                "loaded": self.registry.loaded_names(),
                "resident_bytes": self.registry.resident_bytes(),
                "evictions": self.registry.evictions,
            }
        if self.worker is not None:
            payload["worker"] = self.worker.index
        if self.wal is not None:
            payload["ingest"] = {
                "last_seq": self.wal.last_seq,
                "durable_seq": self.wal.durable_seq,
                "segments": self.wal.segment_count,
            }
        if self.foldin is not None:
            foldin = self.foldin.health()
            payload["foldin"] = foldin
            if foldin["status"] != "ok":
                # Liveness stays 200: the last good model still serves —
                # but the top-level status names the degradation so probes
                # and operators see it without digging.
                payload["status"] = "degraded"
        return 200, payload

    async def _handle_metrics(
        self, request: _Request, tenant: str | None = None
    ) -> tuple[int, Any]:
        bundle = self.state.current
        telemetry = bundle.model.telemetry
        # Refresh proc.* gauges so every scrape sees current peak RSS and
        # open-fd counts, not the values from server start.
        self._resources.sample()
        local = {
            "schema": "repro-metrics/1",
            "run": current_run_id(),
            **get_registry().snapshot(),
            "telemetry": telemetry.to_json() if telemetry is not None else None,
        }
        scope = (request.params.get("scope") or [""])[0]
        if self.worker is None or scope == "local":
            return 200, local
        # Prefork deployment view: fan out to every registered peer's
        # admin listener for its local snapshot and merge, so any worker
        # answers /metrics for the whole deployment.
        snapshots = [local]
        peers = [
            peer
            for peer in self.worker.peers()
            if peer.get("admin_port") not in (None, self.admin_port)
        ]
        if peers:
            fetched = await asyncio.gather(
                *(self._fetch_peer_metrics(peer["admin_port"]) for peer in peers)
            )
            snapshots.extend(snapshot for snapshot in fetched if snapshot is not None)
        merged = merge_snapshots(snapshots)
        info = self.worker.prefork_info()
        gauges = merged.setdefault("gauges", {})
        gauges["serve.prefork.workers"] = float(len(snapshots))
        gauges["serve.prefork.configured"] = float(info.get("configured", len(snapshots)))
        gauges["serve.prefork.respawns"] = float(info.get("respawns", 0))
        gauges["serve.prefork.degraded"] = float(info.get("degraded", 0))
        return 200, merged

    async def _fetch_peer_metrics(self, port: int) -> dict | None:
        """One peer's local snapshot; ``None`` when the peer is mid-death
        (its registration file outlives its sockets by a moment)."""
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection("127.0.0.1", port), 0.5
            )
        except (OSError, asyncio.TimeoutError):
            return None
        try:
            writer.write(
                b"GET /metrics?scope=local HTTP/1.1\r\n"
                b"Host: localhost\r\nConnection: close\r\n\r\n"
            )
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), 2.0)
        except (OSError, asyncio.TimeoutError):
            return None
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        head, _, body = raw.partition(b"\r\n\r\n")
        if b" 200 " not in head.split(b"\r\n", 1)[0]:
            return None
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None

    async def _handle_skill(
        self, request: _Request, tenant: str | None = None
    ) -> tuple[int, Any]:
        name = self.registry.default if tenant is None else tenant
        admission = self._admission_for(name)
        ticket = admission.admit("skill")
        if ticket is None:
            raise _HttpError(429, "queue full; retry with backoff")
        try:
            if admission.expired(ticket):
                admission.shed_deadline()
                raise _HttpError(503, "deadline exceeded for skill")
            bundle = self._bundle(tenant)
            user = self._resolve_user(bundle, _single_param(request, "user"))
            time = _as_number(_single_param(request, "time"), "time")
            level = bundle.model.skill_at(user, time)
            return 200, {
                "user": user,
                "time": time,
                "level": level,
                "model_version": bundle.version,
            }
        finally:
            admission.release(ticket)

    async def _handle_predict(
        self, request: _Request, tenant: str | None = None
    ) -> tuple[int, Any]:
        name = self.registry.default if tenant is None else tenant
        payload = self._validate_predict(_json_body(request), self._bundle(tenant))
        result = await self._admit_and_submit(name, "predict", payload)
        return 200, result

    async def _handle_difficulty(
        self, request: _Request, tenant: str | None = None
    ) -> tuple[int, Any]:
        name = self.registry.default if tenant is None else tenant
        payload = self._validate_difficulty(_json_body(request))
        result = await self._admit_and_submit(name, "difficulty", payload)
        return 200, result

    async def _handle_recommend(
        self, request: _Request, tenant: str | None = None
    ) -> tuple[int, Any]:
        name = self.registry.default if tenant is None else tenant
        # Explicit counter (on top of the dispatcher's auto
        # serve.requests.recommend) so dashboards and the CI gate can key
        # on the serve.recommend.* namespace alongside index_builds etc.
        get_registry().counter("serve.recommend.requests").inc()
        tracer = get_tracer()
        if tracer.sampled():
            # User→level resolution (and anchor validation) is the one
            # per-request model lookup on this path; record it under the
            # request's root span so slow resolves surface in traces.
            res_ts, res_start = tracer.wall(), tracer.clock()
            payload = self._validate_recommend(_json_body(request), self._bundle(tenant))
            tracer.record(
                "serve.recommend.resolve",
                ts=res_ts,
                duration=tracer.clock() - res_start,
            )
        else:
            payload = self._validate_recommend(_json_body(request), self._bundle(tenant))
        result = await self._admit_and_submit(name, "recommend", payload)
        return 200, result

    async def _handle_ingest(
        self, request: _Request, tenant: str | None = None
    ) -> tuple[int, Any]:
        if self.wal is None:
            raise _HttpError(
                503, "ingest is not configured; start the server with --ingest-wal"
            )
        events = self._validate_ingest(_json_body(request))
        trace_id = get_tracer().current_trace_id()
        if trace_id is not None:
            # Journal the request's trace id with each event: the WAL
            # payload is an open JSON object and fold-in ignores unknown
            # keys, so the id rides along to the cycle that applies the
            # event — the ingest→swap half of the end-to-end trace.
            for event in events:
                event["_trace"] = trace_id
        result = await self._admit_and_submit(
            self.registry.default, "ingest", events
        )
        first_seq, last_seq = result
        payload: dict[str, Any] = {
            "accepted": len(events),
            "first_seq": first_seq,
            "last_seq": last_seq,
            "durable": True,  # the 200 is only written after the batch fsync
        }
        if trace_id is not None:
            payload["trace"] = trace_id
        return 200, payload

    # ----------------------------------------------------------- validation

    def _resolve_user(self, bundle: ServingModel, user: Any) -> Any:
        """Map a request's user id onto a trained user (404 when unknown).

        Query-string ids arrive as strings; integer training ids are
        recovered by one int-coercion attempt, mirroring the JSONL id rule.
        """
        assignments = bundle.model.assignments
        if user in assignments:
            return user
        if isinstance(user, str):
            try:
                coerced = int(user)
            except ValueError:
                coerced = None
            if coerced is not None and coerced in assignments:
                return coerced
        raise _HttpError(404, f"user {user!r} was not in the training data")

    def _validate_predict(self, data: Any, bundle: ServingModel) -> dict[str, Any]:
        if not isinstance(data, dict):
            raise _HttpError(400, "request body must be a JSON object")
        if "user" not in data:
            raise _HttpError(400, "missing required field 'user'")
        user = self._resolve_user(bundle, data["user"])
        time = _as_number(data.get("time"), "time")
        k = data.get("k", self.config.default_top_k)
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise _HttpError(400, "'k' must be a non-negative integer")
        item = data.get("item")
        if item is not None:
            if ID_FEATURE not in bundle.model.feature_set.names:
                raise _HttpError(
                    400, "model was trained without the item-id feature; "
                    "omit 'item' or serve an id-featured model"
                )
            if item not in bundle.model.encoded.index_of:
                raise _HttpError(404, f"item {item!r} not in the model's catalog")
        return {"user": user, "time": time, "item": item, "k": k}

    def _validate_difficulty(self, data: Any) -> dict[str, Any]:
        if not isinstance(data, dict):
            raise _HttpError(400, "request body must be a JSON object")
        items = data.get("items")
        if not isinstance(items, list) or not items:
            raise _HttpError(400, "'items' must be a non-empty list of item ids")
        prior = data.get("prior", PRIOR_EMPIRICAL)
        if prior not in _PRIORS:
            raise _HttpError(
                400, f"'prior' must be one of {list(_PRIORS)}, got {prior!r}"
            )
        return {"items": items, "prior": prior}

    def _validate_recommend(self, data: Any, bundle: ServingModel) -> dict[str, Any]:
        """Validate a /recommend body into a flush-ready payload.

        The user→level resolution happens *here*, in the handler
        coroutine, so the batch kernel is pure array work over
        already-resolved levels (:class:`~repro.recsys.upskill.RecommendQuery`)
        — the same shape the vectorized offline batch path takes.
        """
        if not isinstance(data, dict):
            raise _HttpError(400, "request body must be a JSON object")
        mode = data.get("mode", "upskill")
        if mode not in ("upskill", "similar_harder"):
            raise _HttpError(
                400, f"'mode' must be 'upskill' or 'similar_harder', got {mode!r}"
            )
        k = data.get("k", self.config.default_top_k or 10)
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise _HttpError(400, "'k' must be a positive integer")
        payload: dict[str, Any] = {"mode": mode, "k": k}
        if mode == "similar_harder":
            item = data.get("item")
            if item is None:
                raise _HttpError(
                    400, "similar_harder needs 'item' (the anchor to grow from)"
                )
            if item not in bundle.model.encoded.index_of:
                raise _HttpError(404, f"item {item!r} not in the model's catalog")
            margin = data.get("margin", 0.0)
            if isinstance(margin, bool) or not isinstance(margin, (int, float)):
                raise _HttpError(400, "'margin' must be a number")
            payload["item"] = item
            payload["margin"] = float(margin)
            return payload
        if "user" not in data:
            raise _HttpError(400, "missing required field 'user'")
        user = self._resolve_user(bundle, data["user"])
        time = data.get("time")
        if time is not None:
            time = _as_number(time, "time")
        try:
            level = (
                bundle.model.skill_at(user, time)
                if time is not None
                else int(bundle.model.skill_trajectory(user)[-1])
            )
        except ReproError as exc:
            raise _HttpError(404, str(exc)) from None
        exclude = data.get("exclude", [])
        if not isinstance(exclude, list):
            raise _HttpError(400, "'exclude' must be a list of item ids")
        try:
            exclude_set = frozenset(exclude)
        except TypeError:
            raise _HttpError(400, "'exclude' entries must be item ids") from None
        payload.update(
            {"user": user, "time": time, "level": level, "exclude": exclude_set}
        )
        return payload

    def _validate_ingest(self, data: Any) -> list[dict[str, Any]]:
        """Validate an ingest request body into journal-ready event dicts.

        Users may be new (fold-in supports them); items must exist in the
        *current* model's catalog — a new item needs a full retrain, so
        rejecting it here keeps poison events out of the WAL entirely.
        """
        if not isinstance(data, dict):
            raise _HttpError(400, "request body must be a JSON object")
        events = data.get("events")
        if not isinstance(events, list) or not events:
            raise _HttpError(400, "'events' must be a non-empty list of event objects")
        bundle = self.state.current
        known_items = bundle.model.encoded.index_of
        validated: list[dict[str, Any]] = []
        for position, event in enumerate(events):
            if not isinstance(event, dict):
                raise _HttpError(400, f"events[{position}] is not a JSON object")
            for key in ("user", "item", "time"):
                if key not in event:
                    raise _HttpError(
                        400, f"events[{position}] missing required field {key!r}"
                    )
            time_value = event["time"]
            if isinstance(time_value, bool) or not isinstance(time_value, (int, float)):
                raise _HttpError(400, f"events[{position}]['time'] must be a number")
            if event["item"] not in known_items:
                raise _HttpError(
                    404,
                    f"events[{position}]: item {event['item']!r} not in the "
                    "model's catalog; new items require a full retrain",
                )
            record: dict[str, Any] = {
                "user": event["user"],
                "item": event["item"],
                "time": float(time_value),
            }
            rating = event.get("rating")
            if rating is not None:
                if isinstance(rating, bool) or not isinstance(rating, (int, float)):
                    raise _HttpError(
                        400, f"events[{position}]['rating'] must be a number or null"
                    )
                record["rating"] = float(rating)
            validated.append(record)
        return validated

    # -------------------------------------------------------- batched kernels

    def _predict_batch(self, tenant: str, payloads: list[dict[str, Any]]) -> list[Any]:
        """One flush of /predict requests against one model snapshot.

        The per-request answers are bit-identical to singleton dispatch:
        ``predict_items`` ranks each action from its own level's sorted
        probability vector, independent of which other actions share the
        batch, and the top-k list per (level, k) is the same
        ``top_items`` call either way (cached per flush, not recomputed
        per request).  Each flush gathers from exactly one tenant's
        bundle — batches never mix tenants (see TenantBatchers).
        """
        bundle = self.registry.get(tenant)
        model = bundle.model
        results: list[Any] = [None] * len(payloads)
        held: list[HeldOutAction] = []
        held_slots: list[int] = []
        top_cache: dict[tuple[int, int], list[dict[str, Any]]] = {}
        for slot, payload in enumerate(payloads):
            try:
                level = model.skill_at(payload["user"], payload["time"])
            except ReproError as exc:
                results[slot] = _RequestError(404, str(exc))
                continue
            body: dict[str, Any] = {
                "user": payload["user"],
                "time": payload["time"],
                "level": level,
                "model_version": bundle.version,
            }
            k = payload["k"]
            if k:
                key = (level, k)
                if key not in top_cache:
                    top_cache[key] = [
                        {"item": item, "probability": probability}
                        for item, probability in model.top_items(level, k)
                    ]
                body["top"] = top_cache[key]
            results[slot] = body
            if payload["item"] is not None:
                held.append(
                    HeldOutAction(
                        action=Action(
                            time=payload["time"],
                            user=payload["user"],
                            item=payload["item"],
                        ),
                        position=0,
                        sequence_length=1,
                    )
                )
                held_slots.append(slot)
        if held:
            try:
                ranks = predict_items(model, held).ranks
            except ReproError:
                # A request invalidated by a model swap between validation
                # and flush must not poison its batch-mates: rank each
                # held-out action alone (identical arithmetic) and fail
                # only the offending slots.
                for slot, one in zip(held_slots, held):
                    try:
                        self._attach_rank(
                            results[slot], one.action.item,
                            float(predict_items(model, [one]).ranks[0]),
                        )
                    except ReproError as exc:
                        results[slot] = _RequestError(404, str(exc))
            else:
                for slot, one, rank in zip(held_slots, held, ranks):
                    self._attach_rank(results[slot], one.action.item, float(rank))
        return results

    @staticmethod
    def _attach_rank(body: dict[str, Any], item: Any, rank: float) -> None:
        body["item"] = item
        body["rank"] = rank
        body["reciprocal_rank"] = 1.0 / rank

    def _difficulty_batch(
        self, tenant: str, payloads: list[dict[str, Any]]
    ) -> list[Any]:
        """One flush of /difficulty requests: a single gather per prior.

        ``difficulty_array`` over the concatenation of the flush's item
        lists returns exactly the per-request gathers, so splitting the
        result by request offsets is bit-identical to singleton dispatch.
        """
        bundle = self.registry.get(tenant)
        results: list[Any] = [None] * len(payloads)
        by_prior: dict[str, list[int]] = {}
        for slot, payload in enumerate(payloads):
            by_prior.setdefault(payload["prior"], []).append(slot)
        for prior, slots in by_prior.items():
            estimates = bundle.difficulties[prior]
            flat_ids = [
                item for slot in slots for item in payloads[slot]["items"]
            ]
            try:
                values = difficulty_array(estimates, flat_ids)
            except ReproError:
                # Unknown item somewhere in the flush: gather per request
                # so only the offending requests fail.
                for slot in slots:
                    try:
                        per_request = difficulty_array(
                            estimates, payloads[slot]["items"]
                        )
                    except ReproError as exc:
                        results[slot] = _RequestError(404, str(exc))
                    else:
                        results[slot] = self._difficulty_body(
                            bundle, prior, payloads[slot]["items"], per_request
                        )
                continue
            offset = 0
            for slot in slots:
                items = payloads[slot]["items"]
                results[slot] = self._difficulty_body(
                    bundle, prior, items, values[offset : offset + len(items)]
                )
                offset += len(items)
        return results

    def _recommend_batch(
        self, tenant: str, payloads: list[dict[str, Any]]
    ) -> list[Any]:
        """One flush of /recommend requests against one model snapshot.

        Upskill queries go through the recommender's vectorized
        ``recommend_batch``: the level-dependent score vectors are
        computed once per distinct level in the flush, but each answer is
        exactly what its singleton ``recommend_for_level`` call returns —
        batch composition never changes a response byte.
        ``similar_harder`` queries are pure gathers from the precomputed
        similarity index (shared zero-copy across prefork workers), so
        they are trivially batch-independent too.
        """
        bundle = self.registry.get(tenant)
        recommender = bundle.recommender(self._recommend_config)
        registry = get_registry()
        results: list[Any] = [None] * len(payloads)
        upskill_slots: list[int] = []
        queries: list[RecommendQuery] = []
        for slot, payload in enumerate(payloads):
            if payload["mode"] == "similar_harder":
                try:
                    similars = similar_harder(
                        bundle.similarity_index(),
                        recommender.difficulty_vector,
                        payload["item"],
                        k=payload["k"],
                        margin=payload["margin"],
                    )
                except ReproError as exc:
                    results[slot] = _RequestError(404, str(exc))
                    continue
                results[slot] = {
                    "mode": "similar_harder",
                    "item": payload["item"],
                    "margin": payload["margin"],
                    "recommendations": [
                        {
                            "item": one.item,
                            "similarity": one.similarity,
                            "difficulty": one.difficulty,
                        }
                        for one in similars
                    ],
                    "model_version": bundle.version,
                }
                registry.histogram("serve.recommend.returned").observe(
                    float(len(similars))
                )
            else:
                upskill_slots.append(slot)
                queries.append(
                    RecommendQuery(
                        level=payload["level"],
                        k=payload["k"],
                        exclude=payload["exclude"],
                    )
                )
        if queries:
            try:
                answers = recommender.recommend_batch(queries)
            except ReproError:
                # A level invalidated by a hot-swap between validation and
                # flush must not poison its batch-mates: answer each query
                # alone (identical arithmetic) and fail only the bad slots.
                answers = []
                for query in queries:
                    try:
                        answers.append(
                            recommender.recommend_for_level(
                                query.level, k=query.k, exclude=query.exclude
                            )
                        )
                    except ReproError as exc:
                        answers.append(_RequestError(404, str(exc)))
            for slot, answer in zip(upskill_slots, answers):
                if isinstance(answer, _RequestError):
                    results[slot] = answer
                    continue
                payload = payloads[slot]
                results[slot] = {
                    "mode": "upskill",
                    "user": payload["user"],
                    "time": payload["time"],
                    "level": payload["level"],
                    "recommendations": [
                        {
                            "item": rec.item,
                            "score": rec.score,
                            "difficulty": rec.difficulty,
                            "challenge_fit": rec.challenge_fit,
                            "interest": rec.interest,
                        }
                        for rec in answer
                    ],
                    "model_version": bundle.version,
                }
                registry.histogram("serve.recommend.returned").observe(
                    float(len(answer))
                )
        return results

    async def _ingest_batch(self, payloads: list[list[dict[str, Any]]]) -> list[Any]:
        """One flush of /ingest requests: one WAL append, one fsync.

        Every request in the flush is journaled by a single
        :meth:`~repro.serve.ingest.WriteAheadLog.append` call, so the
        durability cost is per *flush*, not per request.  The append runs
        in a worker thread (``asyncio.to_thread``): its fsync can take
        tens of milliseconds on a busy disk, and blocking the event loop
        for that long would stall /predict, /healthz, and the reload
        watcher — exactly the latency the micro-batching SLOs exist to
        protect.  The batcher serializes flushes, so WAL batch ordering
        is unchanged.  A failed append fails every request in the flush —
        none of their events were acknowledged, which is exactly what the
        WAL's failed-append rollback assumes.
        """
        assert self.wal is not None
        flat: list[dict[str, Any]] = [
            event for events in payloads for event in events
        ]
        first_seq, _last_seq = await asyncio.to_thread(self.wal.append, flat)
        results: list[Any] = []
        offset = first_seq
        for events in payloads:
            results.append((offset, offset + len(events) - 1))
            offset += len(events)
        return results

    @staticmethod
    def _difficulty_body(
        bundle: ServingModel, prior: str, items: list[Any], values
    ) -> dict[str, Any]:
        return {
            "prior": prior,
            "items": items,
            "difficulties": [float(value) for value in values],
            "model_version": bundle.version,
        }


# ---------------------------------------------------------------- threading


class ServerThread:
    """Run a :class:`SkillServer` on a private event loop in a daemon thread.

    For in-process embedding: tests and ``tools/bench_serve.py`` start a
    real socket server without blocking the caller.  ``start()`` returns
    the bound ``(host, port)``; ``stop()`` shuts the loop down cleanly.
    """

    def __init__(self, server: SkillServer) -> None:
        self.server = server
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started: queue.Queue = queue.Queue(maxsize=1)

    def start(self) -> tuple[str, int]:
        if self._thread is not None:
            raise ConfigurationError("server thread already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        outcome = self._started.get()
        if isinstance(outcome, BaseException):
            self._thread.join()
            self._thread = None
            raise outcome
        return outcome

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            address = loop.run_until_complete(self.server.start())
        except BaseException as exc:  # surfaced to start() in the caller
            loop.close()
            self._started.put(exc)
            return
        self._loop = loop
        self._started.put(address)
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.server.stop())
            loop.close()

    def stop(self) -> None:
        if self._thread is None:
            return
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._thread = None
        self._loop = None


# ---------------------------------------------------------------- helpers


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Merge per-worker ``/metrics`` snapshots into one deployment view.

    Counters and gauges sum (queue depths, request totals, RSS: the
    deployment-wide figures); histograms sum ``count``/``total`` exactly
    and recompute the mean, while the quantile fields take the per-worker
    max — the deployment's p95 is not derivable from per-worker p95s, so
    the merge reports the most pessimistic worker, which is the honest
    bound for alerting.  Exemplars are per-worker samples and don't
    survive the merge.  Schema/run/telemetry come from the first (local)
    snapshot, so the merged payload still validates as
    ``repro-metrics/1``.
    """
    if not snapshots:
        return {}
    merged: dict[str, Any] = {
        key: value
        for key, value in snapshots[0].items()
        if key not in ("counters", "gauges", "histograms")
    }
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict[str, float]] = {}
    for snapshot in snapshots:
        for name, value in (snapshot.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in (snapshot.get("gauges") or {}).items():
            gauges[name] = gauges.get(name, 0) + value
        for name, summary in (snapshot.get("histograms") or {}).items():
            if not isinstance(summary, dict):
                continue
            into = histograms.get(name)
            if into is None:
                histograms[name] = {
                    key: value
                    for key, value in summary.items()
                    if isinstance(value, (int, float))
                }
                continue
            for key, value in summary.items():
                if not isinstance(value, (int, float)):
                    continue
                if key in ("count", "total"):
                    into[key] = into.get(key, 0) + value
                elif key in ("min",):
                    into[key] = min(into.get(key, value), value)
                else:
                    into[key] = max(into.get(key, value), value)
    for summary in histograms.values():
        if summary.get("count"):
            summary["mean"] = summary.get("total", 0.0) / summary["count"]
    merged["counters"] = counters
    merged["gauges"] = gauges
    merged["histograms"] = histograms
    return merged


def _json_body(request: _Request) -> Any:
    if not request.body:
        raise _HttpError(400, "request body is required")
    try:
        return json.loads(request.body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _HttpError(400, f"malformed JSON body ({exc})") from None


def _single_param(request: _Request, name: str) -> str:
    values = request.params.get(name)
    if not values:
        raise _HttpError(400, f"missing required query parameter {name!r}")
    return values[0]


def _as_number(value: Any, name: str) -> float:
    if isinstance(value, bool) or value is None:
        raise _HttpError(400, f"'{name}' must be a number")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise _HttpError(400, f"'{name}' must be a number") from None
