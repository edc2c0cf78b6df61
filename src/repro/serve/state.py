"""Serving model state: atomic hot-reload of saved model artifacts.

A serving process must outlive any one model: training re-saves the
``<prefix>.json`` / ``<prefix>.npz`` pair periodically, and the server
picks the new pair up without dropping requests.  :class:`ModelState`
holds one immutable :class:`ServingModel` bundle at a time and swaps it
behind a single attribute assignment — readers that grabbed the previous
bundle keep a fully consistent (model, difficulty tables, metadata)
snapshot until they finish.

The watch/validate/swap cycle leans entirely on PR 1's staged-commit
writer and checksumming reader (:mod:`repro.core.serialize`):

1. *watch* — each poll stats both files; a changed ``(mtime_ns, size)``
   signature marks a candidate reload.
2. *validate* — :func:`~repro.core.serialize.load_model` verifies the
   JSON-carried SHA-256 of the NPZ payload, so a pair caught mid-commit
   (the window between the two ``os.replace`` calls) or torn by a crash
   is a typed :class:`~repro.exceptions.DataError`, never a bad model.
3. *swap or keep* — on success the new bundle replaces the old in one
   assignment (``serve.reloads``); on failure the old model keeps
   serving (``serve.reload_failures``) and the retry waits for the
   signature to change again — which the completing writer's final
   ``os.replace`` guarantees it will.

A server runs the cycle as a :class:`ReloadAttempt`: the watch and the
swap run on the event loop, the build in a worker thread, so reads never
queue behind a model load.  The swap lands only if the bundle the
attempt was built against still serves; a tenant unloaded, evicted or
swapped in the meantime drops the new bundle (``serve.reload_dropped``).
When the outgoing bundle had built its similarity index, the build also
builds the new bundle's, so ``similar_harder`` stays warm across swaps
while a deployment that never asks for it never pays the quadratic build.

Each bundle precomputes what the endpoints gather from: the difficulty
estimates for both priors (so ``/difficulty`` is a pure
:func:`~repro.core.difficulty.difficulty_array` gather) and the artifact
metadata (checksum, format version, telemetry run id) that ``/healthz``
and ``repro inspect`` report, so operators can verify *which* artifact a
running server actually loaded.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from repro.core.difficulty import PRIOR_EMPIRICAL, PRIOR_UNIFORM, generation_difficulty
from repro.core.model import SkillModel
from repro.core.serialize import (
    artifact_metadata,
    attach_model_shm,
    load_model,
    load_similarity_payload,
    model_resident_bytes,
    shm_similarity_payload,
)
from repro.exceptions import DataError, ReproError
from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.recsys.similarity import ItemSimilarityIndex, build_similarity_index
from repro.recsys.upskill import UpskillConfig, UpskillRecommender

__all__ = [
    "DEFAULT_TENANT",
    "ManifestModelState",
    "ModelState",
    "ReloadAttempt",
    "ServingModel",
    "TenantRegistry",
    "TenantSpec",
]

_log = get_logger("serve.state")

#: tenant the unprefixed routes (`/predict` vs `/t/<name>/predict`) map to.
DEFAULT_TENANT = "default"

#: stat fields that change whenever `os.replace` lands a new artifact.
_Signature = tuple[tuple[int, int], tuple[int, int]]


class _SegmentAttachment:
    """Keeps a shared-memory mapping alive as long as its bundle is live.

    Workers never unlink — the publisher owns segment lifecycle — but each
    attached bundle must hold its mapping open until the last reader of
    its zero-copy arrays is gone.  Tying the mapping to the bundle (and
    closing on GC) makes eviction and hot-swap safe without reference
    counting: an old generation's mapping dies exactly when the last
    in-flight request drops the old bundle.
    """

    __slots__ = ("segment",)

    def __init__(self, segment: Any) -> None:
        self.segment = segment

    def close(self) -> None:
        segment, self.segment = self.segment, None
        if segment is None:
            return
        try:
            segment.close()
        except BufferError:
            # Views are still exported (in-flight readers); the interpreter
            # unmaps when the last view dies, so this is not a leak.
            pass

    def __del__(self) -> None:  # pragma: no cover - GC timing varies
        self.close()


class ServingModel:
    """One immutable, fully validated model bundle the server reads from.

    The recommendation surface hangs off the bundle too: ``similarity``
    holds the item-similarity index (zero-copy shm views in prefork
    workers, artifact arrays otherwise, built in-process on first use as
    a last resort, or by the reload that replaced a bundle which had
    one) and ``recommender()`` memoizes one
    :class:`~repro.recsys.upskill.UpskillRecommender` per serve
    configuration.  Both caches die with the bundle on hot-swap or LRU
    eviction, so a reloaded tenant can never serve recommendations from
    a previous model's difficulty scale.
    """

    __slots__ = (
        "model",
        "metadata",
        "difficulties",
        "version",
        "resident_bytes",
        "similarity",
        "_attachment",
        "_recommenders",
    )

    def __init__(
        self,
        model: SkillModel,
        metadata: Mapping[str, Any],
        difficulties: Mapping[str, Mapping[Any, float]],
        version: int,
        *,
        resident_bytes: int = 0,
        similarity: ItemSimilarityIndex | None = None,
        attachment: _SegmentAttachment | None = None,
    ) -> None:
        self.model = model
        self.metadata = dict(metadata)
        self.difficulties = difficulties
        self.version = version
        self.resident_bytes = int(resident_bytes)
        self.similarity = similarity
        self._attachment = attachment
        self._recommenders: dict[tuple, UpskillRecommender] = {}

    def recommender(self, config: UpskillConfig) -> UpskillRecommender:
        """The bundle's recommender for ``config``, built once per config.

        Always blends against the empirical-prior difficulty estimates —
        the ones the paper recommends for serving (they cover
        never-selected items and are robust on rare ones).
        """
        key = (
            config.window_low,
            config.window_high,
            config.interest_weight,
            config.decay,
        )
        recommender = self._recommenders.get(key)
        if recommender is None:
            recommender = UpskillRecommender(
                self.model, self.difficulties[PRIOR_EMPIRICAL], config
            )
            self._recommenders[key] = recommender
        return recommender

    def similarity_index(self) -> ItemSimilarityIndex:
        """The bundle's similarity index, building it in-process if the
        artifact shipped without one (pre-index artifacts stay servable).

        The lazy build's footprint is added to ``resident_bytes`` so the
        tenant registry's LRU budget keeps charging honestly.
        """
        if self.similarity is None:
            self.similarity = build_similarity_index(self.model)
            self.resident_bytes += self.similarity.nbytes
            registry = get_registry()
            registry.counter("serve.recommend.index_builds").inc()
            registry.gauge("serve.recommend.index_items").set(
                float(len(self.similarity.items))
            )
        return self.similarity

    def close(self) -> None:
        """Release any shared-memory mapping this bundle holds open."""
        self._recommenders.clear()
        self.similarity = None
        if self._attachment is not None:
            self._attachment.close()


def _build_bundle(prefix: Path, version: int) -> ServingModel:
    model = load_model(prefix)
    metadata = artifact_metadata(prefix)
    difficulties = {
        PRIOR_UNIFORM: generation_difficulty(model, prior=PRIOR_UNIFORM),
        PRIOR_EMPIRICAL: generation_difficulty(model, prior=PRIOR_EMPIRICAL),
    }
    # Artifacts saved with a precomputed similarity index bring it along;
    # older pairs leave ``similarity`` None and the bundle builds one
    # in-process on the first /recommend that needs it.
    payload = load_similarity_payload(prefix)
    similarity = (
        ItemSimilarityIndex.from_payload(
            payload, model.encoded.vocabulary("__item_id__")
        )
        if payload is not None
        else None
    )
    return ServingModel(
        model,
        metadata,
        difficulties,
        version,
        resident_bytes=model_resident_bytes(model)
        + (similarity.nbytes if similarity is not None else 0),
        similarity=similarity,
    )


class ReloadAttempt:
    """One poll's reload, carried from the check through the build to the swap.

    :meth:`ModelState.begin_reload` creates it on the event loop; ``due``
    says whether the artifact changed and a build should run.
    :meth:`build` reads only the artifact and the base bundle, so it may
    run in a worker thread; :meth:`ModelState.maybe_reload` then commits
    it back on the loop.
    """

    __slots__ = ("state", "base", "signature", "bundle", "error")

    def __init__(
        self, state: ModelState, base: ServingModel, signature: _Signature | None
    ) -> None:
        self.state = state
        self.base = base
        self.signature = signature
        self.bundle: ServingModel | None = None
        self.error: Exception | None = None

    @property
    def due(self) -> bool:
        return self.signature is not None

    def build(self) -> None:
        """Build the next bundle, keeping the similarity index warm.

        A typed load failure is kept for the swap step to count; any other
        exception propagates to the caller.
        """
        if self.signature is None:
            return
        try:
            self.bundle = self.state._build(self.base.version + 1)
        except (ReproError, OSError) as exc:
            self.error = exc
            return
        if self.base.similarity is not None:
            self.bundle.similarity_index()


class ModelState:
    """The current model plus the machinery to refresh it from disk.

    ``load()`` must succeed once before serving; ``maybe_reload()`` is
    then called by the server's watch task every ``poll_seconds`` and is
    also safe to call directly (tests, manual reload endpoints).

    Reload failures back off with capped exponential delay: a writer that
    keeps landing broken pairs (each with a *fresh* stat signature, so the
    failed-signature memo alone cannot help) would otherwise cost a full
    load-and-checksum every poll.  While inside the backoff window, polls
    are suppressed and counted in ``serve.reload_retry``; any successful
    swap resets the backoff.  ``clock`` is injectable for tests.
    """

    def __init__(
        self,
        path_prefix: str | Path,
        *,
        poll_seconds: float = 1.0,
        retry_base_seconds: float = 1.0,
        retry_cap_seconds: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.prefix = Path(path_prefix)
        self.poll_seconds = float(poll_seconds)
        self.retry_base_seconds = float(retry_base_seconds)
        self.retry_cap_seconds = float(retry_cap_seconds)
        self.clock = clock
        self.reloads = 0
        self.reload_failures = 0
        self._current: ServingModel | None = None
        self._signature: _Signature | None = None
        self._failed_signature: _Signature | None = None
        self._failures = 0
        self._retry_at = 0.0

    # ------------------------------------------------------------- access

    @property
    def loaded(self) -> bool:
        return self._current is not None

    @property
    def current(self) -> ServingModel:
        if self._current is None:
            raise DataError(f"no model loaded from {self.prefix}")
        return self._current

    # ------------------------------------------------------------ loading

    def _stat_signature(self) -> _Signature | None:
        try:
            json_stat = os.stat(self.prefix.with_suffix(".json"))
            npz_stat = os.stat(self.prefix.with_suffix(".npz"))
        except OSError:
            return None
        return (
            (json_stat.st_mtime_ns, json_stat.st_size),
            (npz_stat.st_mtime_ns, npz_stat.st_size),
        )

    def _build(self, version: int) -> ServingModel:
        """Build the next bundle; subclasses change *where* models come
        from (disk pair vs shm manifest) without touching the watch/swap
        protocol above."""
        return _build_bundle(self.prefix, version)

    def unload(self) -> None:
        """Drop the current bundle (LRU eviction); ``load()`` restores it."""
        bundle, self._current = self._current, None
        self._signature = None
        if bundle is not None:
            bundle.close()

    def close(self) -> None:
        self.unload()

    def _installed(self, bundle: ServingModel) -> None:
        """Hook: ``bundle`` just became the serving bundle."""

    def load(self) -> ServingModel:
        """Initial load; raises :class:`~repro.exceptions.DataError` when
        the artifact pair is missing or invalid."""
        # Signature first: if the pair is replaced mid-read the signatures
        # diverge and the next poll re-reads — never a silent stale serve.
        self._signature = self._stat_signature()
        bundle = self._build(version=1)
        self._current = bundle
        self._installed(bundle)
        _log.info(
            "model loaded for serving",
            extra={
                "obs": {
                    "prefix": str(self.prefix),
                    "checksum": bundle.metadata.get("npz_checksum", "")[:12],
                    "users": bundle.metadata.get("num_users"),
                    "items": bundle.metadata.get("num_items"),
                }
            },
        )
        return bundle

    def begin_reload(self) -> ReloadAttempt:
        """Decide whether this poll reloads; cheap, runs on the loop.

        The attempt is due when the artifact's signature moved, is not the
        pair that already failed validation, and the failure backoff has
        expired.
        """
        if self._current is None:
            raise DataError("maybe_reload() before load()")
        signature = self._stat_signature()
        if (
            signature is None
            or signature == self._signature
            # This exact broken pair already failed validation; wait for
            # the writer's final os.replace to move the signature again.
            or signature == self._failed_signature
        ):
            signature = None
        elif self.clock() < self._retry_at:
            # Inside the failure backoff window: don't pay a fresh
            # load-and-checksum for every poll against a flapping writer.
            get_registry().counter("serve.reload_retry").inc()
            signature = None
        return ReloadAttempt(self, self._current, signature)

    def maybe_reload(self, attempt: ReloadAttempt | None = None) -> bool:
        """Swap in a newly written artifact pair; returns True on a swap.

        Without ``attempt`` the whole cycle runs inline.  A server passes
        the attempt it began here and built off the event loop; the swap
        then lands only if the bundle it was built against still serves,
        and a stale attempt's bundle is closed instead.

        The previous model keeps serving through every failure mode: a
        half-committed pair (checksum mismatch), a vanished file, or a
        malformed artifact only increments ``serve.reload_failures``.
        """
        if attempt is None:
            attempt = self.begin_reload()
            attempt.build()
        if not attempt.due:
            return False
        if attempt.base is not self._current:
            # Unloaded, evicted or swapped while the bundle was building.
            if attempt.bundle is not None:
                attempt.bundle.close()
            get_registry().counter("serve.reload_dropped").inc()
            return False
        signature = attempt.signature
        if attempt.error is not None:
            self.reload_failures += 1
            self._failed_signature = signature
            self._failures += 1
            backoff = min(
                self.retry_cap_seconds,
                self.retry_base_seconds * (2 ** (self._failures - 1)),
            )
            self._retry_at = self.clock() + backoff
            get_registry().counter("serve.reload_failures").inc()
            _log.warning(
                "model reload failed; keeping previous model",
                extra={
                    "obs": {
                        "prefix": str(self.prefix),
                        "serving_version": self._current.version,
                        "error": str(attempt.error),
                    }
                },
            )
            return False
        bundle = attempt.bundle
        assert bundle is not None
        self._signature = signature
        self._failed_signature = None
        self._failures = 0
        self._retry_at = 0.0
        self._current = bundle  # the atomic swap: one attribute assignment
        self._installed(bundle)
        self.reloads += 1
        get_registry().counter("serve.reloads").inc()
        tracer = get_tracer()
        if tracer.enabled:
            # The swap closes the ingest→fold→publish→swap loop: re-emit
            # the folded events' trace ids (journaled into the artifact's
            # foldin metadata by the worker) so a trace that started at
            # POST /ingest ends at the version now serving.
            extra = bundle.metadata.get("extra")
            foldin = extra.get("foldin") if isinstance(extra, dict) else None
            attrs: dict[str, Any] = {
                "version": bundle.version,
                "prefix": str(self.prefix),
            }
            if isinstance(foldin, dict):
                if isinstance(foldin.get("watermark_seq"), int):
                    attrs["watermark_seq"] = foldin["watermark_seq"]
                if isinstance(foldin.get("traces"), list):
                    attrs["traces"] = foldin["traces"]
            tracer.event("serve.swap", **attrs)
        _log.info(
            "model hot-reloaded",
            extra={
                "obs": {
                    "prefix": str(self.prefix),
                    "version": bundle.version,
                    "checksum": bundle.metadata.get("npz_checksum", "")[:12],
                }
            },
        )
        return True


# ----------------------------------------------------------- shm generations


def _reattach_hook() -> None:
    """Fault seam: runs between reading a generation manifest and attaching
    its segment.  ``testing.faults`` patches this to kill a worker inside
    the re-attach window; forked workers inherit the patch."""


class ManifestModelState(ModelState):
    """Model state fed by a shared-memory generation manifest, not disk.

    In prefork mode the parent process owns the artifact watch: it loads
    each new pair once, publishes the arrays into one shm segment via
    :func:`~repro.core.serialize.publish_model_shm`, and atomically
    rewrites a per-tenant manifest JSON naming the segment, its SHA-256,
    and a monotonically increasing *generation*.  Workers run this class
    against the manifest file: the same watch/validate/swap protocol as
    the disk watcher, except *validate* is the attach-time checksum gate
    and *swap* maps zero-copy views instead of decompressing arrays.

    ``version`` always equals the manifest generation, so every worker
    reports the same version for the same physical segment — the parity
    discipline the cross-worker tests pin.  ``observed_generation``
    records the newest generation this process has served (even if the
    bundle was later evicted); the worker publishes it as
    its ack, and the parent unlinks an old generation only once every
    live worker acks a newer one.
    """

    def __init__(self, manifest_path: str | Path, **kwargs: Any) -> None:
        super().__init__(manifest_path, **kwargs)
        self.manifest_path = Path(manifest_path)
        self.observed_generation = 0

    def _stat_signature(self) -> _Signature | None:
        try:
            stat = os.stat(self.manifest_path)
        except OSError:
            return None
        return ((stat.st_mtime_ns, stat.st_size), (0, 0))

    def _installed(self, bundle: ServingModel) -> None:
        self.observed_generation = max(self.observed_generation, bundle.version)

    def _build(self, version: int) -> ServingModel:
        try:
            manifest = json.loads(self.manifest_path.read_text("utf-8"))
        except FileNotFoundError as exc:
            raise DataError(f"{self.manifest_path}: no generation manifest") from exc
        except (OSError, ValueError) as exc:
            raise DataError(f"{self.manifest_path}: unreadable manifest: {exc}") from exc
        descriptor = manifest.get("descriptor")
        if not isinstance(descriptor, Mapping):
            raise DataError(f"{self.manifest_path}: manifest has no segment descriptor")
        _reattach_hook()
        model, segment = attach_model_shm(descriptor)
        generation = int(manifest.get("generation", version))
        metadata = dict(manifest.get("metadata") or {})
        metadata.setdefault("npz_checksum", str(descriptor.get("sha256", "")))
        difficulties = {
            PRIOR_UNIFORM: generation_difficulty(model, prior=PRIOR_UNIFORM),
            PRIOR_EMPIRICAL: generation_difficulty(model, prior=PRIOR_EMPIRICAL),
        }
        # The publisher bakes the similarity index into the same segment;
        # attaching yields zero-copy views, so N workers share one physical
        # copy of the neighbor tables (the smaps/Pss property the prefork
        # bench asserts).  The mapping stays alive via the attachment.
        payload = shm_similarity_payload(segment)
        similarity = (
            ItemSimilarityIndex.from_payload(
                payload, model.encoded.vocabulary("__item_id__")
            )
            if payload is not None
            else None
        )
        return ServingModel(
            model,
            metadata,
            difficulties,
            generation,
            resident_bytes=int(descriptor.get("bytes", 0)),
            similarity=similarity,
            attachment=_SegmentAttachment(segment),
        )


# -------------------------------------------------------------- multi-tenant


@dataclass(frozen=True)
class TenantSpec:
    """One named model a deployment serves.

    Exactly one of ``prefix`` (disk artifact pair) or ``manifest`` (shm
    generation manifest, prefork workers) names the model source.
    ``max_queue`` optionally overrides the deployment-wide admission
    queue bound for this tenant's endpoints.
    """

    name: str
    prefix: Path | None = None
    manifest: Path | None = None
    max_queue: int | None = None

    def __post_init__(self) -> None:
        if (self.prefix is None) == (self.manifest is None):
            raise DataError(
                f"tenant {self.name!r}: exactly one of prefix/manifest required"
            )


class TenantRegistry:
    """Many named :class:`ModelState`s behind one LRU residency budget.

    The registry is the single place serving code resolves a tenant name
    to a model bundle.  States load lazily on first request and stay
    resident until the byte budget (counted against
    ``ServingModel.resident_bytes`` — the shm segment size in prefork
    workers) forces the least-recently-used tenant out.  An evicted
    tenant is not an error: the next request reloads it, paying one
    load/attach.  A single model larger than the whole budget still
    serves (with a warning) — the budget bounds *aggregate* residency,
    it never bricks a tenant.

    Reload state — including the failure backoff in
    :meth:`ModelState.maybe_reload` — lives per tenant, so one tenant's
    corrupt artifact never stalls hot-reload for healthy ones;
    :meth:`maybe_reload_all` additionally fences unexpected per-tenant
    exceptions.
    """

    def __init__(
        self,
        specs: Iterable[TenantSpec],
        *,
        default: str = DEFAULT_TENANT,
        residency_budget_bytes: int | None = None,
        poll_seconds: float = 1.0,
        retry_base_seconds: float = 1.0,
        retry_cap_seconds: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.default = default
        self.residency_budget_bytes = (
            int(residency_budget_bytes) if residency_budget_bytes else None
        )
        self.evictions = 0
        self._specs: dict[str, TenantSpec] = {}
        self._states: "OrderedDict[str, ModelState]" = OrderedDict()
        for spec in specs:
            if spec.name in self._specs:
                raise DataError(f"duplicate tenant {spec.name!r}")
            self._specs[spec.name] = spec
            kwargs: dict[str, Any] = {
                "poll_seconds": poll_seconds,
                "retry_base_seconds": retry_base_seconds,
                "retry_cap_seconds": retry_cap_seconds,
                "clock": clock,
            }
            if spec.manifest is not None:
                state: ModelState = ManifestModelState(spec.manifest, **kwargs)
            else:
                state = ModelState(spec.prefix, **kwargs)
            self._states[spec.name] = state
        if self.default not in self._specs:
            raise DataError(f"default tenant {self.default!r} has no spec")

    @classmethod
    def single(cls, state: ModelState, *, name: str = DEFAULT_TENANT) -> "TenantRegistry":
        """Wrap an already-constructed state as a one-tenant registry —
        the adapter that keeps the original single-model server API."""
        registry = cls.__new__(cls)
        registry.default = name
        registry.residency_budget_bytes = None
        registry.evictions = 0
        if isinstance(state, ManifestModelState):
            spec = TenantSpec(name, manifest=state.manifest_path)
        else:
            spec = TenantSpec(name, prefix=state.prefix)
        registry._specs = {name: spec}
        registry._states = OrderedDict({name: state})
        return registry

    # ------------------------------------------------------------- access

    def names(self) -> list[str]:
        return list(self._specs)

    def spec(self, name: str) -> TenantSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise DataError(f"unknown tenant {name!r}") from None

    def state(self, name: str | None = None) -> ModelState:
        key = self.default if name is None else name
        try:
            return self._states[key]
        except KeyError:
            raise DataError(f"unknown tenant {key!r}") from None

    def resident_bytes(self) -> int:
        return sum(
            state.current.resident_bytes
            for state in self._states.values()
            if state.loaded
        )

    def loaded_names(self) -> list[str]:
        return [name for name, state in self._states.items() if state.loaded]

    def get(self, name: str | None = None) -> ServingModel:
        """Resolve a tenant to its current bundle, loading and evicting
        as the residency budget requires.  Raises
        :class:`~repro.exceptions.DataError` for unknown tenants and for
        tenants whose artifact cannot be loaded."""
        key = self.default if name is None else name
        state = self.state(key)
        if not state.loaded:
            state.load()
            get_registry().counter(f"serve.tenant.{key}.loads").inc()
            self._enforce_budget(keep=key)
        self._states.move_to_end(key)
        self._update_gauges()
        return state.current

    # ------------------------------------------------------------ budget

    def _enforce_budget(self, *, keep: str) -> None:
        budget = self.residency_budget_bytes
        if budget is None:
            return
        registry = get_registry()
        while self.resident_bytes() > budget:
            victim = next(
                (
                    name
                    for name, state in self._states.items()
                    if state.loaded and name != keep
                ),
                None,
            )
            if victim is None:
                _log.warning(
                    "tenant alone exceeds residency budget; serving anyway",
                    extra={
                        "obs": {
                            "tenant": keep,
                            "resident_bytes": self.resident_bytes(),
                            "budget_bytes": budget,
                        }
                    },
                )
                return
            self._states[victim].unload()
            self.evictions += 1
            registry.counter("serve.tenant.evictions").inc()
            registry.gauge(f"serve.tenant.{victim}.resident_bytes").set(0.0)
            _log.info(
                "tenant evicted for residency budget",
                extra={"obs": {"tenant": victim, "budget_bytes": budget}},
            )

    def _update_gauges(self) -> None:
        registry = get_registry()
        registry.gauge("serve.tenant.models").set(float(len(self.loaded_names())))
        registry.gauge("serve.tenant.resident_bytes").set(float(self.resident_bytes()))
        for name, state in self._states.items():
            if state.loaded:
                registry.gauge(f"serve.tenant.{name}.resident_bytes").set(
                    float(state.current.resident_bytes)
                )

    # ----------------------------------------------------------- reloads

    async def maybe_reload_all(self) -> int:
        """Poll every resident tenant for a new artifact; returns the swap
        count.  Each due bundle builds in a worker thread while the loop
        keeps serving; the checks, the swaps and the gauges run on the
        loop.  Failures (expected or not) are isolated per tenant."""
        swapped = 0
        # A snapshot: requests may reorder or evict tenants during a build.
        for name, state in list(self._states.items()):
            if not state.loaded:
                continue
            try:
                attempt = state.begin_reload()
                if attempt.due:
                    await asyncio.to_thread(attempt.build)
                swapped += state.maybe_reload(attempt)
            except Exception as exc:  # noqa: BLE001 - tenant isolation fence
                _log.warning(
                    "tenant reload raised; tenant keeps previous model",
                    extra={"obs": {"tenant": name, "error": str(exc)}},
                )
        if swapped:
            self._update_gauges()
        return swapped

    def observed_generations(self) -> dict[str, int]:
        """Per-tenant newest attached shm generation — the worker's ack
        payload.  Disk-backed tenants report their current version."""
        acks: dict[str, int] = {}
        for name, state in self._states.items():
            if isinstance(state, ManifestModelState):
                if state.observed_generation:
                    acks[name] = state.observed_generation
            elif state.loaded:
                acks[name] = state.current.version
        return acks

    # ----------------------------------------------------------- teardown

    def close(self) -> None:
        """Unload every tenant and release their shm mappings."""
        for state in self._states.values():
            state.close()
        self._update_gauges()
