"""Multi-tenant serving: registry residency, routing, and parity.

The tenant registry's contract has three load-bearing pieces:

- *routing*: ``/t/<name>/...`` serves the named model, the unprefixed
  routes serve the default tenant, and the two are byte-identical when
  they name the same tenant;
- *residency*: LRU eviction under a byte budget never bricks a tenant —
  an evicted model reloads on its next request;
- *isolation*: one tenant's corrupt artifact (reload-failure backoff)
  or traffic burst (admission) never degrades a healthy tenant.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import sys
import threading
import time

import pytest

from repro.core.serialize import (
    attach_model_shm,
    model_resident_bytes,
    publish_model_shm,
    save_model,
)
from repro.core.training import fit_skill_model
from repro.exceptions import DataError
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.serve import (
    ModelState,
    ServeConfig,
    ServerThread,
    SkillServer,
    TenantRegistry,
    TenantSpec,
)
from repro.serve.state import ServingModel


def _request(host, port, method, path, body=None):
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, payload, headers)
        response = conn.getresponse()
        return response.status, response.read(), dict(response.getheaders())
    finally:
        conn.close()


@pytest.fixture
def second_model(tiny_log, tiny_catalog, tiny_feature_set):
    """A model distinguishable from ``fitted_tiny_model`` (fewer levels)."""
    return fit_skill_model(
        tiny_log,
        tiny_catalog,
        tiny_feature_set.with_id_feature(),
        num_levels=2,
        init_min_actions=5,
        max_iterations=20,
    )


@pytest.fixture
def two_tenant_prefixes(fitted_tiny_model, second_model, tmp_path):
    alpha = tmp_path / "alpha"
    beta = tmp_path / "beta"
    save_model(fitted_tiny_model, alpha)
    save_model(second_model, beta)
    return alpha, beta


# ------------------------------------------------------------- shm parity


class TestModelShm:
    def test_round_trip_is_byte_identical(self, fitted_tiny_model, tmp_path):
        """A model re-saved from zero-copy shm views matches the original
        artifact byte for byte — the parity the prefork workers rely on."""
        segment, descriptor = publish_model_shm(fitted_tiny_model)
        try:
            attached, mapping = attach_model_shm(descriptor)
            save_model(fitted_tiny_model, tmp_path / "disk")
            save_model(attached, tmp_path / "shm")
            for suffix in (".json", ".npz"):
                assert (tmp_path / "disk").with_suffix(suffix).read_bytes() == (
                    tmp_path / "shm"
                ).with_suffix(suffix).read_bytes()
            del attached
            mapping.close()
        finally:
            segment.close()
            segment.unlink()

    def test_attach_refuses_wrong_checksum(self, fitted_tiny_model):
        segment, descriptor = publish_model_shm(fitted_tiny_model)
        try:
            with pytest.raises(DataError, match="checksum mismatch"):
                attach_model_shm({**descriptor, "sha256": "0" * 64})
        finally:
            segment.close()
            segment.unlink()

    def test_attached_arrays_are_read_only(self, fitted_tiny_model):
        segment, descriptor = publish_model_shm(fitted_tiny_model)
        try:
            attached, mapping = attach_model_shm(descriptor)
            column = attached.encoded.columns[0]  # zero-copy shm view
            with pytest.raises((ValueError, RuntimeError)):
                column[0] = 0  # one writer would corrupt every worker
            del attached
            mapping.close()
        finally:
            segment.close()
            segment.unlink()

    def test_resident_bytes_prices_the_arrays(self, fitted_tiny_model):
        segment, descriptor = publish_model_shm(fitted_tiny_model)
        try:
            # The registry charges disk- and shm-resident tenants alike:
            # array bytes dominate, header/alignment slack stays small.
            assert 0 < model_resident_bytes(fitted_tiny_model) <= descriptor["bytes"]
        finally:
            segment.close()
            segment.unlink()


# -------------------------------------------------------------- registry


class TestTenantRegistry:
    def test_budget_evicts_lru_and_reload_restores(self, two_tenant_prefixes):
        alpha, beta = two_tenant_prefixes
        with use_registry(MetricsRegistry()):
            registry = TenantRegistry(
                [
                    TenantSpec("default", prefix=alpha),
                    TenantSpec("beta", prefix=beta),
                ],
                residency_budget_bytes=1,  # tighter than any one model
            )
            registry.get("default")
            assert registry.loaded_names() == ["default"]
            registry.get("beta")  # loading beta evicts the LRU default
            assert registry.loaded_names() == ["beta"]
            assert registry.evictions == 1
            # Eviction never bricks a tenant: the next request reloads.
            bundle = registry.get("default")
            assert bundle.version == 1
            registry.close()
            assert registry.loaded_names() == []

    def test_single_oversized_tenant_still_serves(self, two_tenant_prefixes):
        alpha, _beta = two_tenant_prefixes
        with use_registry(MetricsRegistry()):
            registry = TenantRegistry(
                [TenantSpec("default", prefix=alpha)], residency_budget_bytes=1
            )
            assert registry.get("default").version == 1
            assert registry.loaded_names() == ["default"]

    def test_unknown_tenant_is_a_data_error(self, two_tenant_prefixes):
        alpha, _beta = two_tenant_prefixes
        registry = TenantRegistry([TenantSpec("default", prefix=alpha)])
        with pytest.raises(DataError, match="unknown tenant"):
            registry.get("nope")

    def test_backoff_is_per_tenant(self, two_tenant_prefixes, fitted_tiny_model):
        """One tenant's corrupt artifact must not stall healthy reloads.

        Regression for the single-model assumption: backoff state lives
        on each tenant's own ModelState, and maybe_reload_all fences
        per-tenant failures, so the healthy tenant keeps hot-swapping
        while the broken one sits in its backoff window.
        """
        alpha, beta = two_tenant_prefixes
        with use_registry(MetricsRegistry()):
            registry = TenantRegistry(
                [
                    TenantSpec("default", prefix=alpha),
                    TenantSpec("beta", prefix=beta),
                ],
                retry_base_seconds=3600.0,  # one failure parks beta for an hour
            )
            registry.get("default")
            registry.get("beta")
            # Corrupt beta's artifact (fresh signature, bad payload) and
            # land a legitimate new artifact for the default tenant.
            beta.with_suffix(".npz").write_bytes(b"garbage")
            save_model(fitted_tiny_model, alpha)
            assert asyncio.run(registry.maybe_reload_all()) == 1
            assert registry.get("default").version == 2
            assert registry.state("beta").reload_failures == 1
            assert registry.get("beta").version == 1  # old model still serves
            # A second healthy swap goes through while beta is backed off.
            save_model(fitted_tiny_model, alpha)
            assert asyncio.run(registry.maybe_reload_all()) == 1
            assert registry.get("default").version == 3


class TestOffLoopReload:
    def test_tenant_evicted_while_its_bundle_builds_is_not_brought_back(
        self, two_tenant_prefixes, second_model, monkeypatch
    ):
        """The reload thread's bundle is dropped when its tenant was evicted
        on the loop mid-build, and the budget counts only what serves."""
        alpha, beta = two_tenant_prefixes
        building, release = threading.Event(), threading.Event()
        built: list[ServingModel] = []
        closed: list[ServingModel] = []
        original_build = ModelState._build
        original_close = ServingModel.close

        def gated_build(state, version):
            if version == 1:
                return original_build(state, version)
            building.set()
            release.wait(10.0)
            built.append(original_build(state, version))
            return built[-1]

        def spy_close(bundle):
            closed.append(bundle)
            original_close(bundle)

        monkeypatch.setattr(ModelState, "_build", gated_build)
        monkeypatch.setattr(ServingModel, "close", spy_close)

        async def scenario(registry):
            reload = asyncio.create_task(registry.maybe_reload_all())
            while not building.is_set():
                await asyncio.sleep(0.005)
            registry.get("beta")  # evicts the default tenant mid-build
            release.set()
            return await reload

        with use_registry(MetricsRegistry()) as metrics:
            registry = TenantRegistry(
                [
                    TenantSpec("default", prefix=alpha),
                    TenantSpec("beta", prefix=beta),
                ],
                residency_budget_bytes=1,  # room for one tenant at a time
            )
            evicted = registry.get("default")
            save_model(second_model, alpha)
            stat = alpha.with_suffix(".json").stat()
            os.utime(
                alpha.with_suffix(".json"),
                ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000),
            )
            assert asyncio.run(scenario(registry)) == 0
            assert registry.loaded_names() == ["beta"]
            assert closed == [evicted, built[0]]
            beta_bytes = registry.state("beta").current.resident_bytes
            assert registry.resident_bytes() == beta_bytes
            snapshot = metrics.snapshot()
            assert snapshot["gauges"]["serve.tenant.resident_bytes"] == beta_bytes
            assert snapshot["gauges"]["serve.tenant.default.resident_bytes"] == 0.0
            assert snapshot["counters"]["serve.reload_dropped"] == 1
            # The evicted tenant reloads on demand, from the new artifact.
            assert registry.get("default").model.num_levels == 2
            registry.close()


    def test_reload_churn_under_eviction_never_serves_a_closed_bundle(
        self, two_tenant_prefixes, fitted_tiny_model, second_model, monkeypatch
    ):
        """Stress: rewrites, off-loop reloads and evicting reads interleave
        with a tiny thread switch interval; the registry only ever holds
        one open bundle per loaded tenant, within its one-tenant budget."""
        alpha, beta = two_tenant_prefixes
        closed: list[ServingModel] = []
        original_close = ServingModel.close

        def spy_close(bundle):
            closed.append(bundle)
            original_close(bundle)

        monkeypatch.setattr(ServingModel, "close", spy_close)
        registry = TenantRegistry(
            [TenantSpec("default", prefix=alpha), TenantSpec("beta", prefix=beta)],
            residency_budget_bytes=1,
            retry_base_seconds=0.0,
        )
        problems: list[str] = []

        def check() -> None:
            loaded = registry.loaded_names()
            if len(loaded) != 1:
                problems.append(f"loaded {loaded}")
            for name in loaded:
                current = registry.state(name).current
                if any(bundle is current for bundle in closed):
                    problems.append(f"{name} serves a closed bundle")
                if registry.resident_bytes() != current.resident_bytes:
                    problems.append("resident bytes out of step")

        async def scenario() -> int:
            # At least 1.5 s of churn and one landed swap, at most 20 s.
            started = time.monotonic()
            swaps = 0

            def churning() -> bool:
                elapsed = time.monotonic() - started
                return elapsed < 1.5 or (swaps == 0 and elapsed < 20.0)

            async def reads():
                turn = 0
                while churning():
                    try:
                        registry.get(("default", "beta")[(turn // 10) % 2])
                    except DataError:
                        pass  # caught a pair between its two os.replace calls
                    check()
                    turn += 1
                    await asyncio.sleep(0.001)

            async def writes():
                nonlocal swaps
                turn = 0
                while churning():
                    model = (second_model, fitted_tiny_model)[turn % 2]
                    for prefix in (alpha, beta):
                        await asyncio.to_thread(save_model, model, prefix)
                    swaps += await registry.maybe_reload_all()
                    turn += 1

            await asyncio.gather(reads(), writes())
            return swaps

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with use_registry(MetricsRegistry()):
                registry.get("default")
                swaps = asyncio.run(scenario())
                check()
        finally:
            sys.setswitchinterval(interval)
            registry.close()
        assert problems == []
        assert swaps > 0


# ---------------------------------------------------------------- routing


@pytest.fixture
def tenant_server(two_tenant_prefixes):
    alpha, beta = two_tenant_prefixes
    with use_registry(MetricsRegistry()):
        registry = TenantRegistry(
            [
                TenantSpec("default", prefix=alpha),
                TenantSpec("beta", prefix=beta),
            ]
        )
        server = SkillServer(registry, ServeConfig(port=0, max_wait_ms=0.5))
        thread = ServerThread(server)
        host, port = thread.start()
        try:
            yield host, port, alpha
        finally:
            thread.stop()


class TestTenantRouting:
    def test_prefixed_and_default_routes(self, tenant_server):
        host, port, _alpha = tenant_server
        body = {"user": "u0", "time": 3.0, "k": 3}
        status, default_raw, _ = _request(host, port, "POST", "/predict", body)
        assert status == 200
        status, named_raw, _ = _request(
            host, port, "POST", "/t/default/predict", body
        )
        assert status == 200
        # Same tenant through either route: byte-identical responses.
        assert default_raw == named_raw
        status, beta_raw, _ = _request(host, port, "POST", "/t/beta/predict", body)
        assert status == 200
        # Different tenants really serve different models.
        assert json.loads(beta_raw)["top"] != json.loads(default_raw)["top"]

    def test_each_tenant_difficulty_and_skill(self, tenant_server):
        host, port, _alpha = tenant_server
        for tenant in ("default", "beta"):
            status, raw, _ = _request(
                host, port, "POST", f"/t/{tenant}/difficulty",
                {"items": ["i0", "i5"]},
            )
            assert status == 200
            status, raw, _ = _request(
                host, port, "GET", f"/t/{tenant}/skill?user=u0&time=3"
            )
            assert status == 200
            assert json.loads(raw)["model_version"] == 1

    def test_unknown_tenant_404(self, tenant_server):
        host, port, _alpha = tenant_server
        status, _raw, _ = _request(
            host, port, "POST", "/t/ghost/predict", {"user": "u0", "time": 1.0}
        )
        assert status == 404

    def test_tenant_scoped_healthz_and_global_summary(self, tenant_server):
        host, port, _alpha = tenant_server
        status, raw, _ = _request(host, port, "GET", "/t/beta/healthz")
        assert status == 200
        assert json.loads(raw)["tenant"] == "beta"
        status, raw, _ = _request(host, port, "GET", "/healthz")
        payload = json.loads(raw)
        assert set(payload["tenants"]["names"]) == {"default", "beta"}
        assert "beta" in payload["tenants"]["loaded"]
        assert payload["tenants"]["resident_bytes"] > 0

    def test_ingest_is_not_tenant_scoped(self, tenant_server):
        host, port, _alpha = tenant_server
        status, _raw, _ = _request(
            host, port, "POST", "/t/beta/ingest",
            {"events": [{"user": "u0", "item": "i0", "time": 1.0}]},
        )
        assert status == 404

    def test_tenant_metrics_appear(self, tenant_server):
        host, port, _alpha = tenant_server
        _request(host, port, "POST", "/t/beta/predict", {"user": "u0", "time": 1.0})
        status, raw, _ = _request(host, port, "GET", "/metrics")
        assert status == 200
        snapshot = json.loads(raw)
        assert snapshot["counters"]["serve.tenant.beta.requests"] >= 1
        assert snapshot["gauges"]["serve.tenant.models"] >= 1
        assert snapshot["gauges"]["serve.tenant.resident_bytes"] > 0

    def test_parity_with_single_tenant_server(self, tenant_server):
        """A multi-tenant deployment answers exactly like a dedicated
        single-model server for the same artifact and request."""
        host, port, alpha = tenant_server
        body = {"user": "u1", "time": 5.0, "k": 4}
        status, multi_raw, _ = _request(host, port, "POST", "/predict", body)
        assert status == 200
        with use_registry(MetricsRegistry()):
            solo = ServerThread(
                SkillServer(ModelState(alpha), ServeConfig(port=0, max_wait_ms=0.5))
            )
            solo_host, solo_port = solo.start()
            try:
                status, solo_raw, _ = _request(
                    solo_host, solo_port, "POST", "/predict", body
                )
            finally:
                solo.stop()
        assert status == 200
        assert multi_raw == solo_raw
