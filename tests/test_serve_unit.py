"""Unit tests for the serving building blocks (batcher, admission, state)."""

import asyncio
import contextvars
import http.client
import json
import os
import threading
import time

import numpy as np
import pytest

from repro.core.serialize import (
    artifact_metadata,
    load_model,
    model_resident_bytes,
    save_model,
)
from repro.core.training import fit_skill_model
from repro.exceptions import ConfigurationError, DataError
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.recsys.similarity import build_similarity_index
from repro.serve import (
    AdmissionConfig,
    AdmissionController,
    MicroBatcher,
    ModelState,
    ServeConfig,
    ServerThread,
    SkillServer,
)
from repro.serve import state as state_module
from repro.serve.state import ServingModel


def run(coro):
    return asyncio.run(coro)


class TestMicroBatcher:
    def test_concurrent_submits_coalesce_into_one_flush(self):
        sizes = []

        def batch_fn(payloads):
            sizes.append(len(payloads))
            return [p * 10 for p in payloads]

        async def scenario():
            batcher = MicroBatcher(batch_fn, max_batch=16, max_wait_ms=20.0)
            await batcher.start()
            results = await asyncio.gather(*(batcher.submit(i) for i in range(5)))
            await batcher.stop()
            return results

        assert run(scenario()) == [0, 10, 20, 30, 40]
        assert sizes == [5]

    def test_max_batch_splits_flushes(self):
        sizes = []

        def batch_fn(payloads):
            sizes.append(len(payloads))
            return payloads

        async def scenario():
            batcher = MicroBatcher(batch_fn, max_batch=4, max_wait_ms=50.0)
            await batcher.start()
            await asyncio.gather(*(batcher.submit(i) for i in range(10)))
            await batcher.stop()

        run(scenario())
        assert sum(sizes) == 10
        assert max(sizes) <= 4
        assert len(sizes) >= 3

    def test_max_batch_one_is_sequential_dispatch(self):
        sizes = []

        def batch_fn(payloads):
            sizes.append(len(payloads))
            return payloads

        async def scenario():
            batcher = MicroBatcher(batch_fn, max_batch=1, max_wait_ms=5.0)
            await batcher.start()
            await asyncio.gather(*(batcher.submit(i) for i in range(6)))
            await batcher.stop()

        run(scenario())
        assert sizes == [1] * 6

    def test_batch_error_fails_every_request_of_the_flush(self):
        def batch_fn(payloads):
            raise ValueError("kernel exploded")

        async def scenario():
            batcher = MicroBatcher(batch_fn, max_batch=8, max_wait_ms=5.0)
            await batcher.start()
            results = await asyncio.gather(
                *(batcher.submit(i) for i in range(3)), return_exceptions=True
            )
            await batcher.stop()
            return results

        results = run(scenario())
        assert all(isinstance(r, ValueError) for r in results)

    def test_result_count_mismatch_is_a_typed_error(self):
        async def scenario():
            batcher = MicroBatcher(lambda payloads: [1], max_batch=8, max_wait_ms=5.0)
            await batcher.start()
            results = await asyncio.gather(
                *(batcher.submit(i) for i in range(2)), return_exceptions=True
            )
            await batcher.stop()
            return results

        assert all(isinstance(r, ConfigurationError) for r in run(scenario()))

    def test_stop_flushes_the_remaining_queue(self):
        flushed = []

        def batch_fn(payloads):
            flushed.extend(payloads)
            return payloads

        async def scenario():
            batcher = MicroBatcher(batch_fn, max_batch=64, max_wait_ms=10_000.0)
            await batcher.start()
            pending = [asyncio.ensure_future(batcher.submit(i)) for i in range(3)]
            await asyncio.sleep(0)  # queue the submits, far from the window
            await batcher.stop()
            return await asyncio.gather(*pending)

        assert run(scenario()) == [0, 1, 2]
        assert flushed == [0, 1, 2]

    def test_submit_when_not_running_raises(self):
        async def scenario():
            batcher = MicroBatcher(lambda p: p)
            with pytest.raises(ConfigurationError):
                await batcher.submit(1)
            await batcher.start()
            await batcher.stop()
            with pytest.raises(ConfigurationError):
                await batcher.submit(1)

        run(scenario())

    def test_observes_batch_size_histogram(self):
        async def scenario():
            batcher = MicroBatcher(lambda p: p, max_batch=8, max_wait_ms=20.0)
            await batcher.start()
            await asyncio.gather(*(batcher.submit(i) for i in range(4)))
            await batcher.stop()

        with use_registry(MetricsRegistry()) as registry:
            run(scenario())
            digest = registry.snapshot()["histograms"]["serve.batch_size"]
        assert digest["count"] >= 1
        assert digest["max"] == 4

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            MicroBatcher(lambda p: p, max_batch=0)
        with pytest.raises(ConfigurationError):
            MicroBatcher(lambda p: p, max_wait_ms=-1.0)


class TestFlushOnIdle:
    """Group commit: the batcher flushes once the loop goes idle, and
    ``max_wait_ms`` only bounds the coalescing delay."""

    def test_lone_submit_does_not_wait_for_the_window(self):
        async def scenario():
            batcher = MicroBatcher(lambda p: p, max_batch=64, max_wait_ms=10_000.0)
            await batcher.start()
            loop = asyncio.get_running_loop()
            started = loop.time()
            result = await batcher.submit(7)
            elapsed = loop.time() - started
            await batcher.stop()
            return result, elapsed

        result, elapsed = run(scenario())
        assert result == 7
        assert elapsed < 0.1

    def test_submits_queued_in_one_tick_are_one_flush(self):
        sizes = []

        def batch_fn(payloads):
            sizes.append(len(payloads))
            return payloads

        async def scenario():
            batcher = MicroBatcher(batch_fn, max_batch=64, max_wait_ms=10_000.0)
            await batcher.start()
            results = await asyncio.gather(*(batcher.submit(i) for i in range(12)))
            await batcher.stop()
            return results

        assert run(scenario()) == list(range(12))
        assert sizes == [12]

    def test_steady_trickle_is_cut_off_at_max_wait(self):
        # One submit per loop tick never leaves the loop idle, so only the
        # max_wait_ms bound ends each batch.
        flushes = []

        async def scenario():
            loop = asyncio.get_running_loop()

            def batch_fn(payloads):
                flushes.append((loop.time(), len(payloads)))
                return payloads

            batcher = MicroBatcher(batch_fn, max_batch=100_000, max_wait_ms=20.0)
            await batcher.start()
            started = loop.time()
            pending = []
            while loop.time() - started < 0.3:
                pending.append(asyncio.ensure_future(batcher.submit(len(pending))))
                await asyncio.sleep(0)
            results = await asyncio.gather(*pending)
            await batcher.stop()
            return started, results

        started, results = run(scenario())
        assert results == list(range(len(results)))
        assert flushes[0][0] - started < 0.1  # cut off mid-trickle
        assert flushes[0][1] > 1  # the trickle still coalesced
        assert len(flushes) >= 3
        assert sum(size for _when, size in flushes) == len(results)


class TestAdmission:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionConfig(max_queue=0)
        with pytest.raises(ConfigurationError):
            AdmissionConfig(default_timeout_seconds=0.0)
        with pytest.raises(ConfigurationError):
            AdmissionConfig(endpoint_timeouts={"predict": -1.0})

    def test_queue_full_sheds_with_counters(self):
        with use_registry(MetricsRegistry()) as registry:
            controller = AdmissionController(AdmissionConfig(max_queue=2))
            tickets = [controller.admit("predict") for _ in range(2)]
            assert all(t is not None for t in tickets)
            assert controller.admit("predict") is None
            snapshot = registry.snapshot()
            assert snapshot["counters"]["serve.shed"] == 1
            assert snapshot["counters"]["serve.shed.queue_full"] == 1
            assert snapshot["gauges"]["serve.queue_depth"] == 2
            for ticket in tickets:
                controller.release(ticket)
            assert registry.snapshot()["gauges"]["serve.queue_depth"] == 0
            assert controller.admit("predict") is not None

    def test_release_is_idempotent(self):
        with use_registry(MetricsRegistry()):
            controller = AdmissionController(AdmissionConfig(max_queue=4))
            ticket = controller.admit("skill")
            controller.release(ticket)
            controller.release(ticket)
            assert controller.inflight == 0

    def test_deadlines_use_the_injected_clock(self):
        now = [100.0]
        with use_registry(MetricsRegistry()) as registry:
            controller = AdmissionController(
                AdmissionConfig(
                    default_timeout_seconds=5.0,
                    endpoint_timeouts={"predict": 0.5},
                ),
                clock=lambda: now[0],
            )
            slow = controller.admit("skill")
            fast = controller.admit("predict")
            assert slow.deadline == pytest.approx(105.0)
            assert fast.deadline == pytest.approx(100.5)
            now[0] = 101.0
            assert not controller.expired(slow)
            assert controller.expired(fast)
            assert controller.remaining(fast) == pytest.approx(-0.5)
            controller.shed_deadline()
            assert registry.snapshot()["counters"]["serve.shed.deadline"] == 1


@pytest.fixture
def model_prefix(fitted_tiny_model, tmp_path):
    prefix = tmp_path / "model"
    save_model(fitted_tiny_model, prefix)
    return prefix


def _bump_mtime(prefix):
    """Make the next save's stat signature differ even on coarse clocks."""
    for suffix in (".json", ".npz"):
        path = prefix.with_suffix(suffix)
        stat = path.stat()
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))


class TestArtifactMetadata:
    def test_reports_the_pair(self, model_prefix, fitted_tiny_model):
        meta = artifact_metadata(model_prefix)
        assert meta["format_version"] == 1
        assert meta["checksum_algorithm"] == "sha256"
        assert meta["checksum_verified"] is True
        assert len(meta["npz_checksum"]) == 64
        assert meta["num_users"] == len(fitted_tiny_model.assignments)
        assert meta["num_items"] == len(fitted_tiny_model.encoded.item_ids)
        assert meta["num_levels"] == fitted_tiny_model.num_levels
        assert meta["telemetry_run_id"] == fitted_tiny_model.telemetry.run_id
        assert meta["json_bytes"] > 0 and meta["npz_bytes"] > 0
        assert meta["converged"] == fitted_tiny_model.trace.converged

    def test_missing_npz_is_reported_not_raised(self, model_prefix):
        model_prefix.with_suffix(".npz").unlink()
        meta = artifact_metadata(model_prefix)
        assert meta["npz_bytes"] is None
        assert meta["checksum_verified"] is False

    def test_torn_pair_reports_unverified(self, model_prefix):
        with open(model_prefix.with_suffix(".npz"), "ab") as handle:
            handle.write(b"garbage")
        assert artifact_metadata(model_prefix)["checksum_verified"] is False

    def test_missing_json_raises(self, tmp_path):
        with pytest.raises(DataError):
            artifact_metadata(tmp_path / "nope")

    def test_malformed_json_raises(self, model_prefix):
        model_prefix.with_suffix(".json").write_text("{not json", encoding="utf-8")
        with pytest.raises(DataError):
            artifact_metadata(model_prefix)


class TestModelState:
    def test_load_builds_a_full_bundle(self, model_prefix):
        state = ModelState(model_prefix)
        with pytest.raises(DataError):
            state.current  # noqa: B018 — access before load must raise
        bundle = state.load()
        assert state.loaded
        assert bundle.version == 1
        assert bundle.metadata["checksum_verified"] is True
        assert set(bundle.difficulties) == {"uniform", "empirical"}

    def test_unchanged_artifacts_do_not_reload(self, model_prefix):
        state = ModelState(model_prefix)
        state.load()
        assert state.maybe_reload() is False
        assert state.reloads == 0

    def test_rewrite_swaps_the_bundle(self, model_prefix, fitted_tiny_model):
        with use_registry(MetricsRegistry()) as registry:
            state = ModelState(model_prefix)
            first = state.load()
            save_model(fitted_tiny_model, model_prefix)
            _bump_mtime(model_prefix)
            assert state.maybe_reload() is True
            assert state.current.version == first.version + 1
            assert state.reloads == 1
            assert registry.snapshot()["counters"]["serve.reloads"] == 1

    def test_corrupt_rewrite_keeps_the_old_model(self, model_prefix):
        with use_registry(MetricsRegistry()) as registry:
            state = ModelState(model_prefix)
            first = state.load()
            with open(model_prefix.with_suffix(".npz"), "ab") as handle:
                handle.write(b"torn")
            _bump_mtime(model_prefix)
            assert state.maybe_reload() is False
            assert state.current is first
            assert state.reload_failures == 1
            assert registry.snapshot()["counters"]["serve.reload_failures"] == 1
            # same broken signature: no second validation attempt
            assert state.maybe_reload() is False
            assert state.reload_failures == 1

    def test_recovers_after_a_failed_reload(self, model_prefix, fitted_tiny_model):
        # A fake clock steps past the failure-backoff window so the good
        # artifact is revalidated on the very next poll.
        now = [1000.0]
        state = ModelState(model_prefix, clock=lambda: now[0])
        state.load()
        json_path = model_prefix.with_suffix(".json")
        structure = json.loads(json_path.read_text(encoding="utf-8"))
        structure["checksums"]["npz"] = "0" * 64
        json_path.write_text(json.dumps(structure), encoding="utf-8")
        _bump_mtime(model_prefix)
        assert state.maybe_reload() is False
        save_model(fitted_tiny_model, model_prefix)
        _bump_mtime(model_prefix)
        now[0] += state.retry_base_seconds + 0.1
        assert state.maybe_reload() is True
        assert state.current.version == 2


@pytest.fixture
def other_model(tiny_log, tiny_catalog, tiny_feature_set):
    """A model whose similarity index differs from ``fitted_tiny_model``'s."""
    return fit_skill_model(
        tiny_log,
        tiny_catalog,
        tiny_feature_set.with_id_feature(),
        num_levels=2,
        init_min_actions=5,
        max_iterations=20,
    )


@pytest.fixture
def closed_bundles(monkeypatch):
    """Every ServingModel closed while the test runs, in close order."""
    closed = []
    original = ServingModel.close

    def spy(bundle):
        closed.append(bundle)
        original(bundle)

    monkeypatch.setattr(ServingModel, "close", spy)
    return closed


def _rewrite(prefix, model):
    save_model(model, prefix)
    _bump_mtime(prefix)


def _request(host, port, method, path, body=None):
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, payload, headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _wait_for_version(host, port, version, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, raw = _request(host, port, "GET", "/healthz")
        if status == 200 and json.loads(raw)["model_version"] == version:
            return True
        time.sleep(0.02)
    return False


class TestOffLoopReload:
    """A reload is checked and swapped on the loop and built in between;
    the swap lands only if the bundle it was built from still serves."""

    def test_attempt_swapped_meanwhile_is_dropped_and_closed(
        self, model_prefix, other_model, closed_bundles
    ):
        with use_registry(MetricsRegistry()) as registry:
            state = ModelState(model_prefix)
            state.load()
            _rewrite(model_prefix, other_model)
            attempt = state.begin_reload()
            assert attempt.due
            assert state.maybe_reload() is True  # another caller swaps first
            winner = state.current
            attempt.build()
            assert state.maybe_reload(attempt) is False
            assert state.current is winner
            assert state.reloads == 1
            assert closed_bundles == [attempt.bundle]
            counters = registry.snapshot()["counters"]
            assert counters["serve.reload_dropped"] == 1
            assert counters["serve.reloads"] == 1

    def test_attempt_on_an_unloaded_state_is_dropped(
        self, model_prefix, other_model, closed_bundles
    ):
        state = ModelState(model_prefix)
        first = state.load()
        _rewrite(model_prefix, other_model)
        attempt = state.begin_reload()
        attempt.build()
        state.unload()
        assert state.maybe_reload(attempt) is False
        assert not state.loaded
        assert closed_bundles == [first, attempt.bundle]

    def test_attempt_without_changes_is_not_due(self, model_prefix):
        state = ModelState(model_prefix)
        state.load()
        attempt = state.begin_reload()
        assert not attempt.due
        attempt.build()
        assert attempt.bundle is None
        assert state.maybe_reload(attempt) is False

    def test_predict_is_served_while_a_reload_builds(
        self, model_prefix, other_model, monkeypatch
    ):
        building = threading.Event()
        original = ModelState._build

        def slow_build(state, version):
            if version > 1:
                building.set()
                time.sleep(1.0)
            return original(state, version)

        monkeypatch.setattr(ModelState, "_build", slow_build)
        with use_registry(MetricsRegistry()):
            server = SkillServer(
                ModelState(model_prefix, poll_seconds=0.02),
                ServeConfig(port=0, max_wait_ms=2.0),
            )
            thread = ServerThread(server)
            host, port = thread.start()
            try:
                _rewrite(model_prefix, other_model)
                assert building.wait(10.0)
                started = time.monotonic()
                status, _raw = _request(
                    host, port, "POST", "/predict", {"user": "u0", "time": 3.0, "k": 2}
                )
                elapsed = time.monotonic() - started
                swapped = _wait_for_version(host, port, 2)
            finally:
                thread.stop()
        assert status == 200
        assert elapsed < 0.1, f"/predict waited {elapsed:.3f}s behind the reload"
        assert swapped


class TestIndexAcrossSwap:
    """A bundle whose predecessor built its similarity index gets its own
    before the swap; one whose predecessor never did stays lazy."""

    def test_warm_index_is_built_before_the_swap(self, model_prefix, other_model):
        state = ModelState(model_prefix)
        first = state.load()
        first.similarity_index()
        _rewrite(model_prefix, other_model)
        attempt = state.begin_reload()
        attempt.build()
        assert state.current is first
        assert attempt.bundle.similarity is not None
        assert state.maybe_reload(attempt) is True
        bundle = state.current
        assert bundle is attempt.bundle
        expected = build_similarity_index(load_model(model_prefix))
        assert bundle.similarity.items == expected.items
        assert np.array_equal(bundle.similarity.neighbors, expected.neighbors)
        assert np.array_equal(bundle.similarity.scores, expected.scores)
        # A fresh index, not the outgoing bundle's carried over.
        assert not np.array_equal(first.similarity.scores, expected.scores)
        assert bundle.resident_bytes == (
            model_resident_bytes(bundle.model) + expected.nbytes
        )

    def test_lazy_predecessor_keeps_the_successor_lazy(
        self, model_prefix, other_model, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(
            state_module, "build_similarity_index", lambda *a, **k: calls.append(a)
        )
        state = ModelState(model_prefix)
        state.load()
        _rewrite(model_prefix, other_model)
        assert state.maybe_reload() is True
        assert state.current.similarity is None
        assert calls == []

    def test_served_index_rebuilds_outside_any_flush(
        self, model_prefix, other_model, fitted_tiny_model, monkeypatch
    ):
        # Records, per index build, whether it ran inside a batch flush.
        in_flush = contextvars.ContextVar("in_flush", default=False)
        original_flush = MicroBatcher._flush

        async def flagged_flush(batcher, batch):
            token = in_flush.set(True)
            try:
                await original_flush(batcher, batch)
            finally:
                in_flush.reset(token)

        builds = []
        original_build = state_module.build_similarity_index

        def spy(model, **kwargs):
            builds.append(in_flush.get())
            return original_build(model, **kwargs)

        monkeypatch.setattr(MicroBatcher, "_flush", flagged_flush)
        monkeypatch.setattr(state_module, "build_similarity_index", spy)
        anchor = fitted_tiny_model.encoded.vocabulary("__item_id__")[0]
        body = {"mode": "similar_harder", "item": anchor, "k": 3}
        with use_registry(MetricsRegistry()):
            server = SkillServer(
                ModelState(model_prefix, poll_seconds=0.02), ServeConfig(port=0)
            )
            thread = ServerThread(server)
            host, port = thread.start()
            try:
                first = _request(host, port, "POST", "/recommend", body)
                _rewrite(model_prefix, other_model)
                swapped = _wait_for_version(host, port, 2)
                second = _request(host, port, "POST", "/recommend", body)
            finally:
                thread.stop()
        assert swapped
        assert first[0] == 200 and second[0] == 200
        assert json.loads(second[1])["model_version"] == 2
        # The artifact ships no index: the first query builds it lazily in
        # its flush; the swap's rebuild runs in the reload thread.
        assert builds == [True, False]
