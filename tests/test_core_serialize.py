"""Tests for repro.core.serialize (model persistence)."""

import gc
import hashlib
import json
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import serialize
from repro.core.serialize import (
    attach_model_shm,
    load_model,
    publish_model_shm,
    save_model,
)
from repro.exceptions import DataError, SchemaError


def _restamp_checksum(json_path, npz_path):
    """Recompute the stored NPZ checksum after a test tampers with the NPZ.

    Lets a test target the failure mode *behind* the checksum gate (missing
    array, bad zip structure) instead of tripping the gate itself.
    """
    structure = json.loads(json_path.read_text())
    structure["checksums"]["npz"] = hashlib.sha256(npz_path.read_bytes()).hexdigest()
    json_path.write_text(json.dumps(structure))


def _reverse_id_vocabulary(structure):
    names = [entry["name"] for entry in structure["features"]]
    position = names.index("__item_id__")
    structure["vocabularies"][position] = structure["vocabularies"][position][::-1]


class TestRoundTrip:
    def test_full_round_trip(self, fitted_tiny_model, tmp_path):
        save_model(fitted_tiny_model, tmp_path / "model")
        loaded = load_model(tmp_path / "model")

        # structure
        assert loaded.num_levels == fitted_tiny_model.num_levels
        assert loaded.feature_set.names == fitted_tiny_model.feature_set.names
        assert loaded.trace.log_likelihoods == pytest.approx(
            fitted_tiny_model.trace.log_likelihoods
        )
        # scoring behaviour is byte-identical
        np.testing.assert_allclose(
            loaded.item_score_table(), fitted_tiny_model.item_score_table()
        )
        # assignments and time lookups
        for user in fitted_tiny_model.assignments:
            np.testing.assert_array_equal(
                loaded.skill_trajectory(user), fitted_tiny_model.skill_trajectory(user)
            )
            assert loaded.skill_at(user, 3.0) == fitted_tiny_model.skill_at(user, 3.0)
        # downstream estimators work on the loaded model
        from repro.core.difficulty import generation_difficulty

        original = generation_difficulty(fitted_tiny_model, prior="empirical")
        restored = generation_difficulty(loaded, prior="empirical")
        for item_id, value in original.items():
            assert restored[item_id] == pytest.approx(value)

    def test_returns_both_paths(self, fitted_tiny_model, tmp_path):
        json_path, npz_path = save_model(fitted_tiny_model, tmp_path / "m")
        assert json_path.exists() and npz_path.exists()

    def test_vocabularies_survive(self, fitted_tiny_model, tmp_path):
        save_model(fitted_tiny_model, tmp_path / "model")
        loaded = load_model(tmp_path / "model")
        assert loaded.encoded.vocabulary("color") == fitted_tiny_model.encoded.vocabulary(
            "color"
        )
        top_original = fitted_tiny_model.top_items(1, 3)
        top_loaded = loaded.top_items(1, 3)
        assert [i for i, _ in top_original] == [i for i, _ in top_loaded]


class TestTelemetryPersistence:
    def test_telemetry_round_trips(self, fitted_tiny_model, tmp_path):
        assert fitted_tiny_model.telemetry is not None
        save_model(fitted_tiny_model, tmp_path / "model")
        loaded = load_model(tmp_path / "model")
        assert loaded.telemetry == fitted_tiny_model.telemetry

    def test_null_telemetry_loads(self, fitted_tiny_model, tmp_path):
        json_path, _ = save_model(fitted_tiny_model, tmp_path / "model")
        structure = json.loads(json_path.read_text())
        structure["telemetry"] = None
        json_path.write_text(json.dumps(structure))
        loaded = load_model(tmp_path / "model")
        assert loaded.telemetry is None

    def test_legacy_model_without_telemetry_key(self, fitted_tiny_model, tmp_path):
        json_path, _ = save_model(fitted_tiny_model, tmp_path / "model")
        structure = json.loads(json_path.read_text())
        del structure["telemetry"]  # pre-telemetry writers did not record one
        json_path.write_text(json.dumps(structure))
        loaded = load_model(tmp_path / "model")
        assert loaded.telemetry is None

    def test_malformed_telemetry_rejected(self, fitted_tiny_model, tmp_path):
        json_path, _ = save_model(fitted_tiny_model, tmp_path / "model")
        structure = json.loads(json_path.read_text())
        structure["telemetry"] = {"run_id": "x"}  # missing required keys
        json_path.write_text(json.dumps(structure))
        with pytest.raises(DataError, match="malformed telemetry"):
            load_model(tmp_path / "model")

    def test_save_and_load_record_metrics(self, fitted_tiny_model, tmp_path):
        from repro.obs.metrics import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            save_model(fitted_tiny_model, tmp_path / "model")
            load_model(tmp_path / "model")
        snapshot = registry.snapshot()
        assert snapshot["histograms"]["model.save_seconds"]["count"] == 1
        assert snapshot["histograms"]["model.load_seconds"]["count"] == 1
        assert snapshot["gauges"]["model.artifact_bytes"] > 0


class TestFailureModes:
    def test_missing_files(self, tmp_path):
        with pytest.raises(DataError):
            load_model(tmp_path / "nope")

    def test_malformed_json(self, fitted_tiny_model, tmp_path):
        json_path, _ = save_model(fitted_tiny_model, tmp_path / "model")
        json_path.write_text("{not json")
        with pytest.raises(DataError):
            load_model(tmp_path / "model")

    def test_wrong_format_version(self, fitted_tiny_model, tmp_path):
        json_path, _ = save_model(fitted_tiny_model, tmp_path / "model")
        structure = json.loads(json_path.read_text())
        structure["format_version"] = 999
        json_path.write_text(json.dumps(structure))
        with pytest.raises(DataError, match=str(json_path)):
            load_model(tmp_path / "model")

    def test_id_vocabulary_out_of_row_order_rejected(self, fitted_tiny_model, tmp_path):
        json_path, _ = save_model(fitted_tiny_model, tmp_path / "model")
        structure = json.loads(json_path.read_text())
        _reverse_id_vocabulary(structure)
        json_path.write_text(json.dumps(structure))
        with pytest.raises(SchemaError):
            load_model(tmp_path / "model")

    def test_shm_attach_checks_id_vocabulary(self, fitted_tiny_model, monkeypatch):
        real_payload = serialize._model_payload

        def tampered_payload(model, **kwargs):
            structure, arrays = real_payload(model, **kwargs)
            _reverse_id_vocabulary(structure)
            return structure, arrays

        monkeypatch.setattr(serialize, "_model_payload", tampered_payload)
        segment, descriptor = publish_model_shm(fitted_tiny_model)
        try:
            with pytest.raises(SchemaError):
                attach_model_shm(descriptor)
        finally:
            segment.close()
            segment.unlink()

    def test_missing_array(self, fitted_tiny_model, tmp_path):
        json_path, npz_path = save_model(fitted_tiny_model, tmp_path / "model")
        # rewrite the npz without one required cell
        with np.load(npz_path) as npz:
            arrays = dict(npz)
        arrays.pop("cell_0_0")
        with npz_path.open("wb") as handle:
            np.savez(handle, **arrays)
        _restamp_checksum(json_path, npz_path)  # target the missing-array path
        with pytest.raises(DataError, match="missing required array"):
            load_model(tmp_path / "model")

    def test_truncated_npz(self, fitted_tiny_model, tmp_path):
        json_path, npz_path = save_model(fitted_tiny_model, tmp_path / "model")
        data = npz_path.read_bytes()
        npz_path.write_bytes(data[: len(data) // 2])
        _restamp_checksum(json_path, npz_path)  # target the truncation path
        with pytest.raises(DataError, match="truncated or corrupted"):
            load_model(tmp_path / "model")

    def test_checksum_mismatch_names_both_hashes(self, fitted_tiny_model, tmp_path):
        json_path, npz_path = save_model(fitted_tiny_model, tmp_path / "model")
        data = bytearray(npz_path.read_bytes())
        data[-1] ^= 0xFF  # flip one byte, keep the length
        npz_path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="checksum mismatch") as excinfo:
            load_model(tmp_path / "model")
        assert str(npz_path) in str(excinfo.value)

    def test_legacy_model_without_checksums_still_loads(
        self, fitted_tiny_model, tmp_path
    ):
        json_path, _ = save_model(fitted_tiny_model, tmp_path / "model")
        structure = json.loads(json_path.read_text())
        del structure["checksums"]  # pre-checksum writers did not record one
        json_path.write_text(json.dumps(structure))
        loaded = load_model(tmp_path / "model")
        assert loaded.num_levels == fitted_tiny_model.num_levels


class TestCrashSafety:
    def test_no_tmp_litter_after_save(self, fitted_tiny_model, tmp_path):
        save_model(fitted_tiny_model, tmp_path / "model")
        assert not list(tmp_path.glob("*.tmp"))

    def test_resave_over_loaded_model(self, fitted_tiny_model, tmp_path):
        """The NPZ is read fully into memory on load, so the file handle is
        closed and the pair can be overwritten immediately (regression for
        a leaked NpzFile handle)."""
        save_model(fitted_tiny_model, tmp_path / "model")
        loaded = load_model(tmp_path / "model")
        save_model(loaded, tmp_path / "model")
        again = load_model(tmp_path / "model")
        assert again.log_likelihood == pytest.approx(fitted_tiny_model.log_likelihood)


class _FinalizedCycle:
    """Cyclic garbage whose finalizer runs Python code: a collection
    inside a C-level AST build then hands the GIL to another thread."""

    def __init__(self):
        self.me = self

    def __del__(self):
        sum(range(50))


class TestConcurrentLoads:
    def test_threads_loading_at_once_never_raise(self, fitted_tiny_model, tmp_path):
        """Regression: NPZ headers are parsed with ``ast.literal_eval``,
        whose recursion bookkeeping CPython 3.11 shares across threads;
        unserialized concurrent loads raised ``SystemError`` here within
        a second."""
        prefix = tmp_path / "model"
        save_model(fitted_tiny_model, prefix)
        errors: list[BaseException] = []
        loads = [0]
        deadline = time.monotonic() + 2.0

        def loader():
            while time.monotonic() < deadline:
                try:
                    serialize.load_model(prefix)
                    serialize.load_similarity_payload(prefix)
                    loads[0] += 1
                except BaseException as exc:  # noqa: BLE001 - collected for the assert
                    errors.append(exc)
                for _ in range(20):
                    _FinalizedCycle()

        interval, thresholds = sys.getswitchinterval(), gc.get_threshold()
        sys.setswitchinterval(1e-5)
        gc.set_threshold(50, 2, 2)
        try:
            threads = [threading.Thread(target=loader) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
            gc.set_threshold(*thresholds)
            gc.collect()
        assert errors == []
        assert loads[0] > 0
