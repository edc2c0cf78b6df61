"""Persistence for fitted skill models.

A fitted :class:`~repro.core.model.SkillModel` is an offline artifact the
paper's envisioned recommender would train periodically and serve from; it
needs to survive a process boundary.  :func:`save_model` writes two files:

- ``<prefix>.json`` — structure: feature specs, level count, training
  trace, item ids, vocabularies, and the user order;
- ``<prefix>.npz`` — arrays: per-cell distribution parameters, encoded
  feature columns, per-user assignments and action times.

No pickling: everything is JSON or plain ``numpy`` arrays, so models load
safely across library versions and from untrusted storage.  Identifiers
must be JSON-representable (the same rule as :mod:`repro.data.io`).

Crash safety: both files are staged to ``*.tmp`` siblings, fsynced, and
then moved into place with ``os.replace`` — a crash before the first
replace leaves any previous model untouched.  The JSON carries a SHA-256
checksum of the NPZ payload, verified on load, so a crash *between* the
two replaces (or a torn copy) is detected as a typed
:class:`~repro.exceptions.DataError` rather than silently loading a
mismatched pair.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct
import threading
from collections.abc import Callable, Mapping
from pathlib import Path

import numpy as np

from repro.core.distributions import Categorical, Gamma, LogNormal, Poisson
from repro.core.features import EncodedItems, FeatureKind, FeatureSet, FeatureSpec
from repro.core.model import SkillModel, SkillParameters, TrainingTrace
from repro.exceptions import DataError
from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry
from repro.obs.telemetry import TrainingTelemetry

__all__ = [
    "artifact_metadata",
    "attach_model_shm",
    "load_model",
    "load_similarity_payload",
    "model_resident_bytes",
    "publish_model_shm",
    "save_model",
    "shm_similarity_payload",
]

_log = get_logger("core.serialize")

_FORMAT_VERSION = 1

#: Reserved array-name prefix for the optional item-similarity index
#: (``repro.recsys.similarity``).  The canonical model arrays never use
#: it, old artifacts simply lack these members, and ``_restore_model``
#: never asks for them — so the payload is versioned-by-presence and
#: fully backward/forward compatible.
_SIMILARITY_PREFIX = "simidx_"

#: Serializes NPZ decoding across threads.  ``np.load`` parses each
#: member's header with ``ast.literal_eval``, and CPython 3.11 keeps the
#: AST builder's recursion counter per interpreter, not per thread: two
#: threads decoding at once (a hot-swap build beside an on-loop load, or
#: a fold-in beside a reload) can fail with ``SystemError: AST
#: constructor recursion depth mismatch``.
_NPZ_DECODE_LOCK = threading.Lock()

_DIST_TAGS = {Categorical: "categorical", Poisson: "poisson", Gamma: "gamma", LogNormal: "lognormal"}


def _similarity_arrays(similarity: Mapping, num_items: int) -> dict[str, np.ndarray]:
    """Validate and name a similarity payload's arrays for persistence.

    ``similarity`` is the serialization-layer payload dict
    (``neighbors``/``scores``/``meta``) produced by
    ``ItemSimilarityIndex.to_payload()`` — this layer deliberately takes
    plain arrays, not the recsys class, to keep core below recsys in the
    dependency order.
    """
    neighbors = np.ascontiguousarray(similarity["neighbors"], dtype=np.int32)
    scores = np.ascontiguousarray(similarity["scores"], dtype=np.float64)
    if neighbors.ndim != 2 or neighbors.shape != scores.shape:
        raise DataError("similarity payload needs matching (n, k) tables")
    if neighbors.shape[0] != num_items:
        raise DataError(
            f"similarity index has {neighbors.shape[0]} rows for "
            f"{num_items} model items"
        )
    return {
        f"{_SIMILARITY_PREFIX}neighbors": neighbors,
        f"{_SIMILARITY_PREFIX}scores": scores,
    }


def _cell_payload(dist) -> tuple[str, np.ndarray]:
    """(tag, parameter vector) for one distribution cell."""
    if isinstance(dist, Categorical):
        return "categorical", np.asarray(dist.probs, dtype=np.float64)
    if isinstance(dist, Poisson):
        return "poisson", np.asarray([dist.rate])
    if isinstance(dist, Gamma):
        return "gamma", np.asarray([dist.shape, dist.scale])
    if isinstance(dist, LogNormal):
        return "lognormal", np.asarray([dist.mu, dist.sigma])
    raise DataError(f"cannot serialize distribution of type {type(dist).__name__}")


def _cell_restore(tag: str, params: np.ndarray):
    if tag == "categorical":
        return Categorical(params)
    if tag == "poisson":
        return Poisson(rate=float(params[0]))
    if tag == "gamma":
        return Gamma(shape=float(params[0]), scale=float(params[1]))
    if tag == "lognormal":
        return LogNormal(mu=float(params[0]), sigma=float(params[1]))
    raise DataError(f"unknown distribution tag {tag!r} in model file")


def _sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` and force it to stable storage."""
    with open(path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


def _replace(src: Path, dst: Path) -> None:
    os.replace(src, dst)


def _atomic_commit(writes: list[tuple[Path, bytes]]) -> None:
    """Stage every payload to a ``.tmp`` sibling, then move all into place.

    A failure at any point removes the staged temporaries, so the previous
    artifacts (if any) survive intact unless at least one replace already
    happened — and a partial replace is caught by the load-time checksum.
    """
    staged: list[tuple[Path, Path]] = []
    try:
        for final, data in writes:
            tmp = final.with_name(final.name + ".tmp")
            _write_bytes(tmp, data)
            staged.append((tmp, final))
        for tmp, final in staged:
            _replace(tmp, final)
    except BaseException:
        for tmp, _final in staged:
            tmp.unlink(missing_ok=True)
        raise


def _model_payload(
    model: SkillModel, *, extra: dict | None = None, similarity: Mapping | None = None
) -> tuple[dict, dict[str, np.ndarray]]:
    """(structure, named arrays) — the canonical flat form of a model.

    Shared by the two publication paths: :func:`save_model` compresses
    the arrays into the NPZ half of the artifact pair, and
    :func:`publish_model_shm` lays them out in one shared-memory segment
    for the prefork serving workers.  Both reconstruct through
    :func:`_restore_model`, so the array naming (``cell_{s}_{f}``,
    ``column_{f}``, ``assign_{k}``, ``times_{k}``) is the one contract.

    ``similarity`` optionally rides the precomputed item-similarity index
    along (reserved ``simidx_*`` array names plus a ``similarity`` meta
    key in the structure); absent in old artifacts, ignored by old
    readers — see :func:`load_similarity_payload`.
    """
    feature_set = model.feature_set
    users = list(model.assignments)
    structure = {
        "format_version": _FORMAT_VERSION,
        "num_levels": model.num_levels,
        "features": [
            {"name": spec.name, "kind": spec.kind.value} for spec in feature_set.specs
        ],
        "cells": [
            [_DIST_TAGS[type(model.parameters.cells[s][f])] for f in range(len(feature_set))]
            for s in range(model.num_levels)
        ],
        "item_ids": list(model.encoded.item_ids),
        "vocabularies": [
            list(vocab) if vocab is not None else None
            for vocab in model.encoded.vocabularies
        ],
        "users": users,
        "trace": {
            "log_likelihoods": list(model.trace.log_likelihoods),
            "converged": model.trace.converged,
            "num_iterations": model.trace.num_iterations,
        },
        "telemetry": model.telemetry.to_json() if model.telemetry is not None else None,
        "extra": extra,
    }
    arrays: dict[str, np.ndarray] = {}
    for s in range(model.num_levels):
        for f in range(len(feature_set)):
            _tag, params = _cell_payload(model.parameters.cells[s][f])
            arrays[f"cell_{s}_{f}"] = params
    for f, column in enumerate(model.encoded.columns):
        arrays[f"column_{f}"] = column
    for k, user in enumerate(users):
        arrays[f"assign_{k}"] = np.asarray(model.assignments[user], dtype=np.int64)
        arrays[f"times_{k}"] = np.asarray(model._assignment_times[user], dtype=np.float64)
    if similarity is not None:
        arrays.update(
            _similarity_arrays(similarity, len(structure["item_ids"]))
        )
        structure["similarity"] = dict(similarity.get("meta") or {})
    return structure, arrays


def _restore_model(
    structure: Mapping, get_array: Callable[[str], np.ndarray], *, source: str
) -> SkillModel:
    """Rebuild a :class:`SkillModel` from a structure dict and its arrays.

    ``get_array`` maps one canonical array name to its payload — an NPZ
    member for :func:`load_model`, a zero-copy view into a shared-memory
    segment for :func:`attach_model_shm`.  ``source`` names the origin in
    error messages.  The reconstruction is identical either way, which is
    what the serving parity guarantee (byte-identical responses from disk-
    and shm-backed models) rests on.
    """
    feature_set = FeatureSet(
        FeatureSpec(entry["name"], FeatureKind(entry["kind"]))
        for entry in structure["features"]
    )
    num_levels = int(structure["num_levels"])
    try:
        cells = tuple(
            tuple(
                _cell_restore(structure["cells"][s][f], get_array(f"cell_{s}_{f}"))
                for f in range(len(feature_set))
            )
            for s in range(num_levels)
        )
        columns = tuple(get_array(f"column_{f}") for f in range(len(feature_set)))
        users = structure["users"]
        assignments = {user: get_array(f"assign_{k}") for k, user in enumerate(users)}
        times = {user: get_array(f"times_{k}") for k, user in enumerate(users)}
    except KeyError as exc:
        raise DataError(
            f"{source}: model payload is missing required array ({exc.args[0]})"
        ) from None
    parameters = SkillParameters(
        feature_set=feature_set, num_levels=num_levels, cells=cells
    )

    # JSON round-trips tuples as lists and keeps ids JSON-typed, matching
    # what repro.data.io enforces for persisted data.
    item_ids = tuple(structure["item_ids"])
    vocabularies = tuple(
        tuple(vocab) if vocab is not None else None
        for vocab in structure["vocabularies"]
    )
    encoded = EncodedItems(
        feature_set=feature_set,
        item_ids=item_ids,
        index_of={item_id: pos for pos, item_id in enumerate(item_ids)},
        columns=columns,
        vocabularies=vocabularies,
    )
    trace = TrainingTrace(
        log_likelihoods=tuple(structure["trace"]["log_likelihoods"]),
        converged=bool(structure["trace"]["converged"]),
        num_iterations=int(structure["trace"]["num_iterations"]),
    )
    telemetry_payload = structure.get("telemetry")
    try:
        telemetry = (
            TrainingTelemetry.from_json(telemetry_payload) if telemetry_payload else None
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{source}: malformed telemetry record ({exc})") from exc
    return SkillModel(
        parameters=parameters,
        encoded=encoded,
        assignments=assignments,
        trace=trace,
        _assignment_times=times,
        telemetry=telemetry,
    )


def save_model(
    model: SkillModel,
    path_prefix: str | Path,
    *,
    extra: dict | None = None,
    similarity: Mapping | None = None,
) -> tuple[Path, Path]:
    """Write ``<prefix>.json`` and ``<prefix>.npz``; returns both paths.

    The model's :class:`~repro.obs.telemetry.TrainingTelemetry` (when
    present) rides along in the JSON, so ``repro inspect`` can report run
    diagnostics for models loaded from disk.  Save duration and artifact
    sizes land in the ``model.save_seconds`` / ``model.artifact_bytes``
    metrics and an INFO log record.

    ``extra`` is an optional JSON-representable object stored verbatim in
    the structure file and surfaced by :func:`artifact_metadata`; it never
    affects :func:`load_model`.  Because the JSON replace *is* the commit
    point of the two-file save, anything in ``extra`` (the serving fold-in
    watermark, for example) becomes durable atomically with the model it
    describes.

    ``similarity`` optionally embeds a precomputed item-similarity index
    payload (``ItemSimilarityIndex.to_payload()``) under reserved
    ``simidx_*`` NPZ names; :func:`load_model` ignores it, and
    :func:`load_similarity_payload` reads it back.  Artifacts without it
    stay loadable unchanged — the serving layer builds the index
    in-process when an artifact does not carry one.
    """
    registry = get_registry()
    start = registry.clock()
    prefix = Path(path_prefix)
    structure, arrays = _model_payload(model, extra=extra, similarity=similarity)
    users = structure["users"]

    json_path = prefix.with_suffix(".json")
    npz_path = prefix.with_suffix(".npz")
    npz_buffer = io.BytesIO()
    np.savez_compressed(npz_buffer, **arrays)
    npz_bytes = npz_buffer.getvalue()
    structure["checksums"] = {"algorithm": "sha256", "npz": _sha256_hex(npz_bytes)}
    try:
        json_bytes = json.dumps(structure, ensure_ascii=False).encode("utf-8")
    except TypeError as exc:
        raise DataError(f"model contains non-JSON identifiers: {exc}") from exc
    # NPZ first, JSON (which names the NPZ checksum) as the commit point.
    _atomic_commit([(npz_path, npz_bytes), (json_path, json_bytes)])
    elapsed = registry.clock() - start
    total_bytes = len(npz_bytes) + len(json_bytes)
    registry.histogram("model.save_seconds").observe(elapsed)
    registry.gauge("model.artifact_bytes").set(total_bytes)
    _log.info(
        "model saved",
        extra={
            "obs": {
                "prefix": str(prefix),
                "bytes": total_bytes,
                "users": len(users),
                "seconds": round(elapsed, 6),
            }
        },
    )
    return json_path, npz_path


def artifact_metadata(path_prefix: str | Path) -> dict:
    """Describe a saved model pair without reconstructing the model.

    Reads only the structure JSON plus a streaming checksum of the NPZ, so
    it is cheap enough for ``repro inspect`` and the serving ``/healthz``
    endpoint to call on every artifact.  Raises
    :class:`~repro.exceptions.DataError` when the JSON half is missing or
    malformed; a missing or mismatched NPZ is *reported* instead
    (``checksum_verified`` false, ``npz_bytes`` ``None``) so operators can
    inspect a torn pair rather than being told nothing about it.
    """
    prefix = Path(path_prefix)
    json_path = prefix.with_suffix(".json")
    npz_path = prefix.with_suffix(".npz")
    if not json_path.exists():
        raise DataError(f"missing model structure file {json_path}")
    json_bytes = json_path.read_bytes()
    try:
        structure = json.loads(json_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{json_path}: malformed model file ({exc})") from exc
    if not isinstance(structure, dict):
        raise DataError(f"{json_path}: model structure must be a JSON object")

    checksums = structure.get("checksums") or {}
    expected = checksums.get("npz")
    npz_size: int | None = None
    actual: str | None = None
    if npz_path.exists():
        npz_payload = npz_path.read_bytes()
        npz_size = len(npz_payload)
        actual = _sha256_hex(npz_payload)
    verified = expected is not None and actual == expected

    trace = structure.get("trace") or {}
    telemetry = structure.get("telemetry") or {}
    features = [entry.get("name") for entry in structure.get("features", [])]
    return {
        "json_path": str(json_path),
        "npz_path": str(npz_path),
        "format_version": structure.get("format_version"),
        "json_bytes": len(json_bytes),
        "npz_bytes": npz_size,
        "checksum_algorithm": checksums.get("algorithm"),
        "npz_checksum": expected,
        "checksum_verified": verified,
        "num_users": len(structure.get("users", [])),
        "num_items": len(structure.get("item_ids", [])),
        "num_levels": structure.get("num_levels"),
        "features": features,
        "telemetry_run_id": telemetry.get("run_id") if isinstance(telemetry, dict) else None,
        "converged": trace.get("converged"),
        "num_iterations": trace.get("num_iterations"),
        "extra": structure.get("extra"),
        "similarity": structure.get("similarity"),
    }


def load_model(path_prefix: str | Path) -> SkillModel:
    """Reconstruct a model written by :func:`save_model`."""
    registry = get_registry()
    start = registry.clock()
    prefix = Path(path_prefix)
    json_path = prefix.with_suffix(".json")
    npz_path = prefix.with_suffix(".npz")
    if not json_path.exists() or not npz_path.exists():
        raise DataError(f"missing model files {json_path} / {npz_path}")
    try:
        structure = json.loads(json_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{json_path}: malformed model file ({exc})") from exc
    if structure.get("format_version") != _FORMAT_VERSION:
        raise DataError(
            f"{json_path}: unsupported model format version "
            f"{structure.get('format_version')!r} (expected {_FORMAT_VERSION})"
        )
    npz_bytes = npz_path.read_bytes()
    checksums = structure.get("checksums")
    if checksums and "npz" in checksums:
        actual = _sha256_hex(npz_bytes)
        if actual != checksums["npz"]:
            raise DataError(
                f"{npz_path}: checksum mismatch (expected {checksums['npz'][:12]}…, "
                f"got {actual[:12]}…) — the model pair is torn or corrupted; "
                f"re-save the model or restore both files from the same write"
            )
    with _NPZ_DECODE_LOCK:
        try:
            npz = np.load(io.BytesIO(npz_bytes))
        except Exception as exc:  # zipfile.BadZipFile, ValueError, OSError
            raise DataError(
                f"{npz_path}: truncated or corrupted model archive ({exc})"
            ) from exc

        with npz as arrays:
            model = _restore_model(structure, arrays.__getitem__, source=str(npz_path))
    users = structure["users"]
    elapsed = registry.clock() - start
    registry.histogram("model.load_seconds").observe(elapsed)
    _log.info(
        "model loaded",
        extra={
            "obs": {
                "prefix": str(prefix),
                "bytes": len(npz_bytes),
                "users": len(users),
                "seconds": round(elapsed, 6),
            }
        },
    )
    return model


def load_similarity_payload(path_prefix: str | Path) -> dict | None:
    """Read the optional similarity-index payload from a saved model pair.

    Returns ``{"neighbors", "scores", "meta"}`` (fresh in-memory arrays)
    when the artifact carries an index, ``None`` for artifacts written
    before the index existed or saved without one — the caller decides
    whether to build one in-process instead.  The NPZ checksum is
    verified exactly as :func:`load_model` does: a torn pair must not
    serve a stale index either.
    """
    prefix = Path(path_prefix)
    json_path = prefix.with_suffix(".json")
    npz_path = prefix.with_suffix(".npz")
    if not json_path.exists() or not npz_path.exists():
        raise DataError(f"missing model files {json_path} / {npz_path}")
    try:
        structure = json.loads(json_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{json_path}: malformed model file ({exc})") from exc
    meta = structure.get("similarity")
    if meta is None:
        return None
    npz_bytes = npz_path.read_bytes()
    checksums = structure.get("checksums")
    if checksums and "npz" in checksums:
        actual = _sha256_hex(npz_bytes)
        if actual != checksums["npz"]:
            raise DataError(
                f"{npz_path}: checksum mismatch — the model pair is torn or "
                f"corrupted; refusing to load its similarity index"
            )
    with _NPZ_DECODE_LOCK:
        try:
            npz = np.load(io.BytesIO(npz_bytes))
        except Exception as exc:  # zipfile.BadZipFile, ValueError, OSError
            raise DataError(
                f"{npz_path}: truncated or corrupted model archive ({exc})"
            ) from exc
        with npz as arrays:
            try:
                neighbors = np.array(arrays[f"{_SIMILARITY_PREFIX}neighbors"])
                scores = np.array(arrays[f"{_SIMILARITY_PREFIX}scores"])
            except KeyError as exc:
                raise DataError(
                    f"{npz_path}: structure promises a similarity index but the "
                    f"archive lacks {exc.args[0]}"
                ) from None
    return {"neighbors": neighbors, "scores": scores, "meta": dict(meta)}


# ------------------------------------------------------------- shared memory
#
# The prefork serving mode (repro.serve.prefork) places one whole model in a
# single shared-memory segment so N worker processes read the same physical
# arrays.  Layout, from offset 0:
#
#   [8-byte LE header length][header JSON][64-byte-aligned arrays...]
#
# The header carries the same ``structure`` dict save_model writes plus an
# array table (name, dtype, shape, offset), so attach rebuilds the model
# through the exact _restore_model path load_model uses — only with
# zero-copy read-only views instead of freshly decompressed arrays.  The
# descriptor names the segment and a SHA-256 over the whole payload;
# attach re-hashes and refuses a mismatch, which is the checksum gate the
# hot-swap generation protocol relies on.

_SHM_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _SHM_ALIGN - 1) & ~(_SHM_ALIGN - 1)


def model_resident_bytes(model: SkillModel) -> int:
    """Bytes the model's numeric arrays occupy — the residency-budget unit.

    Matches the shared-memory payload size to within header/alignment
    slack, so disk-loaded and shm-attached tenants are charged the same
    way by the serving registry's LRU budget.
    """
    _structure, arrays = _model_payload(model)
    return sum(int(np.asarray(array).nbytes) for array in arrays.values())


def publish_model_shm(
    model: SkillModel, *, extra: dict | None = None, similarity: Mapping | None = None
):
    """Copy a model's arrays into one fresh shared-memory segment.

    Returns ``(segment, descriptor)``.  The caller owns the segment and
    must ``close()`` and ``unlink()`` it; the descriptor is a JSON-safe
    dict (``name``/``bytes``/``header_bytes``/``sha256``) that any
    process on the machine can hand to :func:`attach_model_shm`.

    ``similarity`` optionally lays the precomputed item-similarity index
    into the same segment (``simidx_*`` entries in the array table), so
    every prefork worker answering ``/recommend`` maps the one physical
    copy the parent built at publish time; workers read it back with
    :func:`shm_similarity_payload`.
    """
    from repro.core.parallel import create_segment

    registry = get_registry()
    start = registry.clock()
    structure, arrays = _model_payload(model, extra=extra, similarity=similarity)
    contiguous = {
        name: np.ascontiguousarray(array) for name, array in arrays.items()
    }
    table: list[dict] = []
    offset = 0
    for name, array in contiguous.items():
        offset = _aligned(offset)
        table.append(
            {
                "name": name,
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": offset,
            }
        )
        offset += array.nbytes
    try:
        header = json.dumps(
            {"structure": structure, "arrays": table}, ensure_ascii=False
        ).encode("utf-8")
    except TypeError as exc:
        raise DataError(f"model contains non-JSON identifiers: {exc}") from exc
    arrays_start = _aligned(8 + len(header))
    total = arrays_start + offset
    segment = create_segment(total, tag="model_")
    try:
        buf = segment.buf
        buf[:8] = struct.pack("<Q", len(header))
        buf[8 : 8 + len(header)] = header
        for entry, array in zip(table, contiguous.values()):
            if array.nbytes == 0:
                continue
            view = np.ndarray(
                array.shape,
                dtype=array.dtype,
                buffer=buf,
                offset=arrays_start + entry["offset"],
            )
            view[:] = array
            del view  # no exported views may outlive close()
        digest = hashlib.sha256(buf[:total]).hexdigest()
    except BaseException:
        segment.close()
        segment.unlink()
        raise
    descriptor = {
        "name": segment.name,
        "bytes": total,
        "header_bytes": len(header),
        "sha256": digest,
    }
    registry.histogram("model.shm_publish_seconds").observe(registry.clock() - start)
    _log.info(
        "model published to shared memory",
        extra={
            "obs": {
                "segment": segment.name,
                "bytes": total,
                "users": len(structure["users"]),
                "sha256": digest[:12],
            }
        },
    )
    return segment, descriptor


def attach_model_shm(descriptor: Mapping):
    """Rebuild a model around zero-copy views into a published segment.

    Returns ``(model, segment)``.  The arrays inside the model are
    read-only views into the segment's buffer: the segment must stay
    mapped (not ``close()``d) for as long as the model is referenced, and
    the caller never unlinks — the publisher owns the segment lifecycle.
    A payload whose SHA-256 disagrees with the descriptor (torn publish,
    wrong generation, reused name) raises
    :class:`~repro.exceptions.DataError` before any view escapes.
    """
    from repro.core.parallel import attach_segment

    name = str(descriptor["name"])
    total = int(descriptor["bytes"])
    segment = attach_segment(name)
    try:
        if segment.size < total:
            raise DataError(
                f"shm:{name}: segment is {segment.size} bytes, "
                f"descriptor promises {total}"
            )
        digest = hashlib.sha256(segment.buf[:total]).hexdigest()
        if digest != str(descriptor["sha256"]):
            raise DataError(
                f"shm:{name}: checksum mismatch (expected "
                f"{str(descriptor['sha256'])[:12]}…, got {digest[:12]}…) — "
                "the segment does not hold the generation the manifest names"
            )
        (header_bytes,) = struct.unpack("<Q", bytes(segment.buf[:8]))
        if header_bytes != int(descriptor["header_bytes"]):
            raise DataError(f"shm:{name}: header length disagrees with descriptor")
        header = json.loads(bytes(segment.buf[8 : 8 + header_bytes]).decode("utf-8"))
        structure = header["structure"]
        if structure.get("format_version") != _FORMAT_VERSION:
            raise DataError(
                f"shm:{name}: unsupported model format version "
                f"{structure.get('format_version')!r} (expected {_FORMAT_VERSION})"
            )
        arrays_start = _aligned(8 + header_bytes)
        views: dict[str, np.ndarray] = {}
        for entry in header["arrays"]:
            view = np.ndarray(
                tuple(entry["shape"]),
                dtype=np.dtype(entry["dtype"]),
                buffer=segment.buf,
                offset=arrays_start + int(entry["offset"]),
            )
            view.flags.writeable = False  # N readers, one physical copy
            views[entry["name"]] = view
        model = _restore_model(structure, views.__getitem__, source=f"shm:{name}")
    except BaseException:
        # Views created above die with this frame; the mapping can close.
        views = {}
        try:
            segment.close()
        except BufferError:  # pragma: no cover - interpreter-dependent
            pass
        raise
    return model, segment


def shm_similarity_payload(segment) -> dict | None:
    """The similarity-index payload inside an already-attached segment.

    ``segment`` is the mapping :func:`attach_model_shm` returned — its
    checksum gate already ran, so this only re-reads the header and
    builds read-only zero-copy views over the ``simidx_*`` entries.
    Returns ``{"neighbors", "scores", "meta"}`` or ``None`` when the
    publisher shipped no index.  The views share the segment's lifetime
    rule: keep the segment mapped for as long as the payload is used.
    """
    (header_bytes,) = struct.unpack("<Q", bytes(segment.buf[:8]))
    header = json.loads(bytes(segment.buf[8 : 8 + header_bytes]).decode("utf-8"))
    meta = header["structure"].get("similarity")
    if meta is None:
        return None
    arrays_start = _aligned(8 + header_bytes)
    views: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        if not entry["name"].startswith(_SIMILARITY_PREFIX):
            continue
        view = np.ndarray(
            tuple(entry["shape"]),
            dtype=np.dtype(entry["dtype"]),
            buffer=segment.buf,
            offset=arrays_start + int(entry["offset"]),
        )
        view.flags.writeable = False
        views[entry["name"][len(_SIMILARITY_PREFIX):]] = view
    if "neighbors" not in views or "scores" not in views:
        raise DataError(
            f"shm:{segment.name}: header promises a similarity index but the "
            "array table lacks its entries"
        )
    return {"neighbors": views["neighbors"], "scores": views["scores"], "meta": dict(meta)}
