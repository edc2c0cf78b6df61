"""Run one ``repro`` CLI command and report on it from inside its process.

Usage::

    python bench/launch.py --report out.json -- fit DATA --levels 5 --model M
    python bench/launch.py --layers serve --report out.json -- serve MODEL --port 0
    python bench/launch.py --layers fit --report out.json -- fit DATA --levels 5 --model M

The launcher calls ``repro.cli.main`` with the remaining arguments and,
when it returns, writes ``--report``: the process's peak resident set
(``VmHWM``) and metrics-registry counters, and with ``--layers`` the
spans recorded at each layer boundary.  The peak is read here because
the ``ru_maxrss`` a parent gets from ``wait4`` also counts the parent's
own pages at the moment the child was spawned.

With ``--layers`` the launcher first wraps the callables at each layer
boundary.  Each wrapper records a span ``(layer, id, parent, start, end,
attrs)``; the parent is the innermost wrapped call on the same task or
thread, so a layer's self time is its duration minus what its wrapped
children cover.  Spans stay in memory until the command returns.

Each wrapper replaces the name its caller resolves at call time: a
function imported by name into the calling module is patched in that
module, a method on its class.  A wrapper bound anywhere else would never
fire, which is why the benchmark fails a traced run in which an expected
layer recorded no span.
"""

from __future__ import annotations

import argparse
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import time
from pathlib import Path

import common

_spans: list[tuple] = []
_ids = itertools.count(1)
_current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "bench_span", default=None
)


def _attrs_bench_id(args, kwargs, result):
    return {"id": args[1].headers.get("x-bench-id")}


def _attrs_submit(args, kwargs, result):
    return {"payload": id(args[1]), "batcher": args[0].name}


def _attrs_flush(args, kwargs, result):
    return {"payloads": [id(entry[0]) for entry in args[1]], "batcher": args[0].name}


def _attrs_swapped(args, kwargs, result):
    return {"swapped": bool(result)}


def _attrs_append(args, kwargs, result):
    return {"events": len(args[1])}


def _attrs_events(args, kwargs, result):
    return {"events": result}


def _attrs_cells(args, kwargs, result):
    stats = args[1]
    features = len(stats.feature_set)
    dirty = kwargs.get("dirty_levels")
    levels = stats.num_levels if dirty is None else len({int(s) for s in dirty})
    return {"cells": levels * features, "possible": stats.num_levels * features}


#: (layer, module, attribute path, attrs function) per wrapped callable.
LAYERS: dict[str, list[tuple]] = {
    "serve": [
        ("serve.dispatch", "repro.serve.server", "SkillServer._dispatch", _attrs_bench_id),
        ("serve.batcher.submit", "repro.serve.batcher", "MicroBatcher.submit", _attrs_submit),
        ("serve.batcher.flush", "repro.serve.batcher", "MicroBatcher._flush", _attrs_flush),
        ("recsys.ranking.predict_items", "repro.serve.server", "predict_items", None),
        ("core.model.top_items", "repro.core.model", "SkillModel.top_items", None),
        (
            "recsys.upskill.recommend_batch",
            "repro.recsys.upskill",
            "UpskillRecommender.recommend_batch",
            None,
        ),
        ("core.difficulty.difficulty_array", "repro.serve.server", "difficulty_array", None),
        ("recsys.similarity.similar_harder", "repro.serve.server", "similar_harder", None),
        ("recsys.similarity.build_index", "repro.serve.state", "build_similarity_index", None),
        (
            "serve.state.maybe_reload",
            "repro.serve.state",
            "ModelState.maybe_reload",
            _attrs_swapped,
        ),
        ("core.serialize.load_model", "repro.serve.state", "load_model", None),
        ("core.serialize.load_model", "repro.serve.foldin", "load_model", None),
        ("serve.ingest.append", "repro.serve.ingest", "WriteAheadLog.append", _attrs_append),
        ("serve.foldin.run_once", "repro.serve.foldin", "FoldinWorker.run_once", _attrs_events),
        ("core.incremental.extend_model", "repro.serve.foldin", "extend_model", None),
        ("core.serialize.save_model", "repro.serve.foldin", "save_model", None),
    ],
    "fit": [
        ("data.io.load_log", "repro.data.io", "load_log", None),
        ("data.store.shard", "repro.data.store", "ActionStore.shard", None),
        (
            "core.engine.score_table",
            "repro.core.model",
            "SkillParameters.item_score_table",
            None,
        ),
        ("core.engine.assign", "repro.core.engine", "AssignmentEngine.assign_flat", None),
        ("core.shard.assign", "repro.core.shard", "_estep_shard_impl", None),
        ("core.stats.reduce", "repro.core.stats", "SkillStats.from_assignments", None),
        ("core.stats.reduce", "repro.core.stats", "SkillStats.add", None),
        ("core.stats.reduce", "repro.core.stats", "SkillStats.update", None),
        (
            "core.model.cell_fit",
            "repro.core.model",
            "SkillParameters.fit_from_stats",
            _attrs_cells,
        ),
        ("core.serialize.save_model", "repro.core.serialize", "save_model", None),
    ],
}


def _record(layer, span, parent, start, end, attrs_fn, args, kwargs, result, failed):
    attrs = None
    if attrs_fn is not None and not failed:
        attrs = attrs_fn(args, kwargs, result)
    _spans.append((layer, span, parent, start, end, attrs))


def _wrap(layer: str, fn, attrs_fn):
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            span, parent = next(_ids), _current.get()
            token = _current.set(span)
            start = time.monotonic()
            result, failed = None, True
            try:
                result = await fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.monotonic()
                _current.reset(token)
                _record(layer, span, parent, start, end, attrs_fn, args, kwargs, result, failed)

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span, parent = next(_ids), _current.get()
        token = _current.set(span)
        start = time.monotonic()
        result, failed = None, True
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            end = time.monotonic()
            _current.reset(token)
            _record(layer, span, parent, start, end, attrs_fn, args, kwargs, result, failed)

    return wrapper


def install(group: str) -> None:
    """Patch every callable of a layer group in place."""
    for layer, module_name, path, attrs_fn in LAYERS[group]:
        module = importlib.import_module(module_name)
        owner_path, _, name = path.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, name)
        if isinstance(raw, classmethod):
            # Class methods receive the class as args[0], like methods
            # receive self, so attrs functions index arguments alike.
            patched = classmethod(_wrap(layer, raw.__func__, attrs_fn))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(_wrap(layer, raw.__func__, attrs_fn))
        else:
            patched = _wrap(layer, raw, attrs_fn)
        setattr(owner, name, patched)


def dump(path: Path) -> None:
    """Write the report (tmp file, then rename)."""
    from repro.obs.metrics import get_registry

    payload = {
        "peak_rss_mb": common.peak_rss_mb(),
        "counters": get_registry().snapshot().get("counters", {}),
        "spans": list(_spans),
    }
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload), encoding="utf-8")
    os.replace(tmp, path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--layers", choices=sorted(LAYERS))
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    common.import_repro()
    if args.layers:
        install(args.layers)
    from repro.cli import main as repro_main

    try:
        return repro_main(command)
    finally:
        dump(args.report)


if __name__ == "__main__":
    sys.exit(main())
