"""Tests of the benchmark harness itself: ``python -m pytest bench -q``.

They need no ``repro`` server or fit: the load generator runs against a
stub HTTP server in-process.
"""

from __future__ import annotations

import asyncio
import json
import re
from pathlib import Path

import compare
import ledger
import loadgen
import run
import serving

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 1001))
    assert loadgen.tail(values) == (990.0, 99.0)
    assert sum(v > loadgen.tail(values)[0] for v in values) == 10
    assert loadgen.tail(list(range(2000, 0, -1))) == (1990.0, 99.5)
    # With 11 samples only the minimum leaves ten beyond it.
    assert loadgen.tail(range(11))[0] == 0.0
    # Ten or fewer samples support no percentile: the slowest stands in.
    assert loadgen.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert loadgen.tail([]) == (0.0, 0.0)


async def _stub_server(stall_on: int, stall: float):
    """An HTTP server answering ``{}``; its ``stall_on``-th request stalls."""
    seen = 0

    async def handle(reader, writer):
        nonlocal seen
        try:
            while True:
                if not await reader.readline():
                    return
                length = 0
                while (line := await reader.readline()) not in (b"\r\n", b""):
                    if line.lower().startswith(b"content-length"):
                        length = int(line.split(b":")[1])
                await reader.readexactly(length)
                seen += 1
                if seen == stall_on:
                    await asyncio.sleep(stall)
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
                await writer.drain()
        finally:
            writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_a_stall_raises_the_latency_of_requests_due_during_it():
    rate, stall = 100.0, 0.2

    async def scenario():
        server = await _stub_server(stall_on=5, stall=stall)
        port = server.sockets[0].getsockname()[1]
        schedule = [loadgen.Request(i / rate, "GET", "/x") for i in range(40)]
        try:
            return await loadgen.drive("127.0.0.1", port, schedule, connections=1)
        finally:
            server.close()
            await server.wait_closed()

    outcomes = sorted(asyncio.run(scenario()), key=lambda o: o.due)
    assert [o.status for o in outcomes] == [200] * 40
    stalled = outcomes[4]
    assert stalled.latency >= stall
    # Requests due while the only connection was stalled waited for it:
    # timed from their due time they carry the rest of the stall, though
    # the server answered each within microseconds of receiving it.
    for outcome in outcomes[5:15]:
        remaining = stalled.done - outcome.due
        assert outcome.queued
        assert outcome.latency >= remaining
        assert outcome.done - outcome.sent < 0.05
    assert outcomes[-1].latency < 0.05
    assert not outcomes[-1].queued


def test_ingest_slices_are_cut_between_observed_swaps():
    def probe(due: float, version: int) -> loadgen.Outcome:
        request = loadgen.Request(due, "GET", "/healthz", kind="health")
        body = json.dumps({"model_version": version}).encode()
        return loadgen.Outcome(request, due, due, due, 200, body, False)

    # Swaps show at 1.0, 4.5 and 8.0 s; a late answer from before a swap
    # (version 2 after 3 was seen) starts no slice.
    probes = [probe(0.5, 1), probe(1.0, 2), probe(4.5, 3), probe(4.6, 2), probe(8.0, 4)]
    spec = serving.SPECS["ingest-swap"]
    assert serving._slice_starts(spec, probes, 10.0) == [0.0, 2.75, 6.25]
    # Without fold-ins every slice holds 200 reads' due times, and the
    # last one also takes the remainder of the window.
    assert serving._slice_starts(serving.SPECS["serve-small"], [], 3.0) == [0.0, 1.0, 2.0]
    assert serving._slice_starts(serving.SPECS["serve-catalog"], [], 12.0) == [0.0, 4.0, 8.0]
    assert serving._slice_starts(serving.SPECS["serve-catalog"], [], 10.0) == [0.0, 4.0]


def test_self_time_subtracts_children_once():
    spans = [
        ledger.Span("root", 1, None, 0.0, 10.0, None),
        ledger.Span("child", 2, 1, 1.0, 4.0, None),
        ledger.Span("child", 3, 1, 3.0, 6.0, None),  # overlaps its sibling
        ledger.Span("grandchild", 4, 2, 2.0, 3.0, None),
    ]
    selfs = ledger.self_times(spans)
    assert selfs == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}
    assert ledger.missing_layers(spans, ("root", "absent")) == ["absent"]


def test_compare_rule():
    base = [10.0, 10.2, 9.9, 10.1, 10.0] * 2
    # Ties count for neither side.
    assert compare.verdict(base, list(base), 0.1, True) == ("within bound", 0.0)
    assert compare.verdict(base, [v * 0.8 for v in base], 0.1, True) == ("gain", 1.0)
    assert compare.verdict(base, [v * 1.2 for v in base], 0.1, True)[0] == "regression"
    assert compare.verdict(base, [v * 1.2 for v in base], 0.1, False)[0] == "gain"
    # Five pairs are too few for a gain, however clear.
    assert compare.verdict(base[:5], [v * 0.8 for v in base[:5]], 0.1, True)[0] == (
        "within bound"
    )
    noisy = [5.0, 10.0, 15.0, 10.0, 7.0] * 2
    assert compare.verdict(noisy, [v * 1.01 for v in noisy], 0.1, True)[0] == "unresolved"
    assert compare.verdict(noisy, [1.0] * 10, 0.1, True)[0] == "gain"


def test_metric_names_and_units_are_valid():
    for name, unit in {**run.E2E_METRICS, **ledger.LAYER_METRICS}.items():
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
    for name in run.WORKLOADS:
        assert NAME.match(name), name


def test_benchmark_json_names_match_printed_names():
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert spec["run_seconds"] == run.RUN_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == ledger.LAYER_METRICS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"]) <= 0.25
