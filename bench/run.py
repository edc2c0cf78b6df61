"""Benchmark entry point: every workload, end-to-end and per-layer metrics.

Usage::

    python3 bench/run.py --workload serve-small --seed 3 --seconds 15 --trace 0
    python3 bench/run.py --seed 1                 # every workload, untraced
    python3 bench/run.py --seed 1 --trace 1       # ... then traced, with overhead
    python3 bench/run.py --seed 1 --smoke         # short windows, one set-up

Inputs are generated from ``--seed`` through the public CLI and the
system is driven only through it: HTTP against ``repro serve`` and cold
``repro fit`` subprocesses.  Each reported metric is printed as one
``workload metric value unit`` line; lines starting with ``#`` are notes.
The last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics untraced
(``--trace 0``), the per-layer metrics traced (``--trace 1``).  A failed
correctness gate prints ``correct: false`` and exits 1; a failed set-up
exits 1 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import fitting  # noqa: E402
import ledger  # noqa: E402
import serving  # noqa: E402
from common import BenchError  # noqa: E402

#: End-to-end metrics, name -> unit.  "op" is the workload's unit of
#: work: one read request on the serve workloads, one cold fit of the
#: log and one of the store on the fit workload.
E2E_METRICS: dict[str, str] = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}

WORKLOADS = {**{name: serving.run for name in serving.SPECS}, "fit": fitting.run}

RUN_SECONDS = 15
SETUPS = 3


def machine() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, setups: int):
    """Run one workload arm in a fresh work directory."""
    work = common.WORK / f"{name}-{seed}-{'traced' if trace else 'plain'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result = WORKLOADS[name](name, seed, seconds, trace=trace, setups=setups, work=work)
    if not result.problems:
        shutil.rmtree(work, ignore_errors=True)
    return result


def report(name: str, result, trace: bool) -> dict:
    """Print one workload's lines; return its metrics as the JSON wants them."""
    units = ledger.LAYER_METRICS if trace else E2E_METRICS
    values = result.layers if trace else result.e2e
    metrics = {}
    for metric, unit in units.items():
        value = float(values.get(metric, 0.0))
        print(f"{name} {metric} {value!r} {unit}")
        metrics[metric] = {"value": value, "unit": unit}
    for note in result.notes:
        print(f"# {name} {note}")
    for problem in result.problems:
        print(f"# {name} FAILED {problem}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: every workload)",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1: record per-layer spans and report the per-layer metrics",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="2-second windows and a single set-up"
    )
    parser.add_argument("--out", type=Path, help="also write the results as JSON here")
    args = parser.parse_args(argv)

    if not (common.SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {common.SRC}", file=sys.stderr)
        return 2
    seconds = 2.0 if args.smoke else args.seconds
    setups = 1 if args.smoke else SETUPS
    names = args.workload or list(WORKLOADS)
    # A single named workload reports the arm --trace selects.  Without
    # --workload every workload runs untraced and, with --trace, traced
    # too, so the tracing overhead can be read off the two arms.
    if args.workload:
        arms = [bool(args.trace)]
    else:
        arms = [False, True] if args.trace else [False]
    info = machine()
    print("# machine " + " ".join(f"{key}={value}" for key, value in info.items()))

    records = []
    correct, attempted, failed = True, 0, 0
    combined: dict[str, dict] = {}
    for name in names:
        latency = {}
        for trace in arms:
            try:
                result = run_one(name, args.seed, seconds, trace, 1 if trace else setups)
            except BenchError as exc:
                print(f"error: {name}: {exc}", file=sys.stderr)
                return 1
            metrics = report(name, result, trace)
            latency[trace] = result.e2e["latency_p50_ms"]
            correct = correct and not result.problems
            attempted += result.attempted
            failed += result.failed
            records.append(
                {"workload": name, "seed": args.seed, "trace": trace,
                 "metrics": metrics, "problems": result.problems}
            )
            prefix = "" if len(names) == 1 else f"{name}/"
            combined.update({prefix + key: value for key, value in metrics.items()})
        if len(latency) == 2:
            overhead = 100.0 * (latency[True] - latency[False]) / latency[False]
            print(f"# {name} bench.trace_overhead_pct {overhead:.2f} (latency_p50_ms)")

    if args.out:
        args.out.write_text(
            json.dumps({"machine": info, "seconds": seconds, "runs": records}, indent=1),
            encoding="utf-8",
        )
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
