"""Paths and subprocess helpers shared by the benchmark's workloads.

The benchmark drives the repository only through its command line
(``python -m repro ...``) run from the checkout's ``src`` directory, and
keeps every file it writes under ``.bench_work`` in the checkout.  In a
traced run the same commands start through ``bench/launch.py`` instead,
which records per-layer spans inside the child process.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


class BenchError(Exception):
    """A set-up step failed; the run has no result."""


@dataclass
class Result:
    """What one workload run measured and found.

    ``problems`` lists failed correctness gates (the run is then not
    correct); ``notes`` are the run's informational lines.
    """

    e2e: dict[str, float]
    layers: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    notes: list[str]


def child_env() -> dict[str, str]:
    """Environment for every child process: the checkout's sources first,
    and temporary files (the sharded trainer's scratch) inside the
    checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    # The server announces its port on stdout, which goes to a file.
    env["PYTHONUNBUFFERED"] = "1"
    # The load generator shares the host's cores with the measured
    # process.  A second BLAS worker thread competes with it for them: on
    # 2 vCPUs it made the similarity-index rebuild take either ~0.55 s or
    # ~0.96 s per swap, run to run, and doubled the read-tail spread.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def repro_argv(
    args: list, *, report: Path | None = None, layers: str | None = None
) -> list[str]:
    """argv running ``repro <args>``; with ``report``, under
    ``bench/launch.py``, which writes the report when the command returns
    and with ``layers`` ("serve" or "fit") records spans."""
    if report is None:
        return [sys.executable, "-m", "repro", *map(str, args)]
    launcher = [sys.executable, str(BENCH_DIR / "launch.py"), "--report", str(report)]
    if layers:
        launcher += ["--layers", layers]
    return [*launcher, "--", *map(str, args)]


def run_cli(args: list) -> None:
    """Run one set-up command to completion."""
    done = subprocess.run(
        repro_argv(args),
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    if done.returncode != 0:
        raise BenchError(
            f"`repro {' '.join(map(str, args))}` exited {done.returncode}: "
            f"{done.stderr.strip()[-2000:]}"
        )


def import_repro() -> None:
    """Make the checkout's ``repro`` importable in this process (for the
    correctness gates, which compare served answers to direct calls)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def same_assignments(a, b) -> bool:
    """True when two models assign every user the same levels, in the
    same user order."""
    if list(a.assignments) != list(b.assignments):
        return False
    return all((a.assignments[u] == b.assignments[u]).all() for u in a.assignments)


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM (peak resident set) of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM in /proc/{pid}/status")


def host_calibration_ms() -> float:
    """Milliseconds a fixed pure-Python loop takes right now (best of 3).

    A shared host's speed can drift by ~1.5x for minutes at a time with
    what else runs on it, which steal time need not show.  A run whose
    calibration reads well above the usual ran in a slow phase.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value
        best = min(best, time.perf_counter() - start)
    return best * 1000.0
