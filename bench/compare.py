"""Compare benchmark results of a base and a change, metric by metric.

Usage::

    python bench/compare.py --base base1.json base2.json ... --change new1.json ...
    python bench/compare.py --base run1.json run2.json ...     # spreads only

Inputs are files written by ``bench/run.py --out``.  Runs are paired in
the order given, so interleave them (base, change, base, change, ...)
when producing them.  For every end-to-end metric of every workload, one
row reports each side's median and quartiles, the spread (interquartile
range over the median), and the share of pairs the change wins, ties
counting for neither.  The verdict follows the benchmark's rule:

- ``gain``: at least ten pairs ran, the change wins at least nine
  tenths of them and the medians differ by more than the base's
  interquartile range;
- ``unresolved``: the base's spread exceeds the metric's bound, unless
  every change run beats every base run;
- ``regression``: the change's median is worse than the base's by more
  than the metric's bound;
- ``within bound`` otherwise.

The bounds and better-directions come from ``BENCHMARK.json``.  The exit
status is 1 when any row is a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: Fewest pairs a gain may rest on.  With five pairs of identical code,
#: a row wins all five one time in 32.
MIN_PAIRS = 10


def load_runs(paths: list[Path]) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values, in file order, untraced runs only."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        for record in json.loads(path.read_text(encoding="utf-8"))["runs"]:
            if record["trace"]:
                continue
            for metric, entry in record["metrics"].items():
                values.setdefault((record["workload"], metric), []).append(entry["value"])
    return values


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def verdict(
    base: list[float], change: list[float], bound: float, lower_is_better: bool
) -> tuple[str, float]:
    """The row's verdict and the change's win share over paired runs."""
    def better(a: float, b: float) -> bool:
        return a < b if lower_is_better else a > b

    pairs = list(zip(base, change))
    wins = sum(better(c, b) for b, c in pairs)
    share = wins / len(pairs) if pairs else 0.0
    base_median, base_q1, base_q3, base_spread = summary(base)
    change_median = statistics.median(change)
    worse = (change_median - base_median) / base_median
    if not lower_is_better:
        worse = -worse
    if (
        len(pairs) >= MIN_PAIRS
        and share >= 0.9
        and better(change_median, base_median)
        and abs(change_median - base_median) > base_q3 - base_q1
    ):
        return "gain", share
    if base_spread > bound:
        if all(better(c, b) for c in change for b in base):
            return "better in every run", share
        return "unresolved", share
    if worse > bound:
        return "regression", share
    return "within bound", share


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base = load_runs(args.base)
    change = load_runs(args.change) if args.change else {}

    header = (
        f"{'workload':14s} {'metric':16s} {'bound':>6s} "
        f"{'base median [q1, q3]':>34s} {'spread':>7s}"
    )
    if change:
        header += f" {'change median [q1, q3]':>34s} {'spread':>7s} {'wins':>5s}  verdict"
    print(header)
    regressions = 0
    for (workload, name), values in sorted(base.items()):
        if name not in metrics:
            continue
        bound = metrics[name]["bound"]
        median, q1, q3, spread = summary(values)
        row = (
            f"{workload:14s} {name:16s} {bound:6.2f} "
            f"{f'{median:.4g} [{q1:.4g}, {q3:.4g}]':>34s} {spread:7.3f}"
        )
        other = change.get((workload, name))
        if other:
            c_median, c_q1, c_q3, c_spread = summary(other)
            outcome, share = verdict(
                values, other, bound, metrics[name]["better"] == "lower"
            )
            regressions += outcome == "regression"
            row += (
                f" {f'{c_median:.4g} [{c_q1:.4g}, {c_q3:.4g}]':>34s} {c_spread:7.3f}"
                f" {share:5.2f}  {outcome}"
            )
        elif not change:
            row += "" if spread <= bound / 3 else "  (spread above a third of the bound)"
        print(row)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
