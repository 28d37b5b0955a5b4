"""Compare two sets of end-to-end results: a parent commit and a change.

    python benchmarks/e2e/compare.py --parent P.json [P.json ...]
        --change C.json [C.json ...]

Arguments may be result files written by ``run.py`` or directories
holding them; traced and ``--smoke`` results are skipped.  Runs pair
up by workload, seed and order, as the pairs protocol in the README
produces them.  For every workload and end-to-end metric it prints
each side's median and quartiles, the share of pairs the change won,
and a verdict judged against the bound in ``BENCHMARK.json``:

- ``improved``: at least ten pairs ran, the change won at least 9/10
  of them (ties count for neither), and its median beats the parent's
  by more than the parent's own quartile spread;
- ``regressed``: the change's median is worse than the parent's by
  more than the bound;
- ``unresolved``: the parent's runs spread wider than the bound and
  the change did not beat every parent run with every run;
- ``unchanged``: none of these.

Exits 1 on any regression or a higher failure ratio (failed ÷
attempted) on any workload, and 2 when the two sets were measured on
machines with a different ``nproc`` or Python version.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from common import load_spec

WIN_SHARE = 0.9
MIN_PAIRS = 10


def load_runs(paths: list[str]) -> list[dict]:
    """Every untraced, full-length result file among ``paths``."""
    files: list[Path] = []
    for path in map(Path, paths):
        files.extend(sorted(path.glob("*.json")) if path.is_dir()
                     else [path])
    runs = []
    for file in files:
        with open(file, encoding="utf-8") as handle:
            run = json.load(handle)
        if "workloads" in run and not run.get("trace") \
                and not run.get("smoke"):
            runs.append(run)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def better(a: float, b: float, direction: str) -> bool:
    return a > b if direction == "higher" else a < b


def verdict(parent: list[float], change: list[float],
            pairs: list[tuple[float, float]], direction: str,
            bound: float) -> tuple[str, float]:
    """The verdict for one workload × metric, and the pair win share."""
    wins = sum(better(new, old, direction) for old, new in pairs)
    share = wins / len(pairs) if pairs else 0.0
    first, parent_median, third = quartiles(parent)
    change_median = statistics.median(change)
    gain = (change_median - parent_median
            if direction == "higher" else parent_median - change_median)
    if len(pairs) >= MIN_PAIRS and share >= WIN_SHARE \
            and gain > third - first:
        return "improved", share
    if parent_median and -gain / abs(parent_median) > bound:
        return "regressed", share
    everywhere = all(better(new, old, direction)
                     for new in change for old in parent)
    if parent_median and (third - first) / abs(parent_median) > bound \
            and not everywhere:
        return "unresolved", share
    return "unchanged", share


def machine(runs: list[dict]) -> set[tuple]:
    return {(run["stamp"].get("nproc"), run["stamp"].get("python"))
            for run in runs}


def collect(runs: list[dict]):
    """``{workload: [(seed, metrics)]}`` plus failed/attempted totals."""
    by_workload: dict[str, list[tuple[int, dict]]] = defaultdict(list)
    totals: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for run in runs:
        for name, result in run["workloads"].items():
            by_workload[name].append((run["seed"], result["metrics"]))
            totals[name][0] += result["failed"]
            totals[name][1] += result["attempted"]
    return by_workload, totals


def pair_up(parent: list[tuple[int, dict]], change: list[tuple[int, dict]],
            metric: str) -> list[tuple[float, float]]:
    """The i-th parent run of a seed pairs with the i-th change run of
    the same seed."""
    queues: dict[int, list[float]] = defaultdict(list)
    for seed, metrics in parent:
        queues[seed].append(metrics[metric])
    pairs = []
    for seed, metrics in change:
        if queues[seed]:
            pairs.append((queues[seed].pop(0), metrics[metric]))
    return pairs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)

    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    if not parent_runs or not change_runs:
        print("error: each side needs at least one untraced result",
              file=sys.stderr)
        return 2
    machines = machine(parent_runs) | machine(change_runs)
    if len(machines) != 1:
        print(f"error: results come from different machines "
              f"(nproc, python): {sorted(machines, key=str)}",
              file=sys.stderr)
        return 2

    spec = load_spec()
    parent, parent_totals = collect(parent_runs)
    change, change_totals = collect(change_runs)
    failing = False
    print(f"{'workload':24s} {'metric':15s} {'parent q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'wins':>6s}  verdict")
    for name in sorted(set(parent) & set(change)):
        for metric in spec["end_to_end"]:
            key = metric["name"]
            old = [metrics[key] for _, metrics in parent[name]]
            new = [metrics[key] for _, metrics in change[name]]
            result, share = verdict(old, new,
                                    pair_up(parent[name], change[name], key),
                                    metric["better"], metric["bound"])
            failing |= result == "regressed"
            print(f"{name:24s} {key:15s} "
                  f"{'/'.join(f'{v:.4g}' for v in quartiles(old)):>30s} "
                  f"{'/'.join(f'{v:.4g}' for v in quartiles(new)):>30s} "
                  f"{share:6.2f}  {result}")
        (old_failed, old_tried), (new_failed, new_tried) = (
            parent_totals[name], change_totals[name])
        old_ratio = old_failed / old_tried if old_tried else 0.0
        new_ratio = new_failed / new_tried if new_tried else 0.0
        worse = new_ratio > old_ratio
        failing |= worse
        print(f"{name:24s} {'error_ratio':15s} {old_ratio:>30.4g} "
              f"{new_ratio:>30.4g} {'':6s}  "
              f"{'regressed' if worse else 'unchanged'}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
