"""Paths, the benchmark declaration and the order statistics every
other module of the end-to-end benchmark shares."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

#: Root of the checkout: ``benchmarks/e2e/`` sits two levels below it.
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
RESULTS_DIR = Path(__file__).resolve().parent / "results"


def require_program() -> None:
    """Make ``repro`` importable from the checkout, or stop.

    The benchmark measures the program in this checkout and nothing
    else, so a missing ``src/repro`` is an error rather than a reason
    to fall back on an installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to benchmark: "
                         f"{SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    """The parsed ``BENCHMARK.json`` at the checkout root."""
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def quantile(values, q: float) -> float:
    """The ``q``-quantile (0 ≤ q ≤ 1) with linear interpolation between
    order statistics (NumPy's default ``linear`` method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


#: Percentiles the benchmark may report as a tail, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(count: int, min_beyond: int = 10) -> float | None:
    """The highest candidate percentile with at least ``min_beyond`` of
    ``count`` samples strictly above it, or ``None`` when even the
    median has fewer.

    A sample of ``count`` values has ``count * (1 - p/100)`` values
    beyond the ``p``-th percentile, so p99 needs 1,000 samples and p90
    needs 100.
    """
    for candidate in TAIL_CANDIDATES:
        if count * (100.0 - candidate) / 100.0 >= min_beyond - 1e-9:
            return candidate
    return None
