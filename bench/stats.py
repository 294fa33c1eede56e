"""Order statistics shared by the benchmark's processes (stdlib only)."""

import statistics
from typing import Iterable, List


def percentile(values: Iterable[float], q: float) -> float:
    """Linearly interpolated *q*-th percentile (0-100); 0.0 for none."""
    data: List[float] = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    """Median of *values*; 0.0 for none (a layer never exercised)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def quartiles(values: Iterable[float]) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives
    them; a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return (values[0],) * 3 if values else (0.0, 0.0, 0.0)
    return tuple(statistics.quantiles(values, n=4))
