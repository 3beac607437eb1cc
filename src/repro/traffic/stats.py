"""Statistics utilities for simulation measurements.

Pure-python (no numpy dependency in the hot path) running statistics,
percentiles and histograms.

Million-flit runs must not hold per-sample lists, so the accumulating
classes are streaming: :class:`RunningStats` (Welford moments) and
:class:`P2Quantile` (the P² streaming percentile estimator).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence

__all__ = [
    "RunningStats",
    "percentile",
    "P2Quantile",
    "Histogram",
]


class RunningStats:
    """Welford online mean/variance plus min/max."""

    def __init__(self):
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = float("inf")
        self.maximum = -float("inf")

    def add(self, value: float) -> None:
        self.n += 1
        delta = value - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (value - self._mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        return self._mean if self.n else float("nan")

    @property
    def variance(self) -> float:
        if self.n < 2:
            return 0.0 if self.n else float("nan")
        return self._m2 / (self.n - 1)

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance) if self.n else float("nan")

    def merge(self, other: "RunningStats") -> None:
        """Fold another accumulator in (parallel Welford combination);
        lets per-sink statistics aggregate without sample lists."""
        if not other.n:
            return
        if not self.n:
            self.n = other.n
            self._mean = other._mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return
        total = self.n + other.n
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.n * other.n / total
        self._mean += delta * other.n / total
        self.n = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.n:
            return "RunningStats(empty)"
        return (f"RunningStats(n={self.n}, mean={self.mean:.3f}, "
                f"min={self.minimum:.3f}, max={self.maximum:.3f})")


class P2Quantile:
    """Streaming quantile estimation (Jain & Chlamtac's P² algorithm).

    Tracks one quantile ``q`` (in [0, 100]) with five markers — O(1)
    memory however many samples arrive, the companion to
    :class:`RunningStats` for latency tails on million-flit runs.  Exact
    for the first five samples; a piecewise-parabolic estimate after.
    """

    def __init__(self, q: float):
        if not 0 <= q <= 100:
            raise ValueError(f"quantile {q} outside [0, 100]")
        self.q = q
        self._p = q / 100.0
        self._heights: List[float] = []
        self._positions = [1, 2, 3, 4, 5]
        p = self._p
        self._desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p,
                         3.0 + 2.0 * p, 5.0]
        self._increments = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]
        self.n = 0

    def add(self, value: float) -> None:
        self.n += 1
        heights = self._heights
        if len(heights) < 5:
            heights.append(value)
            heights.sort()
            return
        positions = self._positions
        # Locate the cell and bump the extreme markers.
        if value < heights[0]:
            heights[0] = value
            k = 0
        elif value >= heights[4]:
            heights[4] = value
            k = 3
        else:
            k = 0
            while value >= heights[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            positions[i] += 1
        for i in range(5):
            self._desired[i] += self._increments[i]
        # Adjust the three middle markers towards their desired positions.
        for i in (1, 2, 3):
            d = self._desired[i] - positions[i]
            if (d >= 1 and positions[i + 1] - positions[i] > 1) or \
                    (d <= -1 and positions[i - 1] - positions[i] < -1):
                step = 1 if d >= 1 else -1
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:  # fall back to linear interpolation
                    heights[i] += step * (
                        (heights[i + step] - heights[i])
                        / (positions[i + step] - positions[i]))
                positions[i] += step

    def _parabolic(self, i: int, step: int) -> float:
        h, pos = self._heights, self._positions
        return h[i] + step / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + step) * (h[i + 1] - h[i])
            / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - step) * (h[i] - h[i - 1])
            / (pos[i] - pos[i - 1]))

    @property
    def value(self) -> float:
        """The current quantile estimate (NaN before any sample)."""
        if not self._heights:
            return float("nan")
        if self.n <= 5:
            return percentile(self._heights, self.q)
        return self._heights[2]


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    if not samples:
        return float("nan")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high or ordered[low] == ordered[high]:
        # Skipping interpolation between equal values avoids a 1-ulp
        # rounding dip below the true percentile.
        return ordered[low]
    frac = rank - low
    value = ordered[low] * (1 - frac) + ordered[high] * frac
    # The weighted sum can round an ulp outside its two neighbours
    # (1e-06 and 1.0000000000000002e-06 at a tiny frac give
    # 9.999999999999997e-07), which would put percentile(x, q) below
    # percentile(x, 0); clamp it back between them.
    return min(max(value, ordered[low]), ordered[high])


class Histogram:
    """Fixed-bin histogram over [low, high); outliers counted separately."""

    def __init__(self, low: float, high: float, bins: int):
        if high <= low:
            raise ValueError("high must exceed low")
        if bins < 1:
            raise ValueError("need at least one bin")
        self.low = low
        self.high = high
        self.bins = bins
        self.counts = [0] * bins
        self.underflow = 0
        self.overflow = 0
        self._width = (high - low) / bins

    def add(self, value: float) -> None:
        if value < self.low:
            self.underflow += 1
        elif value >= self.high:
            self.overflow += 1
        else:
            self.counts[int((value - self.low) / self._width)] += 1

    @property
    def total(self) -> int:
        return sum(self.counts) + self.underflow + self.overflow

    def edges(self) -> List[float]:
        return [self.low + i * self._width for i in range(self.bins + 1)]

    def render(self, width: int = 40) -> str:
        """ASCII rendering for examples and reports."""
        peak = max(self.counts) or 1
        lines = []
        for i, count in enumerate(self.counts):
            bar = "#" * int(round(width * count / peak))
            lo = self.low + i * self._width
            lines.append(f"{lo:10.2f} |{bar:<{width}} {count}")
        return "\n".join(lines)
