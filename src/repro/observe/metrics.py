"""Instrument types: counters, gauges and streaming histograms.

Each instrument is thread-safe (the TCP server reads metrics off the
engine thread that records them) and snapshots to a plain-JSON dict.
The histogram keeps exact count/sum/min/max plus a fixed-size uniform
reservoir so p50/p95/p99 stay O(1) memory over unbounded streams.  The reservoir is
sampled by skipping (Li's Algorithm L): once it is full, the RNG is
drawn only when an observation replaces a sample — about
``k * ln(n / k)`` times over ``n`` observations — not once per
observation.  The RNG is seeded from the instrument name, keeping
snapshots reproducible run-to-run for deterministic workloads.
"""

from __future__ import annotations

import math
import random
import threading
import zlib

DEFAULT_RESERVOIR_SIZE = 1024


class Counter:
    """Monotonically increasing count of occurrences."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self._value}



class Gauge:
    """Last-written value of a quantity that can go up and down."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self._value}



class Histogram:
    """Streaming distribution summary with reservoir-sampled quantiles."""

    __slots__ = (
        "name", "_count", "_sum", "_min", "_max",
        "_reservoir", "_capacity", "_rng", "_lock", "_w", "_next",
    )

    def __init__(
        self, name: str, reservoir_size: int = DEFAULT_RESERVOIR_SIZE
    ) -> None:
        if reservoir_size < 1:
            raise ValueError(
                f"reservoir_size must be >= 1, got {reservoir_size}"
            )
        self.name = name
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._reservoir: list[float] = []
        self._capacity = reservoir_size
        # hash() is salted per-process; crc32 keeps the seed stable.
        self._rng = random.Random(zlib.crc32(name.encode()))
        self._lock = threading.Lock()
        #: Algorithm L's threshold: the largest random key among the
        #: retained samples (set once the reservoir is full)
        self._w = 1.0
        #: count at which the next observation replaces a sample
        self._next = 0

    def _skip(self) -> None:
        """Draw the count of the next observation to enter the full
        reservoir: a geometric skip past the current threshold."""
        u = 1.0 - self._rng.random()  # (0, 1]: log() stays finite
        self._next = self._count + 1 + int(math.log(u) / math.log1p(-self._w))

    def _rearm(self) -> None:
        """Redraw the threshold for a full reservoir holding a uniform
        sample of ``count`` observations, then the skip.

        The k-th smallest of ``count`` uniform keys is
        Beta(k, count - k + 1) distributed, independent of which
        observations hold those keys; at ``count == k`` this is
        Algorithm L's initial ``u ** (1 / k)``.
        """
        k = self._capacity
        self._w = self._rng.betavariate(k, self._count - k + 1)
        self._skip()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if self._count == self._next:
                rng = self._rng
                self._reservoir[rng.randrange(self._capacity)] = value
                self._w *= math.exp(math.log(1.0 - rng.random()) / self._capacity)
                self._skip()
            elif len(self._reservoir) < self._capacity:
                self._reservoir.append(value)
                if len(self._reservoir) == self._capacity:
                    self._rearm()

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 <= q <= 1) from the reservoir."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must lie in [0, 1], got {q}")
        with self._lock:
            sample = sorted(self._reservoir)
        if not sample:
            return 0.0
        # Nearest-rank on the sampled values.
        index = min(len(sample) - 1, int(q * len(sample)))
        return sample[index]

    def snapshot(self) -> dict:
        with self._lock:
            # min/max must be copied under the same lock as count/sum and
            # the reservoir: reading them after release races a concurrent
            # observe() on the engine thread and can tear the snapshot
            # (e.g. min > p50).
            count, total = self._count, self._sum
            low, high = self._min, self._max
            sample = sorted(self._reservoir)
        if not count:
            return {"type": "histogram", "count": 0}

        def q(frac: float) -> float:
            return sample[min(len(sample) - 1, int(frac * len(sample)))]

        out = {
            "type": "histogram",
            "count": count,
            "sum": total,
            "mean": total / count,
            "min": low,
            "max": high,
            "p50": q(0.50),
            "p95": q(0.95),
            "p99": q(0.99),
        }
        if total > 0:
            # For duration histograms: observations per second of
            # measured time, i.e. sustained throughput of the stage.
            out["per_second"] = count / total
        return out
