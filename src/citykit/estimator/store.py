"""Embedded time-series store keyed by (entityId, attributeName).

Samples are ``(t, value)`` tuples kept sorted with strictly increasing
timestamps; re-ingesting a timestamp replaces that sample's value. A time or
value that is not finite is refused, since it would break the order or poison
every fit over the series; ``extend`` checks a whole batch first, so a refused
record adds none of it. Readers get list copies, so training and inference
work on immutable snapshots while ingestion keeps appending.
``get`` copies only what it returns: it bisects to the ``from``/``to`` bounds
(inclusive), and ``last=n`` keeps the newest ``n`` samples of that range.
"""

from bisect import bisect_left, bisect_right
import math
import threading
from typing import NamedTuple, Optional


class Sample(NamedTuple):
    t: float
    value: float


class TimeSeriesStore:
    def __init__(self):
        self._series: dict[tuple, list[Sample]] = {}
        self._lock = threading.Lock()

    def append(self, entity_id: str, attribute: str, t: float, value: float) -> None:
        self.extend(entity_id, attribute, ((t, value),))

    def extend(self, entity_id: str, attribute: str, records) -> int:
        """Add a batch of ``(t, value)`` records to one series; returns the count.

        Every record is checked before any is stored, so one refused record
        adds none. The batch then goes in under one lock hold, each record
        inserted in record order.
        """
        key = (entity_id, attribute)
        samples = [_checked(key, t, value) for t, value in records]
        if not samples:
            return 0
        with self._lock:
            series = self._series.setdefault(key, [])
            for sample in samples:
                if not series or series[-1].t < sample.t:
                    series.append(sample)
                    continue
                idx = bisect_left(series, (sample.t,))
                if idx < len(series) and series[idx].t == sample.t:
                    series[idx] = sample  # same timestamp: last write wins
                else:
                    series.insert(idx, sample)
        return len(samples)

    def get(self, entity_id: str, attribute: str,
            t_from: Optional[float] = None,
            t_to: Optional[float] = None,
            last: Optional[int] = None) -> list[Sample]:
        if t_from != t_from or t_to != t_to:
            return []  # a NaN bound compares false with every time
        with self._lock:
            series = self._series.get((entity_id, attribute), [])
            lo = 0 if t_from is None else bisect_left(series, (t_from,))
            hi = len(series) if t_to is None else bisect_right(series, (t_to, math.inf))
            return series[max(lo, hi - last) if last else lo:hi]

    def length(self, entity_id: str, attribute: str) -> int:
        with self._lock:
            return len(self._series.get((entity_id, attribute), ()))

    def keys(self) -> list[tuple]:
        with self._lock:
            return sorted(self._series)


def _checked(key: tuple, t, value) -> Sample:
    """``(t, value)`` as a Sample; ValueError when either is not finite."""
    sample = Sample(float(t), float(value))
    if not (math.isfinite(sample.t) and math.isfinite(sample.value)):
        raise ValueError(f"sample ({t!r}, {value!r}) for {key} is not finite")
    return sample

