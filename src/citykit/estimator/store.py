"""Embedded time-series store keyed by (entityId, attributeName).

Samples are kept sorted with strictly increasing timestamps; re-ingesting a
timestamp replaces that sample's value. Readers get list copies, so training
and inference work on immutable snapshots while ingestion keeps appending.
"""

import bisect
import threading
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Sample:
    t: float
    value: float


class TimeSeriesStore:
    def __init__(self):
        self._series: dict[tuple, list[Sample]] = {}
        self._lock = threading.Lock()

    def append(self, entity_id: str, attribute: str, t: float, value: float) -> None:
        key = (entity_id, attribute)
        sample = Sample(float(t), float(value))
        with self._lock:
            series = self._series.setdefault(key, [])
            if not series or series[-1].t < sample.t:
                series.append(sample)
                return
            idx = bisect.bisect_left(series, sample.t, key=lambda s: s.t)
            if idx < len(series) and series[idx].t == sample.t:
                series[idx] = sample  # same timestamp: last write wins
            else:
                series.insert(idx, sample)

    def extend(self, entity_id: str, attribute: str, records) -> int:
        count = 0
        for t, value in records:
            self.append(entity_id, attribute, t, value)
            count += 1
        return count

    def get(self, entity_id: str, attribute: str,
            t_from: Optional[float] = None,
            t_to: Optional[float] = None) -> list[Sample]:
        with self._lock:
            series = list(self._series.get((entity_id, attribute), ()))
        if t_from is not None:
            series = [s for s in series if s.t >= t_from]
        if t_to is not None:
            series = [s for s in series if s.t <= t_to]
        return series

    def length(self, entity_id: str, attribute: str) -> int:
        with self._lock:
            return len(self._series.get((entity_id, attribute), ()))

    def keys(self) -> list[tuple]:
        with self._lock:
            return sorted(self._series)
