"""Three ingestion paths feeding one store: snapshot, historical, subscription.

A mapping of entityType to attributeName says which attribute of which
entities becomes a series. Sample timestamps come from, in order: the
attribute's ``observedAt`` metadata, the entity's ``dateObserved`` or
``dateModified`` attribute, else the ingestion clock; a stamp that is a number
but not finite counts as missing. Values that are not finite numbers are
counted as non-numeric and skipped, never stored.
"""

import logging
import math
from typing import Iterable, Optional

from citykit.broker import Broker, Subscription
from citykit.clock import Clock, SystemClock
from citykit.estimator.store import TimeSeriesStore
from citykit.ngsi import NgsiEntity, NgsiError, is_number, parse_iso

logger = logging.getLogger(__name__)


class IngestStats:
    def __init__(self):
        self.appended = 0
        self.skipped_non_numeric = 0


def _stamp(value):
    """``value``, or None for a number that is not finite."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _sample_time(entity: NgsiEntity, attribute: str, fallback: float) -> float:
    attr = entity.attributes.get(attribute)
    stamp = None
    if attr is not None:
        stamp = _stamp(attr.metadata.get("observedAt"))
    if stamp is None:
        stamp = _stamp(entity.value("dateObserved")) or _stamp(entity.value("dateModified"))
    if isinstance(stamp, str):
        try:
            return parse_iso(stamp)
        except NgsiError:
            pass
    if is_number(stamp):
        return float(stamp)
    return fallback


def ingest_entity(store: TimeSeriesStore, entity: NgsiEntity, attribute: str,
                  fallback_time: float, stats: Optional[IngestStats] = None) -> bool:
    value = entity.value(attribute)
    if not (is_number(value) and math.isfinite(value)):
        if stats:
            stats.skipped_non_numeric += 1
        logger.debug("skipping non-numeric %s.%s=%r", entity.id, attribute, value)
        return False
    store.append(entity.id, attribute, _sample_time(entity, attribute, fallback_time),
                 float(value))
    if stats:
        stats.appended += 1
    return True


def ingest_snapshot(store: TimeSeriesStore, broker: Broker, mapping: dict[str, str],
                    clock: Optional[Clock] = None) -> IngestStats:
    """One broker query per mapped type; one sample per matching entity."""
    clock = clock or SystemClock()
    stats = IngestStats()
    for entity_type in sorted(mapping):
        attribute = mapping[entity_type]
        entities = broker.query_entities(typeFilter=entity_type)
        now = clock.now()
        for entity in entities:
            ingest_entity(store, entity, attribute, now, stats)
    return stats


def ingest_historical(store: TimeSeriesStore, records: Iterable[dict]) -> IngestStats:
    """Bulk-add records {entityId, attr, t, value}, e.g. ``read_jsonl(path)``.

    Every record is parsed first, so a malformed one adds nothing. The
    samples are then grouped per (entityId, attr), keeping record order, and
    each series gets one ``store.extend``. The store ends as if each record
    had been appended in turn.
    """
    stats = IngestStats()
    series: dict[tuple, list] = {}
    for record in records:
        value = record.get("value")
        if not (is_number(value) and math.isfinite(value)):
            stats.skipped_non_numeric += 1
            continue
        entity_id, attribute = record["entityId"], record["attr"]
        if not (isinstance(entity_id, str) and isinstance(attribute, str)):
            raise TypeError(f"entityId and attr must be strings: {record!r}")
        t = float(record["t"])
        if not math.isfinite(t):
            raise ValueError(f"time is not finite: {record!r}")
        series.setdefault((entity_id, attribute), []).append((t, float(value)))
    for (entity_id, attribute), samples in series.items():
        stats.appended += store.extend(entity_id, attribute, samples)
    return stats


def ingest_subscription(store: TimeSeriesStore, broker, mapping: dict[str, str],
                        clock: Optional[Clock] = None) -> list[str]:
    """Broker subscriptions that keep appending as commits arrive (in-process)."""
    clock = clock or SystemClock()
    sub_ids = []
    for entity_type in sorted(mapping):
        attribute = mapping[entity_type]

        def on_notify(entities, attribute=attribute):
            for entity in entities:
                ingest_entity(store, entity, attribute, clock.now())

        sub_ids.append(broker.subscribe(Subscription(
            id="", entityTypeFilter=entity_type,
            watchedAttributes=frozenset({attribute}), target=on_notify,
        )))
    return sub_ids
