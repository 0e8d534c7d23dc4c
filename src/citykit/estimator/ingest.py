"""Three ingestion paths feeding one store: snapshot, historical, subscription.

A mapping of entityType to attributeName says which attribute of which
entities becomes a series. Sample timestamps come from, in order: the
attribute's ``observedAt`` metadata, the entity's ``dateObserved`` or
``dateModified`` attribute, else the ingestion clock. Non-numeric values are
counted and skipped, never stored.
"""

import logging
from typing import Iterable, Optional

from citykit.broker import Broker, Subscription, notified_entities
from citykit.clock import Clock, SystemClock
from citykit.estimator.store import TimeSeriesStore
from citykit.ngsi import NgsiEntity, NgsiError, is_number, parse_iso

logger = logging.getLogger(__name__)


class IngestStats:
    def __init__(self):
        self.appended = 0
        self.skipped_non_numeric = 0

    def as_doc(self) -> dict:
        return {"appended": self.appended,
                "skippedNonNumeric": self.skipped_non_numeric}


def _sample_time(entity: NgsiEntity, attribute: str, fallback: float) -> float:
    attr = entity.attributes.get(attribute)
    stamp = None
    if attr is not None:
        stamp = attr.metadata.get("observedAt")
    if stamp is None:
        stamp = entity.value("dateObserved") or entity.value("dateModified")
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
    if not is_number(value):
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
    """Bulk-append records {entityId, attr, t, value}, e.g. ``read_jsonl(path)``."""
    stats = IngestStats()
    # read every record first, so a malformed one appends nothing
    records = list(records)
    for record in records:
        value = record.get("value")
        if not is_number(value):
            stats.skipped_non_numeric += 1
            continue
        store.append(record["entityId"], record["attr"], float(record["t"]),
                     float(value))
        stats.appended += 1
    return stats


def ingest_subscription(store: TimeSeriesStore, broker, mapping: dict[str, str],
                        clock: Optional[Clock] = None) -> list[str]:
    """Broker subscriptions that keep appending as commits arrive (in-process)."""
    clock = clock or SystemClock()
    sub_ids = []
    for entity_type in sorted(mapping):
        attribute = mapping[entity_type]

        def on_notify(doc, attribute=attribute):
            for entity in notified_entities(doc):
                ingest_entity(store, entity, attribute, clock.now())

        sub_ids.append(broker.subscribe(Subscription(
            id="", entityTypeFilter=entity_type,
            watchedAttributes=frozenset({attribute}), target=on_notify,
        )))
    return sub_ids
