"""In-process context broker: entity store, queries, subscriptions, delivery.

The store keeps one entity per id. Writes go through ``upsert_entity`` (full
replace) and ``update_attributes`` (partial patch); both validate invariants
before touching state and both feed the subscription machinery. A committed
entity version is never mutated: an upsert copies the entity in and checks
all of it; a patch copies in and checks only the attributes it changes, and
its new version shares the rest with the previous one. Subscription queues
hold the committed versions; reads (``get_entity``, ``query_entities``, the
result of ``update_attributes``) hand out copies. Notification
delivery is FIFO per subscription and at-least-once; a positive
``throttlingSeconds`` coalesces queued changes into the latest snapshot per
entity and spaces deliveries at least that far apart. Three consecutive sink
failures flip a subscription to ``failed`` and stop further attempts.

An optional JSON-lines journal records accepted writes so a restarted broker
can replay them. Subscriptions are runtime state and are not journaled.
"""

import json
import logging
import os
import re
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Protocol

from citykit.clock import Clock, SystemClock
from citykit.httpd import post_json
from citykit.ngsi import (Attribute, KindError, NgsiEntity, NgsiError, check_attributes,
                          check_entity, is_number, iso_utc)

logger = logging.getLogger(__name__)

COMPARATORS = ("==", "!=", "<=", ">=", "<", ">")

FAIL_LIMIT = 3  # consecutive sink failures before a subscription is failed
POLL_SECONDS = 0.05  # how often background delivery looks for queued notifications
SINK_TIMEOUT_SECONDS = 5.0  # how long a webhook POST may take


class BrokerError(KindError):
    """Base class for broker-level failures; each subclass names its ``kind``."""

    kind = "broker-error"

    def __init__(self, message: str):
        super().__init__(self.kind, message)


class InvalidEntity(BrokerError):
    kind = "invalid-entity"


class NotFound(BrokerError):
    kind = "not-found"


class MalformedPattern(BrokerError):
    kind = "malformed-pattern"


class TypeMismatch(BrokerError):
    kind = "type-mismatch"


class MalformedSubscription(BrokerError):
    kind = "malformed-subscription"


class Broker(Protocol):
    """Entity operations of ContextBroker and BrokerClient, with the same errors."""

    def upsert_entity(self, entity: NgsiEntity) -> str: ...
    def get_entity(self, entity_id: str) -> NgsiEntity: ...
    def query_entities(self, typeFilter: Optional[str] = None, idPattern: Optional[str] = None,
                       attrFilter: Optional[list] = None) -> list[NgsiEntity]: ...
    def update_attributes(self, entity_id: str, patch: dict[str, Attribute]) -> NgsiEntity: ...


class CollectSink:
    """In-process sink that appends notification documents to a list."""

    def __init__(self):
        self.notifications: list[dict] = []

    def deliver(self, doc: dict) -> None:
        self.notifications.append(doc)


class CallbackSink:
    """Adapter for a plain callable target."""

    def __init__(self, fn: Callable[[dict], None]):
        self.fn = fn

    def deliver(self, doc: dict) -> None:
        self.fn(doc)


class HttpSink:
    """POSTs each notification document to a callback URL."""

    def __init__(self, url: str):
        self.url = url

    def deliver(self, doc: dict) -> None:
        post_json(self.url, doc, timeout=SINK_TIMEOUT_SECONDS)


def notified_entities(doc: dict) -> Iterator[NgsiEntity]:
    """The entities a notification document carries; a malformed one is logged and skipped."""
    for entity_doc in doc.get("data", []):
        try:
            entity = NgsiEntity.from_wire(entity_doc)
        except NgsiError:
            logger.warning("ignoring malformed entity in notification")
            continue
        yield entity


def _as_sink(target):
    if hasattr(target, "deliver"):
        return target
    if isinstance(target, str):
        return HttpSink(target)
    if callable(target):
        return CallbackSink(target)
    raise MalformedSubscription(f"unusable notification target: {target!r}")


@dataclass
class Subscription:
    """Filter plus sink; matches commits by type, id pattern, and attributes."""

    id: str
    entityTypeFilter: str = "*"
    idPattern: str = ".*"
    watchedAttributes: frozenset = frozenset()
    target: Any = None
    throttlingSeconds: int = 0
    status: str = "active"

    def __post_init__(self):
        if self.throttlingSeconds < 0:
            raise MalformedSubscription("throttlingSeconds must be >= 0")
        try:
            self._id_rx = re.compile(self.idPattern)
        except re.error as exc:
            raise MalformedSubscription(f"idPattern does not compile: {exc}") from exc
        self.watchedAttributes = frozenset(self.watchedAttributes or ())
        self._sink = _as_sink(self.target)

    @classmethod
    def from_wire(cls, doc: dict) -> "Subscription":
        known = {"id", "entityTypeFilter", "idPattern", "watchedAttributes",
                 "target", "throttlingSeconds"}
        extra = set(doc) - known
        if extra:
            raise MalformedSubscription(f"unknown subscription fields {sorted(extra)}")
        try:
            return cls(
                id=doc.get("id") or "",
                entityTypeFilter=doc.get("entityTypeFilter", "*"),
                idPattern=doc.get("idPattern", ".*"),
                watchedAttributes=frozenset(doc.get("watchedAttributes") or ()),
                target=doc.get("target"),
                throttlingSeconds=int(doc.get("throttlingSeconds") or 0),
            )
        except (TypeError, ValueError) as exc:
            raise MalformedSubscription(str(exc)) from exc

    def matches(self, entity: NgsiEntity, changed: set) -> bool:
        if self.entityTypeFilter != "*" and self.entityTypeFilter != entity.entityType:
            return False
        if not self._id_rx.search(entity.id):
            return False
        if self.watchedAttributes and not (self.watchedAttributes & changed):
            return False
        return True


@dataclass
class _SubState:
    sub: Subscription
    queue: list = field(default_factory=list)  # entity snapshots, commit order
    last_delivery: Optional[float] = None
    consecutive_failures: int = 0
    removed: bool = False


def compare_values(value, op: str, literal) -> bool:
    """Apply one comparator; raises TypeMismatch for unordered operand pairs."""
    if op == "==":
        return value == literal and isinstance(value, type(literal)) or _num_eq(value, literal)
    if op == "!=":
        return not compare_values(value, "==", literal)
    both_num = is_number(value) and is_number(literal)
    both_str = isinstance(value, str) and isinstance(literal, str)
    if not (both_num or both_str):
        raise TypeMismatch(f"cannot order {value!r} against {literal!r}")
    if op == "<":
        return value < literal
    if op == "<=":
        return value <= literal
    if op == ">":
        return value > literal
    if op == ">=":
        return value >= literal
    raise MalformedPattern(f"unknown comparator {op!r}")


def _num_eq(a, b) -> bool:
    return is_number(a) and is_number(b) and a == b


# a clause runs to the next `;` that is not inside a double-quoted string
_CLAUSE_RE = re.compile(r'(?:"(?:[^"\\]|\\.)*"?|[^;"])+', re.DOTALL)


def parse_q(q: str) -> list[tuple[str, str, Any]]:
    """Parse a filter string of `name<op>literal` clauses joined by `;`.

    Literals are decoded as JSON when possible (numbers, booleans, quoted
    strings); anything else is taken as a bare string. A `;` inside a quoted
    literal belongs to the literal.
    """
    filters = []
    for clause in _CLAUSE_RE.findall(q):
        clause = clause.strip()
        if not clause:
            continue
        for op in COMPARATORS:
            idx = clause.find(op)
            if idx > 0:
                name = clause[:idx].strip()
                raw = clause[idx + len(op):].strip()
                try:
                    literal = json.loads(raw)
                except json.JSONDecodeError:
                    literal = raw
                filters.append((name, op, literal))
                break
        else:
            raise MalformedPattern(f"clause has no comparator: {clause!r}")
    return filters


class ContextBroker:
    """Entity store with subscriptions and notification delivery.

    ``delivery`` selects when the pump runs: ``inline`` (after every commit,
    synchronously), ``manual`` (only on explicit ``deliver_notifications``),
    or ``background`` (daemon thread polling every ``POLL_SECONDS``).
    """

    def __init__(self, clock: Optional[Clock] = None, journal_path=None,
                 delivery: str = "inline"):
        if delivery not in ("inline", "manual", "background"):
            raise ValueError(f"unknown delivery mode {delivery!r}")
        self.clock = clock or SystemClock()
        self._entities: dict[str, NgsiEntity] = {}
        self._subs: dict[str, _SubState] = {}
        self._sub_seq = 0
        self._lock = threading.RLock()
        self._pump_lock = threading.Lock()
        self._pump_dirty = False
        self._delivery = delivery
        self._journal_path = str(journal_path) if journal_path else None
        self._journal_fh = None
        self._stop_poll = threading.Event()
        self._poll_thread = None
        if self._journal_path:
            self._replay_journal()
            self._journal_fh = open(self._journal_path, "a", encoding="utf-8")
        if delivery == "background":
            self._poll_thread = threading.Thread(
                target=self._poll_loop, daemon=True
            )
            self._poll_thread.start()

    # -- entity operations -------------------------------------------------

    def upsert_entity(self, entity: NgsiEntity) -> str:
        """Full replace; returns "created" or "updated"."""
        try:
            check_entity(entity)
        except NgsiError as exc:
            raise InvalidEntity(exc.message) from exc
        with self._lock:
            created = entity.id not in self._entities
            stored = entity.copy()
            self._entities[entity.id] = stored
            if self._journal_fh is not None:
                self._journal({"op": "upsert", "entity": stored.to_wire()})
            self._enqueue_matches(stored, set(stored.attributes))
        self._after_commit()
        return "created" if created else "updated"

    def get_entity(self, entity_id: str) -> NgsiEntity:
        with self._lock:
            entity = self._entities.get(entity_id)
            if entity is None:
                raise NotFound(f"no entity with id {entity_id!r}")
            return entity.copy()

    def query_entities(self, typeFilter: Optional[str] = None,
                       idPattern: Optional[str] = None,
                       attrFilter: Optional[list] = None) -> list[NgsiEntity]:
        """All filters AND together; result is sorted by id."""
        rx = None
        if idPattern is not None:
            try:
                rx = re.compile(idPattern)
            except re.error as exc:
                raise MalformedPattern(f"idPattern does not compile: {exc}") from exc
        with self._lock:
            candidates = [self._entities[k] for k in sorted(self._entities)]
        out = []
        for entity in candidates:
            if typeFilter is not None and entity.entityType != typeFilter:
                continue
            if rx is not None and not rx.search(entity.id):
                continue
            if attrFilter and not self._passes_attr_filters(entity, attrFilter):
                continue
            out.append(entity.copy())
        return out

    @staticmethod
    def _passes_attr_filters(entity: NgsiEntity, attrFilter) -> bool:
        for name, op, literal in attrFilter:
            attr = entity.attributes.get(name)
            if attr is None:
                return False
            if not compare_values(attr.value, op, literal):
                return False
        return True

    def update_attributes(self, entity_id: str, patch: dict[str, Attribute]) -> NgsiEntity:
        """Replace/add the named attributes; an empty patch is a no-op."""
        with self._lock:
            current = self._entities.get(entity_id)
            if current is None:
                raise NotFound(f"no entity with id {entity_id!r}")
            if not patch:
                return current.copy()
            changed = {}
            for name, attr in patch.items():
                if not isinstance(attr, Attribute):
                    raise InvalidEntity(f"patch value for {name!r} is not an attribute")
                changed[name] = Attribute(attr.value, attr.valueType, dict(attr.metadata))
            try:
                check_attributes(changed)  # the rest of ``current`` passed when committed
            except NgsiError as exc:
                raise InvalidEntity(exc.message) from exc
            candidate = NgsiEntity(entity_id, current.entityType,
                                   {**current.attributes, **changed})
            self._entities[entity_id] = candidate
            if self._journal_fh is not None:
                self._journal({
                    "op": "patch",
                    "id": entity_id,
                    "attrs": {n: a.to_wire() for n, a in changed.items()},
                })
            self._enqueue_matches(candidate, set(changed))
            result = candidate.copy()
        self._after_commit()
        return result

    def entity_count(self) -> int:
        with self._lock:
            return len(self._entities)

    # -- subscriptions ------------------------------------------------------

    def subscribe(self, subscription: Subscription) -> str:
        with self._lock:
            if not subscription.id:
                self._sub_seq += 1
                subscription.id = f"sub-{self._sub_seq}"
            if subscription.id in self._subs:
                raise MalformedSubscription(f"duplicate subscription id {subscription.id!r}")
            self._subs[subscription.id] = _SubState(sub=subscription)
            return subscription.id

    def unsubscribe(self, sub_id: str) -> bool:
        """Immediate: commits that start after this returns never match."""
        with self._lock:
            state = self._subs.pop(sub_id, None)
            if state is None:
                raise NotFound(f"no subscription with id {sub_id!r}")
            state.removed = True
            return True

    def subscription_status(self, sub_id: str) -> str:
        with self._lock:
            state = self._subs.get(sub_id)
            if state is None:
                raise NotFound(f"no subscription with id {sub_id!r}")
            return state.sub.status

    # -- notification machinery ---------------------------------------------

    def _enqueue_matches(self, entity: NgsiEntity, changed: set) -> None:
        for state in self._subs.values():
            if state.sub.status != "active":
                continue
            if state.sub.matches(entity, changed):
                state.queue.append(entity)  # a committed version is never mutated

    def _after_commit(self):
        if self._delivery == "inline":
            with self._lock:
                queued = any(state.queue for state in self._subs.values())
            if queued:
                self.deliver_notifications()

    def deliver_notifications(self, now: Optional[float] = None) -> int:
        """Run the pump; returns how many notifications this call delivered.

        Only one pump cycle runs at a time. A caller that finds the pump busy
        marks it dirty and returns immediately (the running cycle re-runs to
        pick up the new work), so a sink handler that commits back into this
        broker cannot deadlock the delivering thread.
        """
        delivered = 0
        while True:
            if not self._pump_lock.acquire(blocking=False):
                with self._lock:
                    self._pump_dirty = True
                return delivered
            try:
                with self._lock:
                    self._pump_dirty = False
                    states = [state for state in self._subs.values() if state.queue]
                cycle_now = now if now is not None else self.clock.now()
                for state in states:
                    delivered += self._pump_one(state, cycle_now)
            finally:
                self._pump_lock.release()
            with self._lock:
                if not self._pump_dirty:
                    return delivered

    def _pump_one(self, state: _SubState, now: float) -> int:
        sub = state.sub
        delivered = 0
        while True:
            with self._lock:
                if state.removed or sub.status != "active" or not state.queue:
                    return delivered
                throttle = sub.throttlingSeconds
                if throttle and state.last_delivery is not None \
                        and now - state.last_delivery < throttle:
                    return delivered
                if throttle:
                    # Coalesce everything queued: latest snapshot per entity,
                    # ordered by each entity's first appearance.
                    latest: dict[str, NgsiEntity] = {}
                    for snap in state.queue:
                        latest[snap.id] = snap
                    batch = list(latest.values())
                    consumed = len(state.queue)
                else:
                    batch = [state.queue[0]]
                    consumed = 1
            doc = {
                "subscriptionId": sub.id,
                "issuedAt": iso_utc(now),
                "data": [e.to_wire() for e in batch],
            }
            try:
                sub._sink.deliver(doc)
            except Exception as exc:
                with self._lock:
                    state.consecutive_failures += 1
                    if state.consecutive_failures >= FAIL_LIMIT:
                        sub.status = "failed"
                        logger.warning("subscription %s failed after %d sink errors: %s",
                                       sub.id, FAIL_LIMIT, exc)
                    else:
                        logger.debug("sink error for %s (attempt %d): %s",
                                     sub.id, state.consecutive_failures, exc)
                return delivered
            with self._lock:
                del state.queue[:consumed]
                state.consecutive_failures = 0
                state.last_delivery = now
            delivered += 1
            if throttle:
                return delivered

    def _poll_loop(self):
        while not self._stop_poll.wait(POLL_SECONDS):
            try:
                self.deliver_notifications()
            except Exception:
                logger.exception("background pump error")

    # -- journal --------------------------------------------------------------

    def _journal(self, record: dict) -> None:
        self._journal_fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._journal_fh.flush()

    def _replay_journal(self) -> None:
        """Re-apply journaled writes; a torn last record (a crash mid-write) is cut off."""
        try:
            fh = open(self._journal_path, "rb")
        except FileNotFoundError:
            return
        with fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    if not line.endswith(b"\n"):
                        raise ValueError("record has no line end")
                    record = json.loads(line) if line.strip() else None
                except ValueError as exc:
                    if fh.read(1):
                        raise BrokerError(f"journal {self._journal_path} line {lineno} "
                                          f"is corrupt: {exc}") from exc
                    logger.warning("journal %s: dropping torn record at line %d",
                                   self._journal_path, lineno)
                    # else the next append would be glued onto the torn record
                    os.truncate(self._journal_path, fh.tell() - len(line))
                    return
                if record is None:
                    continue
                try:
                    self._replay(record)
                except (NgsiError, KeyError, TypeError, AttributeError) as exc:
                    raise BrokerError(f"journal {self._journal_path} line {lineno} "
                                      f"is invalid: {exc!r}") from exc

    def _replay(self, record: dict) -> None:
        """Apply one journal record, checked as its commit was."""
        if record["op"] == "upsert":
            entity = NgsiEntity.from_wire(record["entity"])
            check_entity(entity)
            self._entities[entity.id] = entity
        elif record["op"] == "patch":
            entity = self._entities.get(record["id"])
            if entity is None:
                logger.warning("journal patch for unknown id %s", record["id"])
                return
            changed = {n: Attribute.from_wire(doc) for n, doc in record["attrs"].items()}
            check_attributes(changed)
            self._entities[entity.id] = NgsiEntity(entity.id, entity.entityType,
                                                   {**entity.attributes, **changed})
        else:
            logger.warning("skipping unknown journal op %r", record["op"])

    def close(self) -> None:
        self._stop_poll.set()
        if self._poll_thread is not None:
            self._poll_thread.join(timeout=2.0)
        if self._journal_fh is not None:
            self._journal_fh.close()
            self._journal_fh = None
