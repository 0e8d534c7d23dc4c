"""In-process context broker: entity store, queries, subscriptions, delivery.

The store keeps one entity per id. Writes go through ``upsert_entity`` (full
replace) and ``update_attributes`` (partial patch); both validate invariants
before touching state and both feed the subscription machinery. A committed
entity version is never mutated: an upsert copies the entity in and checks
all of it; a patch copies in and checks only the attributes it changes, and
its new version shares the rest with the previous one. Subscription queues
hold the committed versions; reads (``get_entity``, ``query_entities``, the
result of ``update_attributes``) hand out copies. One delivery rule: a pump
cycle makes at most one ``deliver`` per subscription, carrying its whole queue
in commit order; a positive ``throttlingSeconds`` coalesces that batch into the
latest version per entity and spaces deliveries at least that far apart. A
failed delivery leaves its batch queued, so delivery is FIFO per subscription
and at-least-once; three consecutive sink failures flip a subscription to
``failed`` and drop its queue. Only ``HttpSink`` (the webhook POST) and
``CollectSink`` build the NGSI ``notification_doc``; a callable target gets
copies it may mutate. A webhook's 2xx reply is a delivery, whatever its body.

An optional JSON-lines journal holds each committed version's ``to_wire``
document, one unbuffered append each. A restart loads every line's entity,
checked as its commit was, and the last line for an id wins; a line that is
not a version (an older journal's operation record) is refused. A write is
journaled before it is stored, so one the journal refuses is not applied: a
failed or short append is cut back off the file, and the journal closes if
that fails too. After ``close``, a write fails at its append, before anything
is applied. Subscriptions are runtime state and are not journaled.
"""

import json
import logging
import math
import os
import re
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Protocol
from urllib.parse import urlsplit

from citykit import httpd
from citykit.clock import Clock, SystemClock
from citykit.ngsi import (Attribute, KindError, NgsiEntity, NgsiError, check_attributes,
                          check_entity, is_number, iso_utc)

logger = logging.getLogger(__name__)

COMPARATORS = ("==", "!=", "<=", ">=", "<", ">")

FAIL_LIMIT = 3  # consecutive sink failures before a subscription is failed
POLL_SECONDS = 0.05  # how often background delivery looks for queued notifications
SINK_TIMEOUT_SECONDS = 5.0  # how long each socket operation of a webhook POST may wait


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


def notification_doc(sub_id: str, issued_at: float, versions: list[NgsiEntity]) -> dict:
    """The NGSI notification document for one delivery of ``versions``."""
    return {"subscriptionId": sub_id, "issuedAt": iso_utc(issued_at),
            "data": [e.to_wire() for e in versions]}


class CollectSink:
    """In-process sink that appends notification documents to a list."""

    def __init__(self):
        self.notifications: list[dict] = []

    def deliver(self, sub_id: str, issued_at: float, versions: list[NgsiEntity]) -> None:
        self.notifications.append(notification_doc(sub_id, issued_at, versions))


class CallbackSink:
    """Adapter for a plain callable target, called with copies it may mutate."""

    def __init__(self, fn: Callable[[list[NgsiEntity]], None]):
        self.fn = fn

    def deliver(self, sub_id: str, issued_at: float, versions: list[NgsiEntity]) -> None:
        self.fn([e.copy() for e in versions])


class HttpSink:
    """POSTs each notification document to a callback URL."""

    def __init__(self, url: str):
        self.url = url

    def deliver(self, sub_id: str, issued_at: float, versions: list[NgsiEntity]) -> None:
        try:
            httpd.request_json("POST", self.url, notification_doc(sub_id, issued_at, versions),
                               timeout=SINK_TIMEOUT_SECONDS)
        except httpd.HttpError as exc:  # a 2xx reply is a delivery, whatever its body
            if not 200 <= exc.status < 300:
                raise


def _as_sink(target):
    if hasattr(target, "deliver"):
        return target
    if isinstance(target, str):
        if urlsplit(target).scheme not in ("http", "https"):
            raise MalformedSubscription(f"target URL must be http or https: {target!r}")
        return HttpSink(target)
    if callable(target):
        return CallbackSink(target)
    raise MalformedSubscription(f"unusable notification target: {target!r}")


@dataclass
class Subscription:
    """Filter plus sink; matches commits by type, id pattern, and attributes.

    One object is one registration: the broker holding it keeps its delivery
    state in the fields below ``status``, so subscribe a new object each time.
    """

    id: str
    entityTypeFilter: str = "*"
    idPattern: str = ".*"
    watchedAttributes: frozenset = frozenset()
    target: Any = None
    throttlingSeconds: float = 0
    status: str = "active"  # or "failed" after FAIL_LIMIT sink errors, or "removed"
    queue: list = field(default_factory=list, init=False, repr=False)  # versions, commit order
    last_delivery: Optional[float] = field(default=None, init=False, repr=False)
    consecutive_failures: int = field(default=0, init=False, repr=False)

    def __post_init__(self):
        throttle = self.throttlingSeconds
        if not (is_number(throttle) and 0 <= throttle < math.inf):
            raise MalformedSubscription(
                f"throttlingSeconds must be a finite number >= 0: {throttle!r}")
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
        watched, sub_id = doc.get("watchedAttributes", []), doc.get("id") or ""
        type_filter, id_pattern = doc.get("entityTypeFilter", "*"), doc.get("idPattern", ".*")
        if not isinstance(watched, list) or not all(
                isinstance(v, str) for v in [*watched, sub_id, type_filter, id_pattern]):
            raise MalformedSubscription("watchedAttributes must be a list of strings and id, "
                                        "entityTypeFilter and idPattern strings")
        return cls(id=sub_id, entityTypeFilter=type_filter, idPattern=id_pattern,
                   watchedAttributes=frozenset(watched), target=doc.get("target"),
                   throttlingSeconds=doc.get("throttlingSeconds", 0))

    def matches(self, entity: NgsiEntity, changed: set) -> bool:
        if self.entityTypeFilter != "*" and self.entityTypeFilter != entity.entityType:
            return False
        if not self._id_rx.search(entity.id):
            return False
        if self.watchedAttributes and not (self.watchedAttributes & changed):
            return False
        return True


def compare_values(value, op: str, literal) -> bool:
    """Apply one comparator; raises TypeMismatch for unordered operand pairs."""
    if op == "==":
        return value == literal and (type(value) is type(literal)  # a bool is not a number
                                     or is_number(value) and is_number(literal))
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
        self._subs: dict[str, Subscription] = {}
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
            self._journal_fh = open(self._journal_path, "ab", buffering=0)
        if delivery == "background":
            self._poll_thread = threading.Thread(
                target=self._poll_loop, daemon=True
            )
            self._poll_thread.start()

    # -- entity operations -------------------------------------------------

    def upsert_entity(self, entity: NgsiEntity) -> str:
        """Full replace; returns "created" or "updated"."""
        version = entity.copy()  # then checked: the caller may change ``entity`` meanwhile
        try:
            check_entity(version)  # outside the lock: the copy is this call's alone
        except NgsiError as exc:
            raise InvalidEntity(exc.message) from exc
        with self._lock:
            created = version.id not in self._entities
            self._commit(version, set(version.attributes))
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
        if not patch:
            return self.get_entity(entity_id)
        changed = {}
        for name, attr in patch.items():
            if not isinstance(attr, Attribute):
                raise InvalidEntity(f"patch value for {name!r} is not an attribute")
            changed[name] = attr.copy()
        with self._lock:
            current = self._entities.get(entity_id)
            if current is None:
                raise NotFound(f"no entity with id {entity_id!r}")
            try:
                check_attributes(changed)  # the rest of ``current`` passed when committed
            except NgsiError as exc:
                raise InvalidEntity(exc.message) from exc
            version = NgsiEntity(entity_id, current.entityType, {**current.attributes, **changed})
            self._commit(version, set(changed))
            result = version.copy()
        self._after_commit()
        return result

    def _commit(self, version: NgsiEntity, changed: set) -> None:
        """Journal, store and enqueue a checked version no caller holds; under ``_lock``."""
        if self._journal_fh is not None:
            self._journal(version.to_wire())
        self._entities[version.id] = version
        self._enqueue_matches(version, changed)

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
            self._subs[subscription.id] = subscription
            return subscription.id

    def unsubscribe(self, sub_id: str) -> bool:
        """Immediate: commits that start after this returns never match."""
        with self._lock:
            sub = self._subs.pop(sub_id, None)
            if sub is None:
                raise NotFound(f"no subscription with id {sub_id!r}")
            sub.status = "removed"
            return True

    # -- notification machinery ---------------------------------------------

    def _enqueue_matches(self, entity: NgsiEntity, changed: set) -> None:
        for sub in self._subs.values():
            if sub.status == "active" and sub.matches(entity, changed):
                sub.queue.append(entity)  # a committed version is never mutated

    def _after_commit(self):
        if self._delivery == "inline":
            with self._lock:
                queued = any(sub.queue for sub in self._subs.values())
            if queued:
                self.deliver_notifications()

    def deliver_notifications(self) -> int:
        """Run the pump; returns how many notifications this call delivered.

        Only one pump cycle runs at a time. A caller marks the pump dirty
        before it tries to run it, and one that finds the pump busy returns
        immediately: the running cycle sees the mark when it ends and runs
        again for the new work. So a sink handler that commits back into this
        broker cannot deadlock the delivering thread.
        """
        with self._lock:
            self._pump_dirty = True
        delivered = 0
        while self._pump_lock.acquire(blocking=False):
            try:
                with self._lock:
                    self._pump_dirty = False
                    subs = [sub for sub in self._subs.values() if sub.queue]
                now = self.clock.now()
                for sub in subs:
                    delivered += self._pump_one(sub, now)
            finally:
                self._pump_lock.release()
            with self._lock:
                if not self._pump_dirty:
                    break
        return delivered

    def _pump_one(self, sub: Subscription, now: float) -> int:
        """One delivery of everything ``sub`` has queued; returns 1 if it was made."""
        with self._lock:
            throttle = sub.throttlingSeconds
            if sub.status != "active" or not sub.queue or throttle and \
                    sub.last_delivery is not None and now - sub.last_delivery < throttle:
                return 0
            consumed = len(sub.queue)
            # throttled: the latest version per entity, in order of first appearance
            batch = list({v.id: v for v in sub.queue}.values()) if throttle else sub.queue[:]
        try:
            sub._sink.deliver(sub.id, now, batch)
        except Exception as exc:
            with self._lock:
                sub.consecutive_failures += 1
                if sub.consecutive_failures >= FAIL_LIMIT:
                    sub.status = "failed"
                    sub.queue.clear()  # nothing will deliver it
                    logger.warning("subscription %s failed after %d sink errors: %s",
                                   sub.id, FAIL_LIMIT, exc)
                else:
                    logger.debug("sink error for %s (attempt %d): %s",
                                 sub.id, sub.consecutive_failures, exc)
            return 0
        with self._lock:
            del sub.queue[:consumed]
            sub.consecutive_failures = 0
            sub.last_delivery = now
        return 1

    def _poll_loop(self):
        while not self._stop_poll.wait(POLL_SECONDS):
            try:
                self.deliver_notifications()
            except Exception:
                logger.exception("background pump error")

    # -- journal --------------------------------------------------------------

    def _journal(self, record: dict) -> None:
        """Append ``record`` in one write; one that fails or comes up short is cut
        back off the file, and if that fails too the journal closes."""
        data = json.dumps(record, sort_keys=True).encode("utf-8") + b"\n"
        start = self._journal_fh.seek(0, os.SEEK_END)
        try:
            if self._journal_fh.write(data) != len(data):
                raise OSError(f"a short journal write at byte {start}")
        except OSError:
            try:
                self._journal_fh.truncate(start)
            except OSError:
                self._journal_fh.close()
            raise

    def _replay_journal(self) -> None:
        """Store each journaled version, checked as its commit was; the last line
        for an id wins, and a torn last line (a crash mid-write) is cut off. A
        decoded version is fresh and no subscription exists yet: nothing is copied."""
        try:
            fh = open(self._journal_path, "rb")
        except FileNotFoundError:
            return
        with fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    if not line.endswith(b"\n"):
                        raise ValueError("record has no line end")
                    doc = json.loads(line)
                except ValueError as exc:
                    if fh.read(1):
                        raise BrokerError(f"journal {self._journal_path} line {lineno} "
                                          f"is corrupt: {exc}") from exc
                    logger.warning("journal %s: dropping torn record at line %d",
                                   self._journal_path, lineno)
                    # else the next append would be glued onto the torn record
                    os.truncate(self._journal_path, fh.tell() - len(line))
                    return
                try:
                    version = NgsiEntity.from_wire(doc)
                    check_entity(version)
                except NgsiError as exc:
                    raise BrokerError(f"journal {self._journal_path} line {lineno} "
                                      f"is invalid: {exc!r}") from exc
                self._entities[version.id] = version

    def close(self) -> None:
        self._stop_poll.set()
        if self._poll_thread is not None:
            self._poll_thread.join(timeout=2.0)
        with self._lock:  # the closed handle stays: a later write fails at its append
            if self._journal_fh is not None:
                self._journal_fh.close()
