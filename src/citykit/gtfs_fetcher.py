"""Change-tracking feed reloader: broker pointer entities drive the router.

The fetcher watches GtfsTransitFeedFile entities: ``attach`` considers each
committed pointer the broker delivers in process, ``poll`` the stored ones.
Whenever one's dateModified (or url) differs from what was last applied, the
referenced archive is read and handed to the router; a fetch or parse failure
is logged as an event and the previous graph keeps serving. The router is a
``Router`` or a ``RouterClient`` for a router server; both offer ``load_url``.
"""

import logging
import threading
from http.client import HTTPException
from typing import Union

from citykit.broker import Broker, Subscription
from citykit.gtfs import FeedError
from citykit.ngsi import NgsiEntity
from citykit.routing import Router, RouterClient

logger = logging.getLogger(__name__)


class GtfsFetcher:
    """Applies feed-pointer changes to a router, remembering what it applied."""

    def __init__(self, router: Union[Router, RouterClient]):
        self.router = router
        self.events: list[dict] = []
        self._applied: dict[str, tuple] = {}  # entityId -> (url, dateModified)
        self._lock = threading.Lock()

    def attach(self, broker) -> str:
        """Subscribe in-process; every committed feed pointer is considered."""
        return broker.subscribe(Subscription(
            id="", entityTypeFilter="GtfsTransitFeedFile",
            target=lambda entities: [self.consider(e) for e in entities]))

    def poll(self, broker: Broker) -> int:
        """Scan current pointers once (covers state older than the subscription)."""
        applied = 0
        for entity in broker.query_entities(typeFilter="GtfsTransitFeedFile"):
            if self.consider(entity):
                applied += 1
        return applied

    def consider(self, entity: NgsiEntity) -> bool:
        """Reload iff this pointer's (url, dateModified) is new; True on reload."""
        url = entity.value("url")
        modified = entity.value("dateModified")
        if not isinstance(url, str) or not url:
            self.events.append({"entityId": entity.id, "url": url, "dateModified": modified,
                                "outcome": "fetch-error", "detail": "pointer has no usable url"})
            return False
        with self._lock:
            if self._applied.get(entity.id) == (url, modified):
                return False
            event = self._reload(url)
            event.update({"entityId": entity.id, "url": url,
                          "dateModified": modified})
            self.events.append(event)
            if event["outcome"] == "reloaded":
                self._applied[entity.id] = (url, modified)
                return True
            return False

    def _reload(self, url: str) -> dict:
        try:
            version = self.router.load_url(url)
        except FeedError as exc:
            logger.warning("feed at %s was rejected: %s", url, exc)
            return {"outcome": "parse-error", "detail": str(exc)}
        except (OSError, ValueError, HTTPException) as exc:  # URLError is an OSError
            logger.warning("could not fetch %s: %s", url, exc)
            return {"outcome": "fetch-error", "detail": str(exc)}
        return {"outcome": "reloaded", "version": version}
