"""HTTP facade for the context broker, plus a small client for it.

Routes:
  POST   /v2/entities                  upsert (body: entity document)
  GET    /v2/entities?type=&idPattern=&q=   query; `q` is `name<op>literal;...`
  GET    /v2/entities/{id}             fetch one entity
  PATCH  /v2/entities/{id}/attrs       partial update (body: attribute map)
  POST   /v2/subscriptions             subscribe (target is a callback URL)
  DELETE /v2/subscriptions/{id}        unsubscribe

A failure is answered as every server answers a ``KindError``: the body's
``error`` is the broker exception's ``kind``, with 404 for ``not-found`` and
400 for invalid input and malformed filters; ``BrokerClient`` raises the
exception class that kind names. Notifications go out as POSTs of the
notification document to the subscription's callback URL.
"""

import json
import logging
from contextlib import contextmanager
from typing import Optional
from urllib.parse import quote, unquote, urlencode

from citykit.broker import (
    ContextBroker,
    InvalidEntity,
    MalformedPattern,
    MalformedSubscription,
    NotFound,
    Subscription,
    TypeMismatch,
    parse_q,
)
from citykit.httpd import HttpError, HttpService, JsonHttpServer, request_json
from citykit.ngsi import Attribute, NgsiEntity

logger = logging.getLogger(__name__)

_BY_KIND = {cls.kind: cls for cls in (NotFound, InvalidEntity, MalformedPattern,
                                      TypeMismatch, MalformedSubscription)}


@contextmanager
def _broker_errors():
    """Re-raise an HTTP error reply as the broker exception its kind names."""
    try:
        yield
    except HttpError as exc:
        kind = exc.payload.get("error") if isinstance(exc.payload, dict) else None
        if kind not in _BY_KIND:
            raise
        raise _BY_KIND[kind](exc.payload.get("detail", "")) from exc


class BrokerServer(HttpService):
    """Binds a ContextBroker to the /v2 routes on a loopback HTTP server."""

    def __init__(self, broker: Optional[ContextBroker] = None,
                 host: str = "127.0.0.1", port: int = 0):
        self.broker = broker or ContextBroker()
        self.server = JsonHttpServer(host=host, port=port)
        for method, pattern, handler in (
                ("POST", r"/v2/entities", self._upsert),
                ("GET", r"/v2/entities", self._query),
                ("GET", r"/v2/entities/(?P<id>[^/]+)", self._get),
                ("PATCH", r"/v2/entities/(?P<id>[^/]+)/attrs", self._patch),
                ("POST", r"/v2/subscriptions", self._subscribe),
                ("DELETE", r"/v2/subscriptions/(?P<id>[^/]+)", self._unsubscribe)):
            self.server.add_route(method, pattern, handler)

    def stop(self) -> None:
        super().stop()
        self.broker.close()

    @property
    def url(self) -> str:
        return self.server.url()

    # -- handlers ----------------------------------------------------------

    def _upsert(self, match, params, body):
        outcome = self.broker.upsert_entity(NgsiEntity.from_wire(body))
        return (201 if outcome == "created" else 200), {"result": outcome}

    def _query(self, match, params, body):
        entities = self.broker.query_entities(
            typeFilter=params.get("type"),
            idPattern=params.get("idPattern"),
            attrFilter=parse_q(params["q"]) if "q" in params else None,
        )
        return 200, [e.to_wire() for e in entities]

    def _get(self, match, params, body):
        return 200, self.broker.get_entity(unquote(match.group("id"))).to_wire()

    def _patch(self, match, params, body):
        if not isinstance(body, dict):
            raise InvalidEntity("body must be an attribute map")
        patch = {name: Attribute.from_wire(doc) for name, doc in body.items()}
        return 200, self.broker.update_attributes(unquote(match.group("id")), patch).to_wire()

    def _subscribe(self, match, params, body):
        if not isinstance(body, dict):
            raise MalformedSubscription("body must be an object")
        return 201, {"id": self.broker.subscribe(Subscription.from_wire(body))}

    def _unsubscribe(self, match, params, body):
        self.broker.unsubscribe(unquote(match.group("id")))
        return 200, {"removed": True}


class BrokerClient:
    """Talks to a BrokerServer. The ``Broker`` protocol's methods raise
    ContextBroker's exceptions; the short wire-level ones raise HttpError.
    """

    def __init__(self, base_url: str, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def upsert(self, entity) -> str:
        doc = entity.to_wire() if isinstance(entity, NgsiEntity) else entity
        _, payload = request_json("POST", f"{self.base_url}/v2/entities", body=doc,
                                  timeout=self.timeout)
        return payload["result"]

    def get(self, entity_id: str) -> NgsiEntity:
        _, payload = request_json(
            "GET", f"{self.base_url}/v2/entities/{quote(entity_id, safe='')}",
            timeout=self.timeout,
        )
        return NgsiEntity.from_wire(payload)

    def query(self, entity_type: Optional[str] = None,
              id_pattern: Optional[str] = None,
              q: Optional[str] = None) -> list[NgsiEntity]:
        params = {}
        if entity_type is not None:
            params["type"] = entity_type
        if id_pattern is not None:
            params["idPattern"] = id_pattern
        if q is not None:
            params["q"] = q
        url = f"{self.base_url}/v2/entities"
        if params:
            url += "?" + urlencode(params)
        _, payload = request_json("GET", url, timeout=self.timeout)
        return [NgsiEntity.from_wire(doc) for doc in payload]

    def patch(self, entity_id: str, attrs: dict) -> NgsiEntity:
        doc = {
            name: (a.to_wire() if isinstance(a, Attribute) else a)
            for name, a in attrs.items()
        }
        _, payload = request_json(
            "PATCH",
            f"{self.base_url}/v2/entities/{quote(entity_id, safe='')}/attrs",
            body=doc, timeout=self.timeout,
        )
        return NgsiEntity.from_wire(payload)

    def upsert_entity(self, entity: NgsiEntity) -> str:
        with _broker_errors():
            return self.upsert(entity)

    def get_entity(self, entity_id: str) -> NgsiEntity:
        with _broker_errors():
            return self.get(entity_id)

    def query_entities(self, typeFilter: Optional[str] = None,
                       idPattern: Optional[str] = None,
                       attrFilter: Optional[list] = None) -> list[NgsiEntity]:
        q = ";".join(f"{name}{op}{json.dumps(literal)}"
                     for name, op, literal in attrFilter) if attrFilter else None
        with _broker_errors():
            return self.query(typeFilter, idPattern, q)

    def update_attributes(self, entity_id: str, patch: dict[str, Attribute]) -> NgsiEntity:
        with _broker_errors():
            return self.patch(entity_id, patch)

    def subscribe(self, doc: dict) -> str:
        _, payload = request_json("POST", f"{self.base_url}/v2/subscriptions",
                                  body=doc, timeout=self.timeout)
        return payload["id"]

    def unsubscribe(self, sub_id: str) -> bool:
        try:
            request_json("DELETE", f"{self.base_url}/v2/subscriptions/{quote(sub_id, safe='')}",
                         timeout=self.timeout)
        except HttpError as exc:
            if exc.status == 404:
                return False
            raise
        return True
