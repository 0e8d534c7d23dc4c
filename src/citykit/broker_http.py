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
400 for invalid input and malformed filters. Every ``BrokerClient`` call goes
through one request helper that raises the exception class that kind names,
so a client raises what ContextBroker raises, ``unsubscribe`` of an unknown
id included. ``upsert`` takes an entity and ``patch`` attribute documents.
Notifications go out as POSTs of the notification document to the
subscription's callback URL.
"""

import json
import logging
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


class BrokerServer(HttpService):
    """Binds a ContextBroker to the /v2 routes on a loopback HTTP server."""

    def __init__(self, broker: ContextBroker, host: str = "127.0.0.1", port: int = 0):
        self.broker = broker
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
    """Talks to a BrokerServer. Every method raises what ContextBroker raises
    for the broker's error kinds; any other error reply is an ``HttpError``,
    and a transport failure an ``OSError``.
    """

    def __init__(self, base_url: str, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _call(self, method: str, path: str, body=None):
        """The decoded payload of one request to the broker."""
        try:
            _, payload = request_json(method, self.base_url + path, body=body,
                                      timeout=self.timeout)
        except HttpError as exc:
            if exc.kind not in _BY_KIND:
                raise
            raise _BY_KIND[exc.kind](exc.message) from exc
        return payload

    def upsert(self, entity: NgsiEntity) -> str:
        return self._call("POST", "/v2/entities", entity.to_wire())["result"]

    def get(self, entity_id: str) -> NgsiEntity:
        return NgsiEntity.from_wire(self._call("GET", f"/v2/entities/{quote(entity_id, safe='')}"))

    def query(self, entity_type: Optional[str] = None,
              id_pattern: Optional[str] = None,
              q: Optional[str] = None) -> list[NgsiEntity]:
        params = {name: value for name, value in
                  (("type", entity_type), ("idPattern", id_pattern), ("q", q))
                  if value is not None}
        path = "/v2/entities" + ("?" + urlencode(params) if params else "")
        return [NgsiEntity.from_wire(doc) for doc in self._call("GET", path)]

    def patch(self, entity_id: str, docs: dict) -> NgsiEntity:
        """Replace/add attributes given as wire documents."""
        return NgsiEntity.from_wire(
            self._call("PATCH", f"/v2/entities/{quote(entity_id, safe='')}/attrs", docs))

    def subscribe(self, doc: dict) -> str:
        return self._call("POST", "/v2/subscriptions", doc)["id"]

    def unsubscribe(self, sub_id: str) -> bool:
        self._call("DELETE", f"/v2/subscriptions/{quote(sub_id, safe='')}")
        return True

    # -- the Broker protocol, through the traced methods above ---------------

    def upsert_entity(self, entity: NgsiEntity) -> str:
        return self.upsert(entity)

    def get_entity(self, entity_id: str) -> NgsiEntity:
        return self.get(entity_id)

    def query_entities(self, typeFilter: Optional[str] = None,
                       idPattern: Optional[str] = None,
                       attrFilter: Optional[list] = None) -> list[NgsiEntity]:
        q = ";".join(f"{name}{op}{json.dumps(literal)}" for name, op, literal in attrFilter or ())
        return self.query(typeFilter, idPattern, q or None)

    def update_attributes(self, entity_id: str, patch: dict[str, Attribute]) -> NgsiEntity:
        return self.patch(entity_id, {name: a.to_wire() for name, a in patch.items()})
