"""Estimator service parts: profiles, write-back, config file, HTTP API.

One codebase serves parking, traffic, and noise; the profile only changes
which entity type and attribute are ingested and predicted:

  parking  ->  OnStreetParking.availableSpotNumber
  traffic  ->  TrafficFlowObserved.intensity
  noise    ->  NoiseLevelObserved.LAeq

Predictions write back to the source entity as ``<attribute>Forecast`` with
the horizon recorded in metadata; a vanished entity is logged and skipped.
"""

import logging
from dataclasses import asdict
from functools import partial
from pathlib import Path
from urllib.parse import unquote

from citykit.broker import Broker, NotFound
from citykit.estimator.models import EstimatorError, Prediction, TrainingConfig
from citykit.estimator.scheduler import EstimatorScheduler
from citykit.httpd import HttpService, JsonHttpServer
from citykit.ngsi import Attribute
from citykit.textio import field_types, read_settings

logger = logging.getLogger(__name__)

PROFILES = {
    "parking": ("OnStreetParking", "availableSpotNumber"),
    "traffic": ("TrafficFlowObserved", "intensity"),
    "noise": ("NoiseLevelObserved", "LAeq"),
}


def writeback(prediction: Prediction, broker: Broker) -> bool:
    """Attach the forecast to the source entity; False when it is gone."""
    name = prediction.attributeName + "Forecast"
    attr = Attribute(
        value=prediction.value,
        valueType="Number",
        metadata={
            "horizonStart": prediction.horizonStart,
            "horizonEnd": prediction.horizonEnd,
            "issuedAt": prediction.issuedAt,
        },
    )
    try:
        broker.update_attributes(prediction.entityId, {name: attr})
    except NotFound:
        logger.warning("writeback target %s is gone", prediction.entityId)
        return False
    return True


def _flag(value: str) -> bool:
    if value not in ("true", "false"):
        raise ValueError(f"expected true or false, not {value!r}")
    return value == "true"


def parse_config_text(text: str) -> dict:
    """`key = value` lines; # starts a comment; TrainingConfig fields are typed.
    Keys besides those, ``profile``, ``broker`` and ``writeback`` are refused."""
    types = {**field_types(TrainingConfig), "profile": str, "broker": str, "writeback": _flag}
    settings = {}

    def apply(key: str, value: str) -> None:
        if key not in types:
            raise ValueError(f"unknown key {key!r}")
        settings[key] = types[key](value)

    read_settings(text, partial(EstimatorError, "invalid-config"), apply)
    return settings


def load_config_file(path) -> tuple[TrainingConfig, dict]:
    """Returns (TrainingConfig, the profile/broker/writeback settings given)."""
    settings = parse_config_text(Path(path).read_text(encoding="utf-8"))
    field_names = set(TrainingConfig.__dataclass_fields__)
    config_kwargs = {k: v for k, v in settings.items() if k in field_names}
    leftovers = {k: v for k, v in settings.items() if k not in field_names}
    return TrainingConfig(**config_kwargs), leftovers


class EstimatorServer(HttpService):
    """HTTP face of a scheduler: its store's series, its models and predictions.

    GET /series/{entityId}/{attr}?from=&to= lists stored samples (404 for a
    series never ingested); POST /predict/{entityId}/{attr} runs on-demand
    inference (409 until a model exists); GET /models lists model metadata.
    """

    def __init__(self, scheduler: EstimatorScheduler, host: str = "127.0.0.1", port: int = 0):
        self.scheduler = scheduler
        self.server = JsonHttpServer(host=host, port=port)
        self.server.add_route("GET", r"/series/(?P<id>[^/]+)/(?P<attr>[^/]+)",
                              self._series)
        self.server.add_route("POST", r"/predict/(?P<id>[^/]+)/(?P<attr>[^/]+)",
                              self._predict)
        self.server.add_route("GET", r"/models", self._models)

    def _series_key(self, match) -> tuple:
        """The route's (entityId, attribute); 404 when that series was never ingested."""
        key = (unquote(match.group("id")), unquote(match.group("attr")))
        if not self.scheduler.store.length(*key):
            raise EstimatorError("unknown-series", f"{key[0]}/{key[1]} never ingested")
        return key

    def _series(self, match, params, body):
        entity_id, attribute = self._series_key(match)
        try:
            bounds = [float(params[k]) if k in params else None for k in ("from", "to")]
        except ValueError as exc:
            raise EstimatorError("bad-query", str(exc)) from exc
        samples = self.scheduler.store.get(entity_id, attribute, *bounds)
        return 200, [{"t": s.t, "value": s.value} for s in samples]

    def _predict(self, match, params, body):
        prediction = self.scheduler.predict_now(*self._series_key(match))
        return 200, asdict(prediction)

    def _models(self, match, params, body):
        models = self.scheduler.models  # published whole by each train pass
        return 200, [models[key].to_doc() for key in sorted(models)]
