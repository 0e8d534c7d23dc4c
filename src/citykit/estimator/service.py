"""Estimator service assembly: profiles, write-back, config file, HTTP API.

One codebase serves parking, traffic, and noise; the profile only changes
which entity type and attribute are ingested and predicted:

  parking  ->  OnStreetParking.availableSpotNumber
  traffic  ->  TrafficFlowObserved.intensity
  noise    ->  NoiseLevelObserved.LAeq

Predictions write back to the source entity as ``<attribute>Forecast`` with
the horizon recorded in metadata; a vanished entity is logged and the local
store still keeps the prediction.
"""

import logging
from pathlib import Path
from typing import Optional
from urllib.parse import unquote

from citykit.broker import Broker, NotFound
from citykit.clock import Clock, SystemClock
from citykit.estimator.ingest import IngestStats, ingest_historical, ingest_snapshot
from citykit.estimator.models import EstimatorError, Prediction, TrainingConfig
from citykit.estimator.scheduler import EstimatorScheduler
from citykit.estimator.store import TimeSeriesStore
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


def parse_config_text(text: str) -> dict:
    """`key = value` lines; # starts a comment; TrainingConfig fields are typed."""
    types = field_types(TrainingConfig)
    fail = lambda lineno, message: EstimatorError("invalid-config", f"line {lineno}: {message}")
    return {key: types.get(key, str)(value) for _, key, value in read_settings(text, fail)}


def load_config_file(path) -> tuple[TrainingConfig, dict]:
    """Returns (TrainingConfig, leftover settings like profile/broker/writeback)."""
    settings = parse_config_text(Path(path).read_text(encoding="utf-8"))
    field_names = set(TrainingConfig.__dataclass_fields__)
    config_kwargs = {k: v for k, v in settings.items() if k in field_names}
    leftovers = {k: v for k, v in settings.items() if k not in field_names}
    return TrainingConfig(**config_kwargs), leftovers


class EstimatorService:
    """Store + scheduler + ingestion for one profile, optionally writing back."""

    def __init__(self, profile: str, config: Optional[TrainingConfig] = None,
                 broker=None, clock: Optional[Clock] = None,
                 write_back: bool = False):
        if profile not in PROFILES:
            raise EstimatorError("invalid-config",
                                 f"unknown profile {profile!r}; pick from {sorted(PROFILES)}")
        self.profile = profile
        self.entityType, self.attribute = PROFILES[profile]
        self.config = config or TrainingConfig()
        self.broker = broker
        self.clock = clock or SystemClock()
        self.store = TimeSeriesStore()
        hook = None
        if write_back:
            if broker is None:
                raise EstimatorError("invalid-config", "write_back needs a broker")
            hook = lambda p: writeback(p, broker)
        self.scheduler = EstimatorScheduler(self.store, self.config,
                                            clock=self.clock, on_prediction=hook)

    @property
    def mapping(self) -> dict:
        return {self.entityType: self.attribute}

    def snapshot(self) -> IngestStats:
        return ingest_snapshot(self.store, self.broker, self.mapping, self.clock)

    def historical(self, records) -> IngestStats:
        return ingest_historical(self.store, records)

    def start(self, now: Optional[float] = None) -> None:
        self.scheduler.start(now)


class EstimatorServer(HttpService):
    """HTTP face of the estimator.

    GET /series/{entityId}/{attr}?from=&to= lists stored samples (404 for a
    series never ingested); POST /predict/{entityId}/{attr} runs on-demand
    inference (409 until a model exists); GET /models lists model metadata.
    """

    def __init__(self, service: EstimatorService, host: str = "127.0.0.1",
                 port: int = 0):
        self.service = service
        self.server = JsonHttpServer(host=host, port=port)
        self.server.add_route("GET", r"/series/(?P<id>[^/]+)/(?P<attr>[^/]+)",
                              self._series)
        self.server.add_route("POST", r"/predict/(?P<id>[^/]+)/(?P<attr>[^/]+)",
                              self._predict)
        self.server.add_route("GET", r"/models", self._models)

    def _series_key(self, match) -> tuple:
        """The route's (entityId, attribute); 404 when that series was never ingested."""
        key = (unquote(match.group("id")), unquote(match.group("attr")))
        if key not in self.service.store.keys():
            raise EstimatorError("unknown-series", f"{key[0]}/{key[1]} never ingested")
        return key

    def _series(self, match, params, body):
        entity_id, attribute = self._series_key(match)
        try:
            bounds = [float(params[k]) if k in params else None for k in ("from", "to")]
        except ValueError as exc:
            raise EstimatorError("bad-query", str(exc)) from exc
        samples = self.service.store.get(entity_id, attribute, *bounds)
        return 200, [{"t": s.t, "value": s.value} for s in samples]

    def _predict(self, match, params, body):
        prediction = self.service.scheduler.predict_now(*self._series_key(match))
        return 200, prediction.to_doc()

    def _models(self, match, params, body):
        with self.service.scheduler._lock:  # a train pass inserts models under it
            models = sorted(self.service.scheduler.models.items())
        return 200, [model.to_doc() for _, model in models]
