"""Periodic train/infer driver with deterministic simulated-clock behavior.

``start(now)`` runs one immediate fit pass (counted separately) so inference
has models before the first retrain boundary; scheduled work is then due at
start + k*period. ``advance(to)`` fires every boundary at or before ``to``,
so invocation counts are exact functions of elapsed time: a day of defaults
is one retrain pass plus 96 inference passes per model. ``run_pending``
(real-time mode) instead coalesces missed boundaries into a single firing,
so a stalled process never bursts to catch up.

Failures inside one train or infer call are logged and do not stop the
schedule.
"""

import logging
import threading
from typing import Optional

from citykit.clock import Clock, SystemClock
from citykit.estimator.models import (
    EstimatorError,
    ForecastModel,
    Prediction,
    TrainingConfig,
    infer,
    train,
)
from citykit.estimator.store import TimeSeriesStore

logger = logging.getLogger(__name__)


class EstimatorScheduler:
    def __init__(self, store: TimeSeriesStore, config: TrainingConfig,
                 clock: Optional[Clock] = None, on_prediction=None):
        self.store = store
        self.config = config
        self.clock = clock or SystemClock()
        self.on_prediction = on_prediction  # callable(Prediction), e.g. writeback
        self.models: dict[tuple, ForecastModel] = {}
        self._lock = threading.RLock()
        self._train_due: Optional[float] = None
        self._infer_due: Optional[float] = None
        self.initial_fits = 0
        self.train_passes = 0
        self.infer_passes = 0
        self.trains_by_key: dict[tuple, int] = {}
        self.infers_by_key: dict[tuple, int] = {}

    # -- lifecycle -----------------------------------------------------------

    def start(self, now: Optional[float] = None) -> None:
        with self._lock:
            if now is None:
                now = self.clock.now()
            self._train_pass(now, count_per_key=False)
            self.initial_fits += 1
            self._train_due = now + self.config.retrainPeriodSeconds
            self._infer_due = now + self.config.inferencePeriodSeconds

    def advance(self, to_time: float) -> None:
        """Fire every boundary due at or before ``to_time``, in time order."""
        with self._lock:
            if self._train_due is None:
                raise EstimatorError("invalid-config", "scheduler not started")
            while True:
                next_due = min(self._train_due, self._infer_due)
                if next_due > to_time:
                    break
                if self._infer_due <= self._train_due:
                    self._infer_pass(self._infer_due)
                    self._infer_due += self.config.inferencePeriodSeconds
                else:
                    self._train_pass(self._train_due)
                    self.train_passes += 1
                    self._train_due += self.config.retrainPeriodSeconds

    def run_pending(self, now: Optional[float] = None) -> None:
        """Real-time tick: at most one firing per timer, skipped ticks coalesce."""
        with self._lock:
            if self._train_due is None:
                raise EstimatorError("invalid-config", "scheduler not started")
            if now is None:
                now = self.clock.now()
            if now >= self._infer_due:
                self._infer_pass(now)
                period = self.config.inferencePeriodSeconds
                missed = int((now - self._infer_due) // period)
                self._infer_due += (missed + 1) * period
            if now >= self._train_due:
                self._train_pass(now)
                self.train_passes += 1
                period = self.config.retrainPeriodSeconds
                missed = int((now - self._train_due) // period)
                self._train_due += (missed + 1) * period

    # -- passes ---------------------------------------------------------------

    def _train_pass(self, now: float, count_per_key: bool = True) -> None:
        """Fit every series, then publish the new model map in one assignment.

        ``models`` is never changed in place, so a reader that takes it once
        sees one whole pass. A series that does not fit keeps its old model.
        """
        models = dict(self.models)
        for key in self.store.keys():
            try:
                model = train(self.store, *key, self.config, now)
            except Exception:
                logger.exception("train failed for %s", key)
                continue
            if model is not None:
                models[key] = model
                if count_per_key:
                    self.trains_by_key[key] = self.trains_by_key.get(key, 0) + 1
        self.models = models

    def _infer_pass(self, now: float) -> None:
        self.infer_passes += 1
        models = self.models
        for key in sorted(models):
            model = models[key]
            try:
                prediction = infer(model, self.store, now, self.config.horizonSeconds)
            except EstimatorError as exc:
                logger.warning("inference skipped for %s: %s", key, exc)
                continue
            self.infers_by_key[key] = self.infers_by_key.get(key, 0) + 1
            self._publish(prediction)

    def _publish(self, prediction: Prediction) -> None:
        """Hand the prediction to the hook; the store holds observations only."""
        if self.on_prediction is not None:
            try:
                self.on_prediction(prediction)
            except Exception:
                logger.exception("prediction hook failed for %s/%s",
                                  prediction.entityId, prediction.attributeName)

    # -- on-demand -------------------------------------------------------------

    def predict_now(self, entity_id: str, attribute: str,
                    now: Optional[float] = None) -> Prediction:
        with self._lock:
            model = self.models.get((entity_id, attribute))
            if model is None:
                raise EstimatorError("model-not-trained",
                                     f"no model for {entity_id}/{attribute}")
            if now is None:
                now = self.clock.now()
            prediction = infer(model, self.store, now, self.config.horizonSeconds)
            self._publish(prediction)
            return prediction
