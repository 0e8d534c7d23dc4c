"""Forecasting models: seasonal-naive and ridge autoregression.

Training takes the most recent ``windowSize`` samples, splits them
chronologically (first ``trainTestRatio`` fraction fits, the tail scores a
held-out RMSE), and refuses to produce a model until the series has ever
reached ``minSamples``. The autoregression is fit in closed form from the
normal equations (AtA + lambda*I) beta = At y, intercept included in the
penalty, so a fit is reproducible to machine precision.

Inference iterates the fitted one-step recurrence over the horizon at the
series' native sampling interval (median gap of the training window) and
reports the final value. Seasonal-naive answers the observation one period
before the slot that starts the horizon.
"""

import logging
import math
import statistics
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from citykit.estimator.store import Sample, TimeSeriesStore
from citykit.ngsi import KindError

logger = logging.getLogger(__name__)

ALGORITHMS = ("autoregressive", "seasonal-naive")


class EstimatorError(KindError):
    """``kind`` is insufficient-context, singular-fit, invalid-config,
    model-not-trained, unknown-series or bad-query."""


@dataclass
class TrainingConfig:
    algorithm: str = "autoregressive"
    lags: int = 4
    ridgeLambda: float = 0.1
    period: int = 96
    windowSize: int = 2000
    trainTestRatio: float = 0.8
    minSamples: int = 1000
    retrainPeriodSeconds: int = 86400
    inferencePeriodSeconds: int = 900
    horizonSeconds: int = 3600

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise EstimatorError("invalid-config", f"unknown algorithm {self.algorithm!r}")
        if self.lags < 1:
            raise EstimatorError("invalid-config", "lags must be >= 1")
        if self.period < 1:
            raise EstimatorError("invalid-config", "period must be >= 1")
        if not (0 < self.trainTestRatio < 1):
            raise EstimatorError("invalid-config", "trainTestRatio must be in (0, 1)")
        if self.minSamples < 1:
            raise EstimatorError("invalid-config", "minSamples must be positive")
        for name in ("windowSize", "retrainPeriodSeconds", "inferencePeriodSeconds",
                     "horizonSeconds"):
            if getattr(self, name) <= 0:
                raise EstimatorError("invalid-config", f"{name} must be positive")
        if self.ridgeLambda < 0:
            raise EstimatorError("invalid-config", "ridgeLambda must be >= 0")


@dataclass
class ForecastModel:
    entityId: str
    attributeName: str
    algorithm: str
    trainedAt: float
    testError: float
    samplingInterval: float
    coefficients: Optional[list] = None  # [intercept, lag1..lagN]
    lags: int = 0
    period: int = 0

    def to_doc(self) -> dict:
        doc = {
            "entityId": self.entityId,
            "attributeName": self.attributeName,
            "algorithm": self.algorithm,
            "trainedAt": self.trainedAt,
            "testError": self.testError,
            "samplingInterval": self.samplingInterval,
        }
        if self.algorithm == "autoregressive":
            doc["coefficients"] = list(self.coefficients)
            doc["lags"] = self.lags
        else:
            doc["period"] = self.period
        return doc


@dataclass
class Prediction:
    entityId: str
    attributeName: str
    issuedAt: float
    horizonStart: float
    horizonEnd: float
    value: float

    def to_doc(self) -> dict:
        return {
            "entityId": self.entityId,
            "attributeName": self.attributeName,
            "issuedAt": self.issuedAt,
            "horizonStart": self.horizonStart,
            "horizonEnd": self.horizonEnd,
            "value": self.value,
        }


def median_interval(samples: list[Sample]) -> float:
    gaps = [b.t - a.t for a, b in zip(samples, samples[1:])]
    if not gaps:
        return 1.0
    return float(statistics.median(gaps))


def fit_ridge(values: list[float], lags: int, ridge_lambda: float):
    """Closed-form normal-equation fit; returns the coefficient vector.

    Raises singular-fit when ridge_lambda = 0 and the normal matrix cannot
    be solved (any positive lambda makes the system definite).
    """
    n = len(values)
    if n <= lags:
        raise EstimatorError("insufficient-context",
                             f"need more than {lags} samples, have {n}")
    v = np.asarray(values, dtype=float)
    a = np.empty((n - lags, lags + 1), dtype=float)
    a[:, 0] = 1.0
    # row i predicts v[lags + i] from the lags values before it, newest first
    a[:, 1:] = sliding_window_view(v[:-1], lags)[:, ::-1]
    y = v[lags:]
    ata = a.T @ a + ridge_lambda * np.eye(lags + 1)
    aty = a.T @ y
    try:
        beta = np.linalg.solve(ata, aty)
    except np.linalg.LinAlgError as exc:
        raise EstimatorError("singular-fit", f"normal matrix is singular: {exc}") from exc
    return beta.tolist()


def ar_step(coefficients: list[float], history: list[float]) -> float:
    """One-step prediction from the most recent values (history[-1] newest)."""
    lags = len(coefficients) - 1
    value = coefficients[0]
    for j in range(lags):
        value += coefficients[1 + j] * history[-1 - j]
    return value


def _rmse(errors: list[float]) -> float:
    if not errors:
        return 0.0
    return math.sqrt(sum(e * e for e in errors) / len(errors))


def train(store: TimeSeriesStore, entity_id: str, attribute: str,
          config: TrainingConfig, now: float) -> Optional[ForecastModel]:
    """Fit one model for the key, or return None (gate not met, singular fit).

    The caller keeps any previous model when None comes back.
    """
    samples = store.get(entity_id, attribute)
    if len(samples) < config.minSamples:
        return None
    window = samples[-config.windowSize:]
    values = [s.value for s in window]
    n = len(values)
    n_train = max(1, int(n * config.trainTestRatio))
    if n_train >= n:
        n_train = n - 1  # keep at least one held-out point
    interval = median_interval(window)

    if config.algorithm == "seasonal-naive":
        period = config.period
        errors = [values[i] - values[i - period]
                  for i in range(n_train, n) if i - period >= 0]
        return ForecastModel(
            entityId=entity_id, attributeName=attribute, algorithm="seasonal-naive",
            trainedAt=now, testError=_rmse(errors), samplingInterval=interval,
            period=period,
        )

    try:
        beta = fit_ridge(values[:n_train], config.lags, config.ridgeLambda)
    except EstimatorError as exc:
        logger.warning("fit failed for %s/%s: %s", entity_id, attribute, exc)
        return None
    errors = []
    for i in range(max(n_train, config.lags), n):
        predicted = ar_step(beta, values[i - config.lags:i])
        errors.append(values[i] - predicted)
    return ForecastModel(
        entityId=entity_id, attributeName=attribute, algorithm="autoregressive",
        trainedAt=now, testError=_rmse(errors), samplingInterval=interval,
        coefficients=beta, lags=config.lags,
    )


def infer(model: ForecastModel, store: TimeSeriesStore, now: float,
          horizon_seconds: int) -> Prediction:
    """Predict one point for the window [now, now + horizon]."""
    seasonal = model.algorithm == "seasonal-naive"
    need = model.period if seasonal else model.lags
    samples = store.get(model.entityId, model.attributeName, last=need)
    if len(samples) < need:
        raise EstimatorError("insufficient-context",
                             f"need {need} samples, have {len(samples)}")
    if seasonal:
        value = samples[0].value
    else:
        history = [s.value for s in samples]
        steps = max(1, math.ceil(horizon_seconds / model.samplingInterval))
        for _ in range(steps):
            history.append(ar_step(model.coefficients, history))
        value = history[-1]
    return Prediction(
        entityId=model.entityId, attributeName=model.attributeName,
        issuedAt=now, horizonStart=now, horizonEnd=now + horizon_seconds,
        value=float(value),
    )
