"""Forecasting stack: store, ridge fits, scheduler cadence, ingestion, HTTP."""

import json
import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citykit.clock import SimulatedClock
from citykit.estimator.ingest import (
    ingest_entity,
    ingest_historical,
    ingest_snapshot,
    ingest_subscription,
)
from citykit.estimator.models import (
    EstimatorError,
    ForecastModel,
    Prediction,
    TrainingConfig,
    ar_step,
    fit_ridge,
    infer,
    median_interval,
    train,
)
from citykit.estimator.scheduler import EstimatorScheduler
from citykit.estimator.service import (
    EstimatorServer,
    PROFILES,
    load_config_file,
    parse_config_text,
    writeback,
)
from citykit.estimator.store import TimeSeriesStore
from citykit.feedgen import Lcg64
from citykit.httpd import HttpError, request_json
from citykit.ngsi import Attribute, make_entity
from citykit.textio import read_jsonl

from oracles import ridge_residual

DAY = 1748822400  # 2025-06-02 00:00 UTC


def ar_series(n, coef=0.5, intercept=3.0, y0=0.0):
    values = [y0]
    for _ in range(n - 1):
        values.append(intercept + coef * values[-1])
    return values


def seeded_store(n=40, t0=DAY, step=900.0, entity_id="p-1",
                 attribute="availableSpotNumber"):
    store = TimeSeriesStore()
    for i in range(n):
        value = 20.0 + 6.0 * math.sin(2 * math.pi * i / 12.0)
        store.append(entity_id, attribute, t0 - (n - i) * step, value)
    return store


class TestStore:
    def test_append_keeps_samples_sorted(self):
        store = TimeSeriesStore()
        store.append("e", "a", 30.0, 3.0)
        store.append("e", "a", 10.0, 1.0)
        store.append("e", "a", 20.0, 2.0)
        assert [(s.t, s.value) for s in store.get("e", "a")] == [
            (10.0, 1.0), (20.0, 2.0), (30.0, 3.0)]

    def test_same_timestamp_last_write_wins(self):
        store = TimeSeriesStore()
        store.append("e", "a", 10.0, 1.0)
        store.append("e", "a", 10.0, 9.0)
        assert store.length("e", "a") == 1
        assert store.get("e", "a")[-1].value == 9.0

    def test_get_returns_an_isolated_copy(self):
        store = TimeSeriesStore()
        store.append("e", "a", 1.0, 1.0)
        store.get("e", "a").clear()
        assert store.length("e", "a") == 1

    def test_get_filters_by_time_bounds(self):
        store = TimeSeriesStore()
        store.extend("e", "a", [(float(t), float(t)) for t in range(5)])
        assert [s.t for s in store.get("e", "a", t_from=1.0, t_to=3.0)] == [
            1.0, 2.0, 3.0]

    @pytest.mark.parametrize("t_from,t_to", [(None, None), (2.5, None), (None, 60.0),
                                             (0.0, 45.0), (30.0, 30.0), (50.0, 10.0),
                                             (float("nan"), None), (None, float("nan"))])
    def test_get_last_is_the_tail_of_the_bounded_range(self, t_from, t_to):
        store = TimeSeriesStore()
        times = [0.0, 5.0, 10.0, 20.0, 30.0, 45.0, 46.0, 90.0]
        store.extend("e", "a", [(t, t / 5.0) for t in times])
        bounded = [(t, t / 5.0) for t in times
                   if (t_from is None or t >= t_from) and (t_to is None or t <= t_to)]
        assert [(s.t, s.value) for s in store.get("e", "a", t_from, t_to)] == bounded
        for last in (1, 3, 7, 8, 9, 50):
            got = store.get("e", "a", t_from, t_to, last=last)
            assert [(s.t, s.value) for s in got] == bounded[-last:], last
            got.clear()
        assert store.length("e", "a") == len(times)

    def test_keys_sorted_and_latest(self):
        store = TimeSeriesStore()
        store.append("b", "y", 1.0, 1.0)
        store.append("a", "x", 2.0, 2.0)
        assert store.keys() == [("a", "x"), ("b", "y")]
        assert store.get("a", "x")[-1].t == 2.0
        assert store.get("nope", "x") == []

    @pytest.mark.parametrize("t, value", [(float("nan"), 1.0), (float("inf"), 1.0),
                                          (1.0, float("nan")), (1.0, float("-inf"))])
    def test_append_refuses_a_sample_that_is_not_finite(self, t, value):
        store = TimeSeriesStore()
        store.append("e", "a", 2.0, 2.0)
        with pytest.raises(ValueError, match="not finite"):
            store.append("e", "a", t, value)
        assert [(s.t, s.value) for s in store.get("e", "a")] == [(2.0, 2.0)]

    def test_extend_counts_records(self):
        store = TimeSeriesStore()
        assert store.extend("e", "a", [(1.0, 1.0), (2.0, 2.0)]) == 2

    @settings(max_examples=200, deadline=None)
    @given(before=st.lists(st.tuples(st.integers(0, 30), st.integers(-5, 5)), max_size=8),
           batch=st.lists(st.tuples(st.integers(0, 30), st.integers(-5, 5)), max_size=20))
    def test_extend_equals_appending_one_by_one(self, before, batch):
        # small integer times make out-of-order records and duplicates common
        batched, appended = TimeSeriesStore(), TimeSeriesStore()
        for store in (batched, appended):
            for t, value in before:
                store.append("e", "a", t, value)
        assert batched.extend("e", "a", batch) == len(batch)
        for t, value in batch:
            appended.append("e", "a", t, value)
        assert batched.keys() == appended.keys()
        assert batched.get("e", "a") == appended.get("e", "a")

    @pytest.mark.parametrize("bad", [(float("nan"), 1.0), (3.0, float("inf"))])
    def test_a_batch_with_one_record_not_finite_adds_nothing(self, bad):
        store = TimeSeriesStore()
        store.append("e", "a", 0.5, 0.5)
        with pytest.raises(ValueError, match="not finite"):
            store.extend("e", "a", [(1.0, 1.0), (2.0, 2.0), bad, (4.0, 4.0)])
        with pytest.raises(ValueError, match="not finite"):
            store.extend("new", "a", [(1.0, 1.0), bad])
        assert [(s.t, s.value) for s in store.get("e", "a")] == [(0.5, 0.5)]
        assert store.keys() == [("e", "a")]


class TestRidgeFit:
    def test_recovers_noise_free_ar1_exactly(self):
        values = ar_series(30)
        intercept, coef = fit_ridge(values, 1, 0.0)
        assert abs(intercept - 3.0) < 1e-8
        assert abs(coef - 0.5) < 1e-8

    def test_recovers_two_lag_recurrence(self):
        values = [0.0, 1.0]
        for _ in range(40):
            values.append(1.0 + 0.6 * values[-1] - 0.3 * values[-2])
        beta = fit_ridge(values, 2, 0.0)
        assert beta == pytest.approx([1.0, 0.6, -0.3], abs=1e-7)

    def test_normal_equation_residual_is_tiny(self):
        rng = Lcg64(11)
        for _ in range(10):
            values = [rng.gauss(5.0) for _ in range(200)]
            lags = 1 + rng.randrange(6)
            lam = rng.random()
            beta = fit_ridge(values, lags, lam)
            assert ridge_residual(values, lags, lam, beta) < 1e-10

    def test_too_short_series_is_insufficient_context(self):
        with pytest.raises(EstimatorError) as err:
            fit_ridge([1.0, 2.0], 2, 0.1)
        assert err.value.kind == "insufficient-context"

    def test_constant_series_without_ridge_is_singular(self):
        with pytest.raises(EstimatorError) as err:
            fit_ridge([5.0] * 10, 1, 0.0)
        assert err.value.kind == "singular-fit"

    def test_any_positive_lambda_makes_the_fit_solvable(self):
        beta = fit_ridge([5.0] * 10, 1, 1e-6)
        assert len(beta) == 2

    def test_ar_step_orders_history_newest_first(self):
        assert ar_step([3.0, 0.5], [1.0, 10.0]) == 8.0
        assert ar_step([0.0, 1.0, 0.0], [7.0, 9.0]) == 9.0  # lag1 = newest
        assert ar_step([0.0, 0.0, 1.0], [7.0, 9.0]) == 7.0  # lag2 = older


def test_median_interval():
    from citykit.estimator.store import Sample
    even = [Sample(float(t), 0.0) for t in (0, 900, 1800, 2700)]
    assert median_interval(even) == 900.0
    ragged = [Sample(0.0, 0.0), Sample(10.0, 0.0), Sample(100.0, 0.0)]
    assert median_interval(ragged) == 50.0
    assert median_interval([Sample(0.0, 0.0)]) == 1.0


class TestTrain:
    def test_below_min_samples_returns_none(self):
        store = seeded_store(n=29)
        cfg = TrainingConfig(minSamples=30)
        assert train(store, "p-1", "availableSpotNumber", cfg, DAY) is None

    def test_fit_uses_only_the_training_window(self):
        store = TimeSeriesStore()
        rng = Lcg64(7)
        for i in range(60):  # old garbage the window must exclude
            store.append("e", "a", float(i * 900), rng.random() * 100)
        tail = ar_series(40, y0=10.0)
        for i, value in enumerate(tail):
            store.append("e", "a", float((60 + i) * 900), value)
        cfg = TrainingConfig(lags=1, ridgeLambda=0.0, minSamples=50,
                             windowSize=40, trainTestRatio=0.8)
        model = train(store, "e", "a", cfg, DAY)
        assert model.coefficients == pytest.approx([3.0, 0.5], abs=1e-8)
        assert model.testError < 1e-8

    def test_seasonal_naive_scores_the_held_out_tail(self):
        store = TimeSeriesStore()
        store.extend("e", "a", [(i * 900.0, float(i)) for i in range(20)])
        cfg = TrainingConfig(algorithm="seasonal-naive", period=4,
                             minSamples=10, trainTestRatio=0.8)
        model = train(store, "e", "a", cfg, DAY)
        assert model.algorithm == "seasonal-naive"
        assert model.testError == 4.0  # the ramp climbs 4 per period
        assert model.samplingInterval == 900.0
        doc = model.to_doc()
        assert doc["period"] == 4
        assert "coefficients" not in doc

    def test_singular_fit_returns_none_not_raise(self):
        store = TimeSeriesStore()
        store.extend("e", "a", [(i * 900.0, 5.0) for i in range(20)])
        cfg = TrainingConfig(lags=1, ridgeLambda=0.0, minSamples=10)
        assert train(store, "e", "a", cfg, DAY) is None

    def test_model_doc_records_the_fit(self):
        store = seeded_store()
        cfg = TrainingConfig(lags=2, minSamples=30, windowSize=100)
        model = train(store, "p-1", "availableSpotNumber", cfg, DAY + 5.0)
        doc = model.to_doc()
        assert doc["entityId"] == "p-1"
        assert doc["trainedAt"] == DAY + 5.0
        assert doc["lags"] == 2
        assert len(doc["coefficients"]) == 3
        assert doc["samplingInterval"] == 900.0


class TestInfer:
    def ar_model(self, coefficients, lags):
        return ForecastModel(
            entityId="e", attributeName="a", algorithm="autoregressive",
            trainedAt=0.0, testError=0.0, samplingInterval=900.0,
            coefficients=coefficients, lags=lags)

    def test_iterates_one_step_per_sampling_interval(self):
        store = TimeSeriesStore()
        store.append("e", "a", 0.0, 10.0)
        model = self.ar_model([1.0, 1.0], 1)  # next = last + 1
        prediction = infer(model, store, now=100.0, horizon_seconds=3600)
        assert prediction.value == 14.0  # ceil(3600/900) = 4 steps
        assert prediction.horizonStart == 100.0
        assert prediction.horizonEnd == 3700.0
        assert prediction.issuedAt == 100.0

    def test_short_horizon_still_takes_one_step(self):
        store = TimeSeriesStore()
        store.append("e", "a", 0.0, 10.0)
        model = self.ar_model([1.0, 1.0], 1)
        assert infer(model, store, 0.0, 100).value == 11.0

    def test_seasonal_naive_answers_one_period_back(self):
        store = TimeSeriesStore()
        store.extend("e", "a", [(i * 900.0, float(i)) for i in range(20)])
        model = ForecastModel(
            entityId="e", attributeName="a", algorithm="seasonal-naive",
            trainedAt=0.0, testError=0.0, samplingInterval=900.0, period=4)
        assert infer(model, store, DAY, 3600).value == 16.0

    @pytest.mark.parametrize("algorithm,lags,period,reads", [
        ("autoregressive", 3, 0, 3), ("seasonal-naive", 0, 4, 4)])
    def test_reads_only_the_tail_it_needs(self, algorithm, lags, period, reads):
        class SpyStore(TimeSeriesStore):
            def get(self, *args, **kwargs):
                samples = super().get(*args, **kwargs)
                self.read.append(len(samples))
                return samples

        store = SpyStore()
        store.extend("e", "a", [(i * 900.0, math.sin(i)) for i in range(50)])
        store.read = []
        model = ForecastModel(
            entityId="e", attributeName="a", algorithm=algorithm, trainedAt=0.0,
            testError=0.0, samplingInterval=900.0, coefficients=[0.5, 0.3, -0.2, 0.1],
            lags=lags, period=period)
        prediction = infer(model, store, DAY, 3600)
        assert store.read == [reads]
        values = [math.sin(i) for i in range(50)]
        if algorithm == "seasonal-naive":
            assert prediction.value == values[-period]
        else:
            for _ in range(4):
                values.append(ar_step(model.coefficients, values))
            assert prediction.value == values[-1]

    def test_thin_history_is_insufficient_context(self):
        store = TimeSeriesStore()
        store.append("e", "a", 0.0, 1.0)
        with pytest.raises(EstimatorError) as err:
            infer(self.ar_model([0.0, 0.5, 0.5], 2), store, 0.0, 3600)
        assert err.value.kind == "insufficient-context"


class TestScheduler:
    def make(self, n=40, **overrides):
        settings = dict(lags=2, minSamples=30, windowSize=100)
        settings.update(overrides)
        cfg = TrainingConfig(**settings)
        store = seeded_store(n=n)
        sched = EstimatorScheduler(store, cfg)
        return sched, store

    def test_start_fits_models_immediately(self):
        sched, _ = self.make()
        sched.start(DAY)
        assert ("p-1", "availableSpotNumber") in sched.models
        assert sched.initial_fits == 1
        assert sched.train_passes == 0
        assert sched.trains_by_key == {}

    def test_one_day_is_one_retrain_and_96_inferences(self):
        sched, _ = self.make()
        seen = []
        sched.on_prediction = seen.append
        sched.start(DAY)
        sched.advance(DAY + 86400)
        key = ("p-1", "availableSpotNumber")
        assert sched.trains_by_key[key] == 1
        assert sched.infers_by_key[key] == 96
        assert [p.issuedAt for p in seen] == [
            DAY + 900 * k for k in range(1, 97)]

    def test_no_model_until_min_samples_reached(self):
        sched, store = self.make(n=29)
        seen = []
        sched.on_prediction = seen.append
        sched.start(DAY)
        assert sched.models == {}
        sched.advance(DAY + 1800)  # two inference boundaries, nothing to run
        assert sched.infer_passes == 2
        assert seen == []
        store.append("p-1", "availableSpotNumber", DAY + 10.0, 20.0)
        sched.advance(DAY + 86400)  # next retrain finds 30 samples
        assert ("p-1", "availableSpotNumber") in sched.models

    def test_advance_fires_boundaries_in_time_order(self):
        sched, _ = self.make(retrainPeriodSeconds=1800)
        sched.start(DAY)
        sched.advance(DAY + 3600)
        # infer at +900/+1800/+2700/+3600, retrains at +1800/+3600 after the
        # coinciding inference
        assert sched.infer_passes == 4
        assert sched.train_passes == 2

    def test_run_pending_coalesces_missed_boundaries(self):
        sched, _ = self.make()
        sched.start(DAY)
        sched.run_pending(DAY + 2750)  # three boundaries behind
        assert sched.infer_passes == 1
        sched.run_pending(DAY + 2800)  # not yet due again
        assert sched.infer_passes == 1
        sched.run_pending(DAY + 3600)
        assert sched.infer_passes == 2
        sched.run_pending(DAY + 3 * 86400 + 100)  # three retrain boundaries behind
        assert (sched.train_passes, sched.infer_passes) == (1, 3)
        sched.run_pending(DAY + 3 * 86400 + 200)  # neither due again
        assert (sched.train_passes, sched.infer_passes) == (1, 3)
        sched.run_pending(DAY + 4 * 86400)
        assert sched.train_passes == 2

    def test_advance_before_start_raises(self):
        sched, _ = self.make()
        with pytest.raises(EstimatorError):
            sched.advance(DAY)
        with pytest.raises(EstimatorError):
            sched.run_pending(DAY)

    def test_predictions_land_in_the_store(self):
        sched, store = self.make()
        seen = []
        sched.on_prediction = seen.append
        sched.start(DAY)
        sched.advance(DAY + 900)
        [prediction] = seen
        assert (prediction.entityId, prediction.attributeName) == ("p-1", "availableSpotNumber")
        assert prediction.horizonEnd == DAY + 900 + 3600
        model = sched.models[("p-1", "availableSpotNumber")]
        assert prediction.value == infer(model, store, DAY + 900, sched.config.horizonSeconds).value

    def test_store_holds_only_observations(self):
        sched, store = self.make()
        seen = []
        sched.on_prediction = seen.append
        ingested = store.keys()
        sched.start(DAY)
        sched.advance(DAY + 86400)
        sched.predict_now("p-1", "availableSpotNumber", now=DAY + 86400)
        assert len(seen) == 97
        assert store.keys() == ingested

    def test_predicted_series_are_never_modeled(self):
        sched, _ = self.make()
        sched.start(DAY)
        sched.advance(DAY + 86400)
        assert list(sched.models) == [("p-1", "availableSpotNumber")]

    def test_prediction_hook_sees_every_prediction(self):
        seen = []
        sched, _ = self.make()
        sched.on_prediction = seen.append
        sched.start(DAY)
        sched.advance(DAY + 1800)
        assert [p.issuedAt for p in seen] == [DAY + 900, DAY + 1800]

    def test_failing_hook_does_not_stop_the_pass(self):
        seen = []

        def explode(prediction):
            seen.append(prediction)
            raise ValueError("boom")

        sched, _ = self.make()
        sched.on_prediction = explode
        sched.start(DAY)
        sched.advance(DAY + 900)
        assert len(seen) == 1

    def test_predict_now_on_demand(self):
        sched, _ = self.make()
        seen = []
        sched.on_prediction = seen.append
        sched.start(DAY)
        prediction = sched.predict_now("p-1", "availableSpotNumber", now=DAY + 30)
        assert prediction.issuedAt == DAY + 30
        assert seen == [prediction]

    def test_predict_now_without_model(self):
        sched, _ = self.make(n=10)
        sched.start(DAY)
        with pytest.raises(EstimatorError) as err:
            sched.predict_now("p-1", "availableSpotNumber")
        assert err.value.kind == "model-not-trained"


class TestIngest:
    def test_numeric_value_appended_with_observed_at(self):
        store = TimeSeriesStore()
        entity = make_entity("p-1", "OnStreetParking", availableSpotNumber=Attribute(
            value=12, valueType="Number",
            metadata={"observedAt": "2025-06-02T08:00:00Z"}))
        assert ingest_entity(store, entity, "availableSpotNumber", 0.0)
        (sample,) = store.get("p-1", "availableSpotNumber")
        assert sample.t == DAY + 28800
        assert sample.value == 12.0

    def test_numeric_observed_at_is_taken_as_epoch(self):
        store = TimeSeriesStore()
        entity = make_entity("p-1", "OnStreetParking", availableSpotNumber=Attribute(
            value=3, valueType="Number", metadata={"observedAt": DAY + 5}))
        ingest_entity(store, entity, "availableSpotNumber", 0.0)
        assert store.get("p-1", "availableSpotNumber")[0].t == DAY + 5

    def test_date_observed_then_modified_then_fallback(self):
        store = TimeSeriesStore()
        observed = make_entity("a", "OnStreetParking", availableSpotNumber=1,
                               dateObserved="2025-06-02T00:15:00Z",
                               dateModified="2025-06-02T00:30:00Z")
        modified = make_entity("b", "OnStreetParking", availableSpotNumber=1,
                               dateModified="2025-06-02T00:30:00Z")
        bare = make_entity("c", "OnStreetParking", availableSpotNumber=1)
        for entity in (observed, modified, bare):
            ingest_entity(store, entity, "availableSpotNumber", 42.0)
        assert store.get("a", "availableSpotNumber")[0].t == DAY + 900
        assert store.get("b", "availableSpotNumber")[0].t == DAY + 1800
        assert store.get("c", "availableSpotNumber")[0].t == 42.0

    def test_non_numeric_values_are_counted_not_stored(self):
        from citykit.estimator.ingest import IngestStats
        store = TimeSeriesStore()
        stats = IngestStats()
        for value in ("full", True, None):
            entity = make_entity("p-1", "OnStreetParking",
                                 availableSpotNumber=value)
            assert not ingest_entity(store, entity, "availableSpotNumber",
                                     0.0, stats)
        assert stats.skipped_non_numeric == 3
        assert store.keys() == []

    def test_non_finite_values_are_counted_not_stored(self):
        from citykit.estimator.ingest import IngestStats
        store = TimeSeriesStore()
        stats = IngestStats()
        for value in (float("nan"), float("inf")):
            entity = make_entity("p-1", "OnStreetParking", availableSpotNumber=value)
            assert not ingest_entity(store, entity, "availableSpotNumber", 0.0, stats)
        assert stats.skipped_non_numeric == 2
        assert store.keys() == []
        records = [{"entityId": "p-1", "attr": "availableSpotNumber", "t": 1.0, "value": 5},
                   {"entityId": "p-1", "attr": "availableSpotNumber", "t": 2.0,
                    "value": float("nan")}]
        stats = ingest_historical(store, records)
        assert (stats.appended, stats.skipped_non_numeric) == (1, 1)
        assert [(s.t, s.value) for s in store.get("p-1", "availableSpotNumber")] == [(1.0, 5.0)]

    def test_a_non_finite_stamp_falls_back_to_the_next_source(self):
        store = TimeSeriesStore()
        observed_nan = make_entity("a", "OnStreetParking", availableSpotNumber=1,
                                   dateObserved=float("nan"))
        meta_nan = make_entity("b", "OnStreetParking", availableSpotNumber=Attribute(
            value=2, valueType="Number", metadata={"observedAt": float("inf")}),
            dateObserved="2025-06-02T00:15:00Z")
        for entity in (observed_nan, meta_nan):
            assert ingest_entity(store, entity, "availableSpotNumber", 42.0)
        assert store.get("a", "availableSpotNumber")[0].t == 42.0
        assert store.get("b", "availableSpotNumber")[0].t == DAY + 900

    def test_snapshot_ingests_each_mapped_type(self, broker):
        broker.upsert_entity(make_entity("p-1", "OnStreetParking",
                                         availableSpotNumber=4))
        broker.upsert_entity(make_entity("p-2", "OnStreetParking",
                                         availableSpotNumber=9))
        broker.upsert_entity(make_entity("t-1", "TrafficFlowObserved",
                                         intensity=120))
        broker.upsert_entity(make_entity("n-1", "NoiseLevelObserved", LAeq=55.5))
        store = TimeSeriesStore()
        stats = ingest_snapshot(store, broker, {
            "OnStreetParking": "availableSpotNumber",
            "TrafficFlowObserved": "intensity",
        }, clock=SimulatedClock(DAY))
        assert stats.appended == 3
        assert store.keys() == [("p-1", "availableSpotNumber"),
                                ("p-2", "availableSpotNumber"),
                                ("t-1", "intensity")]
        assert store.get("t-1", "intensity")[-1].t == DAY

    def test_historical_from_iterable_and_file(self, tmp_path):
        records = [
            {"entityId": "p-1", "attr": "availableSpotNumber", "t": 1.0, "value": 5},
            {"entityId": "p-1", "attr": "availableSpotNumber", "t": 2.0, "value": "x"},
            {"entityId": "p-1", "attr": "availableSpotNumber", "t": 3.0, "value": 7},
        ]
        store = TimeSeriesStore()
        stats = ingest_historical(store, records)
        assert (stats.appended, stats.skipped_non_numeric) == (2, 1)

        path = tmp_path / "history.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n",
                        encoding="utf-8")
        store2 = TimeSeriesStore()
        assert ingest_historical(store2, read_jsonl(path)).appended == 2
        assert [s.value for s in store2.get("p-1", "availableSpotNumber")] == [
            5.0, 7.0]

    @pytest.mark.parametrize("bad, error", [
        ({"entityId": "p-1", "attr": "availableSpotNumber", "value": 6}, KeyError),
        ({"entityId": "p-1", "attr": "availableSpotNumber", "t": "noon", "value": 6}, ValueError),
        ({"entityId": ["p-1"], "attr": "availableSpotNumber", "t": 2.0, "value": 6}, TypeError),
        ({"entityId": "p-1", "attr": "availableSpotNumber", "t": "nan", "value": 6}, ValueError),
        ({"entityId": "p-1", "attr": "availableSpotNumber", "t": float("inf"), "value": 6},
         ValueError),
    ])
    def test_historical_with_a_malformed_record_appends_nothing(self, bad, error):
        store = TimeSeriesStore()
        good = {"entityId": "p-1", "attr": "availableSpotNumber", "t": 1.0, "value": 5}
        with pytest.raises(error):
            ingest_historical(store, [good, bad])
        assert store.keys() == []

    def test_subscription_appends_as_commits_arrive(self, broker):
        store = TimeSeriesStore()
        clock = SimulatedClock(DAY)
        sub_ids = ingest_subscription(
            store, broker, {"OnStreetParking": "availableSpotNumber"}, clock=clock)
        assert len(sub_ids) == 1
        broker.upsert_entity(make_entity("p-1", "OnStreetParking",
                                         availableSpotNumber=4))
        assert store.length("p-1", "availableSpotNumber") == 1

        clock.advance(900)
        broker.update_attributes("p-1", {"availableSpotNumber": Attribute(
            value=6, valueType="Number")})
        assert store.length("p-1", "availableSpotNumber") == 2

        clock.advance(900)  # untracked attribute, nothing new stored
        broker.update_attributes("p-1", {"name": Attribute(
            value="Main St", valueType="Text")})
        assert store.length("p-1", "availableSpotNumber") == 2

    def test_an_impossible_date_falls_back_to_the_clock(self, broker, monkeypatch):
        subscriptions = []
        subscribe = broker.subscribe
        monkeypatch.setattr(broker, "subscribe",
                            lambda sub: subscriptions.append(sub) or subscribe(sub))
        store = TimeSeriesStore()
        ingest_subscription(store, broker, {"OnStreetParking": "availableSpotNumber"},
                            clock=SimulatedClock(DAY))
        # the commit check is syntactic, so the broker stores month 13
        for spots in range(4):
            broker.upsert_entity(make_entity("p-bad", "OnStreetParking",
                                             availableSpotNumber=spots,
                                             dateObserved="2025-13-01T00:00:00Z"))
        broker.upsert_entity(make_entity("p-good", "OnStreetParking", availableSpotNumber=7,
                                         dateObserved="2025-06-02T00:15:00Z"))
        assert [sub.status for sub in subscriptions] == ["active"]
        assert [(s.t, s.value) for s in store.get("p-bad", "availableSpotNumber")] == [
            (DAY, 3.0)]
        assert [(s.t, s.value) for s in store.get("p-good", "availableSpotNumber")] == [
            (DAY + 900, 7.0)]


class TestConfig:
    def test_parse_text_types_and_comments(self):
        text = """
        # estimator settings
        algorithm = seasonal-naive
        lags = 8          # trailing comment
        ridgeLambda = 0.5

        profile = parking
        """
        settings = parse_config_text(text)
        assert settings == {"algorithm": "seasonal-naive", "lags": 8,
                            "ridgeLambda": 0.5, "profile": "parking"}

    def test_line_without_assignment_rejected(self):
        with pytest.raises(EstimatorError) as err:
            parse_config_text("lags 8")
        assert err.value.kind == "invalid-config"
        assert "line 1" in str(err.value)

    @pytest.mark.parametrize("text, detail", [
        ("lags = 6\nlgas = 8\n", "line 2: unknown key 'lgas'"),
        ("broker = http://127.0.0.1:1\nwriteback = yes\n", "line 2"),
        ("writeback = True\n", "line 1"),
    ])
    def test_unknown_key_or_writeback_flag_rejected(self, text, detail):
        with pytest.raises(EstimatorError) as err:
            parse_config_text(text)
        assert err.value.kind == "invalid-config"
        assert detail in str(err.value)

    def test_writeback_is_true_or_false(self):
        assert parse_config_text("writeback = true\nbroker = http://b\n") == {
            "writeback": True, "broker": "http://b"}
        assert parse_config_text("writeback = false") == {"writeback": False}

    def test_load_config_file_splits_leftovers(self, tmp_path):
        path = tmp_path / "estimator.conf"
        path.write_text("lags = 6\nminSamples = 50\nprofile = traffic\n",
                        encoding="utf-8")
        config, leftovers = load_config_file(path)
        assert config.lags == 6
        assert config.minSamples == 50
        assert config.ridgeLambda == 0.1  # untouched default
        assert leftovers == {"profile": "traffic"}

    @pytest.mark.parametrize("overrides", [
        {"algorithm": "arima"},
        {"lags": 0},
        {"trainTestRatio": 1.0},
        {"ridgeLambda": -0.1},
        {"minSamples": 0},
        {"inferencePeriodSeconds": 0},
    ])
    def test_config_validation(self, overrides):
        with pytest.raises(EstimatorError) as err:
            TrainingConfig(**overrides)
        assert err.value.kind == "invalid-config"


class TestService:
    def test_profiles_pick_type_and_attribute(self):
        assert PROFILES["parking"] == ("OnStreetParking", "availableSpotNumber")
        assert PROFILES["noise"] == ("NoiseLevelObserved", "LAeq")

    def test_writeback_attaches_forecast_attribute(self, broker):
        broker.upsert_entity(make_entity("p-1", "OnStreetParking",
                                         availableSpotNumber=4))
        prediction = Prediction(
            entityId="p-1", attributeName="availableSpotNumber",
            issuedAt=float(DAY), horizonStart=float(DAY),
            horizonEnd=float(DAY + 3600), value=7.5)
        assert writeback(prediction, broker) is True
        attr = broker.get_entity("p-1").attributes["availableSpotNumberForecast"]
        assert attr.value == 7.5
        assert attr.valueType == "Number"
        assert attr.metadata == {"horizonStart": float(DAY),
                                 "horizonEnd": float(DAY + 3600),
                                 "issuedAt": float(DAY)}

    def test_writeback_reports_vanished_entity(self, broker):
        prediction = Prediction("gone", "availableSpotNumber", 0.0, 0.0,
                                3600.0, 1.0)
        assert writeback(prediction, broker) is False

    def test_service_writes_back_as_it_infers(self, broker):
        broker.upsert_entity(make_entity("p-1", "OnStreetParking",
                                         availableSpotNumber=20))
        cfg = TrainingConfig(lags=2, minSamples=30, windowSize=100)
        seen = []

        def hook(prediction):
            seen.append(prediction)
            writeback(prediction, broker)

        scheduler = EstimatorScheduler(TimeSeriesStore(), cfg, clock=SimulatedClock(DAY),
                                       on_prediction=hook)
        ingest_historical(scheduler.store, [
            {"entityId": "p-1", "attr": "availableSpotNumber",
             "t": DAY - (40 - i) * 900.0,
             "value": 20.0 + 6.0 * math.sin(2 * math.pi * i / 12.0)}
            for i in range(40)])
        scheduler.start(DAY)
        scheduler.advance(DAY + 900)
        entity = broker.get_entity("p-1")
        forecast = entity.attributes["availableSpotNumberForecast"]
        assert forecast.value == seen[0].value
        assert forecast.metadata["horizonEnd"] == DAY + 900 + 3600


def test_autoregression_beats_seasonal_naive_on_noisy_daily_cycle():
    rng = Lcg64(2025)
    store = TimeSeriesStore()
    for i in range(15 * 96):  # fifteen days at 900s
        t = i * 900.0
        value = 30.0 + 12.0 * math.sin(2 * math.pi * t / 86400.0) \
            + 0.6 * rng.gauss()
        store.append("p-1", "availableSpotNumber", t, value)
    now = 15 * 96 * 900.0
    ar = train(store, "p-1", "availableSpotNumber",
               TrainingConfig(lags=96, ridgeLambda=0.1, minSamples=1000,
                              windowSize=2000), now)
    naive = train(store, "p-1", "availableSpotNumber",
                  TrainingConfig(algorithm="seasonal-naive", period=96,
                                 minSamples=1000, windowSize=2000), now)
    assert ar.testError <= naive.testError
    assert ar.testError < 1.0  # close to the irreducible noise floor


class TestEstimatorServer:
    @pytest.fixture
    def served(self):
        cfg = TrainingConfig(lags=2, minSamples=30, windowSize=100)
        scheduler = EstimatorScheduler(TimeSeriesStore(), cfg, clock=SimulatedClock(DAY))
        ingest_historical(scheduler.store, [
            {"entityId": "p-1", "attr": "availableSpotNumber",
             "t": DAY - (40 - i) * 900.0,
             "value": 20.0 + 6.0 * math.sin(2 * math.pi * i / 12.0)}
            for i in range(40)])
        server = EstimatorServer(scheduler)
        url = server.start()
        yield url, scheduler
        server.stop()

    def test_series_endpoint_lists_samples(self, served):
        url, _ = served
        _, docs = request_json("GET", f"{url}/series/p-1/availableSpotNumber")
        assert len(docs) == 40
        assert docs[0] == {"t": DAY - 40 * 900.0, "value": 20.0}
        _, window = request_json("GET", f"{url}/series/p-1/availableSpotNumber"
                                        f"?from={DAY - 1800}&to={DAY - 900}")
        assert len(window) == 2

    def test_unknown_series_is_404(self, served):
        url, _ = served
        with pytest.raises(HttpError) as err:
            request_json("GET", f"{url}/series/p-9/availableSpotNumber")
        assert err.value.status == 404
        assert err.value.payload["error"] == "unknown-series"

    @pytest.mark.parametrize("query", ["from=abc", "to=abc"])
    def test_non_numeric_window_is_400(self, served, query):
        url, _ = served
        with pytest.raises(HttpError) as err:
            request_json("GET", f"{url}/series/p-1/availableSpotNumber?{query}")
        assert err.value.status == 400
        assert err.value.payload["error"] == "bad-query"

    def test_predict_before_training_is_409(self, served):
        url, _ = served
        with pytest.raises(HttpError) as err:
            request_json("POST", f"{url}/predict/p-1/availableSpotNumber", {})
        assert err.value.status == 409
        assert err.value.payload["error"] == "model-not-trained"

    def test_predict_after_training(self, served):
        url, scheduler = served
        scheduler.start(DAY)
        status, doc = request_json("POST", f"{url}/predict/p-1/availableSpotNumber", {})
        assert status == 200
        assert doc["entityId"] == "p-1"
        assert doc["horizonEnd"] - doc["horizonStart"] == 3600
        _, models = request_json("GET", f"{url}/models")
        assert [m["entityId"] for m in models] == ["p-1"]

    def test_models_never_mix_two_train_passes(self):
        """GET /models during train passes sees whole passes only."""
        cfg = TrainingConfig(lags=2, minSamples=30, windowSize=40,
                             retrainPeriodSeconds=900, inferencePeriodSeconds=10 * 86400)
        scheduler = EstimatorScheduler(TimeSeriesStore(), cfg, clock=SimulatedClock(DAY))
        sites = 40
        ingest_historical(scheduler.store, [
            {"entityId": f"p-{k}", "attr": "availableSpotNumber",
             "t": DAY - (40 - i) * 900.0, "value": 20.0 + k + math.sin(i / 3.0)}
            for k in range(sites) for i in range(40)])
        server = EstimatorServer(scheduler)
        url = server.start()
        passes = 25

        def train_passes():
            scheduler.start(DAY)
            scheduler.advance(DAY + passes * 900)

        trainer = threading.Thread(target=train_passes)
        seen = []
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            trainer.start()
            while trainer.is_alive():
                _, docs = request_json("GET", f"{url}/models")
                seen.append((len(docs), {doc["trainedAt"] for doc in docs}))
            trainer.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
            server.stop()
        assert not trainer.is_alive()
        assert scheduler.train_passes == passes
        assert seen
        torn = [(n, stamps) for n, stamps in seen if n not in (0, sites) or len(stamps) > 1]
        assert torn == []

    def test_predict_unknown_series_is_404(self, served):
        url, _ = served
        with pytest.raises(HttpError) as err:
            request_json("POST", f"{url}/predict/p-9/availableSpotNumber", {})
        assert err.value.status == 404
