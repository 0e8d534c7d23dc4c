"""citykit: composable smart-city atomic services.

Each submodule is a standalone building block; they compose through NGSI
entities exchanged via the context broker:

- ``ngsi``          entity/attribute model shared by every service
- ``broker``        in-process context broker with subscriptions
- ``broker_http``   HTTP facade and client for the broker
- ``datamodels``    entity-type schemas and the validation service
- ``transforms``    legacy-JSON -> NGSI and NGSI -> NGSI-LD translators
- ``gtfs``          static transit feed model, NGSI -> GTFS builder
- ``gtfs_realtime`` trip-update feed built from arrival estimations
- ``gtfs_fetcher``  change-tracking feed reloads into the router
- ``routing``       earliest-arrival multi-modal journey planner
- ``estimator``     per-entity time-series forecasting service
- ``feedgen``       deterministic synthetic city data generator
- ``harness``       end-to-end validation scenarios
"""

__version__ = "0.1.0"
