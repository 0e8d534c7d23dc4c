"""Short-horizon forecasting on broker-held time series.

Layers: ``store`` (ordered samples), ``models`` (ridge AR + seasonal naive),
``ingest`` (snapshot / historical / subscription feeds), ``scheduler``
(periodic retrain + inference), ``service`` (profiles, write-back, HTTP).
"""
