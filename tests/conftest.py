"""Shared fixtures: an in-process broker and the canonical generated city."""

from datetime import date

import pytest

from citykit.broker import ContextBroker
from citykit.feedgen import default_fixture, generate_static_network
from citykit.gtfs import ngsi_to_gtfs
from citykit.routing import build_graph


@pytest.fixture
def broker():
    b = ContextBroker(delivery="inline")
    yield b
    b.close()


@pytest.fixture
def city():
    return default_fixture()


@pytest.fixture
def city_feed(city):
    feed, _ = ngsi_to_gtfs(generate_static_network(city))
    return feed


@pytest.fixture
def city_graph(city_feed):
    return build_graph(city_feed, service_date=date(2025, 6, 2))
