"""The seeded query corpus whose answers ``TestPinnedAnswers`` pins and
``tools/plan_diff.py`` compares between two checkouts.

Seed s builds a ``random_grid_network`` (every third seed) or a
``random_network``, overlays it with ``random_trip_updates``,
``whole_trip_delays`` or nothing (by ``s % 4``), and asks four random queries
with 1-3 itineraries and a transfer cap of None or 0-2.
"""

import json
from datetime import date

from citykit.feedgen import Lcg64
from citykit.routing import ItineraryQuery, PlanError, apply_realtime, build_graph, plan

from oracles import (random_grid_network, random_network, random_query,
                     random_trip_updates, whole_trip_delays)


def corpus():
    """Yield (graph, overlay or None, ItineraryQuery keyword arguments, cap), without end."""
    seed = 0
    while True:
        rng = Lcg64(seed * 4099 + 11)
        grid = seed % 3 == 0
        graph = build_graph((random_grid_network if grid else random_network)(rng),
                            date(2025, 6, 2))
        updates = (random_trip_updates, whole_trip_delays, None, None)[seed % 4]
        overlay = apply_realtime(graph, updates(rng, graph)) if updates else None
        for _ in range(4):
            kwargs = random_query(rng, graph, graph.dayStart)
            if grid:  # while the grid's trips run
                kwargs["departAfter"] = graph.dayStart + 6 * 3600 + rng.randrange(16) * 600
            kwargs["maxItineraries"] = 1 + rng.randrange(3)
            yield graph, overlay, kwargs, rng.choice((None, 0, 1, 2))
        seed += 1


def answer(graph, overlay, kwargs: dict, cap) -> bytes:
    """One corpus query's answer as canonical JSON: every itinerary's ``to_doc()``
    with all its legs, in order, or the ``PlanError`` kind."""
    try:
        docs = [itin.to_doc() for itin in
                plan(graph, ItineraryQuery(**kwargs), overlay, max_transfers=cap)]
    except PlanError as exc:
        return json.dumps(exc.kind).encode()
    return json.dumps(docs, sort_keys=True).encode()
