"""Output checks. Each returns a list of problems; an empty list passes.

The plan checker works from the generator's own timetable and its own
reading of the realtime overlay; it imports nothing from
``citykit.routing``.
"""

import gen


def trip_index(table: dict) -> dict:
    """tripId -> (routeId, [(stopId, epoch)]) with epochs on the service day."""
    return {t: (info["routeId"], [(s, gen.DAY_START + sec) for s, sec in info["calls"]])
            for t, info in table.items()}


def overlay_times(index: dict, rt_feed) -> dict:
    """Effective calls per trip under a realtime feed document: a pinned
    stop moves to its override, later stops keep that shift until the next
    pin. ``rt_feed`` may be None for the static timetable."""
    if not rt_feed:
        return {}
    out = {}
    for tu in rt_feed["tripUpdates"]:
        route, calls = index[tu["tripId"]]
        pins = {u["stopSequence"]: u["arrivalOverride"] for u in tu["stopTimeUpdates"]}
        shift, shifted = 0, []
        for seq, (sid, t) in enumerate(calls, start=1):
            if seq in pins:
                shift = pins[seq] - t
            shifted.append((sid, t + shift))
        out[tu["tripId"]] = (route, shifted)
    return out


def check_plan(answer, query, index: dict, overlay: dict) -> list:
    """Structural check of one /plan answer against timetable and overlay."""
    if not isinstance(answer, list) or not answer:
        return [f"{query}: no itineraries"]
    problems = []
    if len(answer) > query.n:
        problems.append(f"{query}: {len(answer)} itineraries for n={query.n}")
    arrivals = []
    for k, itin in enumerate(answer):
        where = f"{query} itinerary {k}"
        legs = itin.get("legs") or []
        if not legs:
            problems.append(f"{where}: no legs")
            continue
        if legs[0].get("boardStopId") != query.origin:
            problems.append(f"{where}: starts at {legs[0].get('boardStopId')}")
        if legs[-1].get("alightStopId") != query.destination:
            problems.append(f"{where}: ends at {legs[-1].get('alightStopId')}")
        if legs[0]["startTime"] < query.departAfter:
            problems.append(f"{where}: leaves before departAfter")
        for a, b in zip(legs, legs[1:]):
            if a.get("alightStopId") != b.get("boardStopId"):
                problems.append(f"{where}: legs do not chain in place")
            if a["endTime"] > b["startTime"]:
                problems.append(f"{where}: legs do not chain in time")
        transit = 0
        for leg in legs:
            problems += _check_leg(leg, where, index, overlay)
            transit += leg["mode"] == "transit"
        arrival = legs[-1]["endTime"]
        if arrival < query.departAfter:
            problems.append(f"{where}: arrives before departAfter")
        if itin.get("transfers") != max(0, transit - 1):
            problems.append(f"{where}: transfers {itin.get('transfers')} for {transit} rides")
        if itin.get("totalSeconds") != arrival - query.departAfter:
            problems.append(f"{where}: totalSeconds does not match the legs")
        arrivals.append(arrival)
    if arrivals != sorted(arrivals):
        problems.append(f"{query}: itineraries not ordered by arrival")
    return problems


def _check_leg(leg, where, index, overlay) -> list:
    board, alight = leg.get("boardStopId"), leg.get("alightStopId")
    if leg["mode"] == "walk":
        if board is None or alight is None:
            return [f"{where}: walk leg without stops"]
        meters = gen.haversine_m(gen.stop_position(board), gen.stop_position(alight))
        if leg["endTime"] - leg["startTime"] != gen.walk_time(meters):
            return [f"{where}: walk {board}->{alight} does not match the walk speed"]
        return []
    trip = leg.get("tripId")
    if trip not in index:
        return [f"{where}: unknown trip {trip}"]
    route, calls = overlay.get(trip) or index[trip]
    if leg.get("routeId") != route:
        return [f"{where}: trip {trip} is on route {route}, not {leg.get('routeId')}"]
    stops = [s for s, _ in calls]
    if board not in stops or alight not in stops or stops.index(board) >= stops.index(alight):
        return [f"{where}: trip {trip} does not ride {board}->{alight}"]
    if leg["startTime"] != calls[stops.index(board)][1] \
            or leg["endTime"] != calls[stops.index(alight)][1]:
        return [f"{where}: trip {trip} {board}->{alight} times differ from the timetable"]
    return []


def check_probe(answer, tick: dict) -> list:
    """The probe rides the delayed trip, so its arrival moves by the delay."""
    legs = answer[0]["legs"] if answer else []
    if not legs or legs[-1].get("tripId") != tick["probeTrip"]:
        return [f"tick {tick['tick']}: probe did not ride {tick['probeTrip']}"]
    shift = legs[-1]["endTime"] - tick["staticArrival"]
    if shift != tick["delay"]:
        return [f"tick {tick['tick']}: probe arrival moved {shift} s, committed delay "
                f"{tick['delay']} s"]
    return []


# ---------------------------------------------------------------------------
# sensors

def check_notifications(writes: list, received: dict, subs: list) -> tuple:
    """``writes``: acknowledged patches {id, type, attrs, seq, due};
    ``received``: (subName, entityId, seq) -> first arrival time.

    Returns (problems, spans): each write must reach every matching
    subscription at least once and no other one; a span is (due, arrival).
    """
    problems, spans = [], []
    expected = set()
    for w in writes:
        for sub in subs:
            if gen.subscription_matches(sub, w["id"], w["type"], w["attrs"]):
                key = (sub["name"], w["id"], w["seq"])
                expected.add(key)
                if key not in received:
                    problems.append(f"write seq {w['seq']} to {w['id']} never reached "
                                    f"{sub['name']}")
                else:
                    spans.append((w["due"], received[key]))
    acked = {w["seq"] for w in writes}
    for key in received:
        if key[2] in acked and key not in expected:
            problems.append(f"write seq {key[2]} to {key[1]} reached non-matching {key[0]}")
    return problems, spans


def check_query(op: dict, ids: list) -> list:
    if ids != op["expect"]:
        return [f"query type={op['type']} q={op['q']} returned {len(ids)} ids, "
                f"model predicts {len(op['expect'])}"]
    return []


def readable_seqs(writes: list, sent_at: float, answered_at: float) -> set:
    """Sequence numbers a get of one entity may return.

    ``writes`` are that entity's patches as [seq, sent, acknowledged or
    None]. Two client threads write concurrently, so commit order is known
    only where one write was sent after another was acknowledged. A write
    acknowledged before the get was sent is committed; it is overwritten
    when a later-sent write was also acknowledged before the get. Writes
    still in flight may or may not show.
    """
    committed = [w for w in writes if w[2] is not None and w[2] < sent_at]
    overwritten = {s for s, _, acked in committed
                   if any(sent2 > acked for _, sent2, _ in committed)}
    allowed = {s for s, sent, _ in writes if sent < answered_at} - overwritten
    if not committed:
        allowed.add(0)  # the inventory's own value
    return allowed


def check_get(op: dict, doc: dict, model: dict, allowed: set) -> list:
    kind, static = model[op["id"]]
    if doc.get("id") != op["id"] or doc.get("entityType") != kind:
        return [f"get {op['id']}: wrong entity"]
    attrs = doc.get("attributes", {})
    for name, value in static.items():
        if attrs.get(name, {}).get("value") != value:
            return [f"get {op['id']}: {name} changed"]
    seq = attrs.get("seq", {}).get("value")
    if seq not in allowed:
        return [f"get {op['id']}: seq {seq} is not one a read could see "
                f"(allowed {sorted(allowed)})"]
    return []


# ---------------------------------------------------------------------------
# forecast: the estimation scenario's gates

def check_forecast(scheduler, store, broker, config, days: int, rmse_threshold: float,
                   naive_key: tuple, naive_error: float) -> list:
    """The estimation scenario's gates, over every series it models.

    As in the scenario, the ridge model must beat the seasonal-naive
    baseline on ``naive_key`` (parking-1); the RMSE threshold holds for
    every noisy parking series.
    """
    problems = []
    for key in store.keys():
        if key[1].endswith(".predicted"):
            continue
        ok = store.length(*key) >= config.minSamples
        if ok != (key in scheduler.models):
            problems.append(f"train gate: {key} has {store.length(*key)} samples, "
                            f"model={key in scheduler.models}")
    infers = days * 86400 // config.inferencePeriodSeconds
    trains = days * 86400 // config.retrainPeriodSeconds
    for key, model in sorted(scheduler.models.items()):
        if scheduler.infers_by_key.get(key) != infers or scheduler.trains_by_key.get(key) != trains:
            problems.append(f"invocations: {key} inferred {scheduler.infers_by_key.get(key)} "
                            f"(want {infers}), trained {scheduler.trains_by_key.get(key)} "
                            f"(want {trains})")
        if key[1] == "availableSpotNumber" and model.testError > rmse_threshold:
            problems.append(f"forecast quality: {key} rmse {model.testError} over "
                            f"{rmse_threshold}")
        attr = broker.get_entity(key[0]).attributes.get(key[1] + "Forecast")
        if attr is None or not {"horizonStart", "horizonEnd", "issuedAt"} <= set(attr.metadata):
            problems.append(f"writeback: {key[0]} lacks {key[1]}Forecast with its horizon")
    model = scheduler.models.get(naive_key)
    if model is None or model.testError > naive_error:
        problems.append(f"forecast quality: {naive_key} rmse "
                        f"{getattr(model, 'testError', None)} above the seasonal-naive "
                        f"{naive_error}")
    return problems
