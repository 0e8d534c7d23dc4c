"""The four workloads: plan, live, sensors (over HTTP) and forecast (in process).

Each workload function takes a ``Context`` and fills its ``Outcome``: the
set-up times, the per-operation samples of each timed family, the number
of operations attempted and failed, and what the run offered. HTTP
services run in one child process (``services.py``); load comes from at
most two client threads in this process.
"""

import gc
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from urllib.parse import urlencode

from citykit import datamodels, feedgen, gtfs, httpd, transforms
from citykit.broker import ContextBroker
from citykit.broker_http import BrokerClient
from citykit.clock import SimulatedClock
from citykit.estimator import ingest, models, scheduler as scheduler_mod, service
from citykit.estimator.store import TimeSeriesStore
from citykit.feedgen import StreamGenerator
from citykit.httpd import JsonHttpServer

import checks
import gen
import speed
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
CLIENT_THREADS = 2  # this machine's core count; the load never uses more
PROBE_EVERY = 1.0  # seconds of load between speed probes (speed.py)
HTTP_TIMEOUT = 60.0
FRESH_TIMEOUT = 5.0
POLL_SECONDS = 0.002


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    tiny: bool
    workdir: str


@dataclass
class Outcome:
    """What a run measured. Timings are kept as (start, end) intervals and
    turned into seconds at reference speed by ``finish_run``."""
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    setup_spans: list = field(default_factory=list)  # (start, end) per set-up
    spans: dict = field(default_factory=dict)  # phase -> family -> [(start, end)]
    windows: dict = field(default_factory=dict)  # phase -> [(start, end)] measured
    service: dict = field(default_factory=dict)  # open loop: phase -> [(start, end)] per request
    clients: int = 1  # open loop: threads the service time is spread over
    done: dict = field(default_factory=dict)  # phase -> completed operations
    lateness: list = field(default_factory=list)  # open loop: start - due
    interval: float = 0.0  # open loop: seconds between due times
    info: dict = field(default_factory=dict)
    dumps: list = field(default_factory=list)
    phase: str = "run"
    # filled by finish_run: seconds at reference speed, and raw seconds
    setup: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)  # phase -> family -> [seconds]
    raw: dict = field(default_factory=dict)  # phase -> family -> [seconds]
    elapsed: dict = field(default_factory=dict)  # phase -> measured seconds
    busy: dict = field(default_factory=dict)  # open loop: phase -> service seconds

    def __post_init__(self):
        self._lock = threading.Lock()
        self.speed = speed.Speed()

    def record(self, family: str, start: float, end: float, phase=None) -> None:
        with self._lock:
            phase = phase or self.phase
            self.spans.setdefault(phase, {}).setdefault(family, []).append((start, end))

    def serve(self, start: float, end: float) -> None:
        """An open loop's request was served from ``start`` to ``end``."""
        with self._lock:
            self.service.setdefault(self.phase, []).append((start, end))

    def window(self, start: float, end: float) -> None:
        """Load ran from ``start`` to ``end``; probes inside are left out."""
        self.windows.setdefault(self.phase, []).append((start, end))

    def finish(self, problems: list, phase=None) -> None:
        """One operation ended; any problem makes it a failed one."""
        with self._lock:
            self.attempted += 1
            phase = phase or self.phase
            if problems:
                self.failed += 1
                self.problems.extend(problems[:3])
            else:
                self.done[phase] = self.done.get(phase, 0) + 1

    def finish_run(self) -> None:
        """Scale every interval to reference speed (``speed.py``)."""
        scale = self.speed.scale
        self.setup = [scale(a, b) for a, b in self.setup_spans]
        for phase, families in self.spans.items():
            self.samples[phase] = {f: [scale(a, b) for a, b in v] for f, v in families.items()}
            self.raw[phase] = {f: [b - a for a, b in v] for f, v in families.items()}
        self.elapsed = {p: sum(scale(a, b) for a, b in v) for p, v in self.windows.items()}
        self.busy = {p: sum(scale(a, b) for a, b in v) for p, v in self.service.items()}


# ---------------------------------------------------------------------------
# shared plumbing

class ServiceHost:
    """Handle on the child process that runs the services under test."""

    def __init__(self, workdir: str, trace: bool):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "services.py"), workdir, "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise RuntimeError("service host exited during start-up")
        self.urls = json.loads(line)

    def call(self, cmd: str, **args) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **args}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"service host exited during {cmd!r}")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(f"service host {cmd!r}: {reply['error']}")
        return reply

    def close(self) -> dict:
        reply = {}
        if self.proc.poll() is None:
            try:
                reply = self.call("stop")
            finally:
                self.proc.stdin.close()
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        self.proc.stdout.close()
        return reply


class Tracing:
    """Switches the wrappers on and off in this process and in the child."""

    def __init__(self, ctx: Context, out: Outcome):
        self.out = out
        self.tracer = tracing.Tracer("parent") if ctx.trace else None
        self.host = None
        if self.tracer:
            self.tracer.install()

    def phases(self, seconds: float) -> list:
        """(phase, seconds, traced): one untraced phase, or in a traced run
        an untraced half followed by a traced half."""
        if not self.tracer:
            return [("run", seconds, False)]
        return [("untraced", seconds / 2, False), ("traced", seconds / 2, True)]

    def enter(self, phase: str, traced: bool) -> None:
        if self.tracer:
            self.tracer.set_active(traced)
            if self.host:
                self.host.call("trace", on=traced)
        self.out.phase = phase

    def child_stopped(self, child_reply: dict) -> None:
        """Keep the spans a stopped child wrote out."""
        if child_reply.get("spans"):
            self.out.dumps.append(tracing.load_dump(child_reply["spans"]))

    def collect(self, child_reply: dict) -> None:
        if not self.tracer:
            return
        self.tracer.set_active(False)
        self.out.dumps.append(self.tracer.snapshot())
        self.child_stopped(child_reply)


def run_threads(targets: list) -> None:
    errors = []

    def guarded(fn):
        try:
            fn()
        except BaseException as exc:  # re-raised in the caller below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(fn,)) for fn in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def publish(broker_url: str, entities: list) -> None:
    """Upsert over HTTP from the client threads, each its own share."""
    def share(k):
        client = BrokerClient(broker_url, timeout=HTTP_TIMEOUT)
        for entity in entities[k::CLIENT_THREADS]:
            client.upsert(entity)
    run_threads([lambda k=k: share(k) for k in range(CLIENT_THREADS)])


def validate_all(entities: list) -> list:
    registry = datamodels.bundled_registry()
    return [f"{e.id} fails its schema" for e in entities
            if not datamodels.validate_entity(e, registry).valid]


def get(url: str, params=None):
    if params:
        url += "?" + urlencode(params)
    return httpd.request_json("GET", url, timeout=HTTP_TIMEOUT)[1]


def wait_until(fn, timeout: float):
    """Poll ``fn`` until it returns a true value; returns (value, time seen)."""
    deadline = time.perf_counter() + timeout
    while True:
        value = fn()
        now = time.perf_counter()
        if value or now > deadline:
            return value, now
        time.sleep(POLL_SECONDS)


def sleep_until(t: float) -> None:
    delay = t - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def start_city(ctx: Context, out: Outcome, spec: gen.GridSpec, tracer: Tracing,
               via_broker: bool) -> tuple:
    """Generate and validate the grid city, start the services, build the
    feed zip and let the fetcher load it from its pointer.

    With ``via_broker`` the Gtfs* entities are first published over HTTP
    and the feed is built from a broker query, as ``citykit gtfs-build``
    does; otherwise the feed is built straight from the generated entities.
    Returns (host, broker client, zip path). Speed probes run between the
    steps, while nothing else does.
    """
    entities = gen.grid_entities(spec, ctx.seed)
    bad = validate_all(entities)
    if bad:
        raise RuntimeError(f"generated city fails validation: {bad[:3]}")
    out.speed.probe()
    host = ServiceHost(ctx.workdir, ctx.trace)
    tracer.host = host
    try:
        client = BrokerClient(host.urls["broker"], timeout=HTTP_TIMEOUT)
        if via_broker:
            out.speed.probe()
            publish(host.urls["broker"], entities)
            out.speed.probe()
            entities = client.query()
        _, zip_bytes = gtfs.ngsi_to_gtfs(entities)
        out.speed.probe()
        zip_path = os.path.join(ctx.workdir, "feed-0.zip")
        with open(zip_path, "wb") as fh:
            fh.write(zip_bytes)
        gtfs.publish_feed_entity(zip_path, client, feed_id="feed-city")
        version, _ = wait_until(
            lambda: get(host.urls["router"] + "/version")["version"] == 1, 60.0)
        if not version:
            raise RuntimeError("the fetcher never loaded the first feed")
    except BaseException:
        host.close()
        raise
    return host, client, zip_path


def setup_reps(ctx: Context, reps: int) -> int:
    """How many times to set up: several, so setup_s is a median; two where
    one set-up costs several seconds, to fit the run budget."""
    return 1 if ctx.tiny else reps


def repeated_setup(ctx: Context, out: Outcome, tracer: Tracing, reps: int, build):
    """Run the set-up ``reps`` times, timing each; keep the last one."""
    result = None
    for _ in range(reps):
        if result is not None:
            tracer.child_stopped(result[0].close())
        out.speed.probe()
        t0 = time.perf_counter()
        result = build()
        out.setup_spans.append((t0, time.perf_counter()))
    out.speed.probe()
    return result


# ---------------------------------------------------------------------------
# plan: riders on a static grid city

def plan_spec(tiny: bool) -> gen.GridSpec:
    return gen.GridSpec(4, 4, tripsPerRoute=6) if tiny else gen.GridSpec(8, 8, tripsPerRoute=16)


def run_plan(ctx: Context, out: Outcome) -> None:
    spec = plan_spec(ctx.tiny)
    tracer = Tracing(ctx, out)
    host, _, _ = repeated_setup(ctx, out, tracer, setup_reps(ctx, 2),
                                lambda: start_city(ctx, out, spec, tracer, True))
    try:
        index = checks.trip_index(gen.grid_timetable(spec, ctx.seed))
        queries = gen.rider_queries(spec, ctx.seed, per_cell=3 if ctx.tiny else 12)
        out.info.update(model="closed loop", clients=CLIENT_THREADS, queries=len(queries),
                        stops=spec.rows * spec.cols)
        url = host.urls["router"] + "/plan"
        sent = list(range(CLIENT_THREADS))  # next query index of each client

        def client(k, end):
            while time.perf_counter() < end:
                q = queries[sent[k] % len(queries)]
                sent[k] += CLIENT_THREADS
                start = time.perf_counter()
                try:
                    answer = get(url, q.params())
                except Exception as exc:  # a refused or failed request fails the op
                    out.finish([f"{q}: {exc}"])
                    continue
                out.record("plan", start, time.perf_counter())
                out.finish(checks.check_plan(answer, q, index, {}))

        for phase, seconds, traced in tracer.phases(ctx.seconds):
            tracer.enter(phase, traced)
            end = time.perf_counter() + seconds
            # closed-loop windows, with a speed probe while both clients rest
            while time.perf_counter() < end:
                out.speed.probe()
                t0 = time.perf_counter()
                stop = min(end, t0 + PROBE_EVERY)
                run_threads([lambda k=k: client(k, stop) for k in range(CLIENT_THREADS)])
                out.window(t0, time.perf_counter())
            out.speed.probe()
    finally:
        tracer.collect(host.close())


# ---------------------------------------------------------------------------
# live: an operator feeding delays and new feed versions

def live_spec(tiny: bool) -> gen.LiveSpec:
    grid = gen.GridSpec(5, 5, tripsPerRoute=8) if tiny else gen.GridSpec(9, 9, tripsPerRoute=16)
    return gen.LiveSpec(grid, pairs=4 if tiny else 10)


TICK_SECONDS = 0.21  # a tick's work takes about half of this when slow; not a multiple of the
# broker's 50 ms delivery poll, so the ticks meet the poll at every phase
RELOAD_EVERY = 10
PROBE_AT = 0.7  # share of the tick interval after which a tick's speed probe runs


def run_live(ctx: Context, out: Outcome) -> None:
    spec = live_spec(ctx.tiny)
    tracer = Tracing(ctx, out)

    def build():
        host, client, zip0 = start_city(ctx, out, spec.grid, tracer, False)
        try:
            zip1 = os.path.join(ctx.workdir, "feed-1.zip")
            _, data = gtfs.ngsi_to_gtfs(gen.grid_entities(spec.grid, ctx.seed, version=1))
            with open(zip1, "wb") as fh:
                fh.write(data)
            rt = host.call("realtime", zip=zip0, start=gen.live_start(spec))["rt"]
        except BaseException:
            host.close()
            raise
        return host, client, (zip0, zip1), rt

    host, client, zips, rt = repeated_setup(ctx, out, tracer, setup_reps(ctx, 3), build)
    table = gen.grid_timetable(spec.grid, ctx.seed)
    index = checks.trip_index(table)
    pairs = gen.live_pairs(spec, ctx.seed)
    ticks = min(gen.max_ticks(spec), int(ctx.seconds / TICK_SECONDS) + 1)
    out.interval = TICK_SECONDS
    out.info.update(model="open loop", tickSeconds=TICK_SECONDS, estimationsPerTick=len(pairs),
                    reloadEveryTicks=RELOAD_EVERY, stops=spec.grid.rows * spec.grid.cols,
                    offeredTicksPerSecond=1 / TICK_SECONDS)
    version = 1
    retries = 0
    try:
        k = 0
        for phase, seconds, traced in tracer.phases(ctx.seconds):
            tracer.enter(phase, traced)
            out.speed.probe()
            t0 = time.perf_counter()
            phase_ticks = min(ticks - k, int(seconds / TICK_SECONDS))
            for j in range(phase_ticks):
                tick = gen.live_tick(spec, table, pairs, ctx.seed, k)
                due = t0 + j * TICK_SECONDS
                sleep_until(due)
                start = time.perf_counter()
                out.lateness.append(start - due)
                try:
                    problems, tries = live_tick(host, client, rt, tick, due, index, out)
                    retries += tries
                    if not problems and k % RELOAD_EVERY == RELOAD_EVERY - 1:
                        version += 1
                        problems = reload(host, client, zips[(version - 1) % 2], version,
                                          due + TICK_SECONDS / 2, out)
                except Exception as exc:  # a refused or failed request fails the tick
                    problems = [f"tick {k}: {exc}"]
                out.finish(problems)
                k += 1
                sleep_until(due + PROBE_AT * TICK_SECONDS)
                out.speed.probe()  # the tick's work is done; the next is not due
            out.window(t0, time.perf_counter())
        out.info["probeRetries"] = retries
    finally:
        tracer.collect(host.close())


def live_tick(host, client, rt_url, tick, due, index, out) -> tuple:
    host.call("clock", t=tick["now"])
    for entity in tick["entities"]:
        start = time.perf_counter()
        client.upsert(entity)
        end = time.perf_counter()
        out.record("write", start, end)
        out.serve(start, end)
    fresh, seen = wait_until(lambda: _serves(rt_url, tick["feed"]), FRESH_TIMEOUT)
    if not fresh:
        return [f"tick {tick['tick']}: /gtfs-rt never served the tick's updates"], 0
    out.record("rt_fresh", due, seen)
    overlay = checks.overlay_times(index, tick["feed"])
    # The feed becomes visible a moment before the same refresh reaches the
    # router, so a probe may be asked again while the shift is not there yet.
    for tries in range(3):
        start = time.perf_counter()
        answer = get(host.urls["router"] + "/plan", tick["probe"].params())
        end = time.perf_counter()
        out.record("plan", start, end)
        out.serve(start, end)
        problems = checks.check_plan(answer, tick["probe"], index, overlay)
        problems += checks.check_probe(answer, tick)
        if not problems:
            break
        time.sleep(0.02)
    return problems, tries


def _serves(rt_url: str, feed: dict) -> bool:
    try:
        return get(rt_url + "/gtfs-rt") == feed
    except Exception:  # 503 until the first refresh
        return False


def reload(host, client, zip_path, version, due, out) -> list:
    sleep_until(due)
    start = time.perf_counter()
    gtfs.publish_feed_entity(zip_path, client, feed_id="feed-city")
    ok, seen = wait_until(
        lambda: get(host.urls["router"] + "/version")["version"] == version, 30.0)
    if not ok:
        return [f"router never reported graph v{version}"]
    out.record("reload", due, seen)
    return []


# ---------------------------------------------------------------------------
# sensors: a fleet of devices writing, subscribers and dashboards reading

SENSOR_RATE = 45.0  # offered operations per second; light load on one CPU (README)
QUERY_SHARE = 0.2


class Sink:
    """Webhook receiver: first arrival time per (subscription, id, seq)."""

    def __init__(self):
        self.received = {}
        self._lock = threading.Lock()
        self.server = JsonHttpServer()
        self.server.add_route("POST", r"/hook/(?P<name>[^/]+)", self._hook)
        self.url = None

    def _hook(self, match, params, body):
        now = time.perf_counter()
        name = match.group("name")
        with self._lock:
            for doc in body.get("data", []):
                seq = doc["attributes"]["seq"]["value"]
                self.received.setdefault((name, doc["id"], seq), now)
        return 200, {}

    def start(self) -> str:
        self.server.start()
        self.url = self.server.url("/hook/")
        return self.url

    def count(self) -> int:
        with self._lock:
            return len(self.received)


def run_sensors(ctx: Context, out: Outcome) -> None:
    tracer = Tracing(ctx, out)
    devices = 60 if ctx.tiny else 600
    rate = 40.0 if ctx.tiny else SENSOR_RATE
    subs = gen.sensor_subscriptions()
    sink = Sink()
    sink.start()

    def build():
        records = gen.sensor_fleet(ctx.seed, devices)
        rules = {k: transforms.MappingRuleSet.from_doc(doc)
                 for k, doc in gen.sensor_rulesets().items()}
        entities = []
        for rec in records:
            mapped = transforms.json_to_ngsi(rec, rules[rec["kind"]])
            if mapped.errors or len(mapped.entities) != 1:
                raise RuntimeError(f"inventory record {rec['serial']} does not map")
            entities.append(mapped.entities[0])
        bad = validate_all(entities)
        if bad:
            raise RuntimeError(f"mapped inventory fails validation: {bad[:3]}")
        host = ServiceHost(ctx.workdir, ctx.trace)
        tracer.host = host
        try:
            publish(host.urls["broker"], entities)
            client = BrokerClient(host.urls["broker"], timeout=HTTP_TIMEOUT)
            for sub in subs:
                doc = {k: v for k, v in sub.items() if k != "name"}
                client.subscribe({**doc, "target": sink.url + sub["name"]})
        except BaseException:
            host.close()
            raise
        return host, client, records

    try:
        host, _, records = repeated_setup(ctx, out, tracer, setup_reps(ctx, 3), build)
    except BaseException:
        sink.server.stop()
        raise
    model = gen.sensor_model(records)
    count = int(rate * ctx.seconds) + 1
    ops = gen.sensor_ops(ctx.seed, records, count, QUERY_SHARE)
    out.interval = 1 / rate
    out.clients = CLIENT_THREADS
    out.info.update(model="open loop", offeredOpsPerSecond=rate, queryShare=QUERY_SHARE,
                    devices=devices, subscriptions=len(subs), clients=CLIENT_THREADS)
    writes = []
    expected = [0]  # notifications the acknowledged writes should cause
    log = {}  # id -> [[seq, sent, acknowledged], ...]
    lock = threading.Lock()
    clients = [BrokerClient(host.urls["broker"], timeout=HTTP_TIMEOUT)
               for _ in range(CLIENT_THREADS)]

    def worker(k, lo, hi, t0, phase):
        for i in range(lo + k, hi, CLIENT_THREADS):
            op = ops[i]
            due = t0 + (i - lo) / rate
            sleep_until(due)
            start = time.perf_counter()
            out.lateness.append(start - due)
            try:
                problems = sensor_op(clients[k], op, model, log, lock)
            except Exception as exc:  # refused or failed requests fail the op
                problems = [f"{op['op']} {op.get('id', op.get('q'))}: {exc}"]
            end = time.perf_counter()
            out.record(op["op"] if op["op"] != "patch" else "write", due, end)
            out.serve(start, end)
            if op["op"] == "patch" and not problems:
                matching = sum(1 for s in subs if gen.subscription_matches(
                    s, op["id"], op["type"], op["attrs"]))
                with lock:
                    writes.append({**op, "due": due, "phase": phase})
                    expected[0] += matching
            out.finish(problems)

    try:
        i0 = 0
        per_window = max(1, int(PROBE_EVERY * rate))
        for phase, seconds, traced in tracer.phases(ctx.seconds):
            tracer.enter(phase, traced)
            end = min(len(ops), i0 + int(seconds * rate))
            # open-loop windows; between them the notifications drain and a
            # speed probe runs while nothing else does
            for lo in range(i0, end, per_window):
                hi = min(end, lo + per_window)
                out.speed.probe()
                t0 = time.perf_counter()
                run_threads([lambda k=k: worker(k, lo, hi, t0, phase)
                             for k in range(CLIENT_THREADS)])
                out.window(t0, time.perf_counter())
                wait_until(lambda: sink.count() >= expected[0], 30.0)
            out.speed.probe()
            i0 = end
        time.sleep(0.2)  # a notification that should not exist has time to show
    finally:
        tracer.collect(host.close())
        sink.server.stop()
    for phase in {w["phase"] for w in writes}:
        mine = [w for w in writes if w["phase"] == phase]
        problems, spans = checks.check_notifications(mine, sink.received, subs)
        for due, arrived in spans:
            out.record("notify", due, arrived, phase)
        for p in problems:
            out.finish([p], phase)
    out.info["notifications"] = sink.count()


def sensor_op(client, op, model, log, lock) -> list:
    """One operation; ``log`` keeps each entity's patches as
    [seq, sent, acknowledged] for the get check."""
    if op["op"] == "patch":
        attrs = {name: {"value": v, "valueType": "Number"} for name, v in op["attrs"].items()}
        record = [op["seq"], time.perf_counter(), None]
        with lock:
            log.setdefault(op["id"], []).append(record)
        entity = client.patch(op["id"], attrs)
        record[2] = time.perf_counter()
        if entity.value("seq") != op["seq"]:
            return [f"patch {op['id']} answered seq {entity.value('seq')}, sent {op['seq']}"]
        return []
    if op["op"] == "query":
        found = client.query(entity_type=op["type"], q=op["q"])
        return checks.check_query(op, [e.id for e in found])
    sent = time.perf_counter()
    doc = client.get(op["id"]).to_wire()
    answered = time.perf_counter()
    with lock:
        writes = [list(w) for w in log.get(op["id"], ())]
    return checks.check_get(op, doc, model, checks.readable_seqs(writes, sent, answered))


# ---------------------------------------------------------------------------
# forecast: the estimation scenario, scaled up, as a batch job

LIVE_MAPPING = {
    "OnStreetParking": "availableSpotNumber",
    "TrafficFlowObserved": "intensity",
    "NoiseLevelObserved": "LAeq",
}
RMSE_THRESHOLD = 3.0
FORECAST_DAY_SECONDS = 4.0  # --seconds per replayed day
FORECAST_ROUNDS = 3  # set-ups, each followed by its share of the days
FORECAST_PROBE_SLOTS = 4  # slots between speed probes


class ForecastCity:
    """The estimation scenario's pieces, composed from public calls.

    Construction is the set-up: sensor sites upserted into an in-process
    broker on a simulated clock, a backfill just long enough to pass the
    sample gate, the first train pass, and the ingest subscription.
    ``probe`` runs between these steps (a speed probe, ``speed.py``).
    """

    def __init__(self, seed: int, sites: int, config: models.TrainingConfig,
                 probe=lambda: None):
        self.seed, self.config = seed, config
        self.fixture = gen.forecast_fixture(seed, sites)
        self.day_start = self.fixture.day_start()
        self.clock = SimulatedClock(self.day_start)
        self.broker = ContextBroker(clock=self.clock)
        self.store = TimeSeriesStore()
        self.days = 0
        for entity in feedgen.generate_service_entities(self.fixture, t0=self.day_start):
            self.broker.upsert_entity(entity)
        probe()
        backfill = config.minSamples * 900 // 86400 + 1
        history = StreamGenerator(self.fixture, t0=self.day_start - backfill * 86400)
        ingest.ingest_historical(self.store, (
            {"entityId": e.entityId, "attr": LIVE_MAPPING[e.entityType], "t": e.t,
             "value": e.attributes[LIVE_MAPPING[e.entityType]].value}
            for e in history.series_events(backfill * 86400)
            if e.entityType != "NoiseLevelObserved"))
        probe()
        self.scheduler = scheduler_mod.EstimatorScheduler(
            self.store, config, clock=self.clock,
            on_prediction=lambda p: service.writeback(p, self.broker))
        self.scheduler.start(self.day_start)
        probe()
        ingest.ingest_subscription(self.store, self.broker, LIVE_MAPPING, self.clock)
        # noise sites get no history; they must stay under the sample gate
        self.max_days = (config.minSamples - 1) // (86400 // 900)
        self.backfill_days = backfill

    def replay_day(self, out: Outcome, before_slot=None) -> None:
        """Replay the next live day slot by slot, timing each slot.

        ``before_slot(i)`` runs untimed before slot ``i``; a traced run uses
        it to switch tracing on for every other slot.
        """
        fixture = replace(self.fixture, seed=self.seed * 7919 + self.days + 1)
        live = StreamGenerator(fixture, t0=self.day_start + self.days * 86400)
        slots = {}
        for event in live.series_events(86400):
            slots.setdefault(event.t, []).append(event)
        day_start = time.perf_counter()
        for i, t in enumerate(sorted(slots)):
            if before_slot:
                before_slot(i)
            if i % FORECAST_PROBE_SLOTS == 0:
                out.speed.probe()
            start = time.perf_counter()
            trains = self.scheduler.train_passes
            for event in slots[t]:
                if event.t > self.clock.now():
                    self.clock.set(event.t)
                self.broker.update_attributes(event.entityId, dict(event.attributes))
                self.scheduler.advance(event.t)
            end = time.perf_counter()
            out.record("slot", start, end)
            out.window(start, end)
            if self.scheduler.train_passes > trains:
                out.record("train", start, end)
            out.finish([])
        out.speed.probe()
        out.record("day", day_start, time.perf_counter())
        self.days += 1

    def problems(self) -> list:
        key = ("parking-1", "availableSpotNumber")
        naive = models.train(self.store, key[0], key[1],
                             replace(self.config, algorithm="seasonal-naive"),
                             self.day_start + self.days * 86400)
        return checks.check_forecast(self.scheduler, self.store, self.broker, self.config,
                                     self.days, RMSE_THRESHOLD, key, naive.testError)


def run_forecast(ctx: Context, out: Outcome) -> None:
    out.speed = speed.Speed("batch")
    tracer = Tracing(ctx, out)
    sites = 8 if ctx.tiny else 200
    config = models.TrainingConfig(minSamples=200, windowSize=400) if ctx.tiny \
        else models.TrainingConfig()
    # A batch job at a stated input size. Each round sets the city up afresh
    # and replays its days, so set-ups and timed days alternate over the
    # whole run and a slow spell of the machine hits a share of each.
    rounds = setup_reps(ctx, FORECAST_ROUNDS)
    days = max(1, int(ctx.seconds // (FORECAST_DAY_SECONDS * rounds)))
    # A traced run switches tracing on for every other slot, so both halves
    # see the same mix of slots.
    def alternate(slot):
        traced = slot % 2 == 1
        tracer.enter("traced" if traced else "untraced", traced)

    try:
        for _ in range(rounds):
            tracer.enter("setup", True)
            out.speed.probe()
            t0 = time.perf_counter()
            city = ForecastCity(ctx.seed, sites, config, out.speed.probe)
            out.setup_spans.append((t0, time.perf_counter()))
            tracer.enter("run", False)
            try:
                for _ in range(min(days, city.max_days)):
                    city.replay_day(out, alternate if ctx.trace else None)
                tracer.enter("done", False)
                for problem in city.problems():
                    out.finish([problem])
            finally:
                city.broker.close()
            out.info.update(model="batch", series=len(city.scheduler.models),
                            backfillDays=city.backfill_days, slotSeconds=900,
                            rounds=rounds, daysPerRound=city.days)
            city = None
            gc.collect()  # free this round's city now, not during a later slot
    finally:
        tracer.collect({})


WORKLOADS = {"plan": run_plan, "live": run_live, "sensors": run_sensors,
             "forecast": run_forecast}
