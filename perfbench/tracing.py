"""Outside-in tracing: wrappers around citykit's public functions.

A ``Tracer`` replaces selected module functions, class methods and HTTP
route handlers with wrappers that record a span per call (name, start, end,
parent, request id) and bump counters. Wrappers pass arguments and results
through untouched; ``uninstall`` puts every original back, so an untraced
phase runs the program exactly as shipped. Spans stay in memory and are
written out by ``dump`` when the run ends; ``layer_metrics`` turns the spans
of every process into the per-layer metrics.
"""

import functools
import http.client
import itertools
import json
import statistics
import threading
import time

import citykit.broker as broker_mod
import citykit.broker_http as broker_http_mod
import citykit.datamodels as datamodels_mod
import citykit.estimator.ingest as ingest_mod
import citykit.estimator.models as models_mod
import citykit.estimator.scheduler as scheduler_mod
import citykit.estimator.service as service_mod
import citykit.estimator.store as store_mod
import citykit.feedgen as feedgen_mod
import citykit.gtfs as gtfs_mod
import citykit.gtfs_fetcher as fetcher_mod
import citykit.gtfs_realtime as realtime_mod
import citykit.httpd as httpd_mod
import citykit.ngsi as ngsi_mod
import citykit.routing as routing_mod
import citykit.transforms as transforms_mod

import gen
from stats import percentile

FETCH_ERRORS = ("fetch-error", "parse-error")


class Tracer:
    def __init__(self, proc: str):
        self.proc = proc
        self.spans = []  # [id, name, start, end, parent, request, label]
        self.counts = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []  # (owner, name, original, wrapper)
        self._route_patches = []  # (routes list, index, original, wrapped)
        self._window_probes = {}  # name -> callable measured at window edges
        self._window_start = {}
        self.installed = False
        self._ids = itertools.count(1)

    # -- recording ------------------------------------------------------------

    def count(self, name: str, n=1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def parent_name(self):
        stack = getattr(self._local, "stack", None)
        return stack[-1][1] if stack else None

    def wrap(self, name, fn, after=None, before=None, label=None):
        """A wrapper recording one span per call; ``after`` sees the result."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent, request = (stack[-1][0], stack[-1][2]) if stack else (0, span_id)
            state = before(args, kwargs) if before else None
            stack.append((span_id, name, request))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.count(name + ":raised")
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append([span_id, name, start, end, parent, request, label])
            if after:
                after(args, kwargs, result, state)
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def patch(self, owner, attr, name, after=None, before=None):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__, after, before))
        else:
            wrapped = self.wrap(name, raw, after, before)
        self._patches.append((owner, attr, raw, wrapped))

    def counter_patch(self, owner, attr, counter):
        raw = owner.__dict__[attr]
        tracer = self

        @functools.wraps(raw)
        def counted(*args, **kwargs):
            tracer.count(counter)
            return raw(*args, **kwargs)

        self._patches.append((owner, attr, raw, counted))

    def wrap_routes(self, server) -> None:
        """Wrap every route handler of a ``JsonHttpServer``."""
        for i, (method, rx, handler) in enumerate(server._routes):
            label = f"{method} {rx.pattern}"
            wrapped = self.wrap("httpd.handler", handler, label=label)
            self._route_patches.append((server._routes, i, (method, rx, handler),
                                        (method, rx, wrapped)))
            if self.installed:
                server._routes[i] = (method, rx, wrapped)

    def add_window_probe(self, name: str, fn) -> None:
        self._window_probes[name] = fn
        if self.installed:
            self._window_start[name] = fn()

    def install(self) -> None:
        if not self._patches:
            self._define_patches()
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        for routes, i, _, wrapped in self._route_patches:
            routes[i] = wrapped
        for name, fn in self._window_probes.items():
            self._window_start[name] = fn()
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        for routes, i, original, _ in self._route_patches:
            routes[i] = original
        for name, fn in self._window_probes.items():
            self.count(name, fn() - self._window_start.pop(name, fn()))
        self.installed = False

    def set_active(self, on: bool) -> None:
        if on and not self.installed:
            self.install()
        elif not on and self.installed:
            self.uninstall()

    def dump(self, path: str) -> None:
        if self.installed:
            self.uninstall()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"proc": self.proc, "spans": self.spans, "counts": self.counts}, fh)

    def snapshot(self) -> dict:
        return {"proc": self.proc, "spans": list(self.spans), "counts": dict(self.counts)}

    # -- what gets wrapped ------------------------------------------------------

    def _define_patches(self) -> None:
        c = self.count
        p = self.patch

        # httpd: client round trips and connections opened
        p(httpd_mod, "request_json", "httpd.request")
        p(broker_http_mod, "request_json", "httpd.request")
        self.counter_patch(http.client.HTTPConnection, "connect", "httpd.connections")

        # broker_http: the client wrapper (server handlers come from wrap_routes)
        for method in ("upsert", "get", "query", "patch", "subscribe"):
            p(broker_http_mod.BrokerClient, method, "broker_http.client")

        # ngsi
        p(ngsi_mod.NgsiEntity, "from_wire", "ngsi.from_wire")
        p(ngsi_mod.NgsiEntity, "to_wire", "ngsi.to_wire")
        self.counter_patch(ngsi_mod.NgsiEntity, "copy", "ngsi.copies")

        # broker
        def after_upsert(args, kwargs, result, state):
            c("broker.commits")
            if args[1].entityType == "ArrivalEstimation":
                c("broker.commits.ArrivalEstimation")

        p(broker_mod.ContextBroker, "upsert_entity", "broker.commit", after=after_upsert)
        p(broker_mod.ContextBroker, "update_attributes", "broker.commit",
          after=lambda a, k, r, s: c("broker.commits"))

        def after_query(args, kwargs, result, state):
            c("broker.query.returned", len(result))
            c("broker.query.stored", args[0].entity_count())

        p(broker_mod.ContextBroker, "query_entities", "broker.query", after=after_query)

        def after_pump(args, kwargs, result, state):
            c("broker.pump.calls")
            c("broker.delivered", result)
            if result == 0:
                c("broker.pump.idle")

        p(broker_mod.ContextBroker, "deliver_notifications", "broker.pump", after=after_pump)
        for sink in (broker_mod.HttpSink, broker_mod.CallbackSink, broker_mod.CollectSink):
            p(sink, "deliver", "broker.sink")

        # datamodels and transforms
        p(datamodels_mod, "validate_entity", "datamodels.validate",
          after=lambda a, k, r, s: c("datamodels.validated"))
        p(transforms_mod, "json_to_ngsi", "transforms.map",
          after=lambda a, k, r, s: c("transforms.mapped", len(r.entities)))

        # gtfs
        p(gtfs_mod, "ngsi_to_gtfs", "gtfs.ngsi_to_gtfs")
        p(gtfs_mod, "serialize_feed", "gtfs.serialize",
          after=lambda a, k, r, s: (c("gtfs.zip_bytes", len(r)), c("gtfs.zips")))
        p(gtfs_mod, "parse_feed", "gtfs.parse")

        # gtfs_fetcher
        def after_consider(args, kwargs, result, state):
            c("gtfs_fetcher.considered")
            if result:
                c("gtfs_fetcher.reloads")
            new = args[0].events[state:]
            c("gtfs_fetcher.errors", sum(1 for e in new if e["outcome"] in FETCH_ERRORS))

        p(fetcher_mod.GtfsFetcher, "consider", "gtfs_fetcher.consider",
          before=lambda a, k: len(a[0].events), after=after_consider)

        # gtfs_realtime
        p(realtime_mod.RtLoader, "refresh", "gtfs_realtime.refresh",
          after=lambda a, k, r, s: (c("gtfs_realtime.refreshes"),
                                    c("gtfs_realtime.unresolved", len(a[0].unresolved))))
        p(realtime_mod.TripResolver, "resolve", "gtfs_realtime.resolve")

        # routing
        p(routing_mod, "plan", "routing.plan",
          after=lambda a, k, r, s: (c("routing.plans"), c("routing.itineraries", len(r))))

        def after_build(args, kwargs, result, state):
            c("routing.graphs")
            c("routing.footpaths", sum(len(v) for v in result.footpaths.values()) // 2)

        p(routing_mod, "build_graph", "routing.build_graph", after=after_build)
        p(routing_mod, "apply_realtime", "routing.apply_realtime",
          after=lambda a, k, r, s: (c("routing.overlays"),
                                    c("routing.overlay_trips", len(r.effective))))

        # estimator
        p(ingest_mod, "ingest_entity", "estimator.ingest")
        p(scheduler_mod, "train", "estimator.train")
        p(models_mod, "fit_ridge", "estimator.fit_ridge")

        def after_infer(args, kwargs, result, state):
            c("estimator.lags_needed", args[0].lags or args[0].period or 0)

        p(scheduler_mod, "infer", "estimator.infer", after=after_infer)

        def after_get(args, kwargs, result, state):
            if self.parent_name() == "estimator.infer":
                c("estimator.samples_copied", len(result))

        p(store_mod.TimeSeriesStore, "get", "estimator.store_get", after=after_get)
        p(service_mod, "writeback", "estimator.writeback")

        # feedgen and the benchmark's own generators
        for name in gen.GENERATORS:
            p(gen, name, "feedgen.generate")
        p(feedgen_mod.StreamGenerator, "series_events", "feedgen.generate")
        p(feedgen_mod, "generate_service_entities", "feedgen.generate")


# ---------------------------------------------------------------------------
# from spans to per-layer metrics

def load_dump(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


class SpanIndex:
    """Durations per span name, with self time and nesting queries."""

    def __init__(self, dumps: list, proc=None):
        self.by_name = {}
        self.counts = {}
        for dump in dumps:
            if proc is not None and dump["proc"] != proc:
                continue
            spans = dump["spans"]
            child_time = {}
            for sid, name, start, end, parent, request, label in spans:
                if parent:
                    child_time[parent] = child_time.get(parent, 0.0) + (end - start)
            names = {s[0]: s[1] for s in spans}
            for sid, name, start, end, parent, request, label in spans:
                dur = end - start
                rec = (dur, names.get(parent), label, dur - child_time.get(sid, 0.0))
                self.by_name.setdefault(name, []).append(rec)
            for k, v in dump["counts"].items():
                self.counts[k] = self.counts.get(k, 0) + v

    def durations(self, name, label=None, outer_only=False):
        return [d for d, parent, lab, _ in self.by_name.get(name, ())
                if (label is None or lab == label) and not (outer_only and parent == name)]

    def self_times(self, name):
        return [s for _, _, _, s in self.by_name.get(name, ())]

    def count(self, name):
        return self.counts.get(name, 0)


def layer_metrics(dumps: list) -> tuple:
    """Returns ({metric: (value, unit)}, {metric: base text})."""
    ix = SpanIndex(dumps)
    ms, us = 1e3, 1e6
    m, base = {}, {}

    def put(name, value, unit, note=None):
        m[name] = (value, unit)
        if note is not None:
            base[name] = note

    def timing(name, durs, scale, unit):
        put(name, _median(durs) * scale, unit, f"median of {len(durs)} calls")

    # httpd: the load generator's requests against the services' handlers
    rtt = SpanIndex(dumps, "parent").durations("httpd.request", outer_only=True)
    handlers = SpanIndex(dumps, "child").durations("httpd.handler")
    timing("httpd.rtt_ms", rtt, ms, "ms")
    timing("httpd.handler_ms", handlers, ms, "ms")
    overhead = (sum(rtt) / len(rtt) - sum(handlers) / len(handlers)) * ms \
        if rtt and handlers else 0.0
    put("httpd.overhead_ms", overhead, "ms",
        f"mean of {len(rtt)} client round trips minus mean of {len(handlers)} handler calls")
    conns = SpanIndex(dumps, "parent").count("httpd.connections")
    put("httpd.conns_per_req", _ratio(conns, len(rtt)), "ratio",
        f"{conns} connections / {len(rtt)} requests")

    # broker_http
    for metric, label in (("upsert_ms", r"POST /v2/entities"),
                          ("patch_ms", r"PATCH /v2/entities/(?P<id>[^/]+)/attrs"),
                          ("query_ms", r"GET /v2/entities")):
        timing("broker_http." + metric, ix.durations("httpd.handler", label=label), ms, "ms")
    timing("broker_http.client_ms", ix.durations("broker_http.client"), ms, "ms")

    # ngsi
    timing("ngsi.from_wire_us", ix.durations("ngsi.from_wire"), us, "us")
    timing("ngsi.to_wire_us", ix.durations("ngsi.to_wire"), us, "us")
    commits = ix.count("broker.commits")
    copies = ix.count("ngsi.copies")
    put("ngsi.copies_per_commit", _ratio(copies, commits), "ratio",
        f"{copies} copies / {commits} commits (all copies in the process)")

    # broker
    timing("broker.commit_us", ix.self_times("broker.commit"), us, "us")
    base["broker.commit_us"] = (f"median self time of {commits} commits "
                                "(nested delivery and ngsi calls excluded)")
    put("broker.commits", commits, "count")
    timing("broker.query_ms", ix.durations("broker.query"), ms, "ms")
    returned, stored = ix.count("broker.query.returned"), ix.count("broker.query.stored")
    put("broker.query_hit_ratio", _ratio(returned, stored), "ratio",
        f"{returned} entities returned / {stored} entities stored, summed over queries")
    pump = ix.durations("broker.pump", outer_only=True)
    calls, idle = ix.count("broker.pump.calls"), ix.count("broker.pump.idle")
    timing("broker.pump_ms", pump, ms, "ms")
    put("broker.pump_calls", calls, "count")
    put("broker.pump_idle_frac", _ratio(idle, calls), "ratio",
        f"{idle} idle calls / {calls} calls")
    put("broker.delivered", ix.count("broker.delivered"), "count")
    timing("broker.sink_ms", ix.durations("broker.sink"), ms, "ms")
    put("broker.sink_failures", ix.count("broker.sink:raised"), "count")
    jbytes = ix.count("broker.journal_bytes")
    put("broker.journal_bytes_per_commit", _ratio(jbytes, commits), "B",
        f"{jbytes} journal bytes / {commits} commits")

    # datamodels, transforms
    timing("datamodels.validate_us", ix.durations("datamodels.validate"), us, "us")
    put("datamodels.validated", ix.count("datamodels.validated"), "count")
    mapped = ix.count("transforms.mapped")
    map_durs = ix.durations("transforms.map")
    put("transforms.map_us", _ratio(sum(map_durs), mapped) * us, "us",
        f"{len(map_durs)} calls mapping {mapped} records")
    put("transforms.mapped", mapped, "count")

    # gtfs
    timing("gtfs.ngsi_to_gtfs_ms", ix.durations("gtfs.ngsi_to_gtfs"), ms, "ms")
    timing("gtfs.serialize_ms", ix.durations("gtfs.serialize"), ms, "ms")
    timing("gtfs.parse_ms", ix.durations("gtfs.parse"), ms, "ms")
    zips = ix.count("gtfs.zips")
    put("gtfs.zip_bytes", _ratio(ix.count("gtfs.zip_bytes"), zips), "B",
        f"mean over {zips} serialized zips")

    # gtfs_fetcher
    considered, reloads = ix.count("gtfs_fetcher.considered"), ix.count("gtfs_fetcher.reloads")
    timing("gtfs_fetcher.consider_ms", ix.durations("gtfs_fetcher.consider"), ms, "ms")
    put("gtfs_fetcher.reloads", reloads, "count")
    put("gtfs_fetcher.reload_ratio", _ratio(reloads, considered), "ratio",
        f"{reloads} reloads / {considered} pointers considered")
    put("gtfs_fetcher.errors", ix.count("gtfs_fetcher.errors"), "count")

    # gtfs_realtime
    refreshes = ix.count("gtfs_realtime.refreshes")
    ae = ix.count("broker.commits.ArrivalEstimation")
    timing("gtfs_realtime.refresh_ms", ix.durations("gtfs_realtime.refresh"), ms, "ms")
    put("gtfs_realtime.refreshes_per_estimation", _ratio(refreshes, ae), "ratio",
        f"{refreshes} refreshes / {ae} ArrivalEstimation commits")
    timing("gtfs_realtime.resolve_us", ix.durations("gtfs_realtime.resolve"), us, "us")
    put("gtfs_realtime.unresolved", ix.count("gtfs_realtime.unresolved"), "count")

    # routing
    plans = ix.durations("routing.plan")
    put("routing.plan_ms", _median(plans) * ms, "ms", f"median of {len(plans)} plan() calls")
    put("routing.plan_p95_ms", percentile(plans, 0.95) * ms, "ms",
        f"p95 of {len(plans)} plan() calls"
        + ("" if len(plans) >= 200 else " (fewer than 10 samples beyond it)"))
    plan_handlers = ix.durations("httpd.handler", label="GET /plan")
    nested = [d for d, parent, _, _ in ix.by_name.get("routing.plan", ())
              if parent == "httpd.handler"]
    put("routing.plan_share", _ratio(sum(nested), sum(plan_handlers)), "ratio",
        f"{sum(nested):.3f} s in plan() / {sum(plan_handlers):.3f} s in "
        f"{len(plan_handlers)} /plan handlers")
    n_plans = ix.count("routing.plans")
    put("routing.itineraries_per_plan", _ratio(ix.count("routing.itineraries"), n_plans),
        "ratio", f"{ix.count('routing.itineraries')} itineraries / {n_plans} plans")
    timing("routing.build_graph_ms", ix.durations("routing.build_graph"), ms, "ms")
    graphs = ix.count("routing.graphs")
    put("routing.footpaths", _ratio(ix.count("routing.footpaths"), graphs), "count",
        f"mean over {graphs} graphs")
    timing("routing.apply_realtime_ms", ix.durations("routing.apply_realtime"), ms, "ms")
    overlays = ix.count("routing.overlays")
    put("routing.overlay_trips", _ratio(ix.count("routing.overlay_trips"), overlays),
        "count", f"mean over {overlays} overlays")

    # estimator
    timing("estimator.ingest_us", ix.durations("estimator.ingest"), us, "us")
    timing("estimator.train_ms", ix.durations("estimator.train"), ms, "ms")
    timing("estimator.fit_ridge_ms", ix.durations("estimator.fit_ridge"), ms, "ms")
    timing("estimator.infer_us", ix.durations("estimator.infer"), us, "us")
    timing("estimator.store_get_us", ix.durations("estimator.store_get"), us, "us")
    lags, copied = ix.count("estimator.lags_needed"), ix.count("estimator.samples_copied")
    put("estimator.read_ratio", _ratio(lags, copied), "ratio",
        f"{lags} lags needed / {copied} samples copied by store.get in infer")
    timing("estimator.writeback_us", ix.durations("estimator.writeback"), us, "us")

    # feedgen and the benchmark's generators
    outer = ix.durations("feedgen.generate", outer_only=True)
    put("feedgen.generate_s", sum(outer), "s", f"sum of {len(outer)} top-level calls")
    return m, base
