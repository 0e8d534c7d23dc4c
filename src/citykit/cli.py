"""Command line front door.

One executable, one subcommand per service: schema validation, format
transforms, GTFS build/fetch, the GTFS-RT bridge, synthetic data generation,
scenario runs, and long-running servers for the broker, router, and
estimator. All output is JSON so runs can be piped and diffed.
"""

import argparse
import json
import logging
import signal
import sys
import threading
import time
from dataclasses import asdict, replace
from datetime import date, datetime, timezone
from pathlib import Path

from citykit.ngsi import KindError, NgsiEntity, check_entity
from citykit.textio import read_json, read_jsonl, write_jsonl

logger = logging.getLogger(__name__)


def _parse_listen(text: str) -> tuple:
    host, _, port = text.rpartition(":")
    if not host:
        host = "127.0.0.1"
    if not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise KindError("bad-argument", f"--listen {text!r}: the port must be in 0-65535")
    return host, int(port)


def _service_day(args) -> date:
    """``--service-date`` (YYYYMMDD), else today's UTC date."""
    from citykit.gtfs import parse_service_date

    if args.service_date:
        return parse_service_date(args.service_date)
    return datetime.now(timezone.utc).date()


def _fixture(args):
    """``--fixture`` (else the default city) with ``--seed`` applied."""
    from citykit.feedgen import CityFixture, load_fixture_file

    fixture = load_fixture_file(args.fixture) if args.fixture else CityFixture()
    return fixture if args.seed is None else replace(fixture, seed=args.seed)


def _print(doc) -> None:
    print(json.dumps(doc, sort_keys=True))


def _serve(server, banner: str, loop=None) -> int:
    """Print ``banner`` and run ``loop`` (else wait) until SIGTERM or Ctrl-C,
    then stop ``server``. SIGTERM ends the run as Ctrl-C does from before the
    banner is printed until the previous handler is put back."""
    previous = signal.getsignal(signal.SIGTERM)
    try:
        signal.signal(signal.SIGTERM, signal.default_int_handler)
        print(banner, file=sys.stderr)
        (loop or threading.Event().wait)()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.stop()
    return 0


# ---------------------------------------------------------------------------
# subcommands

def cmd_validate(args) -> int:
    from citykit.datamodels import load_schemas, validate_batch

    registry = load_schemas(args.schemas)
    entities = (NgsiEntity.from_wire(doc) for doc in read_jsonl(args.input))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as sink_fh:
            summary = validate_batch(
                entities, registry,
                report_sink=lambda doc: sink_fh.write(
                    json.dumps(doc, sort_keys=True) + "\n"))
    else:
        summary = validate_batch(entities, registry)
    _print(summary)
    return 0 if summary["invalid"] == 0 else 1


def cmd_json2ngsi(args) -> int:
    from citykit.transforms import MappingRuleSet, json_to_ngsi

    rules = MappingRuleSet.from_doc(read_json(args.rules, "invalid-rules"))
    document = read_json(args.input, "invalid-json")
    outcome = json_to_ngsi(document, rules)
    if args.post:
        from citykit.broker_http import BrokerClient
        for entity in outcome.entities:  # the broker's own check: one bad entity posts none
            check_entity(entity)
        client = BrokerClient(args.post)
        for entity in outcome.entities:
            client.upsert_entity(entity)
    else:
        for entity in outcome.entities:
            _print(entity.to_wire())
    for error in outcome.errors:
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
    return 0 if not outcome.errors else 1


def cmd_ngsi2ld(args) -> int:
    from citykit.transforms import ngsi_to_ngsild

    for doc in read_jsonl(args.input):
        entity = NgsiEntity.from_wire(doc)
        _print(ngsi_to_ngsild(entity, args.context))
    return 0


def cmd_gtfs_build(args) -> int:
    from citykit.broker_http import BrokerClient
    from citykit.gtfs import ngsi_to_gtfs

    client = BrokerClient(args.broker)
    feed, zip_bytes = ngsi_to_gtfs(client.query_entities())
    Path(args.out).write_bytes(zip_bytes)
    _print({"out": args.out, "bytes": len(zip_bytes),
            "agencies": len(feed.agencies), "stops": len(feed.stops),
            "routes": len(feed.routes), "trips": len(feed.trips),
            "stopTimes": len(feed.stopTimes), "services": len(feed.services)})
    return 0


def cmd_gtfsrt_serve(args) -> int:
    from citykit.broker_http import BrokerClient
    from citykit.gtfs import load_feed, utc_midnight
    from citykit.gtfs_realtime import RtLoader, RtServer, TripResolver

    feed = load_feed(args.static)
    day_start = utc_midnight(_service_day(args))
    client = BrokerClient(args.broker)
    loader = RtLoader(lambda: client.query_entities(typeFilter="ArrivalEstimation"),
                      TripResolver(feed, day_start))
    host, port = _parse_listen(args.listen)
    server = RtServer(loader, host=host, port=port)
    url = server.start()
    client.subscribe({"entityTypeFilter": "ArrivalEstimation",
                      "target": f"{url}/notify"})
    loader.refresh()
    return _serve(server, f"serving GTFS-RT on {url}/gtfs-rt")


def cmd_gtfs_fetch(args) -> int:
    from citykit.broker_http import BrokerClient
    from citykit.gtfs_fetcher import GtfsFetcher
    from citykit.routing import RouterClient

    fetcher = GtfsFetcher(RouterClient(args.router))
    fetcher.poll(BrokerClient(args.broker))
    for event in fetcher.events:
        _print(event)
    bad = [e for e in fetcher.events if e["outcome"] in ("fetch-error", "parse-error")]
    return 0 if not bad else 1


def cmd_feedgen(args) -> int:
    from citykit.feedgen import StreamGenerator, generate_city, generate_static_network, seed_defects
    from citykit.gtfs import ngsi_to_gtfs

    fixture = _fixture(args)
    city = generate_city(fixture)
    generator = StreamGenerator(fixture)
    duration = args.days * 86400
    truth = list(generator.ground_truth())
    defect_entities = None
    if fixture.defectPlan:
        result = seed_defects(city, fixture.defectPlan, fixture.seed)
        defect_entities = result.entities
        truth.extend(result.groundTruth)

    if args.emit:
        from citykit.broker_http import BrokerClient
        client = BrokerClient(args.emit)
        for entity in city:
            client.upsert_entity(entity)
        emitted = generator.emit(client, duration=duration)
        for record in truth:
            _print(record)
        print(f"emitted {len(city)} entities + {emitted} events to {args.emit}",
              file=sys.stderr)
        return 0

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_jsonl(out / "entities.jsonl", (entity.to_wire() for entity in city))
    if defect_entities is not None:
        write_jsonl(out / "defects.jsonl", (entity.to_wire() for entity in defect_entities))
    write_jsonl(out / "streams.jsonl", (event.to_doc() for event in generator.events(duration)))
    _, zip_bytes = ngsi_to_gtfs(generate_static_network(fixture))
    (out / "feed.zip").write_bytes(zip_bytes)
    write_jsonl(out / "ground_truth.jsonl", truth)
    _print({"outDir": str(out), "entities": len(city),
            "defects": len(defect_entities) if defect_entities else 0,
            "groundTruthRecords": len(truth)})
    return 0


def cmd_scenario(args) -> int:
    from citykit.harness import (
        EstimationScenarioConfig,
        RoutingScenarioConfig,
        run_scenario_estimation,
        run_scenario_routing,
    )

    if args.name == "routing":
        report = run_scenario_routing(RoutingScenarioConfig(fixture=_fixture(args)))
    else:
        report = run_scenario_estimation(EstimationScenarioConfig(fixture=_fixture(args)))
    doc = asdict(report)
    if args.report:
        Path(args.report).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                                     encoding="utf-8")
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
    return 0 if report.outcome == "pass" else 1


def cmd_broker_serve(args) -> int:
    from citykit.broker import ContextBroker
    from citykit.broker_http import BrokerServer

    host, port = _parse_listen(args.listen)
    broker = ContextBroker(journal_path=args.journal, delivery="background")
    server = BrokerServer(broker, host=host, port=port)
    return _serve(server, f"broker listening on {server.start()}")


def cmd_router_serve(args) -> int:
    from citykit.routing import Router, RouterServer

    router = Router(service_date=_service_day(args))
    if args.feed:
        version = router.load_url(args.feed)
        print(f"loaded graph v{version} from {args.feed}", file=sys.stderr)
    host, port = _parse_listen(args.listen)
    server = RouterServer(router, host=host, port=port)
    return _serve(server, f"router listening on {server.start()}")


def cmd_estimator_serve(args) -> int:
    from citykit.broker_http import BrokerClient
    from citykit.estimator.ingest import ingest_snapshot
    from citykit.estimator.scheduler import EstimatorScheduler
    from citykit.estimator.service import PROFILES, EstimatorServer, load_config_file, writeback
    from citykit.estimator.store import TimeSeriesStore

    config, extras = load_config_file(args.config)
    profile = extras.get("profile", "parking")
    if "broker" not in extras:
        # nothing else feeds the store, so the service would never hold data
        raise KindError("invalid-config", "estimator-serve needs a broker setting")
    if profile not in PROFILES:
        raise KindError("invalid-config",
                        f"unknown profile {profile!r}; pick from {sorted(PROFILES)}")
    broker = BrokerClient(extras["broker"])
    hook = (lambda p: writeback(p, broker)) if extras.get("writeback") else None
    scheduler = EstimatorScheduler(TimeSeriesStore(), config, on_prediction=hook)
    watched = dict([PROFILES[profile]])  # {entityType: attribute}
    snapshot = lambda: ingest_snapshot(scheduler.store, broker, watched, scheduler.clock)

    def poll():  # broker snapshots at the inference cadence
        try:
            snapshot()
        except OSError as exc:
            raise KindError("broker-unreachable", f"{extras['broker']}: {exc}") from exc
        scheduler.start()
        while True:
            time.sleep(config.inferencePeriodSeconds)
            try:
                snapshot()
            except (KindError, OSError) as exc:  # KindError: the broker's error reply
                logger.warning("broker snapshot failed, polling on: %s", exc)
            scheduler.run_pending()

    host, port = _parse_listen(args.listen)
    server = EstimatorServer(scheduler, host=host, port=port)
    return _serve(server, f"estimator ({profile}) listening on {server.start()}", poll)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="citykit",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate entity JSONL against a schema corpus")
    p.add_argument("--schemas", required=True, help="directory of <EntityType>.json schemas")
    p.add_argument("--input", required=True, help="JSON-lines file of entity documents")
    p.add_argument("--report", help="write per-entity reports to this JSON-lines file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("json2ngsi", help="map legacy JSON to NGSI entities")
    p.add_argument("--rules", required=True, help="mapping rule set JSON file")
    p.add_argument("--input", required=True, help="legacy JSON document (object or array)")
    p.add_argument("--post", help="broker URL; post entities instead of printing")
    p.set_defaults(fn=cmd_json2ngsi)

    p = sub.add_parser("ngsi2ld", help="render NGSI entities in NGSI-LD form")
    p.add_argument("--context", required=True, help="@context URL for the output")
    p.add_argument("--input", required=True, help="JSON-lines file of entity documents")
    p.set_defaults(fn=cmd_ngsi2ld)

    p = sub.add_parser("gtfs-build", help="assemble a GTFS zip from broker entities")
    p.add_argument("--broker", required=True, help="broker base URL")
    p.add_argument("--out", required=True, help="output zip path")
    p.set_defaults(fn=cmd_gtfs_build)

    p = sub.add_parser("gtfsrt-serve", help="serve GTFS-RT built from ArrivalEstimation entities")
    p.add_argument("--broker", required=True, help="broker base URL")
    p.add_argument("--static", required=True, help="static GTFS zip for trip resolution")
    p.add_argument("--listen", required=True, help="host:port to listen on")
    p.add_argument("--service-date", help="YYYYMMDD; default: today (UTC)")
    p.set_defaults(fn=cmd_gtfsrt_serve)

    p = sub.add_parser("gtfs-fetch", help="apply published feed pointers to a router")
    p.add_argument("--broker", required=True, help="broker base URL")
    p.add_argument("--router", required=True, help="router base URL")
    p.set_defaults(fn=cmd_gtfs_fetch)

    p = sub.add_parser("feedgen", help="generate a deterministic synthetic city")
    p.add_argument("--seed", type=int, help="override the fixture seed")
    p.add_argument("--fixture", help="fixture file (key = value text)")
    p.add_argument("--days", type=int, default=1, help="days of streams to produce")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--emit", help="broker URL to push entities and streams into")
    group.add_argument("--out", help="directory for entities/streams/ground-truth files")
    p.set_defaults(fn=cmd_feedgen)

    p = sub.add_parser("scenario", help="run an end-to-end validation scenario")
    p.add_argument("name", choices=("routing", "estimation"))
    p.add_argument("--fixture", help="fixture file (key = value text)")
    p.add_argument("--report", help="write the report JSON here instead of stdout")
    p.add_argument("--seed", type=int, help="fixture seed")
    p.set_defaults(fn=cmd_scenario)

    p = sub.add_parser("broker-serve", help="run the context broker HTTP service")
    p.add_argument("--listen", required=True, help="host:port to listen on")
    p.add_argument("--journal", help="append-only journal file for restart replay")
    p.set_defaults(fn=cmd_broker_serve)

    p = sub.add_parser("router-serve", help="run the trip planner HTTP service")
    p.add_argument("--listen", required=True, help="host:port to listen on")
    p.add_argument("--feed", help="initial GTFS zip (path or URL)")
    p.add_argument("--service-date", help="YYYYMMDD; default: today (UTC)")
    p.set_defaults(fn=cmd_router_serve)

    p = sub.add_parser("estimator-serve", help="run a forecasting service instance")
    p.add_argument("--config", required=True, help="key = value configuration file")
    p.add_argument("--listen", required=True, help="host:port to listen on")
    p.set_defaults(fn=cmd_estimator_serve)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0
    except (KindError, OSError) as exc:  # OSError: an unreadable file, a server not answering
        kind, detail = ((exc.kind, exc.message) if isinstance(exc, KindError)
                        else ("io-error", str(exc)))
        print(json.dumps({"error": kind, "detail": detail}, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
