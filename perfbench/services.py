"""Child process that hosts the services under test.

Started by ``run.py`` as ``python3 perfbench/services.py <workdir> <trace>``.
It runs, in this one process and wired as the command line and the routing
scenario wire them:

- ``BrokerServer`` over a ``ContextBroker`` with background delivery and a
  journal (``citykit broker-serve --journal``);
- ``RouterServer`` over a ``Router``;
- a ``GtfsFetcher`` subscribed to the feed-pointer entities, reloading that
  router;
- on request, an ``RtLoader``/``RtServer`` subscribed to the broker, each
  refreshed feed applied with ``Router.set_realtime``. Its clock is a
  ``SimulatedClock`` that the benchmark sets to the service-day time of
  each tick.

The parent drives it with one JSON command per line on stdin and reads one
JSON reply per line on stdout; the first line out lists the service URLs.
"""

import json
import os
import sys
from datetime import date

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from citykit.broker import ContextBroker, Subscription  # noqa: E402
from citykit.broker_http import BrokerServer  # noqa: E402
from citykit.clock import SimulatedClock  # noqa: E402
from citykit.gtfs import load_feed  # noqa: E402
from citykit.gtfs_fetcher import GtfsFetcher  # noqa: E402
from citykit.gtfs_realtime import RtLoader, RtServer, TripResolver  # noqa: E402
from citykit.routing import Router, RouterServer  # noqa: E402

import gen  # noqa: E402
import tracing  # noqa: E402


class Services:
    """The services under test and the commands that drive them."""

    def __init__(self, workdir: str, trace: bool):
        self.workdir = workdir
        self.tracer = tracing.Tracer("child") if trace else None
        if self.tracer:
            self.tracer.install()
        journal = os.path.join(workdir, "journal.jsonl")
        self.broker = ContextBroker(journal_path=journal, delivery="background")
        if self.tracer:
            self.tracer.add_window_probe("broker.journal_bytes",
                                         lambda: os.path.getsize(journal))
        self.broker_server = BrokerServer(self.broker)
        self.router = Router(service_date=date(2025, 6, 2))
        self.router_server = RouterServer(self.router)
        self.fetcher = GtfsFetcher(self.router)
        self.fetcher.attach(self.broker)
        self.clock = None
        self.rt_server = None
        if self.tracer:
            self.tracer.wrap_routes(self.broker_server.server)
            self.tracer.wrap_routes(self.router_server.server)

    def start(self) -> dict:
        return {"broker": self.broker_server.start(), "router": self.router_server.start()}

    def start_realtime(self, zip_path: str, start: float) -> dict:
        self.clock = SimulatedClock(start)
        loader = RtLoader(lambda: self.broker.query_entities(typeFilter="ArrivalEstimation"),
                          TripResolver(load_feed(zip_path), gen.DAY_START), clock=self.clock)
        self.broker.subscribe(Subscription(
            id="", entityTypeFilter="ArrivalEstimation",
            target=lambda doc: self.router.set_realtime(loader.refresh())))
        self.rt_server = RtServer(loader)
        if self.tracer:
            self.tracer.wrap_routes(self.rt_server.server)
        return {"rt": self.rt_server.start()}

    def handle(self, cmd: dict) -> dict:
        op = cmd["cmd"]
        if op == "realtime":
            return self.start_realtime(cmd["zip"], cmd["start"])
        if op == "clock":
            self.clock.set(cmd["t"])
            return {"t": cmd["t"]}
        if op == "trace":
            self.tracer.set_active(cmd["on"])
            return {"on": cmd["on"]}
        raise ValueError(f"unknown command {op!r}")

    def stop(self) -> dict:
        for server in (self.rt_server, self.router_server, self.broker_server):
            if server is not None:
                server.stop()
        out = {"stopped": True}
        if self.tracer:
            path = os.path.join(self.workdir, f"spans-child-{os.getpid()}.json")
            self.tracer.dump(path)
            out["spans"] = path
        return out


def main() -> int:
    workdir, trace = sys.argv[1], sys.argv[2] == "1"
    host = Services(workdir, trace)
    print(json.dumps(host.start()), flush=True)
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "stop":
            print(json.dumps(host.stop()), flush=True)
            return 0
        try:
            reply = host.handle(cmd)
        except Exception as exc:  # reported to the parent, which fails the run
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        print(json.dumps(reply), flush=True)
    host.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
