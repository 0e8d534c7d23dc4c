"""Command-line interface: exit codes, printed documents, parser wiring."""

import json
import logging
import os
import signal
import subprocess
import sys
import threading
import time
from datetime import date, datetime, timezone
from pathlib import Path
from types import SimpleNamespace

import pytest

import citykit
from citykit import cli
from citykit.broker import ContextBroker
from citykit.broker_http import BrokerServer
from citykit.cli import _parse_listen, build_parser, main
from citykit.feedgen import CityFixture, generate_city, generate_static_network, seed_defects
from citykit.gtfs import parse_feed, publish_feed_entity, serialize_feed
from citykit.httpd import JsonHttpServer, request_json
from citykit.ngsi import Attribute, make_entity
from citykit.routing import Router, RouterServer

SCHEMAS_DIR = str(Path(citykit.__file__).parent / "schemas")
DAY = 1748822400  # 2025-06-02 00:00 UTC

RULES_DOC = {
    "entityTypeTemplate": "ParkingSite",
    "idTemplate": "parking-{meta.code}",
    "attributeMappings": [
        {"sourcePath": "spots.free", "targetAttribute": "availableSpotNumber",
         "valueType": "Number"},
        {"sourcePath": "state", "targetAttribute": "status", "valueType": "Text",
         "transform": {"name": "enumMap", "table": {"0": "closed", "1": "open"}}},
    ],
}

RECORD = {"meta": {"code": "A7"}, "spots": {"free": 11, "total": 40}, "state": "1"}


def write_jsonl(path, docs):
    path.write_text(
        "".join(json.dumps(d, sort_keys=True) + "\n" for d in docs),
        encoding="utf-8")


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def served_broker():
    server = BrokerServer(ContextBroker(delivery="inline"))
    url = server.start()
    yield url, server.broker
    server.stop()
    server.broker.close()


class TestValidate:
    def test_clean_corpus_exits_zero(self, tmp_path, capsys):
        entities = generate_city(CityFixture())
        source = tmp_path / "entities.jsonl"
        write_jsonl(source, [e.to_wire() for e in entities])
        rc = main(["validate", "--schemas", SCHEMAS_DIR, "--input", str(source)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary == {"total": len(entities), "valid": len(entities),
                           "invalid": 0, "perKindCounts": {}}

    def test_defective_corpus_exits_one_and_writes_reports(self, tmp_path, capsys):
        plan = {"wrong-type": 2, "not-in-enum": 1, "pattern-mismatch": 1}
        seeded = seed_defects(generate_city(CityFixture()), plan, seed=42)
        source = tmp_path / "defects.jsonl"
        write_jsonl(source, [e.to_wire() for e in seeded.entities])
        report = tmp_path / "report.jsonl"
        rc = main(["validate", "--schemas", SCHEMAS_DIR, "--input", str(source),
                   "--report", str(report)])
        assert rc == 1
        summary = json.loads(capsys.readouterr().out)
        assert summary["invalid"] == 4
        assert summary["perKindCounts"] == plan
        rows = [json.loads(line) for line in report.read_text().splitlines()]
        assert len(rows) == len(seeded.entities)
        flagged = {r["entityId"] for r in rows if r["violations"]}
        assert flagged == {g["entityId"] for g in seeded.groundTruth}


class TestJsonMapping:
    def test_json2ngsi_prints_wire_documents(self, tmp_path, capsys):
        rules = write_json(tmp_path / "rules.json", RULES_DOC)
        source = write_json(tmp_path / "in.json", RECORD)
        rc = main(["json2ngsi", "--rules", rules, "--input", source])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["id"] == "parking-A7"
        assert doc["entityType"] == "ParkingSite"
        assert doc["attributes"]["availableSpotNumber"]["value"] == 11
        assert doc["attributes"]["status"]["value"] == "open"

    def test_json2ngsi_reports_unmappable_records(self, tmp_path, capsys):
        rules = write_json(tmp_path / "rules.json", RULES_DOC)
        source = write_json(tmp_path / "in.json", [RECORD, {"state": "1"}])
        rc = main(["json2ngsi", "--rules", rules, "--input", source])
        assert rc == 1
        captured = capsys.readouterr()
        good = [json.loads(line) for line in captured.out.splitlines()]
        assert [d["id"] for d in good] == ["parking-A7"]
        error = json.loads(captured.err)
        assert error["index"] == 1
        assert error["error"] == "id-unresolvable"

    def test_json2ngsi_posts_to_a_broker(self, tmp_path, served_broker, capsys):
        url, broker = served_broker
        rules = write_json(tmp_path / "rules.json", RULES_DOC)
        source = write_json(tmp_path / "in.json", RECORD)
        rc = main(["json2ngsi", "--rules", rules, "--input", source,
                   "--post", url])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert broker.get_entity("parking-A7").value("status") == "open"

    @pytest.mark.parametrize("text", [
        "{not json", json.dumps({"idTemplate": "x"}), "5",
        json.dumps({**RULES_DOC, "attributeMappings": [5]}),
        json.dumps({**RULES_DOC, "attributeMappings": [
            {"sourcePath": "a", "targetAttribute": "x", "valueType": "Number",
             "transform": None}]}),
    ])
    def test_bad_rules_print_one_error_line(self, tmp_path, capsys, text):
        rules = tmp_path / "rules.json"
        rules.write_text(text, encoding="utf-8")
        source = write_json(tmp_path / "in.json", RECORD)
        assert main(["json2ngsi", "--rules", str(rules), "--input", source]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "invalid-rules"

    def test_ngsi2ld_renders_each_line(self, tmp_path, capsys):
        source = tmp_path / "in.jsonl"
        write_jsonl(source, [
            make_entity("S1", "GtfsStop", name="Origin").to_wire(),
            make_entity("p-1", "ParkingSite", availableSpotNumber=4).to_wire(),
        ])
        rc = main(["ngsi2ld", "--context", "https://example.org/ctx.jsonld",
                   "--input", str(source)])
        assert rc == 0
        docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [d["id"] for d in docs] == [
            "urn:ngsi-ld:GtfsStop:S1", "urn:ngsi-ld:ParkingSite:p-1"]
        assert docs[0]["type"] == "GtfsStop"
        assert docs[0]["@context"] == ["https://example.org/ctx.jsonld"]
        assert docs[0]["name"] == {"type": "Property", "value": "Origin"}


class TestFeedgen:
    def test_out_directory_contents(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        rc = main(["feedgen", "--out", str(out)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary == {"outDir": str(out), "entities": 35, "defects": 0,
                           "groundTruthRecords": 4}
        assert len((out / "entities.jsonl").read_text().splitlines()) == 35
        assert not (out / "defects.jsonl").exists()
        # one sample per site per 900s plus six countdowns per stop call
        streams = (out / "streams.jsonl").read_text().splitlines()
        assert len(streams) == 4 * 96 + 16 * 6
        feed = parse_feed((out / "feed.zip").read_bytes())
        assert len(feed.stops) == 5
        assert len(feed.trips) == 4
        truth = [json.loads(line) for line in
                 (out / "ground_truth.jsonl").read_text().splitlines()]
        assert {r["tripId"] for r in truth} == {"R1-T1", "R1-T2", "R2-T1", "R2-T2"}
        assert all(r["delaySeconds"] == 0 for r in truth)

    def test_out_with_defect_plan(self, tmp_path):
        fixture = tmp_path / "city.txt"
        fixture.write_text("defect.wrong-type = 2\ndefect.not-in-enum = 1\n",
                           encoding="utf-8")
        out = tmp_path / "corpus"
        rc = main(["feedgen", "--fixture", str(fixture), "--out", str(out)])
        assert rc == 0
        assert len((out / "defects.jsonl").read_text().splitlines()) == 35
        truth = [json.loads(line) for line in
                 (out / "ground_truth.jsonl").read_text().splitlines()]
        kinds = sorted(r["kind"] for r in truth)
        assert kinds == ["delay"] * 4 + ["not-in-enum"] + ["wrong-type"] * 2

    def test_same_seed_reproduces_identical_files(self, tmp_path):
        for name in ("a", "b"):
            rc = main(["feedgen", "--seed", "7", "--out", str(tmp_path / name)])
            assert rc == 0
        for fname in ("entities.jsonl", "streams.jsonl", "feed.zip"):
            assert (tmp_path / "a" / fname).read_bytes() == \
                (tmp_path / "b" / fname).read_bytes()

    def test_emit_replays_into_a_broker(self, tmp_path, served_broker, capsys):
        url, broker = served_broker
        fixture = tmp_path / "tiny.txt"
        fixture.write_text(
            "stopCount = 2\nrouteCount = 1\ntripsPerRoute = 1\n"
            "parkingSites = 1\nparkingSpots = 0\ntrafficSites = 0\n"
            "noiseSites = 0\n", encoding="utf-8")
        rc = main(["feedgen", "--fixture", str(fixture), "--emit", url])
        assert rc == 0
        captured = capsys.readouterr()
        truth = [json.loads(line) for line in captured.out.splitlines()]
        assert truth == [{"kind": "delay", "tripId": "R1-T1", "delaySeconds": 0}]
        assert "emitted 9 entities" in captured.err
        # last patch of the day puts the sinusoid back at its midnight level
        assert broker.get_entity("parking-1").value("availableSpotNumber") == 30
        arrivals = broker.query_entities(typeFilter="ArrivalEstimation")
        assert sorted(e.id for e in arrivals) == \
            ["arrival-R1-T1-S1", "arrival-R1-T1-S2"]
        assert arrivals[0].value("remainingTime") == 300


class TestScenarioCommand:
    def test_routing_report_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        rc = main(["scenario", "routing", "--report", str(path)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(path.read_text())
        assert doc["outcome"] == "pass"
        assert len(doc["stages"]) == 10
        assert path.read_text().endswith("\n")

    def test_estimation_report_on_stdout(self, capsys):
        assert main(["scenario", "estimation"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["scenario"], doc["outcome"]) == ("estimation", "pass")
        assert [stage["status"] for stage in doc["stages"]] == ["pass"] * 9

    def test_a_reader_that_closes_the_pipe_early_is_no_error(self, capsys, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["scenario", "routing"]) == 0
        assert capsys.readouterr().err == ""


class TestGtfsTools:
    def test_gtfs_build_round_trips_broker_entities(
            self, tmp_path, served_broker, capsys, city, city_feed):
        from citykit.feedgen import generate_static_network
        url, broker = served_broker
        for entity in generate_static_network(city):
            broker.upsert_entity(entity)
        out = tmp_path / "feed.zip"
        rc = main(["gtfs-build", "--broker", url, "--out", str(out)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["stops"] == 5
        assert summary["trips"] == 4
        assert summary["stopTimes"] == 16
        assert parse_feed(out.read_bytes()) == city_feed

    def test_gtfs_fetch_applies_pointers(self, tmp_path, served_broker,
                                         capsys, city_feed):
        url, broker = served_broker
        zip_path = tmp_path / "city.zip"
        zip_path.write_bytes(serialize_feed(city_feed))
        os.utime(zip_path, (DAY, DAY))
        publish_feed_entity(str(zip_path), broker)
        router = Router(service_date=date(2025, 6, 2))
        router_server = RouterServer(router)
        router_url = router_server.start()
        try:
            rc = main(["gtfs-fetch", "--broker", url, "--router", router_url])
            assert rc == 0
            event = json.loads(capsys.readouterr().out)
            assert event["outcome"] == "reloaded"
            assert router.version == 1

            broker.upsert_entity(make_entity(
                "feed-broken", "GtfsTransitFeedFile",
                url=f"file://{tmp_path}/missing.zip", dateModified="x"))
            rc = main(["gtfs-fetch", "--broker", url, "--router", router_url])
            assert rc == 1
            outcomes = {json.loads(line)["entityId"]: json.loads(line)["outcome"]
                        for line in capsys.readouterr().out.splitlines()}
            # the router could not read the archive: a fetch error, as an
            # in-process Router reports it, not a parse error
            assert outcomes["feed-broken"] == "fetch-error"
        finally:
            router_server.stop()

    def test_gtfs_fetch_refuses_a_reply_without_a_version(self, tmp_path, served_broker,
                                                         capsys, city_feed):
        url, broker = served_broker
        zip_path = tmp_path / "city.zip"
        zip_path.write_bytes(serialize_feed(city_feed))
        publish_feed_entity(str(zip_path), broker)
        stub = JsonHttpServer()
        stub.add_route("POST", r"/graph/reload", lambda *_: (200, {}))
        stub.start()
        try:
            assert main(["gtfs-fetch", "--broker", url, "--router", stub.url()]) == 1
        finally:
            stub.stop()
        captured = capsys.readouterr()
        (line,) = captured.out.splitlines()
        assert json.loads(line)["outcome"] == "parse-error"
        assert "Traceback" not in captured.err

    def test_gtfs_fetch_records_a_malformed_router_reply(self, tmp_path, served_broker,
                                                         malformed_peer, capsys, city_feed):
        url, broker = served_broker
        zip_path = tmp_path / "city.zip"
        zip_path.write_bytes(serialize_feed(city_feed))
        publish_feed_entity(str(zip_path), broker)
        assert main(["gtfs-fetch", "--broker", url, "--router", malformed_peer]) == 1
        captured = capsys.readouterr()
        (line,) = captured.out.splitlines()
        assert json.loads(line)["outcome"] == "fetch-error"
        assert "Traceback" not in captured.err

    def test_gtfs_build_answers_a_malformed_broker_reply_with_one_error_line(
            self, tmp_path, malformed_peer, capsys):
        assert main(["gtfs-build", "--broker", malformed_peer,
                     "--out", str(tmp_path / "feed.zip")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        error = json.loads(line)
        assert error["error"] == "io-error" and "nope" in error["detail"]


class TestServe:
    @pytest.fixture
    def served(self, monkeypatch):
        """Servers a command hands to ``_serve``, stopped at teardown."""
        servers = []
        monkeypatch.setattr(cli, "_serve", lambda server, banner, loop=None:
                            servers.append(server) or 0)
        yield servers
        for server in servers:
            server.stop()

    def test_sigterm_ends_the_serve_wait(self):
        stopped = []
        server = SimpleNamespace(stop=lambda: stopped.append(True))
        previous = signal.getsignal(signal.SIGTERM)

        def terminate():  # once the wait has taken over SIGTERM
            while signal.getsignal(signal.SIGTERM) is previous:
                time.sleep(0.01)
            os.kill(os.getpid(), signal.SIGTERM)

        threading.Thread(target=terminate, daemon=True).start()
        try:
            assert cli._serve(server, "serving") == 0
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert stopped == [True]

    @pytest.mark.parametrize("command", ["broker-serve", "router-serve", "gtfsrt-serve",
                                         "estimator-serve"])
    def test_sigterm_is_handled_from_the_banner_on(self, command, tmp_path, served_broker,
                                                   city_feed, monkeypatch):
        url, _ = served_broker
        static = tmp_path / "feed.zip"
        static.write_bytes(serialize_feed(city_feed))
        config = tmp_path / "estimator.conf"
        config.write_text(f"profile = parking\nbroker = {url}\n", encoding="utf-8")
        options = {"gtfsrt-serve": ["--broker", url, "--static", str(static)],
                   "estimator-serve": ["--config", str(config)]}.get(command, [])
        previous, at_banner = signal.getsignal(signal.SIGTERM), []

        class Stderr:  # records the SIGTERM handler as the banner is written
            def write(self, text):
                if " on " in text:
                    at_banner.append(signal.getsignal(signal.SIGTERM))
                return len(text)

            def flush(self):
                pass

        def terminate():  # once the command has taken over SIGTERM
            while signal.getsignal(signal.SIGTERM) is previous:
                time.sleep(0.01)
            os.kill(os.getpid(), signal.SIGTERM)

        monkeypatch.setattr(sys, "stderr", Stderr())
        threading.Thread(target=terminate, daemon=True).start()
        try:
            assert main([command, *options, "--listen", "127.0.0.1:0"]) == 0
        finally:
            after = signal.getsignal(signal.SIGTERM)
            signal.signal(signal.SIGTERM, previous)
        assert at_banner == [signal.default_int_handler]
        assert after is previous

    def test_estimator_serve_stops_and_exits_zero_on_sigterm(self, tmp_path, served_broker):
        url, _ = served_broker
        config = tmp_path / "estimator.conf"
        config.write_text(f"profile = parking\nbroker = {url}\n", encoding="utf-8")
        src = str(Path(citykit.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        child = subprocess.Popen(
            [sys.executable, "-m", "citykit.cli", "estimator-serve", "--config", str(config),
             "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        try:
            assert "listening on" in child.stderr.readline()
            child.send_signal(signal.SIGTERM)
            _, err = child.communicate(timeout=10)
        finally:
            if child.poll() is None:
                child.kill()
                child.communicate()
        assert child.returncode == 0, err
        assert "Traceback" not in err

    def test_estimator_serve_leaves_the_sigterm_handler_as_it_found_it(self, tmp_path,
                                                                       served_broker,
                                                                       monkeypatch):
        url, _ = served_broker
        config = tmp_path / "estimator.conf"
        config.write_text(f"profile = parking\nbroker = {url}\n", encoding="utf-8")
        previous, during = signal.getsignal(signal.SIGTERM), []

        def nap(seconds):
            during.append(signal.getsignal(signal.SIGTERM))
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "time", SimpleNamespace(sleep=nap))
        assert main(["estimator-serve", "--config", str(config), "--listen", "127.0.0.1:0"]) == 0
        assert during == [signal.default_int_handler]
        assert signal.getsignal(signal.SIGTERM) is previous

    def test_router_serve_loads_the_feed_it_is_given(self, served, tmp_path, city_feed,
                                                     capsys):
        path = tmp_path / "feed.zip"
        path.write_bytes(serialize_feed(city_feed))
        assert main(["router-serve", "--listen", "127.0.0.1:0", "--feed", str(path),
                     "--service-date", "20250602"]) == 0
        (server,) = served
        assert server.router.version == 1
        assert sorted(server.router.graph.stops) == sorted(s.stopId for s in city_feed.stops)
        assert capsys.readouterr().err == f"loaded graph v1 from {path}\n"

    def test_router_serve_defaults_to_today_utc(self, served):
        before = datetime.now(timezone.utc).date()
        assert main(["router-serve", "--listen", "127.0.0.1:0"]) == 0
        after = datetime.now(timezone.utc).date()
        (server,) = served
        assert server.router.serviceDate in (before, after)

    def test_gtfsrt_serve_refreshes_on_each_estimation(self, tmp_path, served_broker,
                                                       served, city_feed):
        url, broker = served_broker
        static = tmp_path / "feed.zip"
        static.write_bytes(serialize_feed(city_feed))
        assert main(["gtfsrt-serve", "--broker", url, "--static", str(static),
                     "--listen", "127.0.0.1:0"]) == 0
        (server,) = served
        broker.upsert_entity(make_entity(  # a line the feed lacks: unresolved at any hour
            "est-1", "ArrivalEstimation", refStop=Attribute("S1", "Reference"),
            refLine=Attribute("no-such-line", "Reference"), remainingTime=60))
        _, status = request_json("GET", server.server.url() + "/status")
        assert status["refreshCount"] == 2
        assert [u["entityId"] for u in status["unresolved"]] == ["est-1"]

    def test_estimator_serve_refuses_a_config_without_broker(self, tmp_path, served,
                                                             capsys):
        config = tmp_path / "estimator.conf"
        config.write_text("profile = parking\n", encoding="utf-8")
        rc = main(["estimator-serve", "--config", str(config), "--listen", "127.0.0.1:0"])
        assert rc == 2
        assert served == []
        (line,) = capsys.readouterr().err.splitlines()
        assert "broker" in json.loads(line)["detail"]

    def test_estimator_serve_exits_two_when_the_broker_is_unreachable(self, tmp_path,
                                                                      capsys):
        config = tmp_path / "estimator.conf"
        config.write_text("profile = parking\nbroker = http://127.0.0.1:1\n",
                          encoding="utf-8")
        rc = main(["estimator-serve", "--config", str(config), "--listen", "127.0.0.1:0"])
        assert rc == 2
        listening, line = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "broker-unreachable"
        with pytest.raises(OSError):  # the server it had started is stopped
            request_json("GET", listening.rsplit(" ", 1)[1] + "/models")

    def test_estimator_serve_polls_on_when_a_later_snapshot_fails(self, tmp_path,
                                                                  monkeypatch, caplog):
        broker = BrokerServer(ContextBroker(delivery="inline"))
        config = tmp_path / "estimator.conf"
        config.write_text(f"profile = parking\nbroker = {broker.start()}\n",
                          encoding="utf-8")
        naps = []

        def nap(seconds):
            naps.append(seconds)
            if len(naps) == 1:
                broker.stop()  # the broker goes away between two polls
            elif len(naps) == 3:
                raise KeyboardInterrupt

        monkeypatch.setattr(cli, "time", SimpleNamespace(sleep=nap))
        try:
            with caplog.at_level(logging.WARNING, logger="citykit.cli"):
                rc = main(["estimator-serve", "--config", str(config),
                           "--listen", "127.0.0.1:0"])
        finally:
            broker.stop()
            broker.broker.close()
        assert rc == 0
        assert len(naps) == 3
        assert caplog.text.count("broker snapshot failed") == 2

    def test_estimator_serve_polls_on_after_an_error_reply(self, tmp_path, monkeypatch,
                                                           caplog):
        queries = []

        def query(match, params, body):
            queries.append(params)
            if len(queries) == 2:  # the second snapshot fails
                return 500, {"error": "internal", "detail": "disk on fire"}
            return 200, []

        broker = JsonHttpServer()
        broker.add_route("GET", r"/v2/entities", query)
        broker.start()
        config = tmp_path / "estimator.conf"
        config.write_text(f"profile = parking\nbroker = {broker.url()}\n", encoding="utf-8")
        naps = []

        def nap(seconds):
            naps.append(seconds)
            if len(naps) == 3:
                raise KeyboardInterrupt

        monkeypatch.setattr(cli, "time", SimpleNamespace(sleep=nap))
        try:
            with caplog.at_level(logging.WARNING, logger="citykit.cli"):
                rc = main(["estimator-serve", "--config", str(config),
                           "--listen", "127.0.0.1:0"])
        finally:
            broker.stop()
        assert rc == 0
        assert len(queries) == 3
        assert caplog.text.count("broker snapshot failed") == 1


class TestParser:
    def test_parse_listen_defaults_the_host(self):
        assert _parse_listen("9000") == ("127.0.0.1", 9000)
        assert _parse_listen("0.0.0.0:8080") == ("0.0.0.0", 8080)

    @pytest.mark.parametrize("argv,fn_name", [
        (["broker-serve", "--listen", "9000"], "cmd_broker_serve"),
        (["router-serve", "--listen", "9000"], "cmd_router_serve"),
        (["gtfsrt-serve", "--broker", "u", "--static", "f", "--listen", "9000"],
         "cmd_gtfsrt_serve"),
        (["estimator-serve", "--config", "c", "--listen", "9000"],
         "cmd_estimator_serve"),
    ])
    def test_server_commands_are_wired(self, argv, fn_name):
        args = build_parser().parse_args(argv)
        assert args.fn.__name__ == fn_name

    @pytest.mark.parametrize("argv", [
        [],
        ["gtfs-build"],
        ["feedgen"],
        ["feedgen", "--out", "d", "--emit", "url"],
        ["scenario", "teleport"],
    ])
    def test_bad_invocations_exit_two(self, argv):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(argv)
        assert err.value.code == 2


class TestServiceErrors:
    """A failing command exits with 2 and one JSON line on stderr, not a traceback."""

    @staticmethod
    def _error_line(capsys, argv) -> dict:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        return json.loads(line)

    @pytest.mark.parametrize("command", [
        ["validate", "--schemas", SCHEMAS_DIR],
        ["ngsi2ld", "--context", "https://example.org/ctx.jsonld"],
    ])
    def test_an_entity_line_without_a_type(self, tmp_path, capsys, command):
        source = tmp_path / "in.jsonl"
        write_jsonl(source, [{"id": "p-1", "attributes": {}}])
        error = self._error_line(capsys, command + ["--input", str(source)])
        assert error["error"] == "invalid-entity"
        assert "entityType" in error["detail"]

    @pytest.mark.parametrize("command", [
        ["validate", "--schemas", SCHEMAS_DIR],
        ["ngsi2ld", "--context", "https://example.org/ctx.jsonld"],
    ])
    def test_an_input_line_that_is_not_json(self, tmp_path, capsys, command):
        source = tmp_path / "in.jsonl"
        source.write_text("\n{not json\n", encoding="utf-8")
        error = self._error_line(capsys, command + ["--input", str(source)])
        assert error["error"] == "invalid-json"
        assert f"{source} line 2" in error["detail"]

    def test_json2ngsi_input_that_is_not_json(self, tmp_path, capsys):
        rules = write_json(tmp_path / "rules.json", RULES_DOC)
        source = tmp_path / "in.json"
        source.write_text("{not json", encoding="utf-8")
        error = self._error_line(capsys, ["json2ngsi", "--rules", rules, "--input", str(source)])
        assert error["error"] == "invalid-json"
        assert str(source) in error["detail"]

    @pytest.mark.parametrize("text, detail", [
        ("stopCount = abc", "line 1"),
        ("bogus = 1", "line 1"),
        ("stopCount 5", "line 1"),
        ("stopCount = 1", "two stops"),
        ("defect.wrong-type = 99", "wrong-type"),
        ("defect.typo = 1", "typo"),
        ("arrivalEmitIntervalSeconds = 0", "arrivalEmitIntervalSeconds"),
        ("arrivalEmitIntervalSeconds = -300", "arrivalEmitIntervalSeconds"),
        ("series.LAeq.samplingIntervalSeconds = 0", "samplingIntervalSeconds"),
        ("series.LAeq.samplingIntervalSeconds = -900", "samplingIntervalSeconds"),
    ])
    def test_a_fixture_file_that_builds_no_city(self, tmp_path, capsys, text, detail):
        fixture = tmp_path / "city.txt"
        fixture.write_text(text + "\n", encoding="utf-8")
        error = self._error_line(capsys, ["feedgen", "--fixture", str(fixture),
                                          "--out", str(tmp_path / "out")])
        assert error["error"] == "invalid-fixture"
        assert detail in error["detail"]
        assert list(tmp_path.iterdir()) == [fixture]

    def test_estimator_serve_refuses_a_setting_of_the_wrong_type(self, tmp_path, capsys):
        config = tmp_path / "estimator.conf"
        config.write_text("windowSize = abc\nbroker = http://127.0.0.1:1\n", encoding="utf-8")
        error = self._error_line(capsys, ["estimator-serve", "--config", str(config),
                                          "--listen", "127.0.0.1:0"])
        assert error["error"] == "invalid-config"
        assert "line 1" in error["detail"]

    def test_gtfs_build_from_a_value_that_does_not_convert(self, tmp_path, served_broker,
                                                           capsys, city):
        url, broker = served_broker
        for entity in generate_static_network(city):
            if entity.id == "S2":
                entity.attributes["latitude"] = Attribute("40.004N", "Text")
            broker.upsert_entity(entity)
        out = tmp_path / "feed.zip"
        error = self._error_line(capsys, ["gtfs-build", "--broker", url, "--out", str(out)])
        assert error["error"] == "invalid-entity"
        assert "S2" in error["detail"] and "latitude" in error["detail"]
        assert not out.exists()

    def test_json2ngsi_posts_into_a_broker_that_rejects_the_entity(
            self, tmp_path, served_broker, capsys):
        url, broker = served_broker
        rules = write_json(tmp_path / "rules.json", RULES_DOC)
        source = write_json(tmp_path / "in.json", {**RECORD, "spots": {"free": "many"}})
        error = self._error_line(capsys, ["json2ngsi", "--rules", rules, "--input", source,
                                          "--post", url])
        assert error["error"] == "invalid-entity"
        assert "Number" in error["detail"]
        assert broker.entity_count() == 0

    def test_json2ngsi_posts_nothing_when_a_later_record_is_invalid(
            self, tmp_path, served_broker, capsys):
        url, broker = served_broker
        rules = write_json(tmp_path / "rules.json", RULES_DOC)
        records = [{**RECORD, "meta": {"code": code}} for code in ("a", "b", "c")]
        records[1]["spots"] = {"free": "many"}
        source = write_json(tmp_path / "in.json", records)
        error = self._error_line(capsys, ["json2ngsi", "--rules", rules, "--input", source,
                                          "--post", url])
        assert error["error"] == "invalid-entity"
        assert not error["detail"].startswith("invalid-entity")
        assert broker.entity_count() == 0

    @pytest.mark.parametrize("argv, kind", [
        (["broker-serve", "--listen", "nope"], "bad-argument"),
        (["broker-serve", "--listen", "127.0.0.1:99999"], "bad-argument"),
        (["router-serve", "--listen", "127.0.0.1:0", "--service-date", "2025-06-02"],
         "invalid-date"),
        (["router-serve", "--listen", "127.0.0.1:0", "--service-date", "20250230"],
         "invalid-date"),
    ])
    def test_a_bad_argument(self, capsys, argv, kind):
        error = self._error_line(capsys, argv)
        assert error["error"] == kind
        assert argv[-1] in error["detail"]
        assert not error["detail"].startswith(kind)

    def test_a_missing_input_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        error = self._error_line(capsys, ["validate", "--schemas", SCHEMAS_DIR,
                                          "--input", str(missing)])
        assert error["error"] == "io-error"
        assert str(missing) in error["detail"]

    @pytest.mark.parametrize("command", [
        ["gtfs-build", "--broker", "http://127.0.0.1:1", "--out", "{tmp}/feed.zip"],
        ["gtfs-fetch", "--broker", "http://127.0.0.1:1", "--router", "http://127.0.0.1:1"],
        ["feedgen", "--emit", "http://127.0.0.1:1"],
    ])
    def test_a_broker_that_does_not_answer(self, tmp_path, capsys, command):
        argv = [arg.format(tmp=tmp_path) for arg in command]
        assert self._error_line(capsys, argv)["error"] == "io-error"
        assert list(tmp_path.iterdir()) == []

    @pytest.fixture
    def failing_broker(self):
        """A broker that answers every query 500 and every post 413."""
        server = JsonHttpServer()
        server.add_route("GET", r"/v2/entities", lambda *_: (
            500, {"error": "internal", "detail": "disk on fire"}))
        server.add_route("POST", r"/v2/entities", lambda *_: (
            413, {"error": "payload-too-large", "detail": "body too big"}))
        server.start()
        yield server.url()
        server.stop()

    @pytest.mark.parametrize("command, error", [
        (["gtfs-build", "--broker", "{url}", "--out", "{tmp}/feed.zip"],
         {"error": "internal", "detail": "disk on fire"}),
        (["gtfs-fetch", "--broker", "{url}", "--router", "http://127.0.0.1:1"],
         {"error": "internal", "detail": "disk on fire"}),
        (["json2ngsi", "--rules", "{tmp}/rules.json", "--input", "{tmp}/in.json",
          "--post", "{url}"],
         {"error": "payload-too-large", "detail": "body too big"}),
    ])
    def test_a_broker_error_reply(self, tmp_path, capsys, failing_broker, command, error):
        write_json(tmp_path / "rules.json", RULES_DOC)
        write_json(tmp_path / "in.json", RECORD)
        argv = [arg.format(tmp=tmp_path, url=failing_broker) for arg in command]
        assert self._error_line(capsys, argv) == error
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json", "rules.json"]

    def test_a_broker_answering_html(self, tmp_path, capsys, html_server):
        error = self._error_line(capsys, ["gtfs-build", "--broker", html_server,
                                          "--out", str(tmp_path / "feed.zip")])
        assert error == {"error": "http-200", "detail": "<html><body>It works!</body></html>"}
        assert list(tmp_path.iterdir()) == []

    def test_estimator_serve_refuses_an_unknown_profile(self, tmp_path, capsys):
        config = tmp_path / "estimator.conf"
        config.write_text("profile = weather\nbroker = http://127.0.0.1:1\n", encoding="utf-8")
        error = self._error_line(capsys, ["estimator-serve", "--config", str(config),
                                          "--listen", "127.0.0.1:0"])
        assert error["error"] == "invalid-config"
        assert "weather" in error["detail"]

    def test_broker_serve_on_a_corrupt_journal(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_serve", lambda server, banner, loop=None: server.stop())
        journal = tmp_path / "state.jsonl"
        journal.write_text("{not json\n{}\n", encoding="utf-8")
        error = self._error_line(capsys, ["broker-serve", "--listen", "127.0.0.1:0",
                                          "--journal", str(journal)])
        assert error["error"] == "broker-error"
        assert "line 1 is corrupt" in error["detail"]
