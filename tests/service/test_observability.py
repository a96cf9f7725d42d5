"""Live observability plane: inspect, metricsx, dump, flight recorder.

The headline test here is the acceptance scenario for the
introspection verb: a transaction parked in WAIT must show up in a
concurrent ``inspect`` response as a live wait-for edge, *while it is
still parked*.
"""

import asyncio
import json

import pytest

from repro.cli import _render_top
from repro.service.client import ServiceClient, ServiceError

from tests.service.util import running_server


def _parse_dump(text):
    """Parse a flight dump; returns (header, event payloads)."""
    lines = [json.loads(line) for line in text.splitlines() if line]
    assert lines, "dump is empty"
    header, events = lines[0], lines[1:]
    assert "flight" in header and "rings" in header
    assert header["events"] == len(events)
    for event in events:
        assert "ring" in event and "kind" in event and "seq" in event
    return header, events


async def _connect(server):
    return await ServiceClient.connect(server.host, server.port)


class TestInspect:
    def test_wait_edge_visible_while_parked(self):
        async def scenario():
            async with running_server() as server:
                sessions = await _connect(server)
                inspector = await _connect(server)
                await sessions.tenant(
                    "t", protocol="2pl", objects={"x": 0, "y": 0}
                )
                holder = (await sessions.begin("r[x] w[y]", tenant="t"))[
                    "txn"
                ]
                await sessions.read(holder)  # read lock on x

                blocked = await _connect(server)
                waiter = (await blocked.begin("w[x]", tenant="t"))["txn"]
                write_task = asyncio.ensure_future(blocked.write(waiter))

                # Poll inspect from a third connection until the write
                # is parked: the wait-for edge must be visible live.
                snap = None
                for _ in range(500):
                    response = await inspector.inspect("t")
                    snap = response["tenants"]["t"]
                    if snap["waiting_sessions"]:
                        break
                    await asyncio.sleep(0.005)
                assert snap is not None
                assert snap["waiting_sessions"] == [waiter]
                assert holder in snap["waits_for"][str(waiter)]
                assert snap["protocol"] == "strict-2pl"
                assert waiter in snap["open_sessions"]
                assert snap["live"] >= 2
                # Both incarnations hold an open txn span.
                assert set(response["open_spans"]) >= {holder, waiter}

                # Release: the holder finishes, the waiter gets the lock.
                await sessions.write(holder)
                await sessions.commit(holder)
                granted = await write_task
                assert granted["ok"]
                await blocked.commit(waiter)

                after = (await inspector.inspect("t"))["tenants"]["t"]
                assert after["waiting_sessions"] == []
                assert after["waits_for"] == {}

                for client in (sessions, inspector, blocked):
                    await client.close()

        asyncio.run(scenario())

    def test_rsg_census_present_for_rsgt_tenants(self):
        async def scenario():
            async with running_server() as server:
                client = await _connect(server)
                await client.tenant("r", protocol="rsgt", objects={"x": 0})
                txn = (await client.begin("r[x] w[x]", tenant="r"))["txn"]
                await client.read(txn)
                await client.write(txn)
                await client.commit(txn)
                snap = (await client.inspect("r"))["tenants"]["r"]
                rsg = snap["rsg"]
                assert rsg is not None
                assert rsg["nodes"] >= 1
                assert set(rsg["arcs"]) == {"I", "D", "F", "B"}
                assert rsg["certified"] >= 1
                await client.close()

        asyncio.run(scenario())

    def test_live_window_counters_in_inspect_metricsx_and_top(self):
        async def scenario():
            async with running_server() as server:
                client = await _connect(server)
                await client.tenant("r", protocol="rsgt", objects={"x": 0})
                # Serial commits past the compaction floor: retirement
                # keeps the live window small while commits grow.
                for _ in range(40):
                    txn = (await client.begin("r[x] w[x]", tenant="r"))["txn"]
                    await client.read(txn)
                    await client.write(txn)
                    await client.commit(txn)
                response = await client.inspect("r")
                rsg = response["tenants"]["r"]["rsg"]
                for key in (
                    "forgets", "replayed", "fallback_rebuilds",
                    "retired", "compactions", "history",
                ):
                    assert key in rsg
                assert rsg["retired"] >= 1 and rsg["compactions"] >= 1
                assert rsg["history"] < 80
                assert rsg["fallback_rebuilds"] == 0
                exposition = (await client.metricsx())["exposition"]
                assert "# TYPE rsg_retired gauge" in exposition
                assert f'rsg_retired{{tenant="r"}} {rsg["retired"]}' in (
                    exposition
                )
                assert 'rsg_arcs{kind="D",tenant="r"}' in exposition
                assert 'rsg_fallback_rebuilds{tenant="r"} 0' in exposition
                screen = _render_top(response)
                assert f"retired={rsg['retired']}" in screen
                assert "fallback_rebuilds=0" in screen
                await client.close()

        asyncio.run(scenario())

    def test_unknown_tenant_is_a_clean_error(self):
        async def scenario():
            async with running_server() as server:
                client = await _connect(server)
                with pytest.raises(ServiceError) as exc_info:
                    await client.inspect("nope")
                assert "no tenant 'nope'" in str(exc_info.value)
                await client.close()

        asyncio.run(scenario())


class TestMetricsVerbs:
    def test_metrics_tenant_filter(self):
        async def scenario():
            async with running_server() as server:
                client = await _connect(server)
                for name in ("alpha", "beta"):
                    await client.tenant(name, objects={"x": 0})
                    txn = (await client.begin("r[x]", tenant=name))["txn"]
                    await client.read(txn)
                    await client.commit(txn)
                full = (await client.metrics())["metrics"]
                assert any("alpha" in key for key in full["counters"])
                filtered = (await client.metrics(tenant="alpha"))["metrics"]
                assert filtered["counters"]
                assert all(
                    "beta" not in key for key in filtered["counters"]
                )

                with pytest.raises(ServiceError) as exc_info:
                    await client.metrics(tenant="ghost")
                assert "no tenant 'ghost'" in str(exc_info.value)
                assert "alpha" in str(exc_info.value)  # names the known
                await client.close()

        asyncio.run(scenario())

    def test_metricsx_exposition_includes_verb_latency_histogram(self):
        async def scenario():
            async with running_server() as server:
                client = await _connect(server)
                await client.health()
                exposition = (await client.metricsx())["exposition"]
                assert "# TYPE service_verb_latency_us histogram" in (
                    exposition
                )
                assert 'service_verb_latency_us_bucket{verb="health"' in (
                    exposition
                )
                assert 'le="+Inf"' in exposition
                await client.close()

        asyncio.run(scenario())

    def test_shed_retry_hints_recorded_as_distribution(self):
        async def scenario():
            async with running_server(max_sessions=1) as server:
                client = await _connect(server)
                await client.tenant("t", objects={"x": 0})
                held = (await client.begin("r[x]", tenant="t"))["txn"]
                shedder = await _connect(server)
                for _ in range(3):
                    with pytest.raises(ServiceError) as exc_info:
                        await shedder.begin("r[x]", tenant="t")
                    assert exc_info.value.retry_after_ms is not None
                hist = server.metrics.histogram("service.retry_after_ms")
                assert hist is not None and hist.count == 3
                report = server.metrics.to_dict()
                assert "service.retry_after_ms" in report["histograms"]
                await client.read(held)
                await client.commit(held)
                await client.close()
                await shedder.close()

        asyncio.run(scenario())


class TestFlightRecorder:
    def test_dump_verb_returns_parseable_jsonl(self):
        async def scenario():
            async with running_server() as server:
                client = await _connect(server)
                await client.tenant("t", objects={"x": 0})
                txn = (await client.begin("r[x]", tenant="t"))["txn"]
                await client.read(txn)
                await client.commit(txn)
                response = await client.dump("verb-test")
                header, events = _parse_dump(response["dump"])
                assert header["flight"] == "verb-test"
                assert "t" in header["rings"]
                kinds = {event["kind"] for event in events}
                assert {"session-admit", "grant", "wal-apply"} <= kinds
                # No directory configured: inline only, no path field.
                assert "path" not in response
                await client.close()

        asyncio.run(scenario())

    def test_drain_writes_flight_dump(self, tmp_path):
        async def scenario():
            async with running_server(flight_dir=tmp_path) as server:
                client = await _connect(server)
                await client.tenant("t", objects={"x": 0})
                txn = (await client.begin("r[x]", tenant="t"))["txn"]
                await client.read(txn)
                await client.commit(txn)
                await client.close()
                report = await server.drain("SIGTERM")
                assert report["ok"]
                dump_path = report["flight_dump"]
                assert dump_path is not None
                assert "drain-SIGTERM" in str(dump_path)
                from pathlib import Path

                _parse_dump(Path(dump_path).read_text())

        asyncio.run(scenario())

    def test_store_crash_triggers_auto_dump(self, tmp_path):
        async def scenario():
            async with running_server(
                chaos=True, flight_dir=tmp_path
            ) as server:
                client = await _connect(server)
                await client.tenant("t", objects={"x": 0})
                txn = (await client.begin("w[x]", tenant="t"))["txn"]
                await client.write(txn, value=1)
                await client.crash("t")
                crash_dumps = [
                    path
                    for path in server.recorder.dumped
                    if "crash" in path.name
                ]
                assert crash_dumps, "store crash did not auto-dump"
                _, events = _parse_dump(crash_dumps[0].read_text())
                crash_events = [
                    event for event in events if event["kind"] == "crash"
                ]
                assert crash_events
                assert crash_events[0]["ring"] == "t"
                await client.close()

        asyncio.run(scenario())

    def test_watchdog_fire_triggers_auto_dump(self, tmp_path):
        async def scenario():
            overrides = dict(
                flight_dir=tmp_path,
                watchdog_threshold=1,
                wait_retry_initial_ms=1,
                wait_retry_cap_ms=2,
            )
            async with running_server(**overrides) as server:
                holder_client = await _connect(server)
                await holder_client.tenant(
                    "t", protocol="2pl", objects={"x": 0}
                )
                holder = (
                    await holder_client.begin("w[x] w[x]", tenant="t")
                )["txn"]
                await holder_client.write(holder, value=1)

                # A second writer WAITs behind the lock; with the stall
                # watchdog at 1, its first retry fires the watchdog.
                blocked_client = await _connect(server)
                waiter = (await blocked_client.begin("w[x]", tenant="t"))[
                    "txn"
                ]
                try:
                    await blocked_client.write(waiter, value=2)
                except ServiceError:
                    pass  # either side may be the watchdog's victim

                dumps = [
                    path
                    for path in server.recorder.dumped
                    if "watchdog" in path.name
                ]
                assert dumps, "watchdog fire did not auto-dump"
                _, events = _parse_dump(dumps[0].read_text())
                assert any(
                    event["kind"] == "watchdog" for event in events
                )
                snap = server.tenants["t"].scheduler.snapshot()
                assert snap["watchdog_fires"] >= 1
                await holder_client.close()
                await blocked_client.close()

        asyncio.run(scenario())
