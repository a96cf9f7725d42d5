"""Traced server launcher: ``repro serve`` with a per-layer ledger.

Run as ``python perfbench/launcher.py --port-file F --ledger L
--expected-tx N --tenant T [--seed S]``.  It runs ``repro serve --seed S
--port-file F`` through the CLI's own entry point, so the server, its
defaults and its exit code are the untraced ones, but first wraps the
public methods of each layer with timers and counters.  Only calls made
for the measured tenant ``T`` are recorded (the warm-up tenant's are
not).  Calls are bucketed by age decile, keyed on how many transactions
``T`` had committed; gauges of the live state are sampled as each decile
closes.  The ledger is written as JSON once the drain is over.

Importing this module patches nothing: :func:`install` does, and
:func:`uninstall` restores every original.  The untraced benchmark run
never imports it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

DECILES = 10
_clock = time.perf_counter_ns


class Ledger:
    """Calls, nanoseconds and gauges per layer method and age decile."""

    def __init__(self, expected_tx: int, tenant: str | None = None) -> None:
        self.expected_tx = max(1, expected_tx)
        #: Only calls made on behalf of this tenant are recorded (None:
        #: every call, for in-process use with no tenant at all).
        self.tenant = tenant
        #: The measured tenant object, once a call was made for it.
        self.measured = None
        self.active = True
        self.age = 0
        self.draining = False
        #: name -> per-decile ``[calls, ns]``; "drain" calls go to decile
        #: ``DECILES`` so load deciles stay clean.
        self.timed: dict[str, list[list[int]]] = {}
        self.counted: dict[str, list[int]] = {}
        self.gauges: dict[str, list[int | None]] = {}

    def decile(self) -> int:
        if self.draining:
            return DECILES
        return min(DECILES - 1, self.age * DECILES // self.expected_tx)

    def focus(self, tenant) -> None:
        """Record the calls that follow only if ``tenant`` is measured."""
        self.active = self.tenant is None or tenant.name == self.tenant
        if self.tenant is not None and self.active:
            self.measured = tenant

    def add(self, name: str, ns: int) -> None:
        if not self.active:
            return
        rows = self.timed.get(name)
        if rows is None:
            rows = self.timed[name] = [[0, 0] for _ in range(DECILES + 1)]
        row = rows[self.decile()]
        row[0] += 1
        row[1] += ns

    def count(self, name: str) -> None:
        if not self.active:
            return
        rows = self.counted.get(name)
        if rows is None:
            rows = self.counted[name] = [0] * (DECILES + 1)
        rows[self.decile()] += 1

    def gauge(self, name: str, decile: int, value: int) -> None:
        self.gauges.setdefault(name, [None] * DECILES)[decile] = value

    def sample(self, tenant, decile: int) -> None:
        """Live-state gauges of ``tenant`` at the close of ``decile``."""
        scheduler = tenant.scheduler
        self.gauge("scheduler.history_len", decile, len(scheduler.history))
        self.gauge("kvstore.wal_size", decile, tenant.store.wal_size())
        rsg = scheduler.snapshot().get("rsg") or {}
        self.gauge("rsg.nodes", decile, rsg.get("nodes", 0))
        for kind, arcs in (rsg.get("arcs") or {}).items():
            self.gauge(f"rsg.arcs_{kind}", decile, arcs)

    def to_dict(self) -> dict:
        """The ledger, plus end-of-run state of the measured tenant
        (certifier counters and stored atomicity views)."""
        tenant = self.measured
        stats = dict.fromkeys(
            ("certified", "rejected", "forgets", "replayed", "fallback_rebuilds"), 0
        )
        if tenant is not None:
            for key in stats:
                stats[key] = getattr(tenant.scheduler._certifier.stats, key)
        return {
            "expected_tx": self.expected_tx,
            "committed": len(tenant.committed) if tenant is not None else 0,
            "timed": self.timed,
            "counted": self.counted,
            "gauges": self.gauges,
            "certifier": stats,
            "atomicity_views": len(tenant.spec._views) if tenant is not None else 0,
        }


def _targets():
    """``(owner, attribute, ledger name, mode)`` for every wrapped method.

    ``mode`` is ``"timed"``, ``"counted"`` (sub-microsecond calls, whose
    timer would cost more than the call), ``"tenant"`` (timed, and the
    call sets the current age) or ``"property"`` (a timed getter).
    """
    from repro.core.atomicity import RelativeAtomicitySpec
    from repro.core.dependency import DependencyRelation
    from repro.core.rsg import IncrementalRsg, RelativeSerializationGraph
    from repro.engine.kvstore import KVStore
    from repro.protocols.base import Scheduler
    from repro.protocols.certifier import RsgCertifier
    from repro.service.tenant import Tenant

    return [
        (Tenant, "new_session", "tenant.new_session", "tenant"),
        (Tenant, "step", "tenant.step", "tenant"),
        (Tenant, "commit", "tenant.commit", "tenant"),
        (Tenant, "abort", "tenant.abort", "tenant"),
        (Tenant, "certify", "tenant.certify", "timed"),
        (RelativeAtomicitySpec, "declare_transaction", "atomicity.declare", "timed"),
        (RelativeAtomicitySpec, "atomicity", "atomicity.atomicity", "counted"),
        (Scheduler, "admit", "scheduler.admit", "timed"),
        (Scheduler, "request", "scheduler.request", "timed"),
        (Scheduler, "finish", "scheduler.finish", "timed"),
        (Scheduler, "remove", "scheduler.remove", "timed"),
        (RsgCertifier, "try_certify", "certifier.try_certify", "timed"),
        (RsgCertifier, "forget", "certifier.forget", "timed"),
        (IncrementalRsg, "try_push", "rsg.try_push", "counted"),
        (RelativeSerializationGraph, "__init__", "rsg.build", "timed"),
        (RelativeSerializationGraph, "is_acyclic", "rsg.acyclic", "property"),
        (
            RelativeSerializationGraph,
            "equivalent_relatively_serial_schedule",
            "rsg.witness",
            "timed",
        ),
        (DependencyRelation, "__init__", "dependency.build", "timed"),
        (KVStore, "write", "kvstore.write", "timed"),
        (KVStore, "commit", "kvstore.commit", "timed"),
        (KVStore, "abort", "kvstore.abort", "timed"),
    ]


def _timed(ledger: Ledger, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            ledger.add(name, _clock() - start)

    return wrapper


def _counted(ledger: Ledger, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        ledger.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _tenant_timed(ledger: Ledger, name: str, fn):
    bounds = [
        -(-(decile + 1) * ledger.expected_tx // DECILES)
        for decile in range(DECILES)
    ]

    @functools.wraps(fn)
    def wrapper(tenant, *args, **kwargs):
        ledger.focus(tenant)
        before = len(tenant.committed)
        ledger.age = before
        start = _clock()
        try:
            return fn(tenant, *args, **kwargs)
        finally:
            ledger.add(name, _clock() - start)
            after = len(tenant.committed)
            if after != before and ledger.active:
                for decile, bound in enumerate(bounds):
                    if bound == after:
                        ledger.sample(tenant, decile)

    return wrapper


def install(ledger: Ledger) -> list[tuple[type, str, object]]:
    """Wrap every target method; pass the result to :func:`uninstall`."""
    from repro.service.tenant import Tenant

    saved: list[tuple[type, str, object]] = []
    for owner, attr, name, mode in _targets():
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        if mode == "property":
            wrapped = property(_timed(ledger, name, original.fget))
        elif mode == "counted":
            wrapped = _counted(ledger, name, original)
        elif mode == "tenant":
            wrapped = _tenant_timed(ledger, name, original)
        else:
            wrapped = _timed(ledger, name, original)
        setattr(owner, attr, wrapped)

    certify = Tenant.__dict__["certify"]
    saved.append((Tenant, "certify", certify))

    def draining_certify(self, *args, **kwargs):
        ledger.draining = True
        ledger.focus(self)
        return certify(self, *args, **kwargs)

    setattr(Tenant, "certify", functools.wraps(certify)(draining_certify))
    return saved


def uninstall(saved: list[tuple[type, str, object]]) -> None:
    """Restore every original :func:`install` replaced, newest first."""
    while saved:
        owner, attr, original = saved.pop()
        setattr(owner, attr, original)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port-file", type=Path, required=True)
    parser.add_argument("--ledger", type=Path, required=True)
    parser.add_argument("--expected-tx", type=int, required=True)
    parser.add_argument("--tenant", required=True, help="the measured tenant")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    from repro.cli import main as repro_main

    ledger = Ledger(args.expected_tx, args.tenant)
    saved = install(ledger)
    try:
        code = repro_main(
            ["serve", "--seed", str(args.seed), "--port-file", str(args.port_file)]
        )
    finally:
        uninstall(saved)
    args.ledger.write_text(json.dumps(ledger.to_dict()))
    return code


if __name__ == "__main__":
    sys.exit(main())
