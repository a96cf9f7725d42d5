"""Command-line interface (``relser`` / ``python -m repro``).

Subcommands:

* ``classify FILE [--schedule NAME]`` — classify the schedules of a
  problem file into the Figure 5 hierarchy;
* ``rsg FILE --schedule NAME [--dot]`` — build the relative
  serialization graph, report acyclicity and the arc census, optionally
  emitting Graphviz DOT;
* ``witness FILE --schedule NAME`` — extract the equivalent relatively
  serial schedule (Theorem 1's constructive half);
* ``demo [--figure N]`` — replay the paper's figures end to end;
* ``census FILE`` — exhaustive class census over all interleavings of
  the file's transactions (small inputs only);
* ``simulate FILE --protocol NAME`` — drive the file's transactions
  through an online protocol (2pl / sgt / altruistic / rel-locking /
  rsgt) and report the committed history, metrics, and the offline
  verification verdict;
* ``infer FILE`` — compute the minimal relative atomicity relaxation
  under which every schedule in the file is relatively serial, printed
  as ``atomicity`` lines ready to paste back into a problem file;
* ``chop FILE`` — compute a finest correct transaction chopping
  [SSV92] of the file's transactions and print it as ``atomicity``
  lines (the chopping embedded into the relative model);
* ``faults --seed N --runs K --protocol NAME`` — run a seeded,
  deterministic fault-injection campaign (aborts, stalls, kills, store
  crashes) and check the certified-survivor invariants on every run;
  exits 0 only if each committed projection certifies relatively
  serializable and the recovered store state matches a fault-free
  execution of exactly the committed transactions;
* ``trace FILE --protocol NAME [--format jsonl|chrome|spans|spans-chrome]``
  — simulate with tracing enabled and emit the run's event trace
  (native JSONL, the ``chrome://tracing`` timeline format, or the
  folded request-lifecycle spans in either flavour);
* ``explain FILE --schedule NAME [--json | --dot]`` — replay a schedule
  against the file's spec and explain the verdict: the labelled RSG
  witness cycle on rejection, the equivalent relatively serial schedule
  on admission;
* ``serve [--port N] [--protocol NAME] [--chaos]
  [--flight-recorder DIR]`` — run the long-running transaction service
  (NDJSON over TCP, multi-tenant, admission-controlled,
  SIGTERM-drained; see :mod:`repro.service`);
* ``top --connect HOST PORT [--tenant NAME] [--interval S | --once]``
  — live wait-for/donation/RSG view of a running server, refreshed
  from the ``inspect`` verb;
* ``dump --connect HOST PORT [-o FILE]`` — fetch a flight-recorder
  dump (last-N events per tenant) from a running server as JSONL;
* ``chaos [--connect HOST PORT] --clients N --seed S`` — act out a
  seeded fault plan against a live server (or a self-hosted one) and
  certify the survivor invariant; exits 0 only if it holds.

``simulate`` and ``faults`` additionally accept ``--trace FILE`` and
``--metrics FILE`` (``census``: ``--metrics FILE``) to write the
deterministic JSONL trace / metrics report alongside their normal
output; ``faults --flight-recorder DIR`` replays every run's trace
through a flight recorder and writes the triggered dumps there.

The problem-file format is documented in :mod:`repro.io.notation`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.classes import census_exhaustive
from repro.analysis.tables import format_table
from repro.core.recovery import recovery_profile
from repro.core.classify import classify
from repro.core.rsg import ArcKind, RelativeSerializationGraph
from repro.errors import CycleError, ReproError
from repro.io.dot import rsg_to_dot
from repro.io.notation import Problem, parse_problem
from repro.paper import figure1, figure2, figure3, figure4
from repro.workloads.enumerate import count_interleavings

__all__ = ["main", "build_parser"]

_FIGURES = {1: figure1, 2: figure2, 3: figure3, 4: figure4}


def _make_protocol(name, spec):
    from repro.protocols import make_scheduler

    return make_scheduler(name, spec)


def _jobs_arg(value: str) -> int:
    jobs = int(value)
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"must be non-negative (0 = one per CPU core), got {jobs}"
        )
    return jobs


_PROTOCOLS = ("2pl", "sgt", "altruistic", "rel-locking", "rsgt")


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="relser",
        description=(
            "Relative serializability tools (Agrawal et al., PODS 1994)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    classify_cmd = commands.add_parser(
        "classify", help="classify schedules of a problem file"
    )
    classify_cmd.add_argument("file", type=Path)
    classify_cmd.add_argument(
        "--schedule", help="classify only this named schedule"
    )
    classify_cmd.add_argument(
        "--budget",
        type=int,
        default=200_000,
        help="step budget for the NP-complete relative-consistency test",
    )

    rsg_cmd = commands.add_parser(
        "rsg", help="build and inspect a relative serialization graph"
    )
    rsg_cmd.add_argument("file", type=Path)
    rsg_cmd.add_argument("--schedule", required=True)
    rsg_cmd.add_argument(
        "--dot", action="store_true", help="emit Graphviz DOT instead"
    )

    witness_cmd = commands.add_parser(
        "witness",
        help="extract the equivalent relatively serial schedule",
    )
    witness_cmd.add_argument("file", type=Path)
    witness_cmd.add_argument("--schedule", required=True)

    demo_cmd = commands.add_parser(
        "demo", help="replay the paper's figures"
    )
    demo_cmd.add_argument(
        "--figure", type=int, choices=sorted(_FIGURES), default=None
    )

    census_cmd = commands.add_parser(
        "census",
        help="exhaustive class census over all interleavings (small inputs)",
    )
    census_cmd.add_argument("file", type=Path)
    census_cmd.add_argument(
        "--limit",
        type=int,
        default=50_000,
        help="refuse to enumerate more interleavings than this",
    )
    census_cmd.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        help=(
            "worker processes for the sweep (0 = one per CPU core; "
            "results are identical at any job count)"
        ),
    )
    census_cmd.add_argument(
        "--metrics",
        type=Path,
        default=None,
        help="write the census counters as a deterministic JSON report",
    )

    simulate_cmd = commands.add_parser(
        "simulate",
        help="drive the transactions through an online protocol",
    )
    simulate_cmd.add_argument("file", type=Path)
    simulate_cmd.add_argument(
        "--protocol",
        choices=sorted(_PROTOCOLS),
        default="rsgt",
    )
    simulate_cmd.add_argument(
        "--backoff", type=int, default=2, help="restart backoff base"
    )
    simulate_cmd.add_argument(
        "--trace",
        type=Path,
        default=None,
        help="write the run's JSONL event trace to this file",
    )
    simulate_cmd.add_argument(
        "--metrics",
        type=Path,
        default=None,
        help="write the run's deterministic metrics report to this file",
    )

    infer_cmd = commands.add_parser(
        "infer",
        help="infer the minimal spec legalizing the file's schedules",
    )
    infer_cmd.add_argument("file", type=Path)

    chop_cmd = commands.add_parser(
        "chop",
        help="finest correct transaction chopping [SSV92], as a spec",
    )
    chop_cmd.add_argument("file", type=Path)

    faults_cmd = commands.add_parser(
        "faults",
        help="seeded fault-injection campaign with invariant checks",
    )
    faults_cmd.add_argument(
        "--seed", type=int, default=0, help="campaign base seed"
    )
    faults_cmd.add_argument(
        "--runs", type=int, default=20, help="independent runs"
    )
    faults_cmd.add_argument(
        "--protocol",
        choices=sorted(_PROTOCOLS),
        default="rsgt",
    )
    faults_cmd.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        help=(
            "worker processes (0 = one per CPU core; reports are "
            "byte-identical at any job count)"
        ),
    )
    faults_cmd.add_argument(
        "--abort-rate", type=float, default=0.3, dest="abort_rate"
    )
    faults_cmd.add_argument(
        "--stall-rate", type=float, default=0.3, dest="stall_rate"
    )
    faults_cmd.add_argument(
        "--kill-rate", type=float, default=0.15, dest="kill_rate"
    )
    faults_cmd.add_argument(
        "--crash-rate", type=float, default=0.25, dest="crash_rate"
    )
    faults_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit the full byte-stable JSON report instead of the summary",
    )
    faults_cmd.add_argument(
        "--trace",
        type=Path,
        default=None,
        help=(
            "collect per-run traces and write the campaign's JSONL "
            "trace to this file (byte-identical at any --jobs count)"
        ),
    )
    faults_cmd.add_argument(
        "--metrics",
        type=Path,
        default=None,
        help=(
            "collect per-run metrics and write the merged deterministic "
            "report to this file"
        ),
    )
    faults_cmd.add_argument(
        "--flight-recorder",
        type=Path,
        default=None,
        dest="flight_recorder",
        help=(
            "replay every run's trace through a flight recorder keyed "
            "per run and write the triggered dumps (crash/watchdog/"
            "livelock) plus a final campaign dump into this directory"
        ),
    )

    trace_cmd = commands.add_parser(
        "trace",
        help="simulate with tracing enabled and emit the event trace",
    )
    trace_cmd.add_argument("file", type=Path)
    trace_cmd.add_argument(
        "--protocol",
        choices=sorted(_PROTOCOLS),
        default="rsgt",
    )
    trace_cmd.add_argument(
        "--backoff", type=int, default=2, help="restart backoff base"
    )
    trace_cmd.add_argument(
        "--format",
        choices=("jsonl", "chrome", "spans", "spans-chrome"),
        default="jsonl",
        help=(
            "native JSONL, the chrome://tracing timeline format, or "
            "the folded request-lifecycle spans (JSONL / chrome slices)"
        ),
    )
    trace_cmd.add_argument(
        "-o",
        "--output",
        type=Path,
        default=None,
        help="write the trace to this file instead of stdout",
    )

    explain_cmd = commands.add_parser(
        "explain",
        help="explain a schedule's verdict (witness cycle or serial witness)",
    )
    explain_cmd.add_argument("file", type=Path)
    explain_cmd.add_argument("--schedule", required=True)
    explain_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit the explanation as byte-stable JSON",
    )
    explain_cmd.add_argument(
        "--dot",
        action="store_true",
        help="emit the witness cycle as Graphviz DOT (rejections only)",
    )

    serve_cmd = commands.add_parser(
        "serve",
        help="run the long-running RSR transaction service",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port",
        type=int,
        default=0,
        help="listen port (0 = OS-assigned; see --port-file)",
    )
    serve_cmd.add_argument(
        "--protocol",
        choices=sorted(_PROTOCOLS),
        default="rsgt",
        help="protocol for implicitly created tenants",
    )
    serve_cmd.add_argument(
        "--max-sessions",
        type=int,
        default=256,
        help="in-flight session budget (begins beyond it are shed)",
    )
    serve_cmd.add_argument(
        "--session-timeout",
        type=float,
        default=30.0,
        help="per-session deadline in seconds",
    )
    serve_cmd.add_argument(
        "--op-timeout",
        type=float,
        default=10.0,
        help="per-operation deadline in seconds (includes WAIT retries)",
    )
    serve_cmd.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        help="grace window for in-flight sessions on SIGTERM",
    )
    serve_cmd.add_argument(
        "--chaos",
        action="store_true",
        help="enable the destructive crash verb (chaos testing only)",
    )
    serve_cmd.add_argument(
        "--seed", type=int, default=0, help="jitter seed"
    )
    serve_cmd.add_argument(
        "--port-file",
        type=Path,
        default=None,
        help="write 'host port' here once the listener is bound",
    )
    serve_cmd.add_argument(
        "--metrics",
        type=Path,
        default=None,
        help="write the final metrics report to this file on drain",
    )
    serve_cmd.add_argument(
        "--flight-recorder",
        type=Path,
        default=None,
        dest="flight_recorder",
        help=(
            "directory for flight-recorder dumps (written automatically "
            "on store crash / watchdog / livelock and on drain)"
        ),
    )
    serve_cmd.add_argument(
        "--flight-capacity",
        type=int,
        default=256,
        dest="flight_capacity",
        help="events kept per tenant ring in the flight recorder",
    )

    top_cmd = commands.add_parser(
        "top",
        help="live wait-for/donation/RSG view of a running server",
    )
    top_cmd.add_argument(
        "--connect",
        nargs=2,
        metavar=("HOST", "PORT"),
        required=True,
        help="target server (see serve --port-file)",
    )
    top_cmd.add_argument(
        "--tenant", default=None, help="show only this tenant"
    )
    top_cmd.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="refresh period in seconds",
    )
    top_cmd.add_argument(
        "--once",
        action="store_true",
        help="print one snapshot and exit (no refresh loop)",
    )

    dump_cmd = commands.add_parser(
        "dump",
        help="fetch a flight-recorder dump from a running server",
    )
    dump_cmd.add_argument(
        "--connect",
        nargs=2,
        metavar=("HOST", "PORT"),
        required=True,
        help="target server",
    )
    dump_cmd.add_argument(
        "--cause",
        default=None,
        help="cause label stamped into the dump header",
    )
    dump_cmd.add_argument(
        "-o",
        "--output",
        type=Path,
        default=None,
        help="write the JSONL dump here instead of stdout",
    )

    chaos_cmd = commands.add_parser(
        "chaos",
        help="replay a seeded fault plan against a live server and "
        "certify the survivor invariant",
    )
    chaos_cmd.add_argument(
        "--connect",
        nargs=2,
        metavar=("HOST", "PORT"),
        default=None,
        help="target a running server; omit to self-host one in-process",
    )
    chaos_cmd.add_argument("--clients", type=int, default=50)
    chaos_cmd.add_argument("--seed", type=int, default=0)
    chaos_cmd.add_argument(
        "--protocol", choices=sorted(_PROTOCOLS), default="rsgt"
    )
    chaos_cmd.add_argument("--objects", type=int, default=8)
    chaos_cmd.add_argument("--abort-rate", type=float, default=0.05)
    chaos_cmd.add_argument("--stall-rate", type=float, default=0.10)
    chaos_cmd.add_argument("--kill-rate", type=float, default=0.05)
    chaos_cmd.add_argument(
        "--crash-at",
        type=int,
        default=None,
        help="store-crash trigger (global granted-op count)",
    )
    chaos_cmd.add_argument(
        "--max-sessions",
        type=int,
        default=256,
        help="admission budget of the self-hosted server",
    )
    chaos_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit the chaos report as JSON",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command == "rsg":
            return _cmd_rsg(args)
        if args.command == "witness":
            return _cmd_witness(args)
        if args.command == "demo":
            return _cmd_demo(args)
        if args.command == "census":
            return _cmd_census(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "infer":
            return _cmd_infer(args)
        if args.command == "chop":
            return _cmd_chop(args)
        if args.command == "faults":
            return _cmd_faults(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "explain":
            return _cmd_explain(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "top":
            return _cmd_top(args)
        if args.command == "dump":
            return _cmd_dump(args)
        if args.command == "chaos":
            return _cmd_chaos(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


def _load(path: Path) -> Problem:
    return parse_problem(path.read_text())


def _cmd_classify(args: argparse.Namespace) -> int:
    problem = _load(args.file)
    names = [args.schedule] if args.schedule else sorted(problem.schedules)
    for name in names:
        schedule = problem.schedule(name)
        report = classify(
            schedule, problem.spec, consistency_budget=args.budget
        )
        print(f"schedule {name}: {schedule}")
        print(report.describe())
        print()
    return 0


def _cmd_rsg(args: argparse.Namespace) -> int:
    problem = _load(args.file)
    schedule = problem.schedule(args.schedule)
    rsg = RelativeSerializationGraph(schedule, problem.spec)
    if args.dot:
        print(rsg_to_dot(rsg), end="")
        return 0
    print(f"schedule: {schedule}")
    print(f"vertices: {rsg.graph.node_count}")
    for kind in ArcKind:
        print(f"{kind.name.lower():>14} arcs: {len(rsg.arcs(kind))}")
    if rsg.is_acyclic:
        print("acyclic: yes (relatively serializable)")
    else:
        cycle = " -> ".join(op.label for op in rsg.cycle)
        print(f"acyclic: no (cycle: {cycle})")
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    problem = _load(args.file)
    schedule = problem.schedule(args.schedule)
    rsg = RelativeSerializationGraph(schedule, problem.spec)
    try:
        witness = rsg.equivalent_relatively_serial_schedule()
    except CycleError as exc:
        cycle = " -> ".join(op.label for op in exc.cycle or [])
        print(
            "not relatively serializable "
            f"(RSG cycle: {cycle})",
            file=sys.stderr,
        )
        return 1
    print(witness)
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    numbers = [args.figure] if args.figure else sorted(_FIGURES)
    for number in numbers:
        figure = _FIGURES[number]()
        print(f"=== {figure.name} ===")
        for transaction in figure.transactions:
            print(transaction)
        print(figure.spec.render())
        for name, schedule in figure.schedules.items():
            print(f"\nschedule {name}: {schedule}")
            print(classify(schedule, figure.spec).describe())
        print()
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    problem = _load(args.file)
    total = count_interleavings(problem.transactions)
    if total > args.limit:
        print(
            f"error: {total} interleavings exceed --limit {args.limit}",
            file=sys.stderr,
        )
        return 2
    result = census_exhaustive(
        problem.transactions, problem.spec, jobs=args.jobs
    )
    rows = [(name, count, rate) for name, count, rate in result.as_rows()]
    print(
        format_table(
            ["class", "schedules", "fraction"],
            rows,
            title=f"census over {result.total} interleavings",
        )
    )
    if result.undecided_consistent:
        print(
            f"(relative consistency undecided for "
            f"{result.undecided_consistent} schedules)"
        )
    if args.metrics is not None:
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        for name, count, _rate in result.as_rows():
            registry.inc("census.schedules", count, cls=name)
        registry.gauge("census.total", result.total)
        args.metrics.write_text(registry.to_json() + "\n", encoding="utf-8")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.core.rsg import is_relatively_serializable
    from repro.core.serializability import is_conflict_serializable
    from repro.obs.bus import RingBufferSink, TraceBus
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.runner import simulate

    problem = _load(args.file)
    scheduler = _make_protocol(args.protocol, problem.spec)
    sink = RingBufferSink() if args.trace is not None else None
    bus = TraceBus(sink) if sink is not None else None
    metrics = MetricsRegistry() if args.metrics is not None else None
    result = simulate(
        problem.transactions,
        scheduler,
        backoff=args.backoff,
        bus=bus,
        metrics=metrics,
    )
    if sink is not None:
        args.trace.write_text(sink.text(), encoding="utf-8")
    if metrics is not None:
        args.metrics.write_text(metrics.to_json() + "\n", encoding="utf-8")
    print(f"protocol: {result.protocol}")
    print(f"committed history: {result.schedule}")
    rows = [
        [
            outcome.tx_id,
            outcome.arrival,
            outcome.commit_tick,
            outcome.response_time,
            outcome.restarts,
            outcome.waits,
        ]
        for outcome in result.outcomes.values()
    ]
    print(
        format_table(
            ["tx", "arrival", "commit", "response", "restarts", "waits"],
            rows,
        )
    )
    print(
        f"makespan {result.makespan}, throughput "
        f"{result.throughput:.3f} tx/tick"
    )
    if args.protocol in ("rsgt", "rel-locking"):
        verified = is_relatively_serializable(result.schedule, problem.spec)
        print(f"relatively serializable (offline RSG test): "
              f"{'yes' if verified else 'NO'}")
    else:
        verified = is_conflict_serializable(result.schedule)
        print(f"conflict serializable (offline SG test): "
              f"{'yes' if verified else 'NO'}")
    profile = recovery_profile(result.schedule)
    print(
        "recovery: "
        f"recoverable={'yes' if profile['rc'] else 'no'}, "
        f"aca={'yes' if profile['aca'] else 'no'}, "
        f"strict={'yes' if profile['st'] else 'no'}"
    )
    return 0 if verified else 1


def _cmd_infer(args: argparse.Namespace) -> int:
    from repro.analysis.inference import infer_spec

    problem = _load(args.file)
    if not problem.schedules:
        print("error: the file declares no schedules", file=sys.stderr)
        return 2
    spec = infer_spec(
        problem.transactions, list(problem.schedules.values())
    )
    print(f"# inferred from {len(problem.schedules)} schedule(s); "
          "absolute pairs omitted")
    emitted = 0
    for tx, observer in spec.pairs():
        view = spec.atomicity(tx, observer)
        if view.is_absolute:
            continue
        rendered = view.render(spec.transactions[tx])
        print(f"atomicity T{tx}/T{observer}: {rendered}")
        emitted += 1
    if not emitted:
        print("# (absolute atomicity already suffices)")
    return 0


def _cmd_chop(args: argparse.Namespace) -> int:
    from repro.specs.chopping import (
        chopping_to_spec,
        finest_correct_chopping,
    )

    problem = _load(args.file)
    chopping = finest_correct_chopping(problem.transactions)
    spec = chopping_to_spec(chopping)
    print(
        f"# finest correct chopping: {chopping.piece_count()} pieces "
        f"across {len(problem.transactions)} transactions"
    )
    emitted = 0
    for tx, observer in spec.pairs():
        view = spec.atomicity(tx, observer)
        if view.is_absolute:
            continue
        rendered = view.render(spec.transactions[tx])
        print(f"atomicity T{tx}/T{observer}: {rendered}")
        emitted += 1
    if not emitted:
        print("# (no transaction can be chopped: SC-cycles everywhere)")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults import CampaignConfig, run_campaign

    config = CampaignConfig(
        protocol=args.protocol,
        runs=args.runs,
        seed=args.seed,
        abort_rate=args.abort_rate,
        stall_rate=args.stall_rate,
        kill_rate=args.kill_rate,
        crash_rate=args.crash_rate,
        trace=(
            args.trace is not None
            or args.metrics is not None
            or args.flight_recorder is not None
        ),
    )
    report = run_campaign(config, jobs=args.jobs)
    if args.flight_recorder is not None:
        from repro.obs.recorder import FlightRecorder

        recorder = FlightRecorder(directory=args.flight_recorder)
        for record in report.records:
            recorder.replay_jsonl(record.trace, key=f"run{record.index}")
        final = recorder.dump("campaign-end")
        print(
            f"flight recorder: {len(recorder.dumped)} dump(s) in "
            f"{args.flight_recorder} (final: {final.name})"
        )
    if args.trace is not None:
        args.trace.write_text(report.trace_jsonl(), encoding="utf-8")
    if args.metrics is not None:
        args.metrics.write_text(
            report.metrics_json() + "\n", encoding="utf-8"
        )
    if args.json:
        print(report.to_json())
    else:
        print(report.summary())
        for record in report.records:
            survivors = ",".join(f"T{tx}" for tx in record.survivors)
            print(
                f"  run {record.index:>3} seed={record.seed}: "
                f"committed={record.committed} aborted={record.aborted} "
                f"survivors=[{survivors}] "
                f"certified={'yes' if record.certified else 'NO'} "
                f"state={'ok' if record.state_ok else 'MISMATCH'}"
            )
    return 0 if report.ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.bus import RingBufferSink, TraceBus
    from repro.obs.trace import chrome_trace_json
    from repro.sim.runner import simulate

    problem = _load(args.file)
    scheduler = _make_protocol(args.protocol, problem.spec)
    sink = RingBufferSink()
    simulate(
        problem.transactions,
        scheduler,
        backoff=args.backoff,
        bus=TraceBus(sink),
    )
    if args.format == "chrome":
        text = chrome_trace_json(sink.events) + "\n"
    elif args.format in ("spans", "spans-chrome"):
        import json

        from repro.obs.spans import (
            spans_from_events,
            spans_jsonl,
            spans_to_chrome,
        )

        spans = spans_from_events(sink.events)
        if args.format == "spans":
            text = spans_jsonl(spans)
        else:
            text = json.dumps(spans_to_chrome(spans), sort_keys=True) + "\n"
    else:
        text = sink.text()
    if args.output is not None:
        args.output.write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    import json

    from repro.io.dot import witness_to_dot
    from repro.obs.explain import explain_schedule

    problem = _load(args.file)
    schedule = problem.schedule(args.schedule)
    explanation = explain_schedule(schedule, problem.spec)
    if args.dot:
        if explanation.witness is None:
            print(
                "admissible: no witness cycle to render",
                file=sys.stderr,
            )
            return 0
        print(witness_to_dot(explanation.witness), end="")
        return 0
    if args.json:
        print(json.dumps(explanation.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"schedule {args.schedule}: {schedule}")
    print(explanation.format())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import RsrServer, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        default_protocol=args.protocol,
        max_sessions=args.max_sessions,
        session_timeout_s=args.session_timeout,
        op_timeout_s=args.op_timeout,
        drain_timeout_s=args.drain_timeout,
        jitter_seed=args.seed,
        chaos=args.chaos,
        flight_dir=args.flight_recorder,
        flight_capacity=args.flight_capacity,
    )

    async def _serve() -> int:
        server = RsrServer(config)
        host, port = await server.start()
        if args.port_file is not None:
            args.port_file.write_text(f"{host} {port}\n")
        server.install_signal_handlers()
        print(f"serving on {host}:{port} (protocol {args.protocol})")
        sys.stdout.flush()
        await server._stopped.wait()
        exit_code = server.exit_code
        report = server.drain_report or {}
        print(
            f"drained ({report.get('cause', '?')}): "
            f"forced_aborts={report.get('forced_aborts', 0)} "
            f"ok={report.get('ok')}"
        )
        if args.metrics is not None:
            args.metrics.write_text(server.metrics.to_json() + "\n")
        return exit_code

    return asyncio.run(_serve())


def _render_top(response: dict) -> str:
    """One ``inspect`` snapshot as a compact text screen.

    Pure function of the response payload, so the rendering is as
    deterministic as the snapshot itself (handy for --once in tests).
    """
    rings = response.get("flight_rings") or {}
    ring_txt = ",".join(f"{k}:{v}" for k, v in sorted(rings.items()))
    lines = [
        f"rsr service: {response.get('status')}  "
        f"inflight={response.get('inflight')} shed={response.get('shed')}  "
        f"open-spans={response.get('open_spans')}  "
        f"flight-rings[{ring_txt}]"
    ]
    for name, snap in sorted((response.get("tenants") or {}).items()):
        lines.append(
            f"tenant {name} ({snap.get('protocol')}): "
            f"admitted={snap.get('admitted')} live={snap.get('live')} "
            f"committed={snap.get('committed')} "
            f"watchdog={snap.get('watchdog_fires')}"
        )
        lines.append(
            f"  sessions open={snap.get('open_sessions')} "
            f"waiting={snap.get('waiting_sessions')}"
        )
        waits = snap.get("waits_for") or {}
        if waits:
            edges = "; ".join(
                f"T{waiter} -> " + ",".join(f"T{b}" for b in blockers)
                for waiter, blockers in sorted(
                    waits.items(), key=lambda kv: int(kv[0])
                )
            )
            lines.append(f"  waits-for {edges}")
        donations = snap.get("donations") or []
        if donations:
            rendered = "; ".join(
                f"T{d['donor']} gives {d['obj']}"
                + (f" to T{d['to']}" if d.get("to") is not None else "")
                for d in donations
            )
            lines.append(f"  donations {rendered}")
        rsg = snap.get("rsg")
        if rsg:
            arcs = rsg.get("arcs") or {}
            arc_txt = " ".join(
                f"{kind}={arcs.get(kind, 0)}" for kind in ("I", "D", "F", "B")
            )
            lines.append(
                f"  rsg nodes={rsg.get('nodes')} arcs[{arc_txt}] "
                f"history={rsg.get('history')} "
                f"certified={rsg.get('certified')} "
                f"rejected={rsg.get('rejected')}"
            )
            lines.append(
                f"  window retired={rsg.get('retired')} "
                f"compactions={rsg.get('compactions')} "
                f"forgets={rsg.get('forgets')} "
                f"replayed={rsg.get('replayed')} "
                f"fallback_rebuilds={rsg.get('fallback_rebuilds')}"
            )
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.client import ServiceClient

    host, port = args.connect[0], int(args.connect[1])

    async def _run() -> int:
        client = await ServiceClient.connect(host, port)
        try:
            while True:
                response = await client.inspect(args.tenant)
                if not args.once:
                    sys.stdout.write("\x1b[2J\x1b[H")
                print(_render_top(response))
                sys.stdout.flush()
                if args.once:
                    return 0
                await asyncio.sleep(args.interval)
        finally:
            await client.close()

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        print()
        return 0
    except OSError as exc:
        print(f"error: cannot reach {host}:{port}: {exc}", file=sys.stderr)
        return 2


def _cmd_dump(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.client import ServiceClient

    host, port = args.connect[0], int(args.connect[1])

    async def _run() -> int:
        client = await ServiceClient.connect(host, port)
        try:
            response = await client.dump(args.cause)
        finally:
            await client.close()
        text = response.get("dump", "")
        if args.output is not None:
            args.output.write_text(text, encoding="utf-8")
            rings = response.get("rings") or {}
            print(
                f"wrote {sum(rings.values())} event(s) across "
                f"{len(rings)} ring(s) to {args.output}"
            )
        else:
            print(text, end="")
        return 0

    try:
        return asyncio.run(_run())
    except OSError as exc:
        print(f"error: cannot reach {host}:{port}: {exc}", file=sys.stderr)
        return 2


def _cmd_chaos(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.service import ChaosConfig, run_chaos

    chaos_config = ChaosConfig(
        clients=args.clients,
        seed=args.seed,
        protocol=args.protocol,
        n_objects=args.objects,
        abort_rate=args.abort_rate,
        stall_rate=args.stall_rate,
        kill_rate=args.kill_rate,
        crash_at=args.crash_at,
    )

    async def _run() -> int:
        if args.connect is not None:
            host, port = args.connect[0], int(args.connect[1])
            report = await run_chaos(chaos_config, host, port)
        else:
            from repro.service import RsrServer, ServiceConfig

            server = RsrServer(
                ServiceConfig(
                    max_sessions=args.max_sessions,
                    chaos=True,
                    jitter_seed=args.seed,
                )
            )
            host, port = await server.start()
            try:
                report = await run_chaos(chaos_config, host, port)
            finally:
                drain = await server.drain("chaos-done")
            if not drain.get("ok", False):
                print("error: drain certification failed", file=sys.stderr)
                return 1
        if args.json:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(report.describe())
        return 0 if report.ok else 1

    return asyncio.run(_run())


if __name__ == "__main__":  # pragma: no cover - module CLI shim
    raise SystemExit(main())
