"""Benchmark entry point.

    python3 perfbench/run.py --workload abs-skew --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout.  One workload prints a JSON line of
details, then, as its last line, ``{"correct", "attempted", "failed",
"metrics"}`` with every end-to-end metric (``--trace 0``) or every
per-layer metric (``--trace 1``).  ``--workload all`` runs every workload
untraced and prints each metric by name and unit, plus ``failed_ratio``
and the drain deadline.  See README.md for what each number means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("abs-skew", "rel-bank", "offline-rsg")
SERVICE_VERBS = ("begin", "read", "write", "commit")

#: End-to-end metric -> unit (BENCHMARK.json lists the same, with bounds).
END_TO_END = {
    "setup_s": "s",
    "tx_per_s": "1/s",
    "commit_p50_ms": "ms",
    "commit_tail_ms": "ms",
    "early_ms_per_tx": "ms",
    "late_ms_per_tx": "ms",
    "drain_s": "s",
    "server_rss_mb": "MiB",
    "schedules_per_s": "1/s",
}


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for verb in SERVICE_VERBS:
        units[f"client.rtt_p50_us.{verb}"] = "us"
        units[f"server.verb_p50_us.{verb}"] = "us"
    for group in ("begin", "step", "commit"):
        units[f"server.self_us.{group}"] = "us"
    units["server.shed"] = "count"
    units["server.cpu_ms_per_tx"] = "ms"
    for name in ("new_session", "step", "commit", "abort"):
        for decile in ("d0", "d9"):
            units[f"tenant.{name}_us.{decile}"] = "us"
    units["tenant.certify_s"] = "s"
    for decile in ("d0", "d9"):
        units[f"atomicity.declare_us.{decile}"] = "us"
    units["atomicity.atomicity_calls_per_tx"] = "count"
    units["atomicity.views_stored"] = "count"
    for name in ("admit", "request", "finish", "remove"):
        for decile in ("d0", "d9"):
            units[f"scheduler.{name}_us.{decile}"] = "us"
    for decile in ("d0", "d9"):
        units[f"scheduler.history_len.{decile}"] = "count"
    for name in ("try_certify", "forget"):
        for decile in ("d0", "d9"):
            units[f"certifier.{name}_us.{decile}"] = "us"
    for name in ("rejected", "forgets", "fallback_rebuilds"):
        units[f"certifier.{name}"] = "count"
    units["certifier.replayed_per_forget"] = "count"
    units["certifier.abort_ratio"] = "ratio"
    for decile in ("d0", "d9"):
        units[f"rsg.nodes.{decile}"] = "count"
        for kind in "IDFB":
            units[f"rsg.arcs_{kind}.{decile}"] = "count"
    units["rsg.try_push_per_tx"] = "count"
    for name in ("build", "acyclic", "witness"):
        units[f"rsg.{name}_us"] = "us"
    units["dependency.build_us"] = "us"
    for name in ("write", "commit", "abort"):
        for decile in ("d0", "d9"):
            units[f"kvstore.{name}_us.{decile}"] = "us"
    for decile in ("d0", "d9"):
        units[f"kvstore.wal_size.{decile}"] = "count"
    units["trace.overhead_pct"] = "%"
    units["drain.deadline_s"] = "s"
    units["drain.over_deadline"] = "count"
    units["failed_ratio"] = "ratio"
    return units


PER_LAYER = _per_layer_units()


#: Ledger bucket selectors: every load decile, or every bucket at all.
_LOAD = "load"
_ALL = "all"


def _mean_us(ledger: dict, name: str, decile: int | str = _ALL) -> float:
    """Mean microseconds per call of a ledger row (0 when never called).

    ``decile`` is one age decile, :data:`_LOAD` (all deciles, drain
    excluded) or :data:`_ALL` (drain included).
    """
    rows = ledger["timed"].get(name)
    if not rows:
        return 0.0
    if decile == _ALL:
        picked = rows
    elif decile == _LOAD:
        picked = rows[:-1]
    else:
        picked = [rows[decile]]
    calls = sum(row[0] for row in picked)
    return sum(row[1] for row in picked) / calls / 1000.0 if calls else 0.0


def _load_count(ledger: dict, name: str) -> int:
    """Calls of a counted row made before the drain."""
    return sum(ledger["counted"].get(name, [0])[:-1])


def _gauge(ledger: dict, name: str, decile: int) -> float:
    values = ledger["gauges"].get(name)
    return float(values[decile] or 0) if values else 0.0


def ledger_metrics(ledger: dict, committed: int) -> dict[str, float]:
    """Per-layer metrics read off a launcher ledger."""
    out: dict[str, float] = {}
    last = 9
    for name in ("new_session", "step", "commit", "abort"):
        out[f"tenant.{name}_us.d0"] = _mean_us(ledger, f"tenant.{name}", 0)
        out[f"tenant.{name}_us.d9"] = _mean_us(ledger, f"tenant.{name}", last)
    certify = ledger["timed"].get("tenant.certify")
    out["tenant.certify_s"] = sum(row[1] for row in certify) / 1e9 if certify else 0.0
    out["atomicity.declare_us.d0"] = _mean_us(ledger, "atomicity.declare", 0)
    out["atomicity.declare_us.d9"] = _mean_us(ledger, "atomicity.declare", last)
    per_tx = max(1, committed)
    out["atomicity.atomicity_calls_per_tx"] = _load_count(ledger, "atomicity.atomicity") / per_tx
    out["atomicity.views_stored"] = float(ledger["atomicity_views"])
    for name in ("admit", "request", "finish", "remove"):
        out[f"scheduler.{name}_us.d0"] = _mean_us(ledger, f"scheduler.{name}", 0)
        out[f"scheduler.{name}_us.d9"] = _mean_us(ledger, f"scheduler.{name}", last)
    for name in ("try_certify", "forget"):
        out[f"certifier.{name}_us.d0"] = _mean_us(ledger, f"certifier.{name}", 0)
        out[f"certifier.{name}_us.d9"] = _mean_us(ledger, f"certifier.{name}", last)
    stats = ledger["certifier"]
    out["certifier.rejected"] = float(stats["rejected"])
    out["certifier.forgets"] = float(stats["forgets"])
    out["certifier.fallback_rebuilds"] = float(stats["fallback_rebuilds"])
    out["certifier.replayed_per_forget"] = (
        stats["replayed"] / stats["forgets"] if stats["forgets"] else 0.0
    )
    attempts = stats["certified"] + stats["rejected"]
    out["certifier.abort_ratio"] = stats["rejected"] / attempts if attempts else 0.0
    for decile, tag in ((0, "d0"), (last, "d9")):
        out[f"scheduler.history_len.{tag}"] = _gauge(ledger, "scheduler.history_len", decile)
        out[f"rsg.nodes.{tag}"] = _gauge(ledger, "rsg.nodes", decile)
        for kind in "IDFB":
            out[f"rsg.arcs_{kind}.{tag}"] = _gauge(ledger, f"rsg.arcs_{kind}", decile)
        out[f"kvstore.wal_size.{tag}"] = _gauge(ledger, "kvstore.wal_size", decile)
    out["rsg.try_push_per_tx"] = _load_count(ledger, "rsg.try_push") / per_tx
    out["rsg.build_us"] = _mean_us(ledger, "rsg.build")
    out["rsg.acyclic_us"] = _mean_us(ledger, "rsg.acyclic")
    out["rsg.witness_us"] = _mean_us(ledger, "rsg.witness")
    out["dependency.build_us"] = _mean_us(ledger, "dependency.build")
    for name in ("write", "commit", "abort"):
        out[f"kvstore.{name}_us.d0"] = _mean_us(ledger, f"kvstore.{name}", 0)
        out[f"kvstore.{name}_us.d9"] = _mean_us(ledger, f"kvstore.{name}", last)
    return out


def _verb_hist(metrics: dict, verb: str) -> dict:
    return metrics["histograms"].get(
        f"service.verb_latency_us{{verb={verb}}}", {"count": 0, "sum": 0, "p50": 0}
    )


#: Server verbs whose tenant time one ledger row covers (``Tenant.step``
#: serves both read and write, so their self time is reported together).
_VERB_GROUPS = {
    "begin": (("begin",), "tenant.new_session"),
    "step": (("read", "write"), "tenant.step"),
    "commit": (("commit",), "tenant.commit"),
}


def service_per_layer(reference, traced) -> dict[str, float]:
    """Per-layer metrics of a service workload from its two lifetimes."""
    import service_bench

    out = {name: 0.0 for name in PER_LAYER}
    out.update(ledger_metrics(traced.ledger, traced.stats.committed))
    for verb in SERVICE_VERBS:
        out[f"client.rtt_p50_us.{verb}"] = statistics.median(reference.stats.rtt[verb]) * 1e6
        out[f"server.verb_p50_us.{verb}"] = float(_verb_hist(reference.server_metrics, verb)["p50"])
    for group, (verbs, row) in _VERB_GROUPS.items():
        hists = [_verb_hist(traced.server_metrics, verb) for verb in verbs]
        count = sum(hist["count"] for hist in hists)
        verb_mean = sum(hist["sum"] for hist in hists) / count if count else 0.0
        out[f"server.self_us.{group}"] = verb_mean - _mean_us(traced.ledger, row, _LOAD)
    out["server.shed"] = float(reference.shed)
    out["server.cpu_ms_per_tx"] = reference.cpu_s * 1000.0 / max(1, reference.stats.committed)
    ref_rate = service_bench.end_to_end([reference])["tx_per_s"]
    traced_rate = service_bench.end_to_end([traced])["tx_per_s"]
    out["trace.overhead_pct"] = (ref_rate - traced_rate) / ref_rate * 100.0
    out["drain.deadline_s"] = service_bench.SERVER_DRAIN_DEADLINE_S
    out["drain.over_deadline"] = float(reference.drain_s > service_bench.SERVER_DRAIN_DEADLINE_S)
    attempted = reference.stats.attempted + traced.stats.attempted
    out["failed_ratio"] = (reference.stats.failed + traced.stats.failed) / attempted
    return out


def offline_per_layer(reference, traced, ledger) -> dict[str, float]:
    """Per-layer metrics of ``offline-rsg``: the service layers read 0."""
    import offline_bench

    out = {name: 0.0 for name in PER_LAYER}
    ledger_data = ledger.to_dict()
    for name in ("rsg.build_us", "rsg.acyclic_us", "rsg.witness_us", "dependency.build_us"):
        out[name] = ledger_metrics(ledger_data, 0)[name]
    ref_rate = offline_bench.end_to_end(reference)["schedules_per_s"]
    traced_rate = offline_bench.end_to_end(traced)["schedules_per_s"]
    out["trace.overhead_pct"] = (ref_rate - traced_rate) / ref_rate * 100.0
    out["failed_ratio"] = (reference.failed + traced.failed) / (reference.verdicts + traced.verdicts)
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: bool, run_dir: Path) -> tuple[dict, dict]:
    """One benchmark run; returns ``(result line, details)``."""
    if workload == "offline-rsg":
        import offline_bench

        if not trace:
            result = offline_bench.run(seed, seconds)
            metrics = offline_bench.end_to_end(result)
            runs = [result]
        else:
            import launcher

            ledger = launcher.Ledger(0)
            reference, traced = offline_bench.traced_run(seed, seconds, ledger)
            metrics = offline_per_layer(reference, traced, ledger)
            runs = [reference, traced]
        problems = [p for r in runs for p in r.problems]
        attempted = sum(r.verdicts for r in runs)
        failed = sum(r.failed for r in runs)
        info = offline_bench.details(runs[-1])
    else:
        import service_bench

        if not trace:
            lives = [
                service_bench.serve_lifetime(workload, seed, run_dir, index=index)
                for index in range(service_bench.LIFETIMES[workload])
            ]
            metrics = service_bench.end_to_end(lives)
        else:
            reference = service_bench.serve_lifetime(workload, seed, run_dir, observe=True)
            traced = service_bench.serve_lifetime(workload, seed, run_dir, traced=True)
            metrics = service_per_layer(reference, traced)
            lives = [reference, traced]
        problems = [p for life in lives for p in service_bench.problems(life)]
        if trace and metrics["certifier.fallback_rebuilds"]:
            problems.append("the certifier fell back to a full rebuild")
        attempted = sum(life.stats.attempted for life in lives)
        failed = sum(life.stats.failed for life in lives)
        info = service_bench.details(lives)
    units = PER_LAYER if trace else END_TO_END
    line = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    info["problems"] = problems
    return line, info


def _print_all(seed: int, seconds: int, run_root: Path) -> int:
    ok = True
    for workload in WORKLOADS:
        run_dir = run_root / workload
        run_dir.mkdir(parents=True)
        line, info = run_workload(workload, seed, seconds, False, run_dir)
        ok = ok and line["correct"]
        print(f"== {workload} (seed {seed}) correct={line['correct']} "
              f"attempted={line['attempted']} failed={line['failed']}")
        for name, metric in line["metrics"].items():
            print(f"  {name:<18} {metric['value']:>14.4f} {metric['unit']}")
        print(f"  {'failed_ratio':<18} {info['failed_ratio']:>14.4f} ratio")
        if "drain_over_deadline" in info:
            print(f"  drain {info['drain_s']:.2f} s against drain_timeout_s "
                  f"{info['drain_timeout_s']:.1f} s: drain_over_deadline="
                  f"{info['drain_over_deadline']}")
        print(f"  tail = p{info['commit_tail_percentile']:g} "
              f"({info['commit_tail_beyond']} samples beyond)")
        for problem in info["problems"]:
            print(f"  PROBLEM: {problem}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    run_root = root / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    run_root.mkdir(parents=True)
    try:
        if args.workload == "all":
            return _print_all(args.seed, args.seconds, run_root)
        line, info = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), run_root
        )
        print(json.dumps({"details": info}))
        print(json.dumps(line))
        return 0 if line["correct"] else 1
    finally:
        shutil.rmtree(run_root, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            run_root.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
