"""The ``offline-rsg`` workload: Theorem 1 verdicts on a seeded corpus.

This is the analyst path (``repro rsg``/``witness``/``census``): for each
``(schedule, spec)`` build ``RelativeSerializationGraph``, test
``is_acyclic``, and extract a witness with
``equivalent_relatively_serial_schedule`` when it is acyclic.  All of it
runs in this process; the service, protocols and engine do no work.

The timed region repeats whole passes over the corpus for ``--seconds``,
with a host-speed calibration sample (``harness.calibrate``) between
passes; each pass is scaled by the samples on either side of it, so the
metrics read as times on the reference host (see README.md, "Noise").
Outside it, every verdict is cross-checked against the brute-force
definition (``core.brute``) on the members small enough for it, and
every witness must be relatively serial (``core.checkers``) and
conflict-equivalent to its input.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from harness import calibrate, host_scale, tail_percentile
from repro.core.brute import brute_force_relatively_serializable
from repro.core.checkers import is_relatively_serial
from repro.core.rsg import RelativeSerializationGraph
from repro.core.schedules import conflict_equivalent
from workloads import offline_corpus

#: Schedules in the corpus.
CORPUS_SIZE = 800
#: Corpus builds timed per run (``setup_s`` is their median).
SETUPS = 9
#: Largest schedule (in operations) the brute-force oracle checks.
BRUTE_MAX_OPS = 10
#: Calibration samples taken between two passes (or corpus builds).
SAMPLES_BETWEEN = 5


@dataclass
class OfflineRun:
    """What one offline run measured."""

    #: Corpus build times, scaled to the reference host.
    setups: list[float]
    verdicts: int = 0
    transactions: int = 0
    latencies: list[float] = field(default_factory=list)
    pass_times: list[float] = field(default_factory=list)
    #: Per pass, the factor that scales its times to the reference host.
    pass_scales: list[float] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    acyclic: int = 0
    brute_checked: int = 0
    rss_mb: float = 0.0


def check(schedule, spec):
    """The analyst's call sequence: verdict, plus witness when acyclic."""
    rsg = RelativeSerializationGraph(schedule, spec)
    if rsg.is_acyclic:
        return True, rsg.equivalent_relatively_serial_schedule()
    return False, None


def _samples() -> list[float]:
    return [calibrate() for _ in range(SAMPLES_BETWEEN)]


def build_corpus(seed: int) -> tuple[list, list[float]]:
    """The corpus, built :data:`SETUPS` times; returns it and the timings,
    each scaled to the reference host."""
    timings = []
    corpus: list = []
    before = _samples()
    for _ in range(SETUPS):
        start = time.perf_counter()
        corpus = offline_corpus(seed, CORPUS_SIZE)
        taken = time.perf_counter() - start
        after = _samples()
        timings.append(taken * host_scale(before + after))
        before = after
    return corpus, timings


def oracle_flags(corpus) -> tuple[list[bool | None], list[str], int]:
    """Independent verdicts and witness checks, outside any timed region.

    Returns, per member, the verdict a timed run must give (``None``
    where the member is too large for the brute-force oracle and its
    witness, if any, checked out; ``not verdict`` where the witness is
    bad, so every timed verdict on it counts as failed), the problems
    found, and how many members the oracle checked.
    """
    expected: list[bool | None] = []
    problems = []
    checked = 0
    for index, (schedule, spec) in enumerate(corpus):
        verdict, witness = check(schedule, spec)
        oracle = None
        if len(schedule) <= BRUTE_MAX_OPS:
            oracle = brute_force_relatively_serializable(schedule, spec)
            checked += 1
            if oracle != verdict:
                problems.append(
                    f"member {index}: RSG says {verdict}, brute force {oracle}"
                )
        if witness is not None and not (
            is_relatively_serial(witness, spec)
            and conflict_equivalent(witness, schedule)
        ):
            problems.append(f"member {index}: witness fails Definition 2 "
                            "or conflict equivalence")
            oracle = not verdict
        expected.append(oracle)
    return expected, problems, checked


def _peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def _passes(corpus, result: OfflineRun, *, until: float | None = None, passes: int = 0) -> list[bool]:
    """Whole passes over ``corpus``: until ``until`` or ``passes`` times."""
    clock = time.perf_counter
    verdicts: list[bool] = []
    before = _samples()
    while (until is not None and clock() < until) or len(result.pass_times) < passes:
        pass_start = clock()
        for schedule, spec in corpus:
            begun = clock()
            acyclic, _witness = check(schedule, spec)
            result.latencies.append(clock() - begun)
            verdicts.append(acyclic)
        result.pass_times.append(clock() - pass_start)
        after = _samples()
        result.pass_scales.append(host_scale(before + after))
        before = after
    result.verdicts = len(verdicts)
    result.transactions = len(result.pass_times) * sum(
        len(schedule.transactions) for schedule, _spec in corpus
    )
    return verdicts


def _cross_check(corpus, result: OfflineRun, verdicts: list[bool], oracle) -> None:
    expected, result.problems, result.brute_checked = oracle
    result.acyclic = sum(1 for flag in verdicts[: len(corpus)] if flag)
    result.failed = sum(
        1
        for index, verdict in enumerate(verdicts)
        if expected[index % len(corpus)] not in (None, verdict)
    )


def run(seed: int, seconds: float) -> OfflineRun:
    """Build the corpus, time passes for ``seconds``, then cross-check."""
    corpus, setups = build_corpus(seed)
    result = OfflineRun(setups=setups)
    verdicts = _passes(corpus, result, until=time.perf_counter() + seconds)
    result.rss_mb = _peak_rss_mb()
    _cross_check(corpus, result, verdicts, oracle_flags(corpus))
    return result


def traced_run(seed: int, seconds: float, ledger) -> tuple[OfflineRun, OfflineRun]:
    """An untraced reference for half of ``seconds``, then as many passes
    again with ``ledger`` installed; returns ``(reference, traced)``."""
    import launcher

    corpus, setups = build_corpus(seed)
    reference = OfflineRun(setups=setups)
    ref_verdicts = _passes(corpus, reference, until=time.perf_counter() + seconds / 2)
    traced = OfflineRun(setups=setups)
    saved = launcher.install(ledger)
    try:
        verdicts = _passes(corpus, traced, passes=len(reference.pass_times))
    finally:
        launcher.uninstall(saved)
    traced.rss_mb = reference.rss_mb = _peak_rss_mb()
    oracle = oracle_flags(corpus)
    _cross_check(corpus, reference, ref_verdicts, oracle)
    _cross_check(corpus, traced, verdicts, oracle)
    return reference, traced


def end_to_end(result: OfflineRun) -> dict[str, float]:
    """The end-to-end metrics of one offline run (see README.md).

    Every pass checks the same corpus.  Each pass's times are scaled to
    the reference host by the calibration samples on either side of it,
    and each metric is the median over the passes.  A corpus has no age,
    so early and late are the median pass of the first and of the second
    half of the run: a slowdown as the checking process ages (growing
    caches, say) still shows as late over early.
    """
    passes = len(result.pass_times)
    size = len(result.latencies) // passes
    scales = result.pass_scales
    per_pass = [result.latencies[i * size:(i + 1) * size] for i in range(passes)]
    scaled = [taken * scale for taken, scale in zip(result.pass_times, scales)]
    median_pass = statistics.median(scaled)
    half = max(1, passes // 2)
    return {
        "setup_s": statistics.median(result.setups),
        "tx_per_s": result.transactions / passes / median_pass,
        "commit_p50_ms": statistics.median(
            statistics.median(one) * scale for one, scale in zip(per_pass, scales)
        ) * 1000.0,
        "commit_tail_ms": statistics.median(
            tail_percentile(one)[1] * scale for one, scale in zip(per_pass, scales)
        ) * 1000.0,
        "early_ms_per_tx": statistics.median(scaled[:half]) / size * 1000.0,
        "late_ms_per_tx": statistics.median(scaled[-half:]) / size * 1000.0,
        "drain_s": median_pass,
        "server_rss_mb": result.rss_mb,
        "schedules_per_s": size / median_pass,
    }


def details(result: OfflineRun) -> dict:
    pct, _tail, beyond = tail_percentile(result.latencies[:CORPUS_SIZE])
    return {
        "corpus": CORPUS_SIZE,
        "passes": len(result.pass_times),
        "host_scale_median": statistics.median(result.pass_scales),
        "verdicts": result.verdicts,
        "acyclic_share": result.acyclic / CORPUS_SIZE,
        "brute_checked": result.brute_checked,
        "failed_ratio": result.failed / result.verdicts,
        "commit_tail_percentile": pct,
        "commit_tail_beyond": beyond,
    }
