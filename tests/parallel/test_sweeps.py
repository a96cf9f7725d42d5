"""Parallel sweeps must be indistinguishable from the serial sweeps."""

import dataclasses
import pickle
import random

from repro.analysis.acceptance import acceptance_for_spec, acceptance_sweep
from repro.analysis.classes import census, census_exhaustive
from repro.analysis.containment import check_containments
from repro.core.transactions import Transaction
from repro.parallel.executor import CRASH_ONCE_ENV, shutdown_pools
from repro.parallel.sweeps import (
    census_exhaustive_parallel,
    census_schedules,
    check_containments_parallel,
)
from repro.specs.builders import random_spec, uniform_spec
from repro.workloads.random_schedules import (
    random_schedules,
    random_transactions,
)


def _txs():
    return [
        Transaction.from_notation(1, "r[x] w[x] r[y]"),
        Transaction.from_notation(2, "w[x] r[y] w[y]"),
        Transaction.from_notation(3, "r[y] w[z]"),
    ]


def _census_fields(result):
    return {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name != "witnesses"
    }


class TestCensusParallel:
    def test_exhaustive_census_identical_across_job_counts(self):
        txs = _txs()
        spec = uniform_spec(txs, 1)
        serial = census_exhaustive(txs, spec)
        for jobs in (2, 3):
            parallel = census_exhaustive(txs, spec, jobs=jobs)
            assert _census_fields(parallel) == _census_fields(serial)
            assert parallel.witnesses == serial.witnesses

    def test_population_census_matches_serial(self):
        txs = _txs()
        spec = uniform_spec(txs, 1)
        population = random_schedules(txs, 50, random.Random(11))
        serial = census(population, spec)
        parallel = census(population, spec, jobs=2)
        assert _census_fields(parallel) == _census_fields(serial)
        assert parallel.witnesses == serial.witnesses

    def test_more_jobs_than_schedules(self):
        txs = _txs()
        spec = uniform_spec(txs, 1)
        population = random_schedules(txs, 3, random.Random(5))
        serial = census(population, spec)
        parallel = census(population, spec, jobs=16)
        assert _census_fields(parallel) == _census_fields(serial)


class TestByteEquality:
    """jobs=4 output must be byte-for-byte the jobs=1 output.

    ``min_block=1`` forces these small populations through the real
    warm pool (the default floors would run them inline); pickled
    bytes compare everything — counts, witness schedules, dict
    insertion order — at once.
    """

    def test_exhaustive_census_bytes(self):
        txs = _txs()
        spec = uniform_spec(txs, 1)
        serial = census_exhaustive_parallel(txs, spec, jobs=1)
        parallel = census_exhaustive_parallel(
            txs, spec, jobs=4, min_block=1
        )
        assert pickle.dumps(parallel) == pickle.dumps(serial)

    def test_population_census_bytes(self):
        txs = _txs()
        spec = uniform_spec(txs, 1)
        population = random_schedules(txs, 40, random.Random(3))
        serial = census(population, spec)
        parallel = census_schedules(
            population, spec, jobs=4, min_block=1
        )
        assert pickle.dumps(parallel) == pickle.dumps(serial)

    def test_containment_report_bytes(self):
        txs = _txs()
        spec = uniform_spec(txs, 1)
        population = random_schedules(txs, 40, random.Random(9))
        serial = check_containments(population, spec)
        parallel = check_containments_parallel(
            population, spec, jobs=4, min_block=1
        )
        assert pickle.dumps(parallel) == pickle.dumps(serial)

    def test_census_bytes_survive_one_worker_crash(
        self, tmp_path, monkeypatch
    ):
        # Inject one real worker death mid-sweep: the executor discards
        # the broken pool, reruns on a fresh one, and the merged census
        # must still be byte-identical to serial.
        txs = _txs()
        spec = uniform_spec(txs, 1)
        serial = census_exhaustive_parallel(txs, spec, jobs=1)
        shutdown_pools()
        monkeypatch.setenv(
            CRASH_ONCE_ENV, str(tmp_path / "sweep-crash-once")
        )
        try:
            parallel = census_exhaustive_parallel(
                txs, spec, jobs=4, min_block=1
            )
        finally:
            shutdown_pools()
        assert (tmp_path / "sweep-crash-once").exists()
        assert pickle.dumps(parallel) == pickle.dumps(serial)


class TestJobCountInvariance:
    """The default serial call is the reference: ``jobs=2`` and
    ``jobs=4`` must reproduce it exactly, witnesses and their order
    included, on populations whose schedules arrive in random order.

    Compared field by field, not as pickles: a witness found in a later
    block is an equal schedule whose transactions are not the same
    objects as an earlier block's, which only changes the pickle memo.
    """

    def test_population_sweeps_match_default_serial(self):
        for seed in range(10):
            txs = random_transactions(3, 4, 3, seed=seed)
            spec = random_spec(txs, 0.5, seed=seed)
            population = random_schedules(txs, 80, seed=seed)
            serial = census(population, spec, 20_000)
            contained = check_containments(population, spec, 20_000)
            for jobs in (2, 4):
                result = census(population, spec, 20_000, jobs=jobs)
                assert _census_fields(result) == _census_fields(serial)
                assert result.witnesses == serial.witnesses
                assert list(result.witnesses) == list(serial.witnesses)
                report = check_containments(
                    population, spec, 20_000, jobs=jobs
                )
                assert report.checked == contained.checked
                assert report.undecided == contained.undecided
                assert report.violations == contained.violations
                assert report.proper_witnesses == contained.proper_witnesses
                assert list(report.proper_witnesses) == list(
                    contained.proper_witnesses
                )


class TestContainmentParallel:
    def test_report_identical_to_serial(self):
        txs = _txs()
        spec = uniform_spec(txs, 1)
        population = random_schedules(txs, 60, random.Random(7))
        serial = check_containments(population, spec)
        parallel = check_containments(population, spec, jobs=2)
        assert parallel.checked == serial.checked
        assert parallel.undecided == serial.undecided
        assert parallel.violations == serial.violations
        assert parallel.proper_witnesses == serial.proper_witnesses


class TestAcceptanceParallel:
    def test_spec_census_identical_to_serial(self):
        txs = _txs()
        spec = uniform_spec(txs, 1)
        serial = acceptance_for_spec(txs, spec, samples=40, seed=2)
        parallel = acceptance_for_spec(txs, spec, samples=40, seed=2, jobs=2)
        assert _census_fields(parallel) == _census_fields(serial)
        assert parallel.witnesses == serial.witnesses

    def test_sweep_rows_identical_to_serial(self):
        assert acceptance_sweep(samples=20, jobs=2) == acceptance_sweep(
            samples=20
        )
