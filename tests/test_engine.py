"""Tests for the parallel experiment engine, its cache, and the open registry."""

import multiprocessing
import os
import time

import pytest

from repro.analysis.persistence import append_events, read_grid, write_grid
from repro.core.scheduler import Scheduler
from repro.experiments.engine import (
    CACHE_VERSION,
    ExperimentEngine,
    ResultCache,
    cell_fingerprint,
    fingerprint_jobs,
)
from repro.failures import FailureTrace, NodeFailure, mtbf_trace
from repro.experiments.paper import probabilistic_workload
from repro.experiments.runner import GridResult, TimingScheduler, run_grid
from repro.experiments.tables import format_grid
from repro.scenarios import FailureModel, ScenarioSpec
from repro.schedulers.baselines import KeyOrderPolicy
from repro.schedulers.registry import (
    SchedulerConfig,
    paper_configurations,
    register_discipline,
    register_row,
    registered_columns,
    registered_configurations,
    registered_rows,
    unregister_row,
)
from tests.conftest import make_jobs


@pytest.fixture(scope="module")
def workload():
    """The probabilistic workload of the parallel-equivalence requirement."""
    return probabilistic_workload(110, seed=7)


# -- fingerprints --------------------------------------------------------------


class TestFingerprints:
    def test_stable_across_calls(self, workload):
        assert fingerprint_jobs(workload) == fingerprint_jobs(list(workload))

    def test_sensitive_to_any_job_field(self, workload):
        base = fingerprint_jobs(workload)
        perturbed = list(workload)
        job = perturbed[5]
        perturbed[5] = type(job)(
            job_id=job.job_id,
            submit_time=job.submit_time,
            nodes=job.nodes,
            runtime=job.runtime + 1e-9,
            estimate=job.estimate,
            user=job.user,
            weight=job.weight,
        )
        assert fingerprint_jobs(perturbed) != base

    def test_cell_fingerprint_axes(self, workload):
        digest = fingerprint_jobs(workload)
        cfg = SchedulerConfig("fcfs", "easy")
        base = cell_fingerprint(digest, cfg, total_nodes=256, weighted=False)
        assert base == cell_fingerprint(digest, cfg, total_nodes=256, weighted=False)
        assert base != cell_fingerprint(digest, cfg, total_nodes=128, weighted=False)
        assert base != cell_fingerprint(digest, cfg, total_nodes=256, weighted=True)
        assert base != cell_fingerprint(
            digest, SchedulerConfig("psrs", "easy"), total_nodes=256, weighted=False
        )
        assert base != cell_fingerprint(
            digest, cfg, total_nodes=256, weighted=False, recompute_threshold=0.5
        )


# -- the on-disk cache ---------------------------------------------------------


class TestResultCache:
    def test_miss_then_roundtrip(self, tmp_path, workload):
        cache = ResultCache(tmp_path)
        grid = run_grid(workload[:30], total_nodes=256,
                        configs=[SchedulerConfig("fcfs", "easy")])
        cell = grid.cells["fcfs/easy"]
        assert cache.get("ab" * 32) is None
        cache.put("ab" * 32, cell)
        loaded = cache.get("ab" * 32)
        assert loaded is not None
        assert loaded.objective == cell.objective
        assert loaded.config == cell.config
        assert loaded.makespan == cell.makespan

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.path("cd" * 32)
        path.parent.mkdir(parents=True)
        path.write_text("{not json", encoding="utf-8")
        assert cache.get("cd" * 32) is None

    def test_version_skew_reads_as_miss(self, tmp_path, workload):
        cache = ResultCache(tmp_path)
        grid = run_grid(workload[:20], total_nodes=256,
                        configs=[SchedulerConfig("fcfs", "list")])
        cache.put("ef" * 32, grid.cells["fcfs/list"])
        path = cache.path("ef" * 32)
        payload = path.read_text(encoding="utf-8").replace(
            f'"version": {CACHE_VERSION}', f'"version": {CACHE_VERSION + 1}'
        )
        path.write_text(payload, encoding="utf-8")
        assert cache.get("ef" * 32) is None
        # Version skew means this library version can never serve the entry:
        # the miss evicts it so the slot is rewritten instead of re-read and
        # re-rejected on every run.
        assert not path.exists()
        assert not path.with_suffix(".corrupt").exists()

    def test_older_version_entries_are_evicted(self, tmp_path, workload):
        """Entries written before a CACHE_VERSION bump (e.g. the v3 → v4
        scenario-digest bump) read as misses and are evicted — both
        through get() and through prune()."""
        cache = ResultCache(tmp_path)
        grid = run_grid(workload[:20], total_nodes=256,
                        configs=[SchedulerConfig("fcfs", "list")])
        for key, old_version in (("ab" * 32, CACHE_VERSION - 1), ("ba" * 32, 1)):
            cache.put(key, grid.cells["fcfs/list"])
            path = cache.path(key)
            path.write_text(
                path.read_text(encoding="utf-8").replace(
                    f'"version": {CACHE_VERSION}', f'"version": {old_version}'
                ),
                encoding="utf-8",
            )
            assert cache.status(key) == "stale"
        assert cache.get("ab" * 32) is None
        assert not cache.path("ab" * 32).exists()
        stats = cache.prune()
        assert stats.stale_evicted == 1  # the one get() had not evicted yet
        assert not cache.path("ba" * 32).exists()

    def test_status_is_nondestructive(self, tmp_path, workload):
        cache = ResultCache(tmp_path)
        grid = run_grid(workload[:20], total_nodes=256,
                        configs=[SchedulerConfig("fcfs", "list")])
        cache.put("aa" * 32, grid.cells["fcfs/list"])
        stale = cache.path("bb" * 32)
        stale.parent.mkdir(parents=True, exist_ok=True)
        stale.write_text(
            cache.path("aa" * 32).read_text(encoding="utf-8").replace(
                f'"version": {CACHE_VERSION}', f'"version": {CACHE_VERSION + 1}'
            ),
            encoding="utf-8",
        )
        corrupt = cache.path("cc" * 32)
        corrupt.parent.mkdir(parents=True, exist_ok=True)
        corrupt.write_text("{not json", encoding="utf-8")
        assert cache.status("aa" * 32) == "hit"
        assert cache.status("bb" * 32) == "stale"
        assert cache.status("cc" * 32) == "corrupt"
        assert cache.status("dd" * 32) == "miss"
        # status() inspects without evicting or quarantining anything.
        assert stale.exists() and corrupt.exists()

    def test_prune_sweeps_stale_corrupt_and_tmp(self, tmp_path, workload):
        import os

        cache = ResultCache(tmp_path)
        grid = run_grid(workload[:20], total_nodes=256,
                        configs=[SchedulerConfig("fcfs", "list")])
        cache.put("aa" * 32, grid.cells["fcfs/list"])
        stale = cache.path("bb" * 32)
        stale.parent.mkdir(parents=True, exist_ok=True)
        stale.write_text(
            cache.path("aa" * 32).read_text(encoding="utf-8").replace(
                f'"version": {CACHE_VERSION}', f'"version": {CACHE_VERSION + 1}'
            ),
            encoding="utf-8",
        )
        corrupt = cache.path("cc" * 32)
        corrupt.parent.mkdir(parents=True, exist_ok=True)
        corrupt.write_text("{not json", encoding="utf-8")
        old_tmp = stale.parent / ".leftover.12345.tmp"
        old_tmp.write_text("partial", encoding="utf-8")
        ancient = 10_000.0
        os.utime(old_tmp, (ancient, ancient))
        fresh_tmp = stale.parent / ".inflight.12346.tmp"
        fresh_tmp.write_text("partial", encoding="utf-8")

        stats = cache.prune()
        assert stats.stale_evicted == 1 and not stale.exists()
        assert stats.quarantined == 1 and not corrupt.exists()
        assert corrupt.with_suffix(".corrupt").exists()
        assert stats.tmp_removed == 1 and not old_tmp.exists()
        assert fresh_tmp.exists()  # an in-flight put must survive the sweep
        assert stats.scanned >= 3
        assert "stale" in stats.describe()
        # The healthy entry is untouched and still serves.
        assert cache.get("aa" * 32) is not None

    def test_corrupt_entry_quarantined_not_retried(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.path("cd" * 32)
        path.parent.mkdir(parents=True)
        path.write_text("{not json", encoding="utf-8")
        assert cache.get("cd" * 32) is None
        assert not path.exists()
        assert path.with_suffix(".corrupt").exists()

    def test_wrong_shape_entry_quarantined(self, tmp_path):
        import json

        cache = ResultCache(tmp_path)
        path = cache.path("ee" * 32)
        path.parent.mkdir(parents=True)
        # Right version, but the cell payload is missing entirely.
        path.write_text(json.dumps({"version": CACHE_VERSION}), encoding="utf-8")
        assert cache.get("ee" * 32) is None
        assert path.with_suffix(".corrupt").exists()

    def test_put_finalizes_atomically(self, tmp_path, workload):
        cache = ResultCache(tmp_path)
        grid = run_grid(workload[:20], total_nodes=256,
                        configs=[SchedulerConfig("fcfs", "list")])
        cache.put("ff" * 32, grid.cells["fcfs/list"])
        entry_dir = cache.path("ff" * 32).parent
        # os.replace finalization never leaves partial temp files behind.
        assert [p.name for p in entry_dir.iterdir()] == [f"{'ff' * 32}.json"]


# -- parallel equivalence and cache-served re-runs -----------------------------


class TestParallelEquivalence:
    def test_workers4_matches_serial_and_warm_cache_skips_all(
        self, tmp_path, workload
    ):
        serial = run_grid(workload, total_nodes=256)

        engine = ExperimentEngine(workers=4, cache=tmp_path / "cache")
        parallel = engine.run(workload, total_nodes=256)
        assert engine.stats.simulated == 13
        assert engine.stats.cache_hits == 0
        assert list(parallel.cells) == list(serial.cells)
        for key in serial.cells:
            # bit-identical objectives, not approx: same pure computation.
            assert parallel.cells[key].objective == serial.cells[key].objective
            assert parallel.cells[key].makespan == serial.cells[key].makespan

        warm = ExperimentEngine(workers=4, cache=tmp_path / "cache")
        again = warm.run(workload, total_nodes=256)
        assert warm.stats.simulated == 0
        assert warm.stats.cache_hits == 13
        for key in serial.cells:
            assert again.cells[key].objective == serial.cells[key].objective

    def test_partial_cache_simulates_only_missing_cells(self, tmp_path, workload):
        subset = list(paper_configurations())[:3]
        first = ExperimentEngine(workers=1, cache=tmp_path)
        first.run(workload, total_nodes=256, configs=subset)
        full = ExperimentEngine(workers=2, cache=tmp_path)
        full.run(workload, total_nodes=256)
        assert full.stats.cache_hits == 3
        assert full.stats.simulated == 10

    def test_progress_callback_in_config_order(self, workload):
        configs = list(paper_configurations())
        seen = []
        ExperimentEngine(workers=4).run(
            workload[:40],
            total_nodes=256,
            configs=configs,
            progress=lambda cfg, cell: seen.append(cfg.key),
        )
        assert seen == [c.key for c in configs]


class TestWorkloadStore:
    def test_store_on_matches_store_off_over_full_registry(self, workload):
        """Zero-copy dispatch changes bytes on the wire, never objectives.

        The full registry grid (not just the paper's 13 cells) under the
        warm store must equal the per-cell-pickle legacy path cell for
        cell, bit for bit.
        """
        configs = list(registered_configurations())
        jobs = workload[:40]
        with_store = ExperimentEngine(workers=2, use_workload_store=True).run(
            jobs, total_nodes=256, configs=configs
        )
        without_store = ExperimentEngine(workers=2, use_workload_store=False).run(
            jobs, total_nodes=256, configs=configs
        )
        assert list(with_store.cells) == list(without_store.cells)
        for key in with_store.cells:
            assert (
                with_store.cells[key].objective
                == without_store.cells[key].objective
            )
            assert (
                with_store.cells[key].makespan == without_store.cells[key].makespan
            )

    def test_store_registers_once_per_digest(self, workload):
        from repro.experiments.workload_store import WorkloadStore

        store = WorkloadStore()
        digest = fingerprint_jobs(workload)
        first = store.register(digest, workload)
        again = store.register(digest, workload)
        assert first is again  # packed once, reused
        assert store.entries(digest) == ((digest, first),)
        with pytest.raises(KeyError):
            store.entries("no-such-digest")

    def test_store_evicts_oldest_beyond_capacity(self, workload):
        from repro.experiments.workload_store import WorkloadStore

        store = WorkloadStore()
        for i in range(WorkloadStore.MAX_ENTRIES + 2):
            store.register(f"digest-{i}", workload[:5])
        assert len(store) == WorkloadStore.MAX_ENTRIES
        assert store.get("digest-0") is None  # oldest evicted
        assert store.get(f"digest-{WorkloadStore.MAX_ENTRIES + 1}") is not None

    def test_worker_cache_seeding_is_idempotent(self, workload):
        """A rebuilt pool re-runs the initializer; re-seeding must not
        re-hydrate digests the process already holds (the fork-start case)."""
        from repro.core.packing import pack_jobs
        from repro.experiments import workload_store as ws

        saved = dict(ws._WORKER_WORKLOADS)
        try:
            ws._WORKER_WORKLOADS.clear()
            jobs = workload[:10]
            digest = fingerprint_jobs(jobs)
            entries = ((digest, pack_jobs(jobs)),)
            before = ws._WORKER_HYDRATIONS
            ws.seed_worker_cache(entries)
            ws.seed_worker_cache(entries)  # the pool-rebuild re-run
            assert ws._WORKER_HYDRATIONS == before + 1
            assert ws.resolve_worker_workload(digest) == tuple(jobs)
            with pytest.raises(RuntimeError, match="not seeded"):
                ws.resolve_worker_workload("missing-digest")
        finally:
            ws._WORKER_WORKLOADS.clear()
            ws._WORKER_WORKLOADS.update(saved)

    def test_digest_backward_compatible_with_inline_formula(self, workload):
        """The streaming refactor must not move anyone's cache: the shared
        formatter reproduces the historical inline fingerprint byte for
        byte (CACHE_VERSION stays at its current value for the same
        reason)."""
        import hashlib

        hasher = hashlib.sha256()
        for job in workload:
            record = (
                f"{job.job_id},{job.submit_time!r},{job.nodes},{job.runtime!r},"
                f"{job.estimate!r},{job.user},{job.weight!r}\n"
            )
            hasher.update(record.encode("ascii"))
        assert fingerprint_jobs(workload) == hasher.hexdigest()
        assert CACHE_VERSION == 4  # v4: scenario digest joined the fingerprint


class TestProgressEvents:
    def test_event_stream_shape(self, tmp_path, workload):
        events = []
        engine = ExperimentEngine(cache=tmp_path, on_event=events.append)
        configs = [SchedulerConfig("fcfs", "easy"), SchedulerConfig("fcfs", "list")]
        engine.run(workload[:30], total_nodes=256, configs=configs)
        kinds = [e.kind for e in events]
        assert kinds[0] == "grid-started"
        assert kinds[-1] == "grid-finished"
        assert kinds.count("cell-started") == 2
        assert kinds.count("cell-finished") == 2
        finished = [e for e in events if e.kind == "cell-finished"]
        assert all(e.wall_time > 0 and e.objective > 0 for e in finished)

        events.clear()
        engine2 = ExperimentEngine(cache=tmp_path, on_event=events.append)
        engine2.run(workload[:30], total_nodes=256, configs=configs)
        assert [e.kind for e in events if e.key] == ["cache-hit", "cache-hit"]
        assert all(e.cached for e in events if e.key)

    def test_events_archive_as_jsonl(self, tmp_path, workload):
        import json

        events = []
        ExperimentEngine(on_event=events.append).run(
            workload[:20], total_nodes=256, configs=[SchedulerConfig("gg", "list")]
        )
        target = tmp_path / "events.jsonl"
        assert append_events(events, target) == len(events)
        lines = [json.loads(line) for line in target.read_text().splitlines()]
        assert len(lines) == len(events)
        assert lines[0]["kind"] == "grid-started"
        # appending accumulates across runs (resumable logs)
        append_events(events, target)
        assert len(target.read_text().splitlines()) == 2 * len(events)


# -- crash tolerance: retries, backoff, serial degradation ---------------------


def _in_pool_worker():
    return multiprocessing.parent_process() is not None


def _crashy_order(total_nodes, weight, threshold):
    """A scheduler that hard-kills any pool worker it runs in.

    In the parent process (the serial fallback) it behaves like FCFS, so
    the cell is computable — just never inside a worker.
    """

    def key(job):
        if _in_pool_worker():
            os._exit(1)
        return job.submit_time

    return KeyOrderPolicy(key, "crashy")


def _sleepy_order(total_nodes, weight, threshold):
    """A scheduler that hangs forever inside pool workers only."""

    def key(job):
        if _in_pool_worker():
            time.sleep(300.0)
        return job.submit_time

    return KeyOrderPolicy(key, "sleepy")


class TestCrashTolerance:
    def test_crashing_worker_retried_then_degraded_to_serial(
        self, tmp_path, workload
    ):
        register_row("crashy", _crashy_order, columns=("easy",))
        try:
            events = []
            engine = ExperimentEngine(
                workers=2,
                cache=tmp_path,
                on_event=events.append,
                max_retries=1,
                retry_backoff=0.01,
                max_pool_rebuilds=5,
            )
            configs = [
                SchedulerConfig("crashy", "easy"),
                SchedulerConfig("fcfs", "easy"),
            ]
            grid = engine.run(workload[:30], total_nodes=256, configs=configs)

            # The grid completed despite the crashing cell...
            assert set(grid.cells) == {"crashy/easy", "fcfs/easy"}
            assert grid.cells["crashy/easy"].objective > 0
            # ...after at least one charged retry and a serial fallback.
            assert engine.stats.retries >= 1
            assert engine.stats.pool_rebuilds >= 1
            assert engine.stats.degraded_cells >= 1
            kinds = [e.kind for e in events]
            assert "cell-retry" in kinds
            assert "engine-degraded" in kinds
            # The crashing cell itself was retried (a collateral victim of
            # the broken pool may also be charged — ordering is not ours).
            retries = [e for e in events if e.kind == "cell-retry"]
            crashy = [e for e in retries if e.key == "crashy/easy"]
            assert crashy
            assert all("worker crashed" in e.detail for e in crashy)
            assert all(e.wall_time > 0 for e in retries)  # backoff scheduled

            # The serial result is the canonical one: a plain serial engine
            # (no pool, nothing to crash) computes the same objective.
            serial = ExperimentEngine(workers=1).run(
                workload[:30], total_nodes=256, configs=configs
            )
            for key in serial.cells:
                assert grid.cells[key].objective == serial.cells[key].objective
        finally:
            unregister_row("crashy")

    def test_hung_worker_times_out_and_grid_completes(self, workload):
        register_row("sleepy", _sleepy_order, columns=("easy",))
        try:
            events = []
            engine = ExperimentEngine(
                workers=2,
                on_event=events.append,
                cell_timeout=1.0,
                max_retries=0,
                max_pool_rebuilds=5,
            )
            configs = [
                SchedulerConfig("sleepy", "easy"),
                SchedulerConfig("fcfs", "easy"),
            ]
            grid = engine.run(workload[:20], total_nodes=256, configs=configs)
            assert set(grid.cells) == {"sleepy/easy", "fcfs/easy"}
            assert engine.stats.pool_rebuilds >= 1
            assert engine.stats.degraded_cells >= 1
            degraded = next(e for e in events if e.kind == "engine-degraded")
            assert "serial" in degraded.detail
        finally:
            unregister_row("sleepy")

    def test_retry_knob_validation(self):
        with pytest.raises(ValueError, match="cell_timeout"):
            ExperimentEngine(cell_timeout=0.0)
        with pytest.raises(ValueError, match="max_retries"):
            ExperimentEngine(max_retries=-1)
        with pytest.raises(ValueError, match="retry_backoff"):
            ExperimentEngine(retry_backoff=-0.1)
        with pytest.raises(ValueError, match="max_pool_rebuilds"):
            ExperimentEngine(max_pool_rebuilds=-1)


# -- failure scenarios through the engine --------------------------------------


def _failure_spec(trace, recovery):
    """A spec replaying an explicit failure trace under ``recovery``."""
    triples = [(f.down_time, f.up_time, f.nodes) for f in trace]
    return ScenarioSpec((FailureModel(trace=triples, recovery=recovery),))


class TestFailureScenarios:
    def _trace(self):
        return FailureTrace(
            [
                NodeFailure(down_time=2_000.0, up_time=12_000.0, nodes=64),
                NodeFailure(down_time=30_000.0, up_time=40_000.0, nodes=32),
            ]
        )

    def _scenarios(self):
        return {
            "healthy": None,
            "outage": _failure_spec(self._trace(), "resubmit"),
        }

    def test_fingerprint_distinguishes_failure_axes(self, workload):
        digest = fingerprint_jobs(workload)
        cfg = SchedulerConfig("fcfs", "easy")
        base = cell_fingerprint(digest, cfg, total_nodes=256, weighted=False)
        faulty = cell_fingerprint(
            digest, cfg, total_nodes=256, weighted=False,
            failures_digest=self._trace().fingerprint(), recovery="resubmit",
        )
        assert faulty != base
        assert faulty != cell_fingerprint(
            digest, cfg, total_nodes=256, weighted=False,
            failures_digest=self._trace().fingerprint(), recovery="abandon",
        )
        assert faulty != cell_fingerprint(
            digest, cfg, total_nodes=256, weighted=False,
            failures_digest=FailureTrace().fingerprint(), recovery="resubmit",
        )

    def test_scenario_sweep_baseline_matches_plain_run(self, tmp_path, workload):
        configs = [SchedulerConfig("fcfs", "easy"), SchedulerConfig("fcfs", "list")]
        engine = ExperimentEngine(workers=2, cache=tmp_path)
        grids = engine.run_scenarios(
            workload[:60], self._scenarios(), total_nodes=256, configs=configs
        )
        assert list(grids) == ["healthy", "outage"]

        plain = run_grid(workload[:60], total_nodes=256, configs=configs)
        for key in plain.cells:
            healthy = grids["healthy"].cells[key]
            assert healthy.objective == plain.cells[key].objective
            assert healthy.lost_node_seconds == 0.0
            faulty = grids["outage"].cells[key]
            assert faulty.lost_node_seconds == self._trace().lost_node_seconds()
            assert faulty.objective != healthy.objective

        # Scenario cells cache independently: a re-sweep is all hits.
        warm = ExperimentEngine(workers=1, cache=tmp_path)
        warm.run_scenarios(
            workload[:60], self._scenarios(), total_nodes=256, configs=configs
        )
        assert warm.stats.simulated == 0

    def test_parallel_failure_cells_match_serial(self, workload):
        # The trace pickles across the process boundary and the workers
        # rebuild the recovery policy from its spec: results must be
        # bit-identical to the in-process path.
        trace = mtbf_trace(
            total_nodes=256, horizon=60_000.0, mtbf=400_000.0, mttr=3_000.0,
            seed=17, max_nodes_per_failure=32,
        )
        configs = [SchedulerConfig("fcfs", "easy"), SchedulerConfig("psrs", "easy")]
        kwargs = dict(
            total_nodes=256, configs=configs,
            scenario=_failure_spec(trace, "checkpoint:interval=600,overhead=30"),
        )
        parallel = ExperimentEngine(workers=2).run(workload[:60], **kwargs)
        serial = ExperimentEngine(workers=1).run(workload[:60], **kwargs)
        for key in serial.cells:
            assert parallel.cells[key].objective == serial.cells[key].objective
            assert (
                parallel.cells[key].wasted_node_seconds
                == serial.cells[key].wasted_node_seconds
            )

    def test_malformed_recovery_spec_fails_fast(self, workload):
        with pytest.raises(ValueError, match="unknown recovery policy"):
            ExperimentEngine().run(
                workload[:10],
                total_nodes=256,
                configs=[SchedulerConfig("fcfs", "easy")],
                scenario=_failure_spec(self._trace(), "pray"),
            )


# -- grid persistence ----------------------------------------------------------


class TestGridPersistence:
    def test_grid_json_roundtrip(self, tmp_path, workload):
        grid = run_grid(
            workload[:30],
            workload_name="roundtrip",
            total_nodes=256,
            configs=[SchedulerConfig("fcfs", "easy"), SchedulerConfig("psrs", "easy")],
        )
        path = tmp_path / "grid.json"
        write_grid(grid, path)
        loaded = read_grid(path)
        assert loaded.workload_name == "roundtrip"
        assert list(loaded.cells) == list(grid.cells)
        for key in grid.cells:
            assert loaded.cells[key].objective == grid.cells[key].objective
        assert loaded.pct("psrs/easy") == grid.pct("psrs/easy")


# -- the open registry ---------------------------------------------------------


def _sjf_order(total_nodes, weight, threshold):
    return KeyOrderPolicy(lambda j: j.estimated_runtime, "sjf")


class TestOpenRegistry:
    def test_register_and_unregister_row(self):
        register_row("sjf-test", _sjf_order, label="SJF (test)", columns=("easy",))
        try:
            assert "sjf-test" in registered_rows()
            keys = [c.key for c in registered_configurations(rows=("sjf-test",))]
            assert keys == ["sjf-test/easy"]
        finally:
            unregister_row("sjf-test")
        assert "sjf-test" not in registered_rows()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_row("fcfs", _sjf_order)
        with pytest.raises(ValueError, match="already registered"):
            register_discipline("easy", lambda: None)

    def test_registered_configurations_cover_paper_grid(self):
        paper = {c.key for c in paper_configurations()}
        everything = {c.key for c in registered_configurations()}
        assert paper <= everything

    def test_registered_columns_in_paper_order(self):
        assert registered_columns()[:3] == ("list", "conservative", "easy")

    def test_custom_row_runs_through_engine_and_tables(self, tmp_path, workload):
        register_row("sjf-test", _sjf_order, label="SJF (test)", columns=("easy",))
        try:
            configs = list(paper_configurations()) + list(
                registered_configurations(rows=("sjf-test",))
            )
            engine = ExperimentEngine(workers=4, cache=tmp_path)
            grid = engine.run(workload[:60], total_nodes=256, configs=configs)
            assert "sjf-test/easy" in grid.cells
            assert engine.stats.simulated == 14
            rendered = format_grid(grid)
            assert "SJF (test)" in rendered
            # percentages work for the custom cell too
            assert grid.pct("sjf-test/easy") == pytest.approx(
                grid.cells["sjf-test/easy"].pct_vs(grid.reference.objective)
            )
            # and the custom cell is cached like any paper cell
            warm = ExperimentEngine(workers=1, cache=tmp_path)
            warm.run(workload[:60], total_nodes=256, configs=configs)
            assert warm.stats.simulated == 0
            assert warm.stats.cache_hits == 14
        finally:
            unregister_row("sjf-test")


# -- reference fallback (GridResult API fix) -----------------------------------


class TestReferenceFallback:
    def test_missing_fcfs_easy_falls_back_to_first_cell(self, workload):
        grid = run_grid(
            workload[:30],
            total_nodes=256,
            configs=[SchedulerConfig("psrs", "easy"), SchedulerConfig("gg", "list")],
        )
        assert grid.reference.config.key == "psrs/easy"
        assert grid.pct("psrs/easy") == 0.0

    def test_explicit_reference_key(self, workload):
        grid = run_grid(
            workload[:30],
            total_nodes=256,
            configs=[SchedulerConfig("psrs", "easy"), SchedulerConfig("gg", "list")],
            reference_key="gg/list",
        )
        assert grid.reference.config.key == "gg/list"
        assert grid.pct("gg/list") == 0.0

    def test_unknown_reference_key_message(self):
        grid = GridResult("w", False, 64, 0)
        with pytest.raises(KeyError, match="no cells"):
            grid.reference
        grid.cells["gg/list"] = object()  # only key presence matters here
        grid.reference_key = "fcfs/easy"
        with pytest.raises(KeyError, match="available cells: gg/list"):
            grid.reference

    def test_unknown_cell_key_message(self, workload):
        grid = run_grid(
            workload[:20], total_nodes=256, configs=[SchedulerConfig("fcfs", "easy")]
        )
        with pytest.raises(KeyError, match="unknown grid cell 'nope/nada'"):
            grid.pct("nope/nada")
        with pytest.raises(KeyError, match="available cells"):
            grid.compute_pct("nope/nada")


# -- TimingScheduler next_wakeup accounting (Tables 7–8 bugfix) ----------------


class _SlowWakeupScheduler(Scheduler):
    """Minimal scheduler whose timer callback burns measurable time."""

    name = "slow-wakeup"
    uses_estimates = False

    def on_submit(self, job, ctx):
        pass

    def select_jobs(self, ctx):
        return []

    def next_wakeup(self, ctx):
        time.sleep(0.002)
        return None

    @property
    def pending_count(self):
        return 0


class TestTimingWakeup:
    def test_next_wakeup_time_is_accumulated(self):
        timed = TimingScheduler(_SlowWakeupScheduler())
        assert timed.elapsed == 0.0
        assert timed.next_wakeup(None) is None
        assert timed.elapsed >= 0.002
