"""Chaos check: every journaled scenario sweep survives a resume, bit for bit.

Run::

    PYTHONPATH=src python examples/chaos_scenario_resume.py

Sweeps a healthy baseline plus two failure scenarios through the
journaled experiment engine, then *resumes* every run id the sweep
journaled and audits each journal against the cache.  A resume of a
complete run must re-simulate nothing (every cell is a cache hit), and
``verify_run`` must find zero inconsistencies — the CI chaos gate runs
this script and fails on any drift.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.experiments.engine import ExperimentEngine, ResultCache
from repro.experiments.journal import list_runs, verify_run
from repro.experiments.paper import probabilistic_workload
from repro.experiments.runner import SchedulerConfig
from repro.scenarios import FailureModel, ScenarioSpec

TOTAL_NODES = 256


def scenarios() -> dict[str, ScenarioSpec | None]:
    outage = FailureModel(
        trace=((2_000.0, 12_000.0, 64), (30_000.0, 40_000.0, 32)),
        recovery="resubmit",
    )
    drizzle = FailureModel(
        mtbf=400_000.0, mttr=3_000.0, horizon=60_000.0, seed=17,
        max_nodes_per_failure=32, total_nodes=TOTAL_NODES,
        recovery="checkpoint:interval=600,overhead=30",
    )
    return {
        "healthy": None,
        "outage": ScenarioSpec((outage,)),
        "drizzle": ScenarioSpec((drizzle,)),
    }


def main() -> int:
    jobs = probabilistic_workload(80, seed=23)
    configs = [SchedulerConfig("fcfs", "easy"), SchedulerConfig("fcfs", "list")]
    failures = 0

    with tempfile.TemporaryDirectory(prefix="repro-chaos-resume-") as tmp:
        cache_dir = Path(tmp)
        run_ids: dict[str, str] = {}

        def capture(event) -> None:
            if event.kind == "grid-started" and event.run_id:
                # The engine names the scenario in workload_name.
                run_ids[event.run_id] = event.workload_name

        engine = ExperimentEngine(
            workers=2, cache=cache_dir, on_event=capture, handle_signals=False
        )
        grids = engine.run_scenarios(
            jobs, scenarios(), total_nodes=TOTAL_NODES, configs=configs,
        )
        print(f"swept {len(grids)} scenario grid(s), {len(run_ids)} run id(s)")
        if len(run_ids) != len(grids):
            print("FAIL: expected one journaled run per scenario")
            failures += 1

        # Resume every run: all cells must come back from the cache.
        for run_id, name in run_ids.items():
            resume_engine = ExperimentEngine(
                workers=1, cache=cache_dir, handle_signals=False
            )
            spec = next(
                spec for key, spec in scenarios().items() if f"[{key}]" in name
            )
            resume_engine.resume(
                run_id, jobs,
                workload_name=name, total_nodes=TOTAL_NODES, configs=configs,
                scenario=spec,
            )
            stats = resume_engine.stats
            if stats.simulated != 0 or stats.cache_hits != len(configs):
                print(
                    f"FAIL: resume of {run_id} ({name}) re-simulated "
                    f"{stats.simulated} cell(s)"
                )
                failures += 1
            else:
                print(f"resume {run_id} ({name}): all {stats.cache_hits} cells cached")

        # Audit every journal against the cache.
        cache = ResultCache(cache_dir)
        for summary in list_runs(cache_dir / "runs"):
            audit = verify_run(
                summary.run_id, journal_dir=cache_dir / "runs", cache=cache
            )
            print(audit.describe())
            if not audit.ok:
                failures += 1

    print("chaos-resume: OK" if not failures else f"chaos-resume: {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
