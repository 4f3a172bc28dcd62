"""The benchmark's workloads: what each one generates and how it is run.

Every workload is a closed batch generated in the benchmark's own process
from its ``--seed``; the program only receives the generated jobs.
Why each workload was chosen is recorded in ``README.md`` beside this file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Mapping

#: Machine size of every paper grid (the CTC trace capped at 256 nodes).
TOTAL_NODES = 256

#: The one scenario seed of the scenario sweep; fixed so that only
#: ``--seed`` changes the inputs.
SCENARIO_SEED = 7

#: Size of the churn scenario's mid-stream load surge, as a share of the
#: stream (200 jobs on a 3,000-job stream).
SURGE_SHARE = 200 / 3000


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a recipe, a grid shape and a worker count."""

    name: str
    #: ``repro.experiments.paper`` recipe name, called as ``recipe(jobs, seed)``.
    recipe: str
    #: Jobs requested from the recipe per stream.
    jobs: int
    #: Independently seeded streams per run, each its own engine call.
    streams: int
    weighted: bool
    #: Paper columns of the grid (all rows of ``paper_configurations()``).
    columns: tuple[str, ...]
    workers: int
    #: Leading streams the traced mode runs (tracing every stream would
    #: not fit the traced mode's time limit).
    traced_streams: int = 1
    #: Run the grid under the three sweep scenarios via ``run_scenarios``.
    sweep: bool = False

    def stream_seeds(self, seed: int) -> list[int]:
        """Recipe seeds of the run's streams; the first is ``seed`` itself."""
        return [seed + 1000 * index for index in range(self.streams)]

    def stream(self, stream_seed: int) -> list:
        """One job stream from the recipe."""
        from repro.experiments import paper

        recipe: Callable[..., list] = getattr(paper, self.recipe)
        return recipe(self.jobs, seed=stream_seed)

    def generate(self, seed: int, streams: int | None = None) -> list[list]:
        """The job streams of one run, or only its first ``streams``."""
        return [self.stream(s) for s in self.stream_seeds(seed)[:streams]]

    def configs(self) -> list:
        from repro.schedulers.registry import paper_configurations

        return [c for c in paper_configurations() if c.column in self.columns]

    def scenarios(self, jobs: list) -> "Mapping[str, object] | None":
        """The sweep's named scenarios for one stream (``None``: plain grid)."""
        if not self.sweep:
            return None
        from repro.scenarios import (
            CancellationModel,
            FailureModel,
            LoadSurge,
            RuntimeVariability,
            ScenarioSpec,
        )

        mid_stream = jobs[len(jobs) // 2].submit_time
        return {
            "healthy": None,
            "failures": ScenarioSpec(
                (FailureModel(mtbf=20000.0, mttr=3600.0, recovery="resubmit"),),
                seed=SCENARIO_SEED,
            ),
            "churn": ScenarioSpec(
                (
                    CancellationModel(0.1),
                    LoadSurge(at=mid_stream, count=round(len(jobs) * SURGE_SHARE)),
                    RuntimeVariability(sigma=0.3),
                ),
                seed=SCENARIO_SEED,
            ),
        }

    def grid_name(self, stream: int) -> str:
        return self.name if self.streams == 1 else f"{self.name}#{stream}"

    def engine_kwargs(self, stream: int) -> dict:
        """Grid-shaping keyword arguments of the stream's engine calls."""
        return dict(
            workload_name=self.grid_name(stream),
            total_nodes=TOTAL_NODES,
            weighted=self.weighted,
            configs=self.configs(),
        )

    def run(self, engine: object, jobs: list, stream: int = 0) -> "dict[str, object]":
        """One stream's engine call(s): ``{grid name: GridResult}``."""
        kwargs = self.engine_kwargs(stream)
        scenarios = self.scenarios(jobs)
        if scenarios is None:
            grids = [engine.run(jobs, **kwargs)]  # type: ignore[attr-defined]
        else:
            grids = list(engine.run_scenarios(jobs, scenarios, **kwargs).values())  # type: ignore[attr-defined]
        return {grid.workload_name: grid for grid in grids}


LIST_EASY = ("list", "easy")

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ctc-grid-20x350",
            recipe="ctc_workload",
            jobs=350,
            streams=20,
            traced_streams=4,
            weighted=False,
            columns=("list", "conservative", "easy"),
            workers=1,
        ),
        Workload(
            name="scenario-sweep-6x350",
            recipe="probabilistic_workload",
            jobs=350,
            streams=6,
            traced_streams=2,
            weighted=False,
            columns=LIST_EASY,
            workers=min(2, nproc()),
            sweep=True,
        ),
    )
}
