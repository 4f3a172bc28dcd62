"""repro — reproduction of Krallmann, Schwiegelshohn & Yahyapour,
*On the Design and Evaluation of Job Scheduling Algorithms* (IPPS/JSSPP '99).

The package provides, bottom-up:

* :mod:`repro.core` — rigid jobs, a space-shared machine, the discrete-event
  simulator, schedule records and validity checking;
* :mod:`repro.schedulers` — the paper's algorithm zoo (FCFS, Garey & Graham,
  EASY and conservative backfilling, SMART-FFIA/NFIW, PSRS) composed from
  order policies and servicing disciplines;
* :mod:`repro.workloads` — SWF traces, a calibrated CTC-like generator, the
  probability-distribution model and the randomized model of Section 6;
* :mod:`repro.metrics` — the paper's objective functions and friends;
* :mod:`repro.policy` — the Section 2 methodology: policy rules,
  Pareto-optimal schedule selection, objective synthesis;
* :mod:`repro.scenarios` — the scenario algebra: seeded, composable
  disturbance components (failures, cancellations, load surges, runtime
  variability, closed-loop users) compiling to ``ScenarioInputs``;
* :mod:`repro.experiments` — the harness regenerating Tables 3–8 and
  Figures 3–6.

Quickstart::

    from repro import SimulationConfig, simulate, FCFSScheduler
    from repro.workloads import ctc_like_workload
    from repro.workloads.transforms import cap_nodes
    from repro.metrics import average_response_time

    jobs = cap_nodes(ctc_like_workload(n_jobs=1000, seed=42), 256)
    # SimulationConfig holds the run options (over-limit kills, decision-
    # point traces, state verification); its defaults reproduce the paper.
    result = simulate(jobs, FCFSScheduler.with_easy(), total_nodes=256,
                      config=SimulationConfig())
    print(average_response_time(result.schedule))

Disturbances compose declaratively in a ``ScenarioSpec`` (the compiled
form is a ``ScenarioInputs`` bundle, which ``run`` also accepts raw)::

    from repro import ScenarioSpec, FailureModel, LoadSurge, Simulator, Machine

    spec = ScenarioSpec((FailureModel(mtbf=40_000.0, recovery="resubmit"),
                         LoadSurge(at=3_600.0, count=80)), seed=7)
    Simulator(Machine(256), scheduler, config).run(jobs, scenario=spec)
"""

from repro.core import (
    AvailabilityProfile,
    Job,
    Machine,
    ScenarioInputs,
    Schedule,
    ScheduledJob,
    SimulationConfig,
    SimulationResult,
    Simulator,
    ValidityError,
)
from repro.core.simulator import simulate
from repro.schedulers import (
    FCFSScheduler,
    GareyGrahamScheduler,
    OrderedQueueScheduler,
    SchedulerConfig,
    build_scheduler,
    paper_configurations,
    register_discipline,
    register_row,
    registered_configurations,
)
from repro.scenarios import (
    CancellationModel,
    FailureModel,
    FeedbackUsers,
    LoadSurge,
    RuntimeVariability,
    ScenarioSpec,
)

__version__ = "1.0.0"

__all__ = [
    "AvailabilityProfile",
    "CancellationModel",
    "FCFSScheduler",
    "FailureModel",
    "FeedbackUsers",
    "GareyGrahamScheduler",
    "Job",
    "LoadSurge",
    "Machine",
    "OrderedQueueScheduler",
    "RuntimeVariability",
    "ScenarioInputs",
    "ScenarioSpec",
    "Schedule",
    "ScheduledJob",
    "SchedulerConfig",
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "ValidityError",
    "__version__",
    "build_scheduler",
    "paper_configurations",
    "register_discipline",
    "register_row",
    "registered_configurations",
    "simulate",
]
