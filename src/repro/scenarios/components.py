"""The built-in scenario components.

Each class replaces one previously ad-hoc disturbance wiring:

* :class:`FeedbackUsers` — the closed-loop population of
  :mod:`repro.workloads.feedback`, re-expressed as an arrival component
  (the realized trace *is* the workload);
* :class:`LoadSurge` — a seeded flash crowd folded into the stream (the
  genuinely new component proving the algebra is open);
* :class:`RuntimeVariability` — runtime/estimate perturbation plus the
  estimate-limit kill policy that used to ride on
  ``SimulationConfig(cancel_over_limit=True)``;
* :class:`CancellationModel` — the rate-based stream of
  :func:`repro.workloads.transforms.random_cancellations`;
* :class:`FailureModel` — :func:`repro.failures.trace.mtbf_trace` (or an
  explicit event list) plus the recovery policy spec.

All heavy imports happen inside ``apply`` so importing the algebra stays
cheap and numpy-free (the closed-loop generator needs numpy; a spec that
never uses :class:`FeedbackUsers` never imports it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.scenarios.base import (
    CompileState,
    ScenarioComponent,
    register_component,
)


class ArrivalModel(ScenarioComponent):
    """Marker base for components that create or extend the job stream."""


def _derived_horizon(state: CompileState) -> float:
    """Deterministic trace horizon when a component leaves it implicit:
    the last submission plus twice the longest estimated runtime."""
    if not state.jobs:
        raise ValueError(
            "cannot derive a horizon from an empty stream; set horizon= "
            "explicitly on the component"
        )
    last = max(job.submit_time for job in state.jobs)
    longest = max(job.estimated_runtime for job in state.jobs)
    return last + 2.0 * max(longest, 1.0)


@register_component
@dataclass(frozen=True)
class FeedbackUsers(ArrivalModel):
    """Closed-loop user population; its realized trace replaces the stream.

    The population is co-simulated once against a *reference* scheduler
    (registry key, default the paper's FCFS+EASY baseline) and the
    realized trace then plays open-loop against every grid cell — exactly
    how ``run_closed_loop(...).trace`` was wired by hand before.
    """

    kind: ClassVar[str] = "feedback-users"
    phase: ClassVar[str] = "arrive"
    FLOAT_FIELDS: ClassVar[tuple[str, ...]] = (
        "horizon", "mean_think_time", "balk_slowdown",
    )

    n_users: int = 8
    horizon: float = 50_000.0
    mean_think_time: float = 1800.0
    balk_slowdown: float | None = None
    #: Registry key ("row/column") of the reference scheduler the
    #: population reacts to while the trace is realized.
    reference: str = "fcfs/easy"
    total_nodes: int = 256
    seed: int | None = None

    def apply(self, state: CompileState) -> None:
        from repro.schedulers.registry import SchedulerConfig, build_scheduler
        from repro.workloads.feedback import default_population, run_closed_loop

        row, _, column = self.reference.partition("/")
        if not column:
            raise ValueError(
                f"reference must be a 'row/column' registry key, "
                f"got {self.reference!r}"
            )
        seed = self.seed if self.seed is not None else state.component_seed
        users = default_population(
            self.n_users,
            seed=seed,
            mean_think_time=self.mean_think_time,
            balk_slowdown=self.balk_slowdown,
        )
        result = run_closed_loop(
            users,
            build_scheduler(SchedulerConfig(row=row, column=column), self.total_nodes),
            self.total_nodes,
            horizon=self.horizon,
            seed=seed,
        )
        state.jobs = list(result.trace)


@register_component
@dataclass(frozen=True)
class LoadSurge(ArrivalModel):
    """A flash crowd: ``count`` extra jobs arriving within one window.

    Surge jobs take ids above the base stream's maximum (base ids — and
    any cancellations referencing them — stay valid) and the merged
    stream is re-sorted by ``(submit_time, job_id)``.
    """

    kind: ClassVar[str] = "load-surge"
    phase: ClassVar[str] = "augment"
    FLOAT_FIELDS: ClassVar[tuple[str, ...]] = (
        "at", "duration", "runtime_median", "runtime_sigma", "estimate_slack",
    )

    at: float = 0.0
    duration: float = 600.0
    count: int = 50
    max_nodes: int = 8
    runtime_median: float = 600.0
    runtime_sigma: float = 0.5
    #: Estimates are ``runtime * Uniform(1, estimate_slack)``.
    estimate_slack: float = 2.0
    user: int = 9_999
    seed: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.count < 0:
            raise ValueError(f"count must be non-negative, got {self.count}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.max_nodes < 1:
            raise ValueError(f"max_nodes must be at least 1, got {self.max_nodes}")
        if self.estimate_slack < 1.0:
            raise ValueError(
                f"estimate_slack must be at least 1, got {self.estimate_slack}"
            )

    def apply(self, state: CompileState) -> None:
        import math
        import random

        from repro.core.job import Job

        rng = random.Random(
            self.seed if self.seed is not None else state.component_seed
        )
        next_id = max((job.job_id for job in state.jobs), default=-1) + 1
        surge = []
        for offset in range(self.count):
            runtime = max(
                self.runtime_median
                * math.exp(self.runtime_sigma * rng.gauss(0.0, 1.0)),
                1.0,
            )
            surge.append(
                Job(
                    job_id=next_id + offset,
                    submit_time=self.at + rng.uniform(0.0, self.duration),
                    nodes=rng.randint(1, self.max_nodes),
                    runtime=runtime,
                    estimate=runtime * rng.uniform(1.0, self.estimate_slack),
                    user=self.user,
                )
            )
        state.jobs = sorted(
            [*state.jobs, *surge], key=lambda j: (j.submit_time, j.job_id)
        )


@register_component
@dataclass(frozen=True)
class RuntimeVariability(ScenarioComponent):
    """Perturb runtimes/estimates and optionally kill jobs at their limit.

    ``sigma`` applies a lognormal multiplicative factor to each runtime
    (estimates untouched, so jobs may overrun their declared limit);
    ``estimate_sigma`` rescrambles estimates exactly like
    :func:`repro.workloads.transforms.with_noisy_estimates`;
    ``enforce_limit`` turns on the estimate-limit kill policy — the
    compiled form of ``SimulationConfig(cancel_over_limit=True)``.
    """

    kind: ClassVar[str] = "runtime-variability"
    phase: ClassVar[str] = "transform"
    FLOAT_FIELDS: ClassVar[tuple[str, ...]] = ("sigma", "estimate_sigma")

    sigma: float = 0.0
    estimate_sigma: float = 0.0
    enforce_limit: bool = False
    seed: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.sigma < 0 or self.estimate_sigma < 0:
            raise ValueError("sigma and estimate_sigma must be non-negative")

    def apply(self, state: CompileState) -> None:
        seed = self.seed if self.seed is not None else state.component_seed
        if self.sigma > 0.0:
            import math
            import random
            from dataclasses import replace

            rng = random.Random(seed)
            state.jobs = [
                replace(
                    job,
                    runtime=max(
                        job.runtime * math.exp(rng.gauss(0.0, self.sigma)), 1e-9
                    ),
                )
                for job in state.jobs
            ]
        if self.estimate_sigma > 0.0:
            from repro.workloads.transforms import with_noisy_estimates

            state.jobs = with_noisy_estimates(
                state.jobs, self.estimate_sigma, seed=seed
            )
        if self.enforce_limit:
            state.cancel_over_limit = True


@register_component
@dataclass(frozen=True)
class CancellationModel(ScenarioComponent):
    """Cancel a random fraction of the (final) stream.

    Delegates to :func:`repro.workloads.transforms.random_cancellations`,
    so a spec with an explicit ``seed`` is bit-identical to the hand-built
    stream ``random_cancellations(jobs, fraction, seed)``.  Runs in the
    disturb phase: it always sees the stream *after* arrival and surge
    components, whatever order the spec listed them in.
    """

    kind: ClassVar[str] = "cancellations"
    phase: ClassVar[str] = "disturb"
    FLOAT_FIELDS: ClassVar[tuple[str, ...]] = ("fraction",)

    fraction: float = 0.1
    seed: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be within [0, 1], got {self.fraction}")

    def apply(self, state: CompileState) -> None:
        from repro.workloads.transforms import random_cancellations

        state.cancellations.extend(
            random_cancellations(
                state.jobs,
                self.fraction,
                seed=self.seed if self.seed is not None else state.component_seed,
            )
        )


@register_component
@dataclass(frozen=True)
class FailureModel(ScenarioComponent):
    """Node failures plus the recovery policy.

    Either an explicit ``trace`` of ``(down_time, up_time, nodes)``
    triples (targeted scenarios, or a recorded trace replayed) or the
    seeded MTBF/MTTR renewal model of
    :func:`repro.failures.trace.mtbf_trace` — equal seeds produce
    byte-identical traces (equal :meth:`FailureTrace.fingerprint`).
    ``horizon=None`` derives the sampling horizon from the compiled
    stream (last submission plus twice the longest estimate).
    """

    kind: ClassVar[str] = "failures"
    phase: ClassVar[str] = "disturb"
    FLOAT_FIELDS: ClassVar[tuple[str, ...]] = (
        "mtbf", "mttr", "horizon", "max_down_fraction",
    )

    mtbf: float | None = None
    mttr: float = 3600.0
    horizon: float | None = None
    max_nodes_per_failure: int = 1
    max_down_fraction: float = 0.5
    total_nodes: int = 256
    #: Explicit failure events as (down_time, up_time, nodes) triples;
    #: mutually exclusive with ``mtbf``.
    trace: tuple[tuple[float, float, int], ...] = ()
    recovery: str | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(
            self,
            "trace",
            tuple(
                (float(down), float(up), int(nodes))
                for down, up, nodes in self.trace
            ),
        )
        if self.mtbf is not None and self.trace:
            raise ValueError("pass either mtbf= or an explicit trace=, not both")

    def apply(self, state: CompileState) -> None:
        from repro.failures.trace import FailureTrace, NodeFailure, mtbf_trace

        trace: FailureTrace | None = None
        if self.trace:
            trace = FailureTrace(
                NodeFailure(down_time=down, up_time=up, nodes=nodes)
                for down, up, nodes in self.trace
            )
        elif self.mtbf is not None:
            trace = mtbf_trace(
                total_nodes=self.total_nodes,
                horizon=(
                    self.horizon
                    if self.horizon is not None
                    else _derived_horizon(state)
                ),
                mtbf=self.mtbf,
                mttr=self.mttr,
                seed=self.seed if self.seed is not None else state.component_seed,
                max_nodes_per_failure=self.max_nodes_per_failure,
                max_down_fraction=self.max_down_fraction,
            )
        if state.failures is not None:
            raise ValueError(
                "a spec supports at most one FailureModel; merge the traces "
                "into one component instead"
            )
        if trace is not None and len(trace):
            state.failures = trace
        if self.recovery is not None:
            from repro.failures.recovery import recovery_from_spec

            # Canonicalize (and fail fast on malformed specs) at compile
            # time, before the spec reaches fingerprints or workers.
            state.recovery = recovery_from_spec(self.recovery).spec
