"""The ``SimulationConfig`` / ``ScenarioInputs`` API.

``Simulator(...)`` takes its options as one frozen ``SimulationConfig``
and ``Simulator.run(...)`` its fault-injection inputs as one
``ScenarioInputs`` (or a ``ScenarioSpec``).  This file pins the contract:

* the bundles are the only way in — the former loose keywords are gone,
  and the bundled surface emits no ``DeprecationWarning``;
* the surface is exported from ``repro`` / ``repro.core``;
* the cache identity is pinned — ``CACHE_VERSION`` (bumped 3 → 4 when the
  scenario digest entered every fingerprint) and the fingerprint
  algorithm reproduce committed digests byte-for-byte.
"""

import warnings

from repro.core.machine import Machine
from repro.core.simulator import (
    ScenarioInputs,
    SimulationConfig,
    Simulator,
    simulate,
)
from repro.schedulers.registry import build_scheduler, registered_configurations
from tests.conftest import make_jobs

NODES = 64


def signature(result):
    return [
        (item.job.job_id, item.start_time, item.end_time, item.cancelled)
        for item in result.schedule
    ]


def _scheduler():
    config = next(iter(registered_configurations()))
    return build_scheduler(config, NODES)


def test_new_surface_emits_no_deprecation_warnings():
    jobs = make_jobs(30, seed=29, max_nodes=NODES, mean_gap=40.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        Simulator(Machine(NODES), _scheduler(), SimulationConfig()).run(
            jobs, scenario=ScenarioInputs()
        )
        simulate(jobs, _scheduler(), NODES, config=SimulationConfig())


def test_config_properties_reflect_bundle():
    sim = Simulator(
        Machine(NODES),
        _scheduler(),
        SimulationConfig(
            cancel_over_limit=True,
            collect_trace=True,
            incremental_state=False,
            verify_state=3,
        ),
    )
    assert sim.config.cancel_over_limit is True
    assert sim.config.collect_trace is True
    assert sim.config.incremental_state is False
    assert sim.config.verify_state == 3
    assert sim.trace is not None


def test_exports():
    import repro
    import repro.core

    for module in (repro, repro.core):
        assert module.SimulationConfig is SimulationConfig
        assert module.ScenarioInputs is ScenarioInputs


# -- cache identity stability -----------------------------------------------------


def test_cache_version_holds():
    from repro.experiments.engine import CACHE_VERSION

    assert CACHE_VERSION == 4, (
        "v4 is the scenario-algebra bump: cell fingerprints gained the "
        "canonical scenario digest (see docs/architecture.md, 'Scenario "
        "algebra').  If a true semantic change forces another bump, "
        "update this test alongside a changelog entry explaining the "
        "invalidation"
    )


def test_fingerprints_stable_across_redesign():
    """Fingerprints are pinned byte-for-byte under CACHE_VERSION 4.

    The jobs digest predates every redesign and must never move.  The
    cell digests were re-pinned exactly once, when the ``scenario`` key
    (the canonical scenario-spec digest) entered the fingerprint payload
    and CACHE_VERSION went 3 → 4; any further drift is an accidental
    cache invalidation."""
    from repro.core.job import Job
    from repro.experiments.engine import cell_fingerprint, fingerprint_jobs
    from repro.schedulers.registry import SchedulerConfig

    jobs = [
        Job(job_id=1, submit_time=0.0, nodes=4, runtime=100.0, estimate=120.0, user=1),
        Job(job_id=2, submit_time=10.5, nodes=8, runtime=50.0, user=2, weight=2.0),
    ]
    digest = fingerprint_jobs(jobs)
    assert digest == (
        "6c9d47a44eaa168a1d602a256cdd1e513bb2f5d9c5a508f78300f430e6f07d02"
    )
    assert cell_fingerprint(
        digest, SchedulerConfig(row="fcfs", column="easy"),
        total_nodes=64, weighted=False,
    ) == "f6dfb42884338fda728cf818693e7ba7b60c9e8eb48b32325eafd5204643fc6d"
    assert cell_fingerprint(
        digest, SchedulerConfig(row="fcfs", column="easy"),
        total_nodes=64, weighted=True, recompute_threshold=0.5,
        failures_digest="abc", recovery="resubmit",
    ) == "e2613fe6e35cfac7a832fcad8ef6a43bf8979dbece7f1f7c6f898d0048c7c4af"
    assert cell_fingerprint(
        digest, SchedulerConfig(row="fcfs", column="easy"),
        total_nodes=64, weighted=False, scenario="d" * 64,
    ) == "dad68d40b61ab61df707e60c42ae4ca2962e6b005710c4d36c81e37c4d472c65"


def test_packed_numpy_views_cached_per_instance():
    import pickle

    from repro.core.packing import pack_jobs

    jobs = make_jobs(50, seed=37, max_nodes=NODES, mean_gap=40.0)
    packed = pack_jobs(jobs)
    first = packed.numpy_views()
    second = packed.numpy_views()
    assert first is not second  # callers get their own dict...
    for name, view in first.items():
        assert second[name] is view  # ...over the same cached view objects
    # Views stay zero-copy: a write through the view lands in the column.
    first["submit"][0] = 123.5
    assert packed.submit[0] == 123.5
    # The cache is per-instance state that never rides the pickle wire.
    clone = pickle.loads(pickle.dumps(packed))
    assert clone.numpy_views()["submit"][0] == 123.5
