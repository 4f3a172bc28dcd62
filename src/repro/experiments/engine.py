"""Parallel experiment engine with content-addressed result caching.

The paper's workflow is "run every candidate algorithm over every workload,
compare the tables".  :class:`ExperimentEngine` executes that grid:

* **parallel fan-out** — independent grid cells (config × workload ×
  regime) run concurrently on a ``ProcessPoolExecutor``; each worker
  rebuilds its scheduler from the registry, so nothing unpicklable ever
  crosses the process boundary and user-registered rows work unchanged;
* **zero-copy workload distribution** — the job stream is packed once
  into columnar arrays (:mod:`repro.core.packing`) and seeded into each
  worker by the pool initializer; cell tasks then carry only the stream's
  64-character digest, so dispatch payloads shrink >100x and each worker
  deserializes the workload once per pool lifetime instead of once per
  cell (see :class:`repro.experiments.workload_store.WorkloadStore`; the
  serial path and the degradation fallback bypass the store);
* **content-addressed caching** — every cell result is stored on disk
  under a deterministic fingerprint of the job stream, machine size,
  configuration, regime and cache format version.  A cache hit skips the
  simulation entirely, so re-running a grid after adding one algorithm
  only simulates the new cells, and an interrupted run resumes from the
  cells that already finished;
* **structured progress events** — ``grid-started``, ``cell-started``,
  ``cache-hit``, ``cell-finished``, ``cell-retry``, ``engine-degraded``
  and ``grid-finished`` events carry the cell key, wall-clock and
  objective; the CLI renders them and
  :func:`repro.analysis.persistence.append_events` archives them as JSON
  lines;
* **pluggable execution backends** — the dispatch loop drives an
  abstract :class:`~repro.experiments.backends.base.ExecutionBackend`:
  the default local process pool, a sharded multi-pool variant that
  contains crashes to one shard, and a remote backend speaking a
  length-prefixed checksummed socket protocol to
  ``repro.experiments.backends.worker`` processes (see
  docs/architecture.md, "Execution backends").  Work is assigned under
  *leases*: an expired lease re-enters the retry ladder and a late
  duplicate result is deduplicated idempotently by fingerprint;
* **crash tolerance** — a worker crash (or a cell exceeding
  ``cell_timeout``) does not lose the grid: the affected cells are retried
  with jittered exponential backoff, the backend is reset when it breaks
  (re-seeding the workload store), and once the retry/reset budgets are
  exhausted the surviving cells degrade gracefully down the backend
  ladder — remote -> sharded -> local pool -> in-process serial — so the
  grid always completes (deterministic cell errors then surface from the
  serial run, where they belong).  Backoff never blocks the dispatch
  loop: a retried cell receives a *resubmit deadline* folded into the
  collect timeout, so every other in-flight cell keeps being collected
  while the pause elapses;
* **scenario algebra** — grids can run under a compiled
  :class:`~repro.scenarios.spec.ScenarioSpec` (failures, cancellations,
  flash crowds, runtime variability, closed-loop arrivals — any
  registered component): the spec compiles once per run, its canonical
  digest joins every cell fingerprint and the run manifest, and
  :meth:`ExperimentEngine.run_scenarios` sweeps named specs over one
  workload;
* **run lifecycle** — every cached run keeps an append-only
  :class:`~repro.experiments.journal.RunJournal` under the cache
  directory, keyed by a deterministic run id: the manifest plus one
  fsynced, checksummed record per cell state transition.  A killed
  driver process leaves a resumable journal; :meth:`ExperimentEngine.resume`
  (CLI ``--resume RUN_ID``) replays it, verifies the manifest still
  matches the requested grid, skips completed cells via the cache and
  re-dispatches only the remainder.  SIGINT/SIGTERM trigger a **graceful
  shutdown** (stop dispatching, journal in-flight cells as
  ``interrupted``, terminate the pool, raise
  :class:`~repro.experiments.journal.RunInterrupted`), a driver-side
  **watchdog** detects silently killed or stopped workers through
  mtime-touched heartbeat sentinels and routes them into the retry path,
  and :func:`~repro.experiments.journal.verify_run` audits a journal
  against the cache after the fact.

Determinism: the simulation is a pure function of (jobs, config,
machine), so parallel and serial runs produce bit-identical objectives;
only ``compute_time`` (measured wall-clock inside scheduler callbacks) is
machine- and run-dependent, and a cached cell replays the ``compute_time``
of the run that produced it.

``run_grid`` in :mod:`repro.experiments.runner` is a thin serial wrapper
over this engine, so all existing callers share the same execution path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

from repro.core.job import Job
from repro.core.packing import job_record
from repro.core.simulator import Cancellation
from repro.experiments.backends.base import (
    BackendUnavailable,
    CellTask,
    ExecutionBackend,
)
from repro.experiments.backends.cache import (
    CacheStore,
    CacheStoreHealth,
    LocalDirStore,
    RemoteCacheStore,
    store_from_spec,
)
from repro.experiments.backends.pool import (
    PoolBackend,
    pool_context,
    terminate_pool,
)
from repro.experiments.backends.remote import RemoteWorkerBackend
from repro.experiments.journal import (
    ManifestMismatchError,
    RunInterrupted,
    RunJournal,
    journal_path,
    manifest_diffs,
    manifest_for,
    read_journal,
)
from repro.experiments.runner import (
    CellResult,
    GridResult,
    ProgressFn,
    simulate_cell,
)
from repro.experiments.workload_store import (
    WorkloadStore,
    resolve_worker_workload,
)
from repro.resilience import BreakerTransition, RetryPolicy
from repro.scenarios import ScenarioSpec
from repro.schedulers.registry import SchedulerConfig, paper_configurations

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.failures.trace import FailureTrace

#: Bump when the cached payload or the simulation semantics change; old
#: entries then miss instead of replaying stale results.  v4: cell
#: fingerprints gained the canonical ``scenario`` digest (the unified
#: scenario algebra of :mod:`repro.scenarios` — see docs/architecture.md,
#: "Scenario algebra", for the decision record).
CACHE_VERSION = 4


# -- fingerprints --------------------------------------------------------------


def fingerprint_jobs(jobs: Sequence[Job]) -> str:
    """Deterministic content digest of a job stream.

    Covers every field the simulator reads (``repr`` of floats keeps full
    precision, so streams differing in the last bit get distinct digests);
    ``meta`` has never been part of a stream's cache identity.  Records
    stream into the hasher one job at a time through the shared
    :func:`repro.core.packing.job_record` formatter — the byte stream, and
    therefore the digest, is identical to what
    :func:`repro.core.packing.fingerprint_packed` computes for the packed
    form of the same jobs, so CACHE_VERSION stays put.
    """
    hasher = hashlib.sha256()
    for job in jobs:
        hasher.update(
            job_record(
                job.job_id,
                job.submit_time,
                job.nodes,
                job.runtime,
                job.estimate,
                job.user,
                job.weight,
            ).encode("ascii")
        )
    return hasher.hexdigest()


def cell_fingerprint(
    jobs_digest: str,
    config: SchedulerConfig,
    *,
    total_nodes: int,
    weighted: bool,
    recompute_threshold: float = 2.0 / 3.0,
    failures_digest: str = "",
    recovery: str = "",
    scenario: str = "",
) -> str:
    """Content address of one grid cell result.

    ``scenario`` is the canonical :meth:`ScenarioSpec.digest` of the
    scenario the cell ran under (``""`` for the healthy baseline) —
    because compilation is a pure function of ``(spec, jobs, seed)``, the
    pair ``(jobs digest, scenario digest)`` fully determines the compiled
    stream and every disturbance event.  ``failures_digest``
    (:meth:`FailureTrace.fingerprint`) and ``recovery`` (the canonical
    recovery-policy spec) additionally pin the *realized* failure inputs,
    so direct engine calls that bypass the spec layer still never collide
    in the cache.
    """
    payload = json.dumps(
        {
            "version": CACHE_VERSION,
            "jobs": jobs_digest,
            "row": config.row,
            "column": config.column,
            "total_nodes": total_nodes,
            "weighted": weighted,
            "recompute_threshold": repr(recompute_threshold),
            "failures": failures_digest,
            "recovery": recovery,
            "scenario": scenario,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


# -- the on-disk cache ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CachePruneStats:
    """Outcome of one :meth:`ResultCache.prune` sweep."""

    scanned: int
    stale_evicted: int
    quarantined: int
    tmp_removed: int

    def describe(self) -> str:
        return (
            f"cache: scanned {self.scanned} entr(ies), "
            f"evicted {self.stale_evicted} stale, "
            f"quarantined {self.quarantined} corrupt, "
            f"removed {self.tmp_removed} stray tmp file(s)"
        )


class ResultCache:
    """Content-addressed cell store: one JSON file per fingerprint.

    Keys are the hex digests from :func:`cell_fingerprint`; values are
    :class:`CellResult` payloads.  Writes are crash-safe *and* race-safe
    (see :class:`~repro.experiments.backends.cache.LocalDirStore`): the
    payload goes to a temporary file whose name carries the pid and a
    random token, finalized with ``os.replace``, so a killed run never
    leaves a truncated entry and concurrent engines filling the same
    directory never collide on the temp name.

    An optional ``remote`` :class:`~repro.experiments.backends.cache.
    CacheStore` turns the cache into a fleet-shared one, read-through /
    write-back: a local miss consults the remote store, and every local
    write is mirrored best-effort.  Remote payloads are **validated
    before they are trusted** — only an entry that parses as a current-
    version cell is returned or written back locally, so a corrupt,
    stale or truncated entry served by a remote cache can never enter a
    ``GridResult`` (``remote_rejected`` counts such refusals,
    ``remote_hits`` the accepted ones).  An unreachable remote store
    degrades the run to local-only caching; it never blocks or fails it.

    Reads distinguish three failure modes: a missing file or I/O error is
    a plain miss; a version-skewed entry is a miss that also **evicts**
    the entry (fingerprints embed ``CACHE_VERSION``, so no current or
    future key can ever hit it again — leaving it would accumulate dead
    files forever); an entry that *parses wrong* — truncated JSON,
    malformed payload — is quarantined by renaming it to
    ``<fingerprint>.corrupt`` so the corruption is visible on disk
    instead of silently re-simulated forever.  :meth:`prune` sweeps the
    whole store the same way without needing the fingerprints, and
    :meth:`status` classifies an entry without mutating anything (the
    ``verify_run`` audit path).
    """

    #: Orphaned ``.tmp`` files older than this are removed by ``prune``
    #: (younger ones may belong to a concurrently running engine).
    TMP_MAX_AGE = 3600.0

    def __init__(
        self,
        root: str | Path,
        *,
        remote: "CacheStore | str | None" = None,
    ) -> None:
        self.root = Path(root)
        self._local = LocalDirStore(self.root)
        if isinstance(remote, str):
            remote = store_from_spec(remote)
        self.remote: "CacheStore | None" = remote
        #: Local misses served by the remote store (validated payloads).
        self.remote_hits = 0
        #: Remote payloads refused on validation (corrupt/stale/skewed).
        self.remote_rejected = 0

    def path(self, fingerprint: str) -> Path:
        return self._local.path(fingerprint)

    def get(self, fingerprint: str) -> CellResult | None:
        from repro.analysis.persistence import cell_from_dict

        path = self.path(fingerprint)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return self._get_remote(fingerprint)  # plain local miss
        try:
            payload = json.loads(text)
            if payload.get("version") != CACHE_VERSION:
                # Version-skewed entries can never hit again (the version
                # is part of every fingerprint): evict instead of letting
                # them accumulate forever.
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - racing cleanup
                    pass
                return self._get_remote(fingerprint)
            return cell_from_dict(payload["cell"])
        except (AttributeError, KeyError, TypeError, ValueError):
            self._quarantine(path)
            return self._get_remote(fingerprint)

    def _get_remote(self, fingerprint: str) -> CellResult | None:
        """Read-through: validate a remote payload before trusting it."""
        from repro.analysis.persistence import cell_from_dict

        if self.remote is None:
            return None
        text = self.remote.load(fingerprint)
        if text is None:
            return None
        verdict = self._classify(text)
        if verdict != "hit":
            # Never written locally: a poisoned remote entry is counted,
            # handed to the store's own quarantine hook (the object store
            # moves it under its ``quarantine/`` prefix; the fleet store
            # leaves it to the server), and recomputed.
            self.remote_rejected += 1
            self.remote.quarantine(fingerprint, text, verdict)
            return None
        self.remote_hits += 1
        self._local.save(fingerprint, text)  # write-back for next time
        return cell_from_dict(json.loads(text)["cell"])

    def status(self, fingerprint: str) -> str:
        """Classify an entry without touching it.

        Returns ``"hit"`` (readable, current version), ``"miss"`` (no
        file), ``"stale"`` (version skew) or ``"corrupt"`` (unparseable)
        — unlike :meth:`get`, nothing is evicted or quarantined, so
        audits are repeatable.
        """
        try:
            return self._classify(self.path(fingerprint).read_text(encoding="utf-8"))
        except OSError:
            return "miss"

    @staticmethod
    def _classify(text: str) -> str:
        from repro.analysis.persistence import cell_from_dict

        try:
            payload = json.loads(text)
        except ValueError:
            return "corrupt"
        if not isinstance(payload, dict):
            return "corrupt"
        if payload.get("version") != CACHE_VERSION:
            return "stale"
        try:
            cell_from_dict(payload["cell"])
        except (AttributeError, KeyError, TypeError, ValueError):
            return "corrupt"
        return "hit"

    def prune(self) -> "CachePruneStats":
        """Sweep the store: evict stale entries, quarantine corrupt ones.

        Version-skewed entries are unlinked (their fingerprints are
        unreachable by construction), unparseable ones become
        ``*.corrupt``, and orphaned temp files older than
        :data:`TMP_MAX_AGE` — a crashed writer's leftovers — are removed.
        Used by ``repro-experiments --list-runs`` so long-lived cache
        directories stay honest about what they hold.
        """
        scanned = stale = quarantined = removed_tmp = 0
        if not self.root.is_dir():
            return CachePruneStats(0, 0, 0, 0)
        now = time.time()
        for path in self.root.glob("??/*.json"):
            scanned += 1
            try:
                verdict = self._classify(path.read_text(encoding="utf-8"))
            except OSError:  # pragma: no cover - racing cleanup
                continue
            if verdict == "stale":
                try:
                    path.unlink()
                    stale += 1
                except OSError:  # pragma: no cover - racing cleanup
                    pass
            elif verdict == "corrupt":
                if self._quarantine(path) is not None:
                    quarantined += 1
        for tmp in self.root.glob("??/.*.tmp"):
            try:
                if now - tmp.stat().st_mtime > self.TMP_MAX_AGE:
                    tmp.unlink()
                    removed_tmp += 1
            except OSError:  # pragma: no cover - racing cleanup
                pass
        return CachePruneStats(scanned, stale, quarantined, removed_tmp)

    def _quarantine(self, path: Path) -> Path | None:
        """Move a corrupt entry aside as ``*.corrupt``; best effort."""
        target = path.with_suffix(".corrupt")
        try:
            os.replace(path, target)
        except OSError:  # pragma: no cover - racing cleanup
            return None
        return target

    def put(self, fingerprint: str, cell: CellResult) -> None:
        from repro.analysis.persistence import cell_to_dict

        text = json.dumps({"version": CACHE_VERSION, "cell": cell_to_dict(cell)})
        self._local.save(fingerprint, text)
        if self.remote is not None:
            self.remote.save(fingerprint, text)  # write-back, best effort


# -- progress events -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ProgressEvent:
    """One structured engine event.

    ``kind`` is ``grid-started``, ``cell-started``, ``cache-hit``,
    ``cell-finished``, ``cell-retry``, ``cell-duplicate`` (a late result
    for an already-completed cell, deduplicated), ``engine-degraded``,
    ``cache-degraded`` (the remote cache store's circuit breaker tripped
    open: the run continues on local-only caching for one cooldown) or
    ``grid-finished``; ``key`` is the cell key for cell-level events and
    ``None`` for grid-level ones.  ``wall_time`` is the wall-clock of the
    finished unit (whole grid for grid-finished; the backoff pause for
    cell-retry); cache hits report the objective but no wall time.
    ``detail`` carries the human-readable reason for retry/degradation
    events.  Grid-level events of a journaled run carry its ``run_id``
    (the ``--resume`` handle); it is ``None`` for journal-less runs and
    for cell-level events.
    """

    kind: str
    workload_name: str
    weighted: bool
    key: str | None = None
    wall_time: float | None = None
    objective: float | None = None
    cached: bool = False
    detail: str | None = None
    run_id: str | None = None


EventFn = Callable[[ProgressEvent], None]


@dataclass(slots=True)
class RunStats:
    """Execution accounting for one engine run."""

    total_cells: int = 0
    cache_hits: int = 0
    simulated: int = 0
    wall_time: float = 0.0
    #: Worker-side retries (crashes or timeouts) during this run.
    retries: int = 0
    #: Backend resets (pool rebuilds, remote reconnect sweeps) forced by
    #: broken or hung backends.
    pool_rebuilds: int = 0
    #: Cells that fell back to in-process serial execution.
    degraded_cells: int = 0
    #: Late results for already-completed cells, dropped idempotently
    #: (a revoked lease whose worker answered anyway).
    duplicate_results: int = 0
    #: Name of the execution backend that dispatched this run
    #: ("serial" when no backend was started).
    backend: str = "serial"
    #: Deterministic run id of the journal backing this run (``None``
    #: when the run was not journaled).
    run_id: str | None = None
    #: Local misses served by the remote cache store during this run
    #: (validated payloads only).
    remote_hits: int = 0
    #: Remote cache payloads refused on validation during this run.
    remote_rejected: int = 0
    #: Poisoned remote entries quarantined during this run (transport
    #: integrity failures plus validation rejections the store moved
    #: aside).
    quarantined: int = 0
    #: Times the remote cache store's circuit breaker tripped open
    #: during this run (each one a local-only degradation period).
    cache_degraded: int = 0


# -- the engine ----------------------------------------------------------------


def _run_cell_task(
    args: tuple[
        str, str, "tuple[Job, ...] | str", int, bool, float, object, str | None,
        tuple, bool, str | None,
    ],
) -> tuple[str, CellResult, float]:
    """Pool worker: simulate one cell, returning (key, result, wall-clock).

    Takes primitive row/column keys and rebuilds the scheduler from the
    registry inside the worker — with the fork start method the child
    inherits user registrations made before the run.  The jobs slot is
    either the job tuple itself (legacy per-cell-pickle path) or the
    workload digest, resolved against the process-global cache the pool
    initializer seeded — the zero-copy path.  Scenario inputs travel
    *compiled* (the driver compiles the spec exactly once per run):
    ``failures`` as a pickled :class:`FailureTrace`, ``recovery`` as a
    spec string, ``cancellations`` as a tuple of plain
    :class:`~repro.core.simulator.Cancellation` events and the
    estimate-limit kill policy as a bool — nothing unpicklable crosses
    the process boundary.
    """
    (
        row,
        column,
        jobs,
        total_nodes,
        weighted,
        recompute_threshold,
        failures,
        recovery,
        cancellations,
        cancel_over_limit,
    ) = args
    if isinstance(jobs, str):
        jobs = resolve_worker_workload(jobs)
    config = SchedulerConfig(row=row, column=column)
    t0 = time.perf_counter()
    cell = simulate_cell(
        config,
        jobs,
        total_nodes=total_nodes,
        weighted=weighted,
        recompute_threshold=recompute_threshold,
        failures=failures,  # type: ignore[arg-type]
        recovery=recovery,
        cancellations=cancellations,
        cancel_over_limit=cancel_over_limit,
    )
    return config.key, cell, time.perf_counter() - t0


# The pool primitives moved to repro.experiments.backends.pool with the
# ExecutionBackend split; the private names stay importable for callers
# that reached into them (benchmarks, notebooks).
_pool_context = pool_context
_terminate_pool = terminate_pool


def _watchdog_defaults() -> "tuple[float | None, float | None]":
    """Watchdog ``(interval, timeout)`` from ``REPRO_WATCHDOG_*`` env vars.

    ``REPRO_WATCHDOG_INTERVAL`` overrides the 15 s heartbeat default
    (``0``/``off``/``none``/``disabled`` turns the watchdog off);
    ``REPRO_WATCHDOG_TIMEOUT`` overrides the staleness budget that
    otherwise defaults to ``max(4 * interval, 30.0)``.  Explicit engine
    kwargs always win over the environment.
    """
    interval: float | None = 15.0
    raw = os.environ.get("REPRO_WATCHDOG_INTERVAL", "").strip()
    if raw:
        if raw.lower() in ("0", "off", "none", "disabled"):
            interval = None
        else:
            try:
                interval = float(raw)
            except ValueError:
                raise ValueError(
                    f"REPRO_WATCHDOG_INTERVAL must be a number of seconds "
                    f"or 'off', got {raw!r}"
                ) from None
    timeout: float | None = None
    raw = os.environ.get("REPRO_WATCHDOG_TIMEOUT", "").strip()
    if raw:
        try:
            timeout = float(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_WATCHDOG_TIMEOUT must be a number of seconds, "
                f"got {raw!r}"
            ) from None
    return interval, timeout


#: Sentinel distinguishing "kwarg not passed" (environment default
#: applies) from an explicit ``heartbeat_interval=None`` (watchdog off).
_WATCHDOG_UNSET: object = object()


class _PreparedRun(NamedTuple):
    """One grid request, normalized: the inputs of run id and dispatch.

    ``jobs`` and ``digest`` are the *compiled* stream (arrival/transform
    components folded in); ``cancellations``, ``failures``, ``recovery``
    and ``cancel_over_limit`` are the compiled disturbance inputs; and
    ``scenario_digest`` is the canonical spec digest (``""`` for the
    healthy baseline) that joins every cell fingerprint.
    """

    jobs: list[Job]
    chosen: list[SchedulerConfig]
    digest: str
    failures: "FailureTrace | None"
    recovery: str | None
    failures_digest: str
    recovery_spec: str
    cancellations: "tuple[Cancellation, ...]"
    cancel_over_limit: bool
    scenario_digest: str
    manifest: dict


class ExperimentEngine:
    """Runs scheduler grids in parallel with content-addressed caching.

    Parameters
    ----------
    workers:
        Worker processes for cell fan-out.  ``1`` (the default) runs
        serially in-process — exactly the old ``run_grid`` behaviour.
    cache:
        A :class:`ResultCache`, a directory path to create one in, or
        ``None`` to disable caching.
    on_event:
        Callback receiving every :class:`ProgressEvent`.
    cell_timeout:
        Per-cell wall-clock budget in seconds (parallel runs only).  A
        cell still unfinished past it is presumed hung: the pool is torn
        down, the overdue cell charged a retry, and every other in-flight
        cell resubmitted for free.  ``None`` (the default) never times out.
    max_retries:
        Worker-side attempts beyond the first for a cell whose worker
        crashed, timed out, or raised.  Exhausting the budget sends the
        cell to the in-process serial fallback — where a deterministic
        error reproduces and surfaces, and a flaky one recovers.
    retry_backoff:
        Base pause before retry ``n`` (seconds); the actual pause comes
        from a shared :class:`repro.resilience.RetryPolicy` —
        exponential doubling jittered by ×0.5–1.5 so retrying engines
        do not stampede in lockstep.
    max_pool_rebuilds:
        Broken/hung pools rebuilt before giving up on parallelism and
        running every remaining cell serially in-process.
    use_workload_store:
        When true (the default), parallel runs pack the job stream once,
        seed it into workers via the pool initializer, and dispatch cells
        by digest only — the zero-copy path.  When false, every cell task
        pickles the full job tuple (the legacy behaviour, kept for the
        store-on/store-off equivalence test and as an escape hatch).
        Results are bit-identical either way.
    journal_dir:
        Directory for run journals.  ``None`` (the default) journals
        under ``<cache root>/runs`` when a cache is configured, and not
        at all otherwise — ``run_grid``'s cache-less serial path stays
        journal-free.
    heartbeat_interval:
        Seconds between worker heartbeat touches (the watchdog's input).
        ``None`` disables the watchdog entirely.  When not passed, the
        ``REPRO_WATCHDOG_INTERVAL`` environment variable overrides the
        15 s default (``off`` disables).
    heartbeat_timeout:
        Driver-side staleness budget: when no worker heartbeat is newer
        than this while cells are in flight, the backend is presumed
        silently dead (SIGKILLed, SIGSTOPped) and every in-flight cell
        is charged a retry.  Defaults to the ``REPRO_WATCHDOG_TIMEOUT``
        environment variable when set, else
        ``max(4 * heartbeat_interval, 30.0)`` so one missed touch never
        trips it.
    execution_backend:
        ``"local"`` (the default) dispatches to one process pool —
        exactly the historical behaviour; ``"sharded"`` splits the same
        worker budget across ``shards`` independent pools so one
        crashing or hung cell only takes its own shard's in-flight cells
        with it; ``"remote"`` dispatches over TCP to
        ``repro.experiments.backends.worker`` processes named by
        ``connect``.  Every mode degrades down the ladder
        remote -> sharded -> local pool -> serial, so the grid completes
        regardless of backend health.
    shards:
        Pool groups for the sharded backend (also the sharded rung of
        the remote ladder).
    connect:
        ``HOST:PORT`` worker addresses for ``execution_backend="remote"``.
    remote_cache:
        ``HOST:PORT`` of a fleet cache server (any worker started with a
        cache directory).  The local cache becomes read-through /
        write-back against it; requires a local cache.
    handle_signals:
        When true (the default), journaled runs install SIGINT/SIGTERM
        handlers for graceful shutdown: dispatch stops, in-flight cells
        are journaled ``interrupted``, the pool is terminated and
        :class:`~repro.experiments.journal.RunInterrupted` is raised with
        the resumable run id.  Handlers are installed only in the main
        thread and always restored afterwards.

    ``stats`` holds the :class:`RunStats` of the most recent :meth:`run`.
    """

    def __init__(
        self,
        *,
        workers: int | None = None,
        cache: ResultCache | str | Path | None = None,
        on_event: EventFn | None = None,
        cell_timeout: float | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.5,
        max_pool_rebuilds: int = 2,
        use_workload_store: bool = True,
        journal_dir: str | Path | None = None,
        heartbeat_interval: float | None = _WATCHDOG_UNSET,  # type: ignore[assignment]
        heartbeat_timeout: float | None = None,
        handle_signals: bool = True,
        execution_backend: str | None = None,
        shards: int = 2,
        connect: Sequence[str] = (),
        remote_cache: str | None = None,
    ) -> None:
        self.workers = max(1, workers if workers is not None else 1)
        self.cache = (
            ResultCache(cache, remote=remote_cache)
            if isinstance(cache, (str, Path))
            else cache
        )
        if remote_cache is not None:
            if self.cache is None:
                raise ValueError(
                    "remote_cache requires a local cache directory "
                    "(remote entries are validated and written back locally)"
                )
            if self.cache.remote is None:
                self.cache.remote = store_from_spec(remote_cache)
        self.remote_cache = remote_cache
        mode = execution_backend or "local"
        if mode not in ("local", "sharded", "remote"):
            raise ValueError(
                f"execution_backend must be 'local', 'sharded' or 'remote', "
                f"got {execution_backend!r}"
            )
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.connect = tuple(connect)
        if mode == "remote" and not self.connect:
            raise ValueError(
                "execution_backend='remote' needs at least one "
                "connect='HOST:PORT' worker address"
            )
        self.execution_backend = mode
        self.shards = shards
        self.on_event = on_event
        self.use_workload_store = use_workload_store
        self.workload_store = WorkloadStore()
        if cell_timeout is not None and cell_timeout <= 0:
            raise ValueError(f"cell_timeout must be positive, got {cell_timeout}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {max_retries}")
        if retry_backoff < 0:
            raise ValueError(f"retry_backoff must be non-negative, got {retry_backoff}")
        if max_pool_rebuilds < 0:
            raise ValueError(
                f"max_pool_rebuilds must be non-negative, got {max_pool_rebuilds}"
            )
        env_interval, env_timeout = _watchdog_defaults()
        if heartbeat_interval is _WATCHDOG_UNSET:
            heartbeat_interval = env_interval
        if heartbeat_timeout is None:
            heartbeat_timeout = env_timeout
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {heartbeat_interval}"
            )
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be positive, got {heartbeat_timeout}"
            )
        self.cell_timeout = cell_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.retry_policy = RetryPolicy(
            max_attempts=max_retries + 1, backoff=retry_backoff, jitter=(0.5, 1.5)
        )
        self.max_pool_rebuilds = max_pool_rebuilds
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        self.heartbeat_interval = heartbeat_interval
        if heartbeat_timeout is None and heartbeat_interval is not None:
            heartbeat_timeout = max(4.0 * heartbeat_interval, 30.0)
        self.heartbeat_timeout = heartbeat_timeout
        self.handle_signals = handle_signals
        self.stats = RunStats()
        #: Signal name ("SIGINT"/"SIGTERM") once a shutdown was requested.
        self._interrupted: str | None = None
        self._journal: RunJournal | None = None
        self._run_id: str | None = None
        self._handlers_active = False

    def _emit(self, event: ProgressEvent) -> None:
        if self.on_event is not None:
            self.on_event(event)

    # -- run lifecycle plumbing -------------------------------------------

    def _journal_root(self) -> Path | None:
        if self.journal_dir is not None:
            return self.journal_dir
        if self.cache is not None:
            return self.cache.root / "runs"
        return None

    def _journal_cell(self, key: str, state: str, **kwargs: object) -> None:
        if self._journal is not None:
            self._journal.record_cell(key, state, **kwargs)  # type: ignore[arg-type]

    def _watch_cache_health(
        self, stats: RunStats, workload_name: str, weighted: bool
    ) -> Callable[[], dict | None]:
        """Wire remote-cache health into one run's stats and events.

        Snapshots the cache's cumulative counters (the store may outlive
        many runs) and hooks the store's circuit breaker so the moment it
        trips open the run emits a ``cache-degraded`` event — the
        operator-visible signal that caching just fell back to local-only
        for a cooldown.  Returns a ``settle()`` callable for the run's
        ``finally``: it unhooks the breaker, folds the per-run deltas
        into ``stats``, and returns the ``cache-health`` journal payload
        (``None`` when the run had no remote store).
        """
        cache = self.cache
        remote = cache.remote if cache is not None else None
        if cache is None or remote is None:
            return lambda: None
        base_hits = cache.remote_hits
        base_rejected = cache.remote_rejected
        base_quarantined = len(getattr(remote, "quarantined", ()))
        base_errors = int(getattr(remote, "errors", 0))
        base_shed = int(getattr(remote, "shed", 0))
        breaker = getattr(remote, "breaker", None)
        previous_hook = breaker.on_transition if breaker is not None else None

        def on_transition(transition: "BreakerTransition") -> None:
            if previous_hook is not None:
                previous_hook(transition)
            if transition.new == "open":
                stats.cache_degraded += 1
                self._emit(
                    ProgressEvent(
                        kind="cache-degraded",
                        workload_name=workload_name,
                        weighted=weighted,
                        detail=(
                            f"remote cache breaker opened "
                            f"({getattr(breaker, 'name', '') or 'remote store'}); "
                            f"caching degraded to local-only for the cooldown"
                        ),
                        run_id=stats.run_id,
                    )
                )

        if breaker is not None:
            breaker.on_transition = on_transition

        def settle() -> dict | None:
            if breaker is not None:
                breaker.on_transition = previous_hook
            stats.remote_hits = cache.remote_hits - base_hits
            stats.remote_rejected = cache.remote_rejected - base_rejected
            stats.quarantined = (
                len(getattr(remote, "quarantined", ())) - base_quarantined
            )
            health = remote.health()
            return {
                "remote_cache": self.remote_cache or "",
                "store": health.kind if health is not None else "",
                "remote_hits": stats.remote_hits,
                "remote_rejected": stats.remote_rejected,
                "quarantined": stats.quarantined,
                "breaker_opened": stats.cache_degraded,
                "breaker_state": (
                    health.breaker_state if health is not None else ""
                ),
                "errors": int(getattr(remote, "errors", 0)) - base_errors,
                "shed": int(getattr(remote, "shed", 0)) - base_shed,
            }

        return settle

    def _prepare(
        self,
        jobs: Sequence[Job],
        *,
        workload_name: str = "workload",
        total_nodes: int = 256,
        weighted: bool = False,
        configs: Sequence[SchedulerConfig] | None = None,
        recompute_threshold: float = 2.0 / 3.0,
        reference_key: str | None = None,
        scenario: "ScenarioSpec | None" = None,
    ) -> "_PreparedRun":
        """Normalize one grid request into its manifest-defining form.

        Shared by :meth:`run`, :meth:`resume` and :meth:`run_id_for`, so
        the deterministic run id is computed from exactly the inputs the
        dispatch path will use.
        """
        if scenario is not None and not scenario.components:
            scenario = None  # the empty spec is the healthy baseline
        failures: "FailureTrace | None" = None
        recovery: str | None = None
        cancellations: "tuple[Cancellation, ...]" = ()
        cancel_over_limit = False
        scenario_digest = ""
        if scenario is not None:
            compiled = scenario.compile(jobs)
            jobs = list(compiled.jobs)
            cancellations = compiled.inputs.cancellations
            failures = compiled.inputs.failures
            recovery = compiled.inputs.recovery
            cancel_over_limit = compiled.cancel_over_limit
            scenario_digest = compiled.digest
        else:
            jobs = list(jobs)
        failures_digest = ""
        recovery_spec = ""
        if failures is not None and failures:
            failures_digest = failures.fingerprint()
        else:
            failures = None
        if recovery is not None:
            from repro.failures.recovery import recovery_from_spec

            # Canonicalize (and fail fast on malformed specs) before the
            # spec reaches fingerprints or workers.
            recovery_spec = recovery = recovery_from_spec(recovery).spec
        chosen = list(configs) if configs is not None else list(paper_configurations())
        digest = fingerprint_jobs(jobs)
        manifest = manifest_for(
            workload_digest=digest,
            configs=[config.key for config in chosen],
            total_nodes=total_nodes,
            weighted=weighted,
            recompute_threshold=recompute_threshold,
            failures_digest=failures_digest,
            recovery=recovery_spec,
            cache_version=CACHE_VERSION,
            workload_name=workload_name,
            n_jobs=len(jobs),
            reference_key=reference_key,
            scenario=scenario_digest,
            execution_backend=self.execution_backend,
            remote_cache=self.remote_cache or "",
        )
        return _PreparedRun(
            jobs=jobs,
            chosen=chosen,
            digest=digest,
            failures=failures,
            recovery=recovery,
            failures_digest=failures_digest,
            recovery_spec=recovery_spec,
            cancellations=cancellations,
            cancel_over_limit=cancel_over_limit,
            scenario_digest=scenario_digest,
            manifest=manifest,
        )

    def run_id_for(self, jobs: Sequence[Job], **kwargs: object) -> str:
        """The deterministic run id :meth:`run` would journal under.

        Accepts the grid-shaping keyword arguments of :meth:`run`
        (``workload_name``, ``total_nodes``, ``weighted``, ``configs``,
        ``recompute_threshold``, ``reference_key``, ``scenario``); drivers
        use it to print or predict the ``--resume`` handle without running
        anything.
        """
        return str(self._prepare(jobs, **kwargs).manifest["run"])  # type: ignore[arg-type]

    def _on_signal(self, signum: int, frame: object) -> None:
        if self._interrupted is not None:
            # Second signal: the operator is insistent — restore the
            # default disposition so a third one kills us outright.
            try:
                signal.signal(signum, signal.SIG_DFL)
            except (OSError, ValueError):  # pragma: no cover - exotic platform
                pass
            return
        self._interrupted = signal.Signals(signum).name

    def _install_signal_handlers(self) -> dict[int, object] | None:
        """Install graceful-shutdown handlers (main thread only)."""
        if (
            not self.handle_signals
            or threading.current_thread() is not threading.main_thread()
        ):
            return None
        self._interrupted = None
        previous: dict[int, object] = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, self._on_signal)
            except (OSError, ValueError):  # pragma: no cover - exotic platform
                pass
        self._handlers_active = bool(previous)
        return previous or None

    def _restore_signal_handlers(self, previous: dict[int, object] | None) -> None:
        self._handlers_active = False
        if not previous:
            return
        for sig, handler in previous.items():
            try:
                signal.signal(sig, handler)  # type: ignore[arg-type]
            except (OSError, ValueError):  # pragma: no cover - exotic platform
                pass

    def run(
        self,
        jobs: Sequence[Job],
        *,
        workload_name: str = "workload",
        total_nodes: int = 256,
        weighted: bool = False,
        configs: Sequence[SchedulerConfig] | None = None,
        recompute_threshold: float = 2.0 / 3.0,
        progress: ProgressFn | None = None,
        reference_key: str | None = None,
        scenario: "ScenarioSpec | None" = None,
        resume_run_id: str | None = None,
    ) -> GridResult:
        """Run one grid; the parallel, cached equivalent of ``run_grid``.

        Cells are fingerprinted first; hits come from the cache, misses
        are simulated (fanned out when ``workers > 1``) and written back
        as they finish — so an interrupted run resumes where it stopped.
        ``grid.cells`` is always in config order regardless of completion
        order, and the ``progress`` callback (``run_grid`` compatible)
        fires in that same order after all cells exist.

        ``scenario`` runs every cell under a compiled
        :class:`~repro.scenarios.spec.ScenarioSpec`: the spec is compiled
        once against ``jobs`` (arrival components may rewrite the
        stream), its canonical digest joins every cell fingerprint and
        the run manifest, and the compiled disturbance inputs ship to the
        workers — no per-component wiring anywhere in the engine.

        When a journal root is available (a cache or ``journal_dir``),
        the run is journaled under its deterministic id: a fresh run
        truncates any prior journal for the same grid, while
        ``resume_run_id`` (usually via :meth:`resume`) appends to the
        existing one after verifying the manifest still matches —
        mismatches raise
        :class:`~repro.experiments.journal.ManifestMismatchError`.
        """
        prep = self._prepare(
            jobs,
            workload_name=workload_name,
            total_nodes=total_nodes,
            weighted=weighted,
            configs=configs,
            recompute_threshold=recompute_threshold,
            reference_key=reference_key,
            scenario=scenario,
        )
        jobs = prep.jobs
        failures = prep.failures
        recovery = prep.recovery
        chosen = prep.chosen
        run_id = str(prep.manifest["run"])
        journal_root = self._journal_root()
        if resume_run_id is not None:
            if journal_root is None:
                raise ValueError(
                    "resume requires a journal: configure a cache or journal_dir"
                )
            path = journal_path(journal_root, resume_run_id)
            diffs = manifest_diffs(read_journal(path).manifest, prep.manifest)
            if diffs:
                raise ManifestMismatchError(resume_run_id, diffs)

        grid = GridResult(
            workload_name=workload_name,
            weighted=weighted,
            total_nodes=total_nodes,
            n_jobs=len(jobs),
            reference_key=reference_key,
        )
        stats = RunStats(total_cells=len(chosen))
        stats.run_id = run_id if journal_root is not None else None
        self.stats = stats
        self._run_id = stats.run_id

        journal: RunJournal | None = None
        already: set[str] = set()
        if journal_root is not None:
            path = journal_path(journal_root, run_id)
            if resume_run_id is not None:
                journal, replay = RunJournal.open_resume(path)
                # Cells already terminal in the journal keep their original
                # records; only genuinely new transitions are appended.
                already = set(replay.completed)
            else:
                journal = RunJournal.create(path, prep.manifest)
        self._journal = journal
        settle_cache_health = self._watch_cache_health(
            stats, workload_name, weighted
        )

        t_start = time.perf_counter()
        self._emit(
            ProgressEvent(
                kind="grid-started",
                workload_name=workload_name,
                weighted=weighted,
                run_id=stats.run_id,
            )
        )

        try:
            results: dict[str, CellResult] = {}
            pending: list[tuple[SchedulerConfig, str]] = []
            for config in chosen:
                fp = cell_fingerprint(
                    prep.digest,
                    config,
                    total_nodes=total_nodes,
                    weighted=weighted,
                    recompute_threshold=recompute_threshold,
                    failures_digest=prep.failures_digest,
                    recovery=prep.recovery_spec,
                    scenario=prep.scenario_digest,
                )
                grid.fingerprints[config.key] = fp
                cell = self.cache.get(fp) if self.cache is not None else None
                if cell is not None:
                    results[config.key] = cell
                    stats.cache_hits += 1
                    if config.key not in already:
                        self._journal_cell(
                            config.key,
                            "completed",
                            fingerprint=fp,
                            objective=cell.objective,
                            cached=True,
                        )
                    self._emit(
                        ProgressEvent(
                            kind="cache-hit",
                            workload_name=workload_name,
                            weighted=weighted,
                            key=config.key,
                            objective=cell.objective,
                            cached=True,
                        )
                    )
                else:
                    self._journal_cell(config.key, "scheduled", fingerprint=fp)
                    pending.append((config, fp))

            previous = self._install_signal_handlers() if journal is not None else None
            try:
                if (
                    self.workers > 1 or self.execution_backend != "local"
                ) and len(pending) > 1:
                    self._run_distributed(
                        pending, jobs, grid, stats, recompute_threshold, results,
                        failures, recovery, prep.cancellations,
                        prep.cancel_over_limit, prep.digest,
                    )
                else:
                    self._run_serial(
                        pending, jobs, grid, stats, recompute_threshold, results,
                        failures, recovery, prep.cancellations,
                        prep.cancel_over_limit,
                    )
            finally:
                self._restore_signal_handlers(previous)
        finally:
            cache_health = settle_cache_health()
            if journal is not None:
                if cache_health is not None:
                    try:
                        journal.record_cache_health(cache_health)
                    except (OSError, ValueError):  # pragma: no cover
                        pass  # a failed health line must not fail the run
                journal.close()
            self._journal = None

        for config in chosen:
            grid.cells[config.key] = results[config.key]
            if progress is not None:
                progress(config, results[config.key])
        stats.wall_time = time.perf_counter() - t_start
        self._emit(
            ProgressEvent(
                kind="grid-finished",
                workload_name=workload_name,
                weighted=weighted,
                wall_time=stats.wall_time,
                run_id=stats.run_id,
            )
        )
        return grid

    def resume(
        self, run_id: str, jobs: Sequence[Job], **kwargs: object
    ) -> GridResult:
        """Resume a journaled run from its deterministic ``run_id``.

        The caller supplies the same job stream and grid-shaping keyword
        arguments as the original :meth:`run`; the journal's manifest is
        verified against them (:class:`~repro.experiments.journal.
        ManifestMismatchError` on drift, :class:`~repro.experiments.
        journal.UnknownRunError` when no journal exists).  Completed
        cells are skipped via the cache, and only the remainder is
        re-dispatched.
        """
        return self.run(jobs, resume_run_id=run_id, **kwargs)  # type: ignore[arg-type]

    def run_scenarios(
        self,
        jobs: Sequence[Job],
        scenarios: "Mapping[str, ScenarioSpec | None]",
        *,
        workload_name: str = "workload",
        **kwargs: object,
    ) -> Mapping[str, GridResult]:
        """Sweep named :class:`~repro.scenarios.spec.ScenarioSpec`s.

        Runs one full grid per spec (the scenario name is appended to
        ``workload_name`` for progress events) and returns
        ``{scenario_name: GridResult}`` in mapping order.  ``None`` (or
        the empty spec) is the healthy baseline.  Cells are cached per
        scenario — the canonical spec digest is part of every fingerprint
        — so re-sweeping with one extra scenario only simulates the new
        cells.
        """
        out: dict[str, GridResult] = {}
        for name, spec in scenarios.items():
            out[name] = self.run(
                jobs,
                workload_name=f"{workload_name}[{name}]",
                scenario=spec,
                **kwargs,  # type: ignore[arg-type]
            )
        return out

    def _run_serial(
        self,
        pending: list[tuple[SchedulerConfig, str]],
        jobs: list[Job],
        grid: GridResult,
        stats: RunStats,
        recompute_threshold: float,
        results: dict[str, CellResult],
        failures: "FailureTrace | None",
        recovery: str | None,
        cancellations: "tuple[Cancellation, ...]" = (),
        cancel_over_limit: bool = False,
    ) -> None:
        for index, (config, fp) in enumerate(pending):
            if self._interrupted is not None:
                for later_config, later_fp in pending[index:]:
                    self._journal_cell(
                        later_config.key, "interrupted", fingerprint=later_fp
                    )
                raise RunInterrupted(
                    self._run_id,
                    signal_name=self._interrupted,
                    completed=stats.cache_hits + stats.simulated,
                    remaining=len(pending) - index,
                )
            self._emit(
                ProgressEvent(
                    kind="cell-started",
                    workload_name=grid.workload_name,
                    weighted=grid.weighted,
                    key=config.key,
                )
            )
            self._journal_cell(config.key, "started", fingerprint=fp)
            t0 = time.perf_counter()
            cell = simulate_cell(
                config,
                jobs,
                total_nodes=grid.total_nodes,
                weighted=grid.weighted,
                recompute_threshold=recompute_threshold,
                failures=failures,
                recovery=recovery,
                cancellations=cancellations,
                cancel_over_limit=cancel_over_limit,
            )
            wall = time.perf_counter() - t0
            self._record(config.key, fp, cell, wall, grid, stats, results)

    def _backend_ladder(
        self,
        store_entries: "tuple | None",
        n_cells: int,
    ) -> "list[Callable[[], ExecutionBackend]]":
        """Backend factories, best first: remote -> sharded -> local pool.

        In-process serial execution (the unconditional last resort) is
        not a rung: :meth:`_run_distributed` hands any leftovers straight
        to :meth:`_run_serial`.
        """

        def pool_rung(groups: int) -> "Callable[[], ExecutionBackend]":
            return lambda: PoolBackend(
                workers=self.workers,
                n_cells=n_cells,
                groups=groups,
                store_entries=store_entries,
                heartbeat_interval=self.heartbeat_interval,
            )

        factories: "list[Callable[[], ExecutionBackend]]" = []
        if self.execution_backend == "remote":
            factories.append(
                lambda: RemoteWorkerBackend(
                    self.connect,
                    store_entries=store_entries,
                    heartbeat_interval=self.heartbeat_interval,
                    reconnect_backoff=max(self.retry_backoff, 0.05),
                )
            )
        if self.execution_backend in ("remote", "sharded") and self.shards > 1:
            factories.append(pool_rung(self.shards))
        factories.append(pool_rung(1))
        return factories

    def _run_distributed(
        self,
        pending: list[tuple[SchedulerConfig, str]],
        jobs: list[Job],
        grid: GridResult,
        stats: RunStats,
        recompute_threshold: float,
        results: dict[str, CellResult],
        failures: "FailureTrace | None",
        recovery: str | None,
        cancellations: "tuple[Cancellation, ...]",
        cancel_over_limit: bool,
        digest: str,
    ) -> None:
        """Drive the grid down the execution-backend ladder.

        One backend at a time: cells are leased out (``cell_timeout``
        stamps the deadline at submit), an expired lease is revoked and
        charged into the retry/backoff ladder, a late duplicate result is
        dropped idempotently by fingerprint, and a backend that cannot
        start — or breaks more than ``max_pool_rebuilds`` times on one
        rung — hands its leftovers to the next rung.  In-process serial
        execution is the unconditional last resort, so the grid always
        completes.
        """
        config_by_fp = {fp: config for config, fp in pending}
        order = [fp for _, fp in pending]
        attempts: dict[str, int] = {}
        completed: set[str] = set()
        serial_fallback: list[str] = []
        rng = random.Random()
        hb_budget = self.heartbeat_timeout or 0.0

        # Zero-copy dispatch: register the packed stream once, ship only
        # the digest per cell; pool workers hydrate via the initializer,
        # remote workers via a one-time SEED frame per connection.  The
        # legacy path (store off) pickles the job tuple per cell.
        if self.use_workload_store:
            self.workload_store.register(digest, jobs)
            store_entries = self.workload_store.entries(digest)
            payload: "str | tuple[Job, ...]" = digest
        else:
            store_entries = None
            payload = tuple(jobs)

        def make_task(fp: str) -> CellTask:
            config = config_by_fp[fp]
            return CellTask(
                fingerprint=fp,
                key=config.key,
                args=(
                    config.row,
                    config.column,
                    payload,
                    grid.total_nodes,
                    grid.weighted,
                    recompute_threshold,
                    failures,
                    recovery,
                    cancellations,
                    cancel_over_limit,
                ),
            )

        def record_done(fp: str, value: tuple) -> None:
            if fp in completed:
                # A revoked lease answered after all: the cell already
                # counted once; the duplicate is dropped, visibly.
                stats.duplicate_results += 1
                self._emit(
                    ProgressEvent(
                        kind="cell-duplicate",
                        workload_name=grid.workload_name,
                        weighted=grid.weighted,
                        key=config_by_fp[fp].key,
                        detail="late duplicate result dropped",
                    )
                )
                return
            completed.add(fp)
            key, cell, wall = value
            self._record(key, fp, cell, wall, grid, stats, results)

        def emit_degraded(detail: str) -> None:
            self._emit(
                ProgressEvent(
                    kind="engine-degraded",
                    workload_name=grid.workload_name,
                    weighted=grid.weighted,
                    detail=detail,
                )
            )

        queue: list[str] = []
        for config, fp in pending:
            self._emit(
                ProgressEvent(
                    kind="cell-started",
                    workload_name=grid.workload_name,
                    weighted=grid.weighted,
                    key=config.key,
                )
            )
            queue.append(fp)

        ladder = self._backend_ladder(store_entries, len(pending))
        for rung, factory in enumerate(ladder):
            if not queue:
                break
            backend = factory()
            leftovers: list[str] = list(queue)
            try:
                try:
                    backend.start()
                except BackendUnavailable as exc:
                    if rung + 1 < len(ladder):
                        emit_degraded(
                            f"{backend.name} backend unavailable ({exc}); "
                            f"falling back to the next execution backend"
                        )
                    continue
                if stats.backend == "serial":
                    stats.backend = backend.name
                leftovers = self._drive_backend(
                    backend, queue, grid, config_by_fp, attempts, completed,
                    serial_fallback, make_task, record_done, rng, stats,
                    hb_budget,
                )
            finally:
                backend.close()
                queue = leftovers
            if queue and rung + 1 < len(ladder):
                emit_degraded(
                    f"{backend.name} backend gave up with {len(queue)} "
                    f"cell(s) unfinished; falling back to the next "
                    f"execution backend"
                )
        serial_fallback.extend(queue)

        if serial_fallback:
            # Deduplicate while preserving grid order (a cell can be
            # queued for fallback once via retries and once via the reset
            # budget), and drop anything a late duplicate already
            # completed.
            chosen = set(serial_fallback) - completed
            unique = [(config_by_fp[fp], fp) for fp in order if fp in chosen]
            if not unique:
                return
            stats.degraded_cells += len(unique)
            emit_degraded(
                f"{len(unique)} cell(s) fell back to in-process serial "
                f"execution after {stats.retries} retries and "
                f"{stats.pool_rebuilds} pool rebuilds"
            )
            self._run_serial(
                unique, jobs, grid, stats, recompute_threshold, results,
                failures, recovery, cancellations, cancel_over_limit,
            )

    def _drive_backend(
        self,
        backend: ExecutionBackend,
        queue: list[str],
        grid: GridResult,
        config_by_fp: "dict[str, SchedulerConfig]",
        attempts: dict[str, int],
        completed: set[str],
        serial_fallback: list[str],
        make_task: "Callable[[str], CellTask]",
        record_done: "Callable[[str, tuple], None]",
        rng: random.Random,
        stats: RunStats,
        hb_budget: float,
    ) -> list[str]:
        """Run ``queue`` on one started backend; return its leftovers.

        An empty return means the rung finished (or charged into the
        serial fallback) every cell it was given; a non-empty one means
        the rung's reset budget is exhausted and the remainder belongs to
        the next rung down the ladder.
        """
        queue = list(queue)
        #: fp -> perf_counter deadline of the cell's lease, stamped at
        #: submit — exactly the historical per-future timeout deadline.
        leases: dict[str, float] = {}
        #: Cells waiting out a retry backoff: fp -> perf_counter instant
        #: at which they go back to the backend.  Folding these deadlines
        #: into the collect timeout (instead of sleeping in the loop)
        #: keeps every other in-flight cell being collected meanwhile.
        resubmit_at: dict[str, float] = {}
        resets = 0

        def submit_one(fp: str) -> bool:
            if not backend.submit(make_task(fp)):
                return False
            self._journal_cell(config_by_fp[fp].key, "started", fingerprint=fp)
            if self.cell_timeout is not None:
                leases[fp] = time.perf_counter() + self.cell_timeout
            return True

        def charge_retry(fp: str, why: str) -> None:
            """Charge a retry for ``fp``: schedule its resubmission, or send
            it to the serial fallback once the budget is exhausted."""
            attempts[fp] = attempts.get(fp, 0) + 1
            if attempts[fp] > self.max_retries:
                self._journal_cell(
                    config_by_fp[fp].key, "abandoned", fingerprint=fp, detail=why
                )
                serial_fallback.append(fp)
                return
            self._journal_cell(
                config_by_fp[fp].key, "failed", fingerprint=fp, detail=why
            )
            stats.retries += 1
            pause = self.retry_policy.backoff_for(attempts[fp], rng)
            self._emit(
                ProgressEvent(
                    kind="cell-retry",
                    workload_name=grid.workload_name,
                    weighted=grid.weighted,
                    key=config_by_fp[fp].key,
                    wall_time=pause,
                    detail=f"attempt {attempts[fp]}/{self.max_retries}: {why}",
                )
            )
            resubmit_at[fp] = time.perf_counter() + pause

        def spend_reset() -> bool:
            """Count one backend reset; False once the rung is beyond help."""
            nonlocal resets
            stats.pool_rebuilds += 1
            resets += 1
            if resets > self.max_pool_rebuilds:
                return False
            return backend.reset(lambda: self._interrupted is not None)

        def leftovers() -> list[str]:
            seen: set[str] = set()
            out: list[str] = []
            for fp in [*queue, *resubmit_at, *sorted(backend.in_flight())]:
                if fp not in completed and fp not in seen:
                    seen.add(fp)
                    out.append(fp)
            return out

        def next_wait_timeout() -> float | None:
            """Seconds until the next dispatch-loop deadline (None: never).

            Folds together the soonest lease expiry, the soonest retry
            resubmission, the watchdog's heartbeat deadline, and — while
            signal handlers are active — a 0.5 s responsiveness cap so a
            SIGINT/SIGTERM flag is noticed promptly even though blocking
            waits resume after the handler runs (PEP 475).
            """
            now = time.perf_counter()
            candidates: list[float] = []
            if leases:
                candidates.append(min(leases.values()) - now)
            if resubmit_at:
                candidates.append(min(resubmit_at.values()) - now)
            live = backend.liveness()
            if live is not None and hb_budget and backend.in_flight():
                candidates.append((live + hb_budget) - time.time())
            if self._handlers_active:
                candidates.append(0.5)
            if not candidates:
                return None
            return max(0.0, min(candidates))

        while queue or backend.in_flight() or resubmit_at:
            if self._interrupted is not None:
                # Graceful shutdown: journal everything unfinished as
                # interrupted, drop the backend, surface the resumable id.
                unfinished = (
                    set(queue)
                    | backend.in_flight()
                    | set(resubmit_at)
                    | set(serial_fallback)
                ) - completed
                for fp in sorted(unfinished):
                    self._journal_cell(
                        config_by_fp[fp].key, "interrupted", fingerprint=fp
                    )
                raise RunInterrupted(
                    self._run_id,
                    signal_name=self._interrupted,
                    completed=stats.cache_hits + stats.simulated,
                    remaining=len(unfinished),
                )
            now = time.perf_counter()
            for fp in [f for f, at in resubmit_at.items() if at <= now]:
                del resubmit_at[fp]
                queue.append(fp)
            while queue and backend.can_accept():
                fp = queue.pop(0)
                if submit_one(fp):
                    continue
                queue.insert(0, fp)
                break
            if not backend.in_flight():
                if queue:
                    # Wedged: work waiting, nothing running, no capacity
                    # — spend a reset (for a remote backend this is the
                    # blocking reconnect sweep) or yield to the next rung.
                    if not spend_reset():
                        return leftovers()
                    continue
                if resubmit_at:
                    # Nothing in flight: idle until the next resubmit
                    # (capped for signal responsiveness while handlers
                    # are active).
                    pause = min(resubmit_at.values()) - time.perf_counter()
                    if self._handlers_active:
                        pause = min(pause, 0.5)
                    if pause > 0:
                        time.sleep(pause)
                continue
            outcomes = backend.collect(next_wait_timeout())
            broke = False
            for outcome in outcomes:
                fp = outcome.fingerprint
                leases.pop(fp, None)
                if outcome.kind == "done":
                    # A late answer may beat its own retry: cancel the
                    # cell's other copies wherever they are queued.
                    resubmit_at.pop(fp, None)
                    if fp in queue:
                        queue.remove(fp)
                    if fp in serial_fallback:
                        serial_fallback.remove(fp)
                    record_done(fp, outcome.value)
                    continue
                if outcome.kind == "broken":
                    broke = True
                if fp in completed:
                    continue  # stale failure for an already-answered cell
                charge_retry(fp, outcome.detail)
            if broke:
                # Broken backend parts doom their other in-flight cells;
                # requeue them uncharged for the healed backend.
                for fp in backend.drain_broken():
                    leases.pop(fp, None)
                    queue.append(fp)
                if not spend_reset():
                    return leftovers()
                continue
            if outcomes:
                continue
            # collect() timed out: check leases and the watchdog.
            now = time.perf_counter()
            in_flight = backend.in_flight()
            overdue = {
                fp for fp in in_flight if leases.get(fp, math.inf) <= now
            }
            live = backend.liveness()
            stalled = bool(
                live is not None
                and hb_budget
                and in_flight
                and time.time() - live > hb_budget
            )
            if not overdue and not stalled:
                # Woke for a resubmit/responsiveness deadline, not a hung
                # cell or dead backend.
                continue
            # Watchdog: no proof of life within the budget while cells
            # are in flight means the backend died without telling us
            # (SIGKILL before first result, SIGSTOP forever) — every
            # in-flight cell is charged, since a dead backend leaves no
            # one to blame precisely.  Otherwise only the overdue leases
            # are revoked and charged; collateral the backend had to
            # abandon with them resubmits for free.
            charged = set(in_flight) if stalled else overdue
            reason = (
                f"lost worker heartbeat for more than {hb_budget:.0f}s: "
                f"pool presumed dead"
                if stalled
                else f"exceeded cell_timeout={self.cell_timeout}s"
            )
            report = backend.release(charged, reason)
            for fp in sorted(charged):
                leases.pop(fp, None)
                charge_retry(fp, reason)
            for fp in report.requeue:
                leases.pop(fp, None)
                queue.append(fp)
            if report.broke and not spend_reset():
                return leftovers()
        return []


    def _record(
        self,
        key: str,
        fingerprint: str,
        cell: CellResult,
        wall: float,
        grid: GridResult,
        stats: RunStats,
        results: dict[str, CellResult],
    ) -> None:
        results[key] = cell
        stats.simulated += 1
        if self.cache is not None:
            self.cache.put(fingerprint, cell)
        # Cache write lands before the journal record: a crash between
        # the two leaves an orphaned cache entry (healed on resume), never
        # a journaled completion with no backing result.
        self._journal_cell(
            key, "completed", fingerprint=fingerprint, objective=cell.objective
        )
        self._emit(
            ProgressEvent(
                kind="cell-finished",
                workload_name=grid.workload_name,
                weighted=grid.weighted,
                key=key,
                wall_time=wall,
                objective=cell.objective,
            )
        )
