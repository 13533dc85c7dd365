"""The simulation job service: scheduler, supervisor, and public API.

:class:`SimulationService` owns five pieces of state:

* a job table (``job_id -> JobRecord``) and a priority heap of queued
  jobs (``(priority, submit_seq)`` order: smaller priority first, FIFO
  within a priority),
* a :class:`~repro.serve.journal.JobJournal` - the write-ahead log
  every state transition is durably appended to *before* the service
  acts on it, and the thing that makes the job table survive a crash:
  startup replays the journal, reconstructs the table, requeues
  non-terminal jobs, and compacts,
* a :class:`~repro.serve.pool.WorkerPool` of simulator processes,
* a :class:`~repro.serve.store.ResultStore` probed at submit time -
  a spec whose content key is already stored completes instantly
  without touching the queue (the "re-submit is free" property),
* a :class:`~repro.serve.telemetry.Telemetry` instance every
  transition is mirrored into.

A single supervisor thread drives the event loop: drain worker
completion messages, detect dead workers and expired deadlines, requeue
or fail the affected jobs (bounded retries with exponential backoff),
respawn replacement workers, and dispatch queued jobs onto idle
workers.  Between ticks it sleeps until a worker writes to its result
pipe, a job is queued or the service stops.  Failure semantics:
infrastructure failures (worker death, timeout) are retried up to
``max_retries`` because they say nothing about the job; an error
*reported* by a healthy worker is deterministic (the simulator is
seeded) and fails the job immediately.

Overload and poison protection:

* **Admission control** - the queue is bounded by a high/low watermark
  pair with hysteresis: once the queued depth reaches
  ``queue_high_watermark`` new submissions are shed
  (:class:`QueueFullError` -> HTTP 429 + ``Retry-After``) until the
  depth falls back to ``queue_low_watermark``.  Store cache hits bypass
  admission (they never queue).
* **Poison-job circuit breaker** - a spec key that keeps killing
  workers (``poison_threshold`` deaths/timeout kills, counted across
  jobs and resubmissions) is quarantined: the job transitions to the
  terminal ``poisoned`` state and later submissions of the same key are
  poisoned immediately instead of consuming workers forever.
* **Graceful drain** - :meth:`drain` stops admission
  (:class:`ServiceDrainingError` -> HTTP 503) and dispatch, gives
  running jobs ``drain_timeout_s`` to finish (their periodic
  checkpoints bound lost work either way), journals still-running jobs
  back to ``queued``, compacts, and stops; the next startup replays
  them.
"""

from __future__ import annotations

import heapq
import itertools
import os
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as wait_ready
from typing import Any, Optional

from repro.chaos.plan import active_plan
from repro.chaos.process import journal_kill_hook, shard_kill_hook
from repro.errors import ConfigurationError, CorruptResultError, ReproError
from repro.experiments.runner import _resolve_cache_dir
from repro.serve import telemetry as tm
from repro.serve.journal import JobJournal
from repro.serve.jobs import JobRecord, JobSpec, JobState
from repro.serve.pool import MSG_CHAOS, MSG_DONE, MSG_ERROR, MSG_STARTED, WorkerPool
from repro.serve.store import ResultStore
from repro.serve.telemetry import Telemetry


#: longest a ``GET /jobs/<id>?wait_s=`` long poll holds its request.
MAX_POLL_WAIT_S = 30.0


class AdmissionError(ReproError):
    """A submission was rejected before any state was created.

    Carries the HTTP status the API layer should answer with and the
    ``Retry-After`` hint; the request is safe to retry verbatim.
    """

    status = 503

    def __init__(self, message: str, retry_after_s: float) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class QueueFullError(AdmissionError):
    """Shed: the queue is above the high watermark (HTTP 429)."""

    status = 429


class ServiceDrainingError(AdmissionError):
    """The service is draining or replaying its journal (HTTP 503)."""

    status = 503


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance."""

    n_workers: int = 2
    #: real-time budget per attempt (monotonic); 0 disables deadlines.
    job_timeout_s: float = 300.0
    #: attempts beyond the first for infrastructure failures.
    max_retries: int = 2
    #: base of the exponential retry backoff (doubles per attempt).
    retry_backoff_s: float = 0.25
    #: longest the supervisor sleeps between ticks.  A worker message,
    #: a queued job and :meth:`SimulationService.stop` wake it at once,
    #: so this only bounds how late an expired retry backoff
    #: (``not_before``) or attempt deadline is acted on, and how often
    #: :meth:`SimulationService.drain` polls for running jobs.
    poll_interval_s: float = 0.02
    #: ``run_sweep``'s memo store directory for workers (None = the
    #: sweep executor's default resolution; "" disables).
    sweep_cache_dir: Optional[str] = None
    #: simulation phases between worker-side checkpoints (0 disables);
    #: a respawned attempt resumes from the last snapshot, so a crash
    #: loses at most this many phases of work.
    checkpoint_every_phases: int = 256
    #: queued depth at which new submissions are shed (429).
    queue_high_watermark: int = 512
    #: queued depth at which shedding stops again (hysteresis).
    queue_low_watermark: int = 384
    #: worker deaths/timeout kills on one spec key before the key is
    #: quarantined as ``poisoned`` (0 disables the breaker).
    poison_threshold: int = 3
    #: how long :meth:`SimulationService.drain` waits for running jobs.
    drain_timeout_s: float = 10.0
    #: ``Retry-After`` hint (seconds) sent with shed/drain responses.
    shed_retry_after_s: float = 1.0
    #: write-ahead journal path (None = ``<store_dir>/journal.jsonl``).
    journal_path: Optional[str] = None
    #: identity of this instance inside a fleet (reported by /healthz,
    #: targeted by the ``process.shard_kill`` chaos point); None when
    #: running solo.
    shard_name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.queue_high_watermark < 1:
            raise ConfigurationError("queue_high_watermark must be >= 1")
        if not 0 <= self.queue_low_watermark <= self.queue_high_watermark:
            raise ConfigurationError(
                "queue_low_watermark must be in [0, queue_high_watermark]"
            )
        if self.poison_threshold < 0:
            raise ConfigurationError("poison_threshold must be >= 0")
        if self.drain_timeout_s < 0:
            raise ConfigurationError("drain_timeout_s must be >= 0")


class SimulationService:
    """Asynchronous, supervised simulation job service."""

    def __init__(
        self,
        store_dir: str,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.store = ResultStore(store_dir)
        self.telemetry = Telemetry()
        self.journal = JobJournal(
            self.config.journal_path
            or os.path.join(store_dir, "journal.jsonl")
        )
        plan = active_plan()
        if plan is not None:
            hook = journal_kill_hook(plan) or shard_kill_hook(
                plan, self.config.shard_name
            )
            if hook is not None:
                self.journal.on_append = hook
        self.pool = WorkerPool(
            self.config.n_workers,
            store_dir,
            _resolve_cache_dir(True, self.config.sweep_cache_dir),
            checkpoint_every=self.config.checkpoint_every_phases,
        )
        self._jobs: dict[str, JobRecord] = {}
        self._heap: list[tuple[int, int, str]] = []
        self._seq = itertools.count(1)
        self._lock = threading.RLock()
        self._done = threading.Condition(self._lock)
        self._stop = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        #: (read, write) fds of the pipe that wakes the supervisor's
        #: wait; open from start() to stop().
        self._wake_fds: Optional[tuple[int, int]] = None
        #: queued-job depth (kept exact so admission is O(1), not a scan).
        self._queued = 0
        self._shedding = False
        self._draining = False
        self._replaying = True
        #: poisoned spec keys -> reason (rebuilt from the journal).
        self._poisoned: dict[str, str] = {}
        #: infrastructure deaths per spec key (the breaker's memory).
        self._death_counts: dict[str, int] = {}
        self._recover()
        self._replaying = False

    # -- crash recovery -------------------------------------------------------
    def _recover(self) -> None:
        """Replay the journal into a live job table, then compact.

        Last-write-wins per job id.  Terminal jobs keep their state
        (their results live in the store); non-terminal jobs - queued
        when the crash hit, or running (the worker is gone; PR 4
        checkpoints make the re-run cheap) - are requeued exactly once.
        A requeued job whose result key landed in the store before the
        crash completes instantly instead of recomputing.
        """
        replay = self.journal.replay()
        max_seq = 0
        for entry in replay.entries:
            if entry.get("op") != "job":
                continue
            try:
                record = JobRecord.from_dict(entry.get("record"))
            except ReproError:
                self.telemetry.count("journal.bad_records")
                continue
            self._jobs[record.job_id] = record
            try:
                max_seq = max(max_seq, int(record.job_id.rsplit("-", 1)[-1]))
            except ValueError:
                pass
        self._seq = itertools.count(max_seq + 1)
        for record in self._jobs.values():
            self.telemetry.count(tm.JOBS_JOURNAL_REPLAYED)
            if record.state is JobState.POISONED:
                self._poisoned[record.key] = record.error or "poisoned"
            if record.state.terminal:
                continue
            record.worker_id = None
            record.not_before = 0.0
            if self._stored(record.key):
                record.state = JobState.DONE
                record.cache_hit = True
                record.finished_at = time.time()
                self.telemetry.count(tm.CACHE_HITS_STORE)
                self.telemetry.count(tm.JOBS_COMPLETED)
                self.telemetry.event(
                    record.job_id, "done", cache_hit=True, replayed=True
                )
                continue
            record.state = JobState.QUEUED
            heapq.heappush(
                self._heap, (record.spec.priority, next(self._seq), record.job_id)
            )
            self._queued += 1
            self.telemetry.event(
                record.job_id, "requeued", replayed=True, attempts=record.attempts
            )
        if replay.torn_tail:
            self.telemetry.count("journal.torn_tails")
        if replay.entries or replay.total_bytes:
            self._compact()
        self._update_shedding()

    def _compact(self) -> None:
        """Fold the journal into one snapshot of the current job table."""
        entries = [
            {"op": "job", "record": r.to_dict()} for r in self._jobs.values()
        ]
        self.journal.compact(entries)
        self.telemetry.count(tm.JOURNAL_COMPACTIONS)

    def _journal_record(self, record: JobRecord) -> None:
        """Durably log one transition (called with the lock held)."""
        self.journal.append({"op": "job", "record": record.to_dict()})

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> "SimulationService":
        wake_r, wake_w = os.pipe()
        # non-blocking both ends: a full pipe already holds a wake-up
        os.set_blocking(wake_r, False)
        os.set_blocking(wake_w, False)
        with self._lock:
            self._wake_fds = (wake_r, wake_w)
        self.pool.start()
        self._supervisor = threading.Thread(
            target=self._supervise,
            args=(wake_r,),
            name="repro-serve-supervisor",
            daemon=True,
        )
        self._supervisor.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        self._wake()
        with self._done:
            self._done.notify_all()  # long polls answer now
        if self._supervisor is not None:
            self._supervisor.join(timeout=timeout)
        self.pool.stop()
        self.journal.close()
        with self._lock:
            supervising = self._supervisor is not None and self._supervisor.is_alive()
            if self._wake_fds is not None and not supervising:
                for fd in self._wake_fds:
                    os.close(fd)
                self._wake_fds = None

    def _wake(self) -> None:
        """Wake the supervisor's wait (any thread)."""
        with self._lock:
            if self._wake_fds is None:
                return
            try:
                os.write(self._wake_fds[1], b"\0")
            except BlockingIOError:
                pass  # the pipe is full: a wake-up is already pending

    def drain(self, timeout: Optional[float] = None) -> None:
        """Graceful shutdown: stop admission, settle, journal, stop.

        New submissions are rejected with :class:`ServiceDrainingError`
        (HTTP 503) and queued jobs stay queued; running jobs get up to
        ``drain_timeout_s`` to finish (worker checkpoints bound the lost
        work if they don't).  Whatever is still running is journaled
        back to ``queued``, the journal is compacted, and the service
        stops - the next startup requeues the remainder.
        """
        budget = self.config.drain_timeout_s if timeout is None else timeout
        with self._lock:
            already = self._draining
            self._draining = True
            self._done.notify_all()  # long polls answer now
        if not already:
            self.telemetry.event("service", "draining")
        deadline = time.monotonic() + budget
        while time.monotonic() < deadline:
            with self._lock:
                running = any(
                    r.state is JobState.RUNNING for r in self._jobs.values()
                )
            if not running:
                break
            time.sleep(max(0.01, self.config.poll_interval_s))
        with self._lock:
            for record in self._jobs.values():
                if record.state is not JobState.RUNNING:
                    continue
                record.state = JobState.QUEUED
                record.worker_id = None
                record.not_before = 0.0
                self._queued += 1
                self._journal_record(record)
                self.telemetry.event(
                    record.job_id, "requeued", drain=True, attempts=record.attempts
                )
            self._compact()
        self.stop()

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def __enter__(self) -> "SimulationService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- admission ------------------------------------------------------------
    def _update_shedding(self) -> None:
        """Watermark hysteresis (lock held): flip the shedding latch."""
        if not self._shedding and self._queued >= self.config.queue_high_watermark:
            self._shedding = True
            self.telemetry.event("service", "shedding", queue_depth=self._queued)
        elif self._shedding and self._queued <= self.config.queue_low_watermark:
            self._shedding = False
            self.telemetry.event("service", "admitting", queue_depth=self._queued)

    def readiness(self) -> tuple[bool, dict[str, Any]]:
        """The ``/readyz`` verdict: ready to accept new work, and why not."""
        with self._lock:
            self._update_shedding()  # probe sees the current watermark verdict
            reasons = []
            if self._replaying:
                reasons.append("replaying journal")
            if self._draining:
                reasons.append("draining")
            if self._shedding:
                reasons.append(
                    f"shedding: queue depth {self._queued} reached high "
                    f"watermark {self.config.queue_high_watermark}"
                )
            detail = {
                "ready": not reasons,
                "reasons": reasons,
                "queue_depth": self._queued,
                "draining": self._draining,
                "shedding": self._shedding,
            }
        return not reasons, detail

    # -- client API -----------------------------------------------------------
    def submit(self, spec: JobSpec) -> JobRecord:
        """Enqueue a job (or serve it instantly from the result store).

        Raises :class:`ServiceDrainingError` while draining/replaying
        and :class:`QueueFullError` when the queue is above the high
        watermark - in both cases no job state is created and the
        request is safe to retry after the advertised delay.
        """
        key = spec.cache_key()
        retry_after = self.config.shed_retry_after_s
        with self._lock:
            if self._draining or self._replaying:
                raise ServiceDrainingError(
                    "service is draining; retry against the restarted instance",
                    retry_after,
                )
            poisoned = self._poisoned.get(key)
        now = time.time()
        record = JobRecord(
            job_id="", spec=spec, key=key, submitted_at=now
        )
        if poisoned is not None:
            with self._lock:
                record.job_id = f"job-{next(self._seq):08d}"
                record.error = f"spec key {key[:12]}.. is quarantined: {poisoned}"
                self._jobs[record.job_id] = record
                self.telemetry.count(tm.JOBS_SUBMITTED)
                self._finish(record, JobState.POISONED)
            return record
        if self._stored(key):
            record.cache_hit = True
            with self._lock:
                record.job_id = f"job-{next(self._seq):08d}"
                self._jobs[record.job_id] = record
                self.telemetry.count(tm.JOBS_SUBMITTED)
                self.telemetry.count(tm.CACHE_HITS_STORE)
                self._finish(record, JobState.DONE)
            return record
        with self._lock:
            self._update_shedding()
            if self._shedding:
                self.telemetry.count(tm.QUEUE_SHED)
                raise QueueFullError(
                    f"queue depth {self._queued} is at the high watermark "
                    f"({self.config.queue_high_watermark}); retry later",
                    retry_after,
                )
            seq = next(self._seq)
            record.job_id = f"job-{seq:08d}"
            self.telemetry.count(tm.JOBS_SUBMITTED)
            self._jobs[record.job_id] = record
            self._journal_record(record)
            heapq.heappush(self._heap, (spec.priority, seq, record.job_id))
            self._queued += 1
            # under the lock the dispatcher takes, so "queued" is always
            # recorded before the job's "running"
            self.telemetry.event(
                record.job_id,
                "queued",
                key=key,
                workload=spec.workload,
                priority=spec.priority,
            )
        self._wake()
        return record

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._jobs.get(job_id)
        if record is None:
            raise KeyError(job_id)
        return record

    def result_doc(self, job_id: str) -> Optional[dict[str, Any]]:
        """The stored result document of a DONE job (None until then).

        Every fetch reads the store and verifies the document's
        checksum.  A corrupt entry raises
        :class:`~repro.errors.CorruptResultError` *after* the store has
        quarantined it, so resubmitting the same spec recomputes.
        """
        record = self.get(job_id)
        if record.state is not JobState.DONE:
            return None
        doc = self._read_result(record.key)
        if doc is None:
            self.telemetry.count(tm.CACHE_MISSES)
        return doc

    def _read_result(self, key: str) -> Optional[dict[str, Any]]:
        """The verified stored document of ``key`` (None when absent).

        The one result path: submit probes, journal replay and fetches
        all read here, so a read the store answers counts
        ``cache.disk_hits`` and a corrupt entry counts
        ``results.quarantined`` before its error propagates.
        """
        try:
            doc = self.store.get(key)
        except KeyError:
            return None
        except CorruptResultError:
            self.telemetry.count(tm.RESULTS_QUARANTINED)
            raise
        self.telemetry.count(tm.CACHE_DISK_HITS)
        return doc

    def _stored(self, key: str) -> bool:
        """Whether ``key`` has a valid stored result; a corrupt entry,
        now quarantined, is a miss and the job is computed again."""
        try:
            return self._read_result(key) is not None
        except CorruptResultError:
            return False

    # -- store transfer (fleet migration surface) -----------------------------
    def store_keys(self) -> list[str]:
        """Every content key this shard's store holds (sorted)."""
        return list(self.store.keys())

    def export_result(self, key: str) -> dict[str, Any]:
        """Export one store entry for migration (checksum included)."""
        payload = self.store.export_entry(key)
        self.telemetry.count(tm.STORE_EXPORTS)
        return payload

    def import_result(
        self, key: str, doc: dict[str, Any], trace_b64: Optional[str] = None
    ) -> bool:
        """Verify + persist an entry exported by another shard.

        Returns ``False`` for an idempotent re-import of a key already
        held; raises ``ValueError`` (HTTP 400) on checksum mismatch so a
        corrupted transfer can never be planted into the store.
        """
        imported = self.store.import_entry(key, doc, trace_b64)
        if imported:
            self.telemetry.count(tm.STORE_IMPORTS)
            self.telemetry.event("store", "imported", key=key)
        return imported

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued or running job; False if already terminal.

        Cancelling a running job kills its worker; a fresh one replaces it.
        """
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                raise KeyError(job_id)
            if record.state.terminal:
                return False
            if record.state is JobState.RUNNING and record.worker_id is not None:
                self._kill_and_respawn(record.worker_id)
                self._wake()  # the fresh worker can take a queued job
            elif record.state is JobState.QUEUED:
                self._queued -= 1
                self._update_shedding()
            self._finish(record, JobState.CANCELLED)
        self.telemetry.count(tm.JOBS_CANCELLED)
        return True

    def wait(self, job_id: str, timeout: Optional[float] = None) -> JobRecord:
        """Block until the job reaches a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._done:
            while True:
                record = self._jobs.get(job_id)
                if record is None:
                    raise KeyError(job_id)
                if record.state.terminal:
                    return record
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        f"{job_id} still {record.state.value} after {timeout}s"
                    )
                self._done.wait(timeout=0.1 if remaining is None else min(0.1, remaining))

    def poll(self, job_id: str, wait_s: float = 0.0) -> JobRecord:
        """The job's record once it is terminal, or as it stands after
        ``wait_s`` (at most :data:`MAX_POLL_WAIT_S`) or when the service
        begins to drain or stops.

        The long poll behind ``GET /jobs/<id>?wait_s=``: a client waiting
        on a job sends one request per ``wait_s`` instead of one per
        poll interval, and hears of completion as it happens.
        """
        wait_s = min(wait_s, MAX_POLL_WAIT_S) if wait_s > 0 else 0.0
        deadline = time.monotonic() + wait_s
        with self._done:
            while True:
                record = self._jobs.get(job_id)
                if record is None:
                    raise KeyError(job_id)
                remaining = deadline - time.monotonic()
                if (
                    record.state.terminal
                    or remaining <= 0
                    or self._draining
                    or self._stop.is_set()
                ):
                    return record
                self._done.wait(timeout=remaining)

    def jobs(self) -> list[JobRecord]:
        with self._lock:
            return list(self._jobs.values())

    def metrics(self) -> dict[str, Any]:
        with self._lock:
            states = [r.state for r in self._jobs.values()]
            gauges = {
                "queue_depth": sum(1 for s in states if s is JobState.QUEUED),
                "jobs_in_flight": sum(1 for s in states if s is JobState.RUNNING),
                "jobs_total": len(states),
                "workers_alive": self.pool.alive_count(),
                "workers_busy": self.pool.busy_count(),
                "workers_configured": self.pool.n_workers,
                "draining": self._draining,
                "shedding": self._shedding,
                "replaying": self._replaying,
                "queue_high_watermark": self.config.queue_high_watermark,
                "queue_low_watermark": self.config.queue_low_watermark,
                "queue_shed_total": self.telemetry.counter(tm.QUEUE_SHED),
                "poisoned_keys": len(self._poisoned),
                "journal_size_bytes": self.journal.size_bytes(),
                "journal_records": self.journal.record_count,
            }
        return self.telemetry.snapshot(gauges)

    # -- supervisor loop ------------------------------------------------------
    def _supervise(self, wake_r: int) -> None:
        while not self._stop.is_set():
            try:
                self._drain_results()
                with self._lock:
                    self._check_workers()
                    self._dispatch()
                self._await_event(wake_r)
            except Exception:  # keep supervising: one bad tick must not
                self.telemetry.count("supervisor.errors")  # kill the service
                self._stop.wait(self.config.poll_interval_s)

    def _await_event(self, wake_r: int) -> None:
        """Sleep until a worker's result pipe is readable, :meth:`_wake`
        writes to ``wake_r``'s pipe, or ``poll_interval_s`` passes; then
        empty the wake pipe.  Pipes at EOF are left out, so a dead
        worker awaiting its respawn cannot make the loop spin."""
        ready = wait_ready(
            [*self.pool.result_pipes(), wake_r], timeout=self.config.poll_interval_s
        )
        if wake_r in ready:
            try:
                while os.read(wake_r, 4096):
                    pass
            except BlockingIOError:
                pass  # emptied

    def _drain_results(self) -> None:
        messages = self.pool.messages()
        for kind, worker_id, job_id, attempt, detail in messages:
            with self._lock:
                handle = self.pool.workers.get(worker_id)
                record = self._jobs.get(job_id)
                # stale messages (from a killed/replaced worker, or for a
                # superseded attempt) are dropped: the current assignment
                # is the only source of truth.
                current = (
                    handle is not None
                    and record is not None
                    and handle.assignment == (job_id, attempt)
                    and record.state is JobState.RUNNING
                )
                if not current:
                    continue
                if kind == MSG_STARTED:
                    record.started_at = time.time()
                    continue
                self.pool.release(handle)
                if kind == MSG_DONE:
                    if detail.get("sweep_cache_hit"):
                        self.telemetry.count(tm.CACHE_HITS_SWEEP)
                    else:
                        self.telemetry.count(tm.SIMULATIONS_RUN)
                    if detail.get("resumed"):
                        self.telemetry.count(tm.JOBS_RESUMED)
                    self._finish(record, JobState.DONE)
                elif kind == MSG_CHAOS:
                    # an injected fault consumed the attempt; like any
                    # infrastructure failure it says nothing about the
                    # job, so retry with backoff (the plan's ``attempts``
                    # bound guarantees a clean attempt within reach).
                    self.telemetry.count(tm.CHAOS_INJECTIONS)
                    self._retry_or_fail(
                        record, detail.get("error", "injected chaos fault")
                    )
                elif kind == MSG_ERROR:
                    # a *reported* error is deterministic - fail fast.
                    record.error = detail.get("error", "unknown worker error")
                    self._finish(record, JobState.FAILED)

    def _check_workers(self) -> None:
        now = time.monotonic()  # handle.deadline is monotonic
        for worker_id, handle in list(self.pool.workers.items()):
            held = handle.assignment
            if not handle.alive():
                self.pool.respawn(worker_id)
                self.telemetry.count(tm.WORKER_RESPAWNS)
                if held is not None:
                    self.telemetry.count(tm.WORKER_DEATHS)
                    self._recover_job(held[0], "worker process died")
            elif held is not None and handle.deadline and now > handle.deadline:
                self.telemetry.count(tm.JOBS_TIMED_OUT)
                self._kill_and_respawn(worker_id)
                self._recover_job(
                    held[0], f"attempt exceeded {self.config.job_timeout_s}s timeout"
                )

    def _recover_job(self, job_id: str, reason: str) -> None:
        """Recover the job a dead/killed worker was holding.

        The worker stores a result durably *before* it sends the
        completion message, and a SIGKILL can land between the two (or
        tear the message):

        * a result that already reached the store means the job
          finished - only the message was lost.  Finalize it as DONE.
        * otherwise the attempt is charged: a death count against the
          poison breaker, then retry with backoff (or terminal failure).
        """
        record = self._jobs.get(job_id)
        if record is None or record.state is not JobState.RUNNING:
            return
        if self.store.contains(record.key):
            self._finish(record, JobState.DONE)
        elif not self._note_infra_death(record):
            self._retry_or_fail(record, reason)

    def _dispatch(self) -> None:
        if self._draining:
            return  # drain: running jobs settle, queued jobs stay queued
        idle = self.pool.idle_workers()
        if not idle:
            return
        now = time.monotonic()  # not_before is monotonic (retry backoff)
        deferred: list[tuple[int, int, str]] = []
        while idle:
            record = self._pop_ready(now, deferred)
            if record is None:
                break
            handle = idle.pop()
            record.attempts += 1
            record.state = JobState.RUNNING
            record.started_at = time.time()  # refined by MSG_STARTED
            record.worker_id = handle.worker_id
            self._queued -= 1
            self._journal_record(record)
            self.telemetry.event(
                record.job_id,
                "running",
                attempt=record.attempts,
                worker_id=handle.worker_id,
            )
            self.pool.assign(
                handle,
                (record.job_id, record.attempts, record.spec.to_dict(), record.key),
                self.config.job_timeout_s,
            )
        for entry in deferred:
            heapq.heappush(self._heap, entry)
        self._update_shedding()

    def _pop_ready(
        self, now: float, deferred: list[tuple[int, int, str]]
    ) -> Optional[JobRecord]:
        """Pop the next dispatchable job in priority/FIFO order (lock
        held).  Backoff-deferred jobs land in ``deferred`` (the caller
        re-pushes them after the dispatch round)."""
        while self._heap:
            entry = heapq.heappop(self._heap)
            record = self._jobs.get(entry[2])
            if record is None or record.state is not JobState.QUEUED:
                continue  # cancelled (or otherwise superseded) while queued
            if record.not_before > now:
                deferred.append(entry)
                continue
            return record
        return None

    # -- internal transitions (lock held) ------------------------------------
    def _kill_and_respawn(self, worker_id: int) -> None:
        self.pool.kill(worker_id)
        self.pool.respawn(worker_id)
        self.telemetry.count(tm.WORKER_RESPAWNS)

    def _note_infra_death(self, record: JobRecord) -> bool:
        """Count a worker death/timeout against the job's spec key.

        Returns True when the count reached ``poison_threshold`` and the
        breaker tripped - the record is then terminally POISONED and the
        key quarantined, so the caller must not retry.
        """
        if self.config.poison_threshold <= 0:
            return False
        count = self._death_counts.get(record.key, 0) + 1
        self._death_counts[record.key] = count
        if count < self.config.poison_threshold:
            return False
        reason = (
            f"{count} worker deaths/timeouts on key {record.key[:12]}.. "
            f"(threshold {self.config.poison_threshold})"
        )
        self._poisoned[record.key] = reason
        record.error = reason
        self._finish(record, JobState.POISONED)
        return True

    def _retry_or_fail(self, record: JobRecord, reason: str) -> None:
        if record.attempts > self.config.max_retries:
            record.error = f"{reason} (attempt {record.attempts}, retries exhausted)"
            self._finish(record, JobState.FAILED)
            return
        backoff = self.config.retry_backoff_s * (2 ** (record.attempts - 1))
        record.state = JobState.QUEUED
        record.worker_id = None
        record.not_before = time.monotonic() + backoff
        self._queued += 1
        self._journal_record(record)
        heapq.heappush(
            self._heap, (record.spec.priority, next(self._seq), record.job_id)
        )
        self.telemetry.count(tm.JOBS_RETRIED)
        self.telemetry.event(
            record.job_id,
            "retrying",
            attempt=record.attempts,
            reason=reason,
            backoff_s=backoff,
        )

    def _finish(self, record: JobRecord, state: JobState) -> None:
        record.state = state
        record.finished_at = time.time()
        record.worker_id = None
        self._journal_record(record)
        if state is JobState.DONE:
            self.telemetry.count(tm.JOBS_COMPLETED)
            self.telemetry.observe_latency(
                (record.finished_at - record.submitted_at) * 1e9
            )
            if record.started_at is not None:
                self.telemetry.charge(
                    "job.run", (record.finished_at - record.started_at) * 1e9
                )
                self.telemetry.charge(
                    "job.wait", (record.started_at - record.submitted_at) * 1e9
                )
        elif state is JobState.FAILED:
            self.telemetry.count(tm.JOBS_FAILED)
        elif state is JobState.POISONED:
            self.telemetry.count(tm.JOBS_POISONED)
        self.telemetry.event(
            record.job_id,
            state.value,
            attempts=record.attempts,
            cache_hit=record.cache_hit,
            error=record.error,
        )
        self._done.notify_all()

    # -- convenience ----------------------------------------------------------
    def submit_dict(self, payload: dict[str, Any]) -> JobRecord:
        """Validate an untrusted payload and submit it (the HTTP path)."""
        spec = JobSpec.from_dict(payload)
        try:
            spec.build()  # surface config errors at submit, not in a worker
        except ConfigurationError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(str(exc)) from exc
        return self.submit(spec)


class JoinAnnouncer:
    """Announces one shard to the fleet's gateways (elastic membership).

    A shard started with ``--announce`` does not need to appear in any
    gateway's static registry: this background thread POSTs
    ``/fleet/join`` - ``shard_name``, the shard's advertised base URL,
    and its ``code_version`` - to the gateway endpoints until a
    *primary* accepts, then keeps re-announcing every ``interval_s`` so
    a gateway that restarted against an empty membership journal
    relearns the shard without operator action.  Joins are idempotent
    on the gateway side, so re-announcing is safe.

    Two behaviours make announcing survive primary elections: the pass
    **rotates** to start at whichever gateway last accepted (so a
    re-announce normally costs one request), and a follower's 503 hint
    body (``{"primary": <url>}``) is **chased** - the hinted URL is
    tried next, ahead of the static list, even when it names a gateway
    the operator never configured.  A ``tried`` set bounds the chase so
    two stale followers hinting at each other cannot loop.

    :meth:`leave` is the graceful-drain counterpart: a best-effort
    ``POST /fleet/leave`` to every gateway so the ring arc is migrated
    off before the shard's process exits.
    """

    def __init__(
        self,
        gateway_urls: list[str],
        shard_name: str,
        advertise_url: str,
        interval_s: float = 10.0,
    ) -> None:
        from repro.experiments.runner import code_version
        from repro.serve.client import ServiceClient

        if not shard_name:
            raise ConfigurationError("--announce requires --shard-name")
        self.shard_name = shard_name
        self.advertise_url = advertise_url
        self.interval_s = max(0.05, float(interval_s))
        self.code_version = code_version()
        self._urls = [url.rstrip("/") for url in gateway_urls]
        self._clients = {
            url: ServiceClient(
                url, timeout_s=5.0, connect_timeout_s=2.0, retries=0
            )
            for url in self._urls
        }
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        #: gateway URL that last accepted our join (None before any).
        self.joined_via: Optional[str] = None
        self.announce_attempts = 0
        #: follower primary-hints followed to a gateway outside the list.
        self.hints_chased = 0

    def _client_for(self, url: str):
        from repro.serve.client import ServiceClient

        url = url.rstrip("/")
        with self._lock:
            client = self._clients.get(url)
            if client is None:
                client = ServiceClient(
                    url, timeout_s=5.0, connect_timeout_s=2.0, retries=0
                )
                self._clients[url] = client
        return client

    def _payload(self) -> dict[str, Any]:
        return {
            "shard_name": self.shard_name,
            "url": self.advertise_url,
            "code_version": self.code_version,
        }

    def announce_once(self) -> bool:
        """One pass over the gateway list; True when a primary accepted."""
        from repro.serve.client import ServiceClientError

        payload = self._payload()
        with self._lock:
            start = self.joined_via
        order = list(self._urls)
        if start in order:
            # rotate so the gateway that last accepted is retried first
            pivot = order.index(start)
            order = order[pivot:] + order[:pivot]
        queue = list(order)
        tried: set[str] = set()
        while queue:
            url = queue.pop(0)
            if url in tried:
                continue
            tried.add(url)
            with self._lock:
                self.announce_attempts += 1
            try:
                self._client_for(url)._request("POST", "/fleet/join", payload)
            except ServiceClientError as exc:
                # a follower's 503 carries the acting primary's URL in
                # its body: chase it ahead of the static list.
                hint = (getattr(exc, "detail", None) or {}).get("primary")
                if isinstance(hint, str) and hint.rstrip("/") not in tried:
                    queue.insert(0, hint.rstrip("/"))
                    if hint.rstrip("/") not in self._urls:
                        with self._lock:
                            self.hints_chased += 1
                continue  # unreachable, follower (503), or rejected (403)
            except OSError:
                continue
            with self._lock:
                self.joined_via = url
            return True
        return False

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.announce_once()
            except Exception:  # announcing must never kill the shard
                pass
            if self._stop.wait(self.interval_s):
                return

    def start(self) -> "JoinAnnouncer":
        self._thread = threading.Thread(
            target=self._loop, name="repro-serve-announcer", daemon=True
        )
        self._thread.start()
        return self

    def leave(self, drain_timeout_s: float = 30.0) -> None:
        """Best-effort graceful departure (called before drain).

        A leave is accepted with 202 while the gateway migrates this
        shard's ring arc *out* - and that migration pulls from this
        shard's own store over HTTP, so tearing the server down the
        moment the POST returns would strand the arc (the migrator
        would skip every key as unreachable).  After a gateway accepts,
        poll its ``/fleet/view`` until this member reads ``left`` (the
        migration completed and routing flipped) or ``drain_timeout_s``
        runs out, then let the caller shut the HTTP server down.
        """
        from repro.serve.client import ServiceClientError

        self._stop.set()
        payload = {"shard_name": self.shard_name}
        accepted = None
        with self._lock:
            clients = list(self._clients.values())
            start = self.joined_via
        # whoever accepted our join is most likely the acting primary
        clients.sort(key=lambda c: c.base_url != start)
        for client in clients:
            try:
                client._request("POST", "/fleet/leave", payload)
            except (ServiceClientError, OSError):
                continue
            accepted = client
            break
        if accepted is None:
            return
        deadline = time.monotonic() + max(0.0, float(drain_timeout_s))
        while time.monotonic() < deadline:
            try:
                view = accepted._request("GET", "/fleet/view")
            except (ServiceClientError, OSError):
                return  # gateway gone; nothing left to wait for
            states = {
                m.get("name"): m.get("state")
                for m in view.get("members", [])
            }
            if states.get(self.shard_name, "left") == "left":
                return
            time.sleep(0.2)

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
