"""Supervised ``multiprocessing`` worker pool.

Each worker is a separate OS process with its *own* depth-1 task queue,
so the supervisor always knows exactly which job a worker holds - the
property that makes death/timeout recovery exact: when a worker dies or
is killed, its assigned job (and only that one) is recovered.  Each worker
also has its own one-way result pipe carrying small completion messages
back, written synchronously: a worker SIGKILLed mid-message can only
tear its own pipe, which the supervisor drops with it.  (A queue shared
by all workers has one write lock; a worker killed while its feeder
thread held it would silence every other worker for good.)  The actual
result documents go through the on-disk
:class:`~repro.serve.store.ResultStore` written by the worker itself, so
large payloads never transit a pipe.

Workers are *warm*: one process serves many tasks, so its start and
imports are paid once.  A task is one job, ``(job_id, attempt,
spec_dict, key)``; the worker builds its workload afresh, runs it, and
reports started and then done/error/chaos on its pipe.

Workers execute jobs through
:func:`repro.experiments.runner.execute_job` - the same cache-aware code
path ``run_sweep`` uses - so the service and the sweep executor share
one simulation path and one memo format (a checksummed
:class:`~repro.serve.store.ResultStore`).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import time
import traceback
from dataclasses import dataclass
from typing import Any, Optional

#: seconds an idle worker waits for a task before checking that its
#: supervisor is still alive; a task handed over meanwhile is taken at
#: once.
PARENT_POLL_S = 1.0

#: message kinds on the result pipes
MSG_STARTED = "started"
MSG_DONE = "done"
MSG_ERROR = "error"
#: an injected fault consumed this attempt; retryable (unlike MSG_ERROR,
#: which is deterministic and fails fast).
MSG_CHAOS = "chaos"


def _mp_context():
    try:
        return mp.get_context("fork")  # cheap start, inherits imports
    except ValueError:  # pragma: no cover - non-POSIX
        return mp.get_context()


def worker_main(
    worker_id: int,
    task_queue,
    results,
    store_dir: str,
    cache_dir: Optional[str],
    checkpoint_every: int = 256,
) -> None:
    """Worker process body: pull one job at a time, run it, report.

    ``results`` is the write end of this worker's result pipe.

    Imports happen lazily so a ``spawn``-context worker also boots.

    An idle worker returns on the poison pill (``None``) or, within
    :data:`PARENT_POLL_S`, once its supervisor process is gone.

    Fault injection (``UVMREPRO_CHAOS``) is applied here, at the worker
    boundary: process faults (kill/hang/slow-start) hit the worker
    itself, model faults run a *probe attempt* (the degraded simulation
    is exercised end-to-end, its result discarded, and the attempt
    reported as :data:`MSG_CHAOS` so the supervisor retries - keeping
    stored results bit-identical to fault-free runs), and storage faults
    corrupt the attempt's store artifacts before failing it.  Each
    fault's trial index is ``attempt - 1``, so a plan's ``attempts``
    bound guarantees a later clean attempt.
    """
    from repro.chaos import plan as chaos_plan
    from repro.serve.store import ResultStore

    # fresh env read: a fork-context worker inherits the parent's module
    # cache, and the parent may have armed a different plan.
    plan = chaos_plan.plan_from_env()
    # never sweep tmp debris from a worker: siblings share this root and
    # their pre-rename tempfiles must not be unlinked under them.  The
    # service-owned store sweeps at startup instead.
    store = ResultStore(store_dir, sweep_tmp=False)
    supervisor = os.getppid()
    while True:
        try:
            task = task_queue.get(timeout=PARENT_POLL_S)
        except queue.Empty:
            if os.getppid() != supervisor:
                # The supervisor died without sending the poison pill
                # (SIGKILL).  This process inherited the task queue's
                # write end, so a plain get() would never see EOF and
                # the worker would outlive its service as an orphan.
                return
            continue
        if task is None:
            return
        _run_job(worker_id, results, store, cache_dir, checkpoint_every, plan, task)


def _run_job(
    worker_id: int,
    results,
    store,
    cache_dir: Optional[str],
    checkpoint_every: int,
    plan,
    task: tuple,
) -> None:
    """Execute one job and report its outcome (worker-side); a reported
    error or injected fault leaves the worker serving."""
    from repro.chaos import plan as chaos_plan
    from repro.chaos.injector import model_injection
    from repro.chaos.process import apply_process_faults, checkpoint_kill_hook
    from repro.chaos import storage as chaos_storage
    from repro.errors import ChaosError
    from repro.serve.jobs import JobSpec
    from repro.serve.results import result_to_doc
    from repro.sim.engine import SimulationCheckpointer
    from repro.experiments.runner import checkpoint_path, execute_job, simulate

    job_id, attempt, spec_dict, key = task
    results.send((MSG_STARTED, worker_id, job_id, attempt, {}))
    trial = attempt - 1
    t0 = time.perf_counter_ns()
    try:
        if plan is not None:
            apply_process_faults(plan, key, trial)
        spec = JobSpec.from_dict(spec_dict)
        workload, setup = spec.build()

        if plan is not None and any(
            plan.should_fire(point, key, trial) is not None
            for point in chaos_plan.MODEL_POINTS
        ):
            # probe attempt: run the degraded simulation (replay
            # storms / DMA retries / allocation pressure all modelled
            # and sanitized), then discard it - the canonical result
            # must come from a clean attempt.  Bypasses the sweep
            # cache in both directions.
            with model_injection(plan):
                simulate(workload, setup, record_trace=spec.record_trace)
            raise ChaosError(
                f"injected model fault(s) on attempt {attempt}; "
                "degraded probe completed, result discarded"
            )

        checkpointer = None
        if checkpoint_every > 0:
            checkpointer = SimulationCheckpointer(
                checkpoint_path(os.fspath(store.root), key),
                every_phases=checkpoint_every,
                on_save=None
                if plan is None
                else checkpoint_kill_hook(plan, key, trial),
            )
        result, sweep_hit = execute_job(
            workload,
            setup,
            spec.record_trace,
            cache_dir=cache_dir,
            checkpointer=checkpointer,
        )
        resumed = checkpointer is not None and checkpointer.resumed
        elapsed_ns = time.perf_counter_ns() - t0
        doc = result_to_doc(
            result,
            extra={
                "job_id": job_id,
                "key": key,
                "workload": spec.workload,
                "data_bytes": spec.data_bytes,
                "seed": spec.seed,
                "worker_pid": os.getpid(),
                "run_wall_ns": elapsed_ns,
            },
        )
        trace = result.trace if spec.record_trace else None
        if plan is not None:
            fired = plan.should_fire(chaos_plan.STORAGE_TORN_JSON, key, trial)
            if fired is not None:
                chaos_storage.tear_json(store, key, doc)
                raise ChaosError(
                    f"injected torn document for {key[:12]}.. "
                    f"on attempt {attempt}"
                )
            fired = plan.should_fire(chaos_plan.STORAGE_TRUNCATED_NPZ, key, trial)
            if fired is not None and trace is not None:
                chaos_storage.truncate_npz(
                    store, key, trace, metadata={"job_id": job_id}
                )
                raise ChaosError(
                    f"injected truncated trace for {key[:12]}.. "
                    f"on attempt {attempt}"
                )
            if plan.should_fire(chaos_plan.STORAGE_STALE_TMP, key, trial):
                # non-fatal debris: the attempt itself succeeds; the
                # service's startup sweep (or quarantine audit) must
                # cope with the leftover.
                chaos_storage.leave_stale_tmp(store, key)
        store.store(
            key,
            doc,
            trace=trace,
            trace_metadata={"job_id": job_id, "workload": spec.workload},
        )
        results.send(
            (
                MSG_DONE,
                worker_id,
                job_id,
                attempt,
                {
                    "sweep_cache_hit": sweep_hit,
                    "run_wall_ns": elapsed_ns,
                    "resumed": resumed,
                },
            )
        )
    except ChaosError as exc:
        results.send(
            (
                MSG_CHAOS,
                worker_id,
                job_id,
                attempt,
                {"error": f"{type(exc).__name__}: {exc}"},
            )
        )
    except BaseException as exc:  # report and keep serving
        results.send(
            (
                MSG_ERROR,
                worker_id,
                job_id,
                attempt,
                {
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(limit=8),
                },
            )
        )


@dataclass
class WorkerHandle:
    """Supervisor-side view of one worker process."""

    worker_id: int
    process: mp.Process
    task_queue: Any
    #: read end of the worker's result pipe.
    results: Any
    #: the job this worker holds as ``(job_id, attempt)``; None = idle.
    assignment: Optional[tuple[str, int]] = None
    #: monotonic-clock deadline for the held attempt (0 = no deadline).
    deadline: float = 0.0
    #: the result pipe read EOF or a torn message: the worker is gone
    #: and its pipe, forever readable, must not wake the supervisor.
    results_eof: bool = False

    @property
    def idle(self) -> bool:
        return self.assignment is None

    def alive(self) -> bool:
        return self.process.is_alive()


class WorkerPool:
    """Spawns, tracks, kills, and respawns worker processes."""

    def __init__(
        self,
        n_workers: int,
        store_dir: str,
        cache_dir: Optional[str],
        checkpoint_every: int = 256,
    ):
        self.n_workers = max(1, int(n_workers))
        self.store_dir = store_dir
        self.cache_dir = cache_dir
        #: simulation phases between worker checkpoints (0 disables).
        self.checkpoint_every = max(0, int(checkpoint_every))
        self._ctx = _mp_context()
        self.workers: dict[int, WorkerHandle] = {}
        self._next_worker_id = 0

    # -- lifecycle ------------------------------------------------------------
    def _spawn(self) -> WorkerHandle:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_queue = self._ctx.Queue(maxsize=1)
        results, results_w = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(
                worker_id,
                task_queue,
                results_w,
                self.store_dir,
                self.cache_dir,
                self.checkpoint_every,
            ),
            daemon=True,
            name=f"repro-serve-worker-{worker_id}",
        )
        process.start()
        # the worker holds the only write end, so once it dies its pipe
        # reads as EOF instead of blocking on a torn message
        results_w.close()
        handle = WorkerHandle(
            worker_id=worker_id, process=process, task_queue=task_queue, results=results
        )
        self.workers[worker_id] = handle
        return handle

    def start(self) -> None:
        while len(self.workers) < self.n_workers:
            self._spawn()

    def respawn(self, worker_id: int) -> WorkerHandle:
        """Replace a dead/killed worker with a fresh process + queue.

        A fresh task queue guarantees a stale task can never be double-
        executed by the replacement.
        """
        old = self.workers.pop(worker_id, None)
        if old is not None and old.process.is_alive():  # pragma: no cover - guard
            old.process.terminate()
        # the old result pipe closes when its handle is collected, not
        # here: the supervisor may be reading it from another thread
        return self._spawn()

    def kill(self, worker_id: int) -> None:
        handle = self.workers.get(worker_id)
        if handle is None:
            return
        if handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():  # pragma: no cover - stubborn child
                handle.process.kill()
                handle.process.join(timeout=2.0)

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful shutdown: poison-pill idle workers, then terminate."""
        for handle in self.workers.values():
            if handle.idle and handle.process.is_alive():
                try:
                    handle.task_queue.put_nowait(None)
                except Exception:
                    pass
        deadline = time.monotonic() + timeout
        for handle in self.workers.values():
            handle.process.join(timeout=max(0.05, deadline - time.monotonic()))
        for handle in self.workers.values():
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            handle.results.close()
        self.workers.clear()

    # -- messages -------------------------------------------------------------
    def messages(self) -> list[tuple]:
        """Every complete message the workers have sent so far, each
        worker's in the order it sent them.  A dead worker's pipe ends
        in EOF (or a message torn by the kill) and yields nothing more."""
        out = []
        for handle in list(self.workers.values()):
            try:
                while handle.results.poll():
                    out.append(handle.results.recv())
            except (EOFError, OSError):
                handle.results_eof = True
        return out

    def result_pipes(self) -> list:
        """The result pipes worth waiting on: every worker's but those
        at EOF (a dead worker's until it is respawned)."""
        return [h.results for h in list(self.workers.values()) if not h.results_eof]

    # -- assignment -----------------------------------------------------------
    def idle_workers(self) -> list[WorkerHandle]:
        return [h for h in self.workers.values() if h.idle and h.alive()]

    def assign(
        self,
        handle: WorkerHandle,
        task: tuple[str, int, dict, str],
        timeout_s: float,
    ) -> None:
        """Hand one ``(job_id, attempt, spec_dict, key)`` task to an idle
        worker and arm the attempt's deadline."""
        job_id, attempt, _spec, _key = task
        handle.assignment = (job_id, attempt)
        # monotonic: a wall-clock step (NTP, DST) must not expire jobs
        handle.deadline = time.monotonic() + timeout_s if timeout_s > 0 else 0.0
        handle.task_queue.put(task)

    def release(self, handle: WorkerHandle) -> None:
        """The held job finished (done/error/chaos): the worker is idle."""
        handle.assignment = None
        handle.deadline = 0.0

    def alive_count(self) -> int:
        return sum(1 for h in self.workers.values() if h.alive())

    def busy_count(self) -> int:
        return sum(1 for h in self.workers.values() if not h.idle)
