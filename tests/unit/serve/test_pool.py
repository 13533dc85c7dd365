"""Unit tests for the worker pool's per-worker result pipes."""

import multiprocessing as mp
import os
import struct

from repro.serve.pool import MSG_DONE, MSG_STARTED, WorkerHandle, WorkerPool


def _handle(worker_id: int, results) -> WorkerHandle:
    return WorkerHandle(worker_id=worker_id, process=None, task_queue=None, results=results)


def test_a_torn_message_from_a_dead_worker_silences_only_that_worker(tmp_path):
    """A worker SIGKILLed mid-message leaves a torn frame and EOF on its
    own pipe; the supervisor still gets its complete messages and every
    message of the other workers, without blocking."""
    pool = WorkerPool(2, str(tmp_path), None)
    dead_r, dead_w = mp.Pipe(duplex=False)
    live_r, live_w = mp.Pipe(duplex=False)
    pool.workers = {0: _handle(0, dead_r), 1: _handle(1, live_r)}

    dead_w.send((MSG_STARTED, 0, "job-a", 1, {}))
    # a frame header promising 100 bytes, cut off after 10 by the kill
    os.write(dead_w.fileno(), struct.pack("!i", 100) + b"x" * 10)
    dead_w.close()
    live_w.send((MSG_DONE, 1, "job-b", 1, {}))

    assert pool.messages() == [
        (MSG_STARTED, 0, "job-a", 1, {}),
        (MSG_DONE, 1, "job-b", 1, {}),
    ]
    live_w.send((MSG_STARTED, 1, "job-c", 1, {}))
    assert pool.messages() == [(MSG_STARTED, 1, "job-c", 1, {})]
    live_w.close()


def test_a_pipe_at_eof_leaves_the_supervisor_wait_set(tmp_path):
    """A dead worker's pipe stays readable (EOF) until it is respawned;
    once a drain has seen the EOF the pipe is no longer waited on, so
    the supervisor cannot spin on it."""
    pool = WorkerPool(2, str(tmp_path), None)
    dead_r, dead_w = mp.Pipe(duplex=False)
    live_r, live_w = mp.Pipe(duplex=False)
    pool.workers = {0: _handle(0, dead_r), 1: _handle(1, live_r)}
    assert pool.result_pipes() == [dead_r, live_r]
    dead_w.send((MSG_DONE, 0, "job-a", 1, {}))
    dead_w.close()
    assert pool.messages() == [(MSG_DONE, 0, "job-a", 1, {})]
    assert pool.result_pipes() == [live_r]
    live_w.close()
