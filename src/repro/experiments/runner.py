"""Shared experiment orchestration.

:func:`simulate` is the library's main entry point: build a workload into
a fresh address space, run the UVM driver simulation, and return the
instrumented :class:`~repro.core.driver.RunResult`.  All experiment
modules and examples funnel through it so a configuration knob changed
here changes every exhibit consistently.

:func:`run_sweep` is the fleet version: every figure/table is a grid of
independent ``simulate`` points, so the sweep fans them out over a
process pool, one point per task (the work is pure Python/numpy -
threads would serialize on the GIL), and memoizes each point in a
checksummed :class:`~repro.serve.store.ResultStore` keyed by (workload
spec, setup, code version), the job service's format and key.
Re-rendering an unchanged figure costs one store read per point.

Results are memoized; workload builds never are.  Every run builds its
workload afresh, because a vectorised build costs less than a deep copy
of a memoized one would.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro.core.driver import DriverConfig, RunResult, UvmDriver
from repro.errors import CorruptResultError, ReproError
from repro.gpu.device import GpuDeviceConfig
from repro.mem.address_space import AddressSpace
from repro.sim.costmodel import CostModel
from repro.sim.rng import SimRng
from repro.trace.recorder import NullRecorder, TraceRecorder
from repro.units import VABLOCK_SIZE
from repro.workloads.base import Workload


@dataclass(frozen=True)
class ExperimentSetup:
    """One run's full configuration (defaults = the paper's defaults).

    The default GPU is a scaled Titan V (256 MiB instead of 12 GiB, same
    geometry) so sweeps complete in CI time; oversubscription ratios are
    preserved because experiments size workloads relative to
    ``gpu.memory_bytes``.
    """

    driver: DriverConfig = field(default_factory=DriverConfig)
    gpu: GpuDeviceConfig = field(default_factory=GpuDeviceConfig)
    cost: CostModel = field(default_factory=CostModel)
    seed: int = 0x5EED
    #: allocation/eviction granule; non-default values exercise the
    #: paper's flexible-granularity discussion (Section VI-B).
    vablock_bytes: int = VABLOCK_SIZE

    def make_space(self) -> AddressSpace:
        return AddressSpace(vablock_size=self.vablock_bytes)

    def with_driver(self, **kwargs) -> "ExperimentSetup":
        return replace(self, driver=self.driver.with_overrides(**kwargs))

    def with_gpu(self, **kwargs) -> "ExperimentSetup":
        return replace(self, gpu=replace(self.gpu, **kwargs))

    def with_cost(self, **kwargs) -> "ExperimentSetup":
        return replace(self, cost=self.cost.with_overrides(**kwargs))


def build_driver(
    workload: Workload,
    setup: Optional[ExperimentSetup] = None,
    record_trace: bool = False,
) -> UvmDriver:
    """Materialize a ready-to-run driver for one simulation point.

    Shared by :func:`simulate` and the checkpoint-aware
    :func:`execute_job` path (which may instead restore a pickled
    driver and skip construction entirely).  Every call builds the
    workload afresh.
    """
    setup = setup or ExperimentSetup()
    rng = SimRng(setup.seed)
    space = setup.make_space()
    build = workload.build(space, rng.fork("workload"))
    recorder: TraceRecorder = TraceRecorder() if record_trace else NullRecorder()
    return UvmDriver(
        space=space,
        streams=build.streams,
        phases=build.phases,
        driver_config=setup.driver,
        gpu_config=setup.gpu,
        cost=setup.cost,
        rng=rng,
        recorder=recorder,
    )


def simulate(
    workload: Workload,
    setup: Optional[ExperimentSetup] = None,
    record_trace: bool = False,
) -> RunResult:
    """Run ``workload`` under the UVM simulator and return the result.

    ``record_trace=True`` captures per-event streams (needed for access
    pattern figures); leave it off for counter/timer sweeps.
    """
    return build_driver(workload, setup, record_trace).run()


# -- parallel sweep executor --------------------------------------------------

#: a sweep point: a bare workload (simulated under the sweep's default
#: setup) or an explicit (workload, setup) pair.
SweepPoint = Union[Workload, tuple[Workload, Optional[ExperimentSetup]]]

_code_version_cache: Optional[str] = None


def code_version() -> str:
    """Content hash of the simulator sources (``src/repro/**/*.py``).

    Part of every sweep cache key: any source edit invalidates all
    cached results, so the cache can never serve results from a
    different simulator than the one installed.
    """
    global _code_version_cache
    if _code_version_cache is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        paths = []
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            paths.extend(
                os.path.join(dirpath, fn) for fn in filenames if fn.endswith(".py")
            )
        digest = hashlib.sha256()
        for path in sorted(paths):
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
        _code_version_cache = digest.hexdigest()[:16]
    return _code_version_cache


def _stable_repr(obj) -> str:
    """Deterministic, content-complete repr for cache keys.

    Handles the types that appear in workload/setup objects: numpy
    arrays hash by content, dicts sort their keys, dataclasses and plain
    objects recurse into their fields.
    """
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__qualname__}.{obj.name}"
    if isinstance(obj, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()[:16]
        return f"ndarray({obj.dtype},{obj.shape},{digest})"
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return repr(obj.item())
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: repr(kv[0]))
        return "{" + ",".join(f"{k!r}:{_stable_repr(v)}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple, set, frozenset)):
        vals = sorted(map(_stable_repr, obj)) if isinstance(obj, (set, frozenset)) else [
            _stable_repr(v) for v in obj
        ]
        return f"{type(obj).__name__}({','.join(vals)})"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ",".join(
            f"{f.name}={_stable_repr(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)
        )
        return f"{type(obj).__qualname__}({fields})"
    if isinstance(obj, (int, float, str, bytes, bool, type(None))):
        return repr(obj)
    if hasattr(obj, "__dict__"):
        name = f"{type(obj).__module__}.{type(obj).__qualname__}"
        return f"{name}({_stable_repr(vars(obj))})"
    return repr(obj)


def sweep_cache_key(
    workload: Workload, setup: ExperimentSetup, record_trace: bool = False
) -> str:
    """Cache key of one sweep point: hash of (code version, workload
    spec, experiment setup, trace flag)."""
    payload = "\n".join(
        (
            code_version(),
            _stable_repr(workload),
            _stable_repr(setup),
            repr(bool(record_trace)),
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _resolve_cache_dir(cache: bool, cache_dir: Optional[str]) -> Optional[str]:
    """The memo directory: ``cache_dir`` (``""`` = off), else
    ``REPRO_SWEEP_CACHE``, else ``~/.cache/repro-uvm``; None = off."""
    if not cache:
        return None
    if cache_dir is not None:
        return cache_dir or None
    env = os.environ.get("REPRO_SWEEP_CACHE")
    if env is not None:
        if env.strip().lower() in ("", "0", "off", "none", "disabled"):
            return None
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-uvm")


def _open_store(directory: Optional[str]):
    """The memo store at ``directory``; None when off or unusable (say, a
    regular file): a broken memo only means the point is computed.  No
    tmp sweep: a serve worker or another sweep may share the root, and
    their in-flight tempfiles must survive.  Lazy import:
    :mod:`repro.serve` imports this module."""
    if directory is None:
        return None
    from repro.serve.store import ResultStore

    try:
        return ResultStore(directory, sweep_tmp=False)
    except OSError:
        return None


def _load_point(
    store, key: str, setup: ExperimentSetup, record_trace: bool
) -> Optional[RunResult]:
    """A stored point, or None on a miss.  Torn and corrupt entries are
    misses too: the store quarantines them, and the caller recomputes."""
    from repro.serve.results import result_from_doc

    try:
        doc = store.load(key)
        if doc is None:
            return None
        trace = store.load_result_trace(key) if record_trace else None
    except (CorruptResultError, OSError):
        return None
    if record_trace and trace is None:
        return None
    return result_from_doc(doc, setup, trace)


#: default checkpoint cadence for sweep/serve runs (simulation phases
#: between snapshots; saving only reads state, so cadence never changes
#: results - it only bounds how much work a crash can lose).
DEFAULT_CHECKPOINT_PHASES = 256


def checkpoint_path(directory: str, key: str) -> str:
    """Where a point's mid-run snapshot lives: keyed by the same
    content-addressed cache key as the result, under ``checkpoints/``,
    so a snapshot can never resume a different spec or code version."""
    return os.path.join(directory, "checkpoints", f"{key}.ckpt")


def execute_job(
    workload: Workload,
    setup: Optional[ExperimentSetup] = None,
    record_trace: bool = False,
    cache_dir: Optional[str] = None,
    checkpointer=None,
) -> tuple[RunResult, bool]:
    """Run one simulation point through the canonical cache-aware path.

    This is the single job-execution code path shared by
    :func:`run_sweep` and the :mod:`repro.serve` worker pool: probe the
    memo store in ``cache_dir`` (when given; an unusable one is never an
    error), fall back to simulating, and persist the fresh result for
    the next caller.  Returns ``(result, cache_hit)``.

    ``checkpointer`` (a
    :class:`~repro.sim.engine.SimulationCheckpointer`) adds
    crash-resilience: the run snapshots itself periodically, a crashed
    attempt resumes from the last snapshot instead of restarting, and a
    completed run clears its snapshot.  Resume is reported on
    ``checkpointer.resumed``.  Results are bit-identical either way.
    """
    setup = setup or ExperimentSetup()
    store = _open_store(cache_dir)
    if store is not None:
        key = sweep_cache_key(workload, setup, record_trace)
        cached = _load_point(store, key, setup, record_trace)
        if cached is not None:
            if checkpointer is not None:
                checkpointer.clear()
            return cached, True
    driver = None
    if checkpointer is not None and checkpointer.exists():
        driver = checkpointer.load()
        checkpointer.resumed = driver is not None
    if driver is None:
        driver = build_driver(workload, setup, record_trace)
    result = driver.run(checkpointer)
    if checkpointer is not None:
        checkpointer.clear()
    if store is not None:
        from repro.serve.results import result_to_doc

        try:
            store.store(
                key, result_to_doc(result), trace=result.trace if record_trace else None
            )
        except OSError:
            pass  # a failed memo write is never an error
    return result, False


def _run_point(args) -> RunResult:
    """Module-level sweep worker (pool submissions pickle cleanly): run
    one point through :func:`execute_job`, checkpointing under the memo
    directory when there is one."""
    workload, setup, record_trace, directory = args
    checkpointer = None
    if directory is not None:
        from repro.sim.engine import SimulationCheckpointer

        key = sweep_cache_key(workload, setup, record_trace)
        checkpointer = SimulationCheckpointer(
            checkpoint_path(directory, key),
            every_phases=DEFAULT_CHECKPOINT_PHASES,
        )
    return execute_job(
        workload, setup, record_trace, cache_dir=directory, checkpointer=checkpointer
    )[0]


def _resolve_workers(workers: Optional[int]) -> int:
    if workers is None:
        env = os.environ.get("REPRO_SWEEP_WORKERS")
        if env:
            try:
                workers = int(env)
            except ValueError:
                workers = None
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, int(workers))


def run_sweep(
    points: Iterable[SweepPoint],
    setup: Optional[ExperimentSetup] = None,
    workers: Optional[int] = None,
    cache: bool = True,
    cache_dir: Optional[str] = None,
    record_trace: bool = False,
) -> list[RunResult]:
    """Simulate independent sweep points, in parallel and memoized.

    ``points`` is a sequence of workloads or ``(workload, setup)``
    pairs; bare workloads run under ``setup`` (default:
    ``ExperimentSetup()``).  Results come back in input order.

    Each point is memoized as a checksummed
    :class:`~repro.serve.store.ResultStore` document (plus its ``.npz``
    trace) in ``cache_dir`` (default ``~/.cache/repro-uvm``, overridable
    via the ``REPRO_SWEEP_CACHE`` env var; set it to ``0``/``off`` to
    disable) keyed by :func:`sweep_cache_key`, so re-running a sweep
    only simulates points whose workload, setup, or simulator code
    changed.  A torn or corrupt entry is quarantined and recomputed.

    Uncached points fan out one per task over a ``multiprocessing``
    pool of ``workers`` processes (default: ``REPRO_SWEEP_WORKERS`` or
    the CPU count; pass 1 to force serial).  A
    :class:`~repro.errors.ReproError` raised by a point propagates at
    once; only a pool that cannot start or a point that cannot be
    pickled falls back to serial.
    """
    default_setup = setup or ExperimentSetup()
    jobs: list[tuple[Workload, ExperimentSetup, bool]] = []
    for point in points:
        if isinstance(point, tuple):
            workload, point_setup = point
            jobs.append((workload, point_setup or default_setup, record_trace))
        else:
            jobs.append((point, default_setup, record_trace))

    store = _open_store(_resolve_cache_dir(cache, cache_dir))
    directory = None if store is None else os.fspath(store.root)
    results: list[Optional[RunResult]] = [None] * len(jobs)
    misses: list[int] = []
    for i, (workload, point_setup, _) in enumerate(jobs):
        if store is not None:
            key = sweep_cache_key(workload, point_setup, record_trace)
            results[i] = _load_point(store, key, point_setup, record_trace)
        if results[i] is None:
            misses.append(i)

    # Each task carries the memo directory so its worker checkpoints
    # the point (under <directory>/checkpoints/) and stores its result;
    # a sweep killed mid-run resumes from those snapshots on re-run.
    tasks = [(*jobs[i], directory) for i in misses]
    n_workers = _resolve_workers(workers)
    if len(tasks) > 1 and n_workers > 1:
        computed = _run_pool(_run_point, tasks, min(n_workers, len(tasks)))
    else:
        computed = None
    if computed is None:
        computed = [_run_point(task) for task in tasks]
    for i, result in zip(misses, computed):
        results[i] = result
    return results  # type: ignore[return-value]


def _run_pool(fn, jobs: Sequence, n_workers: int) -> Optional[list]:
    """Fan jobs over a process pool; ``None`` means fall back to serial
    (sandboxes without fork/semaphore support, pickling failures).  A
    :class:`~repro.errors.ReproError` raised by a job propagates: the
    serial re-run would only repeat every job before raising it again."""
    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor

    try:
        try:
            ctx = mp.get_context("fork")  # cheap start, inherits imports
        except ValueError:  # pragma: no cover - non-POSIX
            ctx = mp.get_context()
        with ProcessPoolExecutor(max_workers=n_workers, mp_context=ctx) as pool:
            return list(pool.map(fn, jobs))
    except ReproError:
        raise
    except Exception:  # pragma: no cover - environment-dependent
        return None
