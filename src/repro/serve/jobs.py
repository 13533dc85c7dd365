"""Job model: what a client submits and what the service tracks.

A :class:`JobSpec` is the wire-format description of one simulation:
workload name + data size, seed, setup overrides, and whether to record
a trace.  It is deliberately *names-and-numbers only* (no pickled
objects) so specs are safe to accept over HTTP, and it builds the same
``(Workload, ExperimentSetup)`` pair the experiment layer uses, so its
content-addressed :meth:`JobSpec.cache_key` is byte-identical to the key
``run_sweep`` files the same point under.  A result computed by a sweep
is therefore served instantly by the service, and vice versa.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Mapping, Optional

from repro.core.replay import ReplayPolicyKind
from repro.errors import ConfigurationError
from repro.experiments.runner import ExperimentSetup, sweep_cache_key
from repro.workloads.base import Workload
from repro.workloads.registry import all_workload_names, make_workload

#: spec fields that identify *what to compute* (everything except
#: scheduling hints); only these participate in the canonical form.
_CONTENT_FIELDS = (
    "workload",
    "data_bytes",
    "seed",
    "record_trace",
    "driver",
    "gpu",
    "cost",
    "vablock_bytes",
)


class JobState(str, enum.Enum):
    """Lifecycle of a submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    #: quarantined by the poison-job circuit breaker: this spec's key
    #: killed too many workers, so the service stops feeding it workers.
    POISONED = "poisoned"

    @property
    def terminal(self) -> bool:
        return self in (
            JobState.DONE,
            JobState.FAILED,
            JobState.CANCELLED,
            JobState.POISONED,
        )


@dataclass(frozen=True)
class JobSpec:
    """One simulation request, canonical and JSON-serializable."""

    workload: str
    data_bytes: int
    seed: int = 0x5EED
    record_trace: bool = False
    #: smaller runs first; ties break by submission order (FIFO).
    priority: int = 0
    #: keyword overrides applied to the default DriverConfig /
    #: GpuDeviceConfig / CostModel (e.g. ``{"prefetch_enabled": false}``,
    #: ``{"memory_bytes": 33554432}``).
    driver: dict[str, Any] = field(default_factory=dict)
    gpu: dict[str, Any] = field(default_factory=dict)
    cost: dict[str, Any] = field(default_factory=dict)
    #: 0 = the driver's 2 MiB default granule.
    vablock_bytes: int = 0

    def __post_init__(self) -> None:
        if self.workload not in all_workload_names():
            raise ConfigurationError(
                f"unknown workload {self.workload!r}; "
                f"choose from {all_workload_names()}"
            )
        if not isinstance(self.data_bytes, int) or self.data_bytes <= 0:
            raise ConfigurationError("data_bytes must be a positive integer")
        if not isinstance(self.seed, int):
            raise ConfigurationError("seed must be an integer")
        if self.vablock_bytes < 0:
            raise ConfigurationError("vablock_bytes must be >= 0")

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "JobSpec":
        """Validate an untrusted dict (e.g. an HTTP body) into a spec."""
        if not isinstance(payload, Mapping):
            raise ConfigurationError("job spec must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(f"unknown job spec fields: {unknown}")
        if "workload" not in payload or "data_bytes" not in payload:
            raise ConfigurationError("job spec needs 'workload' and 'data_bytes'")
        kwargs = dict(payload)
        for section in ("driver", "gpu", "cost"):
            value = kwargs.get(section, {})
            if not isinstance(value, Mapping):
                raise ConfigurationError(f"{section!r} overrides must be an object")
            kwargs[section] = dict(value)
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigurationError(f"bad job spec: {exc}") from exc

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    # -- canonical identity ---------------------------------------------------
    def canonical_json(self) -> str:
        """Deterministic JSON of the content fields (no scheduling hints)."""
        content = {name: getattr(self, name) for name in _CONTENT_FIELDS}
        return json.dumps(content, sort_keys=True, separators=(",", ":"))

    def spec_digest(self) -> str:
        """Content hash of the spec alone (stable across code versions)."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    def cache_key(self) -> str:
        """The code-version-keyed content key shared with ``run_sweep``.

        Builds the actual workload/setup objects and hashes them with
        :func:`repro.experiments.runner.sweep_cache_key`, so the service
        store and the sweep cache agree on what "the same simulation"
        means - including invalidation on any simulator source change.
        """
        workload, setup = self.build()
        return sweep_cache_key(workload, setup, self.record_trace)

    # -- materialization ------------------------------------------------------
    def build_setup(self) -> ExperimentSetup:
        setup = ExperimentSetup(seed=self.seed)
        if self.gpu:
            try:
                setup = setup.with_gpu(**self.gpu)
            except TypeError as exc:
                raise ConfigurationError(f"bad gpu overrides: {exc}") from exc
        if self.driver:
            overrides = dict(self.driver)
            if isinstance(overrides.get("replay_policy"), str):
                try:
                    overrides["replay_policy"] = ReplayPolicyKind(
                        overrides["replay_policy"]
                    )
                except ValueError as exc:
                    raise ConfigurationError(str(exc)) from exc
            try:
                setup = setup.with_driver(**overrides)
            except TypeError as exc:
                raise ConfigurationError(f"bad driver overrides: {exc}") from exc
        if self.cost:
            try:
                setup = setup.with_cost(**self.cost)
            except TypeError as exc:
                raise ConfigurationError(f"bad cost overrides: {exc}") from exc
        if self.vablock_bytes:
            setup = replace(setup, vablock_bytes=self.vablock_bytes)
        return setup

    def build(self) -> tuple[Workload, ExperimentSetup]:
        """Materialize the (workload, setup) pair this spec describes."""
        return make_workload(self.workload, self.data_bytes), self.build_setup()


@dataclass
class JobRecord:
    """Service-side lifecycle of one submitted job."""

    job_id: str
    spec: JobSpec
    key: str
    state: JobState = JobState.QUEUED
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: execution attempts so far (0 while never dispatched).
    attempts: int = 0
    #: earliest monotonic time the job may be (re)dispatched (retry
    #: backoff); submitted_at/started_at/finished_at stay wall-clock
    #: because clients read them as human-facing timestamps.
    not_before: float = 0.0
    cache_hit: bool = False
    error: Optional[str] = None
    worker_id: Optional[int] = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "state": self.state.value,
            "key": self.key,
            "spec": self.spec.to_dict(),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "cache_hit": self.cache_hit,
            "error": self.error,
            "worker_id": self.worker_id,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "JobRecord":
        """Reconstruct a record from its :meth:`to_dict` form.

        The journal replay path: the wire dict round-trips everything
        durable.  ``worker_id`` and ``not_before`` are deliberately
        dropped - both are meaningless in a new process (the worker is
        gone, the monotonic clock restarted).
        """
        if not isinstance(payload, Mapping):
            raise ConfigurationError("job record must be a JSON object")
        try:
            record = cls(
                job_id=str(payload["job_id"]),
                spec=JobSpec.from_dict(payload["spec"]),
                key=str(payload["key"]),
                state=JobState(payload["state"]),
                submitted_at=float(payload.get("submitted_at") or 0.0),
                attempts=int(payload.get("attempts") or 0),
                cache_hit=bool(payload.get("cache_hit")),
                error=payload.get("error"),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigurationError(f"bad job record: {exc}") from exc
        record.started_at = payload.get("started_at")
        record.finished_at = payload.get("finished_at")
        return record
