"""RunResult <-> JSON document serialization.

One serializer for every machine-readable surface: the service's result
store, ``run_sweep``'s memo, the ``GET /jobs/<id>/result`` endpoint,
and ``uvmrepro run --json`` all use the same document, so downstream
tooling parses a single schema regardless of where a result came from.
:func:`result_from_doc` turns a stored document back into a result.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

from repro.core.driver import RunResult
from repro.experiments.runner import ExperimentSetup
from repro.gpu.dma import DmaStats
from repro.sim.stats import (
    PAPER_CATEGORIES,
    SERVICE_SUBCATEGORIES,
    CategoryTimer,
    CounterSet,
)
from repro.trace.io import trace_summary
from repro.trace.recorder import FinalizedTrace, NullRecorder

#: schema version of the result document; bump on shape change.
RESULT_DOC_VERSION = 2


def _breakdown_doc(breakdown) -> dict[str, Any]:
    return {
        "rows_ns": dict(breakdown.rows),
        "other_ns": breakdown.other_ns,
        "total_ns": breakdown.total_ns,
    }


def result_to_doc(
    result: RunResult, extra: Optional[dict[str, Any]] = None
) -> dict[str, Any]:
    """Serialize a completed run into a JSON-safe document.

    ``extra`` merges additional context (job id, workload name, wall
    time) under the ``"meta"`` key.  Trace event streams are *not*
    inlined - when present they are summarized via
    :func:`repro.trace.io.trace_summary` and persisted separately as
    ``.npz`` by the result store.
    """
    doc: dict[str, Any] = {
        "doc_version": RESULT_DOC_VERSION,
        "meta": dict(extra or {}),
        "total_time_ns": result.total_time_ns,
        "total_time_us": result.total_time_us,
        "breakdown": _breakdown_doc(result.timer.breakdown(PAPER_CATEGORIES)),
        "service_breakdown": _breakdown_doc(
            result.timer.breakdown(SERVICE_SUBCATEGORIES + ("service.evict",))
        ),
        "timer_ns": result.timer.as_dict(),
        "timer_counts": result.timer.counts_as_dict(),
        "counters": result.counters.as_dict(),
        "dma": {
            "h2d_bytes": result.dma.h2d_bytes,
            "d2h_bytes": result.dma.d2h_bytes,
            "h2d_transfers": result.dma.h2d_transfers,
            "d2h_transfers": result.dma.d2h_transfers,
        },
        "config": {
            "driver": _config_doc(result.driver_config),
            "gpu": _config_doc(result.gpu_config),
        },
        "n_streams": result.n_streams,
        "data_bytes": result.data_bytes,
        "gpu_phases": result.gpu_phases,
    }
    if result.trace is not None and result.trace.fault_page.size:
        doc["trace_summary"] = trace_summary(result.trace)
    return doc


def result_from_doc(
    doc: dict[str, Any],
    setup: ExperimentSetup,
    trace: Optional[FinalizedTrace] = None,
) -> RunResult:
    """Inverse of :func:`result_to_doc` for a run of ``setup``.

    Configs come from ``setup``: a run holds its setup's own config
    objects, and the document keeps only their string form.  ``trace``
    is the store's ``.npz`` payload; None gives an untraced run's empty
    trace.  DMA chaos retries are not kept: stored runs are clean.
    """
    timer = CategoryTimer()
    counts = doc["timer_counts"]
    for path, ns in doc["timer_ns"].items():
        timer.charge(path, ns, count=counts[path])
    counters = CounterSet()
    for name, value in doc["counters"].items():
        counters.add(name, value)
    return RunResult(
        total_time_ns=doc["total_time_ns"],
        timer=timer,
        counters=counters,
        trace=trace if trace is not None else NullRecorder().finalize(),
        dma=DmaStats(**doc["dma"]),
        driver_config=setup.driver,
        gpu_config=setup.gpu,
        n_streams=doc["n_streams"],
        data_bytes=doc["data_bytes"],
        gpu_phases=doc["gpu_phases"],
    )


def _config_doc(config) -> dict[str, Any]:
    doc = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, (bool, int, float, str, type(None))):
            doc[f.name] = value
        else:  # enums and nested objects: store their stable string form
            doc[f.name] = getattr(value, "value", str(value))
    return doc
