"""Unit tests for the result document and its inverse.

Sweeps read their memoized points back out of the result store, so a
stored document must rebuild the exact :class:`RunResult` a fresh
``simulate()`` returns - including timer op counts and, for traced
points, every trace array (which rides beside the document as npz).
"""

import dataclasses

import numpy as np
import pytest

from repro.experiments.runner import ExperimentSetup, simulate
from repro.serve.results import result_from_doc, result_to_doc
from repro.serve.store import ResultStore
from repro.units import MiB
from repro.workloads.registry import all_workload_names, make_workload

KEY = "ab" + "0" * 62


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", all_workload_names())
def test_round_trip_through_store_is_lossless(name, traced, tmp_path):
    # 12 MiB on an 8 MiB GPU: every workload faults and evicts.
    setup = ExperimentSetup().with_gpu(memory_bytes=8 * MiB)
    fresh = simulate(make_workload(name, 12 * MiB), setup, record_trace=traced)
    store = ResultStore(tmp_path)
    store.store(KEY, result_to_doc(fresh), trace=fresh.trace if traced else None)
    doc = store.get(KEY)
    back = result_from_doc(doc, setup, store.load_result_trace(KEY))

    assert result_to_doc(back) == doc
    assert back.total_time_ns == fresh.total_time_ns
    assert back.counters.as_dict() == fresh.counters.as_dict()
    assert back.timer.as_dict() == fresh.timer.as_dict()
    assert back.timer.counts_as_dict() == fresh.timer.counts_as_dict()
    assert back.dma == fresh.dma
    assert back.driver_config == fresh.driver_config
    assert back.gpu_config == fresh.gpu_config
    assert back.n_streams == fresh.n_streams
    assert back.data_bytes == fresh.data_bytes
    assert back.gpu_phases == fresh.gpu_phases
    for f in dataclasses.fields(fresh.trace):
        got, want = getattr(back.trace, f.name), getattr(fresh.trace, f.name)
        assert got.dtype == want.dtype, f.name
        assert np.array_equal(got, want), f.name
    if traced:
        assert back.trace.n_faults > 0
