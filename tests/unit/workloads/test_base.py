"""Unit tests for the workload base utilities."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gpu.warp import StreamSet
from repro.mem.address_space import AddressSpace
from repro.units import MiB
from repro.workloads.base import (
    HostAccess,
    KernelPhase,
    Workload,
    WorkloadBuild,
    _dedup_consecutive,
    chunk_indices,
)


class TestPagesOfElements:
    @pytest.fixture
    def rng_range(self):
        space = AddressSpace()
        return space.malloc_managed(2 * MiB, name="x")

    def test_element_to_page_math(self, rng_range):
        # 8-byte elements: 512 per page
        pages = Workload.pages_of_elements(
            rng_range, np.array([0, 511, 512]), 8, 4096
        )
        assert pages.tolist() == [rng_range.start_page, rng_range.start_page + 1]

    def test_consecutive_retouches_collapsed(self, rng_range):
        pages = Workload.pages_of_elements(rng_range, np.array([0, 1, 2, 600]), 8, 4096)
        assert pages.size == 2  # 0,1,2 share a page

    def test_non_consecutive_repeats_preserved(self, rng_range):
        """Re-touching a page later IS a separate access (TLB re-walk
        possible if evicted in between)."""
        pages = Workload.pages_of_elements(
            rng_range, np.array([0, 600, 0]), 8, 4096
        )
        assert pages.size == 3

    def test_escaping_range_rejected(self, rng_range):
        with pytest.raises(ConfigurationError):
            Workload.pages_of_elements(rng_range, np.array([10**9]), 8, 4096)

    def test_bad_element_size(self, rng_range):
        with pytest.raises(ConfigurationError):
            Workload.pages_of_elements(rng_range, np.array([0]), 0, 4096)


class TestDedupConsecutive:
    def test_runs_collapse(self):
        out = _dedup_consecutive(np.array([5, 5, 5, 6, 6, 5]))
        assert out.tolist() == [5, 6, 5]

    def test_short_arrays(self):
        assert _dedup_consecutive(np.array([3])).tolist() == [3]
        assert _dedup_consecutive(np.array([], dtype=np.int64)).size == 0


class TestChunkIndices:
    def test_even_split(self):
        assert chunk_indices(10, 5) == [(0, 5), (5, 10)]

    def test_ragged_tail(self):
        assert chunk_indices(7, 3) == [(0, 3), (3, 6), (6, 7)]

    def test_bad_chunk(self):
        with pytest.raises(ConfigurationError):
            chunk_indices(5, 0)


class TestWorkloadBuild:
    def test_from_phases_keeps_one_set_per_kernel(self):
        """No concatenated copy of the phases: ``kernels`` are the
        phases' own sets, and ``streams`` is left empty."""
        s1 = StreamSet(np.array([0]))
        s2 = StreamSet(np.array([1, 2]), ids=np.array([1, 2]))
        build = WorkloadBuild.from_phases(
            [KernelPhase(streams=s1), KernelPhase(streams=s2)], ranges={}
        )
        assert build.streams is None
        assert build.kernels[0] is s1 and build.kernels[1] is s2
        assert build.total_accesses == 3
        assert len(build.phases) == 2

    def test_single_kernel_build_lists_its_set(self):
        s = StreamSet(np.arange(4), [1, 3])
        build = WorkloadBuild(streams=s)
        assert build.kernels == [s]
        assert build.total_accesses == 4

    def test_host_access_defaults(self):
        access = HostAccess(pages=np.array([1, 2]))
        assert access.writes is False

