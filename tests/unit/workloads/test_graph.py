"""Unit tests for the BFS graph workload."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mem.address_space import AddressSpace
from repro.mem.advise import MemAdvise
from repro.sim.rng import SimRng
from repro.workloads.graph import BfsWorkload


@pytest.fixture
def rng():
    return SimRng(6)


def build(rng, **kwargs):
    space = AddressSpace()
    kwargs.setdefault("n_vertices", 4096)
    kwargs.setdefault("avg_degree", 8)
    wl = BfsWorkload(**kwargs)
    return wl, space, wl.build(space, rng)


class TestStructure:
    def test_csr_ranges(self, rng):
        _, _, b = build(rng)
        assert set(b.ranges) == {"offsets", "edges", "status"}

    def test_level_phases(self, rng):
        wl, _, b = build(rng, levels=3)
        assert b.phases is not None
        assert len(b.phases) == 3

    def test_frontier_ramp(self):
        wl = BfsWorkload(n_vertices=4096, levels=5)
        sizes = wl._frontier_sizes()
        peak = max(range(5), key=lambda i: sizes[i])
        assert 0 < peak < 4  # explodes then collapses

    def test_edges_scattered(self, rng):
        # a high-degree graph so the edge array dwarfs the frontier's
        # touches and the scatter is visible at page granularity
        _, _, b = build(rng, avg_degree=256)
        edges = b.ranges["edges"]
        streams = b.phases[0].streams
        pages = streams.pages[streams.span(0)]
        e_pages = pages[(pages >= edges.start_page) & (pages < edges.end_page_aligned)]
        assert e_pages.size > 4
        gaps = np.abs(np.diff(np.sort(e_pages)))
        assert (gaps > 1).any()  # data-dependent scatter

    def test_status_written(self, rng):
        _, _, b = build(rng)
        status = b.ranges["status"]
        s = b.phases[0].streams
        written = s.pages[s.span(0)][s.writes[s.span(0)]]
        assert written.size > 0
        assert (written >= status.start_page).all()

    def test_pin_edges_advises_range(self, rng):
        _, space, _ = build(rng, pin_edges=True)
        edges_index = [r.index for r in space.ranges if r.name == "edges"][0]
        assert space.advise_of_range(edges_index) is MemAdvise.PINNED_HOST

    def test_host_frontier_adds_host_access(self, rng):
        _, _, b = build(rng, host_frontier=True, levels=3)
        assert b.phases[0].host_before is None
        assert b.phases[1].host_before is not None
        assert b.phases[1].host_before.writes is True

    def test_deterministic(self):
        a = build(SimRng(6))[2]
        b = build(SimRng(6))[2]
        first_a, first_b = a.phases[0].streams, b.phases[0].streams
        assert first_a.pages[first_a.span(0)].tolist() == first_b.pages[first_b.span(0)].tolist()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BfsWorkload(n_vertices=0)
        with pytest.raises(ConfigurationError):
            BfsWorkload(levels=0)


class TestRegistryIntegration:
    def test_bfs_in_extra_registry(self):
        from repro.units import MiB
        from repro.workloads.registry import (
            all_workload_names,
            make_workload,
            workload_names,
        )

        assert "bfs" in all_workload_names()
        assert "bfs" not in workload_names()  # Table I keeps the paper's rows
        wl = make_workload("bfs", 32 * MiB)
        assert 16 * MiB <= wl.required_bytes() <= 64 * MiB
