"""Unit tests for stream/cufft/tealeaf/hpgmg/cusparse workloads."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mem.address_space import AddressSpace
from repro.sim.rng import SimRng
from repro.units import MiB
from repro.workloads.cusparse import CusparseWorkload
from repro.workloads.fft import CufftWorkload, _bit_reverse_permutation
from repro.workloads.hpgmg import HpgmgWorkload
from repro.workloads.stream_triad import StreamTriadWorkload
from repro.workloads.tealeaf import TealeafWorkload


@pytest.fixture
def rng():
    return SimRng(4)


class TestStreamTriad:
    def test_three_equal_vectors(self, rng):
        space = AddressSpace()
        build = StreamTriadWorkload(6 * MiB).build(space, rng)
        assert set(build.ranges) == {"a", "b", "c"}
        sizes = {r.npages for r in build.ranges.values()}
        assert len(sizes) == 1

    def test_dependency_order_b_c_then_a(self, rng):
        """Each stream reads b and c before writing a (Section IV-B's
        page-access dependency)."""
        space = AddressSpace()
        build = StreamTriadWorkload(6 * MiB).build(space, rng)
        a = build.ranges["a"]
        s = build.streams
        for i in range(10):
            assert s.end[i] - s.start[i] == 3
            assert s.writes[s.span(i)].tolist() == [False, False, True]
            assert a.contains_page(int(s.pages[s.span(i)][2]))

    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamTriadWorkload(10)


class TestCufft:
    def test_bit_reverse_is_permutation(self):
        rev = _bit_reverse_permutation(16)
        assert sorted(rev.tolist()) == list(range(16))
        assert rev[1] == 8  # 0001 -> 1000

    def test_two_buffers(self, rng):
        space = AddressSpace()
        build = CufftWorkload(4 * MiB).build(space, rng)
        assert set(build.ranges) == {"signal", "spectrum"}

    def test_forward_and_inverse_passes(self, rng):
        """Every page of both buffers is both read and written across
        the forward+inverse pair."""
        space = AddressSpace()
        build = CufftWorkload(1 * MiB, passes_per_direction=1).build(space, rng)
        written = np.unique(build.streams.pages[build.streams.writes])
        n_pages = build.ranges["signal"].npages
        assert written.size == 2 * n_pages  # both buffers written once each

    def test_fault_footprint_smaller_than_touch_count(self, rng):
        """Multi-pass reuse: total accesses exceed unique pages (why
        cuFFT has by far the fewest faults per byte in Table I)."""
        space = AddressSpace()
        build = CufftWorkload(1 * MiB).build(space, rng)
        unique = np.unique(build.streams.pages).size
        assert build.total_accesses > 2 * unique


class TestTealeaf:
    def test_four_field_arrays(self, rng):
        space = AddressSpace()
        build = TealeafWorkload(n=256, iterations=1).build(space, rng)
        assert set(build.ranges) == {"u", "p", "r", "w"}

    def test_stencil_reads_halo_rows(self, rng):
        space = AddressSpace()
        wl = TealeafWorkload(n=256, iterations=1, rows_per_stream=8)
        build = wl.build(space, rng)
        # interior stream index 1 covers rows 8..16 but reads p rows 7..17
        p = build.ranges["p"]
        pages = build.streams.pages[build.streams.span(1)]
        p_pages = pages[(pages >= p.start_page) & (pages < p.end_page_aligned)]
        row_bytes = 256 * 8
        first_byte = (int(p_pages.min()) - p.start_page) * 4096
        assert first_byte < 8 * row_bytes  # reaches into row 7

    def test_iterations_multiply_streams(self, rng):
        one = TealeafWorkload(n=256, iterations=1).build(AddressSpace(), rng)
        three = TealeafWorkload(n=256, iterations=3).build(AddressSpace(), rng)
        assert sum(len(k) for k in three.kernels) == 3 * len(one.streams)

    def test_invalid_grid(self):
        with pytest.raises(ConfigurationError):
            TealeafWorkload(n=2)


class TestHpgmg:
    def test_level_hierarchy_shrinks(self, rng):
        space = AddressSpace()
        build = HpgmgWorkload(fine_n=256, levels=3, v_cycles=1).build(space, rng)
        sizes = [build.ranges[f"level{i}"].nbytes for i in range(3)]
        assert sizes[0] > sizes[1] > sizes[2]

    def test_v_cycle_touches_every_level(self, rng):
        space = AddressSpace()
        build = HpgmgWorkload(fine_n=256, levels=3, v_cycles=1).build(space, rng)
        touched = np.unique(build.streams.pages)
        for i in range(3):
            rng_i = build.ranges[f"level{i}"]
            assert ((touched >= rng_i.start_page) & (touched < rng_i.end_page)).any()

    def test_coarse_levels_scattered(self, rng):
        """Coarse boxes launch in near-arbitrary order: the random-like
        segments of Fig. 7."""
        space = AddressSpace()
        wl = HpgmgWorkload(fine_n=512, levels=2, v_cycles=1, box_pages=2)
        build = wl.build(space, rng)
        lvl1 = build.ranges["level1"]
        starts = build.streams.pages[build.streams.start]
        firsts = [int(p) for p in starts if lvl1.contains_page(int(p))]
        displacement = np.abs(np.diff(firsts))
        assert displacement.mean() > 2  # not a clean sequential sweep

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigurationError):
            HpgmgWorkload(fine_n=100, levels=4)


class TestCusparse:
    def test_six_ranges(self, rng):
        space = AddressSpace()
        build = CusparseWorkload(n=512).build(space, rng)
        assert set(build.ranges) == {
            "dense",
            "csr_vals",
            "csr_cols",
            "csr_rowptr",
            "B",
            "C",
        }

    def test_phase_one_sweeps_dense_sequentially(self, rng):
        space = AddressSpace()
        build = CusparseWorkload(n=512, rows_per_stream=64).build(space, rng)
        dense = build.ranges["dense"]
        first = build.streams.pages[build.streams.span(0)]
        d_pages = first[(first >= dense.start_page) & (first < dense.end_page)]
        assert np.array_equal(d_pages, np.sort(d_pages))

    def test_spmm_scatters_into_b(self, rng):
        space = AddressSpace()
        wl = CusparseWorkload(n=1024, density=0.02)
        build = wl.build(space, rng)
        b = build.ranges["B"]
        # the first four SpMM streams, which follow the conversion's
        s = build.streams
        half = len(s) // 2
        pages = s.pages[s.start[half] : s.end[half + 3]]
        b_pages = pages[(pages >= b.start_page) & (pages < b.end_page_aligned)]
        diffs = np.abs(np.diff(b_pages.astype(np.int64)))
        assert (diffs > 1).mean() > 0.3  # scattered, not a sweep

    def test_density_validation(self):
        with pytest.raises(ConfigurationError):
            CusparseWorkload(n=512, density=0.0)
