"""Unit tests for warp-stream semantics on the phase engine.

A stream retires accesses until its first miss, stalls there, and
retries the access only after a replay (Section III-E); a retried
access whose page is still missing faults again.
"""

import numpy as np
import pytest

from repro.gpu.device import GpuDevice, GpuDeviceConfig
from repro.gpu.soa import STALLED, SoaStreams
from repro.gpu.warp import StreamSet
from repro.sim.clock import SimClock
from repro.sim.rng import SimRng
from repro.units import MiB
from tests.gpuphase import scan

ONE = np.array([0])


@pytest.fixture
def resident():
    return np.zeros(100, dtype=bool)


def one_stream(pages, writes=None):
    return StreamSet(np.asarray(pages), [len(pages)], writes)


def device_for(pages, writes=None):
    config = GpuDeviceConfig(memory_bytes=16 * MiB)
    return GpuDevice(config, one_stream(pages, writes), rng=SimRng(5))


def drained(device):
    """``(pages, writes)`` of every fault record in the device's buffer."""
    out = device.fault_buffer.drain_arrays(10**9, 1 << 20)
    return (out[0].tolist(), out[1].tolist()) if out else ([], [])


class TestAdvance:
    def test_stalls_on_first_miss(self, resident):
        resident[:5] = True
        device = device_for(np.arange(10))
        result = device.run_phase(resident, SimClock())
        assert result.accesses_retired == 5
        assert result.faults_enqueued == 1
        assert drained(device)[0] == [5]
        assert device.scheduler.soa.state.tolist() == [STALLED]
        assert device.has_stalled_streams()

    def test_completes_when_all_resident(self, resident):
        resident[:] = True
        soa = SoaStreams(one_stream(np.arange(10)))
        pos0, pos1, miss = scan(soa, ONE, resident)
        assert (pos0.tolist(), pos1.tolist(), miss.tolist()) == ([0], [10], [-1])
        assert soa.pos.tolist() == [10]

    def test_wake_then_refault_same_page(self, resident):
        """An unserviced page faults again after the replay: a duplicate."""
        device = device_for([3])
        assert device.run_phase(resident, SimClock()).faults_enqueued == 1
        assert device.deliver_replay() == 1
        assert device.run_phase(resident, SimClock()).faults_enqueued == 1
        assert drained(device)[0] == [3, 3]

    def test_wake_then_proceed_when_serviced(self, resident):
        device = device_for([3, 7])
        device.run_phase(resident, SimClock())
        resident[3] = True
        device.deliver_replay()
        result = device.run_phase(resident, SimClock())
        assert result.accesses_retired == 1
        assert drained(device)[0] == [3, 7]

    def test_advance_while_stalled_rejected(self, resident):
        """A phase advances no stalled stream: it waits for the replay."""
        device = device_for([3])
        device.run_phase(resident, SimClock())
        resident[3] = True
        again = device.run_phase(resident, SimClock())
        assert (again.accesses_retired, again.streams_completed) == (0, 0)
        assert again.faults_enqueued + again.faults_coalesced == 0
        device.deliver_replay()
        assert device.run_phase(resident, SimClock()).streams_completed == 1

    def test_chunked_scan_matches_full_scan(self, resident):
        """The scan's growing windows find the miss a one-shot scan finds,
        also where it lies past the first window or on a window edge."""
        pages = np.arange(100).repeat(4)  # 400 accesses: windows 64, 256, ...
        for miss_page in (10, 15, 16, 50, 63, 64, 80, 99):
            resident[:] = True
            resident[miss_page] = False
            soa = SoaStreams(one_stream(pages))
            _, pos1, miss = scan(soa, ONE, resident)
            assert pos1[0] == int(np.argmin(resident[pages]))
            assert miss[0] == miss_page

    def test_reuse_pattern_retires_fast(self, resident):
        """Reuse-heavy streams (GEMM-like) advance over resident pages."""
        resident[:4] = True
        soa = SoaStreams(one_stream([0, 1, 2, 3, 0, 1, 2, 3, 4]))
        pos0, pos1, miss = scan(soa, ONE, resident)
        assert miss.tolist() == [4]
        assert (pos1 - pos0).tolist() == [8]


class TestWrites:
    def test_next_is_write(self, resident):
        device = device_for([0, 1], writes=np.array([True, False]))
        device.run_phase(resident, SimClock())
        assert drained(device) == ([0], [True])

    def test_no_writes_default(self, resident):
        device = device_for([0])
        device.run_phase(resident, SimClock())
        assert drained(device) == ([0], [False])

    def test_store_to_read_only_page_is_an_upgrade_miss(self, resident):
        """A store to a resident but read-only page misses (the
        read-duplication collapse path); a load of it retires."""
        resident[:] = True
        write_ok = resident.copy()
        write_ok[1] = False
        writes = np.array([False, True, False])
        soa = SoaStreams(one_stream([1, 1, 2], writes))
        _, pos1, miss = scan(soa, ONE, resident, write_ok)
        assert (pos1.tolist(), miss.tolist()) == ([1], [1])
        # without write permissions every resident access retires
        soa = SoaStreams(one_stream([1, 1, 2], writes))
        assert scan(soa, ONE, resident)[2].tolist() == [-1]
        device = device_for([1, 1, 2], writes)
        result = device.run_phase(resident, SimClock(), write_ok=write_ok)
        assert result.accesses_retired == 1
        assert drained(device) == ([1], [True])
