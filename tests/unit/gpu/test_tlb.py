"""Unit tests for uTLB fault coalescing."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gpu.device import GpuDevice, GpuDeviceConfig
from repro.gpu.tlb import UTlbArray
from repro.gpu.warp import StreamSet
from repro.sim.clock import SimClock
from repro.sim.rng import SimRng
from repro.units import MiB
from tests.gpuphase import forget_gpc, raise_pairs, should_raise_gpc


@pytest.fixture
def tlbs():
    return UTlbArray(n_gpcs=2, sms_per_gpc=4)


def pending_cells(tlbs: UTlbArray) -> int:
    """Fault entries raised and not yet cleared by a replay or a forget."""
    return int(np.count_nonzero(tlbs.cells))


def raise_misses(tlbs: UTlbArray, pairs, budget=64):
    """A phase's raise of ``(gpc, page)`` misses: (pushed, coalesced, dropped)."""
    push_mask, n_coalesced, n_dropped = raise_pairs(
        tlbs, [g for g, _ in pairs], [p for _, p in pairs], budget
    )
    return int(push_mask.sum()), n_coalesced, n_dropped


class TestCoalescing:
    def test_first_miss_raises(self, tlbs):
        assert should_raise_gpc(tlbs, gpc=0, page=10)
        assert pending_cells(tlbs) == 1
        assert raise_misses(UTlbArray(2, 4), [(0, 10)]) == (1, 0, 0)

    def test_same_gpc_same_page_coalesced(self, tlbs):
        should_raise_gpc(tlbs, 0, 10)
        assert not should_raise_gpc(tlbs, 0, 10)  # another SM of GPC 0
        assert pending_cells(tlbs) == 1
        # in one batch, and onto a fault raised by an earlier batch
        fresh = UTlbArray(2, 4)
        assert raise_misses(fresh, [(0, 10), (0, 10)]) == (1, 1, 0)
        assert raise_misses(fresh, [(0, 10)]) == (0, 1, 0)

    def test_different_gpc_duplicates(self, tlbs):
        """Cross-GPC misses produce duplicate fault entries - the driver
        cannot tell (fault source erasure)."""
        assert should_raise_gpc(tlbs, 0, 10)
        assert should_raise_gpc(tlbs, 1, 10)
        assert pending_cells(tlbs) == 2
        assert raise_misses(UTlbArray(2, 4), [(0, 10), (1, 10)]) == (2, 0, 0)

    def test_different_pages_not_coalesced(self, tlbs):
        assert should_raise_gpc(tlbs, 0, 10)
        assert should_raise_gpc(tlbs, 0, 11)

    def test_gpc_of_sm(self):
        """A fault record carries the GPC owning its SM: SMs are placed
        on GPCs in blocks of ``n_sms // n_gpcs``."""
        config = GpuDeviceConfig(memory_bytes=16 * MiB, n_sms=12, n_gpcs=3)
        device = GpuDevice(config, StreamSet(np.arange(12)), rng=SimRng(5))
        device.run_phase(np.zeros(12, dtype=bool), SimClock())
        out = device.fault_buffer.drain_arrays(10**9, 64)
        gpcs, utlbs, sms = out[3], out[4], out[6]
        assert sorted(sms.tolist()) == list(range(12))
        assert gpcs.tolist() == (sms // 4).tolist()
        assert utlbs.tolist() == gpcs.tolist()


class TestReplayInteraction:
    def test_replay_clears_pending(self, tlbs):
        should_raise_gpc(tlbs, 0, 10)
        tlbs.on_replay()
        assert pending_cells(tlbs) == 0
        # unsatisfied access re-walks and re-raises: the duplicate path
        assert should_raise_gpc(tlbs, 0, 10)

    def test_forget_allows_re_raise_without_replay(self, tlbs):
        """Dropped buffer pushes must not leave a poisoned pending set."""
        should_raise_gpc(tlbs, 0, 10)
        forget_gpc(tlbs, 0, 10)
        assert should_raise_gpc(tlbs, 0, 10)

    def test_forget_adjusts_raised_count(self, tlbs):
        should_raise_gpc(tlbs, 0, 10)
        forget_gpc(tlbs, 0, 10)
        assert pending_cells(tlbs) == 0
        should_raise_gpc(tlbs, 0, 10)
        assert pending_cells(tlbs) == 1
        # a batch past its budget drops the entry and leaves it unraised
        fresh = UTlbArray(2, 4)
        assert raise_misses(fresh, [(0, 10), (0, 11)], budget=1) == (1, 0, 1)
        assert pending_cells(fresh) == 1

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            UTlbArray(n_gpcs=0)
