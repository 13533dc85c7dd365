"""Unit tests for the top-level UVM driver loop."""

import pytest

from repro.core.driver import DriverConfig, UvmDriver
from repro.core.replay import ReplayPolicyKind
from repro.errors import ConfigurationError, SimulationError
from repro.gpu.device import GpuDeviceConfig
from repro.gpu.warp import StreamSet
from repro.mem.address_space import AddressSpace
from repro.sim.rng import SimRng
from repro.trace.recorder import TraceRecorder
from repro.units import MiB
from tests.pagelists import arrays


def build_driver(data_mib=4, gpu_mib=16, streams=None, recorder=None, **driver_kwargs):
    space = AddressSpace()
    buf = space.malloc_managed(data_mib * MiB)
    if streams is None:
        streams = StreamSet(buf.pages())
    return UvmDriver(
        space=space,
        streams=streams,
        driver_config=DriverConfig(**driver_kwargs),
        gpu_config=GpuDeviceConfig(memory_bytes=gpu_mib * MiB),
        rng=SimRng(1),
        recorder=recorder,
    )


class TestConfigValidation:
    def test_bad_batch_size(self):
        with pytest.raises(ConfigurationError):
            DriverConfig(batch_size=0)

    def test_bad_threshold(self):
        with pytest.raises(ConfigurationError):
            DriverConfig(density_threshold=0)

    def test_bad_prefetcher_kind(self):
        with pytest.raises(ConfigurationError):
            DriverConfig(prefetcher_kind="oracle")

    def test_bad_eviction_policy(self):
        with pytest.raises(ConfigurationError):
            DriverConfig(eviction_policy="random")

    def test_gpu_smaller_than_vablock_rejected(self):
        space = AddressSpace()
        space.malloc_managed(2 * MiB)
        with pytest.raises(ConfigurationError):
            UvmDriver(
                space=space,
                gpu_config=GpuDeviceConfig(memory_bytes=1 * MiB),
            )

    def test_access_counter_policy_requires_tracking(self):
        space = AddressSpace()
        space.malloc_managed(2 * MiB)
        with pytest.raises(ConfigurationError):
            UvmDriver(
                space=space,
                driver_config=DriverConfig(eviction_policy="access_counter"),
            )


class TestRunCompletion:
    def test_every_access_eventually_satisfied(self):
        driver = build_driver()
        result = driver.run()
        assert result.counters["gpu.accesses"] == 1024
        assert driver.device.kernel_finished()

    def test_all_touched_pages_resident_after_run(self):
        driver = build_driver()
        driver.run()
        assert arrays(driver.residency).resident[:1024].all()
        driver.residency.check_invariants()
        driver.gpu_table.check_mapped(driver.residency.expected_gpu_mapped())

    def test_run_is_single_shot(self):
        driver = build_driver()
        driver.run()
        with pytest.raises(SimulationError):
            driver.run()

    def test_empty_stream_list_finishes_fast(self):
        driver = build_driver(streams=StreamSet([]))
        result = driver.run()
        assert result.faults_read == 0
        assert result.total_time_ns == driver.cost.session_base_ns

    def test_result_fields_populated(self):
        result = build_driver().run()
        assert result.total_time_ns > 0
        assert result.faults_serviced > 0
        assert result.data_bytes == 4 * MiB
        assert result.gpu_phases > 0
        assert result.n_streams == 1024

    def test_session_base_charged_once(self):
        from repro.sim.costmodel import CostModel

        result = build_driver().run()
        assert result.timer.leaf_ns("init") == CostModel().session_base_ns


class TestPolicyIntegration:
    @pytest.mark.parametrize("policy", list(ReplayPolicyKind))
    def test_all_policies_complete(self, policy):
        driver = build_driver(replay_policy=policy, prefetch_enabled=False)
        result = driver.run()
        assert result.faults_serviced == 1024
        assert driver.device.kernel_finished()

    def test_batch_flush_produces_no_duplicates(self):
        result = build_driver(
            replay_policy=ReplayPolicyKind.BATCH_FLUSH, prefetch_enabled=False
        ).run()
        assert result.counters["faults.duplicate"] == 0

    def test_block_policy_replays_most(self):
        block = build_driver(
            replay_policy=ReplayPolicyKind.BLOCK, prefetch_enabled=False
        ).run()
        once = build_driver(
            replay_policy=ReplayPolicyKind.ONCE, prefetch_enabled=False
        ).run()
        assert block.counters["replays.issued"] > once.counters["replays.issued"]


class TestTracing:
    def test_trace_faults_match_counters(self):
        recorder = TraceRecorder()
        driver = build_driver(recorder=recorder, prefetch_enabled=False)
        result = driver.run()
        assert result.trace.n_faults == result.faults_read
        unique = (~result.trace.fault_duplicate).sum()
        assert unique == result.faults_serviced

    def test_null_recorder_default(self):
        result = build_driver().run()
        assert result.trace.n_faults == 0  # nothing recorded


class TestBreakdowns:
    def test_breakdown_covers_total(self):
        result = build_driver().run()
        bd = result.breakdown()
        assert bd.total_ns == result.total_time_ns

    def test_service_breakdown_nonzero(self):
        result = build_driver().run()
        sb = result.service_breakdown()
        assert sb.rows["service.migrate"] > 0
        assert sb.rows["service.pma_alloc"] > 0
