"""Unit tests for the flat stream format a workload build emits."""

import pickle

import numpy as np
import pytest

from repro.core.driver import UvmDriver
from repro.errors import SimulationError
from repro.experiments.runner import ExperimentSetup
from repro.gpu.device import GpuDevice, GpuDeviceConfig
from repro.gpu.soa import SoaBlockScheduler
from repro.gpu.warp import StreamSet, StreamSetBuilder
from repro.mem.address_space import AddressSpace
from repro.sim.clock import SimClock
from repro.sim.engine import SimulationCheckpointer
from repro.sim.rng import SimRng
from repro.units import MiB
from repro.workloads.registry import make_workload
from repro.workloads.tealeaf import TealeafWorkload

OUT_OF_RANGE = r"\[0, 2\*\*31\)"


class TestLayout:
    def test_spans_follow_lengths(self):
        s = StreamSet(np.arange(6), [1, 3, 2], ids=[7, 8, 9], flops=[0.5, 1.0, 2.0])
        assert len(s) == 3
        assert s.start.tolist() == [0, 1, 4]
        assert s.end.tolist() == [1, 4, 6]
        assert s.pages[s.span(1)].tolist() == [1, 2, 3]
        assert s.ids.tolist() == [7, 8, 9]
        assert s.flops.tolist() == [0.5, 1.0, 2.0]

    def test_defaults_one_access_per_stream_no_stores(self):
        s = StreamSet(np.array([4, 2, 9]))
        assert (s.end - s.start).tolist() == [1, 1, 1]
        assert s.ids.tolist() == [0, 1, 2]
        assert not s.writes.any()
        assert s.flops.tolist() == [0.0, 0.0, 0.0]

    def test_stores_are_int32_and_unpadded(self):
        s = StreamSet(np.arange(10), [10])
        assert s.pages.dtype == np.int32
        # the C scan never reads past a stream's end, so nothing pads the stores
        assert s.pages.size == s.writes.size == 10
        assert s.pages.flags.c_contiguous and s.writes.flags.c_contiguous

    def test_zero_length_streams(self):
        s = StreamSet(np.array([5, 6, 7]), [0, 2, 0, 1, 0])
        assert s.start.tolist() == [0, 0, 2, 2, 3]
        assert s.end.tolist() == [0, 2, 2, 3, 3]
        assert [s.pages[s.span(i)].tolist() for i in range(5)] == [[], [5, 6], [], [7], []]

    def test_empty_set(self):
        s = StreamSet([])
        assert len(s) == 0 and s.total == 0
        assert s.pages.size == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lengths": [2, 2]},  # sums to 4, not 3
            {"lengths": [4, -1]},
            {"writes": np.array([True, False])},
            {"ids": [1, 2]},
            {"flops": [1.0]},
        ],
    )
    def test_inconsistent_shapes_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            StreamSet(np.arange(3), **kwargs)

    def test_two_dimensional_pages_rejected(self):
        with pytest.raises(SimulationError):
            StreamSet(np.zeros((2, 2), dtype=np.int64))


class TestPageIdRange:
    @pytest.mark.parametrize("bad", [2**31, 2**40, -1, -7])
    @pytest.mark.parametrize("at", [0, 5_000, 99_999])
    def test_out_of_range_id_anywhere_rejected(self, bad, at):
        pages = np.zeros(100_000, dtype=np.int64)
        pages[at] = bad
        with pytest.raises(SimulationError, match=OUT_OF_RANGE):
            StreamSet(pages, [50_000, 0, 50_000])

    def test_out_of_range_part_rejected_by_the_builder(self):
        builder = StreamSetBuilder()
        builder.add((np.arange(4), False))
        builder.add((np.array([3]), False), (np.array([2**31]), True))
        with pytest.raises(SimulationError, match=OUT_OF_RANGE):
            builder.build()


class TestBuilder:
    def test_parts_concatenate_with_their_write_flags(self):
        builder = StreamSetBuilder()
        builder.add((np.array([1, 2]), False), (np.array([3]), True))
        builder.add()  # a stream without accesses
        builder.add((np.array([4]), True))
        s = builder.build()
        assert len(builder) == 3
        assert s.pages.tolist() == [1, 2, 3, 4]
        assert s.writes.tolist() == [False, False, True, True]
        assert (s.end - s.start).tolist() == [3, 0, 1]
        assert s.ids.tolist() == [0, 1, 2]

    def test_ids_run_on_from_first_id(self):
        builder = StreamSetBuilder(first_id=40)
        builder.add((np.array([0]), False))
        builder.add((np.array([1]), False))
        assert builder.build().ids.tolist() == [40, 41]

    def test_ids_continue_across_kernel_phases(self):
        build = TealeafWorkload(n=64, iterations=3).build(AddressSpace(), SimRng(0))
        ids = np.concatenate([k.ids for k in build.kernels])
        assert len(build.kernels) == 3
        assert ids.tolist() == list(range(ids.size))

    def test_arbitrary_ids_reach_the_fault_buffer(self):
        ids = np.array([10_007, 3, 10_000])
        config = GpuDeviceConfig(memory_bytes=16 * MiB)
        device = GpuDevice(config, StreamSet(np.arange(3), ids=ids), rng=SimRng(5))
        device.run_phase(np.zeros(8, dtype=bool), SimClock())
        drained = device.fault_buffer.drain_arrays(10**9, 16)
        streams = drained[5]
        assert sorted(streams.tolist()) == sorted(ids.tolist())


class TestEngines:
    def test_zero_length_streams_complete_without_faults(self):
        s = StreamSet(np.array([1, 2, 3]), [0, 2, 0, 1, 0])
        config = GpuDeviceConfig(memory_bytes=16 * MiB)
        device = GpuDevice(config, s, rng=SimRng(5))
        result = device.run_phase(np.ones(8, dtype=bool), SimClock())
        assert result.streams_completed == 5
        assert result.accesses_retired == 3
        assert result.faults_enqueued == 0
        assert device.kernel_finished()

    def test_soa_scheduler_keeps_no_per_stream_objects(self):
        sched = SoaBlockScheduler(StreamSet(np.arange(5)), SimRng(1))
        assert not hasattr(sched, "streams")
        assert sched.soa.n == 5


def driver_for(name, data_mib=16, gpu_mib=8, seed=4):
    setup = ExperimentSetup(seed=seed).with_gpu(memory_bytes=gpu_mib * MiB)
    rng = SimRng(setup.seed)
    space = setup.make_space()
    build = make_workload(name, data_mib * MiB).build(space, rng.fork("workload"))
    driver = UvmDriver(
        space=space,
        streams=build.streams,
        phases=build.phases,
        driver_config=setup.driver,
        gpu_config=setup.gpu,
        cost=setup.cost,
        rng=rng,
    )
    return driver, build


class TestZeroCopy:
    @pytest.mark.parametrize("name", ["sgemm", "random", "hpgmg"])
    def test_soa_engine_reads_the_builds_arrays(self, name):
        driver, build = driver_for(name)
        soa = driver.device.scheduler.soa
        assert np.shares_memory(soa.pages_flat, build.streams.pages)
        assert np.shares_memory(soa.writes_flat, build.streams.writes)

    def test_each_kernel_adopts_its_own_set(self):
        driver, build = driver_for("tealeaf", data_mib=4, gpu_mib=32)
        assert build.phases is not None and len(build.phases) > 1
        driver.run()
        last = build.phases[-1].streams
        assert np.shares_memory(driver.device.scheduler.soa.pages_flat, last.pages)


class TestCheckpoint:
    def test_pickled_driver_holds_each_store_once(self):
        driver, build = driver_for("sgemm")
        s = build.streams
        blob = pickle.dumps(driver, protocol=pickle.HIGHEST_PROTOCOL)
        # the page store is most of the driver; a second copy of it (a
        # pickled view, say) would double its share of the blob
        assert len(blob) < 2 * s.pages.nbytes
        restored = pickle.loads(blob)
        soa = restored.device.scheduler.soa
        assert soa.streams is restored._phases[0].streams
        assert np.shares_memory(soa.pages_flat, soa.streams.pages)

    def test_restored_run_matches_uninterrupted(self, tmp_path):
        reference, _ = driver_for("sgemm")
        expected = reference.run()
        driver, _ = driver_for("sgemm")
        checkpointer = SimulationCheckpointer(tmp_path / "run.ckpt", every_phases=40)
        with pytest.raises(KeyboardInterrupt):
            driver.run(_StopAfterSave(checkpointer))
        restored = checkpointer.load()
        result = restored.run()
        assert result.total_time_ns == expected.total_time_ns
        assert result.counters.as_dict() == expected.counters.as_dict()


class _StopAfterSave:
    """A checkpointer that interrupts the run right after its first save."""

    def __init__(self, inner: SimulationCheckpointer) -> None:
        self.inner = inner

    def maybe_save(self, sim) -> bool:
        if self.inner.maybe_save(sim):
            raise KeyboardInterrupt
        return False
