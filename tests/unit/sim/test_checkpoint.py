"""Unit tests for the simulation checkpointer."""

import pickle

import pytest

from repro.errors import CheckpointError
from repro.sim.engine import CHECKPOINT_VERSION, SimulationCheckpointer


class TestSimulationCheckpointer:
    def test_cadence(self, tmp_path):
        ck = SimulationCheckpointer(tmp_path / "c.ckpt", every_phases=3)
        saved = [ck.maybe_save({"i": i}) for i in range(7)]
        assert saved == [False, False, True, False, False, True, False]
        assert ck.saves == 2
        assert ck.load() == {"i": 5}

    def test_save_load_round_trip(self, tmp_path):
        ck = SimulationCheckpointer(tmp_path / "c.ckpt")
        assert not ck.exists()
        ck.save({"state": [1, 2, 3]})
        assert ck.exists()
        assert ck.load() == {"state": [1, 2, 3]}

    def test_clear_removes_file(self, tmp_path):
        ck = SimulationCheckpointer(tmp_path / "c.ckpt")
        ck.save("x")
        ck.clear()
        assert not ck.exists()
        assert ck.load() is None

    def test_corrupt_file_loads_as_none_and_self_clears(self, tmp_path):
        path = tmp_path / "c.ckpt"
        ck = SimulationCheckpointer(path)
        ck.save("x")
        path.write_bytes(path.read_bytes()[:10])  # truncate
        assert ck.load() is None
        assert not path.exists()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(pickle.dumps(("other-tool", CHECKPOINT_VERSION, "x")))
        ck = SimulationCheckpointer(path)
        assert ck.load() is None
        assert not path.exists()

    def test_stale_version_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(
            pickle.dumps(("uvmrepro-checkpoint", CHECKPOINT_VERSION + 1, "x"))
        )
        assert SimulationCheckpointer(path).load() is None

    def test_no_tmp_litter_after_save(self, tmp_path):
        ck = SimulationCheckpointer(tmp_path / "c.ckpt")
        ck.save({"big": list(range(1000))})
        assert [p.name for p in tmp_path.iterdir()] == ["c.ckpt"]

    def test_on_save_hook_sees_ordinal(self, tmp_path):
        calls = []
        ck = SimulationCheckpointer(
            tmp_path / "c.ckpt", every_phases=2, on_save=calls.append
        )
        for _ in range(4):
            ck.maybe_save("s")
        assert calls == [1, 2]

    def test_invalid_cadence_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            SimulationCheckpointer(tmp_path / "c.ckpt", every_phases=0)


class _Interrupt(Exception):
    pass


def _interrupt(_saves: int) -> None:
    raise _Interrupt


class TestDriverResume:
    """Interrupt a real simulation mid-run and resume it bit-identically."""

    def _workload(self):
        from repro.workloads.stream_triad import StreamTriadWorkload

        return StreamTriadWorkload(total_bytes=3 << 20)

    def test_resumed_run_matches_uninterrupted(self, tmp_path):
        from repro.experiments.runner import (
            ExperimentSetup,
            build_driver,
            execute_job,
            simulate,
        )

        workload = self._workload()
        setup = ExperimentSetup()
        baseline = simulate(workload, setup)

        class _Interrupt(Exception):
            pass

        def crash_after_first_save(_saves: int) -> None:
            raise _Interrupt

        ck = SimulationCheckpointer(
            tmp_path / "run.ckpt", every_phases=2, on_save=crash_after_first_save
        )
        driver = build_driver(workload, setup)
        with pytest.raises(_Interrupt):
            driver.run(ck)
        assert ck.exists()

        ck.on_save = None
        result, cache_hit = execute_job(workload, setup, checkpointer=ck)
        assert ck.resumed and not cache_hit
        assert result.total_time_ns == baseline.total_time_ns
        assert result.counters.as_dict() == baseline.counters.as_dict()
        assert result.timer.as_dict() == baseline.timer.as_dict()
        assert result.gpu_phases == baseline.gpu_phases
        assert not ck.exists()  # cleared after the successful run

    def test_checkpointed_run_identical_to_plain_run(self, tmp_path):
        from repro.experiments.runner import ExperimentSetup, build_driver, simulate

        workload = self._workload()
        setup = ExperimentSetup()
        baseline = simulate(workload, setup)
        ck = SimulationCheckpointer(tmp_path / "run.ckpt", every_phases=1)
        result = build_driver(workload, setup).run(ck)
        assert ck.saves > 0
        assert result.total_time_ns == baseline.total_time_ns
        assert result.counters.as_dict() == baseline.counters.as_dict()

    def test_resumed_evicting_run_matches_uninterrupted(self, tmp_path):
        """Evictions after the resume tear down leaves of the unpickled
        residency blocks (random, 4 MiB on a 2 MiB GPU)."""
        from repro.core import counters as C
        from repro.experiments.runner import (
            ExperimentSetup,
            build_driver,
            execute_job,
            simulate,
        )
        from repro.units import MiB
        from repro.workloads.registry import make_workload

        workload = make_workload("random", 4 * MiB)
        setup = ExperimentSetup().with_gpu(memory_bytes=2 * MiB)
        baseline = simulate(workload, setup)

        ck = SimulationCheckpointer(
            tmp_path / "run.ckpt", every_phases=2, on_save=_interrupt
        )
        with pytest.raises(_Interrupt):
            build_driver(workload, setup).run(ck)
        # the run still evicts after the resume point
        assert ck.load().counters[C.EVICTIONS] < baseline.evictions

        ck.on_save = None
        result, cache_hit = execute_job(workload, setup, checkpointer=ck)
        assert ck.resumed and not cache_hit
        assert result.total_time_ns == baseline.total_time_ns
        assert result.counters.as_dict() == baseline.counters.as_dict()
        assert result.timer.as_dict() == baseline.timer.as_dict()

    def test_resumed_promoting_run_matches_uninterrupted(self, tmp_path):
        """Counter-triggered promotion after the resume migrates remote
        leaves of the unpickled residency blocks."""
        from repro.core import counters as C
        from repro.core.driver import DriverConfig
        from repro.mem.advise import MemAdvise
        from tests.golden import hot_remote, touch_driver

        def build():
            return touch_driver(
                MemAdvise.PINNED_HOST,
                hot_remote,
                gpu_mib=8,
                driver_config=DriverConfig(counter_migration=True),
                track_counters=True,
                seed=2,
            )

        baseline = build().run()

        ck = SimulationCheckpointer(
            tmp_path / "run.ckpt", every_phases=1, on_save=_interrupt
        )
        with pytest.raises(_Interrupt):
            build().run(ck)
        resumed = ck.load()
        promoted = C.COUNTER_MIGRATION_BLOCKS
        assert resumed.counters[promoted] < baseline.counters[promoted]

        result = resumed.run()
        assert result.total_time_ns == baseline.total_time_ns
        assert result.counters.as_dict() == baseline.counters.as_dict()
        assert result.timer.as_dict() == baseline.timer.as_dict()
