"""Integration: driver knobs exercised end to end."""

import re

import pytest

from repro.core import counters as C
from repro.core.replay import ReplayPolicyKind
from repro.experiments.runner import ExperimentSetup, build_driver, simulate
from repro.units import MiB
from repro.workloads.registry import make_workload
from repro.workloads.synthetic import RandomAccess, RegularAccess


@pytest.fixture
def setup():
    return ExperimentSetup().with_gpu(memory_bytes=64 * MiB)


class TestReplayPolicies:
    def test_block_policy_maximizes_replays(self, setup):
        results = {
            kind: simulate(
                RegularAccess(8 * MiB),
                setup.with_driver(replay_policy=kind, prefetch_enabled=False),
            )
            for kind in ReplayPolicyKind
        }
        replays = {k: r.counters["replays.issued"] for k, r in results.items()}
        assert replays[ReplayPolicyKind.BLOCK] == max(replays.values())
        assert replays[ReplayPolicyKind.ONCE] == min(replays.values())

    def test_block_policy_runs_one_arrival_phase_per_batch(self):
        """``block`` delivers a replay after every VABlock bin, but no
        GPU phase runs between bins: the next phase is the batch's one
        arrival step, after all of its bins (none when the step took no
        time)."""
        setup = ExperimentSetup().with_gpu(memory_bytes=8 * MiB).with_driver(
            replay_policy=ReplayPolicyKind.BLOCK
        )
        driver = build_driver(make_workload("random", 16 * MiB), setup)
        events: list[str] = []

        def record(owner, attr, before, after=None):
            inner = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                events.append(before)
                out = inner(*args, **kwargs)
                if after:
                    events.append(after)
                return out

            setattr(owner, attr, wrapper)

        record(driver, "_driver_pass", "pass", "end")
        record(driver, "_gpu_arrivals", "arrivals")
        record(driver.servicer, "service_bin", "bin")
        record(driver.device, "deliver_replay", "replay")
        record(driver.device, "run_phase", "phase")
        driver.run()

        passes = re.findall(r"pass (.*?)end", " ".join(events))
        assert len(passes) == 1
        batch = r"(?:bin replay )*arrivals (?:phase )?"
        assert re.fullmatch(f"(?:{batch})+", passes[0])
        assert passes[0].count("arrivals") == driver.counters[C.BATCHES] == 11
        assert driver.counters[C.VABLOCK_BINS] == driver.counters[C.REPLAYS_ISSUED] == 24
        assert driver.counters[C.GPU_PHASES] == 7

    def test_flush_eliminates_duplicates_batch_does_not(self, setup):
        flush = simulate(
            RegularAccess(16 * MiB),
            setup.with_driver(
                replay_policy=ReplayPolicyKind.BATCH_FLUSH, prefetch_enabled=False
            ),
        )
        batch = simulate(
            RegularAccess(16 * MiB),
            setup.with_driver(
                replay_policy=ReplayPolicyKind.BATCH, prefetch_enabled=False
            ),
        )
        assert flush.counters["faults.duplicate"] == 0
        assert batch.counters["faults.duplicate"] > 0

    def test_all_policies_service_every_page(self, setup):
        for kind in ReplayPolicyKind:
            result = simulate(
                RegularAccess(4 * MiB),
                setup.with_driver(replay_policy=kind, prefetch_enabled=False),
            )
            assert result.faults_serviced == 1024


class TestBatchSize:
    @pytest.mark.parametrize("batch_size", [32, 256, 1024])
    def test_batch_size_changes_batching_not_correctness(self, setup, batch_size):
        result = simulate(
            RegularAccess(8 * MiB),
            setup.with_driver(batch_size=batch_size, prefetch_enabled=False),
        )
        assert result.faults_serviced == 2048
        assert result.counters["batches.count"] >= 2048 // batch_size // 4

    def test_smaller_batches_mean_more_batches(self, setup):
        small = simulate(
            RegularAccess(8 * MiB),
            setup.with_driver(batch_size=64, prefetch_enabled=False),
        )
        large = simulate(
            RegularAccess(8 * MiB),
            setup.with_driver(batch_size=512, prefetch_enabled=False),
        )
        assert small.counters["batches.count"] > large.counters["batches.count"]


class TestPrefetchThreshold:
    def test_lower_threshold_fewer_faults(self, setup):
        """Aggressiveness monotonicity at the run level (Section IV-C)."""
        faults = {}
        for threshold in (1, 51, 100):
            result = simulate(
                RandomAccess(16 * MiB), setup.with_driver(density_threshold=threshold)
            )
            faults[threshold] = result.faults_read
        assert faults[1] <= faults[51] <= faults[100]

    def test_prefetch_off_maximizes_faults(self, setup):
        on = simulate(RandomAccess(16 * MiB), setup)
        off = simulate(RandomAccess(16 * MiB), setup.with_driver(prefetch_enabled=False))
        assert off.faults_read > 2 * on.faults_read
        assert off.counters["pages.prefetch_h2d"] == 0


class TestExtensionsEndToEnd:
    def test_access_counter_eviction_runs(self, setup):
        cfg = setup.with_gpu(track_access_counters=True).with_driver(
            eviction_policy="access_counter"
        )
        result = simulate(RegularAccess(int(64 * MiB * 1.2)), cfg)
        assert result.evictions > 0

    def test_adaptive_prefetch_goes_aggressive_undersubscribed(self, setup):
        adaptive = simulate(
            RegularAccess(16 * MiB), setup.with_driver(adaptive_prefetch=True)
        )
        static = simulate(RegularAccess(16 * MiB), setup)
        assert adaptive.faults_read <= static.faults_read

    def test_origin_prefetcher_predicts(self, setup):
        result = simulate(
            RegularAccess(16 * MiB), setup.with_driver(prefetcher_kind="origin")
        )
        assert result.counters["pages.prefetch_h2d"] > 0
