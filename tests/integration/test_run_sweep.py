"""Integration: the parallel sweep executor and its result-store memo."""

import json
import os
import time

import pytest

from repro.errors import SimulationError
from repro.experiments.runner import (
    ExperimentSetup,
    code_version,
    run_sweep,
    simulate,
    sweep_cache_key,
)
from repro.serve.results import result_to_doc
from repro.serve.store import ResultStore
from repro.units import MiB
from repro.workloads.base import Workload
from repro.workloads.registry import make_workload


def small_setup(**gpu):
    return ExperimentSetup().with_gpu(memory_bytes=32 * MiB, **gpu)


def points():
    return [
        make_workload("random", 4 * MiB),
        make_workload("sgemm", 4 * MiB),
        make_workload("stream", 4 * MiB),
    ]


class TestSweepCorrectness:
    def test_matches_simulate_in_order(self, tmp_path):
        setup = small_setup()
        results = run_sweep(points(), setup=setup, workers=1, cache_dir=str(tmp_path))
        direct = [simulate(w, setup) for w in points()]
        assert [r.total_time_ns for r in results] == [
            r.total_time_ns for r in direct
        ]
        assert [r.counters.as_dict() for r in results] == [
            r.counters.as_dict() for r in direct
        ]

    def test_mixed_point_forms(self, tmp_path):
        default = small_setup()
        other = small_setup().with_driver(prefetch_enabled=False)
        results = run_sweep(
            [points()[0], (points()[0], other), (points()[0], None)],
            setup=default,
            workers=1,
            cache_dir=str(tmp_path),
        )
        # bare and (workload, None) points both use the default setup
        assert results[0].total_time_ns == results[2].total_time_ns
        # an explicit setup produces a genuinely different run
        assert results[1].total_time_ns != results[0].total_time_ns

    def test_pool_matches_serial(self, tmp_path):
        serial = run_sweep(points(), setup=small_setup(), workers=1, cache=False)
        pooled = run_sweep(points(), setup=small_setup(), workers=4, cache=False)
        assert [r.total_time_ns for r in serial] == [r.total_time_ns for r in pooled]
        assert [r.counters.as_dict() for r in serial] == [
            r.counters.as_dict() for r in pooled
        ]


class TestSweepCache:
    def test_second_invocation_hits_cache(self, tmp_path):
        setup = small_setup()
        first = run_sweep(points(), setup=setup, workers=1, cache_dir=str(tmp_path))
        assert len(ResultStore(tmp_path)) == len(points())
        t0 = time.perf_counter()
        second = run_sweep(points(), setup=setup, workers=1, cache_dir=str(tmp_path))
        cached_s = time.perf_counter() - t0
        assert [r.total_time_ns for r in first] == [r.total_time_ns for r in second]
        assert [r.counters.as_dict() for r in first] == [
            r.counters.as_dict() for r in second
        ]
        # a cache hit is a store read, not a simulation
        assert cached_s < 1.0

    def test_key_depends_on_workload_setup_and_code(self):
        setup = small_setup()
        base = sweep_cache_key(points()[0], setup)
        assert sweep_cache_key(points()[1], setup) != base
        assert sweep_cache_key(points()[0], setup.with_driver(batch_size=64)) != base
        assert sweep_cache_key(points()[0], setup, record_trace=True) != base
        assert len(code_version()) == 16  # content hash of src/repro
        assert sweep_cache_key(points()[0], setup) == base  # and it is stable

    def test_cache_disabled_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", "off")
        run_sweep(points()[:1], setup=small_setup(), workers=1)
        assert os.listdir(tmp_path) == []
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path))
        run_sweep(points()[:1], setup=small_setup(), workers=1)
        assert len(ResultStore(tmp_path)) == 1

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path):
        """A damaged memo document is quarantined, the point recomputed,
        and a valid document stored in its place."""
        setup = small_setup()
        key = sweep_cache_key(points()[0], setup)
        want = result_to_doc(simulate(points()[0], setup))

        def flip_payload(text):  # edited payload under a stale checksum
            doc = json.loads(text)
            doc["total_time_ns"] += 1
            return json.dumps(doc)

        def tear(text):
            return text[: len(text) // 2]

        for damage in (flip_payload, tear):
            root = tmp_path / damage.__name__
            run_sweep(points()[:1], setup=setup, workers=1, cache_dir=str(root))
            store = ResultStore(root)
            path = store.doc_path(key)
            damaged = damage(path.read_text())
            path.write_text(damaged)
            (result,) = run_sweep(
                points()[:1], setup=setup, workers=1, cache_dir=str(root)
            )
            assert result_to_doc(result) == want
            assert (store.quarantine_dir / path.name).read_text() == damaged
            assert store.get(key) == want

    def test_unusable_cache_dir_is_not_an_error(self, tmp_path):
        """A memo path that is a regular file only turns the memo off."""
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        setup = small_setup()
        results = run_sweep(points(), setup=setup, workers=1, cache_dir=str(blocker))
        assert [result_to_doc(r) for r in results] == [
            result_to_doc(simulate(w, setup)) for w in points()
        ]
        assert blocker.read_text() == ""


class CountingWorkload(Workload):
    """Wraps a workload: appends its label to ``log`` on every build, and
    raises instead of building when ``fail`` is set."""

    def __init__(self, inner: Workload, label: str, log: str, fail: bool = False):
        self.inner, self.label, self.log, self.fail = inner, label, log, fail
        self.name = inner.name

    def required_bytes(self) -> int:
        return self.inner.required_bytes()

    def build(self, space, rng):
        with open(self.log, "a") as fh:
            fh.write(self.label + "\n")
        if self.fail:
            raise SimulationError(f"planted build failure in {self.label}")
        return self.inner.build(space, rng)


class TestSweepErrors:
    def test_failing_point_is_run_once(self, tmp_path):
        """A point whose simulation raises fails the sweep at once: its
        error is not taken for a broken pool, so no point is re-run
        serially in the parent."""
        log = str(tmp_path / "builds.log")
        pts = [
            CountingWorkload(make_workload("stream", 1 * MiB), "ok", log),
            CountingWorkload(make_workload("stream", 2 * MiB), "bad", log, fail=True),
        ]
        with pytest.raises(SimulationError, match="planted build failure in bad"):
            run_sweep(pts, setup=small_setup(), workers=2, cache=False)
        with open(log) as fh:
            assert sorted(fh.read().split()) == ["bad", "ok"]


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4, reason="parallel speedup needs >=4 cores"
)
def test_parallel_speedup():
    """The acceptance bar: >=8 points, 4 workers, >=2.5x over serial."""
    pts = [make_workload(name, 48 * MiB) for name in
           ("random", "sgemm", "stream", "hpgmg") * 2]
    setup = ExperimentSetup().with_gpu(memory_bytes=64 * MiB)
    t0 = time.perf_counter()
    serial = run_sweep(pts, setup=setup, workers=1, cache=False)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    pooled = run_sweep(pts, setup=setup, workers=4, cache=False)
    pooled_s = time.perf_counter() - t0
    assert [r.total_time_ns for r in serial] == [r.total_time_ns for r in pooled]
    assert serial_s / pooled_s >= 2.5
