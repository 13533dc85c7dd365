"""Unit tests for the JobSpec/JobRecord model."""

import json

import pytest

from repro.core.replay import ReplayPolicyKind
from repro.errors import ConfigurationError
from repro.experiments.runner import sweep_cache_key
from repro.serve.jobs import JobRecord, JobSpec, JobState
from repro.units import MiB


def spec(**overrides):
    base = dict(workload="random", data_bytes=4 * MiB)
    base.update(overrides)
    return JobSpec(**base)


class TestValidation:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigurationError):
            spec(workload="linpack")

    def test_non_positive_data_rejected(self):
        with pytest.raises(ConfigurationError):
            spec(data_bytes=0)
        with pytest.raises(ConfigurationError):
            spec(data_bytes=-4)

    def test_from_dict_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown job spec fields"):
            JobSpec.from_dict({"workload": "random", "data_bytes": 4, "frobnicate": 1})

    def test_from_dict_requires_workload_and_size(self):
        with pytest.raises(ConfigurationError):
            JobSpec.from_dict({"workload": "random"})

    def test_from_dict_overrides_must_be_objects(self):
        with pytest.raises(ConfigurationError):
            JobSpec.from_dict(
                {"workload": "random", "data_bytes": 4 * MiB, "gpu": "big"}
            )

    def test_bad_driver_override_surfaces_at_build(self):
        s = spec(driver={"warp_speed": True})
        with pytest.raises(ConfigurationError):
            s.build_setup()
        # the GPU has one phase engine: an "engine" key would only give
        # an identical simulation a cache key of its own
        with pytest.raises(ConfigurationError, match="bad gpu overrides"):
            spec(gpu={"engine": "scalar"}).cache_key()


class TestRoundTrip:
    def test_dict_round_trip(self):
        s = spec(
            seed=7,
            record_trace=True,
            priority=-3,
            driver={"prefetch_enabled": False},
            gpu={"memory_bytes": 32 * MiB},
            vablock_bytes=64 * 1024,
        )
        assert JobSpec.from_dict(s.to_dict()) == s

    def test_json_safe(self):
        s = spec(driver={"replay_policy": "once"})
        assert JobSpec.from_dict(json.loads(json.dumps(s.to_dict()))) == s


class TestCanonicalIdentity:
    def test_priority_excluded_from_content(self):
        assert spec(priority=0).canonical_json() == spec(priority=9).canonical_json()
        assert spec(priority=0).spec_digest() == spec(priority=9).spec_digest()

    def test_content_fields_change_digest(self):
        assert spec(seed=1).spec_digest() != spec(seed=2).spec_digest()
        assert spec().spec_digest() != spec(record_trace=True).spec_digest()

    def test_cache_key_matches_run_sweep(self):
        """The service key is byte-identical to run_sweep's cache key."""
        s = spec(seed=11, gpu={"memory_bytes": 32 * MiB})
        workload, setup = s.build()
        assert s.cache_key() == sweep_cache_key(workload, setup, False)

    def test_cache_key_distinguishes_specs(self):
        assert spec(seed=1).cache_key() != spec(seed=2).cache_key()


class TestBuild:
    def test_build_applies_overrides(self):
        s = spec(
            seed=99,
            driver={"prefetch_enabled": False, "replay_policy": "once"},
            gpu={"memory_bytes": 32 * MiB},
            cost={"fault_read_ns": 111},
            vablock_bytes=128 * 1024,
        )
        workload, setup = s.build()
        assert setup.seed == 99
        assert setup.driver.prefetch_enabled is False
        assert setup.driver.replay_policy is ReplayPolicyKind.ONCE
        assert setup.gpu.memory_bytes == 32 * MiB
        assert setup.cost.fault_read_ns == 111
        assert setup.vablock_bytes == 128 * 1024
        assert workload.required_bytes() > 0

    def test_bad_policy_string(self):
        with pytest.raises(ConfigurationError):
            spec(driver={"replay_policy": "yolo"}).build_setup()


class TestJobState:
    def test_terminal_states(self):
        assert JobState.DONE.terminal
        assert JobState.FAILED.terminal
        assert JobState.CANCELLED.terminal
        assert not JobState.QUEUED.terminal
        assert not JobState.RUNNING.terminal

    def test_record_to_dict(self):
        record = JobRecord(job_id="job-1", spec=spec(), key="ab" * 32)
        doc = record.to_dict()
        assert doc["state"] == "queued"
        assert doc["spec"]["workload"] == "random"
        assert doc["attempts"] == 0
