"""Integration: the phase engine repeats the scalar reference engine's results.

The vectorized struct-of-arrays phase engine used to run beside a
per-stream scalar reference engine, and this suite asserted the two
bit-identical: same RNG draws, same fault interleaving through the uTLBs
and fault buffer, same counters, same simulated time, down to the
recorded per-fault trace.  The scalar engine is retired.  What both
engines computed for each cell (workload pattern x replay policy x
prefetcher on/off, 8 MiB on a 32 MiB GPU, traced) is pinned below, and
the engine must still reproduce it bit for bit.  A record is the golden
matrix's (:func:`tests.golden.summarize`) plus one sha256 over the
digests of every trace array, so any change in fault emission order,
which shifts uTLB coalescing and buffer drops, fails it.
"""

import hashlib
import json
from functools import lru_cache

import pytest

from repro.core.replay import ReplayPolicyKind
from repro.experiments.runner import ExperimentSetup, simulate
from repro.units import MiB
from repro.workloads.registry import make_workload
from tests import golden

WORKLOADS = ["random", "sgemm", "hpgmg"]
POLICIES = [ReplayPolicyKind.BATCH_FLUSH, ReplayPolicyKind.BLOCK]

#: cell -> (total_time_ns, faults read, faults serviced, evictions, GPU
#: phases, sha256 of counters/timer/DMA, sha256 of the trace digests)
PINNED = {
    "hpgmg-batch_flush-no_pf": (11382180, 3692, 2011, 0, 20,
        "cb21c8445d0ada1e7f1a693c7374d9aba020cdbe29f63ad2d3870411f6e31851",
        "11ae5f6e0e99361a3e1705e1e938aab36848752e8621f6464ae5b7a01d20ea8a"),
    "hpgmg-batch_flush-pf": (2444236, 264, 188, 0, 3,
        "df7488fa7354e290f21aa6fe7859c71a795d341d26a256265da60f739e2c4b6c",
        "d5a80f6500d744b3cbcaff9c58a2537503a43ce5690683270c18fb72daad559a"),
    "hpgmg-block-no_pf": (14265214, 5459, 2011, 0, 3,
        "fa6ddec46b49fb31545c40b0b7cd8fffa45fc5129837e7bf7946874dcbdaca31",
        "7ec94a876bd987d79590e1df085c83d503f6d5b2b785e5ce3773fc71088ddff2"),
    "hpgmg-block-pf": (2563796, 459, 188, 0, 2,
        "60cf9420054dd2032c2454c90c703276a195dd0f070d074bd273f37ac7d8c486",
        "6dae35c4a8b490b66a26b8058e17b0499d10d6a586892b36c44f599006d649be"),
    "random-batch_flush-no_pf": (9448067, 2048, 2048, 0, 9,
        "c787e1928578e41766f44b102c55ccbf88ef8715dda6e4c3646a02aa39663908",
        "493c03cf74d172c5a839ba2a9ffe720295bb9ee844e5268c629db60d35f54150"),
    "random-batch_flush-pf": (2457879, 256, 256, 0, 3,
        "b67f402e4325dea74ce7671c0527f785ddfeecfb10dd9fab47b9ebe44c051e84",
        "51cd5fb6e6341c31c4ce15f85b839a16b6054ec7dca0afbc914ad40104e5384f"),
    "random-block-no_pf": (10830503, 3110, 2048, 0, 2,
        "6d04bfafc904285c80f63fbfa1cf2c0f34a7844fcdacaa9fe788a6e910558fd4",
        "9aadac3289df36226fc7800dd450600e70d6f7b00a0ddb340c64878d0511daed"),
    "random-block-pf": (2578107, 512, 256, 0, 3,
        "a9914bad5f0a7ed8d37b59bd098db2446586b6b17f622d7801a4b6b0cddded4c",
        "fe94175e1cb5a5a11e5af7af8ea708d62fc639a3d31ef01bbf02be9403dbf9f2"),
    "sgemm-batch_flush-no_pf": (49768311, 4800, 1728, 0, 769,
        "faf0ac3d08beebfb67cbede84d4b93dbea6f687820d469674eaffba494e51eb1",
        "f1ef633c972911b0efbe1436c55568a615d12e71d0b0d30f5efe244309fb6652"),
    "sgemm-batch_flush-pf": (5868396, 244, 88, 0, 47,
        "cb41d9b5929dc80d92fdb994be3c9e577cecb07b5fe02336cb20dae8b8b2b858",
        "f8097bdff28ca76db7668c3c80a0240ce6573833a8d448a881f22625f3e3c419"),
    "sgemm-block-no_pf": (42895365, 4720, 1728, 0, 2,
        "71d44dc189a9de27842f2d8d710569c28b6cc01a0704bc1ad154e45eff05fd44",
        "b1c93dc7b8c449ca51f5725e066f41e2031fa3d4272de7dd72fd4e5b02e19016"),
    "sgemm-block-pf": (5236055, 241, 88, 0, 2,
        "d68d62341336ad2166a943869dda59365441179c0f67fd89866d0f1122c72858",
        "7e3ddda6838ebaf0b522f81cbec454b45b738856fcff7fd071c2af50278dd352"),
}


@lru_cache(maxsize=None)
def run(name: str, policy: ReplayPolicyKind, prefetch: bool):
    setup = (
        ExperimentSetup(seed=77)
        .with_gpu(memory_bytes=32 * MiB)
        .with_driver(replay_policy=policy, prefetch_enabled=prefetch)
    )
    return simulate(make_workload(name, 8 * MiB), setup, record_trace=True)


def pinned(name: str, policy: ReplayPolicyKind, prefetch: bool) -> tuple:
    return PINNED[f"{name}-{policy.value}-{'pf' if prefetch else 'no_pf'}"]


@pytest.mark.parametrize("prefetch", [False, True], ids=["no_pf", "pf"])
@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@pytest.mark.parametrize("name", WORKLOADS)
class TestSoaScalarEquivalence:
    def test_identical_results(self, name, policy, prefetch):
        result = run(name, policy, prefetch)
        record = golden.summarize(result)
        record["trace_sha256"] = hashlib.sha256(
            json.dumps(golden.trace_digests(result), sort_keys=True).encode()
        ).hexdigest()
        total, read, serviced, evictions, phases, sha, trace_sha = pinned(
            name, policy, prefetch
        )
        assert record == {
            "total_time_ns": total,
            "faults_read": read,
            "faults_serviced": serviced,
            "evictions": evictions,
            "gpu_phases": phases,
            "sha256": sha,
            "trace_sha256": trace_sha,
        }

    def test_headline_counters(self, name, policy, prefetch):
        result = run(name, policy, prefetch)
        total, read, serviced, evictions = pinned(name, policy, prefetch)[:4]
        assert result.total_time_ns == total
        assert result.counters["faults.read"] == read
        assert result.counters["faults.serviced"] == serviced
        assert result.evictions == evictions


class TestSoaDeterminism:
    def test_same_seed_identical(self):
        a = run.__wrapped__("random", ReplayPolicyKind.BATCH_FLUSH, True)
        b = run.__wrapped__("random", ReplayPolicyKind.BATCH_FLUSH, True)
        assert a.total_time_ns == b.total_time_ns
        assert a.counters.as_dict() == b.counters.as_dict()
        assert a.trace.fault_page.tolist() == b.trace.fault_page.tolist()
