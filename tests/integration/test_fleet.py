"""Integration: a real 3-shard fleet behind the gateway, with chaos.

Acceptance criteria covered here:

* 60 mixed jobs submitted through an unmodified
  :class:`~repro.serve.client.ServiceClient` pointed at the gateway URL
  all complete while one shard is SIGKILLed mid-run by the
  ``process.shard_kill`` chaos fault (no accepted job lost),
* every result - including re-routed/recomputed ones - is bit-identical
  to a solo in-process run of the same spec,
* the gateway's ``/metrics`` aggregate equals the sum of the live
  shards' own counters, with the gateway's ``fleet.*`` counters merged
  alongside.

The shards are real ``uvmrepro serve`` subprocesses (own journals,
stores, worker pools) running under ``UVMREPRO_SANITIZE=1``; only the
gateway runs in-process so its state machine can be inspected.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serve.client import ServiceClient
from repro.serve.jobs import JobSpec
from repro.units import MiB

_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: 20 unique tiny specs x 3 repeats = 60 jobs, mixed across workloads.
_WORKLOADS = ("stream", "random")
_UNIQUE = 20
_REPEATS = 3


def _specs() -> list[dict]:
    unique = [
        {
            "workload": _WORKLOADS[i % len(_WORKLOADS)],
            "data_bytes": 1 * MiB,
            "seed": 1000 + i,
            "gpu": {"memory_bytes": 4 * MiB},
        }
        for i in range(_UNIQUE)
    ]
    return unique * _REPEATS


def _start_shard(tmp_path, name: str, chaos: dict | None) -> tuple:
    """One ``uvmrepro serve`` subprocess; returns (proc, url)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), _SRC) if p
    )
    env["UVMREPRO_SANITIZE"] = "1"
    env.pop("UVMREPRO_CHAOS", None)
    argv = [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--host",
        "127.0.0.1",
        "--port",
        "0",
        "--workers",
        "1",
        "--store-dir",
        str(tmp_path / name),
        "--shard-name",
        name,
        "--sweep-cache",
        "",
        "--max-retries",
        "2",
    ]
    if chaos is not None:
        argv += ["--chaos", json.dumps(chaos)]
    proc = subprocess.Popen(
        argv,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        bufsize=1,
    )
    url = None
    deadline = time.time() + 60
    while time.time() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        if "uvmrepro service on " in line:
            url = line.split("uvmrepro service on ", 1)[1].split()[0]
            break
    if url is None:
        proc.kill()
        raise AssertionError(f"shard {name} never announced its URL")
    return proc, url


def _drain_pipe(proc):
    """Close the pipe so a killed child can't block on a full buffer."""
    try:
        proc.stdout.close()
    except Exception:
        pass


@pytest.fixture
def fleet(tmp_path):
    """3 shard subprocesses + an in-process gateway; shard1 is doomed."""
    from repro.fleet import FleetGateway, GatewayConfig, ShardSpec

    chaos = {
        "seed": 11,
        "faults": [
            {
                "point": "process.shard_kill",
                "args": {"shard": "shard1", "after_records": 12},
            }
        ],
    }
    procs, urls = {}, {}
    try:
        for name in ("shard0", "shard1", "shard2"):
            procs[name], urls[name] = _start_shard(tmp_path, name, chaos)
        config = GatewayConfig(
            shards=tuple(
                ShardSpec(name, urls[name]) for name in sorted(urls)
            ),
            vnodes=64,
            probe_interval_s=0.1,
            down_after_probes=2,
            recover_after_probes=1,
            connect_timeout_s=2.0,
            read_timeout_s=60.0,
            shed_retry_after_s=0.1,
        )
        gateway = FleetGateway(config).start()
        try:
            yield gateway, procs
        finally:
            gateway.stop()
    finally:
        for proc in procs.values():
            _drain_pipe(proc)
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=10)


def _solo_doc(payload: dict) -> dict:
    """The same spec computed solo, serialized with the worker's schema."""
    from repro.experiments.runner import simulate
    from repro.serve.results import result_to_doc

    spec = JobSpec.from_dict(payload)
    workload, setup = spec.build()
    return result_to_doc(simulate(workload, setup))


def _stable(doc: dict) -> dict:
    """The deterministic part of a result document (``meta`` carries
    job ids, worker pids, and wall time - all run-specific)."""
    return {k: v for k, v in doc.items() if k != "meta"}


class TestFleetUnderShardLoss:
    def test_sixty_jobs_survive_losing_a_shard_mid_run(self, fleet, tmp_path):
        from repro.fleet import serve_gateway_http

        gateway, procs = fleet
        server = serve_gateway_http(gateway, "127.0.0.1", 0)
        try:
            client = ServiceClient(
                server.url, timeout_s=60.0, retries=3, backoff_budget_s=30.0
            )
            submitted = []
            for payload in _specs():
                record = client.submit(payload)
                assert record["state"] in ("queued", "running", "done")
                submitted.append((record["job_id"], payload))
            assert len(submitted) == 60

            finals = {}
            for job_id, payload in submitted:
                final = client.wait(job_id, timeout_s=600.0, poll_s=0.05)
                assert final["state"] == "done", (
                    f"{job_id} ended {final['state']}: {final.get('error')}"
                )
                finals[job_id] = (payload, client.result(job_id))

            # the chaos fault really killed shard1 (SIGKILL, not drain)
            deadline = time.time() + 30
            while procs["shard1"].poll() is None and time.time() < deadline:
                time.sleep(0.1)
            assert procs["shard1"].poll() == -signal.SIGKILL
            assert gateway.telemetry.counter("fleet.shard_down") >= 1

            # bit-identical results: repeats of one spec agree with each
            # other AND with a solo in-process run (sample 3 unique
            # specs, preferring ones that lived on the doomed shard)
            by_key = {}
            for job_id, (payload, doc) in finals.items():
                key = JobSpec.from_dict(payload).spec_digest()
                by_key.setdefault(key, []).append((payload, doc))
            for key, group in by_key.items():
                first = _stable(group[0][1])
                for _, doc in group[1:]:
                    assert _stable(doc) == first, f"repeat mismatch for {key}"
            rerouted = [
                entry
                for entry in gateway._jobs.values()
                if entry.failovers > 0
            ]
            sample_keys = {e.key for e in rerouted}
            sample_keys.update(list(by_key)[:3])
            for key in list(sample_keys)[:3]:
                payload, doc = by_key[key][0]
                assert _stable(doc) == _stable(_solo_doc(payload)), (
                    f"fleet result for {key} diverged from the solo run"
                )

            # metrics aggregate == sum of the shard docs in the same
            # payload (the dead shard contributes None and is excluded)
            metrics = client.metrics()
            shard_docs = {
                name: meta["metrics"]
                for name, meta in metrics["fleet"]["shards"].items()
            }
            assert shard_docs["shard1"] is None  # dead: unreachable
            live = [doc for doc in shard_docs.values() if doc is not None]
            names = set()
            for doc in live:
                names.update(doc["counters"])
            for name in names:
                assert metrics["counters"][name] == sum(
                    doc["counters"].get(name, 0) for doc in live
                ), f"aggregate mismatch for counter {name}"
            assert metrics["counters"]["fleet.jobs_routed"] == 60
            assert metrics["counters"]["fleet.shard_down"] >= 1
            assert metrics["gauges"]["shards_down"] >= 1

            # every job the fleet accepted is accounted for in the
            # gateway's table - none vanished with the dead shard
            listing = client.list_jobs()
            assert len(listing) == 60
            assert all(j["state"] == "done" for j in listing)
        finally:
            server.shutdown()
            server.server_close()


def _process_gone(pid: int) -> bool:
    """Exited (or a zombie nobody reaped yet)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs procfs")
class TestShardKillLeavesNoWorker:
    def test_warm_worker_exits_after_its_shard_is_sigkilled(self, tmp_path):
        proc, url = _start_shard(tmp_path, "lone", None)
        try:
            client = ServiceClient(url, timeout_s=30.0)
            record = client.submit(_specs()[0])
            final = client.wait(record["job_id"], timeout_s=120.0, poll_s=0.05)
            assert final["state"] == "done"
            worker_pid = client.result(record["job_id"])["meta"]["worker_pid"]
            assert worker_pid != proc.pid and not _process_gone(worker_pid)

            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            deadline = time.monotonic() + 10.0
            while not _process_gone(worker_pid) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert _process_gone(worker_pid), (
                f"worker {worker_pid} outlived its SIGKILLed shard"
            )
        finally:
            _drain_pipe(proc)
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
