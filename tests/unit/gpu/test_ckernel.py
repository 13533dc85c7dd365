"""The phase engine's C kernel: how it is built and loaded, what its
binding refuses before the C code could read past an array, and that
the source builds clean under strict warnings and under the address
and undefined-behaviour sanitizers."""

from __future__ import annotations

import inspect
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.gpu import ckernel
from repro.gpu.device import GpuDevice, GpuDeviceConfig
from repro.gpu.fault_buffer import FaultBuffer
from repro.gpu.soa import RUNNABLE, SoaStreams
from repro.gpu.tlb import UTlbArray
from repro.gpu.warp import StreamSet
from repro.sim.clock import SimClock
from repro.sim.rng import SimRng
from repro.units import MiB

#: src/ directory that `import repro` resolved to, for subprocesses.
_SRC = str(Path(__file__).resolve().parents[3] / "src")


def probe(lib) -> str:
    """One phase through a loaded library: three one-access streams on
    SMs 0, 0 and 2 (GPCs 0, 0 and 1 at 2 SMs a GPC) miss page 1 of 2
    pages x 6 GPCs; the second coalesces, cells 6 and 7 are set."""
    i64 = lambda values: np.array(values, dtype=np.int64)  # noqa: E731
    ring = tuple(np.zeros(4, dtype=dtype) for _, dtype in ckernel.RING_FIELDS)
    kernel = ckernel.PhaseKernel(
        pages=np.ones(3, dtype=np.int32), writes=np.zeros(3, dtype=bool),
        end=i64([1, 2, 3]), pos=i64([0, 1, 2]), state=np.ones(3, dtype=np.int8),
        sm=i64([0, 0, 2]), flops=np.zeros(3), ids=i64([0, 1, 2]), ring=ring,
        n_gpcs=6, sms_per_gpc=2, n_work=3,
    )
    kernel._run = lib.run_phase
    cells = np.zeros(12, dtype=bool)
    stats, _ = kernel.run(
        np.zeros(3), i64([0, 1, 2]), 3, np.zeros(2, dtype=bool), None, cells, 0, 0, 0
    )
    return f"{stats} {np.flatnonzero(cells).tolist()} {ring[5][: stats[4]].tolist()}"


PROBE_OUTPUT = "[3, 0, 0, 3, 2, 1, 0] [6, 7] [0, 2]"

#: signals readiness (argv[3]), waits for the start file (argv[2]), then
#: builds into argv[1], loads the library and probes it
_BUILD_AT_ONCE = f"""
import sys, time
from pathlib import Path
import numpy as np
from repro.gpu import ckernel
Path(sys.argv[3]).touch()
deadline = time.monotonic() + 60
while not Path(sys.argv[2]).exists() and time.monotonic() < deadline:
    time.sleep(0.001)
lib = ckernel.load(ckernel.build(Path(sys.argv[1])))
{inspect.getsource(probe)}
print(probe(lib))
"""


def _env(**extra: str) -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": _SRC, **extra}


def _read_only_mask(n: int) -> np.ndarray:
    mask = np.ones(n, dtype=bool)
    mask.flags.writeable = False
    return mask


def _no_c_call():
    raise AssertionError("the C kernel was called")


# -- build and load ------------------------------------------------------------


class TestBuild:
    def test_built_file_is_named_after_the_source_text(self, tmp_path, monkeypatch):
        first = ckernel.build(tmp_path)
        assert first.name == ckernel.library_name(ckernel.SOURCE)
        assert ckernel.build(tmp_path) == first  # built once per source
        monkeypatch.setattr(ckernel, "SOURCE", ckernel.SOURCE + "\n/* edited */\n")
        second = ckernel.build(tmp_path)
        assert second.name == ckernel.library_name(ckernel.SOURCE)
        assert second.name != first.name
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted((first.name, second.name))

    def test_two_processes_building_at_once_both_load_a_working_library(self, tmp_path):
        directory = tmp_path / "cache"
        directory.mkdir()
        go = tmp_path / "go"
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _BUILD_AT_ONCE, str(directory), str(go),
                 str(tmp_path / f"ready{i}")],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_env(),
            )
            for i in range(2)
        ]
        try:
            deadline = time.monotonic() + 60
            while not all((tmp_path / f"ready{i}").exists() for i in range(2)):
                assert time.monotonic() < deadline, "builders never became ready"
                time.sleep(0.005)
            go.touch()
            outs = [proc.communicate(timeout=120) for proc in procs]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        for proc, (out, err) in zip(procs, outs):
            assert proc.returncode == 0, err
            assert out.strip() == PROBE_OUTPUT
        # one complete library, no temporary file left behind
        assert [p.name for p in directory.iterdir()] == [ckernel.library_name(ckernel.SOURCE)]

    @pytest.mark.parametrize("how", ["read-only", "below-a-file"])
    def test_unwritable_directory_builds_into_a_private_temporary_one(self, tmp_path, how):
        if how == "read-only":
            directory = tmp_path / "cache"
            directory.mkdir()
            directory.chmod(0o555)
            if os.access(directory, os.W_OK):
                pytest.skip("this user can write a read-only directory (root)")
        else:  # a directory nobody can create, root included
            (tmp_path / "file").write_text("")
            directory = tmp_path / "file" / "cache"
        path = ckernel.build(directory)
        try:
            assert path.parent != directory
            assert path.parent.name.startswith("repro-ckernel-")
            assert path.name == ckernel.library_name(ckernel.SOURCE)
            assert probe(ckernel.load(path)) == PROBE_OUTPUT
        finally:
            shutil.rmtree(path.parent)
        if how == "read-only":
            assert list(directory.iterdir()) == []

    def test_missing_compiler_raises_one_configuration_error(self, tmp_path):
        empty_bin = tmp_path / "bin"
        empty_bin.mkdir()
        directory = tmp_path / "cache"
        script = (
            "import sys; from pathlib import Path; from repro.gpu import ckernel; "
            "ckernel.build(Path(sys.argv[1]))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(directory)],
            capture_output=True, text=True, timeout=120, env=_env(PATH=str(empty_bin)),
        )
        assert proc.returncode == 1
        assert proc.stderr.count("Traceback (most recent call last)") == 1
        last = proc.stderr.strip().splitlines()[-1]
        assert last.startswith("repro.errors.ConfigurationError: ")
        assert f"`{' '.join(ckernel.CC)} -o " in last
        assert list(directory.iterdir()) == []  # the temporary output is removed

    def test_failing_compiler_shows_its_stderr(self, tmp_path, monkeypatch):
        fake = tmp_path / "bin" / "cc"
        fake.parent.mkdir()
        fake.write_text("#!/bin/sh\necho 'no such target' >&2\nexit 3\n")
        fake.chmod(0o755)
        monkeypatch.setenv("PATH", str(fake.parent))
        with pytest.raises(ConfigurationError, match=r"exit status 3:\nno such target"):
            ckernel.build(tmp_path / "cache")


# -- what the binding refuses --------------------------------------------------


def _soa(pages, lengths, sms=0) -> SoaStreams:
    soa = SoaStreams(StreamSet(np.asarray(pages), lengths))
    soa.state[:] = RUNNABLE
    soa.sm_id[:] = sms
    return soa


def _bound(soa: SoaStreams, n_gpcs: int = 1, sms_per_gpc: int = 1, cover=None):
    """The soa's phase kernel with a fresh uTLB covering its pages (or
    pages up to ``cover``) and a fresh 4-slot fault buffer."""
    tlb, buf = UTlbArray(n_gpcs, sms_per_gpc), FaultBuffer(capacity=4)
    tlb.cover(soa.max_page if cover is None else cover)
    return soa.bind(buf.ring, n_gpcs, sms_per_gpc, soa.n), tlb, buf


def _visit(bound, sel, read_ok, write_ok=None):
    """One phase visiting ``sel`` in that order (zero jitter)."""
    kernel, tlb, buf = bound
    sel = np.asarray(sel)
    return kernel.run(
        np.zeros(sel.size), sel, sel.size, read_ok, write_ok, tlb.cells,
        buf.head, len(buf), 0,
    )


def _device(pages, lengths) -> GpuDevice:
    config = GpuDeviceConfig(memory_bytes=16 * MiB)
    return GpuDevice(config, StreamSet(np.asarray(pages), lengths), rng=SimRng(5))


class TestScanRefuses:
    def test_page_beyond_the_masks_raises(self):
        device = _device([1, 2, 3, 40], [2, 2])
        with pytest.raises(SimulationError, match="page 40 lies outside the 40-page"):
            device.run_phase(np.ones(40, dtype=bool), SimClock())
        assert device.scheduler.soa.pos.tolist() == [0, 2]

    def test_kernel_checks_every_page_it_reads(self):
        """Below the device's once-per-set check, the C loop refuses a page
        past the masks too, and moves no cursor: not even one resolved
        before it."""
        soa = _soa([1, 2, 3, 40], [2, 2])
        with pytest.raises(SimulationError, match="outside the 40-page"):
            _visit(_bound(soa), [0, 1], np.ones(40, dtype=bool))
        assert soa.pos.tolist() == [0, 2]
        assert soa.state.tolist() == [RUNNABLE, RUNNABLE]

    @pytest.mark.parametrize("sel", [[2], [-1]])
    def test_stream_id_out_of_range_raises(self, sel):
        soa = _soa([1, 2, 3, 4], [2, 2])
        with pytest.raises(SimulationError, match="stream id or span"):
            _visit(_bound(soa), sel, np.ones(8, dtype=bool))

    @pytest.mark.parametrize(
        "mask",
        [
            np.ones(8, dtype=np.uint8),
            np.ones(8, dtype=np.int64),
            np.ones(16, dtype=bool)[::2],
            np.ones((2, 4), dtype=bool),
            _read_only_mask(8),
        ],
        ids=["uint8", "int64", "strided", "2-d", "read-only"],
    )
    @pytest.mark.parametrize("which", ["read_ok", "write_ok"])
    def test_bad_mask_refused_before_any_c_call(self, monkeypatch, mask, which):
        soa = _soa([1, 2, 3, 4], [2, 2])
        bound = _bound(soa)
        monkeypatch.setattr(bound[0], "_run", _no_c_call)
        good = np.ones(8, dtype=bool)
        masks = {"read_ok": good, "write_ok": good, which: mask}
        with pytest.raises(SimulationError, match=f"{which} mask must be"):
            _visit(bound, [0, 1], masks["read_ok"], masks["write_ok"])
        assert soa.pos.tolist() == [0, 2]

    def test_masks_of_different_sizes_refused(self, monkeypatch):
        bound = _bound(_soa([1, 2], [2]))
        monkeypatch.setattr(bound[0], "_run", _no_c_call)
        with pytest.raises(SimulationError, match="write_ok mask must be .* of 8 entries"):
            _visit(bound, [0], np.ones(8, dtype=bool), np.ones(9, dtype=bool))

    def test_selection_dtype_refused(self, monkeypatch):
        bound = _bound(_soa([1, 2], [2]))
        monkeypatch.setattr(bound[0], "_run", _no_c_call)
        with pytest.raises(SimulationError, match="active streams must be"):
            _visit(bound, np.array([0], dtype=np.int32), np.ones(8, dtype=bool))


class TestRaiseRefuses:
    @pytest.mark.parametrize("pair", [(-1, 5), (0, 5000), (-2, 5000)])
    def test_pair_outside_the_cells_raises_and_sets_nothing(self, pair):
        """A miss whose SM (no GPC) or page lies outside the cells is
        refused before any cell, cursor, state or ring slot changes, even
        a valid miss visited before it."""
        sm, page = pair
        soa = _soa([7, page], [1, 1], sms=np.array([0, sm]))
        kernel, tlb, buf = bound = _bound(soa, n_gpcs=3, sms_per_gpc=2, cover=7)
        assert tlb.cells.size == 3 * 1024
        with pytest.raises(SimulationError, match="outside 3 GPCs"):
            _visit(bound, [0, 1], np.zeros(soa.max_page + 1, dtype=bool))
        assert not tlb.cells.any()
        assert soa.pos.tolist() == [0, 1]
        assert soa.state.tolist() == [RUNNABLE, RUNNABLE]
        assert not any(field.any() for field in buf.ring)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint64, np.float64])
    def test_input_dtype_refused_before_any_c_call(self, monkeypatch, dtype):
        """SM ids, which map misses to GPCs, are refused when bound."""
        monkeypatch.setattr(ckernel, "library", _no_c_call)
        soa = _soa([5], [1])
        soa.sm_id = soa.sm_id.astype(dtype)
        with pytest.raises(SimulationError, match="stream SM ids must be"):
            soa.bind(FaultBuffer(capacity=4).ring, 3, 2, 1)


# -- strict and sanitized builds -------------------------------------------------


def test_source_builds_with_warnings_as_errors(tmp_path):
    proc = subprocess.run(
        [*ckernel.CC, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "k.so"), "-"],
        input=ckernel.SOURCE, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


#: loads the library built at argv[1] as the kernel, runs three small
#: simulations and every input the kernel refuses, and prints the results
_EXERCISE = """
import sys
from pathlib import Path
import numpy as np
from repro.errors import SimulationError
from repro.gpu import ckernel
from repro.gpu.fault_buffer import FaultBuffer
from repro.gpu.soa import SoaStreams
from repro.gpu.tlb import UTlbArray
from repro.gpu.warp import StreamSet
lib = ckernel.load(Path(sys.argv[1]))
ckernel.library = lambda: lib
from repro.experiments.runner import ExperimentSetup, simulate
from repro.workloads.registry import make_workload
from repro.units import MiB
for name, data, gpu in (("sgemm", 4, 2), ("random", 4, 2), ("hpgmg", 2, 4)):
    r = simulate(make_workload(name, data * MiB), ExperimentSetup().with_gpu(memory_bytes=gpu * MiB))
    print(name, r.total_time_ns, r.faults_read, r.evictions, r.counters.as_dict()["gpu.accesses"])

def attempt(kind):
    soa = SoaStreams(StreamSet(np.array([1, 2, 3, 9]), [2, 2]))
    soa.state[:] = 1
    soa.sm_id[:] = [0, 3]
    tlb, buf = UTlbArray(3, 2), FaultBuffer(capacity=4)
    tlb.cover(soa.max_page)
    kernel = soa.bind(buf.ring, 3, 2, 2)
    args = dict(z=np.zeros(2), active=np.arange(2), k=2, read_ok=np.zeros(10, dtype=bool),
                write_ok=None, cells=tlb.cells, head=0, size=0, now=0)
    if kind == "stream id":
        args["active"] = np.array([0, 2])
    elif kind == "runnable count":
        args["z"] = np.zeros(3)
    elif kind == "span":
        soa.pos[1] = 5
    elif kind == "mask page":
        args["read_ok"] = np.ones(5, dtype=bool)
    elif kind == "sm":
        soa.sm_id[1] = -1
    elif kind == "cell page":
        args["cells"] = np.zeros(6, dtype=bool)
    elif kind == "ring head":
        args["head"] = 4
    elif kind == "ring size":
        args["size"] = 5
    try:
        kernel.run(**args)
    except SimulationError:
        return "refused"
    return "ran"

print([attempt(k) for k in ("none", "stream id", "runnable count", "span", "mask page",
                            "sm", "cell page", "ring head", "ring size")])
"""


def _sanitizer_runtimes() -> list[str]:
    paths = []
    for name in ("libasan.so", "libubsan.so"):
        proc = subprocess.run(["cc", f"-print-file-name={name}"], capture_output=True, text=True)
        path = proc.stdout.strip()
        if proc.returncode or not os.path.isabs(path) or not os.path.exists(path):
            pytest.skip(f"cc has no {name}")
        paths.append(path)
    return paths


def test_sanitized_build_runs_clean_and_matches(tmp_path):
    """Built with ``-fsanitize=address,undefined``, the kernel runs three
    simulations and every refused input without a report, and gives the
    normal build's results."""
    runtimes = _sanitizer_runtimes()
    sanitized = tmp_path / "sanitized.so"
    proc = subprocess.run(
        [*ckernel.CC, "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
         "-o", str(sanitized), "-"],
        input=ckernel.SOURCE, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    normal = ckernel.build(tmp_path / "normal")
    runs = {}
    for name, path, extra in (
        ("normal", normal, {}),
        ("sanitized", sanitized,
         {"LD_PRELOAD": ":".join(runtimes), "ASAN_OPTIONS": "detect_leaks=0"}),
    ):
        proc = subprocess.run(
            [sys.executable, "-c", _EXERCISE, str(path)],
            capture_output=True, text=True, timeout=300, env=_env(**extra),
        )
        assert proc.returncode == 0, f"{name}: {proc.stderr[-4000:]}"
        runs[name] = proc.stdout
    assert runs["sanitized"] == runs["normal"]
    assert runs["normal"].splitlines()[-1] == str(["ran"] + ["refused"] * 8)
