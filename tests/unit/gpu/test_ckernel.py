"""The phase engine's C kernel: how it is built and loaded, and what its
binding refuses before the C code could read past an array."""

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
from repro.gpu.soa import SoaStreams, advance_batch
from repro.gpu.tlb import UTlbArray
from repro.gpu.warp import StreamSet

#: src/ directory that `import repro` resolved to, for subprocesses.
_SRC = str(Path(__file__).resolve().parents[3] / "src")


def probe(lib) -> str:
    """One raise through a loaded library: cells 6, 6, 7 of 2 pages x 6 GPCs."""
    pending = np.zeros(12, dtype=bool)
    gpcs = np.array([0, 0, 1], dtype=np.int64)
    pages = np.array([1, 1, 1], dtype=np.int64)
    push = np.zeros(3, dtype=bool)
    out = np.zeros(5, dtype=np.int64)
    ref = ckernel._ref
    err = lib.raise_faults(ref(pending), 2, 6, ref(gpcs), ref(pages), 3, 8, ref(push), ref(out))
    return f"{err} {out[:4].tolist()} {push.tolist()}"


PROBE_OUTPUT = "0 [2, 1, 6, 7] [True, False, True]"

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
        assert "`cc -O2 -shared -fPIC" in last
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


def _soa(pages, lengths) -> SoaStreams:
    return SoaStreams(StreamSet(np.asarray(pages), lengths))


class TestScanRefuses:
    def test_page_beyond_the_masks_raises(self):
        soa = _soa([1, 2, 3, 40], [2, 2])
        with pytest.raises(SimulationError, match="page 40 lies outside the 40-page"):
            advance_batch(soa, np.array([0]), np.ones(40, dtype=bool))
        assert soa.pos.tolist() == [0, 2]

    def test_kernel_checks_every_page_it_reads(self):
        """Below the once-per-set check, the C loop refuses a page past the
        masks too, and moves no cursor: not even one resolved before it."""
        soa = _soa([1, 2, 3, 40], [2, 2])
        streams = soa.streams
        with pytest.raises(SimulationError, match="outside the 40-page"):
            ckernel.advance_streams(
                streams.pages, streams.writes, soa.end, soa.pos,
                np.array([0, 1]), np.ones(40, dtype=bool), None,
            )
        assert soa.pos.tolist() == [0, 2]

    @pytest.mark.parametrize("sel", [[2], [-1]])
    def test_stream_id_out_of_range_raises(self, sel):
        soa = _soa([1, 2, 3, 4], [2, 2])
        with pytest.raises(SimulationError, match="stream id or span"):
            advance_batch(soa, np.array(sel), np.ones(8, dtype=bool))

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
        monkeypatch.setattr(ckernel, "library", _no_c_call)
        soa = _soa([1, 2, 3, 4], [2, 2])
        good = np.ones(8, dtype=bool)
        masks = {"read_ok": good, "write_ok": good, which: mask}
        with pytest.raises(SimulationError, match=f"{which} mask must be"):
            advance_batch(soa, np.array([0, 1]), masks["read_ok"], masks["write_ok"])
        assert soa.pos.tolist() == [0, 2]

    def test_masks_of_different_sizes_refused(self, monkeypatch):
        monkeypatch.setattr(ckernel, "library", _no_c_call)
        soa = _soa([1, 2], [2])
        with pytest.raises(SimulationError, match="write_ok mask must be .* of 8 entries"):
            advance_batch(soa, np.array([0]), np.ones(8, dtype=bool), np.ones(9, dtype=bool))

    def test_selection_dtype_refused(self, monkeypatch):
        monkeypatch.setattr(ckernel, "library", _no_c_call)
        soa = _soa([1, 2], [2])
        with pytest.raises(SimulationError, match="stream selection must be"):
            advance_batch(soa, np.array([0], dtype=np.int32), np.ones(8, dtype=bool))


class TestRaiseRefuses:
    @pytest.mark.parametrize("pair", [(3, 5), (-1, 5), (0, -1)])
    def test_pair_outside_the_cells_raises_and_sets_nothing(self, pair):
        tlb = UTlbArray(3, 2)
        gpcs = np.array([0, pair[0]], dtype=np.int64)
        pages = np.array([7, pair[1]], dtype=np.int64)
        with pytest.raises(SimulationError, match="outside 3 GPCs"):
            tlb.raise_batch(gpcs, pages, 8)
        assert not tlb._pending.any()

    @pytest.mark.parametrize("dtype", [np.int32, np.uint64, np.float64])
    def test_input_dtype_refused_before_any_c_call(self, monkeypatch, dtype):
        monkeypatch.setattr(ckernel, "library", _no_c_call)
        tlb = UTlbArray(3, 2)
        with pytest.raises(SimulationError, match="fault gpcs must be"):
            tlb.raise_batch(np.array([0], dtype=dtype), np.array([5]), 8)
