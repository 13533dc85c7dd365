"""The GPU phase's two per-element loops, compiled from C.

A phase advances each selected stream to its next miss (the stream
scan) and then raises the misses through the per-GPC uTLB filters in
visit order (the uTLB raise).  Each loop stops early or depends on the
entries before it, which numpy can express only with gathers past the
stop and sorts; here they are written as the loops they are.

The C source below is the kernel.  It is compiled with the system ``cc``
on first use, once per source text: the library is named after a hash
of the compile command and the source, and is kept in this module's
``__pycache__/`` (or, when that directory cannot be written, in a
private temporary directory for the process).  A build writes to a
temporary file and renames it into place, so processes building at
once each load a complete library.  The library is loaded with stdlib
``ctypes``.

Safety rules of the binding:

* no address is stored: every pointer is taken for one call from the
  array it points into (:func:`_ref`), so nothing that gets pickled
  holds one, and an array that is reallocated between calls (the uTLB
  cells grow) is always passed where it is now;
* every array is checked for dtype, contiguity and size before a call
  (:func:`_check`), and the C loops check every index they read through
  (stream ids, spans, page ids, cells) and return an error code instead
  of reading past an array.

The loop forms in ``tests/properties/test_reference_oracles.py`` are
the reference for both functions.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError, SimulationError

SOURCE = r"""
#include <stdint.h>

/* Advance each selected stream from its cursor to its first access
 * whose page fails the access mask (write_ok for a store when write_ok
 * is given, read_ok otherwise) or to its end.  out holds three rows of
 * n_sel: the cursor before, the cursor after and the missed page (-1
 * for a stream that ran to its end).  Cursors are written only once
 * every row is resolved, so an error leaves them as they were.
 * Returns 0, or -1 for a bad stream id or span, -2 for a page id
 * outside the masks. */
int64_t advance_streams(
    const int32_t *pages, const uint8_t *writes, int64_t total,
    const int64_t *end, int64_t *pos, int64_t n_streams,
    const int64_t *sel, int64_t n_sel,
    const uint8_t *read_ok, const uint8_t *write_ok, int64_t n_mask,
    int64_t *out)
{
    int64_t *pos0 = out, *pos1 = out + n_sel, *miss = out + 2 * n_sel;
    for (int64_t i = 0; i < n_sel; i++) {
        int64_t s = sel[i];
        if (s < 0 || s >= n_streams)
            return -1;
        int64_t p = pos[s], e = end[s], missed = -1;
        if (p < 0 || p > e || e > total)
            return -1;
        pos0[i] = p;
        for (; p < e; p++) {
            int64_t page = pages[p];
            if (page < 0 || page >= n_mask)
                return -2;
            const uint8_t *ok = write_ok && writes[p] ? write_ok : read_ok;
            if (!ok[page]) {
                missed = page;
                break;
            }
        }
        pos1[i] = p;
        miss[i] = missed;
    }
    for (int64_t i = 0; i < n_sel; i++)
        pos[sel[i]] = pos1[i];
    return 0;
}

/* Raise m misses, in visit order, through the pending cells
 * (page * n_gpcs + gpc, for n_pages pages) with budget free
 * fault-buffer slots: a pending cell coalesces; otherwise the entry is
 * pushed and its cell set while the budget lasts, and after that it is
 * dropped with its cell left clear (the raise is forgotten).  push
 * flags the pushed entries; out holds the push count, the coalesced
 * count, then the pushed cells.  Every pair is checked before any cell
 * is touched.  Returns 0, or -1 for a gpc or page outside the cells. */
int64_t raise_faults(
    uint8_t *pending, int64_t n_pages, int64_t n_gpcs,
    const int64_t *gpcs, const int64_t *pages, int64_t m, int64_t budget,
    uint8_t *push, int64_t *out)
{
    for (int64_t i = 0; i < m; i++) {
        if (gpcs[i] < 0 || gpcs[i] >= n_gpcs || pages[i] < 0 || pages[i] >= n_pages)
            return -1;
    }
    int64_t n_push = 0, n_coalesced = 0;
    for (int64_t i = 0; i < m; i++) {
        int64_t cell = pages[i] * n_gpcs + gpcs[i];
        if (pending[cell]) {
            n_coalesced++;
        } else if (n_push < budget) {
            pending[cell] = 1;
            push[i] = 1;
            out[2 + n_push++] = cell;
        }
    }
    out[0] = n_push;
    out[1] = n_coalesced;
    return 0;
}
"""

#: the compile command; the source is read from stdin and ``-o`` added
CC = ("cc", "-O2", "-shared", "-fPIC", "-x", "c")

_BYTES = ctypes.c_char * 0
_INT = ctypes.c_int64
_PTR = ctypes.c_void_p


def library_name(source: str) -> str:
    """File name of the library built from ``source``: a new source text
    (or compile command) gets a new name, so no stale build is loaded."""
    digest = hashlib.sha256("\0".join((*CC, source)).encode()).hexdigest()
    return f"ckernel-{digest[:16]}.so"


def build(directory: Path) -> Path:
    """Path of the kernel library in ``directory``, compiling it first
    when this source has no build there.  A directory that cannot be
    written is replaced by a private temporary one."""
    target = directory / library_name(SOURCE)
    if target.exists():
        return target
    try:
        directory.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=directory)
    except OSError:
        directory = Path(tempfile.mkdtemp(prefix="repro-ckernel-"))
        target = directory / target.name
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=directory)
    os.close(fd)
    try:
        _compile(tmp)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _compile(output: str) -> None:
    cmd = [*CC, "-o", output, "-"]
    shown = " ".join(cmd)
    try:
        proc = subprocess.run(cmd, input=SOURCE, capture_output=True, text=True)
    except OSError as exc:
        raise ConfigurationError(
            f"the GPU phase engine needs a C compiler on PATH as `cc`: "
            f"`{shown}` could not run ({exc})"
        ) from None
    if proc.returncode:
        raise ConfigurationError(
            f"`{shown}` failed with exit status {proc.returncode}:\n{proc.stderr}"
        )


def load(path: Path) -> ctypes.CDLL:
    """Load a built kernel library and declare its functions' signatures."""
    lib = ctypes.CDLL(str(path))
    lib.advance_streams.argtypes = [
        _PTR, _PTR, _INT, _PTR, _PTR, _INT, _PTR, _INT, _PTR, _PTR, _INT, _PTR,
    ]
    lib.advance_streams.restype = _INT
    lib.raise_faults.argtypes = [_PTR, _INT, _INT, _PTR, _PTR, _INT, _INT, _PTR, _PTR]
    lib.raise_faults.restype = _INT
    return lib


@functools.cache
def library() -> ctypes.CDLL:
    """The kernel library, built on first use and loaded once a process."""
    directory = Path(__file__).with_name("__pycache__")
    path = build(directory)
    lib = load(path)
    if path.parent != directory:
        # a private build: the loaded mapping outlives its file
        shutil.rmtree(path.parent, ignore_errors=True)
    return lib


def _check(name: str, array: np.ndarray, dtype: type, size: int | None = None) -> None:
    """Refuse an array the C code cannot read as a flat ``dtype`` buffer."""
    if (
        array.dtype != dtype
        or array.ndim != 1
        or not array.flags.c_contiguous
        or not array.flags.writeable
        or (size is not None and array.size != size)
    ):
        raise SimulationError(
            f"{name} must be a writable, contiguous 1-D {np.dtype(dtype)} array"
            + ("" if size is None else f" of {size} entries")
            + f"; got {array.dtype} with shape {array.shape}"
        )


def _ref(array: np.ndarray):
    """A pointer to ``array``'s data, for one call: the ctypes view it
    wraps keeps the array alive until the call returns."""
    return ctypes.byref(_BYTES.from_buffer(array))


def advance_streams(
    pages: np.ndarray,
    writes: np.ndarray,
    end: np.ndarray,
    pos: np.ndarray,
    sel: np.ndarray,
    read_ok: np.ndarray,
    write_ok: np.ndarray | None,
) -> np.ndarray:
    """Run the stream scan for the streams ``sel``; ``pos`` moves on in
    place.  Returns a ``(3, len(sel))`` array: the cursors before and
    after, and the missed page per stream (``-1`` for none)."""
    _check("stream pages", pages, np.int32)
    _check("stream writes", writes, np.bool_, pages.size)
    _check("stream ends", end, np.int64)
    _check("stream cursors", pos, np.int64, end.size)
    _check("stream selection", sel, np.int64)
    _check("read_ok mask", read_ok, np.bool_)
    n_mask = read_ok.size
    if write_ok is not None:
        _check("write_ok mask", write_ok, np.bool_, n_mask)
    out = np.empty((3, sel.size), dtype=np.int64)
    err = library().advance_streams(
        _ref(pages), _ref(writes), pages.size, _ref(end), _ref(pos), end.size,
        _ref(sel), sel.size,
        _ref(read_ok), None if write_ok is None else _ref(write_ok), n_mask,
        _ref(out),
    )
    if err:
        raise SimulationError(
            "stream scan: "
            + ("a selected stream id or span is out of range" if err == -1
               else f"a stream page id lies outside the {n_mask}-page access masks")
        )
    return out


def raise_faults(
    pending: np.ndarray, n_gpcs: int, gpcs: np.ndarray, pages: np.ndarray, budget: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Run the uTLB raise over the ``(gpcs[i], pages[i])`` misses in
    order, setting ``pending`` cells in place.  Returns the push mask,
    the pushed cells and the number of coalesced entries."""
    m = pages.size
    _check("uTLB cells", pending, np.bool_)
    _check("fault pages", pages, np.int64)
    _check("fault gpcs", gpcs, np.int64, m)
    n_pages = pending.size // n_gpcs
    push = np.zeros(m, dtype=bool)
    out = np.empty(m + 2, dtype=np.int64)
    err = library().raise_faults(
        _ref(pending), n_pages, n_gpcs, _ref(gpcs), _ref(pages), m, budget,
        _ref(push), _ref(out),
    )
    if err:
        raise SimulationError(
            f"uTLB raise: a fault lies outside {n_gpcs} GPCs x {n_pages} pages"
        )
    n_push = int(out[0])
    return push, out[2 : 2 + n_push], int(out[1])
