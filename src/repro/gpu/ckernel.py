"""One GPU phase as one C call.

A phase picks the first ``k`` runnable streams of a jittered visit
order, advances each to its next miss (the stream scan), marks it DONE
or STALLED, and then raises the misses through the per-GPC uTLB filters
into the fault buffer, in visit order.  The selection is a sort, the
scan stops early, and the raise depends on the entries before it; numpy
can express them only with partitions, gathers past the stop and
sorts, and a phase costs more in dispatching those calls than in the
work itself.  Here the whole phase after the normal draws is one C
function, ``run_phase``: the runnable filter, the jitter keys, the
selection and sort, the scan, the retired and FLOP totals, the state marking, the SM-to-GPC
map, the uTLB raise and the fault-buffer ring write.  The normals stay
numpy's (:meth:`repro.sim.rng.SimRng.jitter_noise`): they fix every
simulated bit.

The C source below is the kernel.  It is compiled with the system ``cc``
on first use, once per source text: the library is named after a hash
of the compile command and the source, and is kept in this module's
``__pycache__/`` (or, when that directory cannot be written, in a
private temporary directory for the process).  A build writes to a
temporary file and renames it into place, so processes building at
once each load a complete library.  The library is loaded with stdlib
``ctypes``.  ``-ffp-contract=off`` keeps the compiler from fusing the
FLOP total's multiply and add (an FMA target would otherwise round it
differently from numpy).

Safety rules of the binding (:class:`PhaseKernel`):

* the arrays a kernel launch keeps - stream pages, store flags, ends,
  cursors, states, SM ids, FLOPs, ids, the fault buffer's ring fields -
  are checked for dtype, contiguity and size once, when they are bound;
  the binding holds a reference to each of them, so the addresses it
  keeps stay valid, and it is never pickled: its owner drops it from
  its pickled state and binds afresh;
* the arrays that change between calls are passed per call: the jitter
  draws and the active streams are checked and pointed to for that one
  call (:func:`_ref`); the access masks and uTLB cells (which
  reallocate as they grow) are checked and bound whenever a call passes
  an array the last one did not, and the binding holds them while their
  addresses are bound;
* the C code checks every index it reads through (stream ids, spans,
  page ids against the masks, SM ids and pages against the cells, the
  ring's head and size) before it changes any state, and returns an
  error code instead of reading or writing past an array.

The loop forms in ``tests/properties/test_reference_oracles.py`` are
its reference.
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
#include <math.h>
#include <stdint.h>

/* stream state codes, as repro.gpu.soa defines them */
#define RUNNABLE 1
#define STALLED 2
#define DONE 3

typedef struct {
    /* one kernel launch's streams: n_streams spans of total accesses */
    const int32_t *pages;
    const uint8_t *writes;
    int64_t total;
    const int64_t *end;
    int64_t *pos;
    int8_t *state;
    const int64_t *sm;
    const double *flops;
    const int64_t *ids;
    int64_t n_streams;
    /* the fault buffer's ring fields, capacity entries each */
    int64_t *r_page;
    uint8_t *r_write;
    int64_t *r_ts;
    int64_t *r_gpc;
    int64_t *r_utlb;
    int64_t *r_stream;
    int64_t *r_sm;
    int64_t capacity;
    int64_t n_gpcs;
    int64_t sms_per_gpc;
    /* the access masks (write_ok may be null) and the uTLB cells */
    const uint8_t *read_ok;
    const uint8_t *write_ok;
    int64_t n_mask;
    uint8_t *cells;
    int64_t n_cells;
    /* scratch of n_work entries each (counts: 4 n_work + 66) */
    int64_t n_work;
    int64_t *run;
    double *keys;
    int32_t *order, *tmp, *counts;
    /* per visited stream: id, cursor before and after, missed page */
    int64_t *sel, *pos0, *pos1, *miss;
    /* the uTLB cells set by the last call */
    int64_t *set_cells;
    /* k, retired, done, stalled, pushed, coalesced, dropped */
    int64_t *stats;
    double *flop_total;
} phase_args;

/* Stable bottom-up merge sort of v[0..n) by keys, through tmp. */
static void merge_sort(int32_t *v, int32_t *tmp, int64_t n, const double *keys)
{
    int32_t *src = v, *dst = tmp;
    for (int64_t width = 1; width < n; width *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * width) {
            int64_t mid = lo + width < n ? lo + width : n;
            int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            int64_t i = lo, j = mid, t = lo;
            while (i < mid && j < hi)
                dst[t++] = keys[src[j]] < keys[src[i]] ? src[j++] : src[i++];
            while (i < mid)
                dst[t++] = src[i++];
            while (j < hi)
                dst[t++] = src[j++];
        }
        int32_t *swap = src;
        src = dst;
        dst = swap;
    }
    if (src != v)
        for (int64_t i = 0; i < n; i++)
            v[i] = src[i];
}

/* Order 0..n-1 by (key, index), key i + z[i], so that order[0..k) are
 * the first k.  Keys near their index (an index plus a modest jitter)
 * take a counting pass on their whole distance from the lowest key,
 * which places only the buckets up to the one holding the k-th key,
 * and an insertion sort within each of those; wide or crowded keys
 * take the merge sort.
 * Returns 0, or -6 for a key that is not finite. */
static int64_t sort_keys(phase_args *a, const double *z, int64_t n, int64_t k)
{
    double *keys = a->keys;
    int32_t *order = a->order, *bucket = a->tmp, *counts = a->counts;
    if (k == 0)
        return 0;
    double lo = INFINITY, hi = -INFINITY;
    for (int64_t i = 0; i < n; i++) {
        double key = (double)i + z[i];
        if (!isfinite(key))
            return -6;
        keys[i] = key;
        lo = key < lo ? key : lo;
        hi = key > hi ? key : hi;
    }
    int crowded = 1;
    if (hi - lo < (double)(4 * n + 64)) {
        /* bucket (int)(key - lo): not always floor(key) - floor(lo), but
         * rounding and truncation keep it monotone in the key, and below
         * n_buckets, which is all the passes below need */
        int64_t n_buckets = (int64_t)(hi - lo) + 1, last = 0;
        for (int64_t b = 0; b <= n_buckets; b++)
            counts[b] = 0;
        for (int64_t i = 0; i < n; i++) {
            bucket[i] = (int32_t)(keys[i] - lo);
            counts[bucket[i] + 1]++;
        }
        /* bucket starts, up to the last bucket the first k keys reach */
        crowded = 0;
        for (int64_t b = 1; b <= n_buckets; b++) {
            crowded |= counts[b] > 64;
            counts[b] += counts[b - 1];
            if (counts[b] >= k) {
                last = b - 1;
                break;
            }
        }
        if (!crowded) {
            for (int64_t i = 0; i < n; i++)
                if (bucket[i] <= last)
                    order[counts[bucket[i]]++] = (int32_t)i;
            /* counts[b] is now the end of bucket b */
            for (int64_t b = 0, start = 0; b <= last; b++) {
                int64_t stop = counts[b];
                for (int64_t j = start + 1; j < stop; j++) {
                    int32_t v = order[j];
                    int64_t m = j;
                    for (; m > start && keys[order[m - 1]] > keys[v]; m--)
                        order[m] = order[m - 1];
                    order[m] = v;
                }
                start = stop;
            }
        }
    }
    if (crowded) {
        for (int64_t i = 0; i < n; i++)
            order[i] = (int32_t)i;
        merge_sort(order, a->tmp, n, keys);
    }
    return 0;
}

/* One GPU phase.  The runnable streams are the active streams (in
 * dispatch order) whose state is RUNNABLE; there must be n of them, one
 * per jitter draw z.  The phase visits the first k of them in the order
 * of their keys i + z[i] (ties to the lower i), advances each visited
 * stream from its cursor to its first access whose page fails the
 * access mask (write_ok for a store when write_ok is given, read_ok
 * otherwise) or to its end, and marks it DONE or STALLED.  The misses
 * are then raised in visit order through the uTLB cells
 * (page * n_gpcs + gpc, the gpc of the stream's SM): a pending cell
 * coalesces; otherwise the entry is written to the fault buffer's ring
 * at its tail, time-stamped now, and its cell set while the ring has
 * room, and after that it is dropped with its cell left clear.
 *
 * Every input is checked before any state changes.  Returns 0, or -1
 * for a stream id or span out of range, -2 for a page id outside the
 * masks, -3 for an SM id or page outside the cells, -4 for a ring head
 * or size outside its capacity, -5 for a runnable count other than n
 * (or more than the scratch holds) or k outside 0..n, -6 for a key that
 * is not finite. */
int64_t run_phase(
    phase_args *a, const double *z, int64_t n, const int64_t *active, int64_t n_active,
    int64_t k, int64_t head, int64_t size, int64_t now)
{
    int64_t cap = a->capacity, n_gpcs = a->n_gpcs, n_mask = a->n_mask;
    const uint8_t *read_ok = a->read_ok, *write_ok = a->write_ok;
    uint8_t *cells = a->cells;
    if (head < 0 || head >= cap || size < 0 || size > cap)
        return -4;
    if (n < 0 || n > a->n_work || k < 0 || k > n)
        return -5;
    int64_t *run = a->run, n_run = 0;
    for (int64_t i = 0; i < n_active; i++) {
        int64_t s = active[i];
        if (s < 0 || s >= a->n_streams)
            return -1;
        if (a->state[s] == RUNNABLE) {
            if (n_run == n)
                return -5;
            run[n_run++] = s;
        }
    }
    if (n_run != n)
        return -5;
    int64_t err = sort_keys(a, z, n, k);
    if (err)
        return err;

    int64_t *sel = a->sel, *pos0 = a->pos0, *pos1 = a->pos1, *miss = a->miss;
    int64_t cell_pages = a->n_cells / n_gpcs;
    for (int64_t j = 0; j < k; j++) {
        int64_t s = run[a->order[j]];
        int64_t p = a->pos[s], e = a->end[s], missed = -1;
        if (p < 0 || p > e || e > a->total)
            return -1;
        sel[j] = s;
        pos0[j] = p;
        for (; p < e; p++) {
            int64_t page = a->pages[p];
            if (page < 0 || page >= n_mask)
                return -2;
            const uint8_t *ok = write_ok && a->writes[p] ? write_ok : read_ok;
            if (!ok[page]) {
                missed = page;
                break;
            }
        }
        if (missed >= 0 && (a->sm[s] < 0 || missed >= cell_pages))
            return -3;
        pos1[j] = p;
        miss[j] = missed;
    }

    /* every check has passed: commit */
    int64_t retired = 0, n_done = 0, n_stalled = 0, any = 0;
    double total = 0.0;
    for (int64_t j = 0; j < k; j++) {
        int64_t s = sel[j], r = pos1[j] - pos0[j];
        a->pos[s] = pos1[j];
        retired += r;
        /* left to right in visit order, skipping zero-FLOP streams:
         * the bits of numpy's add.accumulate over the products */
        double f = a->flops[s];
        if (f != 0.0) {
            double c = (double)r * f;
            total = any ? total + c : c;
            any = 1;
        }
        if (miss[j] < 0) {
            a->state[s] = DONE;
            n_done++;
        } else {
            a->state[s] = STALLED;
            n_stalled++;
        }
    }
    int64_t n_push = 0, n_coalesced = 0, n_dropped = 0, room = cap - size;
    int64_t tail = head + size < cap ? head + size : head + size - cap;
    for (int64_t j = 0; j < k; j++) {
        int64_t page = miss[j];
        if (page < 0)
            continue;
        int64_t s = sel[j], sm = a->sm[s];
        int64_t gpc = sm / a->sms_per_gpc % n_gpcs, cell = page * n_gpcs + gpc;
        if (cells[cell]) {
            n_coalesced++;
        } else if (n_push < room) {
            int64_t slot = tail + n_push < cap ? tail + n_push : tail + n_push - cap;
            cells[cell] = 1;
            a->set_cells[n_push++] = cell;
            a->r_page[slot] = page;
            a->r_write[slot] = a->writes[pos1[j]];
            a->r_ts[slot] = now;
            a->r_gpc[slot] = gpc;
            a->r_utlb[slot] = gpc;
            a->r_stream[slot] = a->ids[s];
            a->r_sm[slot] = sm;
        } else {
            n_dropped++;
        }
    }
    int64_t *stats = a->stats;
    stats[0] = k;
    stats[1] = retired;
    stats[2] = n_done;
    stats[3] = n_stalled;
    stats[4] = n_push;
    stats[5] = n_coalesced;
    stats[6] = n_dropped;
    a->flop_total[0] = total;
    return 0;
}
"""

#: the compile command; the source is read from stdin and ``-o`` added
CC = ("cc", "-O2", "-shared", "-fPIC", "-ffp-contract=off", "-x", "c")

_BYTES = ctypes.c_char * 0
_INT = ctypes.c_int64
_PTR = ctypes.c_void_p

#: the fault buffer's ring fields, in the order :class:`PhaseKernel` takes them
RING_FIELDS = (
    ("page", np.int64),
    ("write", np.bool_),
    ("ts", np.int64),
    ("gpc", np.int64),
    ("utlb", np.int64),
    ("stream", np.int64),
    ("sm", np.int64),
)

_ERRORS = {
    -1: "a stream id or span is out of range",
    -2: "a stream page id lies outside the {n_mask}-page access masks",
    -3: "a miss's SM id or page lies outside {n_gpcs} GPCs x {cell_pages} pages of uTLB cells",
    -4: "the fault buffer's head {head} or size {size} lies outside its {capacity} slots",
    -5: "the active streams do not hold {n} runnable ones, or {k} visits do not fit",
    -6: "a jitter key is not finite",
}


class _PhaseArgs(ctypes.Structure):
    _fields_ = [
        ("pages", _PTR), ("writes", _PTR), ("total", _INT), ("end", _PTR),
        ("pos", _PTR), ("state", _PTR), ("sm", _PTR), ("flops", _PTR),
        ("ids", _PTR), ("n_streams", _INT),
        ("r_page", _PTR), ("r_write", _PTR), ("r_ts", _PTR), ("r_gpc", _PTR),
        ("r_utlb", _PTR), ("r_stream", _PTR), ("r_sm", _PTR), ("capacity", _INT),
        ("n_gpcs", _INT), ("sms_per_gpc", _INT),
        ("read_ok", _PTR), ("write_ok", _PTR), ("n_mask", _INT), ("cells", _PTR),
        ("n_cells", _INT),
        ("n_work", _INT), ("run", _PTR), ("keys", _PTR), ("order", _PTR), ("tmp", _PTR),
        ("counts", _PTR), ("sel", _PTR), ("pos0", _PTR), ("pos1", _PTR),
        ("miss", _PTR), ("set_cells", _PTR), ("stats", _PTR), ("flop_total", _PTR),
    ]


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
    """Load a built kernel library and declare its function's signature."""
    lib = ctypes.CDLL(str(path))
    lib.run_phase.argtypes = [
        ctypes.POINTER(_PhaseArgs), _PTR, _INT, _PTR, _INT, _INT, _INT, _INT, _INT,
    ]
    lib.run_phase.restype = _INT
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


def _check(
    name: str,
    array: np.ndarray,
    dtype: type,
    size: int | None = None,
    writable: bool = True,
) -> None:
    """Refuse an array the C code cannot use as a flat ``dtype`` buffer."""
    if (
        array.dtype != dtype
        or array.ndim != 1
        or not array.flags.c_contiguous
        or (writable and not array.flags.writeable)
        or (size is not None and array.size != size)
    ):
        raise SimulationError(
            f"{name} must be a {'writable, ' if writable else ''}contiguous 1-D "
            f"{np.dtype(dtype)} array"
            + ("" if size is None else f" of {size} entries")
            + f"; got {array.dtype} with shape {array.shape}"
        )


def _ref(array: np.ndarray):
    """A pointer to ``array``'s data, for one call: the ctypes view it
    wraps keeps the array alive until the call returns."""
    return ctypes.byref(_BYTES.from_buffer(array))


class PhaseKernel:
    """``run_phase`` bound to one kernel launch's streams and a fault
    buffer's ring.

    The stream arrays are a :class:`~repro.gpu.soa.SoaStreams`' own
    (``pos`` and ``state`` move on in place), ``ring`` is the buffer's
    field arrays in :data:`RING_FIELDS` order, and ``n_work`` bounds the
    runnable streams a call may pass.  After a call, ``visited``,
    ``pos0``, ``pos1`` and ``miss`` hold the visited streams, their
    cursors before and after, and their missed pages (``-1`` for a
    stream that ran to its end), in visit order, and ``set_cells`` the
    uTLB cells the call set, until the next call.
    """

    def __init__(
        self,
        *,
        pages: np.ndarray,
        writes: np.ndarray,
        end: np.ndarray,
        pos: np.ndarray,
        state: np.ndarray,
        sm: np.ndarray,
        flops: np.ndarray,
        ids: np.ndarray,
        ring: tuple[np.ndarray, ...],
        n_gpcs: int,
        sms_per_gpc: int,
        n_work: int,
    ) -> None:
        n = end.size
        _check("stream pages", pages, np.int32, writable=False)
        _check("stream writes", writes, np.bool_, pages.size, writable=False)
        _check("stream ends", end, np.int64, writable=False)
        _check("stream cursors", pos, np.int64, n)
        _check("stream states", state, np.int8, n)
        _check("stream SM ids", sm, np.int64, n, writable=False)
        _check("stream FLOPs", flops, np.float64, n, writable=False)
        _check("stream ids", ids, np.int64, n, writable=False)
        if len(ring) != len(RING_FIELDS):
            raise SimulationError(f"the fault buffer ring has {len(RING_FIELDS)} fields")
        capacity = ring[0].size
        for (name, dtype), field in zip(RING_FIELDS, ring):
            _check(f"fault buffer {name} field", field, dtype, capacity)
        if capacity <= 0 or n_gpcs <= 0 or sms_per_gpc <= 0 or not 0 <= n_work < 2**29:
            raise SimulationError(
                f"a phase needs ring slots, GPCs and SMs per GPC; got {capacity}, "
                f"{n_gpcs} and {sms_per_gpc}, with {n_work} work entries"
            )
        self.n_gpcs = n_gpcs
        self.capacity = capacity
        work = lambda dtype=np.int64: np.empty(n_work, dtype=dtype)  # noqa: E731
        self.visited, self.pos0, self.pos1, self.miss, self.set_cells = (
            work() for _ in range(5)
        )
        self._stats = np.zeros(7, dtype=np.int64)
        self._flop_total = np.zeros(1)
        run, keys, order, tmp = work(), work(np.float64), work(np.int32), work(np.int32)
        counts = np.empty(4 * n_work + 66, dtype=np.int32)
        #: every array whose address is bound, kept alive with the binding
        self._bound = (pages, writes, end, pos, state, sm, flops, ids, *ring, run, keys,
                       order, tmp, counts)
        addr = lambda array: array.ctypes.data  # noqa: E731
        self._args = _PhaseArgs(
            addr(pages), addr(writes), pages.size, addr(end), addr(pos),
            addr(state), addr(sm), addr(flops), addr(ids), n,
            *map(addr, ring), capacity, n_gpcs, sms_per_gpc,
            None, None, 0, None, 0,
            n_work, addr(run), addr(keys), addr(order), addr(tmp), addr(counts),
            addr(self.visited), addr(self.pos0), addr(self.pos1), addr(self.miss),
            addr(self.set_cells), addr(self._stats), addr(self._flop_total),
        )
        self._argref = ctypes.byref(self._args)
        self._run = library().run_phase
        #: the masks and cells of the last call, whose pointers are bound
        self._read_ok = self._write_ok = self._cells = None

    def run(
        self,
        z: np.ndarray,
        active: np.ndarray,
        k: int,
        read_ok: np.ndarray,
        write_ok: np.ndarray | None,
        cells: np.ndarray,
        head: int,
        size: int,
        now: int,
    ) -> tuple[list[int], float]:
        """One phase over the RUNNABLE streams among ``active`` (one jitter
        draw in ``z`` for each), visiting ``k`` of them; the ring's
        ``head`` and ``size`` are the buffer's before the call.

        The masks and cells are checked when a call passes an array the
        previous call did not, and the binding keeps its pointer while
        the same array comes back; it holds the array meanwhile, so the
        address stays valid.

        Returns ``([k, retired, done, stalled, pushed, coalesced,
        dropped], flops)``: the counts of the phase and its FLOP total.
        """
        _check("jitter draws", z, np.float64)
        _check("active streams", active, np.int64)
        if read_ok is not self._read_ok or write_ok is not self._write_ok:
            self._take_masks(read_ok, write_ok)
        if cells is not self._cells:
            _check("uTLB cells", cells, np.bool_)
            self._cells = cells
            self._args.cells, self._args.n_cells = cells.ctypes.data, cells.size
        n = z.size
        err = self._run(self._argref, _ref(z), n, _ref(active), active.size, k, head, size, now)
        if err:
            raise SimulationError(
                "GPU phase: "
                + _ERRORS[err].format(
                    n_mask=read_ok.size, n_gpcs=self.n_gpcs,
                    cell_pages=cells.size // self.n_gpcs, head=head, size=size,
                    capacity=self.capacity, n=n, k=k,
                )
            )
        return self._stats.tolist(), float(self._flop_total[0])

    def _take_masks(self, read_ok: np.ndarray, write_ok: np.ndarray | None) -> None:
        _check("read_ok mask", read_ok, np.bool_)
        if write_ok is not None:
            _check("write_ok mask", write_ok, np.bool_, read_ok.size)
        self._read_ok, self._write_ok = read_ok, write_ok
        args = self._args
        args.read_ok, args.n_mask = read_ok.ctypes.data, read_ok.size
        args.write_ok = None if write_ok is None else write_ok.ctypes.data
