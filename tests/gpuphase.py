"""Per-entry and per-call access to the GPU phase's pieces.

A phase is one C call (:class:`repro.gpu.ckernel.PhaseKernel`): the
visit order, the stream scan, the state marking, the uTLB raise and the
fault-buffer ring write together.  Tests state set-ups and expectations
one piece at a time; these helpers do that on the same arrays:

* :func:`should_raise_gpc` / :func:`forget_gpc` are the per-entry uTLB
  filter, the loop the kernel's raise is checked against;
* :func:`mark_done` / :func:`mark_stalled` mark streams the way a phase
  does, and :func:`runnable_ids` lists the streams a phase picks from,
  for scheduler tests that drive no phase;
* :func:`run_phase` runs one phase over chosen streams, by default in
  the order given (zero jitter), and :func:`scan` returns what its
  stream scan found;
* :func:`raise_pairs` runs one phase whose every visited stream misses,
  so that only the raise is left to see;
* :func:`visit_order` runs one phase over resident streams and returns
  its visit order.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.fault_buffer import FaultBuffer
from repro.gpu.soa import DONE, RUNNABLE, STALLED, SoaBlockScheduler, SoaStreams
from repro.gpu.tlb import UTlbArray
from repro.gpu.warp import StreamSet


def should_raise_gpc(tlb: UTlbArray, gpc: int, page: int) -> bool:
    """Whether a miss on ``page`` from GPC ``gpc`` emits a fault entry:
    False when this GPC's uTLB already has the page pending (the access
    is coalesced onto the outstanding fault), else the cell is set."""
    tlb.cover(page)
    cell = page * tlb.n_gpcs + gpc
    if tlb.cells[cell]:
        return False
    tlb.cells[cell] = True
    tlb.note_raised(np.array([cell], dtype=np.int64))
    return True


def forget_gpc(tlb: UTlbArray, gpc: int, page: int) -> None:
    """Drop a pending entry (the fault-buffer push was dropped)."""
    cell = page * tlb.n_gpcs + gpc
    if cell < tlb.cells.size:
        tlb.cells[cell] = False


def runnable_ids(sched: SoaBlockScheduler) -> np.ndarray:
    """The active streams able to advance, in dispatch order."""
    active, _ = sched.runnable()
    return active[sched.soa.state[active] == RUNNABLE]


def mark_done(sched: SoaBlockScheduler, ids: np.ndarray) -> None:
    sched.soa.state[ids] = DONE
    sched.note_marked(int(ids.size), 0)


def mark_stalled(sched: SoaBlockScheduler, ids: np.ndarray) -> None:
    sched.soa.state[ids] = STALLED
    sched.note_marked(0, int(ids.size))


def run_phase(
    soa: SoaStreams,
    active,
    read_ok: np.ndarray,
    write_ok: np.ndarray | None = None,
    *,
    z: np.ndarray | None = None,
    k: int | None = None,
    tlb: UTlbArray | None = None,
    buf: FaultBuffer | None = None,
    now: int = 0,
):
    """One kernel phase over the streams ``active``, made RUNNABLE (those
    without an SM get SM 0), with jitter draws ``z`` (zeros by default:
    the phase visits them in the given order), visiting ``k`` of them
    (all by default).  The misses are raised into ``tlb`` and ``buf``
    (fresh ones by default, with a slot per stream), which take them in
    as the device does.  Returns the bound kernel and its counts."""
    active = np.asarray(active, dtype=np.int64)
    soa.state[active] = RUNNABLE
    soa.sm_id[soa.sm_id < 0] = 0
    if tlb is None:
        tlb = UTlbArray(1, 1)
    if buf is None:
        buf = FaultBuffer(capacity=max(1, active.size))
    tlb.cover(soa.max_page)
    kernel = soa.bind(buf.ring, tlb.n_gpcs, tlb.sms_per_gpc, active.size)
    stats, flops = kernel.run(
        np.zeros(active.size) if z is None else np.asarray(z, dtype=np.float64),
        active, active.size if k is None else k, read_ok, write_ok, tlb.cells,
        buf.head, len(buf), now,
    )
    n_push, n_dropped = stats[4], stats[6]
    if n_push:
        tlb.note_raised(kernel.set_cells[:n_push].copy())
    buf.note_pushed(n_push, n_dropped)
    return kernel, stats, flops


def scan(soa: SoaStreams, sel, read_ok: np.ndarray, write_ok: np.ndarray | None = None):
    """The stream scan of one phase over ``sel``, in that order:
    ``(pos0, pos1, miss)`` per visited stream - the cursors before and
    after, and the missed page (``-1`` for a stream that ran to its
    end).  ``soa.pos`` moves on, and the visited streams are marked."""
    kernel, stats, _ = run_phase(soa, sel, read_ok, write_ok)
    k = stats[0]
    return kernel.pos0[:k].copy(), kernel.pos1[:k].copy(), kernel.miss[:k].copy()


def raise_pairs(tlb: UTlbArray, gpcs, pages, budget: int):
    """The kernel's raise of the misses ``(gpcs[i], pages[i])`` in order,
    with ``budget`` free fault-buffer slots: one single-access stream per
    miss, on an SM of its GPC.  Returns ``(push_mask, n_coalesced,
    n_dropped)``; ``tlb`` keeps the cells the raise set."""
    gpcs = np.asarray(gpcs, dtype=np.int64)
    pages = np.asarray(pages, dtype=np.int64)
    m = pages.size
    soa = SoaStreams(StreamSet(pages))
    soa.sm_id[:] = gpcs * tlb.sms_per_gpc
    buf = FaultBuffer(capacity=max(m, budget, 1))
    buf.note_pushed(buf.capacity - budget, 0)  # leave ``budget`` slots free
    tail = (buf.head + len(buf)) % buf.capacity
    _, stats, _ = run_phase(
        soa, np.arange(m), np.zeros(soa.max_page + 1, dtype=bool), tlb=tlb, buf=buf
    )
    n_push = stats[4]
    slots = (tail + np.arange(n_push)) % buf.capacity
    push = np.zeros(m, dtype=bool)
    stream_field = buf.ring[5]
    push[stream_field[slots]] = True  # stream ids are 0..m-1
    return push, stats[5], stats[6]


def visit_order(z: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` streams a phase visits when its ``n = z.size``
    runnable streams, ``0..n-1`` in dispatch order, draw the jitter
    ``z``: every stream is resident, so each just runs to its end."""
    n = z.size
    soa = SoaStreams(StreamSet(np.zeros(n, dtype=np.int64)))
    kernel, stats, _ = run_phase(soa, np.arange(n), np.ones(1, dtype=bool), z=z, k=k)
    return kernel.visited[: stats[0]].copy()
