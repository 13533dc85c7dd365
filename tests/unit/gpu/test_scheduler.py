"""Unit tests for the block scheduler."""

import pickle

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.gpu.soa import RUNNABLE, STALLED, SoaBlockScheduler
from repro.gpu.warp import StreamSet
from repro.sim.rng import SimRng
from tests.gpuphase import mark_done, mark_stalled, runnable_ids, scan


def make_streams(n, pages_each=1):
    """``n`` streams, stream ``i`` touching page ``i`` ``pages_each`` times."""
    return StreamSet(np.repeat(np.arange(n), pages_each), np.full(n, pages_each))


@pytest.fixture
def rng():
    return SimRng(42)


class TestDispatch:
    def test_occupancy_limit(self, rng):
        sched = SoaBlockScheduler(make_streams(100), rng, max_active=10)
        assert sched.refill() == 10
        assert runnable_ids(sched).size == 10

    def test_backfill_after_completion(self, rng):
        streams = make_streams(20)
        sched = SoaBlockScheduler(streams, rng, max_active=10)
        sched.refill()
        mark_done(sched, runnable_ids(sched)[:3])
        dispatched = sched.refill()
        assert dispatched == 3
        assert runnable_ids(sched).size == 10

    def test_dispatch_prefers_low_indices(self, rng):
        """Low-numbered blocks dispatch (mostly) first (Section IV-B)."""
        streams = make_streams(1000)
        sched = SoaBlockScheduler(streams, rng, max_active=100, jitter=0.05)
        sched.refill()
        ids = sched.soa.stream_ids[runnable_ids(sched)]
        assert np.mean(ids) < 200  # far below the 500 a shuffle would give

    def test_sm_assignment_round_robin(self, rng):
        sched = SoaBlockScheduler(make_streams(8), rng, max_active=8, n_sms=4)
        sched.refill()
        sms = sorted(sched.soa.sm_id[runnable_ids(sched)].tolist())
        assert sms == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_invalid_params(self, rng):
        with pytest.raises(SimulationError):
            SoaBlockScheduler(make_streams(0), rng, max_active=0)
        with pytest.raises(SimulationError):
            SoaBlockScheduler(make_streams(0), rng, n_sms=0)


class TestLifecycle:
    def test_all_done_empty(self, rng):
        assert SoaBlockScheduler(make_streams(0), rng).all_done()

    def test_all_done_progression(self, rng):
        sched = SoaBlockScheduler(make_streams(3), rng, max_active=2)
        sched.refill()
        assert not sched.all_done()
        mark_done(sched, runnable_ids(sched))
        assert not sched.all_done()  # the third stream was never dispatched
        sched.refill()
        mark_done(sched, runnable_ids(sched))
        sched.refill()
        assert sched.all_done()

    def test_wake_all_stalled(self, rng):
        sched = SoaBlockScheduler(make_streams(4), rng, max_active=4)
        sched.refill()
        resident = np.zeros(10, dtype=bool)
        ids = runnable_ids(sched)
        _, _, miss = scan(sched.soa, ids, resident)
        assert miss.tolist() == sched.soa.stream_ids[ids].tolist()
        mark_stalled(sched, ids)
        assert sched.has_stalled()
        assert runnable_ids(sched).size == 0
        assert (sched.soa.state[ids] == STALLED).all()
        assert sched.wake_all_stalled() == 4
        assert not sched.has_stalled()
        assert runnable_ids(sched).tolist() == ids.tolist()
        assert (sched.soa.state[ids] == RUNNABLE).all()


class TestSoaStorage:
    """The SoA engine reads page ids as int32: out-of-range ids must be
    rejected when the stream set is built, never wrapped."""

    @pytest.mark.parametrize("bad", [2**31, 2**40, -1])
    def test_out_of_range_page_rejected(self, rng, bad):
        pages = np.concatenate([np.repeat(np.arange(3), 4), [5, bad, 6]])
        with pytest.raises(SimulationError, match=r"\[0, 2\*\*31\)"):
            SoaBlockScheduler(StreamSet(pages, [4, 4, 4, 3]), rng)

    def test_largest_int32_page_kept(self, rng):
        top = 2**31 - 1
        streams = StreamSet(np.array([0, top]), [2], np.array([False, True]))
        soa = SoaBlockScheduler(streams, rng).soa
        assert soa.pages_flat.dtype == np.int32
        assert soa.pages_flat.tolist() == [0, top]
        assert soa.writes_flat.tolist() == [False, True]

    def test_pickle_round_trip_scans_alike(self, rng):
        """A pickled engine holds its stores once and no address: the
        copy scans exactly as the original does."""
        streams = StreamSet(np.tile(np.arange(5000) % 50, 4), [5000] * 4)
        soa = SoaBlockScheduler(streams, rng).soa
        resident = np.ones(50, dtype=bool)
        resident[49] = False
        sel = np.arange(4)
        scan(soa, sel, resident)
        blob = pickle.dumps(soa)
        assert len(blob) < 4 * soa.pages_flat.nbytes
        copy = pickle.loads(blob)
        resident[49] = True
        assert all(
            np.array_equal(a, b)
            for a, b in zip(scan(soa, sel, resident), scan(copy, sel, resident))
        )
