"""Unit tests for the fault-origin stream prefetcher."""

import numpy as np
import pytest

from repro.core.preprocess import VABlockBin
from repro.errors import ConfigurationError
from repro.ext.origin_prefetch import OriginStreamPrefetcher
from repro.mem.address_space import AddressSpace
from repro.mem.leafbits import bits_of, mask_of
from repro.mem.residency import ResidencyState
from repro.units import MiB
from tests.pagelists import back, make_resident


@pytest.fixture
def residency():
    space = AddressSpace()
    space.malloc_managed(4 * MiB)
    return ResidencyState(space)


def make_bin(pages, sms, vablock=0):
    pages = np.asarray(pages, dtype=np.int64)
    return VABlockBin(
        vablock_id=vablock,
        pages=pages,
        writes=np.zeros(pages.shape, dtype=bool),
        stream_ids=np.zeros(pages.shape, dtype=np.int64),
        sm_ids=np.asarray(sms, dtype=np.int64),
    )


def predict(pf, residency, vbin):
    """The prefetcher's leaf bitset for ``vbin`` as ascending global pages."""
    start, _ = residency.space.page_span_of_vablock(vbin.vablock_id)
    resident = residency.blocks[vbin.vablock_id].resident
    demand = bits_of(np.isin(np.arange(residency.pages_per_vablock), vbin.pages - start))
    bits = pf.prefetch_bits(resident, demand, vbin, start)
    assert 0 <= bits < 1 << residency.pages_per_vablock
    return np.flatnonzero(mask_of(bits, residency.pages_per_vablock)) + start


class TestStrideDetection:
    def test_no_prediction_on_first_fault(self, residency):
        pf = OriginStreamPrefetcher()
        assert predict(pf, residency, make_bin([10], [0])).size == 0

    def test_confirmed_stride_predicts_ahead(self, residency):
        pf = OriginStreamPrefetcher(depth=4)
        predict(pf, residency, make_bin([10], [0]))
        predicted = predict(pf, residency, make_bin([14], [0]))  # stride 4
        assert predicted.tolist() == [18, 22, 26, 30]

    def test_stride_change_resets_confidence(self, residency):
        pf = OriginStreamPrefetcher(depth=2, min_confirmations=2)
        predict(pf, residency, make_bin([10], [0]))
        predict(pf, residency, make_bin([14], [0]))  # stride 4, conf 1
        predicted = predict(pf, residency, make_bin([15], [0]))  # stride 1
        assert predicted.size == 0

    def test_origins_tracked_independently(self, residency):
        pf = OriginStreamPrefetcher(depth=1)
        predict(pf, residency, make_bin([10, 100], [0, 1]))
        predicted = predict(pf, residency, make_bin([12, 103], [0, 1]))
        assert predicted.tolist() == [14, 106]

    def test_negative_stride(self, residency):
        pf = OriginStreamPrefetcher(depth=2)
        predict(pf, residency, make_bin([100], [0]))
        predicted = predict(pf, residency, make_bin([96], [0]))
        assert predicted.tolist() == [88, 92]


class TestClamping:
    def test_predictions_clamped_to_vablock(self, residency):
        pf = OriginStreamPrefetcher(depth=16)
        predict(pf, residency, make_bin([400], [0]))
        predicted = predict(pf, residency, make_bin([500], [0]))  # stride 100
        assert predicted.size == 0  # 600 escapes block 0

    def test_resident_pages_skipped(self, residency):
        back(residency, 0)
        make_resident(residency, np.array([14]))
        pf = OriginStreamPrefetcher(depth=2)
        predict(pf, residency, make_bin([10], [0]))
        predicted = predict(pf, residency, make_bin([12], [0]))
        assert predicted.tolist() == [16]  # 14 resident, skipped

    def test_demand_pages_skipped(self, residency):
        pf = OriginStreamPrefetcher(depth=1)
        predict(pf, residency, make_bin([10], [0]))
        predicted = predict(pf, residency, make_bin([12, 14], [0, 5]))
        assert 14 not in predicted.tolist()


class TestValidation:
    def test_bad_params(self):
        with pytest.raises(ConfigurationError):
            OriginStreamPrefetcher(depth=0)
        with pytest.raises(ConfigurationError):
            OriginStreamPrefetcher(min_confirmations=0)

    def test_table_reset_under_pressure(self, residency):
        pf = OriginStreamPrefetcher(max_origins=2)
        for sm in range(5):
            predict(pf, residency, make_bin([sm * 3], [sm]))
        # no crash; table bounded
        assert len(pf._origins) <= 2
