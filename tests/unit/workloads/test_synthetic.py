"""Unit tests for the regular/random page-touch workloads."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mem.address_space import AddressSpace
from repro.sim.rng import SimRng
from repro.units import MiB
from repro.workloads.synthetic import RandomAccess, RegularAccess


@pytest.fixture
def space():
    return AddressSpace()


@pytest.fixture
def rng():
    return SimRng(9)


class TestRegular:
    def test_one_stream_per_page_in_order(self, space, rng):
        build = RegularAccess(2 * MiB).build(space, rng)
        assert len(build.streams) == 512
        assert build.streams.start.tolist() == list(range(512))
        assert build.streams.pages.tolist() == list(range(512))

    def test_writes_marked(self, space, rng):
        build = RegularAccess(8 * 4096).build(space, rng)
        assert build.streams.writes.all()

    def test_read_only_variant(self, space, rng):
        build = RegularAccess(8 * 4096, write=False).build(space, rng)
        assert not build.streams.writes.any()

    def test_pages_per_stream_chunks(self, space, rng):
        build = RegularAccess(2 * MiB, pages_per_stream=128).build(space, rng)
        assert len(build.streams) == 4
        assert (build.streams.end - build.streams.start).tolist() == [128] * 4

    def test_invalid_sizes(self):
        with pytest.raises(ConfigurationError):
            RegularAccess(0)
        with pytest.raises(ConfigurationError):
            RegularAccess(4096, pages_per_stream=0)


class TestRandom:
    def test_covers_every_page_exactly_once(self, space, rng):
        build = RandomAccess(2 * MiB).build(space, rng)
        assert len(build.streams) == 512
        assert sorted(build.streams.pages.tolist()) == list(range(512))

    def test_order_is_shuffled(self, space, rng):
        build = RandomAccess(2 * MiB).build(space, rng)
        pages = build.streams.pages.tolist()
        assert pages != sorted(pages)

    def test_deterministic_under_seed(self):
        def pages_with_seed(seed):
            build = RandomAccess(1 * MiB).build(AddressSpace(), SimRng(seed))
            return build.streams.pages.tolist()

        assert pages_with_seed(3) == pages_with_seed(3)
        assert pages_with_seed(3) != pages_with_seed(4)

    def test_required_bytes(self):
        assert RandomAccess(5 * MiB).required_bytes() == 5 * MiB
