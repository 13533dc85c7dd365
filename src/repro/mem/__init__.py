"""Memory-layout substrate: UVM's four-level address hierarchy.

Section III-A of the paper: *"UVM uses a four-level hierarchy for memory
address space: address spaces, virtual address ranges, virtual address
blocks, and pages."*  This subpackage implements that hierarchy plus the
page-residency state the driver maintains:

* :class:`~repro.mem.address_space.AddressSpace` - one per application,
  with :meth:`malloc_managed` mirroring ``cudaMallocManaged``.
* :class:`~repro.mem.address_space.ManagedRange` - one allocation.
* :class:`~repro.mem.address_space.VABlock` - 2 MB allocation/eviction unit.
* :class:`~repro.mem.residency.ResidencyState` - page residency,
  permissions and dirty state, one leaf-bitset
  :class:`~repro.mem.residency.BlockLeaves` per VABlock, plus the page
  masks the GPU scans.
* :class:`~repro.mem.page_table.PageTable` - map/unmap bookkeeping for the
  host and device page tables, one mapped bitset per VABlock.
"""

from repro.mem.layout import (
    big_page_of_page,
    page_span_of_vablock,
    vablock_of_page,
    pages_of_big_page,
)
from repro.mem.address_space import AddressSpace, ManagedRange, VABlock
from repro.mem.residency import ResidencyState
from repro.mem.page_table import PageTable

__all__ = [
    "AddressSpace",
    "ManagedRange",
    "VABlock",
    "ResidencyState",
    "PageTable",
    "vablock_of_page",
    "big_page_of_page",
    "page_span_of_vablock",
    "pages_of_big_page",
]
