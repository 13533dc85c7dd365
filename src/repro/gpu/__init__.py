"""GPU-side models: fault generation, fault buffer, scheduler, DMA.

The paper's driver analysis treats the GPU as the *producer* of a page
fault stream with specific characteristics: faults arrive in parallel
from many SMs through per-GPC uTLBs, are serialized into a circular
hardware fault buffer, carry only the faulting address (origin erasure,
Section IV-A), and stalled warps resume only on replay notifications
(Section III-E).  This subpackage reproduces exactly that producer.
"""

from repro.gpu.fault_buffer import FaultBuffer, FaultEntry
from repro.gpu.warp import StreamSet, StreamSetBuilder
from repro.gpu.tlb import UTlbArray
from repro.gpu.dma import DmaEngine
from repro.gpu.device import GpuDevice, GpuDeviceConfig

__all__ = [
    "FaultBuffer",
    "FaultEntry",
    "StreamSet",
    "StreamSetBuilder",
    "UTlbArray",
    "DmaEngine",
    "GpuDevice",
    "GpuDeviceConfig",
]
