"""Shared helpers for the per-exhibit experiment modules.

Experiments size workloads *relative to simulated GPU memory* so the
paper's under/over-subscription regimes are preserved on the scaled
device, and they all report times in microseconds (the paper's unit).
"""

from __future__ import annotations

from repro.experiments.runner import ExperimentSetup
from repro.units import MiB, ns_to_us


def sized(setup: ExperimentSetup, fraction: float) -> int:
    """Bytes equal to ``fraction`` of the setup's GPU memory."""
    return int(setup.gpu.memory_bytes * fraction)


def default_small_gpu() -> ExperimentSetup:
    """A 64 MiB device: the workhorse for oversubscription sweeps.

    Oversubscribed runs move data proportional to (oversubscription x
    capacity x thrash factor); a small capacity keeps sweeps fast while
    ratios - the quantities the paper's claims are about - are unchanged.
    """
    return ExperimentSetup().with_gpu(memory_bytes=64 * MiB)


def gemm_wave_setup(memory_mib: int = 64) -> ExperimentSetup:
    """Occupancy-limited setup for the SGEMM experiments.

    Real cuBLAS GEMM runs a couple of blocks per SM, so the grid executes
    in *waves*; later waves re-fault data evicted during earlier ones -
    the mechanism behind Table II's eviction scaling.  160 resident
    blocks approximates 2 per SM on the 80-SM device.
    """
    return ExperimentSetup().with_gpu(
        memory_bytes=memory_mib * MiB,
        max_active_streams=160,
        phase_width=128,
    )


def us(t_ns: int | float) -> float:
    """ns -> us (so experiment code reads like the paper)."""
    return ns_to_us(t_ns)
