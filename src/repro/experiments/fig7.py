"""Fig. 7 - application access patterns as the driver perceives them.

With prefetching disabled, every page's first touch produces a fault, so
the (fault occurrence, page index) scatter *is* the application's page
access pattern from the driver's perspective.  "The page index is the
virtual memory page corresponding to the fault address, adjusted so that
there are no gaps in the virtual memory space.  Fault occurrence is the
relative order that pages were processed by the driver."

Published structure asserted by the tests:

* **regular**: ascending band with scheduler jitter, no fixed order,
* **random**: uniform scatter,
* **stream**: three interleaved ascending bands (page dependency),
* **sgemm**: banded with heavy revisiting of A/B (reuse invisible here),
* **hpgmg/cusparse**: sequential portions plus random-like segments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.experiments.common import sized
from repro.experiments.runner import ExperimentSetup, simulate
from repro.mem.address_space import AddressSpace
from repro.sim.rng import SimRng
from repro.trace.analysis import AccessPattern, extract_access_pattern
from repro.trace.export import render_scatter
from repro.trace.recorder import TraceRecorder
from repro.core.driver import UvmDriver
from repro.units import MiB
from repro.workloads.registry import make_workload

DEFAULT_WORKLOADS: tuple[str, ...] = (
    "regular",
    "random",
    "sgemm",
    "stream",
    "cufft",
    "tealeaf",
    "hpgmg",
    "cusparse",
)


@dataclass
class Fig7Panel:
    workload: str
    pattern: AccessPattern

    def render(self, width: int = 78, height: int = 18) -> str:
        return render_scatter(
            self.pattern.occurrence,
            self.pattern.page_index,
            width=width,
            height=height,
            title=f"Fig.7 [{self.workload}] - fault occurrence vs page index (prefetch off)",
            hlines=self.pattern.range_boundaries[1:],
        )


@dataclass
class Fig7Result:
    panels: list[Fig7Panel] = field(default_factory=list)

    def panel(self, workload: str) -> Fig7Panel:
        for p in self.panels:
            if p.workload == workload:
                return p
        raise KeyError(workload)

    def render(self) -> str:
        return "\n\n".join(p.render() for p in self.panels)


def trace_workload(
    name: str,
    setup: ExperimentSetup,
    data_bytes: int,
) -> Fig7Panel:
    """Run one workload with tracing and extract its access pattern."""
    rng = SimRng(setup.seed)
    space = AddressSpace()
    workload = make_workload(name, data_bytes)
    build = workload.build(space, rng.fork("workload"))
    recorder = TraceRecorder()
    driver = UvmDriver(
        space=space,
        streams=build.streams,
        phases=build.phases,
        driver_config=setup.driver,
        gpu_config=setup.gpu,
        cost=setup.cost,
        rng=rng,
        recorder=recorder,
    )
    result = driver.run()
    pattern = extract_access_pattern(result.trace, space)
    return Fig7Panel(workload=name, pattern=pattern)


def run_fig7(
    setup: Optional[ExperimentSetup] = None,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    data_fraction: float = 0.125,
) -> Fig7Result:
    """Trace every workload undersubscribed with prefetching disabled."""
    setup = setup or ExperimentSetup()
    setup = setup.with_driver(prefetch_enabled=False)
    data_bytes = sized(setup, data_fraction)
    result = Fig7Result()
    for name in workloads:
        result.panels.append(trace_workload(name, setup, data_bytes))
    return result
