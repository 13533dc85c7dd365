"""Simulation substrate: clock, checkpoints, cost model, stats.

This subpackage is deliberately independent of UVM semantics: it provides
the simulated clock, periodic simulation checkpoints, seeded randomness,
the calibrated :class:`~repro.sim.costmodel.CostModel`, and hierarchical
category timers used to reproduce the paper's driver-time breakdowns.
"""

from repro.sim.clock import SimClock
from repro.sim.costmodel import CostModel
from repro.sim.rng import SimRng
from repro.sim.stats import CategoryTimer, CounterSet, TimeBreakdown

__all__ = [
    "SimClock",
    "CostModel",
    "SimRng",
    "CategoryTimer",
    "CounterSet",
    "TimeBreakdown",
]
