"""Fig. 5 - the Fig. 3 experiment under the Batch (no-flush) policy.

"The primary difference between this policy and the default is that the
fault buffer is no longer emptied after each batch, meaning that the
policy cost now only accounts for the act of issuing a replay."

Published observations asserted by the tests, comparing to Fig. 3:

* the replay-policy cost is severely diminished (no flush charges),
* pre-processing cost is greatly increased - replays with outstanding
  faults re-raise entries that are still queued, so the driver reads and
  filters duplicate faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.replay import ReplayPolicyKind
from repro.experiments.fig3 import DEFAULT_SIZES, Fig3Result, run_breakdown_sweep
from repro.experiments.runner import ExperimentSetup
from repro.workloads.synthetic import RegularAccess


@dataclass
class PolicyComparison:
    """Fig. 3 vs Fig. 5 at matching sizes (the paper's side-by-side)."""

    batch_flush: Fig3Result
    batch: Fig3Result

    def render(self) -> str:
        parts = [
            self.batch_flush.render("Fig.3 - default (batch-flush) policy"),
            "",
            self.batch.render("Fig.5 - batch policy"),
        ]
        return "\n".join(parts)


def run_policy_comparison(
    setup: Optional[ExperimentSetup] = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
) -> PolicyComparison:
    """Run both policies on the regular pattern for direct comparison."""
    flush = run_breakdown_sweep(
        setup, sizes, ReplayPolicyKind.BATCH_FLUSH, patterns=(RegularAccess,)
    )
    batch = run_breakdown_sweep(
        setup, sizes, ReplayPolicyKind.BATCH, patterns=(RegularAccess,)
    )
    return PolicyComparison(batch_flush=flush, batch=batch)
