"""Hierarchical timing and counter accumulators.

The paper's core methodology is *instrumenting the driver* and attributing
time to categories: pre/post-processing, fault servicing (with
sub-categories Map Pages, Migrate Pages, PMA Alloc Pages), and replay
policy (Figs. 3-5, 9).  :class:`CategoryTimer` reproduces that
instrumentation: driver code brackets work with ``timer.charge(path, ns)``
and analysis code reads hierarchical breakdowns back out.

Category paths are dotted strings, e.g. ``"service.migrate"``; charging a
leaf automatically aggregates into every ancestor when summarized.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.errors import TraceError
from repro.units import ns_to_us


class CategoryTimer:
    """Accumulates simulated nanoseconds into dotted category paths."""

    def __init__(self) -> None:
        self._ns: dict[str, int] = defaultdict(int)
        self._counts: dict[str, int] = defaultdict(int)

    def charge(self, path: str, duration_ns: int, count: int = 1) -> int:
        """Attribute ``duration_ns`` to ``path``; returns the duration.

        ``count`` records how many operations the charge covers (e.g. one
        ``charge("service.map", t, count=n_pages)``).
        """
        if not path:
            raise TraceError("category path must be non-empty")
        duration_ns = round(duration_ns)
        if duration_ns < 0:
            raise TraceError(f"negative charge {duration_ns}ns to {path!r}")
        self._ns[path] += duration_ns
        self._counts[path] += count
        return duration_ns

    def leaf_ns(self, path: str) -> int:
        """Nanoseconds charged directly to ``path`` (no descendants)."""
        return self._ns.get(path, 0)

    def total_ns(self, prefix: str = "") -> int:
        """Nanoseconds charged to ``prefix`` and all its descendants."""
        if not prefix:
            return sum(self._ns.values())
        dot = prefix + "."
        return sum(v for k, v in self._ns.items() if k == prefix or k.startswith(dot))

    def count(self, prefix: str = "") -> int:
        """Operation count for ``prefix`` and descendants."""
        if not prefix:
            return sum(self._counts.values())
        dot = prefix + "."
        return sum(v for k, v in self._counts.items() if k == prefix or k.startswith(dot))

    def paths(self) -> list[str]:
        """All leaf paths that received charges, sorted."""
        return sorted(self._ns)

    def as_dict(self) -> dict[str, int]:
        """Copy of the raw leaf charges."""
        return dict(self._ns)

    def counts_as_dict(self) -> dict[str, int]:
        """Copy of the raw leaf operation counts."""
        return {k: int(v) for k, v in self._counts.items()}

    def merge(self, other: "CategoryTimer") -> None:
        """Fold another timer's charges into this one."""
        for k, v in other._ns.items():
            self._ns[k] += v
        for k, v in other._counts.items():
            self._counts[k] += v

    def breakdown(self, roots: tuple[str, ...]) -> "TimeBreakdown":
        """Summarize into the paper's top-level categories."""
        rows = {root: self.total_ns(root) for root in roots}
        other = self.total_ns() - sum(rows.values())
        return TimeBreakdown(rows=rows, other_ns=max(other, 0))


#: The paper's top-level driver categories (Fig. 3).
PAPER_CATEGORIES: tuple[str, ...] = ("preprocess", "service", "replay_policy")

#: The paper's service sub-categories (Fig. 4).
SERVICE_SUBCATEGORIES: tuple[str, ...] = (
    "service.pma_alloc",
    "service.migrate",
    "service.map",
)


@dataclass
class TimeBreakdown:
    """A rendered breakdown: category -> simulated ns, plus a remainder."""

    rows: dict[str, int]
    other_ns: int = 0

    @property
    def total_ns(self) -> int:
        return sum(self.rows.values()) + self.other_ns

    def fraction(self, category: str) -> float:
        """Share of the total attributed to ``category`` (0 when empty)."""
        total = self.total_ns
        if total == 0:
            return 0.0
        return self.rows.get(category, 0) / total

    def render(self, title: str = "driver time breakdown") -> str:
        """ASCII table in microseconds, mirroring the paper's stacked bars."""
        lines = [title]
        width = max([len(k) for k in self.rows] + [len("other"), len("total")])
        for name, t_ns in sorted(self.rows.items(), key=lambda kv: -kv[1]):
            lines.append(
                f"  {name:<{width}}  {ns_to_us(t_ns):>12.1f} us  ({self.fraction(name) * 100:5.1f}%)"
            )
        if self.other_ns:
            lines.append(
                f"  {'other':<{width}}  {ns_to_us(self.other_ns):>12.1f} us"
            )
        lines.append(f"  {'total':<{width}}  {ns_to_us(self.total_ns):>12.1f} us")
        return "\n".join(lines)


def percentile(sorted_values: "list[float]", q: float) -> float:
    """Linear-interpolated percentile of an ascending-sorted sample.

    ``q`` is in percent (``50`` = median).  Empty input returns 0.0 so
    metric endpoints never have to special-case a cold service.
    """
    if not sorted_values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise TraceError(f"percentile q={q} outside 0..100")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    pos = (q / 100.0) * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return float(sorted_values[lo]) * (1.0 - frac) + float(sorted_values[hi]) * frac


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics over a latency sample (nanoseconds).

    The service's ``/metrics`` endpoint reports job latency through this
    summary; it lives here next to the other accumulators so offline
    analysis and the service share one definition of p50/p95.
    """

    n: int
    mean_ns: float
    p50_ns: float
    p95_ns: float
    max_ns: float

    @classmethod
    def from_samples(cls, samples: "Iterable[float]") -> "LatencyStats":
        values = sorted(float(v) for v in samples)
        if not values:
            return cls(n=0, mean_ns=0.0, p50_ns=0.0, p95_ns=0.0, max_ns=0.0)
        return cls(
            n=len(values),
            mean_ns=sum(values) / len(values),
            p50_ns=percentile(values, 50),
            p95_ns=percentile(values, 95),
            max_ns=values[-1],
        )

    def as_dict(self) -> dict[str, float]:
        """JSON-safe view in microseconds (the repo's display unit)."""
        return {
            "n": self.n,
            "mean_us": ns_to_us(self.mean_ns),
            "p50_us": ns_to_us(self.p50_ns),
            "p95_us": ns_to_us(self.p95_ns),
            "max_us": ns_to_us(self.max_ns),
        }


class CounterSet:
    """Named integer counters (faults, pages migrated, evictions, ...)."""

    def __init__(self) -> None:
        self._counts: dict[str, int] = defaultdict(int)

    def add(self, name: str, value: int = 1) -> int:
        if not name:
            raise TraceError("counter name must be non-empty")
        self._counts[name] += int(value)
        return self._counts[name]

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def __getitem__(self, name: str) -> int:
        return self.get(name)

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(sorted(self._counts.items()))

    def as_dict(self) -> dict[str, int]:
        return dict(self._counts)

    def merge(self, other: "CounterSet") -> None:
        for k, v in other._counts.items():
            self._counts[k] += v

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self)
        return f"CounterSet({inner})"
