"""Layer profile: where one ``simulate()`` spends its wall time.

Runs one simulation per workload under ``perfbench``'s layer tracer
(``perfbench/layers.py``, imported as is) and prints every layer's self
time and call count.  The self times of all layers, the root
``core.driver.other`` included, add up to the traced wall time, so the
table is a complete split of it.  Beyond the tracer's own layers, the
fault servicer's batch write (``FaultServicer.write_batch``, the one
numpy write of each fault batch's state) is traced as the layer
``core.service.write_batch``, and the gather that opens a batch
(``BatchView.add``) as ``core.service.gather``; without them that time
would be booked under ``core.driver.other``.  A checkout without a
batch view simply has no such layers.

Workloads (``--workloads``, default ``reference smoke service-smoke``):

* ``reference`` - sgemm at 384 MiB under ``ExperimentSetup()`` (256 MiB
  GPU), the ROADMAP reference run;
* ``random-384m`` - random at 384 MiB on the same GPU, the evicting run;
* ``smoke`` and ``service-smoke`` - the 96 MiB runs on a 64 MiB GPU that
  ``tests/integration/test_perf_smoke.py`` budgets (sgemm and random).

Each workload runs ``--repeat`` times (default 1), every run in a fresh
interpreter; the printed figures are per-layer medians.  Times are host
seconds as measured, next to the host speed that ``perfbench``'s
calibration reads (1.0 = the reference host), and each run's peak
resident set (``ru_maxrss`` of its interpreter, build included).  ``--src`` profiles
another checkout's ``src/`` tree, for a before/after split, and
``--record NAME`` stores the medians under ``layers.NAME`` in
``BENCH_phase_engine.json``.

Usage::

    python benchmarks/profile_layers.py
    python benchmarks/profile_layers.py --workloads random-384m --repeat 3 \\
        --src /path/to/other/checkout/src --record before
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
BENCH_JSON = ROOT / "BENCH_phase_engine.json"

#: name -> (workload, data MiB, GPU MiB or None for the default setup)
WORKLOADS = {
    "reference": ("sgemm", 384, None),
    "random-384m": ("random", 384, None),
    "smoke": ("sgemm", 96, 64),
    "service-smoke": ("random", 96, 64),
}
#: the extra traced entry points: (layer, module, class, attribute).
EXTRA_LAYERS = (
    ("core.service.write_batch", "repro.core.service", "FaultServicer", "write_batch"),
    ("core.service.gather", "repro.core.service", "BatchView", "add"),
)


def _child(name: str) -> None:
    """Run one traced simulation and print its JSON line."""
    import importlib
    import resource

    from common import CAL_REF_S, calibrate
    from layers import LayerTracer

    from repro.experiments.runner import ExperimentSetup, simulate
    from repro.units import MiB
    from repro.workloads.registry import make_workload

    workload_name, data_mib, gpu_mib = WORKLOADS[name]
    setup = ExperimentSetup()
    if gpu_mib is not None:
        setup = setup.with_gpu(memory_bytes=gpu_mib * MiB)
    workload = make_workload(workload_name, data_mib * MiB)
    cal = [calibrate()]
    tracer = LayerTracer().install()
    for layer, module, owner, attr in EXTRA_LAYERS:
        owner = getattr(importlib.import_module(module), owner, None)
        if owner is not None and attr in owner.__dict__:
            tracer._patch(owner, attr, layer)
    start = time.perf_counter()
    try:
        result = tracer.root(simulate, workload, setup)
    finally:
        tracer.uninstall()
    wall_s = time.perf_counter() - start
    cal.append(calibrate())
    print(json.dumps({
        "wall_s": wall_s,
        "host_speed": CAL_REF_S * len(cal) / sum(cal),
        "total_time_ns": result.total_time_ns,
        "faults_read": result.faults_read,
        "evictions": result.evictions,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": {k: [tracer.self_ns[k], tracer.calls[k]] for k in tracer.self_ns},
    }))


def _run(name: str, src: Path) -> dict:
    # no sanitizer, chaos plan or sweep memo: they change what is timed
    env = {k: v for k, v in os.environ.items() if not k.startswith(("UVMREPRO_", "REPRO_"))}
    env["PYTHONPATH"] = f"{src}:{PERFBENCH}"
    out = subprocess.run(
        [sys.executable, __file__, "--child", name],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def profile(name: str, src: Path, repeat: int) -> dict:
    """Per-layer medians of ``repeat`` traced runs of workload ``name``."""
    runs = [_run(name, src) for _ in range(repeat)]
    results = {(r["total_time_ns"], r["faults_read"], r["evictions"]) for r in runs}
    if len(results) != 1:
        raise SystemExit(f"{name}: simulated results differ between runs: {results}")
    layers = sorted({layer for r in runs for layer in r["layers"]})
    return {
        "runs": repeat,
        "simulated": dict(zip(("total_time_ns", "faults_read", "evictions"), results.pop())),
        "wall_s": round(median(r["wall_s"] for r in runs), 3),
        "host_speed": round(median(r["host_speed"] for r in runs), 3),
        "peak_rss_mb": round(median(r["peak_rss_mb"] for r in runs), 1),
        "layers": {
            layer: {
                "self_s": round(median(r["layers"].get(layer, (0, 0))[0] for r in runs) / 1e9, 3),
                "calls": median(r["layers"].get(layer, (0, 0))[1] for r in runs),
            }
            for layer in layers
        },
    }


def render(name: str, prof: dict) -> str:
    lines = [
        f"{name}: traced wall {prof['wall_s']:.3f} s (median of {prof['runs']}), "
        f"host speed {prof['host_speed']:.2f}x reference, "
        f"peak RSS {prof['peak_rss_mb']:.1f} MB"
    ]
    rows = sorted(prof["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    for layer, row in rows:
        share = row["self_s"] / prof["wall_s"] if prof["wall_s"] else 0.0
        lines.append(
            f"  {layer:<30} {row['self_s']:8.3f} s {share:6.1%} {int(row['calls']):>9} calls"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument(
        "--workloads", nargs="+", choices=sorted(WORKLOADS),
        default=["reference", "smoke", "service-smoke"],
    )
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--record", help="store the medians under layers.RECORD")
    args = parser.parse_args(argv)
    if args.child:
        _child(args.child)
        return 0
    profiles = {}
    for name in args.workloads:
        profiles[name] = profile(name, args.src.resolve(), args.repeat)
        print(render(name, profiles[name]), flush=True)
    if args.record:
        record(args.record, profiles)
    return 0


def record(name: str, profiles: dict) -> None:
    """Store ``profiles`` as ``layers.<name>`` in the bench JSON.

    ``layers`` is kept as the file's last key and only its text is
    rewritten, so the hand-formatted rounds above it stay as they are.
    """
    text = BENCH_JSON.read_text()
    layers = json.loads(text).get("layers", {})
    layers[name] = profiles
    head, found, _ = text.rpartition('\n  "layers": ')
    if not found:
        head = text.rstrip().removesuffix("}").rstrip() + ","
    body = json.dumps(layers, indent=2).replace("\n", "\n  ")
    BENCH_JSON.write_text(f'{head}\n  "layers": {body}\n}}\n')


if __name__ == "__main__":
    sys.exit(main())
