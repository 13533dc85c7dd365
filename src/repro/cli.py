"""Command-line interface: ``uvmrepro``.

Subcommands:

* ``uvmrepro list`` - the eight paper workloads,
* ``uvmrepro run <workload>`` - one instrumented simulation with the
  driver-time breakdown and counters,
* ``uvmrepro exhibit <name>`` - regenerate one paper exhibit
  (fig1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 table1 table2),
* ``uvmrepro exhibit all`` - regenerate everything (the EXPERIMENTS.md
  data source),
* ``uvmrepro serve`` - run the asynchronous simulation job service
  (:mod:`repro.serve`): HTTP API, worker pool, result store,
* ``uvmrepro gateway`` - run the consistent-hash fleet gateway
  (:mod:`repro.fleet`) routing jobs across N service shards,
* ``uvmrepro submit / status / fetch / cancel`` - client verbs against a
  running service *or* gateway (same HTTP surface).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from repro.core.replay import ReplayPolicyKind
from repro.experiments.runner import ExperimentSetup, simulate
from repro.units import KiB, MiB, human_size
from repro.workloads.registry import make_workload, workload_names


def _positive_int(text: str) -> int:
    """argparse type: a strictly positive integer, with a clean error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _threshold_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if not 1 <= value <= 100:
        raise argparse.ArgumentTypeError(f"must be in 1..100, got {value}")
    return value


def _add_sim_args(
    parser: argparse.ArgumentParser, data_mib: int, gpu_mem_mib: int
) -> None:
    """The simulation knobs shared by run/compare/trace/submit."""
    parser.add_argument(
        "--data-mib", type=_positive_int, default=data_mib,
        help="managed data size (MiB)",
    )
    parser.add_argument(
        "--gpu-mem-mib", type=_positive_int, default=gpu_mem_mib,
        help="GPU memory (MiB)",
    )
    parser.add_argument(
        "--no-prefetch", action="store_true", help="disable the prefetcher"
    )
    parser.add_argument(
        "--threshold", type=_threshold_int, default=51,
        help="density threshold (1-100)",
    )
    parser.add_argument(
        "--policy",
        default="batch_flush",
        choices=[k.value for k in ReplayPolicyKind],
        help="fault replay policy",
    )
    parser.add_argument(
        "--batch-size", type=_positive_int, default=256, help="fault batch size"
    )
    parser.add_argument("--seed", type=int, default=0x5EED, help="simulation seed")
    parser.add_argument(
        "--vablock-kib",
        type=_non_negative_int,
        default=0,
        help="allocation granule in KiB (0 = the 2 MiB driver default; "
        "other values exercise the Section VI-B flexible-granularity path)",
    )


def _build_setup(args: argparse.Namespace) -> ExperimentSetup:
    from dataclasses import replace

    setup = ExperimentSetup(seed=args.seed).with_gpu(
        memory_bytes=args.gpu_mem_mib * MiB
    )
    setup = setup.with_driver(
        prefetch_enabled=not args.no_prefetch,
        density_threshold=args.threshold,
        replay_policy=ReplayPolicyKind(args.policy),
        batch_size=args.batch_size,
    )
    if args.vablock_kib:
        setup = replace(setup, vablock_bytes=args.vablock_kib * KiB)
    return setup


def _cmd_list(_args: argparse.Namespace) -> int:
    print("paper workloads (Table I order):")
    for name in workload_names():
        print(f"  {name}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    setup = _build_setup(args)
    workload = make_workload(args.workload, args.data_mib * MiB)
    if args.json:
        from repro.serve.results import result_to_doc

        result = simulate(workload, setup)
        doc = result_to_doc(
            result,
            extra={
                "workload": args.workload,
                "data_bytes": args.data_mib * MiB,
                "seed": args.seed,
            },
        )
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(f"running {workload.describe()} on a {human_size(setup.gpu.memory_bytes)} GPU ...")
    result = simulate(workload, setup)
    print()
    print(result.breakdown().render("driver time breakdown (paper Fig.3 categories)"))
    print()
    print(result.service_breakdown().render("service sub-breakdown (paper Fig.4)"))
    print()
    print("counters:")
    for name, value in result.counters:
        print(f"  {name:28s} {value}")
    print(f"\ntotal simulated time: {result.total_time_us:,.1f} us")
    print(f"bytes moved H2D/D2H: {human_size(result.dma.h2d_bytes)}/{human_size(result.dma.d2h_bytes)}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Capture an instrumented run's trace: npz + ASCII scatter + CSV."""
    from pathlib import Path

    from repro.experiments.fig7 import trace_workload
    from repro.trace.export import render_scatter, write_csv
    from repro.trace.io import save_trace
    from repro.trace.recorder import TraceRecorder
    from repro.core.driver import UvmDriver
    from repro.sim.rng import SimRng
    from repro.workloads.registry import make_workload

    setup = _build_setup(args)
    rng = SimRng(setup.seed)
    space = setup.make_space()
    workload = make_workload(args.workload, args.data_mib * MiB)
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

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = save_trace(
        result.trace,
        out / f"{args.workload}.npz",
        metadata={
            "workload": args.workload,
            "data_bytes": workload.required_bytes(),
            "gpu_bytes": setup.gpu.memory_bytes,
            "seed": setup.seed,
            "prefetch": setup.driver.prefetch_enabled,
            "total_time_ns": result.total_time_ns,
        },
    )
    from repro.trace.analysis import extract_access_pattern

    pattern = extract_access_pattern(result.trace, space)
    scatter = render_scatter(
        pattern.occurrence,
        pattern.page_index,
        title=f"{args.workload}: fault occurrence vs page index",
        hlines=pattern.range_boundaries[1:],
    )
    (out / f"{args.workload}.txt").write_text(scatter + "\n")
    write_csv(
        out / f"{args.workload}.csv",
        ("occurrence", "page_index"),
        zip(pattern.occurrence.tolist(), pattern.page_index.tolist()),
    )
    print(scatter)
    print(
        f"\ntrace: {trace_path}\nscatter: {out / (args.workload + '.txt')}\n"
        f"csv: {out / (args.workload + '.csv')}\n"
        f"faults recorded: {result.trace.n_faults} "
        f"(evictions: {result.trace.n_evictions})"
    )
    return 0


#: named configuration variants for `uvmrepro compare` - each returns a
#: transformed ExperimentSetup.
_VARIANTS: dict[str, Callable[[ExperimentSetup], ExperimentSetup]] = {
    "no-prefetch": lambda s: s.with_driver(prefetch_enabled=False),
    "threshold-1": lambda s: s.with_driver(density_threshold=1),
    "policy-block": lambda s: s.with_driver(replay_policy=ReplayPolicyKind.BLOCK),
    "policy-batch": lambda s: s.with_driver(replay_policy=ReplayPolicyKind.BATCH),
    "policy-once": lambda s: s.with_driver(replay_policy=ReplayPolicyKind.ONCE),
    "adaptive": lambda s: s.with_driver(adaptive_prefetch=True),
    "thrashing-mitigation": lambda s: s.with_driver(thrashing_mitigation=True),
    "origin-prefetch": lambda s: s.with_driver(prefetcher_kind="origin"),
    "access-counter-eviction": lambda s: s.with_gpu(
        track_access_counters=True
    ).with_driver(eviction_policy="access_counter"),
}


def _cmd_compare(args: argparse.Namespace) -> int:
    """A/B a workload between the stock setup and a named variant."""
    from repro.trace.compare import compare_runs
    from repro.workloads.registry import make_workload

    setup = _build_setup(args)
    try:
        variant = _VARIANTS[args.vs](setup)
    except KeyError:
        print(f"unknown variant {args.vs!r}; choose from {sorted(_VARIANTS)}")
        return 2
    base_run = simulate(make_workload(args.workload, args.data_mib * MiB), setup)
    variant_run = simulate(make_workload(args.workload, args.data_mib * MiB), variant)
    comparison = compare_runs(base_run, variant_run, "stock", args.vs)
    print(
        comparison.render(
            f"{args.workload} ({args.data_mib} MiB data, "
            f"{args.gpu_mem_mib} MiB GPU): stock vs {args.vs}"
        )
    )
    return 0


def _exhibits() -> dict[str, Callable[[], object]]:
    # imports deferred: each exhibit pulls in only what it needs.
    from repro.experiments.fig1 import run_fig1
    from repro.experiments.fig3 import run_fig3
    from repro.experiments.fig4 import run_fig4
    from repro.experiments.fig5 import run_policy_comparison
    from repro.experiments.fig6 import run_fig6
    from repro.experiments.fig7 import run_fig7
    from repro.experiments.fig8 import run_fig8
    from repro.experiments.fig9 import run_fig9
    from repro.experiments.fig10 import run_fig10
    from repro.experiments.table1 import run_table1
    from repro.experiments.table2 import run_table2

    return {
        "fig1": run_fig1,
        "fig3": run_fig3,
        "fig4": run_fig4,
        "fig5": run_policy_comparison,
        "fig6": run_fig6,
        "fig7": run_fig7,
        "fig8": run_fig8,
        "fig9": run_fig9,
        "fig10": run_fig10,
        "table1": run_table1,
        "table2": run_table2,
    }


def _export_csv(name: str, result, out_dir: str) -> None:
    """Dump an exhibit's structured data as CSV (best effort per shape)."""
    import dataclasses
    from pathlib import Path

    from repro.trace.export import write_csv

    out = Path(out_dir)
    rows = getattr(result, "rows", None)
    if rows:
        dicts = [dataclasses.asdict(r) for r in rows]
        headers = [k for k in dicts[0] if not isinstance(dicts[0][k], (list, dict))]
        write_csv(
            out / f"{name}.csv",
            headers,
            [tuple(d[h] for h in headers) for d in dicts],
        )
        print(f"  csv: {out / f'{name}.csv'}")
        return
    panels = getattr(result, "panels", None)
    if panels:
        for panel in panels:
            p = panel.pattern
            write_csv(
                out / f"{name}_{panel.workload}.csv",
                ("occurrence", "page_index"),
                zip(p.occurrence.tolist(), p.page_index.tolist()),
            )
        print(f"  csv: {out}/{name}_<workload>.csv")
        return
    steps = getattr(result, "steps", None)
    if steps:
        dicts = [dataclasses.asdict(s) for s in steps]
        write_csv(
            out / f"{name}.csv",
            list(dicts[0]),
            [tuple(d.values()) for d in dicts],
        )
        print(f"  csv: {out / f'{name}.csv'}")


def _cmd_exhibit(args: argparse.Namespace) -> int:
    exhibits = _exhibits()
    names = list(exhibits) if args.name == "all" else [args.name]
    unknown = [n for n in names if n not in exhibits]
    if unknown:
        print(f"unknown exhibit(s): {unknown}; choose from {list(exhibits)} or 'all'")
        return 2
    for name in names:
        print(f"=== {name} " + "=" * max(0, 66 - len(name)))
        result = exhibits[name]()
        print(result.render())
        if args.csv:
            _export_csv(name, result, args.csv)
        print()
    return 0


# -- service verbs ------------------------------------------------------------


def _probe_writable_dir(path: str, role: str) -> str | None:
    """Create-and-probe ``path``; an error string when unusable, else None.

    The service journals every transition under its directories, so an
    unwritable path must fail at startup with exit 2 - not as an opaque
    OSError from a worker or the journal mid-run.
    """
    import os
    import uuid

    try:
        os.makedirs(path, exist_ok=True)
        probe = os.path.join(path, f".probe-{uuid.uuid4().hex}")
        with open(probe, "w", encoding="utf-8") as handle:
            handle.write("probe")
        os.unlink(probe)
    except OSError as exc:
        return f"{role} directory {path!r} is not writable: {exc}"
    return None


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the asynchronous simulation job service until interrupted."""
    import os
    import signal
    import threading

    from repro.serve.http_api import serve_http
    from repro.serve.service import ServiceConfig, SimulationService

    journal_path = args.journal_path or os.path.join(
        args.store_dir, "journal.jsonl"
    )
    for path, role in (
        (args.store_dir, "result store"),
        (os.path.join(args.store_dir, "checkpoints"), "checkpoint"),
        (os.path.dirname(journal_path) or ".", "journal"),
    ):
        problem = _probe_writable_dir(path, role)
        if problem is not None:
            print(f"uvmrepro serve: error: {problem}", file=sys.stderr)
            return 2
    if args.chaos is not None:
        # arm fault injection for the workers (they re-read the env at
        # boot); validate the plan now so a typo fails at startup, not
        # in a worker three retries deep.
        from repro.chaos import ENV_VAR, plan_from_env

        os.environ[ENV_VAR] = args.chaos
        plan = plan_from_env()
        if plan is not None:
            print(f"chaos armed: {len(plan.faults)} fault(s), seed={plan.seed}")
    # register this shard's endpoint name (and arm any network-family
    # faults) so partition rules can name it on either side of a link.
    from repro.chaos import install_network_chaos

    install_network_chaos(local=args.shard_name or None)
    config = ServiceConfig(
        n_workers=args.workers,
        job_timeout_s=args.job_timeout,
        max_retries=args.max_retries,
        sweep_cache_dir=args.sweep_cache,
        checkpoint_every_phases=args.checkpoint_every,
        queue_high_watermark=args.queue_high_watermark,
        queue_low_watermark=args.queue_low_watermark,
        poison_threshold=args.poison_threshold,
        drain_timeout_s=args.drain_timeout,
        journal_path=args.journal_path,
        shard_name=args.shard_name,
    )
    service = SimulationService(args.store_dir, config).start()
    server = serve_http(service, args.host, args.port)
    announcer = None
    if args.announce:
        from repro.serve.service import JoinAnnouncer

        try:
            announcer = JoinAnnouncer(
                args.announce,
                shard_name=args.shard_name,
                advertise_url=args.advertise_url or server.url,
            ).start()
        except Exception as exc:  # announce is best-effort; serve anyway
            print(f"uvmrepro serve: error: {exc}", file=sys.stderr)
            service.drain()
            server.shutdown()
            return 2
    replayed = service.telemetry.counter("jobs.journal_replayed")
    if replayed:
        print(f"journal replayed: {replayed} job(s) recovered from {journal_path}")
    print(
        f"uvmrepro service on {server.url} "
        f"(workers={config.n_workers}, store={args.store_dir})"
    )
    print("endpoints: POST /jobs  GET /jobs/<id>[/result]  DELETE /jobs/<id>")
    print("           GET /metrics  GET /events?since=N  GET /healthz  GET /readyz")

    # SIGTERM = graceful drain (the k8s/systemd stop path): stop
    # admission, let running jobs settle, journal the rest, exit 0.
    stop = threading.Event()
    previous = signal.signal(signal.SIGTERM, lambda *_: stop.set())
    try:
        while not stop.wait(0.5):
            pass
        print("\ndraining (SIGTERM) ...")
    except KeyboardInterrupt:
        print("\ndraining (interrupt) ...")
    finally:
        signal.signal(signal.SIGTERM, previous)
        if announcer is not None:
            announcer.leave()  # tell the gateways before going dark
        server.shutdown()  # stop accepting connections first
        service.drain()  # then settle + journal + stop (idempotent)
    return 0


def _cmd_gateway(args: argparse.Namespace) -> int:
    """Run the fleet gateway in front of N running service shards."""
    import os
    import signal
    import threading

    from repro.errors import ConfigurationError
    from repro.fleet import (
        FleetGateway,
        GatewayConfig,
        load_fleet_config,
        serve_gateway_http,
    )

    dynamic = bool(args.follow or args.membership_journal)
    if args.shards and args.fleet_config:
        print(
            "uvmrepro gateway: error: give only one of --shards or "
            "--fleet-config",
            file=sys.stderr,
        )
        return 2
    if not (args.shards or args.fleet_config or dynamic):
        print(
            "uvmrepro gateway: error: give --shards or --fleet-config "
            "(or --follow / --membership-journal for dynamic membership)",
            file=sys.stderr,
        )
        return 2
    if args.membership_journal:
        problem = _probe_writable_dir(
            os.path.dirname(args.membership_journal) or ".",
            "membership journal",
        )
        if problem is not None:
            print(f"uvmrepro gateway: error: {problem}", file=sys.stderr)
            return 2
    if args.chaos is not None:
        from repro.chaos import ENV_VAR, plan_from_env

        os.environ[ENV_VAR] = args.chaos
        plan = plan_from_env()
        if plan is not None:
            print(f"chaos armed: {len(plan.faults)} fault(s), seed={plan.seed}")
    try:
        overrides = {
            "probation_probes": args.probation_probes,
            "allow_version_skew": args.allow_version_skew,
            "membership_journal": args.membership_journal,
            "follow": args.follow,
            "gateway_name": args.gateway_name,
            "lease_ttl_s": args.lease_ttl,
            "election_probes": args.election_probes,
            "epoch_reserve": args.epoch_reserve,
            "peers": tuple(args.peer or ()),
            "advertise_url": args.advertise_url,
        }
        if args.fleet_config:
            config = load_fleet_config(args.fleet_config)
            merged = config.to_dict()
            for key, value in overrides.items():
                if value not in (None, False) and value != ():
                    merged[key] = value
            config = GatewayConfig.from_dict(merged)
        else:
            config = GatewayConfig.from_shard_urls(
                args.shards or (),
                vnodes=args.vnodes,
                probe_interval_s=args.probe_interval,
                down_after_probes=args.down_after,
                recover_after_probes=args.recover_after,
                # None = flag not given: let the config default stand
                **{k: v for k, v in overrides.items() if v is not None},
            )
    except ConfigurationError as exc:
        print(f"uvmrepro gateway: error: {exc}", file=sys.stderr)
        return 2
    from repro.chaos import active_plan, install_network_chaos, set_active_plan

    set_active_plan(None, reset=True)  # pick up --chaos from env
    plan = active_plan()
    journal_hook = None
    if config.gateway_name and plan is not None:
        from repro.chaos.process import gateway_kill_hook

        journal_hook = gateway_kill_hook(plan, config.gateway_name)
    # register this gateway's endpoint name (and arm network faults);
    # the injector's partition schedule can key off the membership
    # journal's append count, so it rides the same hook chain.
    injector = install_network_chaos(local=config.gateway_name or None)
    if injector is not None:
        kill_hook = journal_hook

        def journal_hook(total_records: int) -> None:
            injector.note_append(total_records)
            if kill_hook is not None:
                kill_hook(total_records)

    gateway = FleetGateway(config, journal_hook=journal_hook).start()
    server = serve_gateway_http(gateway, args.host, args.port)
    states = gateway.shard_states()
    role = f"follower of {config.follow}" if config.follow else "primary"
    print(
        f"uvmrepro gateway on {server.url} "
        f"({len(states)} shard(s), vnodes={config.vnodes}, {role}, "
        f"epoch={gateway.membership.epoch})"
    )
    for member in sorted(gateway.membership.members(), key=lambda m: m.name):
        state = states.get(member.name, member.state.value)
        print(f"  {member.name:12s} {member.url}  [{state}]")
    print("endpoints: POST /jobs  GET /jobs/<id>[/result]  DELETE /jobs/<id>")
    print("           GET /metrics  GET /events?since=N  GET /healthz  GET /readyz")
    print("           POST /fleet/join  POST /fleet/leave  GET /fleet/view")
    print("           GET /fleet/elections")

    stop = threading.Event()
    previous = signal.signal(signal.SIGTERM, lambda *_: stop.set())
    try:
        while not stop.wait(0.5):
            pass
        print("\nstopping (SIGTERM) ...")
    except KeyboardInterrupt:
        print("\nstopping (interrupt) ...")
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.shutdown()
        gateway.stop()
    return 0


def _client(args: argparse.Namespace):
    from repro.serve.client import ServiceClient

    # --url accepts a comma-separated list of equivalent endpoints
    # (replicated gateways); the client fails over between them.
    endpoints = [u for u in (p.strip() for p in args.url.split(",")) if u]
    return ServiceClient(endpoints)


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve.client import ServiceClientError

    spec: dict = {
        "workload": args.workload,
        "data_bytes": args.data_mib * MiB,
        "seed": args.seed,
        "record_trace": args.record_trace,
        "priority": args.priority,
        "gpu": {"memory_bytes": args.gpu_mem_mib * MiB},
        "driver": {
            "prefetch_enabled": not args.no_prefetch,
            "density_threshold": args.threshold,
            "replay_policy": args.policy,
            "batch_size": args.batch_size,
        },
    }
    if args.vablock_kib:
        spec["vablock_bytes"] = args.vablock_kib * KiB
    client = _client(args)
    try:
        record = client.submit(spec)
        if args.wait and record["state"] not in (
            "done", "failed", "cancelled", "poisoned"
        ):
            record = client.wait(record["job_id"], timeout_s=args.timeout)
    except ServiceClientError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record, indent=2))
    return 0 if record["state"] in ("queued", "running", "done") else 1


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.serve.client import ServiceClientError

    client = _client(args)
    try:
        payload = client.metrics() if args.job_id is None else client.status(args.job_id)
    except ServiceClientError as exc:
        print(f"status failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    from repro.serve.client import ServiceClientError

    client = _client(args)
    try:
        doc = client.result(args.job_id)
    except ServiceClientError as exc:
        print(f"fetch failed: {exc}", file=sys.stderr)
        return 1
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(text + "\n")
        print(f"result written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    from repro.serve.client import ServiceClientError

    try:
        record = _client(args).cancel(args.job_id)
    except ServiceClientError as exc:
        print(f"cancel failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record, indent=2))
    return 0


def _changed_python_files(root: "Path") -> list["Path"]:
    """Tracked-modified plus untracked ``.py`` files, relative to ``root``."""
    import subprocess
    from pathlib import Path

    files: set[str] = set()
    for cmd in (
        ["git", "-C", str(root), "diff", "--name-only", "HEAD", "--"],
        ["git", "-C", str(root), "ls-files", "--others", "--exclude-standard"],
    ):
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            raise RuntimeError(
                f"git failed ({' '.join(cmd[3:])}): {proc.stderr.strip()}"
            )
        files.update(line.strip() for line in proc.stdout.splitlines())
    return sorted(
        root / f
        for f in files
        if f.endswith(".py")
        and (root / f).is_file()
        # mirror the default lint universe (src/repro): tests and the
        # planted-bug fixture trees are never linted by the full pass,
        # so a changed-files subset must not lint them either.
        and f.startswith("src/repro/")
    )


def _cmd_check(args: argparse.Namespace) -> int:
    """Run the repository lint pass against the committed baseline."""
    from pathlib import Path

    from repro.checks.baseline import (
        diff_against_baseline,
        load_baseline,
        save_baseline,
    )
    from repro.checks.flow_rules import default_flow_rules
    from repro.checks.linter import lint_paths
    from repro.checks.rules import default_rules

    if args.list_rules:
        for rule in default_rules():
            print(f"{rule.name:24s} {rule.description}")
        for rule in default_flow_rules():
            print(f"{rule.name:24s} [{rule.family}] {rule.description}")
        return 0

    root = (
        Path(args.root).resolve()
        if args.root
        else Path(__file__).resolve().parents[2]
    )
    baseline_path = (
        Path(args.baseline) if args.baseline else root / "checks_baseline.json"
    )
    path_args = list(args.paths) + list(args.extra_paths or [])
    if args.changed and path_args:
        print(
            "check: --changed and explicit paths are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    if args.changed:
        try:
            paths: list[Path] | None = _changed_python_files(root)
        except RuntimeError as exc:
            print(f"check: {exc}", file=sys.stderr)
            return 2
        if not paths:
            print(f"0 changed python file(s) under {root}; nothing to lint")
            return 0
    else:
        paths = [Path(p) for p in path_args] or None
    report = lint_paths(root, paths=paths, flow=args.flow, analyses=args.analysis)

    if args.update_baseline:
        counts = save_baseline(baseline_path, report.violations)
        print(
            f"baseline updated: {sum(counts.values())} violation(s) recorded "
            f"in {baseline_path}"
        )
        return 0

    diff = diff_against_baseline(report.violations, load_baseline(baseline_path))

    sarif_text: str | None = None
    if args.format == "sarif" or args.sarif_out:
        from repro.checks.sarif import render_sarif, rule_catalog

        catalog = rule_catalog(default_rules(), default_flow_rules())
        sarif_text = render_sarif(report, catalog)
    if args.sarif_out:
        Path(args.sarif_out).write_text(sarif_text, encoding="utf-8")

    status = 0
    if diff.new or report.parse_errors:
        status = 1
    if args.strict and (diff.stale or report.expired_waivers):
        status = max(status, 1)

    if args.format == "sarif":
        sys.stdout.write(sarif_text or "")
        return status

    for violation in diff.new:
        print(violation.render())
    for line in report.parse_errors:
        print(f"parse error: {line}")
    print(
        f"{len(diff.new)} new violation(s), {len(diff.baselined)} baselined, "
        f"{len(diff.stale)} stale baseline entr(ies) "
        f"across {report.files_checked} file(s)"
    )
    for line in report.expired_waivers:
        print(f"expired waiver: {line}")
    if report.expired_waivers and args.strict:
        print(
            "strict mode: expired waivers fail the check; fix the finding "
            "or renew the until= date"
        )
    if diff.stale:
        for key, count in diff.stale.items():
            print(f"stale baseline entry ({count}x): {key}")
        if args.strict:
            print("strict mode: stale baseline entries fail the check; "
                  "re-run with --update-baseline to trim them")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="uvmrepro",
        description=(
            "UVM demand-paging cost reproduction "
            "(Allen & Ge, IPDPS 2021) - simulator CLI"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the paper workloads").set_defaults(fn=_cmd_list)

    run_p = sub.add_parser("run", help="run one workload under the simulator")
    run_p.add_argument("workload", choices=workload_names())
    _add_sim_args(run_p, data_mib=32, gpu_mem_mib=256)
    run_p.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable result document (same schema as "
        "the service's result store) instead of the text report",
    )
    run_p.set_defaults(fn=_cmd_run)

    cmp_p = sub.add_parser(
        "compare", help="A/B a workload: stock driver vs a named variant"
    )
    cmp_p.add_argument("workload", choices=workload_names() + ["bfs"])
    cmp_p.add_argument("--vs", required=True, help=f"one of {sorted(_VARIANTS)}")
    _add_sim_args(cmp_p, data_mib=32, gpu_mem_mib=64)
    cmp_p.set_defaults(fn=_cmd_compare)

    trace_p = sub.add_parser(
        "trace", help="capture an instrumented run's fault trace to disk"
    )
    trace_p.add_argument("workload", choices=workload_names())
    trace_p.add_argument("--out", default="traces", help="output directory")
    _add_sim_args(trace_p, data_mib=16, gpu_mem_mib=128)
    trace_p.set_defaults(fn=_cmd_trace)

    serve_p = sub.add_parser(
        "serve", help="run the asynchronous simulation job service"
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=_non_negative_int, default=8344)
    serve_p.add_argument(
        "--workers", type=_positive_int, default=2, help="simulator worker processes"
    )
    serve_p.add_argument(
        "--store-dir", default="serve-results", help="result store directory"
    )
    serve_p.add_argument(
        "--job-timeout", type=float, default=300.0, help="per-attempt timeout (s)"
    )
    serve_p.add_argument(
        "--max-retries", type=_non_negative_int, default=2,
        help="retries after worker death/timeout",
    )
    serve_p.add_argument(
        "--sweep-cache",
        default=None,
        help="run_sweep-compatible memo cache dir ('' disables; default: "
        "the sweep executor's resolution incl. REPRO_SWEEP_CACHE)",
    )
    serve_p.add_argument(
        "--checkpoint-every",
        type=_non_negative_int,
        default=256,
        help="simulation phases between worker checkpoints (0 disables)",
    )
    serve_p.add_argument(
        "--chaos",
        default=None,
        metavar="PLAN",
        help="fault-injection plan: JSON file path or inline JSON "
        "(sets UVMREPRO_CHAOS for the worker pool; see docs/robustness.md)",
    )
    serve_p.add_argument(
        "--queue-high-watermark",
        type=_positive_int,
        default=512,
        help="queued depth at which submissions are shed with HTTP 429",
    )
    serve_p.add_argument(
        "--queue-low-watermark",
        type=_non_negative_int,
        default=384,
        help="queued depth at which shedding stops again (hysteresis)",
    )
    serve_p.add_argument(
        "--poison-threshold",
        type=_non_negative_int,
        default=3,
        help="worker deaths on one spec key before it is quarantined "
        "as poisoned (0 disables the breaker)",
    )
    serve_p.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds a SIGTERM drain waits for running jobs to finish",
    )
    serve_p.add_argument(
        "--journal-path",
        default=None,
        help="write-ahead job journal file (default: <store-dir>/journal.jsonl)",
    )
    serve_p.add_argument(
        "--shard-name",
        default=None,
        help="this instance's fleet shard name (surfaced in /healthz and "
        "targeted by the process.shard_kill chaos point)",
    )
    serve_p.add_argument(
        "--announce",
        nargs="+",
        default=None,
        metavar="GATEWAY_URL",
        help="gateway base URL(s) to announce this shard to via "
        "POST /fleet/join (requires --shard-name); re-announces "
        "periodically and sends /fleet/leave on graceful drain",
    )
    serve_p.add_argument(
        "--advertise-url",
        default=None,
        help="base URL gateways should reach this shard at "
        "(default: the bound listen address)",
    )
    serve_p.set_defaults(fn=_cmd_serve)

    gw_p = sub.add_parser(
        "gateway",
        help="run the consistent-hash fleet gateway over N service shards",
    )
    gw_p.add_argument("--host", default="127.0.0.1")
    gw_p.add_argument("--port", type=_non_negative_int, default=8343)
    gw_p.add_argument(
        "--shards",
        nargs="+",
        default=None,
        metavar="URL",
        help="shard base URLs in ring order (auto-named shard0..shardN-1)",
    )
    gw_p.add_argument(
        "--fleet-config",
        default=None,
        metavar="JSON",
        help="fleet config: JSON file path or inline JSON "
        "(named shards + tunables; see docs/fleet.md)",
    )
    gw_p.add_argument(
        "--vnodes", type=_positive_int, default=64,
        help="virtual nodes per shard on the hash ring",
    )
    gw_p.add_argument(
        "--probe-interval", type=float, default=1.0,
        help="seconds between shard health-probe sweeps",
    )
    gw_p.add_argument(
        "--down-after", type=_positive_int, default=3,
        help="consecutive failed probes before a shard is quarantined",
    )
    gw_p.add_argument(
        "--recover-after", type=_positive_int, default=2,
        help="consecutive ready probes a quarantined shard needs to rejoin",
    )
    gw_p.add_argument(
        "--membership-journal",
        default=None,
        metavar="PATH",
        help="fsync'd membership journal file; a restarted gateway "
        "replays the fleet from it (enables elastic membership with "
        "no static shard list)",
    )
    gw_p.add_argument(
        "--probation-probes",
        type=_positive_int,
        default=2,
        help="consecutive healthy /readyz probes a /fleet/join "
        "candidate needs before its arc is migrated over",
    )
    gw_p.add_argument(
        "--allow-version-skew",
        action="store_true",
        help="admit joiners whose code_version differs from the fleet "
        "(results will not be cache-compatible)",
    )
    gw_p.add_argument(
        "--follow",
        default=None,
        metavar="PRIMARY_URL",
        help="run as a replica: tail the primary gateway's membership "
        "view via GET /fleet/view (joins/leaves answer 503 with a "
        "primary hint)",
    )
    gw_p.add_argument(
        "--gateway-name",
        default=None,
        help="this instance's name (surfaced in /healthz and targeted "
        "by the process.gateway_kill and network.* chaos points)",
    )
    gw_p.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="primary-lease TTL stamped into every published view; a "
        "follower past it (plus --election-probes failed polls) "
        "promotes itself (default 5.0)",
    )
    gw_p.add_argument(
        "--election-probes",
        type=_positive_int,
        default=None,
        metavar="N",
        help="consecutive failed view polls, after lease expiry, "
        "before a follower promotes (default 3)",
    )
    gw_p.add_argument(
        "--epoch-reserve",
        type=_positive_int,
        default=None,
        metavar="N",
        help="epochs a follower poll reserves above the current one; "
        "a promotion jumps past this bound (default 1024)",
    )
    gw_p.add_argument(
        "--peer",
        action="append",
        default=None,
        metavar="URL",
        help="another gateway of this fleet (repeatable); a primary "
        "polls peers to discover a higher-epoch successor and demote",
    )
    gw_p.add_argument(
        "--advertise-url",
        default=None,
        metavar="URL",
        help="base URL other gateways should reach this one at "
        "(stamped into the lease; defaults to the bound address)",
    )
    gw_p.add_argument(
        "--chaos",
        default=None,
        metavar="PLAN",
        help="fault-injection plan: JSON file path or inline JSON "
        "(sets UVMREPRO_CHAOS; process.gateway_kill needs --gateway-name)",
    )
    gw_p.set_defaults(fn=_cmd_gateway)

    url_kw = {
        "default": "http://127.0.0.1:8344",
        "help": "service base URL (comma-separate several equivalent "
        "gateways for client-side failover)",
    }
    submit_p = sub.add_parser("submit", help="submit a job to a running service")
    submit_p.add_argument("workload", choices=workload_names())
    _add_sim_args(submit_p, data_mib=32, gpu_mem_mib=256)
    submit_p.add_argument("--url", **url_kw)
    submit_p.add_argument("--priority", type=int, default=0, help="smaller runs first")
    submit_p.add_argument(
        "--record-trace", action="store_true", help="persist the fault trace payload"
    )
    submit_p.add_argument("--wait", action="store_true", help="block until terminal")
    submit_p.add_argument(
        "--timeout", type=float, default=600.0, help="--wait budget (s)"
    )
    submit_p.set_defaults(fn=_cmd_submit)

    status_p = sub.add_parser(
        "status", help="job status (or service metrics without a job id)"
    )
    status_p.add_argument("job_id", nargs="?", default=None)
    status_p.add_argument("--url", **url_kw)
    status_p.set_defaults(fn=_cmd_status)

    fetch_p = sub.add_parser("fetch", help="fetch a finished job's result document")
    fetch_p.add_argument("job_id")
    fetch_p.add_argument("--url", **url_kw)
    fetch_p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    fetch_p.set_defaults(fn=_cmd_fetch)

    cancel_p = sub.add_parser("cancel", help="cancel a queued/running job")
    cancel_p.add_argument("job_id")
    cancel_p.add_argument("--url", **url_kw)
    cancel_p.set_defaults(fn=_cmd_cancel)

    check_p = sub.add_parser(
        "check",
        help="run the static-analysis pass: lint rules + flow analyses",
    )
    check_p.add_argument(
        "paths", nargs="*", default=[],
        help="files/directories to lint (default: src/repro under the repo root)",
    )
    check_p.add_argument(
        "--paths", dest="extra_paths", nargs="+", default=None, metavar="PATH",
        help="additional files/directories to lint (same as the positionals)",
    )
    check_p.add_argument(
        "--changed", action="store_true",
        help="lint only git-changed python files (tracked modifications "
        "plus untracked); mutually exclusive with explicit paths",
    )
    check_p.add_argument(
        "--flow", action=argparse.BooleanOptionalAction, default=True,
        help="run the interprocedural flow analyses (default: on; "
        "--no-flow for the per-statement rules only)",
    )
    check_p.add_argument(
        "--analysis", action="append", default=None,
        choices=["determinism", "concurrency", "protocol", "units"],
        help="restrict flow analyses to one family (repeatable)",
    )
    check_p.add_argument(
        "--format", choices=["text", "sarif"], default="text",
        help="report format on stdout (default: text)",
    )
    check_p.add_argument(
        "--sarif-out", default=None, metavar="PATH",
        help="also write the SARIF log to PATH (independent of --format)",
    )
    check_p.add_argument(
        "--root", default=None,
        help="repository root anchoring relative paths and rule scopes "
        "(default: autodetected from the installed package location)",
    )
    check_p.add_argument(
        "--baseline", default=None,
        help="baseline file (default: <root>/checks_baseline.json)",
    )
    check_p.add_argument(
        "--strict", action="store_true",
        help="also fail on stale baseline entries and expired waivers",
    )
    check_p.add_argument(
        "--update-baseline", action="store_true",
        help="record the current violations as the new baseline and exit 0",
    )
    check_p.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    check_p.set_defaults(fn=_cmd_check)

    ex_p = sub.add_parser("exhibit", help="regenerate a paper table/figure")
    ex_p.add_argument("name", help="fig1..fig10, table1, table2, or 'all'")
    ex_p.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also export the exhibit's rows as CSV files into DIR",
    )
    ex_p.set_defaults(fn=_cmd_exhibit)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
