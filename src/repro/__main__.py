"""Command-line interface: regenerate paper artifacts from the shell.

Usage::

    python -m repro run --list            # registered artifacts
    python -m repro run fig4 table2       # any artifacts, cached
    python -m repro run --all --parallel 4
    python -m repro broker --ranks 1000   # ranked placement plans
    python -m repro broker --elastic      # re-brokering under spot reclaims
    python -m repro script --platform ec2 # provisioning shell script
    python -m repro trace --out traces/  # observed RD run + exports
    python -m repro tail traces/         # follow a sweep's telemetry stream
    python -m repro health traces/       # wait-state report of a finished run
    python -m repro serve --port 8642    # broker-as-a-service (HTTP + stream)
    python -m repro submit fig4 --wait   # run through a service, coalesced
    python -m repro status --url ...     # jobs on a running service

``run`` is the one path to every artifact (Table I … ``elasticity``):
through the artifact registry and the sweep engine.  ``broker`` is the
one path to a platform recommendation: the ranked portfolio of
:func:`repro.broker.assembly.broker_assemblies` (``--elastic``: its refinement
along a reclaim trajectory).

Shared flag vocabulary (``--seed``/``--cache-dir``/``--url``/...) and
the ``--json`` output mode on read-only subcommands come from
:mod:`repro.cli`.
"""

from __future__ import annotations

import argparse
import sys

from repro import cli
from repro.core.reporting import ascii_table


def _cmd_run(args) -> int:
    from repro.broker.api import RunRequest, run
    from repro.broker.registry import REGISTRY, artifact_names

    if args.list:
        width = max(len(name) for name in artifact_names())
        for name, spec in REGISTRY.items():
            print(f"{name:<{width}}  {spec.title}")
        return 0
    names = tuple(args.artifacts)
    if args.all or not names:
        names = ("all",)
    config = cli.config_from_args(args)
    result = run(RunRequest(
        artifacts=names,
        config=config,
        parallel=args.parallel,
        use_cache=not args.no_cache,
    ))
    for name in result.names():
        print(result.render(name))
        print()
    print(
        f"[sweep] {result.stats.summary()} "
        f"workers={result.report.workers} wall={result.report.wall_s:.2f}s"
    )
    for path in result.report.artifacts:
        print(f"[sweep] exported {path}")
    return 0


def _cmd_broker(args) -> str:
    import dataclasses

    from repro.broker.assembly import (
        BrokerRequest,
        ElasticBroker,
        broker_assemblies,
        render_broker_report,
        render_elastic_report,
        volatile_market_request,
    )
    from repro.harness.config import to_json

    flags = {
        name: value
        for name, value in (
            ("num_ranks", args.ranks),
            ("num_iterations", args.iterations),
            ("spike_probability", args.spike_probability),
        )
        if value is not None
    }
    if args.elastic:
        # The volatile-market scenario of docs/elasticity.md; every flag
        # given overrides its value, whatever the static defaults are.
        if args.deadline_h is not None:
            flags["deadline_hours"] = args.deadline_h
        request = dataclasses.replace(
            volatile_market_request(seed=args.seed, **flags), app=args.app
        )
        report = ElasticBroker(request).run()
        return cli.render(
            args,
            text=lambda: render_elastic_report(report),
            payload=lambda: {
                "request": to_json(request),
                **report.to_dict(),
            },
        )

    request = BrokerRequest(
        app=args.app,
        num_ranks=flags.get("num_ranks", 64),
        num_iterations=flags.get("num_iterations", 100),
        deadline_s=None if args.deadline_h is None else args.deadline_h * 3600.0,
        budget_dollars=args.budget,
        max_interruption_probability=args.max_risk,
        spot_spike_probability=flags.get("spike_probability", 0.06),
        seed=args.seed,
    )
    report = broker_assemblies(request)
    return cli.render(
        args,
        text=lambda: render_broker_report(report, top=args.top),
        payload=lambda: {
            "request": to_json(request),
            "plans": [
                to_json(plan)
                for plan in (report.plans[:args.top] if args.top else report.plans)
            ],
        },
    )


def _cmd_validate(_args) -> str:
    """Run the quick correctness gauntlet: RD exactness, NS convergence,
    distributed == sequential."""
    import numpy as np

    from repro.apps.navier_stokes import NSProblem, NSSolver
    from repro.apps.reaction_diffusion import RDProblem, RDSolver, run_rd_distributed
    from repro.simmpi.launcher import run_spmd

    lines = []

    solver = RDSolver(RDProblem(mesh_shape=(5, 5, 5), num_steps=4),
                      assembly_mode="combine")
    solver.run()
    err = solver.nodal_error()
    ok = err < 1e-9
    lines.append(f"[{'PASS' if ok else 'FAIL'}] RD exactness (Q2+BDF2): "
                 f"nodal error {err:.2e}")

    errors = []
    for shape, dt in [((4, 4, 4), 0.002), ((8, 8, 8), 0.001)]:
        ns = NSSolver(NSProblem(mesh_shape=shape, dt=dt,
                                num_steps=round(0.012 / dt) - 1))
        ns.run()
        errors.append(ns.velocity_error())
    rate = float(np.log2(errors[0] / errors[1]))
    ok2 = rate > 1.6
    lines.append(f"[{'PASS' if ok2 else 'FAIL'}] NS convergence "
                 f"(Ethier-Steinman): velocity order {rate:.2f}")

    prob = RDProblem(mesh_shape=(4, 4, 4), num_steps=2)

    def main(comm):
        return run_rd_distributed(comm, prob, discard=0)[2]

    dist_err = max(run_spmd(main, 2, real_timeout=60.0).returns)
    ok3 = dist_err < 1e-8
    lines.append(f"[{'PASS' if ok3 else 'FAIL'}] distributed RD over simmpi: "
                 f"nodal error {dist_err:.2e}")

    lines.append("all checks passed" if ok and ok2 and ok3 else "CHECKS FAILED")
    return "\n".join(lines)


def _cmd_experiments(args) -> str:
    """Paper-vs-measured summary for every numeric artifact."""
    from repro.broker.api import run
    from repro.harness.paper_data import (
        PAPER_MAX_RANKS,
        PAPER_PORTING_HOURS,
        PAPER_TABLE2,
    )

    result = run(artifacts=("porting", "fig4", "table2"), use_cache=False)
    efforts = result.artifact("porting")
    fig4 = result.artifact("fig4")
    t2 = result.artifact("table2")
    porting = [
        {"platform": name, "paper_hours": PAPER_PORTING_HOURS[name],
         "measured_hours": efforts.effort(name).total_hours}
        for name in efforts.platforms()
    ]
    ceilings = [
        {"platform": name, "paper_max_ranks": PAPER_MAX_RANKS[name],
         "measured_max_ranks": fig4.feasible_max(name)}
        for name in fig4.platforms()
    ]
    table2 = [
        {"ranks": row.mpi,
         "paper_time_s": PAPER_TABLE2[row.mpi].full_time_s,
         "measured_time_s": row.full_time_s,
         "paper_full_cost": PAPER_TABLE2[row.mpi].full_real_cost,
         "measured_full_cost": row.full_real_cost,
         "paper_mix_cost": PAPER_TABLE2[row.mpi].mix_est_cost,
         "measured_mix_cost": row.mix_est_cost}
        for row in t2
    ]

    def text() -> str:
        lines = ["Paper vs reproduction", "=" * 60, ""]
        lines.append("Porting effort [man-hours] (paper §VI is approximate):")
        lines.append(ascii_table(
            ["platform", "paper ~", "measured"],
            [[p["platform"], p["paper_hours"], p["measured_hours"]]
             for p in porting],
        ))
        lines.append("Weak-scaling ceilings (§VII.A):")
        lines.append(ascii_table(
            ["platform", "paper", "measured"],
            [[c["platform"], c["paper_max_ranks"], c["measured_max_ranks"]]
             for c in ceilings],
        ))
        lines.append("Table II, RD on EC2 (time s/iter and cost $/iter):")
        lines.append(ascii_table(
            ["ranks", "t paper", "t ours", "$ paper", "$ ours",
             "$mix paper", "$mix ours"],
            [[r["ranks"], r["paper_time_s"], r["measured_time_s"],
              r["paper_full_cost"], r["measured_full_cost"],
              r["paper_mix_cost"], r["measured_mix_cost"]] for r in table2],
            fmt="{:.4f}",
        ))
        lines.append("See EXPERIMENTS.md for the full per-artifact record.")
        return "\n".join(lines)

    return cli.render(
        args,
        text=text,
        payload=lambda: {"porting_effort": porting,
                         "weak_scaling_ceilings": ceilings,
                         "table2": table2},
    )


def _cmd_trace(args) -> str:
    """Run distributed RD under full observability and export artifacts."""
    from repro.apps.reaction_diffusion import RDProblem, run_rd_distributed
    from repro.obs.core import Observability, ObsConfig
    from repro.obs.analysis import critical_path, overlap_report, phase_statistics
    from repro.simmpi.launcher import run_spmd

    discard = min(args.discard, args.steps - 1)
    obs = Observability(
        ObsConfig(out_dir=args.out, prefix=args.prefix, discard=discard)
    )
    problem = RDProblem(mesh_shape=(args.mesh,) * 3, num_steps=args.steps)

    def body(comm):
        return run_rd_distributed(
            comm, problem, preconditioner="block-jacobi", discard=discard,
            obs=obs,
        )

    result = run_spmd(body, args.ranks, observability=obs, real_timeout=300.0,
                      causal=args.causal or None)
    obs.check_balanced()
    nodal_error = result.returns[0][2]

    lines = [
        f"ran RD {args.mesh}^3 x {args.steps} steps on {args.ranks} ranks "
        f"(nodal error {nodal_error:.2e})",
        "",
        "per-phase means over ranks (virtual s/iteration):",
    ]
    merged = phase_statistics(obs)[None]
    for name, stats in merged.items():
        lines.append(f"  {name:15s} {stats.mean:.6f}")
    lines.append("")
    lines.append(critical_path(obs).format())
    overlap = overlap_report(obs)
    lines.append("")
    lines.append(
        f"comm/compute overlap ratio: {overlap['overlap_ratio']:.3f}"
    )
    health = obs.run_health()
    if health is not None:
        lines.append("")
        lines.append(health.format().rstrip())
    if result.causal is not None:
        report = result.causal.check(obs.tracer)
        lines.append("")
        lines.append(report.format().rstrip())
    lines.append("")
    lines.append("artifacts:")
    lines.extend(f"  {path}" for path in obs.export())
    return "\n".join(lines)


def _cmd_tail(args) -> int:
    """Show (or follow) the last rows of a run directory's telemetry stream."""
    import json
    import os

    from repro.obs.streaming import (
        follow_rows,
        format_row,
        read_rows,
        stream_path,
    )

    path = args.dir if os.path.isfile(args.dir) else stream_path(args.dir)
    kinds = tuple(args.kind) if args.kind else None
    if args.follow:
        # A follow tolerates the file appearing late (a service may still
        # be booting); Ctrl-C is the normal way out, not an error.
        try:
            for row in follow_rows(path, kinds=kinds):
                if args.json:
                    print(json.dumps(row, default=str), flush=True)
                else:
                    print(format_row(row), flush=True)
        except KeyboardInterrupt:
            return 0
        return 0
    rows = read_rows(path)
    if kinds:
        rows = [r for r in rows if r.get("kind") in kinds]
    if not rows:
        return cli.fail(
            f"no telemetry rows at {path} (is the sweep observed?)"
        )
    rows = rows[-args.last:]
    print(cli.render(
        args,
        text=lambda: "\n".join(format_row(r) for r in rows),
        payload=lambda: rows,
    ))
    return 0


def _cmd_health(args) -> int:
    """Wait-state report from a run directory's exported health JSON."""
    import json
    from pathlib import Path

    from repro.errors import ReproError
    from repro.obs.health import RunHealthReport

    target = Path(args.dir)
    candidates = (
        [target] if target.is_file() else sorted(target.glob("*-health.json"))
    )
    if not candidates:
        return cli.fail(
            f"no *-health.json under {target} — run an observed sweep "
            f"(repro run --obs-out) or repro trace first"
        )
    reports = []
    for path in candidates:
        try:
            doc = json.loads(path.read_text())
            reports.append((path, RunHealthReport.from_dict(doc)))
        except (ValueError, ReproError) as exc:
            return cli.fail(f"{path} is no health report: {exc}")
    print(cli.render(
        args,
        text=lambda: "\n".join(
            f"{path}:\n{report.format().rstrip()}" for path, report in reports
        ),
        payload=lambda: {str(path): report.as_dict()
                         for path, report in reports},
    ))
    return 0


def _cmd_serve(args) -> int:
    """Run the broker-as-a-service daemon until SIGTERM/SIGINT."""
    import signal
    import threading

    from repro.service.admission import AdmissionPolicy, TenantQuota
    from repro.service.service import BrokerService, ServiceConfig

    policy = AdmissionPolicy(
        default_quota=TenantQuota(
            rate_per_s=args.rate,
            burst=args.burst,
            max_concurrent_points=args.max_points,
        ),
        max_queue_depth=args.max_queue_depth,
    )
    config = ServiceConfig(
        out_dir=args.out_dir,
        max_workers=args.max_workers,
        policy=policy,
        http=True,
        host=args.host,
        port=args.port,
    )
    service = BrokerService(config)
    service.start()
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    print(f"[serve] listening on {service.url}", flush=True)
    if args.out_dir:
        print(f"[serve] telemetry: repro tail {args.out_dir} --follow",
              flush=True)
    try:
        while not stop.is_set():
            stop.wait(0.5)
    finally:
        service.stop()
        print("[serve] drained and stopped", flush=True)
    return 0


def _cmd_submit(args) -> int:
    """Submit artifacts to a running service; duplicates coalesce."""
    import json

    from repro.broker.api import RunRequest
    from repro.errors import ReproError
    from repro.harness.config import to_json
    from repro.service.client import ServiceClient

    request = RunRequest(
        artifacts=tuple(args.artifacts) or ("all",),
        config=cli.config_from_args(args),
        parallel=args.parallel,
        use_cache=not args.no_cache,
    )
    with ServiceClient(args.url) as client:
        try:
            receipt = client.submit(request, tenant=args.tenant)
            if not args.wait:
                print(cli.render(
                    args,
                    text=lambda: (
                        f"job {receipt.job_id[:12]} {receipt.state}"
                        + (" (coalesced)" if receipt.coalesced else "")
                    ),
                    payload=lambda: to_json(receipt),
                ))
                return 0
            result = client.result(receipt.job_id, timeout=args.timeout)
        except (ReproError, TimeoutError, OSError) as exc:
            return cli.fail(str(exc))
    if args.json:
        print(json.dumps({
            "job_id": receipt.job_id,
            "coalesced": receipt.coalesced,
            "artifacts": list(result.names()),
            "stats": result.stats.summary(),
        }, indent=2))
        return 0
    for name in result.names():
        print(result.render(name))
        print()
    print(f"[submit] job {receipt.job_id[:12]} done "
          f"({'coalesced' if receipt.coalesced else 'computed'}): "
          f"{result.stats.summary()}")
    return 0


def _cmd_status(args) -> int:
    """Job table (or one job's status) of a running service."""
    from repro.errors import ReproError
    from repro.harness.config import to_json
    from repro.service.client import ServiceClient

    with ServiceClient(args.url) as client:
        try:
            if args.job_id:
                statuses = [client.status(args.job_id)]
                stats = None
            else:
                statuses = client.jobs()
                stats = client.stats()
        except (ReproError, TimeoutError, OSError) as exc:
            return cli.fail(str(exc))

    def text() -> str:
        if not statuses:
            return "no jobs"
        rows = [
            [s.job_id[:12], s.state, ",".join(s.artifacts), s.points,
             ",".join(s.tenants), s.coalesced,
             s.error or ""]
            for s in statuses
        ]
        out = ascii_table(
            ["job", "state", "artifacts", "points", "tenants",
             "coalesced", "error"],
            rows,
        )
        if stats is not None:
            out += (
                f"\nqueue depth {stats['queue_depth']}, "
                f"inflight {stats['inflight']}, "
                f"dedup hit-rate {stats['dedup_hit_rate']:.2f}"
            )
        return out

    print(cli.render(
        args,
        text=text,
        payload=lambda: {
            "jobs": [to_json(s) for s in statuses],
            **({"stats": stats} if stats is not None else {}),
        },
    ))
    return 0


def _cmd_script(args) -> str:
    from repro.platforms.catalog import platform_by_name
    from repro.platforms.provisioning import plan_provisioning
    from repro.platforms.scripts import provisioning_script

    platform = platform_by_name(args.platform)
    return provisioning_script(plan_provisioning(platform), platform)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artifacts of the target-platform heterogeneity paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser(
        "run", help="regenerate any paper artifacts via the sweep engine"
    )
    runp.add_argument("artifacts", nargs="*",
                      help="artifact names (see --list); default: all")
    runp.add_argument("--list", action="store_true",
                      help="list registered artifacts and exit")
    runp.add_argument("--all", action="store_true",
                      help="regenerate every registered artifact")
    runp.add_argument("--parallel", type=int, default=0, metavar="N",
                      help="fan points out over N worker processes")
    runp.add_argument("--no-cache", action="store_true",
                      help="recompute every point, bypassing the result cache")
    cli.add_config_options(runp)
    runp.add_argument("--obs-out", default=None, metavar="DIR",
                      help="observe the run and export artifacts to DIR")
    runp.set_defaults(func=_cmd_run)

    brokerp = sub.add_parser(
        "broker", help="rank candidate platform placements for one job"
    )
    brokerp.add_argument("--app", choices=("rd", "ns"), default="rd")
    brokerp.add_argument("--ranks", type=int, default=None,
                         help="MPI ranks (default 64; 128 with --elastic)")
    brokerp.add_argument("--iterations", type=int, default=None,
                         help="solver iterations (default 100; 1000 with "
                              "--elastic)")
    brokerp.add_argument("--deadline-h", type=float, default=None,
                         help="time-to-solution deadline in hours")
    brokerp.add_argument("--budget", type=float, default=None,
                         help="run budget in dollars")
    brokerp.add_argument("--max-risk", type=float, default=None,
                         help="maximum acceptable interruption probability")
    brokerp.add_argument("--spike-probability", type=float, default=None,
                         help="per-spot-node hourly reclaim probability "
                              "(default 0.06; 0.12 with --elastic)")
    brokerp.add_argument("--top", type=int, default=None,
                         help="show only the best N plans")
    brokerp.add_argument("--elastic", action="store_true",
                         help="simulate elastic re-brokering under spot "
                              "reclaims (per-reclaim decision log; defaults "
                              "to the volatile-market scenario)")
    brokerp.add_argument("--seed", type=int, default=7)
    cli.add_json_flag(brokerp)
    brokerp.set_defaults(func=_cmd_broker)

    validate = sub.add_parser("validate", help=_cmd_validate.__doc__)
    validate.set_defaults(func=_cmd_validate)
    experiments = sub.add_parser(
        "experiments", help="paper-vs-measured summary for numeric artifacts"
    )
    cli.add_json_flag(experiments)
    experiments.set_defaults(func=_cmd_experiments)
    script = sub.add_parser("script", help="emit a provisioning shell script")
    script.add_argument("--platform", required=True,
                        choices=("puma", "ellipse", "lagrange", "ec2"))
    script.set_defaults(func=_cmd_script)
    trace = sub.add_parser(
        "trace", help="observed distributed RD run: spans, metrics, exports"
    )
    trace.add_argument("--out", required=True, help="artifact output directory")
    trace.add_argument("--prefix", default="rd")
    trace.add_argument("--ranks", type=int, default=2)
    trace.add_argument("--steps", type=int, default=8)
    trace.add_argument("--mesh", type=int, default=6, help="mesh cells per axis")
    trace.add_argument("--discard", type=int, default=5,
                       help="warm-up steps dropped from phase statistics")
    trace.add_argument("--causal", action="store_true",
                       help="derive vector clocks and print the "
                            "happens-before check")
    trace.set_defaults(func=_cmd_trace)
    tail = sub.add_parser(
        "tail", help="follow a run directory's streaming telemetry"
    )
    tail.add_argument("dir", help="observability output directory")
    tail.add_argument("--last", type=int, default=20,
                      help="rows to show (default 20)")
    tail.add_argument("--kind", action="append", default=None,
                      help="only rows of this kind (repeatable)")
    tail.add_argument("--follow", action="store_true",
                      help="keep reading as rows are appended (tail -f); "
                           "tolerates the file appearing late")
    cli.add_json_flag(tail)
    tail.set_defaults(func=_cmd_tail)
    health = sub.add_parser(
        "health", help="wait-state report from exported health JSON"
    )
    health.add_argument("dir", help="run directory (or a *-health.json file)")
    cli.add_json_flag(health)
    health.set_defaults(func=_cmd_health)
    serve = sub.add_parser(
        "serve", help="broker-as-a-service: a shared job queue over localhost"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=cli.DEFAULT_SERVE_PORT,
                       help="bind port (default %d; 0 picks a free one)"
                            % cli.DEFAULT_SERVE_PORT)
    serve.add_argument("--out-dir", default=None, metavar="DIR",
                       help="telemetry/observability directory "
                            "(enables repro tail --follow)")
    serve.add_argument("--max-workers", type=int, default=2,
                       help="concurrent job computations (default 2)")
    serve.add_argument("--rate", type=float, default=50.0,
                       help="per-tenant admission rate [submissions/s]")
    serve.add_argument("--burst", type=int, default=100,
                       help="per-tenant token-bucket burst size")
    serve.add_argument("--max-points", type=int, default=256,
                       help="per-tenant concurrent sweep-point quota")
    serve.add_argument("--max-queue-depth", type=int, default=64,
                       help="global queue depth before backpressure denials")
    serve.set_defaults(func=_cmd_serve)
    submit = sub.add_parser(
        "submit", help="submit artifacts to a running service (coalesced)"
    )
    submit.add_argument("artifacts", nargs="*",
                        help="artifact names (default: all)")
    submit.add_argument("--tenant", default="default",
                        help="tenant name for admission control")
    submit.add_argument("--parallel", type=int, default=0, metavar="N",
                        help="fan points out over N worker processes")
    submit.add_argument("--no-cache", action="store_true",
                        help="recompute every point, bypassing the cache")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job finishes, print artifacts")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="--wait timeout in seconds (default 600)")
    cli.add_service_endpoint(submit)
    cli.add_config_options(submit)
    cli.add_json_flag(submit)
    submit.set_defaults(func=_cmd_submit)
    status = sub.add_parser(
        "status", help="job table of a running service"
    )
    status.add_argument("job_id", nargs="?", default=None,
                        help="job id or unique prefix (default: all jobs)")
    cli.add_service_endpoint(status)
    cli.add_json_flag(status)
    status.set_defaults(func=_cmd_status)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    out = args.func(args)
    if isinstance(out, int):
        return out
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
