"""Command-line interface: ``python -m repro <command>``.

Commands:
    demo                 the quickstart workflow, narrated
    experiment NAME      regenerate one paper table/figure
                         (table1..table4, figure7..figure9, or ``all``)
    threats              run the Table 1 threat analysis
    chaos                seeded fault-injection soak over the threat replay
    lint                 static perforation linter over the spec catalog
    verify-model         escape-chain model checker with witness replay
    mine                 mine least-privilege specs from benign traces,
                         prove them, and diff against the catalog
    serve                serve a synthetic ticket storm on the concurrent
                         control plane (sharded kernels + warm pools);
                         --db persists every session into SQLite
    replay SESSION-ID    reconstruct one session's full decision trail
                         from the durable store alone (chain-verified)
    history              render the persisted benchmark trajectory as a
                         time series (imports BENCH_*.json files)
    anomaly              run the audit-log anomaly-detection extension
    metrics [TARGET]     run a workload, dump the shared metrics registry
    trace [TARGET]       run a workload, print the structured span tree
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

EXPERIMENT_NAMES = ("table1", "table2", "table3", "table4",
                    "figure7", "figure8", "figure9")

#: workloads the ``metrics``/``trace`` subcommands can replay
INSTRUMENTED_TARGETS = ("table1", "demo")


def _cmd_demo(_args) -> int:
    from repro import Deployment
    deployment = Deployment.create()
    deployment.register_admin("it-bob")
    ticket = deployment.submit(
        "alice", "matlab license expired toolbox error", machine="ws-01")
    with deployment.session(ticket, admin="it-bob") as session:
        print(f"ticket #{ticket.ticket_id} -> class {ticket.predicted_class} "
              f"-> container on {ticket.machine}")
        session.shell.write_file("/home/alice/matlab/license.lic",
                                 b"VALID-2018")
        print("license fixed inside the perforated view")
        print("PB ps -a:",
              [r["comm"] for r in session.client.pb("ps -a").output])
    summary = deployment.audit_summary()
    print(f"resolved; {summary['records']} audit records, "
          f"chain verified: {summary['verified']}")
    return 0


def _run_experiment(name: str, full: bool) -> int:
    from repro import experiments as exp
    if name == "table1":
        print(exp.run_table1().format())
    elif name == "table2":
        result = exp.run_table2(n_tickets=1500 if full else 600,
                                n_iter=80 if full else 50)
        print(result.format())
    elif name == "table3":
        print(exp.run_table3(probe=True).format())
    elif name == "table4":
        result = exp.run_table4(n_tickets=398 if full else 150,
                                classifier="lda" if full else "keyword")
        print(result.format())
    elif name == "figure7":
        print(exp.run_figure7(n_tickets=17000 if full else 4000).format())
    elif name == "figure8":
        print(exp.run_figure8(execute=True).format())
    elif name == "figure9":
        print(exp.run_figure9(scale=4 if full else 1).format())
    else:
        print(f"unknown experiment {name!r}; choose from "
              f"{', '.join(EXPERIMENT_NAMES)} or 'all'", file=sys.stderr)
        return 2
    return 0


def _cmd_experiment(args) -> int:
    def _go() -> int:
        if getattr(args, "report", None):
            if args.name != "all":
                print("--report requires 'all'", file=sys.stderr)
                return 2
            from repro.experiments import write_report
            path = write_report(args.report, full=args.full)
            print(f"report written to {path}")
            return 0
        names = EXPERIMENT_NAMES if args.name == "all" else (args.name,)
        for name in names:
            print("=" * 72)
            status = _run_experiment(name, args.full)
            if status:
                return status
        return 0

    if getattr(args, "metrics_out", None):
        from repro.experiments import run_with_metrics
        status, _ = run_with_metrics(
            _go, metrics_out=args.metrics_out,
            name=f"experiment-{args.name}",
            params={"experiment": args.name, "full": bool(args.full)})
        if status == 0:
            print(f"metrics written to {args.metrics_out}")
        return status
    return _go()


def _cmd_threats(_args) -> int:
    from repro.threats import format_table1, run_threat_analysis
    results = run_threat_analysis()
    print(format_table1(results))
    blocked = sum(r.blocked for r in results)
    print(f"\n{blocked}/11 attacks blocked or detected")
    return 0 if blocked == len(results) else 1


def _cmd_chaos(args) -> int:
    """Seeded chaos soak: inject faults into the Table 1 replay.

    Exit status 1 means a fault converted a deny into an allow — the
    fail-closed property is broken. Same seed, same report, bit for bit.
    """
    if args.iterations < 1:
        print(f"repro chaos: --iterations must be >= 1, "
              f"got {args.iterations}", file=sys.stderr)
        return 2
    if not 0.0 < args.intensity <= 1.0:
        print(f"repro chaos: --intensity must be in (0, 1], "
              f"got {args.intensity}", file=sys.stderr)
        return 2
    from repro.faults import run_chaos
    report = run_chaos(seed=args.seed, iterations=args.iterations,
                       intensity=args.intensity)
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"chaos trace written to {args.trace_out}", file=sys.stderr)
    if args.json:
        print(report.to_json())
    else:
        print(report.format())
    return 0 if report.ok else 1


def _parse_fail_on(label: str):
    """``--fail-on`` value -> Severity threshold, or None for 'never'.

    Raises ValueError for unknown labels — handlers turn that into the
    usage-error exit status (2) instead of a traceback.
    """
    from repro.analysis import Severity
    if label == "never":
        return None
    return Severity.parse(label)


def _cmd_lint(args) -> int:
    import json as _json

    from repro.analysis import lint_catalog, run_crosscheck
    from repro.analysis.linter import builtin_catalog
    from repro.broker.policy import permissive_policy

    try:
        fail_on = _parse_fail_on(args.fail_on)
    except ValueError as exc:
        print(f"repro lint: --fail-on: {exc}", file=sys.stderr)
        return 2
    specs = builtin_catalog()
    if args.klass is not None:
        if args.klass not in specs:
            print(f"unknown ticket class {args.klass!r}; choose from "
                  f"{', '.join(sorted(specs, key=lambda n: (len(n), n)))}",
                  file=sys.stderr)
            return 2
        specs = {args.klass: specs[args.klass]}
    report = lint_catalog(specs=specs, broker_policy=permissive_policy())
    if args.json or args.sarif:
        print(report.dumps(sarif=args.sarif))
    else:
        print(report.format())
    status = 0
    if fail_on is not None and report.fails(fail_on):
        status = 1
    if args.crosscheck:
        crosscheck = run_crosscheck(specs=specs)
        if args.json:
            print(_json.dumps([row.to_dict() for row in crosscheck.rows],
                              indent=2, sort_keys=True))
        else:
            print()
            print(crosscheck.format())
        if not crosscheck.consistent:
            status = 1
    return status


def _cmd_lint_threads(args) -> int:
    import json as _json
    from pathlib import Path

    from repro.analysis.concurrency import lint_threads, run_crosscheck

    try:
        fail_on = _parse_fail_on(args.fail_on)
    except ValueError as exc:
        print(f"repro lint-threads: --fail-on: {exc}", file=sys.stderr)
        return 2
    root = None
    if args.path is not None:
        root = Path(args.path)
        if not root.is_dir():
            print(f"repro lint-threads: not a directory: {args.path}",
                  file=sys.stderr)
            return 2
    analysis = lint_threads(root=root)
    report = analysis.report
    if args.sarif:
        from repro.analysis.sarif import CONCURRENCY_TOOL_NAME, merge_reports
        document = merge_reports([report],
                                 tool_name=CONCURRENCY_TOOL_NAME)
        print(_json.dumps(document, indent=2, sort_keys=True))
    elif args.json:
        print(report.dumps())
    else:
        print(report.format(title="Concurrency lint"))
        print(f"  lock graph: {len(analysis.locks)} sites, "
              f"{len(analysis.edges)} order edges, "
              f"{len(analysis.cycles)} cycles "
              f"({analysis.files} files in {analysis.elapsed_s:.2f}s)")
    status = 0
    if fail_on is not None and report.fails(fail_on):
        status = 1
    if args.crosscheck:
        crosscheck = run_crosscheck(tickets=args.tickets,
                                    chaos_iterations=args.chaos_iterations,
                                    analysis=analysis)
        if args.json or args.sarif:
            print(_json.dumps(crosscheck.to_dict(), indent=2,
                              sort_keys=True))
        else:
            print()
            print(crosscheck.format())
        if not (crosscheck.consistent and crosscheck.deadlock_free
                and crosscheck.storm_errors == 0):
            status = 1
    return status


def _cmd_verify_model(args) -> int:
    import json as _json

    from repro.analysis.modelcheck import (
        FIXTURE_CLASS,
        catalog_targets,
        overprivileged_fixture_target,
        run_verify_model,
    )

    try:
        fail_on = _parse_fail_on(args.fail_on)
    except ValueError as exc:
        print(f"repro verify-model: --fail-on: {exc}", file=sys.stderr)
        return 2
    if args.depth < 1:
        print(f"repro verify-model: --depth must be >= 1, got {args.depth}",
              file=sys.stderr)
        return 2
    targets = catalog_targets()
    if args.klass is not None:
        if args.klass == FIXTURE_CLASS:
            targets = [overprivileged_fixture_target()]
        else:
            by_name = {t.name: t for t in targets}
            if args.klass not in by_name:
                print(f"unknown ticket class {args.klass!r}; choose from "
                      f"{', '.join(sorted(by_name, key=lambda n: (len(n), n)))}"
                      f" or {FIXTURE_CLASS} (the seeded over-privileged "
                      f"fixture)", file=sys.stderr)
                return 2
            targets = [by_name[args.klass]]
    report = run_verify_model(targets, depth=args.depth, replay=args.replay)
    if args.sarif:
        from repro.analysis.sarif import MODELCHECK_TOOL_NAME, merge_reports
        reports = [report.report()]
        if args.include_lint:
            from repro.analysis import lint_catalog
            from repro.broker.policy import permissive_policy
            specs = ({t.name: t.spec for t in targets}
                     if args.klass is not None else None)
            reports.insert(0, lint_catalog(
                specs=specs, broker_policy=permissive_policy()))
            document = merge_reports(reports)
        else:
            document = merge_reports(reports,
                                     tool_name=MODELCHECK_TOOL_NAME)
        print(_json.dumps(document, indent=2, sort_keys=True))
    elif args.json:
        print(report.dumps())
    else:
        print(report.format())
    status = 0 if report.ok else 1
    if fail_on is not None and report.report().fails(fail_on):
        status = max(status, 1)
    return status


def _cmd_mine(args) -> int:
    import json as _json

    from repro.analysis.mining import (
        GeneralizationPolicy,
        mining_targets,
        run_mining,
    )

    try:
        fail_on = _parse_fail_on(args.fail_on)
    except ValueError as exc:
        print(f"repro mine: --fail-on: {exc}", file=sys.stderr)
        return 2
    for flag, value in (("--tickets", args.tickets),
                        ("--min-sessions", args.min_sessions),
                        ("--max-sessions", args.max_sessions),
                        ("--depth", args.depth)):
        if value < 1:
            print(f"repro mine: {flag} must be >= 1, got {value}",
                  file=sys.stderr)
            return 2
    try:
        mining_targets(args.classes)
    except ValueError as exc:
        print(f"repro mine: {exc}", file=sys.stderr)
        return 2
    policy = GeneralizationPolicy(min_sessions=args.min_sessions)
    report = run_mining(args.classes, n_tickets=args.tickets,
                        seed=args.seed, policy=policy,
                        max_sessions=args.max_sessions, depth=args.depth,
                        crosscheck=args.crosscheck)
    if args.bench_out:
        from repro.experiments.schema import ExperimentReport
        counts = report.report.counts()
        ExperimentReport(
            name="policy-mining",
            params={str(k): v for k, v in report.params.items()
                    if not isinstance(v, (list, tuple, dict))},
            metrics={
                "classes": len(report.outcomes),
                "sessions_traced": sum(
                    o.sessions for o in report.outcomes),
                "specs_mined": len(report.mined_specs()),
                "errors": counts.get("error", 0),
                "warnings": counts.get("warning", 0),
                "ok": report.ok,
                "digest": report.digest(),
            },
            artifacts={"report": report.to_json()},
        ).write(args.bench_out)
        print(f"benchmark report written to {args.bench_out}",
              file=sys.stderr)
    if args.sarif:
        from repro.analysis.sarif import MINING_TOOL_NAME, merge_reports
        reports = [report.report]
        if args.include_lint:
            from repro.analysis import lint_catalog
            from repro.broker.policy import permissive_policy
            reports.insert(0, lint_catalog(
                specs=dict(report.catalog),
                broker_policy=permissive_policy()))
            document = merge_reports(reports)
        else:
            document = merge_reports(reports, tool_name=MINING_TOOL_NAME)
        print(_json.dumps(document, indent=2, sort_keys=True))
    elif args.json:
        print(report.dumps())
    else:
        print(report.format())
    status = 0 if report.ok else 1
    if fail_on is not None and report.report.fails(fail_on):
        status = max(status, 1)
    return status


def passthrough_table1_spec(cache_capacity: int = 4):
    """The metrics-replay spec: T-6 with the ITFS decision cache enabled.

    A deliberately small cache so one Table 1 replay exercises hits,
    misses *and* LRU evictions.
    """
    from repro.containit import ROOT_DIRECTORY, PerforatedContainerSpec
    return PerforatedContainerSpec(
        name="T-6", description="software (full root view, ITFS pass-through)",
        fs_shares=(ROOT_DIRECTORY,),
        network_allowed=("whitelisted-websites",),
        process_management=True,
        fs_passthrough=True, fs_cache_capacity=cache_capacity)


def _steady_state_session(cache_capacity: int) -> None:
    """One admin session with a repetitive working set.

    The Table 1 attacks are all one-shot, so on their own they never
    re-read a path (no cache hits) or outgrow the decision cache (no
    evictions), and none of them escalates through the broker. This
    segment covers the steady-state behaviour the attacks skip: a hot
    file read repeatedly, a working set wider than the cache, and one
    granted plus one refused broker escalation.
    """
    from repro.threats import ThreatRig
    rig = ThreatRig.build(passthrough_table1_spec(cache_capacity))
    shell = rig.shell
    for _ in range(4):
        shell.read_file("/home/victim/notes.txt")
    for i in range(cache_capacity + 2):
        path = f"/home/victim/scratch-{i}.log"
        shell.write_file(path, b"replay")
        shell.read_file(path)
    rig.client.pb("ps -a")          # granted escalation
    rig.client.pb("rm scratch-0")   # refused: not an allowed command
    rig.container.terminate("metrics replay done")


def _run_instrumented(target: str, cache_capacity: int) -> None:
    """Replay one workload against freshly reset observability state."""
    from repro import obs
    obs.reset()
    if target == "table1":
        from repro.threats import run_threat_analysis
        run_threat_analysis(spec=passthrough_table1_spec(cache_capacity))
        _steady_state_session(cache_capacity)
    else:  # demo
        _cmd_demo(None)


def _cmd_metrics(args) -> int:
    from repro import obs
    if args.cache_capacity < 1:
        print(f"repro metrics: --cache-capacity must be >= 1, "
              f"got {args.cache_capacity}", file=sys.stderr)
        return 2
    _run_instrumented(args.target, args.cache_capacity)
    if args.json:
        print(obs.registry().to_json())
    else:
        print(obs.registry().format(prefix=args.prefix))
    return 0


def _cmd_trace(args) -> int:
    from repro import obs
    if args.cache_capacity < 1:
        print(f"repro trace: --cache-capacity must be >= 1, "
              f"got {args.cache_capacity}", file=sys.stderr)
        return 2
    if args.limit < 1:
        print(f"repro trace: --limit must be >= 1, got {args.limit}",
              file=sys.stderr)
        return 2
    _run_instrumented(args.target, args.cache_capacity)
    tracer = obs.tracer()
    if args.jsonl:
        print(tracer.to_jsonl())
    else:
        print(tracer.format_tree(limit=args.limit))
        print(f"\n{tracer.spans_started} spans started, "
              f"{tracer.spans_dropped} dropped by the ring buffer")
    return 0


def _run_daemon(args) -> int:
    """``repro serve --daemon``: the persistent HTTP service tier.

    Runs until SIGTERM/SIGINT, then drains gracefully: readiness flips
    to 503, every accepted ticket completes, the plane closes. Exit 0
    only when the drain left nothing behind.
    """
    import signal
    import threading

    from repro.controlplane import ControlPlane
    from repro.service import ServiceConfig, TicketService
    from repro.workload.storm import (
        STORM_MACHINES,
        STORM_USERS,
        train_storm_classifier,
    )

    if not 0 <= args.port <= 65535:
        print(f"repro serve: --port must be in [0, 65535], got {args.port}",
              file=sys.stderr)
        return 2
    if args.rate_limit < 0:
        print(f"repro serve: --rate-limit must be >= 0, "
              f"got {args.rate_limit}", file=sys.stderr)
        return 2
    if args.max_inflight < 0:
        print(f"repro serve: --max-inflight must be >= 0, "
              f"got {args.max_inflight}", file=sys.stderr)
        return 2

    classifier = (train_storm_classifier(seed=args.seed)
                  if args.classifier == "lda" else None)
    store = None
    if args.db:
        from repro.store import SQLiteStore
        store = SQLiteStore(args.db)
    plane = ControlPlane(machines=STORM_MACHINES, users=STORM_USERS,
                         shards=args.shards, pool_size=args.pool_size,
                         queue_depth=args.queue_depth,
                         classifier=classifier, workers=args.workers,
                         store=store, org=args.org)
    config = ServiceConfig(host=args.host, port=args.port,
                           rate_limit=args.rate_limit,
                           max_inflight=args.max_inflight,
                           prewarm_classes=tuple(args.prewarm or ()))
    service = TicketService(plane, config)

    stop = threading.Event()

    def _on_signal(_signum, _frame) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    service.start()
    print(f"repro service listening on {service.url} "
          f"(POST /tickets, GET /healthz /readyz /metrics); "
          f"SIGTERM drains", file=sys.stderr)
    stop.wait()
    print("repro service: draining...", file=sys.stderr)
    service.close(drain=True)
    stats = plane.stats()
    clean = stats["completed"] == stats["submitted"]
    print(f"repro service: drained {'cleanly' if clean else 'DIRTY'} "
          f"({stats['completed']}/{stats['submitted']} tickets served)",
          file=sys.stderr)
    if store is not None:
        counts = store.counts()
        print(f"repro service: {counts['sessions']} sessions persisted "
              f"to {args.db}", file=sys.stderr)
        store.close()
    return 0 if clean else 1


def _cmd_serve(args) -> int:
    """Run the control plane as a one-shot storm or a persistent daemon.

    The one-shot storm is a load and persistence smoke, not a latency
    benchmark: ``perfbench/run.py`` measures serving latency. Exit status
    2 for usage errors, 1 when any ticket fails to resolve (storm mode)
    or the drain left tickets behind (daemon mode).
    """
    if args.shards < 1:
        print(f"repro serve: --shards must be >= 1, got {args.shards}",
              file=sys.stderr)
        return 2
    if args.pool_size < 0:
        print(f"repro serve: --pool-size must be >= 0, "
              f"got {args.pool_size}", file=sys.stderr)
        return 2
    if args.tickets < 1:
        print(f"repro serve: --tickets must be >= 1, got {args.tickets}",
              file=sys.stderr)
        return 2
    if not 0.0 <= args.duplicates < 1.0:
        print(f"repro serve: --duplicates must be in [0, 1), "
              f"got {args.duplicates}", file=sys.stderr)
        return 2
    if args.queue_depth < 1:
        print(f"repro serve: --queue-depth must be >= 1, "
              f"got {args.queue_depth}", file=sys.stderr)
        return 2
    if args.daemon:
        return _run_daemon(args)

    from repro.workload.storm import (
        generate_storm,
        run_storm_sharded,
        train_storm_classifier,
    )
    if args.classifier == "lda":
        print("training the LDA classifier on the ticket history...",
              file=sys.stderr)
        classifier = train_storm_classifier(seed=args.seed)
    else:
        classifier = None  # the orchestrator's keyword default
    storm = generate_storm(n=args.tickets, seed=args.seed,
                           duplicate_rate=args.duplicates)
    store = None
    if args.db:
        from repro.store import SQLiteStore
        store = SQLiteStore(args.db)
    report = run_storm_sharded(
        storm, classifier=classifier, shards=args.shards,
        pool_size=args.pool_size, queue_depth=args.queue_depth,
        workers=args.workers, store=store, org=args.org)
    metrics = {
        "tickets": report.tickets,
        "unique_texts": report.unique_texts,
        "shards": report.shards,
        "workers": report.workers,
        "sharded_tickets_per_s": round(report.tickets_per_s, 1),
        "pool_hit_rate": round(report.pool_hit_rate, 4),
        "errors": report.errors,
    }
    if store is not None:
        from repro.experiments.schema import ExperimentReport
        from repro.store import report_to_row
        store.put_bench_run(report_to_row(ExperimentReport(
            name="controlplane-throughput",
            params={"tickets": args.tickets, "shards": args.shards,
                    "pool_size": args.pool_size,
                    "duplicates": args.duplicates, "seed": args.seed,
                    "classifier": args.classifier,
                    "queue_depth": args.queue_depth,
                    "workers": args.workers},
            metrics=metrics,
            artifacts={"sharded": report.to_dict()},
        )))
        counts = store.counts()
        print(f"{counts['sessions']} sessions persisted to {args.db}; "
              f"replay one with: repro replay --db {args.db} --latest",
              file=sys.stderr)
        store.close()
    if args.json:
        import json as _json
        print(_json.dumps(metrics, indent=2, sort_keys=True))
    else:
        print(f"served {report.tickets} tickets at "
              f"{report.tickets_per_s:.1f} tickets/s "
              f"({report.errors} errors, {report.workers} workers, "
              f"pool hit rate {report.pool_hit_rate:.0%})")
    return 0 if report.errors == 0 else 1


def _cmd_replay(args) -> int:
    """``repro replay``: forensic reconstruction from the store alone.

    Exit status 2 for usage errors (no database, no session selector),
    1 when the session is unknown or its hash chain fails verification.
    """
    import json as _json
    # os imported at module level

    from repro.errors import IntegrityError
    from repro.store import SQLiteStore, format_trail, trail_to_dict, \
        verify_trail

    if not args.db:
        print("repro replay: --db PATH is required", file=sys.stderr)
        return 2
    if not os.path.exists(args.db):
        # opening would create an empty database; refuse instead
        print(f"repro replay: no database at {args.db}", file=sys.stderr)
        return 2
    if not args.session_id and not args.latest:
        print("repro replay: give a SESSION-ID or --latest",
              file=sys.stderr)
        return 2
    store = SQLiteStore(args.db)
    try:
        session_id = args.session_id
        if session_id is None:
            rows = store.sessions(org=args.org, limit=1)
            if not rows:
                print("repro replay: the store has no sessions"
                      + (f" for org {args.org!r}" if args.org else ""),
                      file=sys.stderr)
                return 1
            session_id = rows[0].session_id
        trail = store.get_trail(session_id)
        if trail is None:
            print(f"repro replay: no session {session_id!r}",
                  file=sys.stderr)
            return 1
        try:
            counts = verify_trail(trail)
        except IntegrityError as exc:
            print(f"repro replay: CHAIN VERIFICATION FAILED for "
                  f"{session_id}: {exc}", file=sys.stderr)
            return 1
        if args.json:
            print(_json.dumps(trail_to_dict(trail, verified=True),
                              indent=2, sort_keys=True))
        else:
            print(format_trail(trail, chain_counts=counts))
        return 0
    finally:
        store.close()


def _format_history_row(row) -> str:
    import datetime

    when = datetime.datetime.fromtimestamp(
        row.created_at).strftime("%Y-%m-%d %H:%M:%S")
    numbers = {k: v for k, v in row.metrics.items()
               if isinstance(v, (int, float)) and not isinstance(v, bool)}
    # throughput-style series first, then whatever else fits
    preferred = [k for k in ("sharded_tickets_per_s", "tickets_per_s",
                             "sqlite_tickets_per_s", "overhead_pct",
                             "latency_p99_ms", "completed") if k in numbers]
    rest = [k for k in sorted(numbers) if k not in preferred]
    shown = ", ".join(f"{k}={numbers[k]}" for k in (preferred + rest)[:4])
    return f"  {when}  {row.name:<28} {shown}"


def _cmd_history(args) -> int:
    """``repro history``: the BENCH_* trajectory as a stored time series.

    ``--import`` globs ``BENCH_*.json`` experiment reports into the
    store (stamped with each file's mtime) before rendering, so the
    scattered artifacts CI uploads become one queryable history.
    """
    import glob as _glob
    import json as _json
    # os imported at module level

    from repro.store import SQLiteStore, report_to_row

    if not args.db:
        print("repro history: --db PATH is required", file=sys.stderr)
        return 2
    if args.limit is not None and args.limit < 1:
        print(f"repro history: --limit must be >= 1, got {args.limit}",
              file=sys.stderr)
        return 2
    if not args.imports and not os.path.exists(args.db):
        print(f"repro history: no database at {args.db}", file=sys.stderr)
        return 2
    store = SQLiteStore(args.db)
    try:
        if args.imports:
            from repro.experiments.schema import ExperimentReport
            imported = 0
            for pattern in args.imports:
                paths = sorted(_glob.glob(pattern)) or [pattern]
                for path in paths:
                    if not os.path.exists(path):
                        print(f"repro history: no such file {path}",
                              file=sys.stderr)
                        return 2
                    try:
                        report = ExperimentReport.read(path)
                    except (ValueError, OSError) as exc:
                        print(f"repro history: {path}: {exc}",
                              file=sys.stderr)
                        return 2
                    store.put_bench_run(report_to_row(
                        report, created_at=os.path.getmtime(path)))
                    imported += 1
            print(f"imported {imported} report(s) into {args.db}",
                  file=sys.stderr)
        rows = store.bench_runs(name=args.name, limit=args.limit)
        if args.json:
            print(_json.dumps([row.to_dict() for row in rows],
                              indent=2, sort_keys=True))
            return 0
        if not rows:
            print("no bench runs recorded"
                  + (f" under name {args.name!r}" if args.name else "")
                  + f" in {args.db}")
            return 0
        print(f"bench history ({len(rows)} runs, oldest first):")
        for row in rows:
            print(_format_history_row(row))
        return 0
    finally:
        store.close()


def _cmd_anomaly(args) -> int:
    from repro.anomaly import AnomalyDetector, generate_session_corpus
    logs = generate_session_corpus(n_benign=args.benign,
                                   n_malicious=args.malicious)
    benign = [l for l in logs if l.label == "benign"]
    detector = AnomalyDetector(threshold=args.threshold)
    detector.fit(benign[: max(len(benign) // 2, 1)])
    print(detector.evaluate(logs).format())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WatchIT (SOSP 2017) reproduction — demos & experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="run the quickstart workflow")

    p_exp = sub.add_parser("experiment", help="regenerate a table/figure")
    p_exp.add_argument("name", choices=EXPERIMENT_NAMES + ("all",))
    p_exp.add_argument("--full", action="store_true",
                       help="paper-scale parameters (slower)")
    p_exp.add_argument("--report", metavar="PATH", default=None,
                       help="with 'all': write a markdown report to PATH")
    p_exp.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="dump the run's metrics registry as JSON to PATH")

    sub.add_parser("threats", help="run the Table 1 threat analysis")

    p_chaos = sub.add_parser(
        "chaos", help="seeded fault-injection soak over the threat replay")
    p_chaos.add_argument("--seed", type=int, default=1337,
                         help="fault-schedule seed (same seed, same report)")
    p_chaos.add_argument("--iterations", type=int, default=200,
                         help="attack iterations to run under faults")
    p_chaos.add_argument("--intensity", type=float, default=0.05,
                         help="per-call fault probability for the rule set")
    p_chaos.add_argument("--json", action="store_true",
                         help="full JSON report instead of the text summary")
    p_chaos.add_argument("--trace-out", metavar="PATH", default=None,
                         help="also write the JSON report to PATH")

    p_lint = sub.add_parser(
        "lint", help="statically verify least-privilege of the spec catalog")
    p_lint.add_argument("--class", dest="klass", metavar="NAME", default=None,
                        help="lint a single ticket class (e.g. T-3)")
    p_lint.add_argument("--json", action="store_true",
                        help="machine-readable findings")
    p_lint.add_argument("--sarif", action="store_true",
                        help="SARIF-style findings (implies machine output)")
    p_lint.add_argument("--fail-on", metavar="SEVERITY", default="error",
                        help="severity threshold for a non-zero exit status "
                             "(info, warning, error, or 'never')")
    p_lint.add_argument("--crosscheck", action="store_true",
                        help="also run the static/dynamic Table 1 cross-check")

    p_lt = sub.add_parser(
        "lint-threads",
        help="lock-discipline lint (CON0xx) over the repro source tree, "
             "with an optional sanitizer-instrumented cross-check")
    p_lt.add_argument("--path", metavar="DIR", default=None,
                      help="package root to lint (default: the installed "
                           "repro tree)")
    p_lt.add_argument("--json", action="store_true",
                      help="machine-readable findings")
    p_lt.add_argument("--sarif", action="store_true",
                      help="CON0xx findings as SARIF")
    p_lt.add_argument("--fail-on", metavar="SEVERITY", default="error",
                      help="severity threshold for a non-zero exit status "
                           "(info, warning, error, or 'never'); the "
                           "default 'error' fails precisely on CON003 "
                           "lock-order cycles")
    p_lt.add_argument("--crosscheck", action="store_true",
                      help="also run the storm + chaos soak under the "
                           "runtime lock-order sanitizer and diff the "
                           "dynamic acquisition graph against the static "
                           "verdicts (inconsistency or a dynamic cycle "
                           "exits 1)")
    p_lt.add_argument("--tickets", type=int, default=160,
                      help="storm size for --crosscheck (default 160)")
    p_lt.add_argument("--chaos-iterations", type=int, default=40,
                      help="chaos-soak iterations for --crosscheck "
                           "(default 40; 0 skips the soak)")

    p_vm = sub.add_parser(
        "verify-model",
        help="model-check multi-step escape chains and replay witnesses")
    p_vm.add_argument("--class", dest="klass", metavar="NAME", default=None,
                      help="verify a single ticket class (e.g. T-3, or "
                           "X-DEV for the seeded over-privileged fixture)")
    p_vm.add_argument("--depth", type=int, default=4,
                      help="BFS exploration depth bound (default 4: every "
                           "Table 1 attack plus one broker escalation)")
    p_vm.add_argument("--replay", dest="replay", action="store_true",
                      default=True,
                      help="execute witnesses/probes against the simulated "
                           "kernel + ITFS + broker (default)")
    p_vm.add_argument("--no-replay", dest="replay", action="store_false",
                      help="static verdicts only, skip the dynamic replay")
    p_vm.add_argument("--json", action="store_true",
                      help="machine-readable verdict report")
    p_vm.add_argument("--sarif", action="store_true",
                      help="WIT04x findings as SARIF")
    p_vm.add_argument("--include-lint", action="store_true",
                      help="with --sarif: merge the WIT00x-03x linter "
                           "findings into one combined SARIF artifact")
    p_vm.add_argument("--fail-on", metavar="SEVERITY", default="error",
                      help="finding-severity threshold for a non-zero exit "
                           "status (info, warning, error, or 'never'); "
                           "reachable-unaudited chains and replay "
                           "disagreements always exit 1")

    p_mine = sub.add_parser(
        "mine",
        help="mine least-privilege specs from benign traces, prove them "
             "with the model checker, and diff against the catalog")
    p_mine.add_argument("--class", dest="classes", metavar="NAME",
                        action="append", default=None,
                        help="mine one ticket class (repeatable; e.g. "
                             "T-3, or X-DEV for the seeded "
                             "over-privileged fixture)")
    p_mine.add_argument("--tickets", type=int, default=398,
                        help="evaluation-corpus size to draw benign "
                             "sessions from (default 398, the Table 4 "
                             "corpus)")
    p_mine.add_argument("--seed", type=int, default=42,
                        help="corpus seed; equal seeds give equal mined "
                             "specs and report digests")
    p_mine.add_argument("--min-sessions", type=int, default=1,
                        help="skip classes with fewer traced sessions "
                             "(a spec mined from too few sessions "
                             "over-fits)")
    p_mine.add_argument("--max-sessions", type=int, default=4,
                        help="benign sessions to trace per class "
                             "(default 4)")
    p_mine.add_argument("--depth", type=int, default=4,
                        help="model-checker exploration depth for the "
                             "proof pass")
    p_mine.add_argument("--json", action="store_true",
                        help="machine-readable mining report")
    p_mine.add_argument("--sarif", action="store_true",
                        help="WIT05x findings as SARIF")
    p_mine.add_argument("--include-lint", action="store_true",
                        help="with --sarif: merge the WIT00x-03x linter "
                             "findings into one combined SARIF artifact")
    p_mine.add_argument("--fail-on", metavar="SEVERITY", default="error",
                        help="finding-severity threshold for a non-zero "
                             "exit status (info, warning, error, or "
                             "'never'); unproven mined specs always "
                             "exit 1")
    p_mine.add_argument("--crosscheck", action="store_true",
                        help="also run the static/dynamic Table 1 "
                             "cross-check over the mined specs")
    p_mine.add_argument("--bench-out", metavar="PATH", default=None,
                        help="write an experiment report (JSON) to PATH")

    p_srv = sub.add_parser(
        "serve",
        help="serve a synthetic ticket storm on the concurrent control "
             "plane (sharded kernels + warm container pools)")
    p_srv.add_argument("--shards", type=int, default=4,
                       help="independent simulated kernels (default 4)")
    p_srv.add_argument("--pool-size", type=int, default=2,
                       help="warm containers kept per (machine, class)")
    p_srv.add_argument("--tickets", type=int, default=200,
                       help="storm size (default 200)")
    p_srv.add_argument("--duplicates", type=float, default=0.9,
                       help="fraction of verbatim-duplicate reports in "
                            "the storm (default 0.9)")
    p_srv.add_argument("--queue-depth", type=int, default=64,
                       help="per-shard admission queue bound")
    p_srv.add_argument("--workers", choices=("thread", "process"),
                       default="thread",
                       help="shard worker mode: 'thread' (shared heap, "
                            "GIL-capped CPU) or 'process' (one "
                            "organization per worker process; CPU-bound "
                            "serving scales with cores)")
    p_srv.add_argument("--seed", type=int, default=11,
                       help="storm generator seed")
    p_srv.add_argument("--classifier", choices=("keyword", "lda"),
                       default="keyword",
                       help="ticket classifier (lda = the paper's "
                            "pipeline, slower to train)")
    p_srv.add_argument("--json", action="store_true",
                       help="machine-readable summary on stdout")
    p_srv.add_argument("--daemon", action="store_true",
                       help="run as a persistent HTTP service instead of "
                            "a one-shot storm (SIGTERM drains gracefully)")
    p_srv.add_argument("--host", default="127.0.0.1",
                       help="daemon bind address (default 127.0.0.1)")
    p_srv.add_argument("--port", type=int, default=8377,
                       help="daemon port (default 8377; 0 = ephemeral)")
    p_srv.add_argument("--rate-limit", type=float, default=0.0,
                       help="per-org admission rate in tickets/second "
                            "(default 0 = unlimited)")
    p_srv.add_argument("--max-inflight", type=int, default=0,
                       help="accepted-but-unfinished ticket ceiling "
                            "(default 0 = unbounded)")
    p_srv.add_argument("--prewarm", metavar="CLASS", action="append",
                       default=None,
                       help="ticket class to prewarm before going ready "
                            "(repeatable, e.g. --prewarm T-1)")
    p_srv.add_argument("--db", metavar="PATH", default=None,
                       help="persist every served session (full forensic "
                            "trail) into the SQLite event store at PATH; "
                            "inspect later with 'repro replay'")
    p_srv.add_argument("--org", default="default",
                       help="tenant label stamped on persisted sessions")

    p_rep = sub.add_parser(
        "replay",
        help="reconstruct one session's full decision trail — ticket, "
             "classification, confining spec, every allow/deny — from "
             "the durable store alone, hash chains re-verified")
    p_rep.add_argument("session_id", nargs="?", default=None,
                       help="session id (e.g. default-b1-17); omit with "
                            "--latest for the most recent session")
    p_rep.add_argument("--db", metavar="PATH", default=None,
                       help="SQLite event store written by serve --db")
    p_rep.add_argument("--latest", action="store_true",
                       help="replay the most recently persisted session")
    p_rep.add_argument("--org", default=None,
                       help="with --latest: restrict to one tenant")
    p_rep.add_argument("--json", action="store_true",
                       help="machine-readable trail instead of the "
                            "rendered timeline")

    p_hist = sub.add_parser(
        "history",
        help="render the persisted benchmark trajectory as a time "
             "series; --import ingests BENCH_*.json report files")
    p_hist.add_argument("--db", metavar="PATH", default=None,
                        help="SQLite event store holding bench runs")
    p_hist.add_argument("--import", dest="imports", metavar="GLOB",
                        action="append", default=None,
                        help="experiment-report JSON file(s) to ingest "
                             "before rendering (repeatable; glob ok)")
    p_hist.add_argument("--name", default=None,
                        help="only show runs with this benchmark name")
    p_hist.add_argument("--limit", type=int, default=None,
                        help="most recent N runs")
    p_hist.add_argument("--json", action="store_true",
                        help="machine-readable rows")

    p_anom = sub.add_parser("anomaly", help="audit-log anomaly detection")
    p_anom.add_argument("--benign", type=int, default=40)
    p_anom.add_argument("--malicious", type=int, default=8)
    p_anom.add_argument("--threshold", type=float, default=6.0)

    p_met = sub.add_parser(
        "metrics", help="replay a workload and dump the metrics registry")
    p_met.add_argument("target", nargs="?", default="table1",
                       choices=INSTRUMENTED_TARGETS)
    p_met.add_argument("--json", action="store_true",
                       help="full JSON snapshot instead of the text report")
    p_met.add_argument("--prefix", default="",
                       help="only report metric names with this prefix")
    p_met.add_argument("--cache-capacity", type=int, default=4,
                       help="ITFS decision-cache bound for the table1 replay")

    p_tr = sub.add_parser(
        "trace", help="replay a workload and print the structured span tree")
    p_tr.add_argument("target", nargs="?", default="table1",
                      choices=INSTRUMENTED_TARGETS)
    p_tr.add_argument("--jsonl", action="store_true",
                      help="machine-readable span records, one per line")
    p_tr.add_argument("--limit", type=int, default=60,
                      help="most recent spans to show in the tree")
    p_tr.add_argument("--cache-capacity", type=int, default=4,
                      help="ITFS decision-cache bound for the table1 replay")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"demo": _cmd_demo, "experiment": _cmd_experiment,
                "threats": _cmd_threats, "chaos": _cmd_chaos,
                "lint": _cmd_lint, "lint-threads": _cmd_lint_threads,
                "verify-model": _cmd_verify_model,
                "mine": _cmd_mine,
                "anomaly": _cmd_anomaly, "serve": _cmd_serve,
                "replay": _cmd_replay, "history": _cmd_history,
                "metrics": _cmd_metrics, "trace": _cmd_trace}
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # `repro replay | head` closes stdout early; that is not an error.
        # Detach stdout so the interpreter's shutdown flush cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
