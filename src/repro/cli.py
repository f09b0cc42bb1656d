"""Command-line interface: ``python -m repro <command>``.

Mirrors the original artifact's ``run.sh <workload> <persistency model>``
workflow:

- ``run``     -- run one workload under one model; print (or save) a
  gem5-style stats.txt.
- ``compare`` -- run workloads across models and print speedup tables
  (Figure 8 style).
- ``crash``   -- crash a workload at a chosen cycle and print the
  Theorem 2 consistency report.
- ``timeline`` -- run one workload with event tracing on and export a
  Chrome-trace-format timeline (load it at https://ui.perfetto.dev)
  plus a per-epoch stall breakdown.
- ``lint``    -- static persistency analysis of a workload's op stream
  (no simulation); text/JSON/SARIF output and a CI-gate exit code.
- ``crashtest`` -- systematic crash-sweep campaign: crash at every
  epoch-commit boundary plus stratified-random cycles, adjudicate
  recovery with per-workload semantic oracles, minimize and serialize
  any failure for replay.
- ``litmus``  -- cross-validate the operational simulator against the
  axiomatic Px86/PTSO persistency model on a corpus of small litmus
  tests; any operationally-reachable state the axioms forbid is a
  simulator bug (exit 1).
- ``sample``  -- SimPoint-style sampled simulation: fingerprint the op
  stream, cluster it into phases, simulate only phase representatives,
  extrapolate full-run statistics; ``--validate`` runs the full
  simulation alongside and reports per-metric relative error.
- ``fabric``  -- the distributed experiment fabric: run a grid with
  content fingerprints (``grid``), attach an external worker to a
  shared queue (``worker``), or inspect a queue (``status``).
- ``serve``   -- long-running HTTP service over the fabric: POST
  experiment specs, poll job progress, repeat submissions answered
  from the shared result cache instantly.
- ``list``    -- enumerate workloads and models.

Model names come from the canonical registry
(:data:`repro.core.models.MODEL_REGISTRY`).  Every command that runs
specs builds its executor and result cache once, in
:func:`_executor_and_cache`, from ``--jobs N`` (process fan-out),
``--fabric`` and ``--cache-dir DIR`` (deterministic result reuse).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from repro.analysis.report import render_table, stall_breakdown_table
from repro.analysis.statsfile import format_stats, write_stats
from repro.core.api import PMAllocator
from repro.core.crash import run_and_crash
from repro.core.models import (
    MODEL_ALIASES,
    MODEL_REGISTRY,
    STANDARD_MODELS,
    resolve_model,
)
from repro.exp import (
    Executor,
    ExperimentPlan,
    ResultCache,
    RunSpec,
    make_executor,
    run_grid,
    run_plan,
)
from repro.sim.config import MachineConfig
from repro.verify import check_consistency
from repro.workloads import get_workload, workload_names
from repro.workloads.registry import MICROBENCHES, SUITE


# Aliases ("hops", "asap") resolve to their _rp designs, so accept them
# anywhere a canonical registry name is accepted.
_MODEL_CHOICE_NAMES = list(MODEL_REGISTRY) + list(MODEL_ALIASES)


def positive_int(text: str) -> int:
    """The argparse type of every size flag: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _machine_config(args) -> MachineConfig:
    return MachineConfig(num_cores=args.threads, num_mcs=args.mcs)


def _executor_and_cache(args) -> Tuple[Executor, Optional[ResultCache]]:
    """The executor and the result cache a command runs its specs with:
    ``make_executor(--jobs)``, or under ``--fabric`` (``fabric grid``:
    unless ``--serial``) the FabricExecutor that ``--jobs`` (two workers
    by default), ``--queue``, ``--stream`` and ``--chaos-kill`` describe.
    """
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    if not args.fabric:
        return make_executor(args.jobs), cache
    from repro.fabric import FabricExecutor

    return FabricExecutor(
        jobs=args.jobs or 2,
        queue_dir=args.queue,
        stream_path=args.stream,
        chaos_kill_after=args.chaos_kill,
    ), cache


def _fabric_only(args, command: str, hint: str) -> bool:
    """True, after saying so, if ``--queue``, ``--stream`` or
    ``--chaos-kill`` is given to a run without the fabric: only
    :func:`_executor_and_cache` reads them, and only for the fabric
    (exit 2, not silently ignored)."""
    given = [flag for flag, value in (("--queue", args.queue),
                                      ("--stream", args.stream),
                                      ("--chaos-kill", args.chaos_kill))
             if value is not None]
    if given:
        print(f"{command}: fabric-only flag(s) {', '.join(given)}; {hint}",
              file=sys.stderr)
    return bool(given)


def cmd_list(_args) -> int:
    print("workloads (Table III):")
    for cls in SUITE:
        print(f"  {cls.name:12s} [{cls.category}]")
    print("microbenchmarks:")
    for cls in MICROBENCHES:
        print(f"  {cls.name:12s} [{cls.category}]")
    print("models:")
    for name in MODEL_REGISTRY:
        print(f"  {name}")
    return 0


def cmd_run(args) -> int:
    spec = RunSpec(
        args.workload,
        args.model,
        machine=_machine_config(args),
        ops_per_thread=args.ops,
        seed=args.seed,
    )
    executor, cache = _executor_and_cache(args)
    outcome = run_plan(ExperimentPlan([spec]), cache=cache, executor=executor)
    result = outcome.results[0]
    text = format_stats(result.result)
    if args.stats:
        write_stats(result.result, args.stats)
        print(f"wrote {args.stats}")
    else:
        print(text, end="")
    return 0


def cmd_compare(args) -> int:
    names: List[str] = []
    for name in args.workloads or []:
        # group alias: "microbench" expands to the whole microbench set
        if name in ("microbench", "micro"):
            names.extend(cls.name for cls in MICROBENCHES)
        else:
            names.append(name)
    names = names or workload_names()
    models = (
        STANDARD_MODELS
        if not args.models
        else [resolve_model(m) for m in args.models]
    )
    executor, cache = _executor_and_cache(args)
    result = run_grid(
        names,
        models,
        machine=_machine_config(args),
        ops_per_thread=args.ops,
        seed=args.seed,
        cache=cache,
        executor=executor,
    )
    model_names = [m.name for m in models]
    baseline = model_names[0]
    rows = []
    for name in result.workloads:
        rows.append(
            [name]
            + [f"{result.speedup(name, m, over=baseline):.2f}"
               for m in model_names]
        )
    rows.append(
        ["geomean"]
        + [f"{result.geomean_speedup(m, over=baseline):.2f}"
           for m in model_names]
    )
    print(render_table(
        ["workload"] + model_names, rows,
        title=f"speedup over {baseline} "
              f"({args.threads} threads, {args.ops} ops/thread)",
    ))
    return 0


def cmd_timeline(args) -> int:
    from repro.obs import JSONLSink, RingBufferSink, StallProfiler
    from repro.obs.chrome import write_chrome_trace
    from repro.workloads.base import run_workload

    workload = get_workload(args.workload, ops_per_thread=args.ops,
                            seed=args.seed)
    run_config = resolve_model(args.model).run_config(seed=args.seed)
    ring = RingBufferSink()
    profiler = StallProfiler()
    sinks = [ring, profiler]
    jsonl = None
    if args.events:
        jsonl = JSONLSink(args.events)
        sinks.append(jsonl)
    try:
        run_workload(
            workload, _machine_config(args), run_config,
            num_threads=args.threads, sinks=sinks,
        )
    finally:
        if jsonl is not None:
            jsonl.close()
    write_chrome_trace(ring.events, args.out)
    print(f"wrote {args.out} ({ring.total_seen} events; open in Perfetto)")
    if jsonl is not None:
        print(f"wrote {args.events} ({jsonl.lines_written} JSONL events)")
    print()
    print(stall_breakdown_table(
        profiler.summary(),
        title=f"stall cycles by (core, epoch) -- {args.workload} on "
              f"{args.model}",
    ))
    return 0


def cmd_lint(args) -> int:
    from repro.lint import (
        LintConfig,
        LintError,
        Severity,
        lint_all,
        render_text,
        sarif,
    )

    if not args.all and not args.workload:
        print("lint: provide a workload name or --all", file=sys.stderr)
        return 2
    config = LintConfig(
        threads=args.threads,
        ops_per_thread=args.ops,
        seed=args.seed,
        detectors=list(args.detectors) if args.detectors else None,
        no_suppress=args.no_suppress,
    )
    names = None if args.all else [args.workload]
    try:
        reports, sources = lint_all(names, config)
    except (LintError, KeyError) as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    fail_on = Severity.parse(args.fail_on)

    if args.format == "sarif":
        text = sarif.dumps(sarif.to_sarif(reports, sources))
    elif args.format == "json":
        text = sarif.dumps(sarif.to_json(reports))
    else:
        text = render_text(reports, verbose=args.verbose)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)

    gate_ok = all(r.ok(fail_on) for r in reports)
    if not gate_ok:
        print(
            f"lint: findings at or above --fail-on={fail_on.label}",
            file=sys.stderr,
        )
    return 0 if gate_ok else 1


def cmd_crashtest(args) -> int:
    from repro.core.models import RP_MODELS
    from repro.crashtest import replay_failure, run_campaign
    from repro.workloads.registry import SUITE

    if not args.fabric and _fabric_only(args, "crashtest", "add --fabric"):
        return 2
    if args.replay:
        try:
            report = replay_failure(args.replay)
        except ValueError as exc:
            # e.g. a file that is not a saved crash state.
            print(f"crashtest: {exc}", file=sys.stderr)
            return 2
        verdict = "reproduced" if report["reproduced"] else "NOT reproduced"
        print(f"replay {args.replay}: {verdict}")
        print(f"  workload: {report['workload']}  "
              f"crash cycle: {report['crash_cycle']}  "
              f"surviving media lines: {report['media_lines']}")
        for v in report["generic_violations"]:
            print(f"  generic: {v}")
        for v in report["oracle_violations"]:
            print(f"  oracle:  {v}")
        return 0 if report["reproduced"] else 1

    if not args.all and not args.workload:
        print("crashtest: provide a workload name or --all", file=sys.stderr)
        return 2
    names = (
        [cls.name for cls in SUITE] if args.all else [args.workload]
    )
    models = (
        [resolve_model(m) for m in args.models]
        if args.models else list(RP_MODELS)
    )
    executor, cache = _executor_and_cache(args)
    report = run_campaign(
        names,
        models=models,
        machine=_machine_config(args),
        points=args.points,
        seed=args.seed,
        ops_per_thread=args.ops,
        cache=cache,
        save_dir=args.save_failures,
        executor=executor,
    )
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report.to_json())
        print(f"wrote {args.out}")
    print(report.summary())
    for path in report.saved_failures:
        print(f"minimized failing state: {path} "
              f"(replay with: repro crashtest --replay {path})")
    return 0 if report.ok else 1


def cmd_litmus(args) -> int:
    import json as _json

    from repro.litmus import (
        LitmusRunOptions,
        SMOKE_POINTS,
        build_corpus,
        families,
        run_litmus,
        smoke_corpus,
    )
    from repro.report import dumps as sarif_dumps

    if not args.fabric and _fabric_only(args, "litmus", "add --fabric"):
        return 2
    if args.list:
        tests = build_corpus(seed=args.seed, rand_count=args.count)
        for test in tests:
            print(f"  {test.name:20s} [{test.family}] "
                  f"{len(test.threads)} thread(s), {test.num_ops()} ops")
        print(f"families: {', '.join(families())}")
        return 0

    selected = sum(
        1 for opt in (args.name, args.family, args.smoke, args.all) if opt
    )
    if selected != 1:
        print(
            "litmus: provide exactly one of a test name, --family, "
            "--smoke, or --all",
            file=sys.stderr,
        )
        return 2
    if args.smoke:
        tests = smoke_corpus()
        points = args.points if args.points is not None else SMOKE_POINTS
    else:
        names = [args.name] if args.name else None
        try:
            tests = build_corpus(
                seed=args.seed,
                rand_count=args.count,
                family=args.family,
                names=names,
            )
        except KeyError as exc:
            print(f"litmus: {exc.args[0]}", file=sys.stderr)
            return 2
        points = args.points if args.points is not None else 24

    executor, cache = _executor_and_cache(args)
    options = LitmusRunOptions(
        points=points, seed=args.seed, cache=cache, executor=executor,
    )
    if args.models:
        options.models = [resolve_model(m) for m in args.models]
    report = run_litmus(tests, options)

    if args.format == "sarif":
        text = sarif_dumps(report.to_sarif())
    elif args.format == "json":
        text = _json.dumps(report.to_json(), indent=2)
    else:
        text = report.render_text(verbose=args.verbose)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    if args.save_disagreements:
        with open(args.save_disagreements, "w") as handle:
            _json.dump(report.disagreements_doc(), handle, indent=2,
                       sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.save_disagreements}")

    gate_ok = report.ok(args.fail_on)
    if not gate_ok:
        print(
            f"litmus: disagreements at --fail-on={args.fail_on} "
            f"({report.forbidden_count()} forbidden, "
            f"{report.unobserved_count()} unobserved)",
            file=sys.stderr,
        )
    return 0 if gate_ok else 1


def cmd_sample(args) -> int:
    import json as _json

    from repro.analysis.report import render_table
    from repro.sample import SampleConfig, run_sampled, validate_sampled

    try:
        config = SampleConfig(
            interval_ops=args.interval_ops,
            clusters=args.clusters,
            warmup_ops=args.warmup_ops,
            tail_intervals=args.tail_intervals,
        )
    except ValueError as exc:
        print(f"sample: {exc}", file=sys.stderr)
        return 2
    runner = validate_sampled if args.validate else run_sampled
    report = runner(
        args.workload, args.model, ops_per_thread=args.ops,
        num_threads=args.threads, seed=args.seed, config=config,
        machine_config=_machine_config(args),
    )

    headers = ["metric", "estimate", "margin"]
    if args.validate:
        headers += ["actual-error"]
    rows = []
    for name, est in report.estimates.items():
        row = [name, f"{est.value:,.0f}", f"{est.margin:.1%}"]
        if args.validate:
            err = report.errors.get(name)
            row.append("-" if err is None else f"{err:.2%}")
        rows.append(row)
    print(render_table(
        headers, rows,
        title=f"sampled {args.workload} on {report.model}: "
              f"{len(report.representatives)} representatives of "
              f"{report.num_intervals} intervals "
              f"({report.ops_simulated}/{report.ops_total} ops simulated, "
              f"{report.ops_ratio:.1f}x fewer)",
    ))
    if args.validate:
        print(f"geomean error {report.geomean_error:.2%} "
              f"(sampled {report.sampled_wall_s:.3f}s vs "
              f"full {report.full_wall_s:.3f}s)")
    if args.out:
        with open(args.out, "w") as handle:
            _json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0


def cmd_serve(args) -> int:
    from repro.fabric.serve import serve

    print(f"repro serve listening on http://{args.host}:{args.port} "
          f"({args.jobs} fabric worker(s))")
    print("POST /v1/experiments, GET /v1/jobs/<id>, GET /v1/stats, "
          "POST /v1/shutdown")
    serve(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        queue_dir=args.queue,
        cache_dir=args.cache_dir,
        verbose=not args.quiet,
    )
    print("repro serve: shut down cleanly")
    return 0


def cmd_fabric(args) -> int:
    import json as _json
    import os as _os

    if args.mode == "worker":
        from repro.fabric import worker_loop

        worker_id = args.worker_id or f"ext-{_os.getpid()}"
        print(f"fabric worker {worker_id} joining queue {args.queue}")
        completed = worker_loop(
            args.queue, worker_id, cache_dir=args.cache_dir,
            max_idle_s=args.max_idle,
        )
        print(f"fabric worker {worker_id} exited after {completed} task(s)")
        return 0

    if args.mode == "status":
        from repro.fabric import FabricQueue

        queue = FabricQueue(args.queue, create=False)
        doc = {
            "queue": str(queue.root),
            "tasks": len(queue.task_ids()),
            "leases": len(queue.lease_ids()),
            "results": len(queue.result_ids()),
            "stopped": queue.stopped(),
        }
        print(_json.dumps(doc, indent=2, sort_keys=True))
        return 0

    # grid: run a workloads x models plan through the fabric (or, with
    # --serial, in-process) and report content fingerprints per cell --
    # the document the CI fabric-gate byte-compares across substrates.
    from repro.fabric import fingerprint_sha

    if not args.fabric and _fabric_only(args, "fabric grid", "drop --serial"):
        return 2

    names = args.workloads or [cls.name for cls in MICROBENCHES]
    models = args.models or ["baseline", "asap_rp"]
    plan = ExperimentPlan.grid(
        names,
        models,
        machine=_machine_config(args),
        ops_per_thread=args.ops,
        num_threads=args.threads,
        seeds=(args.seed,),
    )
    executor, cache = _executor_and_cache(args)
    outcome = run_plan(plan, cache=cache, executor=executor)
    cells = [
        {
            "workload": spec.workload,
            "model": spec.model.name,
            "seed": spec.seed,
            "fingerprint_sha": fingerprint_sha(result),
        }
        for spec, result in outcome
    ]
    doc = {
        "kind": "fabric-grid",
        "workloads": names,
        "models": models,
        "ops": args.ops,
        "threads": args.threads,
        "seed": args.seed,
        "cells": cells,
    }
    for cell in cells:
        print(f"  {cell['workload']:>12s} {cell['model']:>12s}  "
              f"{cell['fingerprint_sha'][:16]}")
    mode = f"fabric jobs={args.jobs or 2}" if args.fabric else "serial"
    print(f"{len(cells)} cell(s) via {mode}; "
          f"cache hits {outcome.cache_hits}, misses {outcome.cache_misses}")
    if args.out:
        with open(args.out, "w") as handle:
            _json.dump(doc, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0


def cmd_crash(args) -> int:
    workload = get_workload(args.workload, ops_per_thread=args.ops,
                            seed=args.seed)
    heap = PMAllocator()
    programs = workload.programs(heap, args.threads)
    run_config = resolve_model(args.model).run_config(seed=args.seed)
    state = run_and_crash(
        _machine_config(args), run_config, programs, args.at,
    )
    report = check_consistency(state.log, state.media)
    survived = sum(1 for v in state.media.values() if v)
    print(f"crashed {args.workload} on {args.model} at cycle "
          f"{state.crash_cycle}")
    print(f"surviving lines: {survived}; "
          f"epochs damaged: {len(report.damaged)}, "
          f"surviving: {len(report.survivors)}")
    print(report.summary())
    return 0 if report.consistent else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ASAP (HPCA 2022) reproduction simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--threads", type=positive_int, default=4)
        p.add_argument("--mcs", type=positive_int, default=2)
        p.add_argument("--ops", type=positive_int, default=100,
                       help="operations per thread")
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--cache-dir", metavar="DIR",
                       help="reuse deterministic results cached here")

    def _fabric_flags(p):
        p.add_argument("--fabric", action="store_true",
                       help="run the sweep on the fault-tolerant "
                       "distributed fabric (survives worker death; "
                       "byte-identical output)")
        p.add_argument("--queue", metavar="DIR",
                       help="fabric queue directory (default: a private "
                       "temp dir; share one to attach external workers "
                       "via 'repro fabric worker')")
        p.add_argument("--stream", metavar="PATH",
                       help="append one JSONL progress line per "
                       "completed task here (incremental results)")
        p.add_argument("--chaos-kill", type=int, default=None, metavar="N",
                       help="fault injection: SIGKILL one fabric worker "
                       "after N completed tasks (the CI fabric-gate "
                       "hook)")

    p_list = sub.add_parser("list", help="list workloads and models")
    p_list.set_defaults(func=cmd_list)

    p_run = sub.add_parser("run", help="run one workload on one model")
    p_run.add_argument("workload")
    p_run.add_argument("--model", choices=_MODEL_CHOICE_NAMES,
                       default="asap_rp")
    p_run.add_argument("--stats", help="write gem5-style stats.txt here")
    common(p_run)
    p_run.set_defaults(func=cmd_run, jobs=None, fabric=False)

    p_cmp = sub.add_parser("compare", help="speedup table across models")
    p_cmp.add_argument("--workloads", nargs="*",
                       help="default: the full Table III suite")
    p_cmp.add_argument("--models", nargs="*", choices=_MODEL_CHOICE_NAMES,
                       help="first one is the normalization baseline")
    p_cmp.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="run grid cells across N worker processes")
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare, fabric=False)

    p_tl = sub.add_parser(
        "timeline",
        help="trace a run and export a Perfetto-viewable timeline",
    )
    p_tl.add_argument("workload")
    p_tl.add_argument("--model", choices=_MODEL_CHOICE_NAMES,
                      default="asap_rp")
    p_tl.add_argument("--out", default="timeline.json",
                      help="Chrome-trace-format output path")
    p_tl.add_argument("--events", metavar="PATH",
                      help="also write the raw event stream as JSONL here")
    common(p_tl)
    p_tl.set_defaults(func=cmd_timeline)

    from repro.lint import DETECTORS

    p_lint = sub.add_parser(
        "lint",
        help="static persistency analysis (no simulation)",
    )
    p_lint.add_argument("workload", nargs="?",
                        help="workload to lint (or use --all)")
    p_lint.add_argument("--all", action="store_true",
                        help="lint every stock workload (the CI gate set)")
    p_lint.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text")
    p_lint.add_argument("--out", metavar="PATH",
                        help="write the report here instead of stdout")
    p_lint.add_argument("--fail-on", choices=("note", "warning", "error"),
                        default="warning",
                        help="exit non-zero if any finding is at or above "
                        "this severity (default: warning)")
    p_lint.add_argument("--no-suppress", action="store_true",
                        help="ignore workload-declared suppressions")
    p_lint.add_argument("--detectors", nargs="*", metavar="NAME",
                        choices=sorted(DETECTORS),
                        help="run only these detectors "
                        f"(default: all of {sorted(DETECTORS)})")
    p_lint.add_argument("--verbose", action="store_true",
                        help="show suppressed findings with reasons")
    p_lint.add_argument("--threads", type=positive_int, default=4)
    p_lint.add_argument("--ops", type=positive_int, default=None,
                        help="operations per thread "
                        "(default: each workload's own default)")
    p_lint.add_argument("--seed", type=int, default=7)
    p_lint.set_defaults(func=cmd_lint)

    p_ct = sub.add_parser(
        "crashtest",
        help="systematic crash-sweep campaign with recovery oracles",
    )
    p_ct.add_argument("workload", nargs="?",
                      help="workload to sweep (or use --all)")
    p_ct.add_argument("--all", action="store_true",
                      help="sweep every stock Table III workload")
    p_ct.add_argument("--models", nargs="*", choices=_MODEL_CHOICE_NAMES,
                      metavar="MODEL",
                      help="models to sweep (default: baseline hops asap "
                      "eadr)")
    p_ct.add_argument("--points", type=positive_int, default=50, metavar="N",
                      help="crash points per (workload, model) cell "
                      "(default: 50)")
    p_ct.add_argument("--jobs", type=int, default=None, metavar="N",
                      help="run crash cells across N worker processes")
    p_ct.add_argument("--out", metavar="PATH",
                      help="write the canonical JSON campaign report here")
    p_ct.add_argument("--save-failures", metavar="DIR",
                      help="serialize minimized failing crash states here")
    p_ct.add_argument("--replay", metavar="FILE",
                      help="re-adjudicate a serialized failing state "
                      "(skips the sweep)")
    common(p_ct)
    _fabric_flags(p_ct)
    p_ct.set_defaults(func=cmd_crashtest, ops=24)

    p_lit = sub.add_parser(
        "litmus",
        help="cross-validate simulator vs axiomatic persistency model",
    )
    p_lit.add_argument("name", nargs="?",
                       help="one litmus test by name (see --list)")
    p_lit.add_argument("--family", metavar="FAMILY",
                       help="run every test of one family "
                       "(mp, sb, flush, epoch, rand)")
    p_lit.add_argument("--smoke", action="store_true",
                       help="the pinned golden-diffed CI gate subset")
    p_lit.add_argument("--all", action="store_true",
                       help="the full corpus (named + random family)")
    p_lit.add_argument("--list", action="store_true",
                       help="list corpus tests and exit")
    p_lit.add_argument("--models", nargs="*", choices=_MODEL_CHOICE_NAMES,
                       metavar="MODEL",
                       help="models to validate (default: baseline hops "
                       "asap eadr)")
    p_lit.add_argument("--points", type=positive_int, default=None,
                       metavar="N",
                       help="crash points per cell (default: 24; "
                       "--smoke pins its own)")
    p_lit.add_argument("--seed", type=int, default=7)
    p_lit.add_argument("--count", type=int, default=4, metavar="N",
                       help="random-family tests to generate (default: 4)")
    p_lit.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="run cells across N worker processes")
    p_lit.add_argument("--cache-dir", metavar="DIR",
                       help="reuse deterministic results cached here")
    p_lit.add_argument("--format", choices=("text", "json", "sarif"),
                       default="text")
    p_lit.add_argument("--out", metavar="PATH",
                       help="write the report here instead of stdout")
    p_lit.add_argument("--fail-on", choices=("forbidden", "any", "never"),
                       default="forbidden",
                       help="exit non-zero on: forbidden states only "
                       "(default), any disagreement, or never")
    p_lit.add_argument("--save-disagreements", metavar="PATH",
                       help="write the canonical disagreement document "
                       "here (the golden-diffed CI artifact)")
    p_lit.add_argument("--verbose", action="store_true",
                       help="also print unobserved (too-strong) states")
    _fabric_flags(p_lit)
    p_lit.set_defaults(func=cmd_litmus)

    p_sample = sub.add_parser(
        "sample",
        help="SimPoint-style sampled simulation with extrapolated stats",
    )
    p_sample.add_argument("workload")
    p_sample.add_argument("--model", choices=_MODEL_CHOICE_NAMES,
                          default="asap_rp")
    p_sample.add_argument("--validate", action="store_true",
                          help="also run the full simulation and report "
                          "per-metric relative error")
    p_sample.add_argument("--interval-ops", type=int, default=75,
                          metavar="N",
                          help="ops per fingerprint interval (default: 75)")
    p_sample.add_argument("--clusters", type=int, default=None, metavar="K",
                          help="interior phase count (default: adaptive)")
    p_sample.add_argument("--warmup-ops", type=int, default=25, metavar="N",
                          help="fully-simulated warm-up ops before each "
                          "representative (default: 25)")
    p_sample.add_argument("--tail-intervals", type=int, default=3,
                          metavar="N",
                          help="trailing intervals simulated exactly "
                          "(default: 3)")
    p_sample.add_argument("--out", metavar="PATH",
                          help="write the JSON sample report here")
    common(p_sample)
    # sampling only pays off on longer streams than the 100-op default.
    p_sample.set_defaults(func=cmd_sample, ops=2000)

    p_serve = sub.add_parser(
        "serve",
        help="long-running HTTP experiment service over the fabric",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642)
    p_serve.add_argument("--jobs", type=int, default=2, metavar="N",
                         help="fabric worker processes (default: 2)")
    p_serve.add_argument("--queue", metavar="DIR",
                         help="fabric queue directory (default: a "
                         "private temp dir)")
    p_serve.add_argument("--cache-dir", metavar="DIR",
                         help="shared result store; repeat submissions "
                         "are answered from here instantly")
    p_serve.add_argument("--quiet", action="store_true",
                         help="suppress per-request access logging")
    p_serve.set_defaults(func=cmd_serve)

    p_fab = sub.add_parser(
        "fabric",
        help="distributed experiment fabric: grid / worker / status",
    )
    fab = p_fab.add_subparsers(dest="mode", required=True)

    p_grid = fab.add_parser(
        "grid",
        help="run a workloads x models plan and print content fingerprints",
    )
    p_grid.add_argument("--workloads", nargs="*", metavar="NAME",
                        help="grid rows (default: the microbench set)")
    p_grid.add_argument("--models", nargs="*", choices=_MODEL_CHOICE_NAMES,
                        metavar="MODEL",
                        help="grid columns (default: baseline asap_rp)")
    substrate = p_grid.add_mutually_exclusive_group()
    substrate.add_argument("--jobs", type=int, default=None, metavar="N",
                           help="fabric worker processes (default: 2)")
    substrate.add_argument("--serial", dest="fabric", action="store_false",
                           help="bypass the fabric and run in-process (the "
                           "reference for byte-identity checks)")
    p_grid.add_argument("--out", metavar="PATH",
                        help="write the canonical grid document here")
    p_grid.add_argument("--queue", metavar="DIR",
                        help="fabric queue directory (default: a private "
                        "temp dir)")
    p_grid.add_argument("--stream", metavar="PATH",
                        help="append one JSONL line per completed task")
    p_grid.add_argument("--chaos-kill", type=int, default=None, metavar="N",
                        help="SIGKILL one worker after N completed tasks")
    common(p_grid)

    p_worker = fab.add_parser(
        "worker", help="attach an external worker to a queue directory",
    )
    p_worker.add_argument("--queue", metavar="DIR", required=True,
                          help="the queue directory to claim tasks from")
    p_worker.add_argument("--cache-dir", metavar="DIR",
                          help="shared result store: hits skip simulation, "
                          "fresh results are written back")
    p_worker.add_argument("--worker-id", metavar="ID",
                          help="stable worker name (default: ext-<pid>)")
    p_worker.add_argument("--max-idle", type=float, default=None,
                          metavar="S",
                          help="exit after S seconds with nothing to claim")

    p_status = fab.add_parser("status", help="inspect a queue directory")
    p_status.add_argument("--queue", metavar="DIR", required=True,
                          help="the queue directory to inspect")
    p_fab.set_defaults(func=cmd_fabric)

    p_crash = sub.add_parser("crash", help="crash a run and check recovery")
    p_crash.add_argument("workload")
    p_crash.add_argument("--model", choices=_MODEL_CHOICE_NAMES,
                         default="asap_rp")
    p_crash.add_argument("--at", type=int, required=True,
                         help="crash cycle")
    common(p_crash)
    p_crash.set_defaults(func=cmd_crash)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
