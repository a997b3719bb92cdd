"""One registry of every experiment: the ``python -m repro`` commands
and the sweep farm's job kinds.

Each :class:`Experiment` declares its flags, how to run, render and
judge it, its default seeds and, for a golden-backed suite, where its
fingerprints are pinned (checked through :mod:`repro.goldens`).  The
entries share a few ``main`` functions: figures (``run(quick)``
returns result tables), scenario sweeps (``chaos``, ``verify``: one
run per (scenario, seed), text or one JSON document, or farmed with
``--parallel``), golden suites (``rebalance``, ``protocols``), single
reports (``trace``, ``metrics``, ``repair``, ``bench``), and ``scale``
and ``sweep``.  Entries with ``jobs``/``job`` are the kinds of
:mod:`repro.harness.farm`: ``jobs(scenarios, seeds, quick)`` expands a
sweep and ``job(experiment, job)`` runs one job, returning its
``(scenario, ok, report)``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import goldens, verify
from ..chaos import SCENARIOS, run_scenario
from ..metrics.histogram import Summary
from ..obs import (containment_violations, critical_path, render_tree,
                   spans_named)
from . import bench, protocols, rebalance, scale
from .experiments import (run_clock_skew_sweep, run_commit_wait_ablation,
                          run_fig3, run_fig4a, run_fig4b, run_fig4c,
                          run_fig5, run_fig6, run_lead_time_ablation,
                          run_side_transport_ablation, run_table1,
                          run_table2)
from .tracing import run_traced_workload

__all__ = ["Experiment", "REGISTRY", "FIGURES", "COMMANDS"]

Flag = Tuple[Tuple[str, ...], Dict[str, Any]]


def flag(*names: str, **options: Any) -> Flag:
    return names, options


@dataclass(frozen=True)
class Experiment:
    name: str
    description: str = ""
    flags: Tuple[Flag, ...] = ()
    #: CLI entry ``main(experiment, args) -> exit code``; figures have
    #: none and share the top-level ``python -m repro <name>`` parser.
    main: Optional[Callable[..., int]] = None
    run: Optional[Callable[..., Any]] = None
    render: Optional[Callable[..., str]] = None
    ok: Callable[[Any], bool] = lambda result: bool(result.ok)
    #: Golden suites: ``fingerprint(suite) -> {entry: fingerprint}``,
    #: pinned in ``golden = (file, section)``.
    fingerprint: Optional[Callable[[Any], Dict[str, Any]]] = None
    golden: Optional[Tuple[str, str]] = None
    seeds: Tuple[int, ...] = (0,)
    jobs: Optional[Callable[..., List[Dict[str, Any]]]] = None
    job: Optional[Callable[..., Tuple[str, bool, Any]]] = None

    def parser(self) -> argparse.ArgumentParser:
        parser = argparse.ArgumentParser(prog=f"python -m repro {self.name}",
                                         description=self.description)
        for names, options in self.flags:
            parser.add_argument(*names, **options)
        return parser


# -- shared flags and helpers ----------------------------------------------

SEED = flag("--seed", type=int, default=0,
            help="single seed to run (default 0)")
SEEDS = flag("--seeds", type=int, default=1, metavar="K",
             help="run seeds 0..K-1 instead of --seed")
JSON = flag("--json", action="store_true",
            help="emit machine-readable JSON")
PARALLEL = flag("--parallel", type=int, default=1, metavar="N",
                help="farm runs across N worker processes "
                     "(deterministic merge; text output is the merged "
                     "summary)")
PROTOCOL = flag("--protocol", default="crdb", choices=["crdb", "epoch-occ"],
                help="transaction backend the clients run on "
                     "(default crdb)")


def _seeds(args, default) -> List[int]:
    """``--seeds K`` (K > 1, or with no ``--seed``) runs 0..K-1; else
    ``--seed``; else the experiment's default seeds."""
    if args.seeds is not None and (args.seeds > 1 or args.seed is None):
        return list(range(args.seeds))
    return [args.seed] if args.seed is not None else list(default)


def _farm(jobs, workers: int, as_json: bool, label: str,
          out: Optional[str] = None, render=None) -> int:
    """Farm ``jobs``; print the merged document, ``render(doc)``, or a
    per-run summary headed by ``label``."""
    from .farm import dumps_sweep, merge_results, render_sweep, run_farm

    start = time.time()
    doc = merge_results(run_farm(jobs, workers=workers))
    serialized = dumps_sweep(doc)
    if out:
        with open(out, "w") as fh:
            fh.write(serialized + "\n")
    if as_json or render is not None:
        print(serialized if as_json else render(doc))
    else:
        print(f"{label}: {len(jobs)} runs on {workers} workers\n"
              f"{render_sweep(doc)}\n[{time.time() - start:.1f}s wall]")
    return 0 if doc["ok"] else 1


# -- figures ---------------------------------------------------------------


def _figure(name, run, quick=None, full=None, tables=lambda r: [r.table()]):
    return Experiment(name, run=lambda is_quick: tables(
        run(**((quick if is_quick else full) or {}))))


FIGURES = (
    _figure("table1", run_table1, tables=lambda table: [table]),
    _figure("fig3", run_fig3, quick=dict(clients_per_region=1,
                                         ops_per_client=15)),
    _figure("fig4a", run_fig4a, quick=dict(clients_per_region=1,
                                           ops_per_client=25)),
    _figure("fig4b", run_fig4b, quick=dict(clients_per_region=1,
                                           ops_per_client=30)),
    _figure("fig4c", run_fig4c, quick=dict(ops_per_client=25)),
    _figure("fig5", run_fig5,
            quick=dict(clients_per_region=2, ops_per_client=20,
                       keys_per_region=40),
            full=dict(clients_per_region=4, ops_per_client=40,
                      keys_per_region=40)),
    _figure("fig6", run_fig6, quick=dict(region_counts=(4, 10),
                                         txns_per_client=8)),
    _figure("table2", run_table2),
    _figure("ablations", lambda: (run_lead_time_ablation(),
                                  run_commit_wait_ablation(),
                                  run_side_transport_ablation()),
            tables=list),
    _figure("clockskew", run_clock_skew_sweep, quick=dict(n_ops=8),
            tables=lambda table: [table]),
)


# -- scenario sweeps: chaos, verify ----------------------------------------


#: Every name ``verify --scenario`` accepts, for the CLI and the farm.
VERIFY_VALID = (set(verify.VERIFY_SCENARIOS)
                | {"none", verify.OCC_ABLATION_SCENARIO})


def _scenario_jobs(kind: str, default, valid):
    def jobs(scenarios, seeds, quick=True, protocol=None):
        names = (list(default) if scenarios is None
                 else [s for s in scenarios if s in valid])
        extra = {} if protocol is None else {"protocol": protocol}
        return [{"kind": kind, "scenario": name, "seed": seed, **extra}
                for name in names for seed in seeds]
    return jobs


def _scenario_job(exp: Experiment, job) -> Tuple[str, bool, Any]:
    result = exp.run(job["scenario"], job["seed"], job.get("protocol"))
    return job["scenario"], exp.ok(result), result.to_json()


def _run_scenarios(exp: Experiment, args, names, protocol) -> int:
    """Each (scenario, seed) once: text, one JSON document, or farmed."""
    seeds = _seeds(args, exp.seeds)
    if args.parallel > 1:
        return _farm(exp.jobs(names, seeds, protocol=protocol),
                     args.parallel, args.json, f"{exp.name} sweep")
    dump = getattr(args, "dump", None)
    violated = dumped = False
    runs = []
    for name in names:
        for seed in seeds:
            start = time.time()
            result = exp.run(name, seed, protocol)
            if args.json:
                runs.append(dict(result.to_json(),
                                 wall_s=round(time.time() - start, 2)))
            else:
                print(result.render())
                print(f"[{name} seed={seed} finished in "
                      f"{time.time() - start:.1f}s wall]\n")
            if dump and not dumped:
                # The file holds the first anomalous history (or, with
                # everything clean so far, the most recent clean run).
                result.history.dump(dump)
                dumped = not exp.ok(result)
            violated = violated or not exp.ok(result)
    if args.json:
        print(json.dumps({"ok": not violated, "runs": runs}, indent=2))
    return 1 if violated else 0


def _unknown_scenario(names, valid) -> bool:
    unknown = [name for name in names if name not in valid]
    if unknown:
        print(f"unknown scenario {unknown[0]!r} (try 'list')", file=sys.stderr)
    return bool(unknown)


def _chaos_main(exp: Experiment, args) -> int:
    protocol = None if args.protocol == "crdb" else args.protocol
    if args.scenario == "list":
        print("\n".join(sorted(SCENARIOS)))
        return 0
    names = sorted(SCENARIOS) if args.scenario == "all" else [args.scenario]
    if _unknown_scenario(names, SCENARIOS):
        return 2
    if protocol is not None:
        # The open-loop overload scenarios drive their own harness and
        # take no protocol override; drop them from 'all' with a note.
        skipped = [n for n in names if n.startswith("overload")]
        if skipped:
            if args.scenario != "all":
                print(f"{args.scenario!r} does not support --protocol "
                      f"(open-loop overload harness)", file=sys.stderr)
                return 2
            names = [n for n in names if not n.startswith("overload")]
            print(f"[skipping {', '.join(skipped)}: no protocol override]",
                  file=sys.stderr)
    return _run_scenarios(exp, args, names, protocol)


def _verify_main(exp: Experiment, args) -> int:
    if args.check is not None:
        report = verify.check(verify.VerifyHistory.load(args.check))
        print(report.dumps() if args.json else report.render())
        return 0 if report.ok else 1
    protocol = None if args.protocol == "crdb" else args.protocol
    if args.scenario == "list":
        print("\n".join(["none"] + verify.VERIFY_SCENARIOS
                        + [verify.OCC_ABLATION_SCENARIO]))
        return 0
    names = ((verify.OCC_SWEEP_SCENARIOS if protocol == "epoch-occ"
              else verify.VERIFY_SCENARIOS) if args.scenario == "all"
             else list(verify.CLOCK_SCENARIOS) if args.scenario == "clock"
             else [args.scenario])
    if _unknown_scenario(names, VERIFY_VALID):
        return 2
    if args.parallel > 1 and args.dump:
        print("--parallel cannot dump histories (workers are "
              "shared-nothing); rerun the offending seed alone",
              file=sys.stderr)
        return 2
    return _run_scenarios(exp, args, names, protocol)


# -- golden suites: rebalance, protocols -----------------------------------


def _suite_flags(audit: str) -> Tuple[Flag, ...]:
    return (
        flag("--seed", type=int, default=None,
             help="single seed to run (default: the golden set 0,1,2)"),
        flag("--seeds", type=int, default=None, metavar="K",
             help="run seeds 0..K-1"),
        JSON,
        flag("--update-golden", action="store_true",
             help="rewrite the golden file from this run"),
        flag("--no-golden", action="store_true",
             help=f"skip the golden comparison ({audit})"))


def _suite_main(exp: Experiment, args) -> int:
    suite = exp.run(_seeds(args, exp.seeds))
    path, section = exp.golden
    failures = []
    if args.update_golden or not args.no_golden:
        failures = goldens.check(path, exp.fingerprint(suite), section,
                                 update_golden=args.update_golden)
    if args.json:
        suite["golden_failures"] = failures
        print(json.dumps(suite, indent=2, sort_keys=True))
    else:
        print(exp.render(suite))
        if args.update_golden:
            print("golden fingerprints updated")
        elif failures:
            print("\n  ".join(["GOLDEN FINGERPRINT MISMATCHES:"] + failures))
        elif not args.no_golden:
            print("fingerprints match committed golden")
    return 0 if exp.ok(suite) and not failures else 1


def _render_rebalance(suite) -> str:
    return "\n".join(
        f"{rebalance.render_rebalance(entry['elastic'])}\n"
        f"{rebalance.render_rebalance(entry['legacy'])}\n"
        for entry in suite["runs"].values())


# -- single reports: trace, metrics, repair, bench -------------------------


def _report_main(exp: Experiment, args) -> int:
    result = exp.run(args)
    print(exp.render(result, args))
    return 0 if exp.ok(result) else 1


OBSERVE_FLAGS = (
    flag("--workload", default="movr", choices=["movr", "kv"],
         help="traced workload to run (default movr)"),
    flag("--scenario", default=None, metavar="NAME",
         help="observe a chaos scenario instead of a workload"),
    SEED, JSON)


def _observed_run(args):
    """Run the workload or scenario named by ``args``; returns
    (title, Observability) with the run's spans and metrics attached."""
    if args.scenario is not None:
        if args.scenario not in SCENARIOS:
            raise SystemExit(
                f"unknown scenario {args.scenario!r} "
                f"(try: {', '.join(sorted(SCENARIOS))})")
        result = run_scenario(args.scenario, args.seed)
        return f"chaos scenario {args.scenario!r}", result.harness.sim.obs
    engine = run_traced_workload(args.workload, seed=args.seed)
    return f"workload {args.workload!r}", engine.cluster.sim.obs


def _render_trace(observed, args) -> str:
    title, obs = observed
    tracer = obs.tracer
    if args.json:
        return tracer.to_json()
    roots = tracer.roots
    lines = [f"trace for {title} (seed={args.seed}) — "
             f"{len(roots)} root spans"]
    lines += [render_tree(root) for root in roots]

    slowest = max(roots, key=lambda r: (r.duration_ms, -r.span_id))
    lines.append(f"critical path (slowest root, "
                 f"{slowest.duration_ms:.3f}ms total):")
    lines += [f"  {span.name} #{span.span_id} {span.duration_ms:.3f}ms"
              for span in critical_path(slowest)]

    waits = [s for r in roots for s in spans_named(r, "txn.commit_wait")]
    txns = [s for r in roots for s in spans_named(r, "txn")]
    lines.append("commit-wait breakdown:")
    for span in waits:
        root_ms = span.root().duration_ms
        share = 100.0 * span.duration_ms / root_ms if root_ms else 0.0
        lines.append(f"  txn {span.tags.get('txn_id')}: waited "
                     f"{span.duration_ms:.3f}ms ({share:.0f}% of its root "
                     f"span)")
    if waits:
        lines.append(
            f"  total: {sum(s.duration_ms for s in waits):.3f}ms commit "
            f"wait across {sum(s.duration_ms for s in txns):.3f}ms of "
            f"transaction time")
    else:
        lines.append("  (no commit waits)")

    violations = [v for r in roots for v in containment_violations(r)]
    if violations:
        lines.append(f"containment warnings ({len(violations)}):")
        lines += [f"  {violation}" for violation in violations]
    return "\n".join(lines)


def _render_metrics(observed, args) -> str:
    title, obs = observed
    registry = obs.registry
    if not args.json:
        return (f"metrics for {title} (seed={args.seed})\n"
                + registry.render(prefix=args.prefix))
    snapshot = registry.snapshot()
    if args.prefix:
        snapshot = {kind: {key: value for key, value in table.items()
                           if key.startswith(args.prefix)}
                    for kind, table in snapshot.items()}
    return json.dumps(snapshot, indent=2, sort_keys=True)


# -- repair ----------------------------------------------------------------

REPAIR_SCENARIOS = ("kill-node-repair", "region-loss-repair")


def _render_repair(results, args) -> str:
    return "\n".join(map(_render_repair_run, results))


def _render_repair_run(result) -> str:
    harness = result.harness
    metrics = harness.repair_queue.metrics
    guard = harness.range.group.config_guard
    lines = [f"repair scenario {result.name!r} (seed={result.seed}) — "
             f"{result.duration_ms:.0f}ms sim",
             "  liveness transitions:"]
    lines += [f"    t={when:8.1f}ms  n{node_id}: {old} -> {new}"
              for when, node_id, old, new in harness.liveness.transitions]
    if not harness.liveness.transitions:
        lines.append("    (none)")
    lines.append("  repair actions:")
    for kind in sorted(set(metrics.actions) | set(metrics.failures)):
        lines.append(f"    {kind:28s} done={metrics.actions.get(kind, 0)} "
                     f"failed={metrics.failures.get(kind, 0)}")
    if not metrics.actions and not metrics.failures:
        lines.append("    (none)")
    ttr = Summary(metrics.time_to_repair_ms)
    lines += [
        f"  time-to-repair: n={ttr.count} p50={ttr.p50:.0f}ms "
        f"max={ttr.max:.0f}ms (detection-to-healthy, scan-quantized)",
        f"  scans={metrics.scans} "
        f"under-replicated={metrics.under_replicated_ranges} "
        f"config-changes={guard.changes} "
        f"max-inflight-changes={guard.max_inflight}",
        "  invariants:",
        result.report.render(),
        f"  => {'OK' if result.ok else 'INVARIANT VIOLATIONS'}\n",
    ]
    return "\n".join(lines)


# -- bench -----------------------------------------------------------------

#: The deterministic subset of a bench row: wall-clock-derived fields
#: (wall_s, events_per_sec) and allocation counters vary run to run
#: and are excluded from farm output by construction.
_BENCH_DETERMINISTIC_KEYS = ("workload", "seed", "obs", "scale", "ops",
                             "sim_ms", "events", "latency_p50_ms",
                             "latency_p99_ms")


def _bench_run(args):
    return bench.bench_suite(
        [args.workload] if args.workload else list(bench.BENCH_WORKLOADS),
        seed=args.seed, obs_modes=[args.obs] if args.obs else ["full", "off"],
        scale=args.scale, measure_allocs=args.alloc,
        log=None if args.json else print)


def _bench_jobs(scenarios, seeds, quick=True):
    names = (list(bench.BENCH_WORKLOADS) if scenarios is None
             else [s for s in scenarios if s in bench.BENCH_WORKLOADS])
    return [{"kind": "bench", "workload": name, "seed": seed, "obs": obs}
            for name in names for seed in seeds for obs in ("full", "off")]


def _bench_job(exp: Experiment, job) -> Tuple[str, bool, Any]:
    obs = job.get("obs", "full")
    row = bench.run_bench(job["workload"], seed=job["seed"], obs=obs,
                          scale=job.get("scale", 0.25),
                          measure_allocs=False, repeats=1)
    return (f"{job['workload']}/obs-{obs}", True,
            {key: row[key] for key in _BENCH_DETERMINISTIC_KEYS})


# -- scale -----------------------------------------------------------------


def _scale_main(exp: Experiment, args) -> int:
    if args.seeds is not None:
        return _farm(exp.jobs(None, range(args.seeds)), args.parallel,
                     args.json, "scale", render=_render_scale_curves)
    doc = scale.run_scale(seed=args.seed, quick=args.quick or args.smoke)
    if not args.smoke:
        print(json.dumps(doc, indent=2) if args.json
              else scale.render_scale(doc))
        return 0 if doc["gates"]["ok"] else 1

    stored = {}
    if os.path.exists(scale.RESULTS_PATH):
        with open(scale.RESULTS_PATH) as fh:
            stored = json.load(fh)
    failures = scale.check_scale_regression(doc, stored.get("smoke", {}))
    stored["smoke_latest"] = doc
    if args.update_baseline or "smoke" not in stored:
        stored["smoke"] = doc
        print("scale smoke baseline updated")
    with open(scale.RESULTS_PATH, "w") as fh:
        json.dump(stored, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(scale.render_scale(doc))
    if failures:
        print("\nREGRESSION vs committed baseline:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nno regression vs committed baseline (tolerance 25%)")
    return 0


def _render_scale_curves(doc) -> str:
    curves = "".join(f"{scale.render_scale(run['report'])}\n\n"
                     for run in doc["runs"])
    return curves + f"=> {doc['total']} seeds, " + (
        "all gates ok" if doc["ok"]
        else "GATE FAILURES: " + ", ".join(doc["failed"]))


def _scale_jobs(scenarios, seeds, quick=True):
    return [{"kind": "scale", "seed": seed, "quick": quick} for seed in seeds]


def _scale_job(exp: Experiment, job) -> Tuple[str, bool, Any]:
    doc = scale.run_scale(seed=job["seed"], quick=job.get("quick", True))
    return "scale-curve", doc["gates"]["ok"], doc


# -- sweep -----------------------------------------------------------------


def _sweep_main(exp: Experiment, args) -> int:
    from .farm import SWEEP_KINDS, default_workers, sweep_jobs

    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    for kind in kinds:
        if kind not in SWEEP_KINDS:
            print(f"unknown sweep kind {kind!r} "
                  f"(valid: {', '.join(SWEEP_KINDS)})", file=sys.stderr)
            return 2
    scenarios = (None if args.scenarios is None else
                 [s.strip() for s in args.scenarios.split(",") if s.strip()])
    jobs = sweep_jobs(kinds, scenarios, range(max(1, args.seeds)))
    if not jobs:
        print("no jobs matched the requested kinds/scenarios",
              file=sys.stderr)
        return 2
    return _farm(jobs, default_workers(args.parallel), args.json, "sweep",
                 out=args.out)


# -- the registry ----------------------------------------------------------

_SUITE = dict(main=_suite_main, ok=lambda suite: suite["ok"],
              seeds=(0, 1, 2))
_SINGLE = dict(main=_report_main, ok=lambda result: True)

COMMANDS = (
    Experiment(
        "chaos", "Run a nemesis chaos scenario and audit invariants.",
        (flag("scenario", help="scenario name, 'all', or 'list'"),
         SEED, SEEDS, JSON, PARALLEL, PROTOCOL),
        main=_chaos_main,
        run=lambda name, seed, protocol: run_scenario(
            name, seed, txn_protocol=protocol),
        jobs=_scenario_jobs("chaos", sorted(SCENARIOS), SCENARIOS),
        job=_scenario_job),
    Experiment(
        "verify", "Run the randomized transactional workload under a chaos "
        "scenario and check its history for anomalies (Elle-style).",
        (flag("--scenario", default="none",
              help="chaos scenario name, 'none' (fault-free), 'all' (the "
                   "verify sweep set, or with --protocol epoch-occ the OCC "
                   "sweep set), 'clock' (the clock faults), or 'list'"),
         SEED, SEEDS, JSON,
         flag("--dump", metavar="FILE", default=None,
              help="write the first anomalous (else the last) history to "
                   "FILE; incompatible with --parallel"),
         flag("--check", metavar="FILE", default=None,
              help="re-check a dumped history file instead of running"),
         PARALLEL, PROTOCOL),
        main=_verify_main,
        run=lambda name, seed, protocol: verify.run_verify(
            name, seed, protocol=protocol),
        jobs=_scenario_jobs("verify", verify.VERIFY_SCENARIOS, VERIFY_VALID),
        job=_scenario_job),
    Experiment(
        "repair", "Run the self-healing scenarios and report liveness, "
        "repair actions, and time-to-repair.",
        (flag("--scenario", default=None, choices=REPAIR_SCENARIOS,
              help="run only this repair scenario (default both)"), SEED),
        main=_report_main,
        run=lambda args: [run_scenario(name, args.seed) for name in (
            [args.scenario] if args.scenario else REPAIR_SCENARIOS)],
        render=_render_repair,
        ok=lambda results: all(result.ok for result in results)),
    Experiment(
        "rebalance", "Run the elastic-keyspace experiment (splits, a "
        "follow-the-workload lease move, merges; plus the elasticity-off "
        "legacy run) against REBALANCE_golden.json.",
        _suite_flags("gates still apply"),
        run=rebalance.run_rebalance_suite, render=_render_rebalance,
        fingerprint=lambda suite: {seed: entry["fingerprints"] for
                                   seed, entry in suite["runs"].items()},
        golden=("REBALANCE_golden.json", "seeds"), **_SUITE),
    Experiment(
        "protocols", "Run both transaction protocols (crdb, epoch-occ) on "
        "the same contended workload and leaseholder partition against "
        "PROTOCOLS_golden.json.",
        _suite_flags("the counter audit still applies"),
        run=protocols.run_protocols_suite, render=protocols.render_protocols,
        fingerprint=lambda suite: suite["fingerprints"],
        golden=("PROTOCOLS_golden.json", "fingerprints"), **_SUITE),
    Experiment(
        "trace", "Run a deterministic workload (or chaos scenario) and "
        "render its span trees, critical path, and commit waits.",
        OBSERVE_FLAGS, run=_observed_run, render=_render_trace, **_SINGLE),
    Experiment(
        "metrics", "Run a deterministic workload (or chaos scenario) and "
        "print its metrics registry snapshot.",
        OBSERVE_FLAGS + (flag("--prefix", default=None, metavar="NAME",
                              help="only instruments starting with NAME"),),
        run=_observed_run, render=_render_metrics, **_SINGLE),
    Experiment(
        "scale", "Open-loop saturation sweep: p50/p99/goodput curves with "
        "admission control on, plus the protections-off collapse baseline.",
        (SEED,
         flag("--seeds", type=int, default=None, metavar="K",
              help="run quick curves for seeds 0..K-1 instead"),
         flag("--parallel", type=int, default=1, metavar="N",
              help="with --seeds: farm the curves across N processes"),
         flag("--quick", action="store_true",
              help="reduced sweep (1x and 4x, shorter arrival window)"),
         JSON,
         flag("--smoke", action="store_true",
              help="quick sweep gated against SCALE_results.json (exit 1 "
                   "on a >25%% regression or a failed gate)"),
         flag("--update-baseline", action="store_true",
              help="with --smoke: promote the run to the baseline")),
        main=_scale_main, jobs=_scale_jobs, job=_scale_job),
    Experiment(
        "bench", "Run the fixed-seed engine benchmarks (scripts/bench.py "
        "maintains BENCH_results.json).",
        (flag("--workload", default=None, choices=bench.BENCH_WORKLOADS,
              help="run only this workload (default: all)"),
         flag("--obs", default=None, choices=["full", "off"],
              help="run only this obs mode (default: both)"),
         SEED,
         flag("--scale", type=float, default=1.0,
              help="op-count multiplier (default 1.0)"),
         flag("--alloc", action="store_true",
              help="add a separate tracemalloc pass"),
         JSON),
        run=_bench_run,
        render=lambda rows, args: (
            json.dumps(rows, indent=2, sort_keys=True) if args.json
            else bench.render_rows(rows)),
        jobs=_bench_jobs, job=_bench_job, **_SINGLE),
    Experiment(
        "sweep", "Farm kinds x scenarios x seeds across worker processes "
        "into one deterministic document.",
        (flag("--kinds", default="chaos,verify",
              help="comma-separated subset of chaos,verify,scale,bench"),
         flag("--scenarios", default=None, metavar="NAMES",
              help="comma-separated scenario names (default: all)"),
         flag("--seeds", type=int, default=1, metavar="K",
              help="run seeds 0..K-1 (default 1)"),
         flag("--parallel", type=int, default=None, metavar="N",
              help="worker processes (default: one per core, at most 8)"),
         JSON,
         flag("--out", metavar="FILE", default=None,
              help="also write the merged document to FILE")),
        main=_sweep_main),
)

REGISTRY: Dict[str, Experiment] = {exp.name: exp
                                   for exp in FIGURES + COMMANDS}
