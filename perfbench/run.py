"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload movr --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each round runs in a fresh interpreter
(``round.py``) and is a fixed, seed-determined amount of work; rounds of
the same seed simulate exactly the same events.  The runner repeats
rounds until ``--seconds`` have passed and reports medians:

* ``--trace 0``: the end-to-end metrics of :data:`END_TO_END`;
* ``--trace 1``: one traced round plus untraced observability-on and
  observability-off rounds of the same seed, then the per-layer metrics
  of :data:`PER_LAYER`.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when a correctness check fails and 2 when the
benchmark cannot run at all (for example, outside a repository
checkout).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from stats import median, speed_factor  # noqa: E402
from tracing import LAYERS  # noqa: E402

WORKLOADS = ("movr", "tpcc", "kv-failover")

#: (name, unit, better) of every end-to-end metric.
END_TO_END: List[Tuple[str, str, str]] = [
    ("host_ops_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_read_p50_ms", "ms", "lower"),
    ("sim_read_tail_ms", "ms", "lower"),
    ("sim_write_p50_ms", "ms", "lower"),
    ("sim_write_tail_ms", "ms", "lower"),
]

_COMMON = (("calls_per_op", "calls/op", "lower"),
           ("host_self_share", "share", "lower"),
           ("sim_ms_per_op", "ms/op", "lower"),
           ("errors_per_op", "errors/op", "lower"))

#: (name, unit, better) of every per-layer metric.
PER_LAYER: List[Tuple[str, str, str]] = [
    (f"{layer}.{name}", unit, better)
    for layer in LAYERS for name, unit, better in _COMMON
] + [
    ("sim.events_per_op", "events/op", "lower"),
    ("sim.host_us_per_event", "us/event", "lower"),
    ("sim.host_self_share", "share", "lower"),
    ("sim.background_event_share", "share", "lower"),
    ("sql.parse_host_us_per_stmt", "us/stmt", "lower"),
    ("optimizer.uniqueness_rpcs_per_insert", "rpcs/insert", "lower"),
    ("txn.attempts_per_commit", "attempts/commit", "lower"),
    ("txn.commit_wait_sim_ms_p50", "ms", "lower"),
    ("kv.follower_read_share", "share", "higher"),
    ("kv.rpc_sim_ms_p99", "ms", "lower"),
    ("kv.lease_failovers", "count", "lower"),
    ("raft.commit_sim_ms_p50", "ms", "lower"),
    ("raft.commit_sim_ms_p99", "ms", "lower"),
    ("storage.lock_wait_sim_ms_p99", "ms", "lower"),
    ("storage.versions_retained_per_op", "versions/op", "lower"),
    ("admission.admitted_share", "share", "higher"),
    ("admission.queue_sim_ms_p99", "ms", "lower"),
    ("placement.repair_sim_ms", "ms", "lower"),
    ("obs.host_share", "share", "lower"),
    ("client.error_rate", "share", "lower"),
    ("client.sim_unavailable_ms", "ms", "lower"),
    ("bench.tracing_overhead", "share", "lower"),
]

#: Rounds per run: at least this many, whatever ``--seconds`` says, and
#: never more than the cap (each run must end within 180 s).
MIN_ROUNDS = 3
#: Untraced observability-on/off round pairs in a traced run, at least.
MIN_PAIRS = 2
MAX_ROUNDS = 40
MAX_RUN_S = 150.0
ROUND_TIMEOUT_S = 120.0


class RoundFailed(Exception):
    pass


def run_round(workload: str, seed: int, obs: str = "on", trace: int = 0,
              spans: str = "") -> Dict:
    """Run one round in a new interpreter; returns its JSON summary."""
    cmd = [sys.executable, os.path.join(HERE, "round.py"),
           "--workload", workload, "--seed", str(seed), "--obs", obs,
           "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RoundFailed(f"round {' '.join(cmd[2:])} exited "
                          f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RoundFailed(f"round {' '.join(cmd[2:])} printed nothing")
    return json.loads(lines[-1])


def _checks(rounds: List[Dict]) -> List[Tuple[str, bool, str]]:
    rows = []
    for name, ok, detail in rounds[0]["checks"]:
        rows.append((name, ok and all(
            dict((n, o) for n, o, _d in r["checks"]).get(name, False)
            for r in rounds), detail))
    base = rounds[0]["fingerprint"]
    same = all(r["fingerprint"] == base for r in rounds)
    rows.append(("rounds of one seed simulate identical runs", same,
                 "" if same else "fingerprints differ between rounds"))
    return rows


def _latency(summary: Dict, tail: bool) -> Tuple[Optional[float], str]:
    if tail:
        if summary["tail"] is None:
            return None, f"n={summary['n']}, too few samples"
        return summary["tail"], f"p{summary['tail_q']:g} of n={summary['n']}"
    if summary["p50"] is None:
        return None, f"n={summary['n']}, too few samples"
    return summary["p50"], f"p50 of n={summary['n']}"


def host_seconds(rounds: List[Dict]) -> float:
    """The window's host time in calibrated CPU seconds: each slice's
    CPU time scaled by its round's speed factor, then each slice's median
    over rounds, summed.  Rounds of one seed cut identical slices, and a
    burst of other work on the host rarely hits one slice in most
    rounds."""
    count = len(rounds[0]["slices"])
    if any(len(r["slices"]) != count for r in rounds):
        raise RoundFailed("rounds of one seed cut different slices")
    scaled = [[t * speed_factor(r["calibration"]) for t in r["slices"]]
              for r in rounds]
    return sum(median([s[i] for s in scaled]) for i in range(count))


def setup_seconds(rounds: List[Dict]) -> float:
    """Median set-up time over rounds, in calibrated CPU seconds."""
    return median([r["setup_s"] * speed_factor(r["calibration"])
                   for r in rounds])


def end_to_end(rounds: List[Dict]) -> Tuple[Dict, Dict]:
    first = rounds[0]
    values = {
        "host_ops_per_s": (first["ops"] / host_seconds(rounds),
                           f"{first['ops']} ops over slice medians of "
                           f"{len(rounds)} rounds"),
        "setup_s": (setup_seconds(rounds), f"median of {len(rounds)} rounds"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in rounds]),
                        f"median of {len(rounds)} rounds"),
        "sim_read_p50_ms": _latency(first["sim"]["read"], False),
        "sim_read_tail_ms": _latency(first["sim"]["read"], True),
        "sim_write_p50_ms": _latency(first["sim"]["write"], False),
        "sim_write_tail_ms": _latency(first["sim"]["write"], True),
    }
    return ({name: value for name, (value, _note) in values.items()},
            {name: note for name, (_value, note) in values.items()})


def per_layer(traced: Dict, on: List[Dict], off: List[Dict]) -> Dict:
    metrics = dict(traced["layers"])
    base = on[0]
    ops = max(1, base["ops"])
    metrics["sim.events_per_op"] = base["events"] / ops
    metrics["sim.host_us_per_event"] = (host_seconds(on) / base["events"]
                                        * 1e6)
    metrics["sim.background_event_share"] = min(1.0, (
        base["idle_events_per_ms"] * base["sim_window_ms"]
        / max(1, base["events"])))
    metrics["obs.host_share"] = 1.0 - host_seconds(off) / host_seconds(on)
    metrics["client.error_rate"] = base["failed"] / ops
    metrics["client.sim_unavailable_ms"] = base["unavailable_ms"] or 0.0
    metrics["bench.tracing_overhead"] = 1.0 - host_seconds(on) / (
        host_seconds([traced]))
    return metrics


def _result_line(correct: bool, rounds: List[Dict], metrics: Dict,
                 specs) -> str:
    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _better in specs},
    })


def _print_checks(rows) -> bool:
    ok = True
    for name, passed, detail in rows:
        ok = ok and passed
        print(f"  [{'pass' if passed else 'FAIL'}] {name}"
              + (f"  ({detail})" if detail and not passed else ""))
    return ok


def _rounds_until(deadline: float, budget_end: float, make) -> List[Dict]:
    rounds: List[Dict] = []
    while (len(rounds) < MIN_ROUNDS or time.monotonic() < deadline) \
            and len(rounds) < MAX_ROUNDS:
        if rounds and time.monotonic() > budget_end:
            break
        rounds.append(make())
    return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload (see perfbench/README.md).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("error: run from the root of a repository checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    # Every round then imports from cached bytecode, as a repeated CLI
    # run does, whether or not the environment lets Python write it.
    for tree in ("src", HERE):
        compileall.compile_dir(tree, quiet=1)
    started = time.monotonic()
    deadline = started + args.seconds
    budget_end = started + MAX_RUN_S
    try:
        if args.trace:
            return _traced(args, deadline, budget_end)
        rounds = _rounds_until(deadline, budget_end,
                               lambda: run_round(args.workload, args.seed))
    except (RoundFailed, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    metrics, notes = end_to_end(rounds)
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds "
          f"of {rounds[0]['ops']} ops in "
          f"{time.monotonic() - started:.1f} s")
    missing = [name for name, value in metrics.items() if value is None]
    for name, unit, better in END_TO_END:
        value = metrics[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<20s} {shown:>12s} {unit:<4s} ({better} is better; "
              f"{notes[name]})")
    errors = rounds[0]["errors"]
    print(f"  error rate {rounds[0]['failed']}/{rounds[0]['ops']}"
          + (f" {errors}" if errors else ""))
    if rounds[0]["unavailable_ms"] is not None:
        print(f"  sim unavailable after crash "
              f"{rounds[0]['unavailable_ms']:.3f} ms")
    print("checks:")
    rows = _checks(rounds)
    rows.append(("every end-to-end metric has enough samples", not missing,
                 ", ".join(missing)))
    correct = _print_checks(rows)
    for name in missing:
        metrics[name] = 0.0
    print(_result_line(correct, rounds, metrics, END_TO_END))
    return 0 if correct else 1


def _traced(args, deadline: float, budget_end: float) -> int:
    spans = os.path.join(".perfbench",
                         f"spans-{args.workload}-{args.seed}.jsonl.gz")
    on = [run_round(args.workload, args.seed, "on")]
    off = [run_round(args.workload, args.seed, "off")]
    traced = run_round(args.workload, args.seed, "on", trace=1, spans=spans)
    while (len(on) < MIN_PAIRS or time.monotonic() < deadline) \
            and time.monotonic() < budget_end and len(on) < MAX_ROUNDS:
        on.append(run_round(args.workload, args.seed, "on"))
        off.append(run_round(args.workload, args.seed, "off"))
    metrics = per_layer(traced, on, off)
    print(f"workload {args.workload} seed {args.seed}: traced round of "
          f"{traced['ops']} ops, {len(on)} untraced obs-on/off pairs")
    print(f"  {'layer':<10s} {'calls/op':>10s} {'host self':>10s} "
          f"{'sim ms/op':>10s} {'errors/op':>10s}")
    for layer in LAYERS:
        print(f"  {layer:<10s} {metrics[layer + '.calls_per_op']:>10.3f} "
              f"{metrics[layer + '.host_self_share']:>10.3f} "
              f"{metrics[layer + '.sim_ms_per_op']:>10.3f} "
              f"{metrics[layer + '.errors_per_op']:>10.4f}")
    common = {f"{layer}.{name}" for layer in LAYERS for name, _u, _b
              in _COMMON}
    for name, unit, _better in PER_LAYER:
        if name not in common:
            print(f"  {name:<38s} {metrics[name]:>12.6g} {unit}")
    print(f"  spans written to {spans}")
    for hook in traced["missing_optional_hooks"]:
        print(f"  note: {hook} is gone; the metric it feeds reads 0")
    print("checks:")
    rows = [tuple(row) for row in traced["checks"]]
    rows += [tuple(row) for row in traced["counter_checks"]]
    same = traced["fingerprint"] == on[0]["fingerprint"]
    rows.append(("traced round simulates the untraced run (events, sim_ms, "
                 "ops, sim_* metrics)", same,
                 "" if same else f"{traced['fingerprint']} vs "
                                 f"{on[0]['fingerprint']}"))
    rows.append(("every traced entry point exists",
                 not traced["missing_entry_points"],
                 ", ".join(traced["missing_entry_points"])))
    rows += _checks(on)[-1:]
    correct = _print_checks(rows)
    print(_result_line(correct, [traced], metrics, PER_LAYER))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
