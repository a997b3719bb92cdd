"""One benchmark round in a fresh interpreter; prints one JSON line.

    python3 perfbench/round.py --workload movr --seed 1 --obs on --trace 0

The runner (``run.py``) starts a new process for every round, so no
process-global cache (the SQL parse cache, the key-encoding cache)
carries warm state from one measured round into the next.  Set-up time
is this process's CPU time from its start to the round's first
operation: interpreter start, imports, cluster build, schema, load and
settle.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from stats import percentile_summary  # noqa: E402


def _sim_metrics(result) -> dict:
    reads = [op.end_ms - op.due_ms for op in result.ops
             if op.kind == "read" and op.error is None]
    writes = [op.end_ms - op.due_ms for op in result.ops
              if op.kind == "write" and op.error is None]
    return {"read": percentile_summary(reads),
            "write": percentile_summary(writes)}


def _fingerprint(result, sim_metrics) -> dict:
    """What a traced and an untraced round of one seed must share."""
    return {
        "events": result.events,
        "sim_ms": round(result.sim_end_ms, 6),
        "ops": len(result.ops),
        "failed": sum(1 for op in result.ops if op.error),
        "read": sim_metrics["read"],
        "write": sim_metrics["write"],
        "unavailable_ms": result.unavailable_ms,
    }


def run_round(workload: str, seed: int, obs: bool, trace: bool,
              spans_path: str = "") -> dict:
    from workloads import RUNNERS

    tracer = hook = None
    marks = {}
    if trace:
        import layers
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.active = True

        def hook(phase):
            marks[phase] = layers.mark(tracer)

    result = RUNNERS[workload](seed, obs=obs, tracer=tracer,
                               window_hook=hook)
    sim_metrics = _sim_metrics(result)
    errors = {}
    for op in result.ops:
        if op.error:
            errors[op.error] = errors.get(op.error, 0) + 1
    out = {
        "workload": workload,
        "seed": seed,
        "obs": obs,
        "trace": trace,
        "setup_s": result.setup_cpu_s,
        "host_s": result.host_s,
        "slices": result.slice_cpu_s,
        "calibration": result.calibration_s,
        "ops": len(result.ops),
        "failed": sum(errors.values()),
        "errors": errors,
        "events": result.events,
        "sim_window_ms": result.sim_end_ms - result.sim_start_ms,
        "idle_events_per_ms": result.idle_events_per_ms,
        "peak_rss_mb": result.peak_rss_mb,
        "sim": sim_metrics,
        "unavailable_ms": result.unavailable_ms,
        "checks": result.checks,
        "fingerprint": _fingerprint(result, sim_metrics),
    }
    if trace:
        import layers

        tracer.active = False
        out["layers"] = layers.layer_metrics(tracer, result, marks)
        out["counter_checks"] = layers.counter_checks(tracer, result)
        out["missing_entry_points"] = tracer.missing
        out["missing_optional_hooks"] = tracer.optional_missing
        if spans_path:
            os.makedirs(os.path.dirname(spans_path) or ".", exist_ok=True)
            tracer.write(spans_path, result.sim_end_ms)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--obs", choices=("on", "off"), default="on")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default="",
                        help="write the traced round's spans here (gzip "
                             "JSON lines)")
    args = parser.parse_args(argv)
    out = run_round(args.workload, args.seed, args.obs == "on",
                    bool(args.trace), args.spans)
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    status = main()
    # Skip tearing down the simulated cluster object by object: nothing
    # is left to flush, and the runner waits on this process.
    os._exit(status)
