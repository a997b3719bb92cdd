"""Process-parallel sweep farm: seeds x scenarios x configs.

Every chaos, verify, scale, and bench run is deterministic from its
(kind, scenario, seed, config) coordinates and shares nothing with its
siblings, so a sweep is embarrassingly parallel.  This module fans a
job list across ``multiprocessing`` workers and merges the results
into one deterministic document.  A job's kind names its entry in
:mod:`repro.harness.registry`, which expands sweeps into jobs and runs
each one.

Design constraints, in priority order:

* **Determinism.**  The merged document is a pure function of the job
  list — byte-identical whether it ran on 1 worker or 16, regardless
  of completion order.  Jobs carry no wall-clock or pid fields, results
  come back in submission order (``Pool.map``), and the merge sorts on
  the job coordinates and serialises with ``sort_keys``.
* **Spawn safety.**  Workers use the ``spawn`` start method — each is
  a fresh interpreter that re-imports this module, so jobs must be
  picklable plain dicts and :func:`run_job` must be importable at
  module top level.  Nothing is inherited from the parent except the
  job payload (shared-nothing; fork would work too but spawn keeps us
  honest and portable).
* **Graceful sizing.**  ``workers=1`` (or a single job) runs inline in
  the parent with no pool at all — the sequential reference path the
  determinism guard compares against.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from typing import Any, Dict, Iterable, List, Optional

from .registry import REGISTRY

__all__ = ["run_job", "run_farm", "merge_results", "sweep_jobs",
           "render_sweep", "dumps_sweep", "default_workers",
           "SWEEP_KINDS"]

#: The registry entries the farm can run, in registry order.
SWEEP_KINDS = tuple(name for name, exp in REGISTRY.items()
                    if exp.job is not None)

#: Keys scrubbed from worker results before merging: anything here is
#: nondeterministic (wall clock, process identity) and would break the
#: byte-identical merge contract.
_NONDETERMINISTIC_KEYS = frozenset({"wall_s", "wall_seconds", "pid"})


def default_workers(requested: Optional[int] = None) -> int:
    """Worker count: the explicit request, else one per core (capped)."""
    if requested is not None and requested > 0:
        return requested
    return max(1, min(8, os.cpu_count() or 1))


def _kind(kind: str):
    exp = REGISTRY.get(kind)
    if exp is None or exp.job is None:
        raise ValueError(f"unknown sweep kind {kind!r} "
                         f"(valid: {', '.join(SWEEP_KINDS)})")
    return exp


def run_job(job: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one sweep job through its registry entry; returns a
    JSON-ready record.

    Top-level (not nested, not a lambda) so spawn workers can unpickle
    a reference to it.
    """
    exp = _kind(job["kind"])
    scenario, ok, report = exp.job(exp, job)
    record = {"kind": job["kind"], "scenario": scenario,
              "seed": job["seed"], "ok": bool(ok), "report": report}
    # Optional transaction-protocol override (the protocol-matrix CLI
    # paths); absent for legacy jobs, keeping their records identical.
    if job.get("protocol") is not None:
        record["protocol"] = job["protocol"]
    return _scrub(record)


def _scrub(value):
    """Drop nondeterministic keys, recursively, from a result record."""
    if isinstance(value, dict):
        return {key: _scrub(item) for key, item in value.items()
                if key not in _NONDETERMINISTIC_KEYS}
    if isinstance(value, list):
        return [_scrub(item) for item in value]
    return value


def run_farm(jobs: Iterable[Dict[str, Any]],
             workers: Optional[int] = None) -> List[Dict[str, Any]]:
    """Run every job; results in submission order regardless of workers."""
    jobs = list(jobs)
    workers = min(default_workers(workers), max(1, len(jobs)))
    if workers <= 1 or len(jobs) <= 1:
        return [run_job(job) for job in jobs]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=workers) as pool:
        # chunksize=1: jobs are coarse (whole simulations), so let the
        # pool load-balance instead of pre-binning.
        return pool.map(run_job, jobs, chunksize=1)


def merge_results(results: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-job records into one deterministic sweep document.

    Runs are ordered by (kind, scenario, seed) — a canonical order
    independent of both submission and completion order.
    """
    runs = sorted(results, key=lambda r: (r["kind"], r["scenario"],
                                          r["seed"]))
    return {
        "ok": all(r["ok"] for r in runs),
        "total": len(runs),
        "failed": [f"{r['kind']}/{r['scenario']}/seed={r['seed']}"
                   for r in runs if not r["ok"]],
        "runs": runs,
    }


def sweep_jobs(kinds: Iterable[str], scenarios: Optional[List[str]],
               seeds: Iterable[int], quick: bool = True
               ) -> List[Dict[str, Any]]:
    """Expand kinds x scenarios x seeds into a farmable job list.

    ``scenarios=None`` means every scenario of each kind: the full
    chaos registry, the verify sweep set, and (for scale, which has no
    scenario axis) one curve per seed.
    """
    seeds = list(seeds)
    return [job for kind in kinds
            for job in _kind(kind).jobs(scenarios, seeds, quick)]


def render_sweep(doc: Dict[str, Any]) -> str:
    """Compact per-run table plus the verdict line."""
    lines = [f"  {'kind':8s} {'scenario':28s} {'seed':>4}  verdict"]
    for run in doc["runs"]:
        lines.append(f"  {run['kind']:8s} {run['scenario']:28s} "
                     f"{run['seed']:>4}  "
                     f"{'ok' if run['ok'] else 'VIOLATION'}")
    lines.append(f"  => {doc['total']} runs, "
                 + ("all ok" if doc["ok"]
                    else f"{len(doc['failed'])} failed: "
                         + ", ".join(doc["failed"])))
    return "\n".join(lines)


def dumps_sweep(doc: Dict[str, Any]) -> str:
    """Canonical serialisation — the byte-identical merge artifact."""
    return json.dumps(doc, indent=2, sort_keys=True)
