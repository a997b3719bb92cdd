"""Determinism guarantees behind the benchmark harness.

Two properties make ``BENCH_results.json`` numbers comparable across
PRs, and both are pinned here:

* **Observability equivalence** — running with observability off is a
  pure fast path: for a fixed seed it must produce byte-identical
  latency samples and final replica state to a fully-instrumented run.
* **Golden snapshots** — a fixed seed and scale always simulates the
  same events.  The goldens in ``tests/goldens/`` freeze event counts,
  simulated time, op counts and latency percentiles; any engine change
  that shifts them is changing *behaviour*, not just speed, and must
  regenerate the goldens deliberately: rerun with
  ``REPRO_UPDATE_GOLDENS=1`` (see :mod:`repro.goldens`) and commit the
  diff.
"""

import pathlib

import pytest

from repro import goldens
from repro.harness.bench import _execute

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"

#: (workload, seed, scale) — small enough to run in a few seconds,
#: large enough to traverse every hot path the benchmarks exercise.
GOLDEN_CONFIGS = [("kv", 0, 0.25), ("movr", 0, 0.2), ("tpcc", 0, 0.25)]


def state_digest(engine):
    """Canonical snapshot of every replica: Raft progress plus the full
    committed MVCC contents, ordered deterministically."""
    rows = []
    for node in engine.cluster.nodes:
        for range_id in sorted(node.replicas):
            replica = node.replicas[range_id]
            peer = replica.range.group.peers[node.node_id]
            store = replica.store
            keys = []
            for key in sorted(store._data, key=repr):
                history = store._data[key]
                keys.append((repr(key),
                             [(v.ts.physical, v.ts.logical, repr(v.value))
                              for v in history.versions],
                             history.intent is not None))
            rows.append((node.node_id, range_id, peer.applied_index,
                         peer.last_index, peer.known_commit_index, keys))
    return rows


def run_fingerprint(workload, seed, scale):
    engine, recorder, _ = _execute(workload, seed, "full", scale, None)
    sim = engine.cluster.sim
    summary = recorder.summary()
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "events": sim.events_processed,
        "sim_ms": round(sim.now, 3),
        "ops": recorder.total_ops(),
        "latency_p50_ms": round(summary.p50, 3),
        "latency_p99_ms": round(summary.p99, 3),
    }


class TestObsEquivalence:
    """Observability off must change nothing but wall-clock."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kv_identical_across_obs_modes(self, seed):
        full_engine, full_rec, _ = _execute("kv", seed, "full", 0.25, None)
        off_engine, off_rec, _ = _execute("kv", seed, "off", 0.25, None)
        assert (full_engine.cluster.sim.events_processed
                == off_engine.cluster.sim.events_processed)
        assert full_engine.cluster.sim.now == off_engine.cluster.sim.now
        assert full_rec.total_ops() == off_rec.total_ops()
        # Byte-identical latency samples, not just matching percentiles.
        assert full_rec.samples() == off_rec.samples()
        assert state_digest(full_engine) == state_digest(off_engine)

    def test_movr_identical_across_obs_modes(self):
        full_engine, full_rec, _ = _execute("movr", 0, "full", 0.2, None)
        off_engine, off_rec, _ = _execute("movr", 0, "off", 0.2, None)
        assert (full_engine.cluster.sim.events_processed
                == off_engine.cluster.sim.events_processed)
        assert full_rec.samples() == off_rec.samples()
        assert state_digest(full_engine) == state_digest(off_engine)


class TestGoldenSnapshots:
    @pytest.mark.parametrize("workload,seed,scale", GOLDEN_CONFIGS)
    def test_matches_golden(self, workload, seed, scale):
        path = GOLDEN_DIR / f"{workload}_seed{seed}.json"
        failures = goldens.check(path, run_fingerprint(workload, seed, scale))
        assert not failures, (
            f"fixed-seed {workload} run diverged from {path.name}: "
            f"{failures}; if the behaviour change is intentional, rerun "
            f"with REPRO_UPDATE_GOLDENS=1 and commit the goldens")

    def test_repeat_runs_are_identical(self):
        """Two runs in one process agree exactly — no hidden global
        state (module-level RNG, caches keyed on id()) leaks between
        engine instances."""
        assert (run_fingerprint("kv", 0, 0.25)
                == run_fingerprint("kv", 0, 0.25))
