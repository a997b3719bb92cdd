"""The elastic-keyspace rebalancing experiment (``python -m repro
rebalance``).

One elastic span on a three-region cluster runs through three phases:

1. **warmup** — home-region clients touch the whole keyspace; the
   seeded key count exceeds the size-split threshold, so the
   rebalancing queue performs a *size split* almost immediately;
2. **hot** — remote-region clients hammer a narrow hot band; the
   per-range QPS tracker drives *load splits* of the hot range and a
   follow-the-workload *lease move* toward the loaded region;
3. **drain** — traffic stops; after the merge-patience window the cold
   ranges *merge* back until the span is a single range again.

Everything is deterministic from the seed.  ``REBALANCE_golden.json``
at the repo root pins per-seed fingerprints for seeds {0, 1, 2}; the
CLI re-runs and compares through :mod:`repro.goldens`, so any
behavioural drift in splits, merges, routing, or rebalancing shows up
as a fingerprint mismatch.  Each seed is also run in **legacy** mode —
the same workload against a plain fixed range with elasticity
disabled — whose fingerprint covers the full metrics snapshot: the
elastic machinery must leave fault-free legacy runs byte-identical (no
new instruments, no new events).
"""

from __future__ import annotations

import hashlib
import json
import random
import zlib
from typing import Dict, Generator, List, Tuple

from ..chaos.scenarios import RETRYABLE
from ..cluster import StoreLiveness, standard_cluster
from ..errors import AmbiguousCommitError
from ..placement import RebalanceQueue, ZoneConfig, provision_range
from ..txn import TransactionCoordinator

__all__ = ["run_rebalance", "run_rebalance_suite", "render_rebalance"]

REGIONS = ("us-east1", "europe-west2", "asia-northeast1")
HOME = "us-east1"
HOT_REGION = "europe-west2"

#: Seeded keyspace and the hot band the remote clients hammer.
KEYS = tuple(f"u{i:03d}" for i in range(72))
HOT_KEYS = KEYS[:8]

#: Phase boundaries (sim ms).
WARMUP_END_MS = 2500.0
HOT_END_MS = 7500.0
DRAIN_END_MS = 12500.0

#: Queue thresholds sized so the workload demonstrably crosses them:
#: 72 seeded keys > 48 forces a size split; the hot band sustains well
#: over 12 QPS; everything is cold during the drain.
SPLIT_MAX_KEYS = 48
SPLIT_QPS = 12.0
MERGE_QPS = 2.0
MERGE_PATIENCE = 3


def _zone_config(regions) -> ZoneConfig:
    # One voter pinned home, the rest placed by diversity, and no lease
    # preference — leaving follow-the-workload free to move the lease.
    return ZoneConfig(num_replicas=3, num_voters=3,
                      constraints={HOME: 1})


class _RebalanceRun:
    """One deterministic run, elastic or legacy."""

    def __init__(self, seed: int, elastic: bool):
        self.seed = seed
        self.elastic = elastic
        self.cluster = standard_cluster(list(REGIONS), seed=seed)
        self.sim = self.cluster.sim
        self.coordinator = TransactionCoordinator(self.cluster)
        config = _zone_config(REGIONS)
        self.range = provision_range(
            self.cluster, config, name="elastic",
            side_transport_interval_ms=100.0,
            proposal_timeout_ms=1000.0, retransmit_interval_ms=150.0)
        ts = self.range.leaseholder_node.clock.now()
        if elastic:
            self.span = self.cluster.keyspace.adopt(self.range, name="kv")
            self.token = self.span
            self.liveness = StoreLiveness(self.cluster)
            self.queue = RebalanceQueue(
                self.cluster, self.liveness,
                split_max_keys=SPLIT_MAX_KEYS, split_qps=SPLIT_QPS,
                merge_qps=MERGE_QPS, merge_patience=MERGE_PATIENCE,
                lease_cooldown_ms=1500.0)
            self.queue.manage_span(self.span, config)
            self.queue.start()
        else:
            self.span = None
            self.queue = None
            self.token = self.range
        self.token.bulk_ingest([(key, 0) for key in KEYS], ts)
        self.committed = 0
        self.failed = 0
        self.samples: List[Dict] = []

    # -- clients -----------------------------------------------------------

    def _prng(self, tag: str) -> random.Random:
        return random.Random((self.seed << 20)
                             ^ zlib.crc32(tag.encode()))

    def _client(self, region: str, index: int, start_ms: float,
                end_ms: float, pick_key, think: Tuple[float, float]
                ) -> Generator:
        prng = self._prng(f"client/{region}/{index}")
        yield self.sim.sleep(start_ms)
        gateway = self.cluster.gateway_for_region(region, index)
        while self.sim.now < end_ms:
            key = pick_key(prng)

            def txn_fn(txn, key=key):
                value = yield from txn.read(self.token, key)
                yield from txn.write(self.token, key, (value or 0) + 1)
                return None

            try:
                yield from self.coordinator.run(gateway, txn_fn)
                self.committed += 1
            except (AmbiguousCommitError,) + RETRYABLE:
                self.failed += 1
            yield self.sim.sleep(prng.uniform(*think))
        return None

    # -- sampling ----------------------------------------------------------

    def _live_ranges(self) -> List:
        if self.span is not None:
            return [d.rng for d in self.span.descriptors]
        return [self.range]

    def _sample(self, label: str) -> Dict:
        ranges = []
        for rng in self._live_ranges():
            lease_node = rng.leaseholder_node_id
            lease_region = (
                self.cluster.node_by_id(lease_node).locality.region
                if lease_node is not None else None)
            entry = {
                "name": rng.name,
                "lease_region": lease_region,
                "keys": len(list(rng.leaseholder_replica.store.keys())),
            }
            if rng.descriptor is not None:
                entry["span"] = rng.descriptor.span_repr()
                entry["generation"] = rng.descriptor.generation
                entry["qps"] = round(rng.descriptor.load.qps(self.sim.now), 1)
            ranges.append(entry)
        return {"label": label, "t_ms": self.sim.now,
                "range_count": len(ranges), "ranges": ranges}

    def _probe(self, at_ms: float, label: str) -> Generator:
        yield self.sim.sleep(at_ms)
        self.samples.append(self._sample(label))
        return None

    # -- the run -----------------------------------------------------------

    def run(self) -> Dict:
        uniform = lambda prng: KEYS[prng.randrange(len(KEYS))]
        hot_weights = [1.0 / (i + 1) ** 1.5 for i in range(len(HOT_KEYS))]

        def hot(prng):
            return prng.choices(HOT_KEYS, weights=hot_weights, k=1)[0]

        for index in range(2):
            self.sim.spawn(
                self._client(HOME, index, 0.0, WARMUP_END_MS,
                             uniform, (10.0, 30.0)),
                name=f"warmup-{index}")
        for index in range(4):
            self.sim.spawn(
                self._client(HOT_REGION, index, WARMUP_END_MS, HOT_END_MS,
                             hot, (5.0, 15.0)),
                name=f"hot-{index}")
        self.sim.spawn(self._probe(WARMUP_END_MS - 100.0, "warmup"),
                       name="probe-warmup")
        self.sim.spawn(self._probe(HOT_END_MS - 100.0, "hot"),
                       name="probe-hot")
        self.sim.run(until=DRAIN_END_MS)
        if self.queue is not None:
            self.queue.stop()
        self.samples.append(self._sample("final"))
        return self._document()

    # -- reporting ---------------------------------------------------------

    def _final_snapshot(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for rng in self._live_ranges():
            ts = rng.leaseholder_node.clock.now()
            for key, value in rng.leaseholder_replica.store.snapshot_at(
                    ts).items():
                out[key] = value
        return out

    def _counters(self) -> Dict[str, int]:
        registry = self.sim.obs.registry
        out: Dict[str, int] = {}
        for prefix in ("keyspace.", "rebalance.",
                       "distsender.range_cache_"):
            for inst in registry.instruments():
                if not inst.name.startswith(prefix):
                    continue
                label = ",".join(f"{k}={v}"
                                 for k, v in sorted(dict(inst.labels).items()))
                key = f"{inst.name}{{{label}}}" if label else inst.name
                out[key] = int(inst.value)
        return out

    def _metrics_hash(self) -> str:
        snapshot = self.sim.obs.registry.snapshot()
        blob = json.dumps(snapshot, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()

    def _document(self) -> Dict:
        snapshot = self._final_snapshot()
        snapshot_hash = hashlib.sha256(
            json.dumps(sorted(snapshot.items()),
                       default=str).encode()).hexdigest()
        counters = self._counters()
        peak_ranges = max(s["range_count"] for s in self.samples)
        hot_sample = next((s for s in self.samples if s["label"] == "hot"),
                          None)
        lease_followed = bool(hot_sample) and any(
            r["lease_region"] == HOT_REGION for r in hot_sample["ranges"])
        doc = {
            "seed": self.seed,
            "mode": "elastic" if self.elastic else "legacy",
            "committed": self.committed,
            "failed": self.failed,
            "samples": self.samples,
            "counters": counters,
            "peak_ranges": peak_ranges,
            "final_ranges": self.samples[-1]["range_count"],
            "snapshot_sum": sum(snapshot.values()),
            "snapshot_hash": snapshot_hash,
            "metrics_hash": self._metrics_hash(),
        }
        conserved = doc["snapshot_sum"] == self.committed
        # The drain can only merge down to the size-split floor — one
        # range per split_max_keys of seeded data — or the merged range
        # would immediately re-split (hysteresis, not a failure).
        min_ranges = -(-len(KEYS) // SPLIT_MAX_KEYS)
        if self.elastic:
            split_triggers = {key: value for key, value in counters.items()
                              if key.startswith("rebalance.splits")}
            doc["gates"] = {
                "splits_happened": peak_ranges > min_ranges,
                "size_split": any("size" in key for key in split_triggers),
                "load_split": any("load" in key for key in split_triggers),
                "lease_followed_workload": lease_followed,
                "merged_back": (doc["final_ranges"] <= min_ranges
                                and doc["final_ranges"] < peak_ranges),
                "no_lost_increments": conserved,
                "no_failed_txns": self.failed == 0,
            }
        else:
            doc["gates"] = {
                "no_elastic_instruments": not counters,
                "keyspace_untouched": self.cluster._keyspace is None,
                "single_range": doc["final_ranges"] == 1,
                "no_lost_increments": conserved,
                "no_failed_txns": self.failed == 0,
            }
        doc["gates"]["ok"] = all(doc["gates"].values())
        return doc


def run_rebalance(seed: int = 0, elastic: bool = True) -> Dict:
    """One deterministic rebalance run; returns the JSON-ready doc."""
    return _RebalanceRun(seed, elastic).run()


def fingerprint(doc: Dict) -> Dict:
    """The golden-pinned summary of one run (order-stable)."""
    blob = json.dumps(doc, sort_keys=True, default=str)
    return {
        "mode": doc["mode"],
        "committed": doc["committed"],
        "failed": doc["failed"],
        "peak_ranges": doc["peak_ranges"],
        "final_ranges": doc["final_ranges"],
        "counters": doc["counters"],
        "snapshot_hash": doc["snapshot_hash"],
        "metrics_hash": doc["metrics_hash"],
        "doc_hash": hashlib.sha256(blob.encode()).hexdigest(),
    }


def run_rebalance_suite(seeds) -> Dict:
    """Elastic + legacy runs for each seed, with fingerprints."""
    runs = {}
    for seed in seeds:
        elastic = run_rebalance(seed, elastic=True)
        legacy = run_rebalance(seed, elastic=False)
        runs[str(seed)] = {
            "elastic": elastic,
            "legacy": legacy,
            "fingerprints": {
                "elastic": fingerprint(elastic),
                "legacy": fingerprint(legacy),
            },
        }
    ok = all(entry["elastic"]["gates"]["ok"]
             and entry["legacy"]["gates"]["ok"]
             for entry in runs.values())
    return {"ok": ok, "runs": runs}


def render_rebalance(doc: Dict) -> str:
    lines = [f"rebalance {doc['mode']} run (seed={doc['seed']}) — "
             f"{doc['committed']} txns committed, {doc['failed']} failed"]
    for sample in doc["samples"]:
        lines.append(f"  t={sample['t_ms']:8.0f}ms  [{sample['label']}]  "
                     f"{sample['range_count']} range(s)")
        for rng in sample["ranges"]:
            span = rng.get("span", "(fixed)")
            qps = rng.get("qps")
            qps_text = f" qps={qps:.1f}" if qps is not None else ""
            gen = rng.get("generation")
            gen_text = f" gen={gen}" if gen is not None else ""
            lines.append(f"      {rng['name']:14s} {span:28s} "
                         f"lease={rng['lease_region']}"
                         f" keys={rng['keys']}{qps_text}{gen_text}")
    if doc["counters"]:
        lines.append("  counters:")
        for key, value in sorted(doc["counters"].items()):
            lines.append(f"      {key} = {value}")
    lines.append("  gates:")
    for gate, passed in sorted(doc["gates"].items()):
        if gate == "ok":
            continue
        lines.append(f"      {gate:28s} "
                     f"{'pass' if passed else 'FAIL'}")
    lines.append(f"  => {'OK' if doc['gates']['ok'] else 'GATE FAILURES'}")
    return "\n".join(lines)
