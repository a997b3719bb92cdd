"""Per-layer metrics from a traced round's spans.

Every layer in :data:`tracing.LAYERS` reports four numbers over the
spans opened inside the measured window:

* ``calls_per_op``: entry-point calls per benchmark operation;
* ``host_self_share``: host self time as a share of the window's host
  time;
* ``sim_ms_per_op``: simulated self time per operation, over spans that
  belong to an operation (background work has no request id);
* ``errors_per_op``: calls that ended in an exception (or a rejected
  future) per operation.

The layer-specific metrics below are documented in ``README.md``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from stats import nearest_rank, self_time
from tracing import LAYERS


def mark(tracer) -> dict:
    """Snapshot taken at a window bound."""
    return {
        "span": len(tracer.spans),
        "uniqueness": len(tracer.uniqueness_rpcs),
        "versions": versions(tracer),
        "sim_ms": tracer.sim._now,
    }


def versions(tracer) -> int:
    """MVCC versions held by every store created so far."""
    total = 0
    for store in tracer.stores:
        for key in store.keys():
            total += store.version_count(key)
    return total


def _pct(values: List[float], q: float) -> float:
    return nearest_rank(sorted(values), q) if values else 0.0


def layer_metrics(tracer, result, marks) -> Dict[str, float]:
    start, end = marks["start"], marks["end"]
    window = tracer.spans[start["span"]:end["span"]]
    window_end = result.sim_end_ms
    ops = max(1, len(result.ops))
    host_total = result.host_s

    children = defaultdict(list)
    for span in window:
        if span.sim_end is None:
            # Still open at the window's end; a one-way message that
            # never arrived was dropped when it was sent.
            span.sim_end = (span.sim_start if span.name == "Network.send"
                            else max(window_end, span.sim_start))
        if span.parent is not None:
            children[id(span.parent)].append((span.sim_start, span.sim_end))

    calls = defaultdict(int)
    self_host = defaultdict(float)
    self_sim = defaultdict(float)
    errors = defaultdict(int)
    durations = defaultdict(list)
    by_name = defaultdict(list)
    for span in window:
        layer = span.layer
        calls[layer] += 1
        self_host[layer] += span.self_host
        if span.error is not None:
            errors[layer] += 1
        end_ms = span.sim_end
        if span.req is not None and layer != "bench":
            self_sim[layer] += self_time(span.sim_start, end_ms,
                                         children.get(id(span), ()))
        by_name[span.name].append(span)
        durations[span.name].append(end_ms - span.sim_start)

    m: Dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls_per_op"] = calls[layer] / ops
        m[f"{layer}.host_self_share"] = (self_host[layer] / host_total
                                         if host_total else 0.0)
        m[f"{layer}.sim_ms_per_op"] = self_sim[layer] / ops
        m[f"{layer}.errors_per_op"] = errors[layer] / ops
    spanned = sum(self_host.values())
    m["sim.host_self_share"] = max(0.0, (host_total - spanned) / host_total
                                   if host_total else 0.0)

    parses = by_name.get("parse_one", [])
    m["sql.parse_host_us_per_stmt"] = (
        sum(s.self_host for s in parses) / len(parses) * 1e6
        if parses else 0.0)

    uniq = tracer.uniqueness_rpcs[start["uniqueness"]:end["uniqueness"]]
    m["optimizer.uniqueness_rpcs_per_insert"] = (sum(uniq) / len(uniq)
                                                 if uniq else 0.0)

    begins = len(by_name.get("TransactionCoordinator.begin", []))
    commits = [s for s in by_name.get("Transaction.commit", [])
               if s.error is None and s.sim_end is not None]
    m["txn.attempts_per_commit"] = begins / len(commits) if commits else 0.0
    waits = [d for d in durations.get("Transaction._commit_wait_if_needed",
                                      ()) if d > 0.0]
    m["txn.commit_wait_sim_ms_p50"] = _pct(waits, 50.0)

    follower = (len(by_name.get("Replica.follower_read", []))
                + len(by_name.get("Replica.follower_read_waiting", [])))
    leaseholder = len(by_name.get("Range.serve_read", []))
    m["kv.follower_read_share"] = (follower / (follower + leaseholder)
                                   if follower + leaseholder else 0.0)
    rpcs = [d for name, values in durations.items()
            if name.startswith("DistSender.") for d in values]
    m["kv.rpc_sim_ms_p99"] = _pct(rpcs, 99.0)
    m["kv.lease_failovers"] = float(len(by_name.get("Range.failover_lease",
                                                    [])))

    proposals = [s.sim_end - s.sim_start
                 for s in by_name.get("RaftGroup.propose", [])
                 if s.error is None and s.sim_end is not None]
    m["raft.commit_sim_ms_p50"] = _pct(proposals, 50.0)
    m["raft.commit_sim_ms_p99"] = _pct(proposals, 99.0)

    m["storage.lock_wait_sim_ms_p99"] = _pct(
        durations.get("LockTable.wait_for", []), 99.0)
    m["storage.versions_retained_per_op"] = (
        (end["versions"] - start["versions"]) / ops)

    admits = by_name.get("AdmissionQueue.admit", [])
    m["admission.admitted_share"] = (
        sum(1 for s in admits if s.error is None) / len(admits)
        if admits else 1.0)
    m["admission.queue_sim_ms_p99"] = _pct(
        durations.get("AdmissionQueue.admit", [])
        + durations.get("StoreWorkQueue.work", []), 99.0)

    crash = result.crash_ms
    repairs = [s.sim_end for name in ("Range.add_replica_safely",
                                      "Range.remove_replica_safely")
               for s in by_name.get(name, ())
               if crash is not None and s.sim_end is not None
               and s.error is None and s.sim_start >= crash]
    m["placement.repair_sim_ms"] = max(repairs) - crash if repairs else 0.0
    return m


def counter_checks(tracer, result) -> List[list]:
    """Compare wrapper counts with the program's own counters.

    Runs on an observability-on round, over the whole process (set-up
    included), so both sides count the same calls.  Returns
    ``[name, ok, detail]`` rows; a wrapper that misses calls (say,
    through a cached bound method) shows up here.
    """
    rows = []
    cluster = result.cluster
    by_name = defaultdict(int)
    ok_commits = 0
    for span in tracer.spans:
        by_name[span.name] += 1
        if span.name == "Transaction.commit" and span.error is None \
                and span.sim_end is not None:
            ok_commits += 1
    stats = result.coordinators[0].stats
    rows.append(["txn.begun == TransactionCoordinator.begin calls",
                 stats.begun == by_name["TransactionCoordinator.begin"],
                 f"{stats.begun} vs {by_name['TransactionCoordinator.begin']}"])
    rows.append(["txn.committed == successful Transaction.commit calls",
                 stats.committed == ok_commits,
                 f"{stats.committed} vs {ok_commits}"])
    network = cluster.network
    sent = network.messages_sent
    wrapped = (by_name["Network.send"] + by_name["Network.call"]
               + tracer.replies)
    if result.crash_ms is None:
        rows.append(["net.messages_sent == sends + calls + replies",
                     sent == wrapped, f"{sent} vs {wrapped}"])
    else:
        # Under faults the network drops some of these messages, and a
        # dropped message counts as dropped instead of sent.
        total = sent + network.messages_dropped
        rows.append(["net.messages_sent + dropped >= sends + calls + "
                     "replies (faults)", total >= wrapped,
                     f"{total} vs {wrapped}"])
    retries = result.coordinators[0].distsender.rpc_retries
    failed_calls = _distsender_failed_calls(tracer)
    if result.crash_ms is None:
        rows.append(["distsender.rpc_retries == failed RPC attempts",
                     retries == failed_calls,
                     f"{retries} vs {failed_calls}"])
    else:
        # Timed-out attempts count as retries without a rejected call.
        rows.append(["distsender.rpc_retries >= rejected RPC attempts "
                     "(faults)", retries >= failed_calls,
                     f"{retries} vs {failed_calls}"])
    return rows


def _distsender_failed_calls(tracer) -> int:
    """RPC attempts the DistSender retries: calls under a DistSender span
    rejected by the network (or by a range that no longer owns the
    key).  Errors the leaseholder returned are not retried."""
    from repro.errors import ClockFencedError, RangeKeyMismatchError
    from repro.sim.network import NetworkUnavailableError

    retried = (NetworkUnavailableError, ClockFencedError,
               RangeKeyMismatchError)
    count = 0
    for span in tracer.spans:
        if span.name != "Network.call" or span.error is None \
                or not issubclass(span.error, retried):
            continue
        parent = span.parent
        while parent is not None and not parent.name.startswith(
                "DistSender."):
            parent = parent.parent
        if parent is not None:
            count += 1
    return count
