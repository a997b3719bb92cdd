"""The three benchmark workloads: input plans, runners and checks.

Every input is generated here from the seed (``*_plan`` functions: SQL
text, transaction kinds, arrival schedule, fault time) before the
program sees any of it; the runners then feed the plan through the
program's public APIs and record one :class:`Op` per operation.

A runner returns a :class:`Round`: the op log, the measured window
(host and sim clocks, simulator events) and the workload's correctness
checks.  The measured window starts at the first operation; everything
before it (interpreter start, imports, cluster build, schema, load,
settle) is set-up.  Host time is the process's CPU time, so time the
process spends descheduled by other work on the machine is not counted.
"""

from __future__ import annotations

import random
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from stats import calibration_chunk, classify_error, longest_wait

REGIONS = ("us-east1", "us-west1", "europe-west2")
WORKLOADS = ("movr", "tpcc", "kv-failover")

#: Simulated time the idle cluster runs before its background event
#: rate is measured, and how long that measurement lasts.
SETTLE_MS = 1000.0
IDLE_PROBE_MS = 1000.0
#: The measured window runs in slices of this much simulated time, with
#: a calibration chunk before it and after every CALIBRATE_EVERY slices.
SLICE_MS = 250.0
CALIBRATE_EVERY = 2

# -- movr ------------------------------------------------------------------------
MOVR_CLIENTS_PER_REGION = 2
#: Gateway node (index within the region) of each client in a region:
#: the first and the last of the region's three nodes.
MOVR_GATEWAYS = (0, 2)
MOVR_OPS_PER_CLIENT = 300
MOVR_PROMO_CODES = 100
#: Share of user inserts whose city lies in another region than the
#: client's (a traveller signing up away from home).
MOVR_REMOTE_SHARE = 0.10
MOVR_MIX = (("promo_read", 0.45), ("user_insert", 0.25),
            ("user_read", 0.25), ("promo_write", 0.05))
MOVR_KIND = {"promo_read": "read", "user_read": "read",
             "user_insert": "write", "promo_write": "write"}

# -- tpcc ------------------------------------------------------------------------
#: One terminal per node: each table partition's leaseholder then serves
#: one terminal of three locally, so read latency is not split evenly
#: between a local and a cross-zone mode.
TPCC_TERMINALS_PER_REGION = 3
TPCC_TXNS_PER_TERMINAL = 100
#: The standard TPC-C mix (new-order, payment and delivery write: 92%).
TPCC_MIX = (("new_order", 0.45), ("payment", 0.43), ("order_status", 0.04),
            ("delivery", 0.04), ("stock_level", 0.04))
#: Latency classes.  Writes are new-order, the transaction TPC-C times;
#: payment and delivery count as operations but not in the latency
#: metrics (mixed with new-order, the write median would fall in the gap
#: between payment's and new-order's latency).
TPCC_KIND = {"new_order": "write", "payment": "other", "delivery": "other",
             "order_status": "read", "stock_level": "read"}

# -- kv-failover -----------------------------------------------------------------
KV_RATE_PER_REGION = 100.0      # arrivals per sim-second per region
KV_WINDOW_MS = 40000.0          # arrival window
KV_KEYS = 2000                  # keys per range
KV_WRITE_SHARE = 0.25
KV_CRASH_REGION = "us-east1"
KV_CRASH_WINDOW = (0.4, 0.6)    # crash instant, as a share of the window
KV_DRAIN_MS = 2000.0
#: A request that fails without committing is resent this many times.
KV_RESENDS = 3
KV_RESEND_BACKOFF_MS = 100.0


@dataclass
class Op:
    name: str                   # operation type within the workload
    kind: str                   # "read", "write" or "other"
    region: str                 # home region of the issuing client
    due_ms: float
    end_ms: float = 0.0
    error: Optional[str] = None


@dataclass
class Round:
    ops: List[Op] = field(default_factory=list)
    #: CPU seconds of this process: in the measured window, and from
    #: the process's start to the first operation (set-up).
    host_s: float = 0.0
    setup_cpu_s: float = 0.0
    slice_cpu_s: List[float] = field(default_factory=list)
    #: CPU seconds of each calibration chunk run in this round.
    calibration_s: List[float] = field(default_factory=list)
    sim_start_ms: float = 0.0
    sim_end_ms: float = 0.0
    events: int = 0
    idle_events_per_ms: float = 0.0
    peak_rss_mb: float = 0.0
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    unavailable_ms: Optional[float] = None
    crash_ms: Optional[float] = None
    cluster: Any = None
    #: Called with "start" and "end" at the window's bounds (tracing).
    window_hook: Optional[Callable[[str], None]] = None
    coordinators: List[Any] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


def typed_errors() -> Tuple[type, ...]:
    """The errors a client handles: the program's database errors and
    network unavailability.  Anything else fails the run."""
    from repro.errors import DatabaseError
    from repro.sim.network import NetworkUnavailableError
    return (DatabaseError, NetworkUnavailableError)


def _pick(rng: random.Random, mix) -> str:
    u = rng.random()
    acc = 0.0
    for name, weight in mix:
        acc += weight
        if u < acc:
            return name
    return mix[-1][0]


# -- input plans (pure functions of the seed) ----------------------------------------

def movr_plan(seed: int) -> List[Dict[str, Any]]:
    """One entry per client: its region and its list of
    ``(op name, sql, expected)`` where ``expected`` is the inserted
    user's ``(id, name)`` for inserts and reads of users."""
    from repro.workloads.movr import CITY_REGIONS

    clients = []
    for r_index, region in enumerate(REGIONS):
        local = sorted(c for c, r in CITY_REGIONS.items() if r == region)
        remote = sorted(c for c, r in CITY_REGIONS.items()
                        if r != region and r in REGIONS)
        for i in range(MOVR_CLIENTS_PER_REGION):
            client_id = r_index * MOVR_CLIENTS_PER_REGION + i
            rng = random.Random(f"movr/{seed}/{client_id}")
            ops = []
            inserted: List[Tuple[int, str]] = []
            for seq in range(MOVR_OPS_PER_CLIENT):
                name = _pick(rng, MOVR_MIX)
                if name == "user_read" and not inserted:
                    name = "user_insert"
                if name == "promo_read":
                    code = rng.randrange(MOVR_PROMO_CODES)
                    ops.append((name, "SELECT description FROM promo_codes "
                                      f"WHERE code = 'promo-{code:03d}'",
                                None))
                elif name == "promo_write":
                    code = rng.randrange(MOVR_PROMO_CODES)
                    ops.append((name, "UPDATE promo_codes SET description "
                                      f"= 'c{client_id}-{seq}' WHERE code = "
                                      f"'promo-{code:03d}'", None))
                elif name == "user_insert":
                    uid = (client_id + 1) * 1_000_000 + seq
                    pool = remote if rng.random() < MOVR_REMOTE_SHARE \
                        else local
                    city = rng.choice(pool)
                    user = (uid, f"user-{uid}")
                    inserted.append(user)
                    ops.append((name, "INSERT INTO users (id, city, name) "
                                      f"VALUES ({uid}, '{city}', "
                                      f"'{user[1]}')", user))
                else:
                    user = rng.choice(inserted)
                    ops.append((name, "SELECT name FROM users WHERE id = "
                                      f"{user[0]}", user))
            clients.append({"region": region, "index": MOVR_GATEWAYS[i],
                            "ops": ops})
    return clients


def tpcc_plan(seed: int) -> List[Dict[str, Any]]:
    """One entry per terminal: its region, home warehouse slot and list
    of ``(transaction kind, body seed)``."""
    terminals = []
    for r_index, region in enumerate(REGIONS):
        for i in range(TPCC_TERMINALS_PER_REGION):
            rng = random.Random(f"tpcc/{seed}/{r_index}/{i}")
            txns = [(_pick(rng, TPCC_MIX), rng.getrandbits(48))
                    for _ in range(TPCC_TXNS_PER_TERMINAL)]
            terminals.append({"region": region, "index": i, "txns": txns})
    return terminals


def kv_plan(seed: int) -> Dict[str, Any]:
    """Seeded Poisson arrivals per region, and the crash instant.

    Each arrival is ``(due offset ms, is_write, key index)``.
    """
    rng = random.Random(f"kv-failover/{seed}/crash")
    crash = KV_WINDOW_MS * rng.uniform(*KV_CRASH_WINDOW)
    arrivals = {}
    for region in REGIONS:
        rng = random.Random(f"kv-failover/{seed}/{region}")
        t = 0.0
        items = []
        while True:
            t += rng.expovariate(KV_RATE_PER_REGION) * 1000.0
            if t >= KV_WINDOW_MS:
                break
            items.append((t, rng.random() < KV_WRITE_SHARE,
                          rng.randrange(KV_KEYS)))
        arrivals[region] = items
    return {"crash_ms": crash, "arrivals": arrivals}


PLANS: Dict[str, Callable[[int], Any]] = {
    "movr": movr_plan, "tpcc": tpcc_plan, "kv-failover": kv_plan}


# -- shared pieces --------------------------------------------------------------------

def _settle(sim, result: Round) -> None:
    """Let closed timestamps and leases settle, then sample the idle
    cluster's background event rate."""
    sim.run(until=sim.now + SETTLE_MS)
    before = sim.events_processed
    sim.run(until=sim.now + IDLE_PROBE_MS)
    result.idle_events_per_ms = (sim.events_processed - before) \
        / IDLE_PROBE_MS


def _start_window(sim, result: Round) -> None:
    if result.window_hook is not None:
        result.window_hook("start")
    result.sim_start_ms = sim.now
    result.events = sim.events_processed
    result.setup_cpu_s = time.process_time()


def _run_window(sim, result: Round, done: Callable[[], bool]) -> None:
    """Run the measured window in slices of :data:`SLICE_MS` sim time
    until ``done()``, recording each slice's CPU time.

    Slicing does not change what is simulated (events keep their order;
    the kernel only stops between two of them), and every round of one
    seed cuts the same slices, so the runner can take each slice's
    median over rounds and leave out bursts of other work on the host.
    Calibration chunks between slices measure how fast the machine runs
    this round; their time is not part of any slice.
    """
    calibration = result.calibration_s
    calibration.append(calibration_chunk())
    _start_window(sim, result)
    slices = result.slice_cpu_s
    clock = time.process_time
    while not done():
        started = clock()
        sim.run(until=sim.now + SLICE_MS)
        slices.append(clock() - started)
        if len(slices) % CALIBRATE_EVERY == 0:
            calibration.append(calibration_chunk())
    result.host_s = sum(slices)
    result.sim_end_ms = sim.now
    result.events = sim.events_processed - result.events
    result.peak_rss_mb = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if result.window_hook is not None:
        result.window_hook("end")


def _all_done(processes) -> Callable[[], bool]:
    def done() -> bool:
        for process in processes:
            if not process.done:
                return False
            process.value  # re-raises a client loop's unexpected error
        return True
    return done


# -- movr -----------------------------------------------------------------------------

def run_movr(seed: int, obs: bool = True, tracer=None,
             window_hook=None) -> Round:
    from repro.harness.runner import build_engine
    from repro.workloads.movr import new_multi_region_schema_ddl

    typed = typed_errors()
    plan = movr_plan(seed)
    result = Round(window_hook=window_hook)
    engine = build_engine(list(REGIONS), seed=seed, obs_enabled=obs)
    cluster = engine.cluster
    sim = cluster.sim
    result.cluster = cluster
    result.coordinators = [engine.coordinator]
    home = engine.connect(REGIONS[0])
    for statement in new_multi_region_schema_ddl(list(REGIONS)):
        home.execute(statement)
    home.execute("USE movr")
    home.execute("INSERT INTO promo_codes (code, description) VALUES "
                 + ", ".join(f"('promo-{i:03d}', 'initial')"
                             for i in range(MOVR_PROMO_CODES)))
    database = engine.catalog.database("movr")
    sessions = []
    for client in plan:
        session = engine.connect(client["region"], index=client["index"])
        session.database = database
        sessions.append(session)
    _settle(sim, result)

    acked: Dict[int, str] = {}
    mismatches: List[str] = []

    def client_loop(session, ops):
        region = session.region
        for name, sql, expected in ops:
            op = Op(name, MOVR_KIND[name], region, sim.now)
            if tracer is not None:
                gen = tracer.run_request(
                    name, lambda sql=sql: session.execute_co(sql))
            else:
                gen = session.execute_co(sql)
            try:
                rows = yield from gen
            except Exception as exc:  # classify_error re-raises bugs
                op.error = classify_error(exc, typed)
            else:
                if name == "user_insert":
                    acked[expected[0]] = expected[1]
                elif name == "user_read" and expected[0] in acked:
                    if rows != [{"name": expected[1]}]:
                        mismatches.append(f"id {expected[0]}: {rows!r}")
            op.end_ms = sim.now
            result.ops.append(op)

    processes = [sim.spawn(client_loop(s, c["ops"]), name=f"movr-{i}")
                 for i, (s, c) in enumerate(zip(sessions, plan))]
    _run_window(sim, result, _all_done(processes))

    result.check("movr: reads of acknowledged inserts return them",
                 not mismatches, "; ".join(mismatches[:3]))
    rows = home.execute("SELECT id, name FROM users")
    ids = [row["id"] for row in rows]
    missing = [uid for uid in acked if uid not in set(ids)]
    result.check("movr: every acknowledged insert is readable",
                 not missing, f"missing {missing[:5]}")
    result.check("movr: no user id appears twice",
                 len(ids) == len(set(ids)),
                 f"{len(ids) - len(set(ids))} duplicates")
    return result


# -- tpcc -----------------------------------------------------------------------------

def run_tpcc(seed: int, obs: bool = True, tracer=None,
             window_hook=None) -> Round:
    from repro.harness.runner import build_engine
    from repro.workloads.tpcc import TPCCOptions, TPCCWorkload

    typed = typed_errors()
    plan = tpcc_plan(seed)
    result = Round(window_hook=window_hook)
    engine = build_engine(list(REGIONS), seed=seed, obs_enabled=obs)
    cluster = engine.cluster
    sim = cluster.sim
    result.cluster = cluster
    result.coordinators = [engine.coordinator]
    workload = TPCCWorkload(engine, list(REGIONS), TPCCOptions(
        warehouses_per_region=2, districts_per_warehouse=3,
        customers_per_district=5, items=25, seed=seed))
    home = workload.setup()
    workload.load()
    home.execute("USE tpcc")
    database = engine.catalog.database("tpcc")
    sessions = []
    for terminal in plan:
        session = engine.connect(terminal["region"], index=terminal["index"])
        session.database = database
        sessions.append(session)
    _settle(sim, result)

    def terminal_loop(session, index, txns):
        region = session.region
        warehouses = workload.warehouses_in_region(region)
        w_id = warehouses[index % len(warehouses)]
        for kind, body_seed in txns:
            op = Op(kind, TPCC_KIND[kind], region, sim.now)
            body = getattr(workload, kind)

            def txn_body(handle, body=body, body_seed=body_seed):
                # A fresh generator per attempt: a retried transaction
                # issues the same statements.
                value = yield from body(handle, random.Random(body_seed),
                                        w_id)
                return value

            if tracer is not None:
                gen = tracer.run_request(
                    kind, lambda body=txn_body: session.run_txn_co(body))
            else:
                gen = session.run_txn_co(txn_body)
            try:
                yield from gen
            except Exception as exc:  # classify_error re-raises bugs
                op.error = classify_error(exc, typed)
            op.end_ms = sim.now
            result.ops.append(op)

    processes = [sim.spawn(terminal_loop(s, t["index"], t["txns"]),
                           name=f"tpcc-{i}")
                 for i, (s, t) in enumerate(zip(sessions, plan))]
    _run_window(sim, result, _all_done(processes))

    warehouses = {r["w_id"]: r["ytd"]
                  for r in home.execute("SELECT w_id, ytd FROM warehouse")}
    districts: Dict[int, float] = {}
    for row in home.execute("SELECT w_id, ytd FROM district"):
        districts[row["w_id"]] = districts.get(row["w_id"], 0.0) + row["ytd"]
    history: Dict[int, float] = {}
    for row in home.execute("SELECT w_id, amount FROM history"):
        history[row["w_id"]] = history.get(row["w_id"], 0.0) \
            + row["amount"]
    bad = []
    for w_id, ytd in sorted(warehouses.items()):
        for label, total in (("districts", districts.get(w_id, 0.0)),
                             ("history", history.get(w_id, 0.0))):
            if abs(ytd - total) > 1e-6 * max(1.0, abs(ytd)):
                bad.append(f"w{w_id}: ytd {ytd:.4f} != {label} "
                           f"{total:.4f}")
    result.check("tpcc: warehouse ytd equals its districts' ytd and its "
                 "history amounts", not bad and bool(warehouses),
                 "; ".join(bad[:3]))
    return result


# -- kv-failover ----------------------------------------------------------------------

def run_kv_failover(seed: int, obs: bool = True, tracer=None,
                    window_hook=None) -> Round:
    from repro.admission import AdmissionConfig, install_admission
    from repro.cluster import StoreLiveness, standard_cluster
    from repro.errors import AmbiguousCommitError
    from repro.placement import (ReplicateQueue, SurvivalGoal,
                                 provision_range, zone_config_for_home)
    from repro.sim.core import Future
    from repro.txn import TransactionCoordinator

    typed = typed_errors()
    plan = kv_plan(seed)
    result = Round(window_hook=window_hook)
    cluster = standard_cluster(list(REGIONS), seed=seed, obs_enabled=obs)
    sim = cluster.sim
    result.cluster = cluster
    coord = TransactionCoordinator(cluster)
    result.coordinators = [coord]
    admission = install_admission(cluster, AdmissionConfig())
    liveness = StoreLiveness(cluster)
    repair = ReplicateQueue(cluster, liveness)
    ranges = {}
    for region in REGIONS:
        config = zone_config_for_home(region, cluster.regions(),
                                      SurvivalGoal.REGION)
        ranges[region] = provision_range(
            cluster, config, name=f"kv-{region}",
            side_transport_interval_ms=100.0, proposal_timeout_ms=1000.0,
            retransmit_interval_ms=150.0)
        repair.manage(ranges[region], config)
    repair.start()
    _settle(sim, result)

    network = cluster.network
    latency = network.latency
    survivors = [r for r in REGIONS if r != KV_CRASH_REGION]
    fallback = min(survivors, key=lambda r: latency.rtt(
        KV_CRASH_REGION, "", r, ""))
    victims = [n.node_id for n in cluster.nodes_in_region(KV_CRASH_REGION)]
    #: (region, key index) -> [(status, value, commit ts or None)]
    writes: Dict[Tuple[str, int], List[Tuple[str, str, Any]]] = {}
    waits: List[Tuple[float, Optional[float]]] = []
    state = {"outstanding": 0, "arrivals_done": 0, "crashed": False}
    finished = Future(sim)

    def maybe_finish():
        if state["outstanding"] == 0 \
                and state["arrivals_done"] == len(REGIONS):
            finished.resolve(None)

    def request(region, seq, is_write, key_index, due):
        crashed = state["crashed"]
        gateway_region = fallback if crashed and region == KV_CRASH_REGION \
            else region
        gateway = cluster.gateway_for_region(gateway_region, seq % 3)
        target = ranges[region]
        key = f"k{key_index}"
        value = f"{region}/{seq}"
        op = Op("write" if is_write else "read",
                "write" if is_write else "read", region, due)

        def txn_fn(txn):
            if is_write:
                yield from txn.write(target, key, value)
                return None
            found = yield from txn.read(target, key)
            return found

        def body(gateway_region=gateway_region, gateway=gateway):
            for resend in range(KV_RESENDS + 1):
                try:
                    yield from admission.admit_co("kv", gateway_region)
                    outcome = yield from coord.run(gateway, txn_fn,
                                                   tenant="kv")
                    return outcome
                except typed as exc:
                    # The client resends a request that surely did not
                    # commit (a put of the same value is idempotent),
                    # through the nearest surviving gateway if its own
                    # gateway died under it.
                    if isinstance(exc, AmbiguousCommitError) \
                            or resend == KV_RESENDS:
                        raise
                    if network.node_is_dead(gateway.node_id):
                        gateway_region = fallback
                        gateway = cluster.gateway_for_region(fallback,
                                                             seq % 3)
                    yield sim.sleep(KV_RESEND_BACKOFF_MS)

        gen = body() if tracer is None else tracer.run_request(op.name, body)
        try:
            _value, commit_ts = yield from gen
        except Exception as exc:  # classify_error re-raises bugs
            op.error = classify_error(exc, typed)
            if is_write:
                status = ("ambiguous" if isinstance(exc, AmbiguousCommitError)
                          else "failed")
                writes.setdefault((region, key_index), []).append(
                    (status, value, None))
        else:
            if is_write:
                writes.setdefault((region, key_index), []).append(
                    ("acked", value, commit_ts))
        op.end_ms = sim.now
        if region == KV_CRASH_REGION and crashed:
            waits.append((due, None if op.error else op.end_ms))
        result.ops.append(op)
        state["outstanding"] -= 1
        maybe_finish()

    def arrivals(region, items, start):
        for seq, (offset, is_write, key_index) in enumerate(items):
            due = start + offset
            if due > sim.now:
                yield sim.sleep(due - sim.now)
            state["outstanding"] += 1
            sim.spawn(request(region, seq, is_write, key_index, due),
                      name=f"kv-{region}-{seq}")
        state["arrivals_done"] += 1
        maybe_finish()

    def crash(at):
        yield sim.sleep(at - sim.now)
        state["crashed"] = True
        for node_id in victims:
            cluster.crash_node(node_id)

    start = sim.now
    result.crash_ms = start + plan["crash_ms"]
    sim.spawn(crash(result.crash_ms), name="kv-crash")
    for region in REGIONS:
        sim.spawn(arrivals(region, plan["arrivals"][region], start),
                  name=f"kv-arrivals-{region}")
    _run_window(sim, result, lambda: finished.done)
    result.unavailable_ms = longest_wait(waits, result.crash_ms)

    # Final strong read of every written key from a surviving region,
    # one transaction per range.
    sim.run(until=sim.now + KV_DRAIN_MS)
    gateway = cluster.gateway_for_region(fallback)
    finals = {}
    for region in REGIONS:
        keys = sorted(k for r, k in writes if r == region)

        def read_fn(txn, target=ranges[region], keys=keys):
            found = yield from txn.read_batch(
                [(target, f"k{k}") for k in keys])
            return found

        values, _ts = sim.run_until_future(
            sim.spawn(coord.run(gateway, read_fn)))
        finals.update(((region, k), v) for k, v in zip(keys, values))
    violations = []
    for (region, key_index), history in sorted(writes.items()):
        key = f"k{key_index}"
        final = finals[(region, key_index)]
        acked = [(ts, value) for status, value, ts in history
                 if status == "acked"]
        allowed = {value for status, value, _ts in history
                   if status == "ambiguous"}
        if acked:
            allowed.add(max(acked)[1])
        elif final is None:
            continue
        if final not in allowed:
            violations.append(f"{region}/{key}: read {final!r}, last acked "
                              f"{max(acked)[1] if acked else None!r}")
    result.check("kv-failover: each key reads its last acknowledged or an "
                 "indeterminate write", not violations,
                 "; ".join(violations[:3]))
    result.check("kv-failover: the dead region's range served again",
                 result.unavailable_ms is not None,
                 "" if result.unavailable_ms is not None
                 else "no commit after the crash")
    return result


RUNNERS: Dict[str, Callable[..., Round]] = {
    "movr": run_movr, "tpcc": run_tpcc, "kv-failover": run_kv_failover}
