"""Span recording around the program's layer entry points.

Used only by the traced round.  :func:`install` replaces a fixed list of
public methods (``Session.execute_co``, ``DistSender.read``,
``RaftGroup.propose``, ``Network.send``, ...) on their classes with
wrappers that record one :class:`Span` per call while the tracer is
active.  Patching the class, before any cluster exists, also catches
calls made through locally cached bound methods such as
``send = self.network.send``.

Three shapes of entry point are handled:

* a call returning a generator (a coroutine the simulator resumes many
  times): the span's host time adds up only the time spent inside each
  resumption of that generator, so other clients' work that runs
  between two resumptions is never charged to it;
* a call returning a ``Future`` (RPCs, proposals, queue admission): host
  time is the call itself, and sim time runs until the future settles;
* a plain call: both clocks cover the call.

Self time is a span's time minus the time its child spans cover.  For
host time the children are the spans whose resumptions ran nested inside
this span's resumptions; for sim time they are the child spans' sim
intervals, merged where they overlap.

Context follows the work across the simulator: a process spawned inside
a span keeps that span as its parent (and its resumptions are charged to
it), an RPC handler runs as a child of its ``Network.call`` span, and a
one-way message's delivery runs as a child of its ``Network.send`` span,
charged to the layer whose module defines the delivered callback.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
import types
from typing import Any, Callable, List, Optional, Tuple

_now = time.perf_counter
_GeneratorType = types.GeneratorType

#: Layers reported by the traced round, named after ``src/repro``
#: packages (``network`` is ``repro.sim.network``; ``sim`` is the rest
#: of ``repro.sim``: the kernel plus work no span covers).
LAYERS = ("sql", "optimizer", "txn", "kv", "raft", "storage", "admission",
          "network")


def layer_of_module(module: str) -> str:
    parts = (module or "").split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return "bench"
    if parts[1] == "sim":
        return "network" if parts[2:3] == ["network"] else "sim"
    return parts[1]


class Span:
    __slots__ = ("name", "layer", "parent", "req", "sim_start", "sim_end",
                 "host", "child_host", "error")

    def __init__(self, name: str, layer: str, parent: Optional["Span"],
                 req: Optional[int], sim_start: float):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.req = req
        self.sim_start = sim_start
        self.sim_end: Optional[float] = None
        self.host = 0.0
        self.child_host = 0.0
        #: Exception class the call ended with, if any.
        self.error: Optional[type] = None

    @property
    def self_host(self) -> float:
        return self.host - self.child_host


class Tracer:
    """Holds every span of one traced round in memory."""

    def __init__(self):
        self.sim = None
        self.active = False
        self.spans: List[Span] = []
        #: Logical parent for spans created now.
        self.current: Optional[Span] = None
        #: Spans whose resumption is running now, innermost last; the
        #: host time of a nested resumption is charged to the one below.
        self.stack: List[Span] = []
        self._next_req = 0
        #: Partition lookups each uniqueness-check plan asked for.
        self.uniqueness_rpcs: List[int] = []
        #: RPC handlers that finished (each then sends its reply).
        self.replies = 0
        self.missing: List[str] = []
        #: Private hooks that only feed one metric; a later refactor
        #: may remove them, which zeroes that metric but fails nothing.
        self.optional_missing: List[str] = []
        #: Every MVCC store created, for the retained-versions count.
        self.stores: List[Any] = []

    # -- span lifecycle ---------------------------------------------------

    def new_span(self, name: str, layer: str) -> Span:
        parent = self.current
        span = Span(name, layer, parent,
                    parent.req if parent is not None else None,
                    self.sim._now)
        self.spans.append(span)
        return span

    def new_request(self, name: str) -> Span:
        """A root span for one benchmark operation."""
        self._next_req += 1
        span = Span(name, "bench", None, self._next_req, self.sim._now)
        self.spans.append(span)
        return span

    def enter(self, span: Span) -> Tuple[Optional[Span], float]:
        prev = self.current
        self.current = span
        self.stack.append(span)
        return prev, _now()

    def leave(self, prev: Optional[Span], t0: float) -> None:
        elapsed = _now() - t0
        stack = self.stack
        span = stack.pop()
        span.host += elapsed
        if stack:
            stack[-1].child_host += elapsed
        self.current = prev

    def settle(self, span: Span, fut) -> None:
        """Close ``span`` when ``fut`` completes."""
        def done(fut, span=span):
            span.sim_end = self.sim._now
            if fut._error is not None:
                span.error = type(fut._error)
        fut.add_callback(done)

    def run_request(self, name: str, make: Callable[[], Any]):
        """Start one operation's coroutine (``make()``) under a new root
        request span, so every span it opens carries its request id."""
        if not self.active:
            return make()
        span = self.new_request(name)
        prev, t0 = self.enter(span)
        try:
            gen = make()
        finally:
            self.leave(prev, t0)
        return traced_generator(self, span, gen)

    # -- output -------------------------------------------------------------

    def write(self, path: str, window_end: float) -> None:
        """Write every span as one JSON line (gzip), ids by position."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with gzip.open(path, "wt") as out:
            for i, span in enumerate(self.spans):
                parent = span.parent
                out.write(json.dumps([
                    i, span.name,
                    index.get(id(parent)) if parent is not None else None,
                    span.req, round(span.host * 1e6, 2),
                    round(span.self_host * 1e6, 2),
                    round(span.sim_start, 4),
                    round(span.sim_end if span.sim_end is not None
                          else window_end, 4),
                    span.error.__name__ if span.error else None]) + "\n")


def traced_generator(tracer: Tracer, span: Span, gen):
    """Drive ``gen`` exactly as its caller would, timing each resumption
    as part of ``span``."""
    send_value = None
    error = None
    while True:
        prev, t0 = tracer.enter(span)
        try:
            if error is None:
                out = gen.send(send_value)
            else:
                out = gen.throw(error)
        except StopIteration as stop:
            tracer.leave(prev, t0)
            span.sim_end = tracer.sim._now
            return stop.value
        except BaseException as exc:
            tracer.leave(prev, t0)
            span.sim_end = tracer.sim._now
            span.error = type(exc)
            raise
        tracer.leave(prev, t0)
        try:
            send_value = yield out
            error = None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # delivered into the wrapped coroutine
            send_value = None
            error = exc


def _context_generator(tracer: Tracer, span: Span, gen):
    """Run a spawned process as a continuation of ``span``: new spans it
    opens are children of ``span`` and its own time is charged to it."""
    send_value = None
    error = None
    while True:
        prev, t0 = tracer.enter(span)
        try:
            if error is None:
                out = gen.send(send_value)
            else:
                out = gen.throw(error)
        except StopIteration as stop:
            tracer.leave(prev, t0)
            return stop.value
        except BaseException:
            tracer.leave(prev, t0)
            raise
        tracer.leave(prev, t0)
        try:
            send_value = yield out
            error = None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:
            send_value = None
            error = exc


def _wrap(tracer: Tracer, fn: Callable, name: str, layer: str,
          future_type: type, hook: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        span = tracer.new_span(name, layer)
        prev, t0 = tracer.enter(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.leave(prev, t0)
            span.sim_end = tracer.sim._now
            span.error = type(exc)
            raise
        tracer.leave(prev, t0)
        if hook is not None:
            hook(tracer, span, args, kwargs, result)
        if type(result) is _GeneratorType:
            return traced_generator(tracer, span, result)
        if isinstance(result, future_type):
            tracer.settle(span, result)
        else:
            span.sim_end = tracer.sim._now
        return result
    wrapper.__wrapped_by_perfbench__ = True
    return wrapper


# -- entry points ---------------------------------------------------------------

def _public(cls, prefix: str = "") -> List[str]:
    names = []
    for name, value in vars(cls).items():
        if name.startswith("_") or not callable(value):
            continue
        if isinstance(value, (property, staticmethod, classmethod, type)):
            continue
        if name.startswith(prefix):
            names.append(name)
    return sorted(names)


def _uniqueness_hook(tracer, span, args, kwargs, result) -> None:
    tracer.uniqueness_rpcs.append(
        sum(len(check.partitions) for check in result or ()))


def install(tracer: Tracer) -> None:
    """Patch every traced entry point (idempotent per process)."""
    import importlib

    from repro.sim import core, network
    from repro.sql import parser, session

    future_type = core.Future

    def add(module_path: str, cls_name: Optional[str], names, hooks=None,
            optional: bool = False):
        try:
            module = importlib.import_module(module_path)
        except ImportError:
            tracer.missing.append(module_path)
            return
        owner = module if cls_name is None else getattr(module, cls_name,
                                                        None)
        if owner is None:
            tracer.missing.append(f"{module_path}.{cls_name}")
            return
        if callable(names):
            names = names(owner)
        for name in names:
            fn = getattr(owner, name, None) if cls_name is None \
                else vars(owner).get(name)
            if fn is None:
                (tracer.optional_missing if optional else
                 tracer.missing).append(f"{module_path}.{cls_name}.{name}")
                continue
            if getattr(fn, "__wrapped_by_perfbench__", False):
                continue
            label = f"{cls_name}.{name}" if cls_name else name
            hook = (hooks or {}).get(name)
            layer = layer_of_module(module_path)
            setattr(owner, name, _wrap(tracer, fn, label, layer,
                                       future_type, hook))

    add("repro.sql.session", "Session",
        ["execute_co", "execute_stmt_co", "run_txn_co"])
    # Session resolves ``parse_one`` through its own module globals.
    add("repro.sql.parser", None, ["parse_one"])
    session.parse_one = parser.parse_one
    add("repro.optimizer.planner", "Planner",
        lambda cls: _public(cls, "plan_"),
        {"plan_uniqueness_checks": _uniqueness_hook})
    add("repro.txn.coordinator", "TransactionCoordinator", ["run", "begin"])
    add("repro.txn.crdb", "Transaction",
        ["read", "read_batch", "locking_read", "write", "write_batch",
         "delete", "commit"])
    # Commit wait has no public entry point of its own.
    add("repro.txn.crdb", "Transaction", ["_commit_wait_if_needed"],
        optional=True)
    add("repro.kv.distsender", "DistSender",
        lambda cls: [n for n in _public(cls) if n not in (
            "resolve", "nearest_replica")])
    add("repro.kv.range", "Range", lambda cls: _public(cls, "serve_"))
    add("repro.kv.range", "Range", ["failover_lease", "add_replica_safely",
                                    "remove_replica_safely"])
    add("repro.kv.replica", "Replica",
        ["follower_read", "follower_read_waiting"])
    add("repro.raft.group", "RaftGroup", ["propose"])
    add("repro.storage.mvcc", "MVCCStore",
        ["get", "intent_for", "newest_version_ts", "changed_in_interval",
         "check_write", "put_intent", "resolve_intent", "put_committed"])
    add("repro.storage.locktable", "LockTable", ["wait_for"])
    add("repro.admission.queue", "AdmissionQueue", ["admit"])
    add("repro.admission.store_queue", "StoreWorkQueue", ["work"])
    _install_store_registry(tracer)
    _install_network(tracer, network.Network, future_type)
    _install_spawn(tracer, core.Simulator)


def _install_network(tracer: Tracer, cls, future_type) -> None:
    call, send = cls.call, cls.send
    if getattr(call, "__wrapped_by_perfbench__", False):
        return

    def traced_call(self, src, dst, handler, *args, **kwargs):
        if not tracer.active:
            return call(self, src, dst, handler, *args, **kwargs)
        span = tracer.new_span("Network.call", "network")

        def run_handler(handler=handler, span=span):
            # Runs at the destination, in kernel context.
            prev, t0 = tracer.enter(span)
            try:
                gen = handler()
            finally:
                tracer.leave(prev, t0)
            return _finish_counter(tracer, span, gen)

        prev, t0 = tracer.enter(span)
        try:
            fut = call(self, src, dst, run_handler, *args, **kwargs)
        finally:
            tracer.leave(prev, t0)
        tracer.settle(span, fut)
        return fut

    def traced_send(self, src, dst, callback, *args):
        if not tracer.active:
            return send(self, src, dst, callback, *args)
        span = tracer.new_span("Network.send", "network")
        layer = layer_of_module(getattr(callback, "__module__", ""))

        def deliver(*cb_args, callback=callback, span=span, layer=layer):
            span.sim_end = tracer.sim._now
            prev_current = tracer.current
            tracer.current = span
            try:
                child = tracer.new_span("deliver", layer)
            finally:
                tracer.current = prev_current
            prev, t0 = tracer.enter(child)
            try:
                callback(*cb_args)
            except BaseException as exc:
                child.error = type(exc)
                raise
            finally:
                tracer.leave(prev, t0)
                child.sim_end = tracer.sim._now

        prev, t0 = tracer.enter(span)
        try:
            send(self, src, dst, deliver, *args)
        finally:
            tracer.leave(prev, t0)

    for fn, orig in ((traced_call, call), (traced_send, send)):
        functools.update_wrapper(fn, orig)
        fn.__wrapped_by_perfbench__ = True
    cls.call, cls.send = traced_call, traced_send


def _finish_counter(tracer: Tracer, span: Span, gen):
    """Count the handler's completion: that is when the reply message is
    sent (or dropped), which the message counter check needs."""
    def counted():
        try:
            result = yield from gen
        finally:
            tracer.replies += 1
        return result
    return counted()


def _install_spawn(tracer: Tracer, cls) -> None:
    spawn, init = cls.spawn, cls.__init__
    if getattr(spawn, "__wrapped_by_perfbench__", False):
        return

    @functools.wraps(init)
    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracer.sim = self

    @functools.wraps(spawn)
    def traced_spawn(self, generator, name=""):
        span = tracer.current
        if tracer.active and span is not None:
            generator = _context_generator(tracer, span, generator)
        return spawn(self, generator, name)

    traced_spawn.__wrapped_by_perfbench__ = True
    cls.spawn = traced_spawn
    cls.__init__ = traced_init


def _install_store_registry(tracer: Tracer) -> None:
    from repro.storage.mvcc import MVCCStore

    init = MVCCStore.__init__
    if getattr(init, "__wrapped_by_perfbench__", False):
        return

    @functools.wraps(init)
    def registering_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracer.stores.append(self)

    registering_init.__wrapped_by_perfbench__ = True
    MVCCStore.__init__ = registering_init
