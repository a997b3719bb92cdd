"""Span accounting: host time per generator resumption, self time,
request ids, and transparency of the wrappers."""

import pytest

import tracing


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class FakeSim:
    _now = 0.0


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(tracing, "_now", fake)
    return fake


def make_tracer():
    tracer = tracing.Tracer()
    tracer.sim = FakeSim()
    tracer.active = True
    return tracer


def test_host_time_adds_up_only_the_generators_own_resumptions(clock):
    tracer = make_tracer()

    def body():
        clock.now += 1.0          # first resumption: 1 s
        got = yield "a"
        clock.now += 2.0          # second resumption: 2 s
        yield got
        clock.now += 4.0          # last resumption: 4 s
        return "done"

    span = tracer.new_request("op")
    gen = tracing.traced_generator(tracer, span, body())
    assert next(gen) == "a"
    clock.now += 100.0            # other clients' work between resumptions
    assert gen.send("b") == "b"
    clock.now += 100.0
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value == "done"
    assert span.host == pytest.approx(7.0)
    assert span.self_host == pytest.approx(7.0)


def test_nested_resumptions_are_subtracted_from_the_parents_self_time(clock):
    tracer = make_tracer()

    def child():
        clock.now += 3.0
        yield "c"
        clock.now += 1.0

    def parent():
        clock.now += 2.0
        child_span = tracer.new_span("child", "kv")
        yield from tracing.traced_generator(tracer, child_span, child())
        clock.now += 5.0

    root = tracer.new_request("op")
    gen = tracing.traced_generator(tracer, root, parent())
    next(gen)
    clock.now += 50.0
    with pytest.raises(StopIteration):
        next(gen)
    child_span = tracer.spans[1]
    assert child_span.parent is root and child_span.req == root.req
    assert child_span.host == pytest.approx(4.0)
    assert root.host == pytest.approx(11.0)
    assert root.self_host == pytest.approx(7.0)


def test_wrapped_generator_passes_exceptions_through(clock):
    tracer = make_tracer()

    def body():
        try:
            yield 1
        except ValueError as err:
            return f"caught {err}"

    span = tracer.new_request("op")
    gen = tracing.traced_generator(tracer, span, body())
    next(gen)
    with pytest.raises(StopIteration) as stop:
        gen.throw(ValueError("x"))
    assert stop.value.value == "caught x"
    assert span.error is None

    def failing():
        yield 1
        raise KeyError("k")

    span = tracer.new_request("op")
    gen = tracing.traced_generator(tracer, span, failing())
    next(gen)
    with pytest.raises(KeyError):
        next(gen)
    assert span.error is KeyError


def test_request_ids_follow_the_parent_and_background_has_none(clock):
    tracer = make_tracer()
    background = tracer.new_span("Network.send", "network")
    assert background.req is None
    seen = []

    def body():
        return
        yield

    def make():
        seen.append(tracer.new_span("Session.execute_co", "sql"))
        return body()

    gen = tracer.run_request("op", make)
    list(gen)
    assert seen[0].req is not None and seen[0].parent.name == "op"


def test_layer_of_module():
    assert tracing.layer_of_module("repro.raft.group") == "raft"
    assert tracing.layer_of_module("repro.sim.network") == "network"
    assert tracing.layer_of_module("repro.sim.core") == "sim"
    assert tracing.layer_of_module("workloads") == "bench"
