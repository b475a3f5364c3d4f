"""Tests for the benchmark's tracer: self-time arithmetic and clean removal.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import types

import pytest

from tracer import Tracer


class FakeClock:
    """A clock that moves only when told to, plus ``tick`` per read."""

    def __init__(self, tick: int = 0):
        self.now = 0
        self.tick = tick

    def __call__(self) -> int:
        self.now += self.tick
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


def _nested(clock):
    """outer does 5 + inner + 3 + inner + 2; inner does 10 (or raises)."""
    def inner(fail=False):
        clock.advance(10)
        if fail:
            raise RuntimeError("inner failed")
        return "inner"

    def outer(fail_second=False):
        clock.advance(5)
        layer.inner()
        clock.advance(3)
        try:
            layer.inner(fail=fail_second)
        except RuntimeError:
            pass
        clock.advance(2)
        return "outer"

    layer = types.SimpleNamespace(inner=inner, outer=outer)
    return layer


@pytest.mark.parametrize("tick", [0, 1])
def test_self_time_of_nested_calls(tick):
    clock = FakeClock(tick)
    layer = _nested(clock)
    tracer = Tracer(clock=clock)
    tracer.wrap(layer, "inner", "inner")
    tracer.wrap(layer, "outer", "outer")
    try:
        assert layer.outer() == "outer"
    finally:
        tracer.restore()

    inner, outer = tracer.stats["inner"], tracer.stats["outer"]
    assert inner.calls == 2 and outer.calls == 1
    # one clock read separates start from end, so each span measures one tick more
    assert inner.total_ns == inner.self_ns == 2 * (10 + tick)
    assert list(inner.durations_ns) == [10 + tick, 10 + tick]
    # the children's wrappers are charged to neither span; outer keeps only
    # its own work and three clock reads (each child's first, its own last)
    assert outer.self_ns == 5 + 3 + 2 + 3 * tick
    assert outer.total_ns >= outer.self_ns + inner.total_ns
    assert tracer.self_s("outer") == outer.self_ns / 1e9


def test_failed_child_is_counted_and_unwound():
    clock = FakeClock()
    layer = _nested(clock)
    tracer = Tracer(clock=clock)
    tracer.wrap(layer, "inner", "inner")
    tracer.wrap(layer, "outer", "outer")
    try:
        layer.outer(fail_second=True)
    finally:
        tracer.restore()
    assert tracer.errors("inner") == 1 and tracer.errors("outer") == 0
    assert tracer.stats["outer"].self_ns == 10
    assert tracer._stack == []


def test_labels_split_spans_and_prefixes_sum_them():
    clock = FakeClock()
    ns = types.SimpleNamespace(f=lambda n: clock.advance(n))
    tracer = Tracer(clock=clock)
    tracer.wrap(ns, "f", "work",
                label=lambda name, args, kw: name + (".big" if args[0] > 5 else ".small"))
    for n in (1, 2, 7, 9, 3):
        ns.f(n)
    tracer.restore()
    assert tracer.calls("work") == 5
    assert tracer.calls("work.big") == 2 and tracer.calls("work.small") == 3
    assert tracer.self_s("work") == 22 / 1e9
    assert tracer.stats["work.small"].percentile_ns(50) == 2
    assert tracer.stats["work.big"].percentile_ns(99) == 9


def test_coarse_spans_are_kept_in_full():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("command"):
        clock.advance(4)
        with tracer.span("target"):
            clock.advance(6)
    assert [(s["name"], s["parent"], s["end_ns"] - s["start_ns"]) for s in tracer.coarse] == [
        ("target", "command", 6), ("command", None, 10)]
    assert tracer.stats["command"].self_ns == 4


def test_wrapping_twice_is_refused():
    ns = types.SimpleNamespace(f=lambda: None)
    tracer = Tracer()
    tracer.wrap(ns, "f", "f")
    with pytest.raises(ValueError):
        tracer.wrap(ns, "f", "again")
    tracer.restore()


def test_every_program_wrapper_is_removed():
    """After a traced episode, every name the benchmark wraps is the original."""
    import numpy as np
    import qsteer

    from workload import install

    owners = (qsteer.env, qsteer.agent, qsteer.network, qsteer.sequences, qsteer.cli,
              qsteer.config, qsteer.env.QSEEnv, qsteer.agent.ReplayMemory)
    before = [dict(vars(o)) for o in owners]
    tracer = Tracer()
    install(tracer, qsteer)
    try:
        changed = [k for o, b in zip(owners, before) for k, v in vars(o).items()
                   if b.get(k) is not v]
        assert len(changed) == len(tracer._patches) == 25
        env = qsteer.env.QSEEnv(qsteer.env.EnvConfig())
        state = env.reset(np.random.default_rng(0))
        while not state.done:
            state = env.step(state, 2).next
    finally:
        tracer.restore()
    assert [dict(vars(o)) for o in owners] == before
    assert tracer.calls("env.step") == tracer.calls("env.step.project") > 0
    assert tracer.calls("model.measure") == tracer.calls("env.step")
    assert tracer.counters["env.ended"] == 1
