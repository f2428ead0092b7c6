"""Per-layer accounting for the traced benchmark run.

:func:`install` wraps the public entry points of each ``repro`` layer
from outside the program (the package itself is not edited) and returns
a :class:`LayerTrace` that accumulates, per layer, a call count and a
self time: the wrapped call's duration minus the duration of the wrapped
calls nested inside it.  Per-packet boundaries (``Link.send``,
``Path.send``, ``SenderBase.handle_ack_packet`` ...) get these counters
and cumulative timers only — a span object per packet would dominate
memory.

Pool workers are forked from the traced process, so they run the same
wrappers; :meth:`ParallelExecutor.run_all` and ``map`` are wrapped to
ship each task's counter delta and duration back with its result.

What the wrappers cannot see: the engine also dispatches private
callbacks that are not wrapped — ``DynamicLink`` service completions,
pacing ticks, RTO timers, MI-close timers and multi-hop forwarding
(``_Hop.receive``) — and their time outside any wrapped call lands in
``sim.engine`` self time.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

perf = time.perf_counter

LAYERS = (
    "sim.engine",
    "sim.link",
    "sim.aqm",
    "sim.flow",
    "protocols",
    "core",
    "harness.runner",
    "harness.cache",
    "harness.parallel",
)
_INDEX = {name: index for index, name in enumerate(LAYERS)}

COUNTERS = (
    "events",        # Simulator.events_fired over every run
    "hops",          # links a Path.send call routes a packet onto
    "mis",           # monitor intervals closed (MonitorInterval.compute_metrics)
    "aqm_drops",     # tail + AQM drops on DynamicLink hops, per finished run
    "lookups",       # ResultCache.load_run calls
    "hits_seen",     # load_run calls that returned a stored run
    "bytes_read",    # size of the entries those hits read
    "load_s",        # wall time inside load_run
    "store_s",       # wall time inside store_run
    "pools",         # run_all/map calls whose tasks ran in pool workers
    "dispatch_s",    # pooled call wall minus its longest task
    "task_s",        # summed task time of pooled calls
    "capacity_s",    # pooled call wall times its worker count
)

# The trace of this process (and of the pool workers forked from it);
# module-level because worker tasks are pickled by reference.
_ACTIVE: LayerTrace | None = None


class LayerTrace:
    """Call counts, self times and counters of one traced process."""

    def __init__(self) -> None:
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        self.counters = dict.fromkeys(COUNTERS, 0)
        # One child-time accumulator per open wrapped call.
        self.stack: list[float] = []
        self.pid = os.getpid()

    # -- accounting ---------------------------------------------------
    def wrap(self, layer: str, fn, before=None, after=None):
        """``fn`` timed into ``layer``.

        ``before(args)`` runs ahead of the call and its value is passed to
        ``after(token, args, result, elapsed)`` once the call returns.
        """
        index = _INDEX[layer]
        stack, calls, self_s = self.stack, self.calls, self.self_s
        # Most wrapped calls are per packet: the variant without hooks
        # keeps their tracing cost, and so trace.overhead, down.
        if before is None and after is None:
            def timed(*args, **kwargs):
                stack.append(0.0)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf() - t0
                    self_s[index] += elapsed - stack.pop()
                    calls[index] += 1
                    if stack:
                        stack[-1] += elapsed
        else:
            def timed(*args, **kwargs):
                token = before(args) if before is not None else None
                stack.append(0.0)
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf() - t0
                    self_s[index] += elapsed - stack.pop()
                    calls[index] += 1
                    if stack:
                        stack[-1] += elapsed
                if after is not None:
                    after(token, args, result, elapsed)
                return result

        timed.__name__ = fn.__name__
        timed.__qualname__ = fn.__qualname__
        timed.__module__ = fn.__module__
        timed.__doc__ = fn.__doc__
        timed.__wrapped__ = fn
        return timed

    def snapshot(self) -> tuple:
        return list(self.calls), list(self.self_s), dict(self.counters)

    def delta(self, snap: tuple) -> tuple:
        calls, self_s, counters = snap
        return (
            [now - then for now, then in zip(self.calls, calls)],
            [now - then for now, then in zip(self.self_s, self_s)],
            {key: self.counters[key] - counters[key] for key in COUNTERS},
        )

    def merge(self, delta: tuple) -> None:
        calls, self_s, counters = delta
        for index in range(len(LAYERS)):
            self.calls[index] += calls[index]
            self.self_s[index] += self_s[index]
        for key in COUNTERS:
            self.counters[key] += counters[key]

    def totals(self) -> dict:
        """JSON-safe totals (not yet divided by the op count)."""
        return {
            "calls": dict(zip(LAYERS, self.calls)),
            "self_s": dict(zip(LAYERS, self.self_s)),
            "counters": dict(self.counters),
        }

    # -- pool tasks ---------------------------------------------------
    def collect(self, executor, outcomes: list, elapsed: float) -> list:
        """Unwrap ``_task`` outcomes of a pooled call; merge worker deltas."""
        results, task_times, pooled = [], [], False
        for result, delta, task_s in outcomes:
            results.append(result)
            task_times.append(task_s)
            if delta is not None:
                self.merge(delta)
                pooled = True
        if pooled:
            counters = self.counters
            counters["pools"] += 1
            counters["dispatch_s"] += elapsed - max(task_times)
            counters["task_s"] += sum(task_times)
            counters["capacity_s"] += min(executor.jobs, len(task_times)) * elapsed
        return results


def _task(fn, args):
    """Pool-side wrapper: ``fn(*args)`` plus this worker's counter delta.

    Run in the traced process itself (serial fallback) it returns no
    delta, because the counters already landed in the right place.
    """
    trace = _ACTIVE
    remote = trace is not None and os.getpid() != trace.pid
    if remote:
        # The fork copied the parent's open-call stack; this task is a
        # new root.
        trace.stack.clear()
        snap = trace.snapshot()
    t0 = perf()
    result = fn(*args)
    task_s = perf() - t0
    return result, trace.delta(snap) if remote else None, task_s


def _task_item(pair):
    fn, item = pair
    return _task(fn, (item,))


def _entry_bytes(cache, key: str) -> int:
    """Size of a stored entry, by the layout ResultCache documents."""
    try:
        return (Path(cache.root) / key[:2] / f"{key}.json").stat().st_size
    except OSError:
        return 0


def install() -> LayerTrace:
    """Wrap every layer's public calls; returns the process's trace."""
    global _ACTIVE
    from repro.core import monitor, noise_tolerance, rate_control, utility
    from repro.harness import cache, parallel, runner
    from repro.protocols import base, proteus
    from repro.sim import aqm, engine, flow, link, topology

    trace = LayerTrace()
    _ACTIVE = trace
    counters = trace.counters

    def patch(owner, name: str, layer: str, before=None, after=None) -> None:
        fn = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        setattr(owner, name, trace.wrap(layer, fn, before, after))

    # sim.engine: the event loop, plus the events it fired.
    def events_after(before_events, args, _result, _elapsed):
        counters["events"] += args[0].events_fired - before_events

    patch(engine.Simulator, "run", "sim.engine",
          before=lambda args: args[0].events_fired, after=events_after)

    # sim.link / sim.aqm: one call per packet per hop.
    patch(link.Link, "send", "sim.link")
    patch(aqm.DynamicLink, "send", "sim.aqm")

    # sim.flow / sim.topology: packet plumbing and flow set-up.
    def hops_after(_token, args, _result, _elapsed):
        counters["hops"] += len(args[0].links)

    patch(flow.Path, "send", "sim.flow", after=hops_after)
    patch(flow.FlowReceiver, "receive", "sim.flow")
    patch(flow.Flow, "transmit", "sim.flow")
    for cls in vars(topology).values():
        if isinstance(cls, type) and cls.__module__ == topology.__name__ \
                and "add_flow" in cls.__dict__:
            patch(cls, "add_flow", "sim.flow")

    # protocols: the sender base's per-ACK path.
    patch(base.SenderBase, "handle_ack_packet", "protocols")

    # core + protocols.proteus: the controller.  ProteusSender's packet
    # hooks are the monitor-interval bookkeeping, so they count here.
    for name in ("on_ack", "on_sent", "on_loss", "on_timeout"):
        patch(proteus.ProteusSender, name, "core")
    patch(rate_control.RateController, "on_result", "core")
    def mi_after(_token, _args, _result, _elapsed):
        counters["mis"] += 1

    patch(monitor.MonitorInterval, "compute_metrics", "core", after=mi_after)
    patch(noise_tolerance.NoiseTolerancePipeline, "filter_metrics", "core")
    for cls in vars(utility).values():
        if isinstance(cls, type) and issubclass(cls, utility.UtilityFunction) \
                and "__call__" in cls.__dict__:
            patch(cls, "__call__", "core")

    # harness.runner: the entry points (plus AQM drops of each live run).
    def drops_after(_token, _args, result, _elapsed):
        network = result.dumbbell
        if network is None:
            return  # rebuilt from the cache: no live links
        for hop in network.iter_links():
            if isinstance(hop, aqm.DynamicLink):
                counters["aqm_drops"] += hop.stats.tail_drops + hop.stats.aqm_drops

    patch(runner, "run_flows", "harness.runner", after=drops_after)
    patch(runner, "run_pair", "harness.runner")

    # harness.cache: lookups, hits and the bytes and time they cost.
    def load_after(_token, args, result, elapsed):
        counters["lookups"] += 1
        counters["load_s"] += elapsed
        if result is not None:
            counters["hits_seen"] += 1
            counters["bytes_read"] += _entry_bytes(args[0], args[1])

    def store_after(_token, _args, _result, elapsed):
        counters["store_s"] += elapsed

    patch(cache.ResultCache, "load_run", "harness.cache", after=load_after)
    patch(cache.ResultCache, "store_run", "harness.cache", after=store_after)
    for name in ("payload_key", "stats_from_record", "stats_to_record"):
        patch(cache, name, "harness.cache")

    # harness.parallel: tasks go out wrapped in _task and come back with
    # the worker's counters.
    run_all = parallel.ParallelExecutor.__dict__["run_all"]
    pmap = parallel.ParallelExecutor.__dict__["map"]

    def traced_run_all(executor, calls):
        wrapped = [(_task, (fn, args)) for fn, args in calls]
        t0 = perf()
        outcomes = run_all(executor, wrapped)
        return trace.collect(executor, outcomes, perf() - t0)

    def traced_map(executor, fn, items):
        t0 = perf()
        outcomes = pmap(executor, _task_item, [(fn, item) for item in items])
        return trace.collect(executor, outcomes, perf() - t0)

    traced_run_all.__name__ = "run_all"
    traced_map.__name__ = "map"
    parallel.ParallelExecutor.run_all = trace.wrap("harness.parallel", traced_run_all)
    parallel.ParallelExecutor.map = trace.wrap("harness.parallel", traced_map)
    return trace
