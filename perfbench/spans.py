"""Outside-in span tracing for the benchmark's traced run.

Nothing under ``src/`` is edited: :class:`Tracer` replaces the public
methods of each ``repro`` layer on their classes (``Router`` uses
``__slots__``, so instance patching is impossible anyway) with timing
wrappers, and :meth:`Tracer.restore` puts the originals back.

A span's *self time* is its duration minus the time covered by the spans
it encloses, so ``do_sa -> send_flit -> policy pick`` charges each layer
only for its own work. Self times are summed per *bucket* (a per-layer
metric name such as ``noc.do_sa_self_s``); calls are counted per bucket
and per wrapped function (``Router.do_sa``). The bottom of the span stack
accumulates the duration of every top-level span, so
``frame - covered_s`` is the time no span accounts for
(``noc.step_other_s``), and the per-bucket self times plus that remainder
add up to the frame exactly.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter, defaultdict

from repro.noc.trace import KernelTrace

#: (module, class, methods, bucket) for every layer boundary the traced
#: run wraps. A class is patched only where it defines the method itself,
#: so base-class identity checks in the kernel (``end_router_cycle`` /
#: ``end_network_cycle`` overrides) see exactly what they saw before.
LAYER_CALLS = (
    ("repro.noc.router", "Router", ("do_va",), "noc.do_va_self_s"),
    ("repro.noc.router", "Router", ("do_sa",), "noc.do_sa_self_s"),
    ("repro.noc.network", "Network", ("send_flit",), "noc.send_flit_s"),
    ("repro.noc.network", "Network", ("deliver_events",), "noc.deliver_events_s"),
    ("repro.noc.network", "Network", ("place_injections",), "noc.place_injections_s"),
    ("repro.noc.network", "Network", ("inject",), "traffic.tick_s"),
    ("repro.traffic.synthetic", "SyntheticTrafficSource",
     ("tick", "next_injection_cycle"), "traffic.tick_s"),
    ("repro.traffic.parsec", "ParsecWorkload", ("tick", "_on_ejection"), "traffic.tick_s"),
    ("repro.obs.collector", "MetricsCollector",
     ("dpa_flip", "take_sample", "finalize", "_on_eject"), "obs.overhead_s"),
    ("repro.noc.guard", "RuntimeGuard", ("check", "on_stall"), "guard.overhead_s"),
    ("repro.experiments.cache", "ResultCache", ("get",), "cache.get_s"),
    ("repro.experiments.cache", "ResultCache", ("put",), "cache.put_s"),
    ("repro.experiments.scenarios", "ScenarioSpec", ("build",), "setup.build_s"),
)

#: Policy hooks, wrapped on every ``ArbitrationPolicy`` class defining them.
POLICY_CALLS = {
    "choose_request": "policy.pick_s",
    "va_out_pick": "policy.pick_s",
    "sa_in_pick": "policy.pick_s",
    "sa_out_pick": "policy.pick_s",
    "end_router_cycle": "policy.end_router_cycle_s",
    "end_network_cycle": "policy.end_network_cycle_s",
}

#: Routing queries, wrapped on every ``RoutingAlgorithm`` class defining
#: them (``route_entry`` is the route-table form of the other three).
ROUTING_CALLS = (
    "admissible_ports", "rank_ports", "escape_port", "escape_vc_class", "route_entry",
)

#: Kernel trace events. The guard's tee (which fans each event out to the
#: obs collector and the guard's ring) is wrapped on them; the ring itself
#: is not, since a span costs more than the append it would time.
TRACE_EVENTS = ("va_grant", "sa_win", "flit_send", "credit_return", "wake", "sleep", "dpa_flip")


class GrantCounter(KernelTrace):
    """Counting kernel trace: VA grants and DPA flips, nothing recorded."""

    __slots__ = ("grants", "flips")

    def __init__(self) -> None:
        self.grants = 0
        self.flips = 0

    def va_grant(self, cycle, node, in_port, in_vc, out_port, out_vc, pid) -> None:
        self.grants += 1

    def dpa_flip(self, cycle, node, native_high, ovc_n, ovc_f) -> None:
        self.flips += 1


class Tracer:
    """Span recorder plus the class patches that feed it.

    ``frame_s`` is the wall time the spans are reconciled against: the
    benchmark adds its own timed region to it, and inside pool workers the
    wrapped cell entry point does (see :meth:`frame`).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.bucket_calls: Counter[str] = Counter()
        self._stack = [0.0]
        self.frame_s = 0.0
        self.pid = os.getpid()
        self._saved: list[tuple[type, str, object]] = []

    def reset(self) -> None:
        """Zero every total in place (wrappers keep their references)."""
        self.self_s.clear()
        self.calls.clear()
        self.bucket_calls.clear()
        self._stack[:] = [0.0]
        self.frame_s = 0.0

    @property
    def covered_s(self) -> float:
        """Total duration of top-level spans (what the frame's spans cover)."""
        return self._stack[0]

    def other_s(self) -> float:
        """Frame time no span accounts for."""
        return self.frame_s - self.covered_s

    def timed(self, fn, bucket: str, name: str):
        """``fn`` wrapped in a span charged to ``bucket``, counted as ``name``."""
        stack, self_s, clock = self._stack, self.self_s, self.clock
        calls, bucket_calls = self.calls, self.bucket_calls

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                self_s[bucket] += d - stack.pop()
                stack[-1] += d
                calls[name] += 1
                bucket_calls[bucket] += 1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- patching -------------------------------------------------------------
    def patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap_method(self, cls: type, method: str, bucket: str) -> None:
        self.patch(cls, method, self.timed(cls.__dict__[method], bucket,
                                           f"{cls.__name__}.{method}"))

    def install(self) -> "Tracer":
        """Wrap every layer boundary in :data:`LAYER_CALLS` and the hooks."""
        from repro.arbitration.base import ArbitrationPolicy
        from repro.noc.trace import TeeTrace
        from repro.routing.base import RoutingAlgorithm

        importlib.import_module("repro.core")  # registers RairPolicy & co.
        for module, cls_name, methods, bucket in LAYER_CALLS:
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                self.wrap_method(cls, method, bucket)
        for cls in _subclasses(ArbitrationPolicy):
            for method, bucket in POLICY_CALLS.items():
                hook = method.startswith("end_")
                if method in cls.__dict__ and not (hook and cls is ArbitrationPolicy):
                    self.wrap_method(cls, method, bucket)
        for cls in _subclasses(RoutingAlgorithm):
            for method in ROUTING_CALLS:
                if method in cls.__dict__:
                    self.wrap_method(cls, method, "routing.s")
        for method in TRACE_EVENTS:
            self.wrap_method(TeeTrace, method, "guard.overhead_s")
        runner = importlib.import_module("repro.experiments.runner")
        self.patch(runner, "build_simulation", self.timed(
            runner.__dict__["build_simulation"], "setup.build_s", "build_simulation"))
        return self

    def frame(self, module, attr: str, dump_dir: str) -> None:
        """Make ``module.attr`` a frame: time it and dump totals per process.

        Used on the engine's per-cell entry point so that pool workers
        (forked after :meth:`install`, so running these same wrappers)
        write their span totals to ``dump_dir/spans-<pid>.json`` after
        every cell; :func:`merge_dumps` sums them in the parent.
        """
        fn = module.__dict__[attr]

        def framed(*args, **kwargs):
            pid = os.getpid()
            if pid != self.pid:  # first call in a forked worker
                self.reset()
                self.pid = pid
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.frame_s += self.clock() - t0
                self.dump(os.path.join(dump_dir, f"spans-{pid}.json"))

        self.patch(module, attr, framed)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def totals(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "bucket_calls": dict(self.bucket_calls),
            "frame_s": self.frame_s,
            "covered_s": self.covered_s,
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.totals(), fh)


def merge_dumps(dump_dir: str) -> dict:
    """Sum the per-worker span totals :meth:`Tracer.frame` wrote."""
    merged = {"self_s": defaultdict(float), "calls": Counter(),
              "bucket_calls": Counter(), "frame_s": 0.0, "covered_s": 0.0}
    for entry in sorted(os.listdir(dump_dir)):
        if not entry.startswith("spans-"):
            continue
        with open(os.path.join(dump_dir, entry)) as fh:
            part = json.load(fh)
        for bucket, value in part["self_s"].items():
            merged["self_s"][bucket] += value
        merged["calls"].update(part["calls"])
        merged["bucket_calls"].update(part["bucket_calls"])
        merged["frame_s"] += part["frame_s"]
        merged["covered_s"] += part["covered_s"]
    return merged


def _subclasses(cls: type) -> list[type]:
    """``cls`` and every class below it, each once."""
    out, todo = {}, [cls]
    while todo:
        c = todo.pop()
        out[c] = None
        todo.extend(c.__subclasses__())
    return list(out)
