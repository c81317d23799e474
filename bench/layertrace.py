"""Per-layer tracing from outside the program.

``LayerTracer`` replaces module and class attributes that the program
looks up at call time (for example ``ospfsim.engine.handle_message_detailed``
or ``Topology.neighbors``) with wrappers that record one span per call:
name, start, end and parent.  Spans are kept in memory in flat arrays
and turned into per-layer self times (a span minus its child spans) at
the end.  A few wrappers also count simulated events (queue waits,
restarts, retransmissions) from the arguments and results they see.

``remove()`` puts every original attribute back.  Nothing here is
imported or installed by an untraced run.
"""

from __future__ import annotations

import functools
import gzip
import math
import statistics
import time
from array import array
from collections import defaultdict, deque

from ospfsim import detailed as detailed_mod
from ospfsim import engine as engine_mod
from ospfsim import explorer as explorer_mod
from ospfsim import neighbors as neighbors_mod
from ospfsim import simple as simple_mod
from ospfsim.core import Hello
from ospfsim.engine import SimState
from ospfsim.neighbors import DetailedNbrTable, SimpleNbrTable
from ospfsim.topology import Topology

# (unit, what it is) of every per-layer metric, in report order.  Time
# metrics ending in _s are self times (span minus child spans), except
# engine.tick_s, which includes its children.
LAYER_METRICS = {
    "engine.tick_s": ("s", "SimState.tick including children"),
    "engine.tick_self_s": ("s", "tick minus child spans: delivery, queues, sending"),
    "engine.tick_us.p50": ("us", "median tick duration"),
    "engine.tick_us.p99": ("us", "99th percentile tick duration"),
    "engine.ticks": ("count", "ticks simulated"),
    "engine.msgs": ("count", "messages sent, from the verdicts"),
    "engine.run_self_s": ("s", "engine.run loop and set-up minus child spans"),
    "engine.diff_events_s": ("s", "SimState._diff_events"),
    "engine.trace_events": ("count", "trace events returned by tick"),
    "engine.converged_s": ("s", "engine.converged minus topology calls"),
    "engine.converged_calls": ("count", "engine.converged calls"),
    "engine.inq_max": ("count", "deepest input queue after a delivery phase"),
    "engine.queue_wait_ticks.p50": ("ticks", "median delivery-to-handling delay"),
    "engine.queue_wait_ticks.p99": ("ticks", "99th percentile delivery-to-handling delay"),
    "engine.drops": ("count", "drop events"),
    "simple.timers_s": ("s", "simple_timers"),
    "simple.handle_s": ("s", "handle_message_simple"),
    "simple.handle_calls": ("count", "handle_message_simple calls"),
    "detailed.timers_s": ("s", "detailed_timers"),
    "detailed.handle_calls": ("count", "handle_message_detailed calls"),
    "detailed.handle_hello_s": ("s", "handle_hello_detailed"),
    "detailed.handle_dbd_s": ("s", "handle_dbd_detailed"),
    "detailed.handle_req_s": ("s", "handle_req_detailed"),
    "detailed.handle_upd_s": ("s", "handle_upd_detailed"),
    "detailed.handle_ack_s": ("s", "handle_ack"),
    "detailed.noop_ratio": ("ratio", "timer and handler calls with no state change and no emission"),
    "detailed.retransmits": ("count", "non-hello emissions of detailed_timers"),
    "detailed.restarts": ("count", "Full to ExStart transitions"),
    "lsdb.install_s": ("s", "install, from detailed, simple and neighbors"),
    "lsdb.install_calls": ("count", "install calls"),
    "lsdb.lsa_exist_s": ("s", "lsa_exist, from detailed and simple"),
    "neighbors.ops_s": ("s", "neighbour-table functions and get/of/nips methods"),
    "neighbors.ops_calls": ("count", "neighbour-table calls, nested ones included"),
    "topology.neighbors_s": ("s", "Topology.neighbors"),
    "topology.calls": ("count", "Topology neighbors/connected/component_of calls"),
    "explorer.successors_self_s": ("s", "successors iteration minus encode/decode/topology"),
    "explorer.encode_s": ("s", "_encode"),
    "explorer.decode_s": ("s", "_decode"),
    "explorer.state_converged_s": ("s", "state_converged minus topology calls"),
    "explorer.final_pass_s": ("s", "unconverged-cycle check plus longest path"),
    "explorer.bfs_self_s": ("s", "explore minus children: visited set and frontier"),
    "explorer.transitions": ("count", "successor pairs yielded"),
    "explorer.states": ("count", "states in the verdict"),
    "explorer.new_state_ratio": ("ratio", "new states per transition"),
    "explorer.bytes_per_state": ("B", "peak RSS growth of the first explore call per state"),
    "trace.overhead_ratio": ("ratio", "traced wall time over untraced wall time, minus 1"),
    "trace.spans": ("count", "spans recorded in one traced repetition"),
}

_NEIGHBOR_FUNCS = {
    name for name, obj in vars(neighbors_mod).items()
    if callable(obj) and getattr(obj, "__module__", None) == neighbors_mod.__name__
    and not isinstance(obj, type)
}


def _percentile(values, q):
    """The q-th percentile (0..100) by nearest rank; 0 for no values."""
    if not values:
        return 0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100))
    return ordered[rank - 1]


def _patch_points():
    """(owner, attribute, span name, kind) for every wrapped boundary."""
    points = [
        (engine_mod, "run", "engine.run", "func"),
        (SimState, "tick", "engine.tick", "func"),
        (SimState, "_diff_events", "engine.diff_events", "func"),
        (engine_mod, "converged", "engine.converged", "func"),
        (engine_mod, "simple_timers", "simple.timers", "func"),
        (engine_mod, "handle_message_simple", "simple.handle", "func"),
        (engine_mod, "detailed_timers", "detailed.timers", "func"),
        (engine_mod, "handle_message_detailed", "detailed.handle", "func"),
        (detailed_mod, "handle_hello_detailed", "detailed.handle_hello", "func"),
        (detailed_mod, "handle_dbd_detailed", "detailed.handle_dbd", "func"),
        (detailed_mod, "handle_req_detailed", "detailed.handle_req", "func"),
        (detailed_mod, "handle_upd_detailed", "detailed.handle_upd", "func"),
        (detailed_mod, "handle_ack", "detailed.handle_ack", "func"),
        (Topology, "neighbors", "topology.neighbors", "func"),
        (Topology, "connected", "topology.connected", "func"),
        (Topology, "component_of", "topology.component_of", "func"),
        (explorer_mod, "explore", "explorer.explore", "func"),
        (explorer_mod, "initial_state", "explorer.initial_state", "func"),
        (explorer_mod, "successors", "explorer.successors", "generator"),
        (explorer_mod, "_encode", "explorer.encode", "func"),
        (explorer_mod, "_decode", "explorer.decode", "func"),
        (explorer_mod, "state_converged", "explorer.state_converged", "func"),
        (explorer_mod, "_find_unconverged_cycle", "explorer.final_pass", "func"),
        (explorer_mod, "_longest_unconverged_path", "explorer.final_pass", "func"),
    ]
    for mod in (detailed_mod, simple_mod, neighbors_mod):
        if hasattr(mod, "install"):
            points.append((mod, "install", "lsdb.install", "func"))
    for mod in (detailed_mod, simple_mod):
        points.append((mod, "lsa_exist", "lsdb.lsa_exist", "func"))
        for name in sorted(_NEIGHBOR_FUNCS & set(vars(mod))):
            points.append((mod, name, "neighbors." + name, "func"))
    for table in (SimpleNbrTable, DetailedNbrTable):
        points.append((table, "get", "neighbors.get", "func"))
        points.append((table, "nips", "neighbors.nips", "func"))
        points.append((table, "of", "neighbors.of", "classmethod"))
    return points


def patched_attributes() -> dict:
    """The current value of every attribute the tracer wraps; equal
    before installation and after removal."""
    return {(owner, attr): vars(owner)[attr] for owner, attr, _, _ in _patch_points()}


class LayerTracer:
    """Records spans at the layer boundaries while installed."""

    def __init__(self):
        self._patches = []  # (owner, attribute, original)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.reset()

    # -- span storage ----------------------------------------------------

    def reset(self) -> None:
        """Forget the spans and counts of the previous repetition."""
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.queue_waits: list[int] = []
        self.explore_roots: set = set()
        self._sim = None
        self._fifo: dict[int, deque] = defaultdict(deque)
        self._consumed: list[tuple[int, int]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name, after):
        nid = self._name_id(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.span_name)
            tracer.span_name.append(nid)
            tracer.span_parent.append(tracer._stack[-1])
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            tracer._stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._stack.pop()
                tracer.span_start[idx] = t0
                tracer.span_end[idx] = t1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, name, on_item):
        """A span per resumption, so the span covers the generator's own
        iteration and not the consumer's work between items."""
        nid = self._name_id(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    idx = len(tracer.span_name)
                    tracer.span_name.append(nid)
                    tracer.span_parent.append(tracer._stack[-1])
                    tracer.span_start.append(0.0)
                    tracer.span_end.append(0.0)
                    tracer._stack.append(idx)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        t1 = clock()
                        tracer._stack.pop()
                        tracer.span_start[idx] = t0
                        tracer.span_end[idx] = t1
                    on_item(item)
                    yield item
            finally:
                it.close()

        return wrapper

    # -- simulated-event hooks -------------------------------------------

    def _after_run(self, args, result):
        self.counts["engine.msgs"] += result[2].total_messages

    def _after_tick(self, args, events):
        sim = args[0]
        if sim is not self._sim:
            self._sim = sim
            self._fifo.clear()
        self.counts["engine.trace_events"] += len(events)
        touched = set()
        for ev in events:
            if ev.kind == "deliver":
                self._fifo[ev.node].append(ev.tick)
                touched.add(ev.node)
            elif ev.kind == "drop":
                self.counts["engine.drops"] += 1
            elif (ev.kind == "state_change" and ev.detail["prev"] == "Full"
                  and ev.detail["ns"] == "ExStart"):
                self.counts["detailed.restarts"] += 1
        # deliveries precede the node turns within a tick, so the queue
        # is deepest right after them
        for ip in touched:
            depth = len(self._fifo[ip])
            if depth > self.counts["engine.inq_max"]:
                self.counts["engine.inq_max"] = depth
        for ip, now in self._consumed:
            self.queue_waits.append(now - self._fifo[ip].popleft())
        self._consumed.clear()

    def _after_simple_handle(self, args, result):
        self._consumed.append((args[0].ip, args[2]))

    def _after_detailed_handle(self, args, result):
        self._after_simple_handle(args, result)
        self._count_noop(args[0], result)

    def _after_detailed_timers(self, args, result):
        self.counts["detailed.retransmits"] += sum(
            not isinstance(ins.payload, Hello) for ins in result[1])
        self._count_noop(args[0], result)

    def _count_noop(self, before, result):
        after, emissions = result
        self.counts["detailed.calls"] += 1
        if not emissions and (after is before or after == before):
            self.counts["detailed.noop_calls"] += 1

    def _on_successor(self, item):
        if item[1] is not None:
            self.counts["explorer.transitions"] += 1

    def _after_initial_state(self, args, result):
        self.explore_roots.add(result)

    def _after_explore(self, args, result):
        self.counts["explorer.states"] += result.states

    # -- install / remove ------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {
            "engine.run": self._after_run,
            "engine.tick": self._after_tick,
            "detailed.handle": self._after_detailed_handle,
            "detailed.timers": self._after_detailed_timers,
            "simple.handle": self._after_simple_handle,
            "explorer.initial_state": self._after_initial_state,
            "explorer.explore": self._after_explore,
        }
        for owner, attr, name, kind in _patch_points():
            original = vars(owner)[attr]
            if kind == "generator":
                new = self._wrap_generator(original, name, self._on_successor)
            elif kind == "classmethod":
                new = classmethod(self._wrap(original.__func__, name, None))
            else:
                new = self._wrap(original, name, hooks.get(name))
            self._patches.append((owner, attr, original))
            setattr(owner, attr, new)

    def remove(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # -- results -----------------------------------------------------------

    def layer_times(self):
        """Per span name: (inclusive seconds, self seconds, calls)."""
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        incl = defaultdict(float)
        self_t = defaultdict(float)
        calls = defaultdict(int)
        names = self.names
        for i in range(n):
            name = names[self.span_name[i]]
            d = ends[i] - starts[i]
            incl[name] += d
            self_t[name] += d - child[i]
            calls[name] += 1
        return incl, self_t, calls

    def metrics(self) -> dict[str, float]:
        """This repetition's per-layer metrics, except those the caller
        measures around the tracer (overhead and bytes per state)."""
        incl, self_t, calls = self.layer_times()
        tick_id = self._name_ids.get("engine.tick")
        tick_us = [
            (self.span_end[i] - self.span_start[i]) * 1e6
            for i in range(len(self.span_name)) if self.span_name[i] == tick_id
        ]

        def prefixed(prefix, table):
            return sum(v for k, v in table.items() if k.startswith(prefix))

        c = self.counts
        detailed_calls = c["detailed.calls"]
        transitions = c["explorer.transitions"]
        new_states = c["explorer.states"] - len(self.explore_roots)
        return {
            "engine.tick_s": incl["engine.tick"],
            "engine.tick_self_s": self_t["engine.tick"],
            "engine.tick_us.p50": _percentile(tick_us, 50),
            "engine.tick_us.p99": _percentile(tick_us, 99),
            "engine.ticks": calls["engine.tick"],
            "engine.msgs": c["engine.msgs"],
            "engine.run_self_s": self_t["engine.run"],
            "engine.diff_events_s": self_t["engine.diff_events"],
            "engine.trace_events": c["engine.trace_events"],
            "engine.converged_s": self_t["engine.converged"],
            "engine.converged_calls": calls["engine.converged"],
            "engine.inq_max": c["engine.inq_max"],
            "engine.queue_wait_ticks.p50": _percentile(self.queue_waits, 50),
            "engine.queue_wait_ticks.p99": _percentile(self.queue_waits, 99),
            "engine.drops": c["engine.drops"],
            "simple.timers_s": self_t["simple.timers"],
            "simple.handle_s": self_t["simple.handle"],
            "simple.handle_calls": calls["simple.handle"],
            "detailed.timers_s": self_t["detailed.timers"],
            "detailed.handle_calls": calls["detailed.handle"],
            "detailed.handle_hello_s": self_t["detailed.handle_hello"],
            "detailed.handle_dbd_s": self_t["detailed.handle_dbd"],
            "detailed.handle_req_s": self_t["detailed.handle_req"],
            "detailed.handle_upd_s": self_t["detailed.handle_upd"],
            "detailed.handle_ack_s": self_t["detailed.handle_ack"],
            "detailed.noop_ratio": (c["detailed.noop_calls"] / detailed_calls
                                    if detailed_calls else 0.0),
            "detailed.retransmits": c["detailed.retransmits"],
            "detailed.restarts": c["detailed.restarts"],
            "lsdb.install_s": self_t["lsdb.install"],
            "lsdb.install_calls": calls["lsdb.install"],
            "lsdb.lsa_exist_s": self_t["lsdb.lsa_exist"],
            "neighbors.ops_s": prefixed("neighbors.", self_t),
            "neighbors.ops_calls": prefixed("neighbors.", calls),
            "topology.neighbors_s": self_t["topology.neighbors"],
            "topology.calls": prefixed("topology.", calls),
            "explorer.successors_self_s": self_t["explorer.successors"],
            "explorer.encode_s": self_t["explorer.encode"],
            "explorer.decode_s": self_t["explorer.decode"],
            "explorer.state_converged_s": self_t["explorer.state_converged"],
            "explorer.final_pass_s": self_t["explorer.final_pass"],
            "explorer.bfs_self_s": self_t["explorer.explore"],
            "explorer.transitions": transitions,
            "explorer.states": c["explorer.states"],
            "explorer.new_state_ratio": new_states / transitions if transitions else 0.0,
            "trace.spans": len(self.span_name),
        }

    def write_spans(self, path) -> None:
        """One line per span: index, name, start and end in microseconds
        from the first span, and the parent index (-1 for none)."""
        n = len(self.span_name)
        t0 = self.span_start[0] if n else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tstart_us\tend_us\tparent\n")
            names = self.names
            for i in range(n):
                fh.write(f"{i}\t{names[self.span_name[i]]}\t"
                         f"{(self.span_start[i] - t0) * 1e6:.1f}\t"
                         f"{(self.span_end[i] - t0) * 1e6:.1f}\t"
                         f"{self.span_parent[i]}\n")


def median_metrics(per_rep: list[dict]) -> dict[str, float]:
    """Median over repetitions of every per-layer metric."""
    return {k: statistics.median_low(rep[k] for rep in per_rep) for k in per_rep[0]}
