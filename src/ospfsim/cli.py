"""Command-line front end: run simulations, explore the bounded model,
summarize traces.

Exit codes
    run:        0 converged, 1 timed out, 2 fault
    explore:    0 pass, 1 violation, 2 fault, 3 inconclusive
    summarize:  0 ok, 2 fault
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter, defaultdict
from dataclasses import fields

from .engine import (
    ConfigError,
    EngineConfig,
    format_counts,
    parse_trace_line,
    run,
)
from .topology import VALID_KEYS, TopologyError, load_topology


def _die(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _write_trace(fh, trace) -> None:
    """Write the records one rendered line at a time."""
    for ev in trace:
        fh.write(ev.render() + "\n")


def _merged(file_settings: dict, args, flags) -> dict:
    """A command's settings: the topology file's, then every flag that
    the command line gives."""
    merged = dict(file_settings)
    for key in flags:
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
    return merged


def cmd_run(args) -> int:
    tf = load_topology(args.topology)
    file_settings = dict(tf.overrides, boot_offsets=tf.boot_offsets,
                         adjacency=tf.adjacency)
    cfg = EngineConfig(**_merged(file_settings, args, (
        "model", "seed", "max_ticks", "loss_prob", "queue_capacity")))
    if args.trace and args.trace != "-":
        # opened before the run, so that a path it cannot write is a
        # fault before the first tick
        with open(args.trace, "w", encoding="utf-8") as fh:
            _, trace, verdict = run(cfg, tf.topology, trace=True)
            _write_trace(fh, trace)
    else:
        _, trace, verdict = run(cfg, tf.topology, trace=args.trace == "-")
    try:
        if args.trace == "-":
            _write_trace(sys.stdout, trace)
        print(verdict.line())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: write no more, and point stdout at the
        # null device so that the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if verdict.kind == "converged":
        return 0
    if verdict.kind == "timed_out":
        return 1
    return 2


def cmd_explore(args) -> int:
    # imported here, so that run and summarize never load the explorer
    from .explorer import ExploreConfig, explore, replay

    # the topology-file settings the explorer models; it enumerates boot
    # offsets itself and runs the lossless simple model with every adjacency
    modelled = [f.name for f in fields(ExploreConfig) if f.name in VALID_KEYS]
    tf = load_topology(args.topology)
    unmodelled = [key for key in tf.overrides if key not in modelled]
    if tf.boot_offsets:
        unmodelled.append("boot")
    if tf.adjacency is not None:
        unmodelled.append("adj")
    if unmodelled:
        raise ConfigError(
            f"explore does not model {', '.join(unmodelled)}; a topology "
            f"file may set only {', '.join(modelled)}")
    cfg = ExploreConfig(topology=tf.topology, **_merged(tf.overrides, args, (
        "queue_bound", "age_bound", "start_interval", "max_states")))
    verdict = explore(cfg)
    for line in verdict.lines():
        print(line)
    ce = verdict.counterexample
    if ce is not None:
        choices = " ".join("/".join(c) for c in ce.choices)
        print(f"counterexample choices: {choices or '(delivery phase)'}")
        if args.trace:
            events, _ = replay(cfg, ce)
            with open(args.trace, "w", encoding="utf-8") as fh:
                _write_trace(fh, events)
    if verdict.status == "pass":
        return 0
    if verdict.status == "violation":
        return 1
    return 3


def cmd_summarize(args) -> int:
    per_node: dict[int, Counter] = defaultdict(Counter)
    totals: Counter = Counter()
    converged_tick = None
    timeline: dict[int, list] = defaultdict(list)
    with open(args.trace, "rb") as fh:
        for idx, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                ev = parse_trace_line(line)
            except ValueError:  # a UnicodeDecodeError too
                return _die(f"record {idx}: malformed trace record")
            if ev.kind == "send":
                kind = ev.detail.get("type")
                per_node[ev.node][kind] += 1
                totals[kind] += 1
            elif ev.kind == "converged":
                converged_tick = ev.tick
            elif ev.kind == "state_change":
                timeline[ev.node].append(
                    (ev.tick, ev.detail.get("nbr"), ev.detail.get("ns"))
                )

    total = sum(totals.values())
    print(f"messages total={total} " + format_counts(totals))
    for node in sorted(per_node):
        counts = per_node[node]
        print(f"node {node}: total={sum(counts.values())} "
              + format_counts(counts))
    for node in sorted(timeline):
        steps = " ".join(
            f"[{tick}] {nbr}->{ns}" for tick, nbr, ns in timeline[node]
        )
        print(f"node {node} adjacency: {steps}")
    if converged_tick is not None:
        print(f"converged at tick {converged_tick}")
    else:
        print("no convergence recorded")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ospfsim",
        description="Link-state protocol simulation and bounded exploration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a topology until steady state")
    p_run.add_argument("topology", help="topology file")
    p_run.add_argument("--model", choices=("simple", "detailed"),
                       default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--max-ticks", type=int, default=None)
    p_run.add_argument("--loss-prob", type=float, default=None)
    p_run.add_argument("--queue-capacity", type=int, default=None)
    p_run.add_argument("--trace",
                       help="write the event trace to this file, or to "
                            "stdout before the verdict line if '-'")
    p_run.set_defaults(func=cmd_run)

    p_exp = sub.add_parser("explore",
                           help="exhaustively explore a small topology")
    p_exp.add_argument("topology", help="topology file")
    p_exp.add_argument("--queue-bound", type=int, default=None)
    p_exp.add_argument("--age-bound", type=int, default=None)
    p_exp.add_argument("--start-interval", type=int, default=None)
    p_exp.add_argument("--max-states", type=int, default=None)
    p_exp.add_argument("--trace",
                       help="write a counterexample record to this file")
    p_exp.set_defaults(func=cmd_explore)

    p_sum = sub.add_parser("summarize", help="summarize a trace file")
    p_sum.add_argument("trace", help="trace file in the engine format")
    p_sum.set_defaults(func=cmd_summarize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ConfigError, TopologyError) as exc:
        # faults from outside the program: its files, settings and
        # topology; an error inside it keeps its traceback
        return _die(str(exc))


if __name__ == "__main__":
    sys.exit(main())
