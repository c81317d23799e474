"""ospfsim benchmark: one workload in one process, end to end or per layer.

    python3 bench/run.py --workload ring30 --seed 1 --seconds 20 --trace 0

The program is imported from the ``src`` directory next to this one.
The workload runs closed-loop on the inputs drawn from ``--seed`` for
``--seconds`` seconds (at least three repetitions), and every output is
checked.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  README.md in this directory explains how to read them.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SPANS_DIR = BENCH_DIR / "out"
SETUP_PROBES = 9
MIN_REPS = 3

# end-to-end metrics reported on every workload, with their units
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up of fresh processes, once per probe: the CPU seconds each
    reports at ready, and the wall seconds from spawning it to ready.
    CPU time leaves out the time the host runs something else."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)]
    cpus, walls = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            walls.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        word, _, cpu = line.partition(" ")
        if word != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited with code {code}")
        cpus.append(float(cpu))
    return cpus, walls


def repeat(workload, inputs, seconds: float, min_reps: int):
    """Closed loop on the same inputs: one repetition finishes before the
    next starts.  Returns per-repetition wall and CPU seconds and the
    checked outcomes; checking is outside the timed region."""
    walls, cpus, outcomes = [], [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < min_reps or time.perf_counter() < deadline:
        gc.collect()
        c0, t0 = time.process_time(), time.perf_counter()
        raw = workload.execute(inputs)
        t1, c1 = time.perf_counter(), time.process_time()
        outcomes.append(workload.check(inputs, raw))
        del raw
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
    return walls, cpus, outcomes


def tally(outcomes) -> tuple[int, int, list[str]]:
    """(runs attempted, runs failed, failure notes).  A run fails its own
    check, or belongs to a repetition that does not reproduce the first
    repetition's simulated results exactly."""
    reference = outcomes[0].signature()
    attempted, failed, notes = 0, 0, []
    for k, outcome in enumerate(outcomes):
        attempted += outcome.runs
        notes.extend(outcome.failures)
        if outcome.signature() != reference:
            failed += outcome.runs
            notes.append(f"repetition {k} differs from repetition 0: "
                         f"{outcome.signature()} != {reference}")
        else:
            failed += len(outcome.failures)
    return attempted, failed, notes


def quartiles(samples: list[float]) -> str:
    if len(samples) < 2:
        return "1 sample"
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return f"median of {len(samples)}, quartiles {q1:.4f}..{q3:.4f}"


def show(name: str, value, unit: str, note: str = "") -> None:
    text = value if isinstance(value, str) else f"{value:.6g} {unit}"
    print(f"  {name:<30} {text:<22} {note}".rstrip())


def untraced(workload, inputs, args):
    setup, setup_walls = measure_setup(args.workload, args.seed)
    walls, cpus, outcomes = repeat(workload, inputs, args.seconds, MIN_REPS)
    attempted, failed, notes = tally(outcomes)
    wall = statistics.median(walls)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_rss_bytes() / 2**20,
    }
    first = outcomes[0]
    show("setup_s", values["setup_s"], "s", f"CPU, process start to ready; {quartiles(setup)}")
    show("setup wall-clock", statistics.median(setup_walls), "s", f"spawn to ready; {quartiles(setup_walls)}")
    show("wall_s", wall, "s", f"per repetition; {quartiles(walls)}")
    show("cpu_s", values["cpu_s"], "s", f"per repetition; {quartiles(cpus)}")
    show("peak_rss_mb", values["peak_rss_mb"], "MB", "peak RSS of this process")
    if first.sim_ticks is not None:
        show("sim_ticks_per_s", first.sim_ticks / wall, "1/s", "sim_ticks / wall_s")
        show("states_per_s", "n/a", "", "not an explorer workload")
        show("sim_ticks", first.sim_ticks, "ticks", "summed over the repetition's runs")
        show("sim_msgs", first.sim_msgs, "msgs", "summed over the repetition's runs")
        show("explore_states", "n/a", "", "not an explorer workload")
    else:
        show("sim_ticks_per_s", "n/a", "", "not an engine workload")
        show("states_per_s", first.explore_states / wall, "1/s", "explore_states / wall_s")
        show("sim_ticks", "n/a", "", "not an engine workload")
        show("sim_msgs", "n/a", "", "not an engine workload")
        show("explore_states", first.explore_states, "states", "")
    show("fail_ratio", failed / attempted, "ratio", f"{failed} of {attempted} runs failed")
    return attempted, failed, notes, values, END_TO_END


def trace_repeat(workload, inputs, seconds: float):
    """Closed loop with the layer tracer installed around each
    repetition only.  Returns per-repetition layer metrics, wall
    seconds, checked outcomes, and the tracer holding the last
    repetition's spans."""
    import layertrace

    tracer = layertrace.LayerTracer()
    per_rep, walls, outcomes = [], [], []
    deadline = time.perf_counter() + seconds
    while not per_rep or time.perf_counter() < deadline:
        tracer.reset()
        gc.collect()
        with tracer:
            t0 = time.perf_counter()
            raw = workload.execute(inputs)
            t1 = time.perf_counter()
        walls.append(t1 - t0)
        per_rep.append(tracer.metrics())
        outcomes.append(workload.check(inputs, raw))
        del raw
    return per_rep, walls, outcomes, tracer


def traced(workload, inputs, args):
    import layertrace

    half = args.seconds / 2
    # untraced repetitions first; the first one's peak-RSS growth is
    # the memory an explore call needs
    before = peak_rss_bytes()
    walls, _, outcomes = repeat(workload, inputs, 0, 1)
    growth = peak_rss_bytes() - before
    more_walls, _, more_outcomes = repeat(workload, inputs, half - walls[0], 1)
    walls += more_walls
    outcomes += more_outcomes

    originals = layertrace.patched_attributes()
    per_rep, traced_walls, traced_outcomes, tracer = trace_repeat(workload, inputs, half)
    # tracing must not change a single simulated value: the traced
    # outcomes are held to the untraced first repetition
    attempted, failed, notes = tally(outcomes + traced_outcomes)
    if layertrace.patched_attributes() != originals:
        failed = attempted
        notes.append("a traced attribute was not restored after the traced run")

    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write_spans(spans_path)

    values = layertrace.median_metrics(per_rep)
    states = values["explorer.states"]
    values["explorer.bytes_per_state"] = growth / states if states else 0.0
    values["trace.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(walls) - 1)
    units = {name: unit for name, (unit, _) in layertrace.LAYER_METRICS.items()}
    for name, (unit, what) in layertrace.LAYER_METRICS.items():
        show(name, values[name], unit, what)
    print(f"  traced repetitions: {len(per_rep)} (medians), untraced: {len(walls)}; "
          f"untraced wall_s {statistics.median(walls):.4f} s, traced "
          f"{statistics.median(traced_walls):.4f} s")
    print("  every per-layer metric is measured from outside the program; "
          "a layer this workload does not call reads 0")
    print(f"  spans of the last traced repetition: {spans_path}")
    return attempted, failed, notes, values, units


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ospfsim" / "__init__.py").is_file():
        print(f"run.py: no ospfsim sources at {SRC}; run it inside a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    inputs = workload.prepare(args.seed)
    mode = "traced (per layer)" if args.trace else "untraced (end to end)"
    seed_note = "" if workload.uses_seed else " (unused by this workload)"
    print(f"workload {args.workload}, seed {args.seed}{seed_note}, {mode}")
    print(f"  input: {workload.describe(inputs)}")
    print(f"  why: {workload.why}")
    measure = traced if args.trace else untraced
    attempted, failed, notes, values, units = measure(workload, inputs, args)
    for note in notes[:10]:
        print(f"  FAIL {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
