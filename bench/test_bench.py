"""The benchmark's own tests: metric and workload names, seeded inputs,
output checks, and that tracing is behaviour-neutral and leaves no
wrapper behind.  They use small inputs, not the benchmark workloads.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ospfsim.explorer import ExploreConfig, explore  # noqa: E402
from ospfsim.topology import line, star  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

SMALL_ENGINE = workloads.EngineWorkload(
    name="line3", why="small", topology=lambda: line(3),
    models=("simple", "detailed"), expect="converged")
SMALL_TIMEOUT = workloads.EngineWorkload(
    name="star4-short", why="small", topology=lambda: star(4),
    models=("detailed",), expect="timed_out", max_ticks=40)
SMALL_EXPLORE = workloads.ExploreWorkload(
    name="explore-line2", why="small", topology=lambda: line(2),
    start_interval=2, queue_bound=10,
    expect_states=explore(ExploreConfig(line(2), start_interval=2)).states)
SMALL = (SMALL_ENGINE, SMALL_TIMEOUT, SMALL_EXPLORE)


@pytest.fixture(scope="module")
def spec():
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def test_names_and_units_are_valid(spec):
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] + spec["per_layer"]
    names += [m["name"] for m in metrics]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_spec_matches_the_code(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in layertrace.LAYER_METRICS.items()}


def test_inputs_follow_the_seed():
    ring30 = workloads.WORKLOADS["ring30"]
    boots = lambda seed: ring30.prepare(seed)[0][0].boot_offsets  # noqa: E731
    assert boots(7) == boots(7)
    assert boots(7) != boots(8)
    assert all(0 <= t < ring30.boot_range for t in boots(7).values())
    explore_line4 = workloads.WORKLOADS["explore-line4"]
    assert explore_line4.prepare(1) == explore_line4.prepare(2)


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_checks_pass_on_expected_results(workload):
    inputs = workload.prepare(3)
    outcome = workload.check(inputs, workload.execute(inputs))
    assert outcome.failures == ()


def test_checks_flag_unexpected_results():
    wrong = [
        replace(SMALL_ENGINE, expect="timed_out"),
        replace(SMALL_TIMEOUT, max_ticks=41),
        replace(SMALL_EXPLORE, expect_states=SMALL_EXPLORE.expect_states + 1),
    ]
    for workload, right in zip(wrong, SMALL):
        inputs = workload.prepare(3)
        raw = right.execute(right.prepare(3))
        assert workload.check(inputs, raw).failures


def test_oracle_flags_a_wrong_lsdb_entry():
    inputs = SMALL_ENGINE.prepare(3)
    sim, _, _ = SMALL_ENGINE.execute(inputs)[0]
    node = sim.nodes[1]
    node.state = replace(node.state, lsdb=type(node.state.lsdb)())
    assert workloads.oracle_failures(sim, inputs[0][1])


def test_tally_fails_a_repetition_that_does_not_reproduce():
    ok = workloads.Outcome(runs=2, failures=(), sim_ticks=10, sim_msgs=5)
    drifted = replace(ok, sim_msgs=6)
    assert run.tally([ok, ok]) == (4, 0, [])
    attempted, failed, notes = run.tally([ok, drifted])
    assert (attempted, failed) == (4, 2) and notes


def test_untraced_run_installs_no_wrapper():
    originals = layertrace.patched_attributes()
    seen = []

    class Watched:
        def execute(self, inputs):
            seen.append(layertrace.patched_attributes() == originals)
            return SMALL_ENGINE.execute(inputs)

        def check(self, inputs, raw):
            return SMALL_ENGINE.check(inputs, raw)

    run.repeat(Watched(), SMALL_ENGINE.prepare(1), 0, 2)
    assert seen == [True, True]
    assert layertrace.patched_attributes() == originals


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_tracing_is_neutral_and_removed(workload):
    originals = layertrace.patched_attributes()
    inputs = workload.prepare(5)
    _, _, untraced = run.repeat(workload, inputs, 0, 1)
    per_rep, _, traced, tracer = run.trace_repeat(workload, inputs, 0)
    assert layertrace.patched_attributes() == originals
    assert traced[0].signature() == untraced[0].signature()
    assert tracer.span_name, "the traced run recorded no spans"
    metrics = per_rep[0]
    assert set(metrics) | {"explorer.bytes_per_state", "trace.overhead_ratio"} == set(
        layertrace.LAYER_METRICS)
    if untraced[0].sim_ticks is not None:
        # a converged verdict names its last tick, a timeout the tick count
        ticks = sum(at + (kind == "converged") for _, kind, at, _ in untraced[0].detail)
        assert metrics["engine.ticks"] == ticks
        assert metrics["engine.msgs"] == untraced[0].sim_msgs
        assert metrics["explorer.transitions"] == 0
    else:
        assert metrics["explorer.states"] == untraced[0].explore_states
        assert metrics["engine.ticks"] == 0


def test_wrappers_are_installed_while_tracing():
    originals = layertrace.patched_attributes()
    with layertrace.LayerTracer():
        current = layertrace.patched_attributes()
        assert all(current[key] is not value for key, value in originals.items())
    assert layertrace.patched_attributes() == originals


def test_self_time_subtracts_child_spans():
    tracer = layertrace.LayerTracer()
    outer, inner = tracer._name_id("outer"), tracer._name_id("inner")
    for name, parent, start, end in ((outer, -1, 0.0, 10.0), (inner, 0, 2.0, 5.0)):
        tracer.span_name.append(name)
        tracer.span_parent.append(parent)
        tracer.span_start.append(start)
        tracer.span_end.append(end)
    incl, self_t, calls = tracer.layer_times()
    assert (incl["outer"], self_t["outer"], self_t["inner"]) == (10.0, 7.0, 3.0)
    assert calls == {"outer": 1, "inner": 1}


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ring30", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
