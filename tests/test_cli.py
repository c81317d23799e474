import json
import os
import subprocess
import sys

import pytest

from ospfsim.cli import main
from ospfsim.engine import EngineConfig, run
from ospfsim.explorer import ExploreConfig, explore
from ospfsim.topology import VALID_KEYS, Topology, line

LINE2 = "nodes 2\nedge 1 2\n"
LINE3 = "nodes 3\nedge 1 2\nedge 2 3\n"


@pytest.fixture
def line3_path(tmp_path):
    p = tmp_path / "line3.top"
    p.write_text(LINE3)
    return str(p)


def test_run_converges(capsys, tmp_path):
    p = tmp_path / "two.top"
    p.write_text(LINE2)
    # the detailed model is the default
    for flags in (["--model", "detailed"], []):
        code = main(["run", str(p), *flags])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("CONVERGED tick=19 msgs=17 ")
        assert "hello=4 dbd=5 req=0 upd=4 ack=4" in out


def test_run_is_reproducible(capsys, line3_path):
    assert main(["run", line3_path, "--model", "simple", "--seed", "7",
                 "--trace", "-"]) == 0
    first = capsys.readouterr().out
    assert main(["run", line3_path, "--model", "simple", "--seed", "7",
                 "--trace", "-"]) == 0
    assert capsys.readouterr().out == first


def test_run_rejects_bad_topology(capsys, tmp_path):
    p = tmp_path / "bad.top"
    # a repeated setting is refused, not overwritten by its last line
    for text, lineno in (("nodes 2\nedge 1 3\n", 2),
                         ("nodes 3\nedge 1 3\nnodes 2\n", 3),
                         (LINE2 + "hellointvl 5\nhellointvl 7\n", 4)):
        p.write_text(text)
        assert main(["run", str(p)]) == 2
        assert one_error_line(capsys.readouterr().err, f"line {lineno}: ")


def test_run_rejects_unknown_key(capsys, tmp_path):
    p = tmp_path / "odd.top"
    p.write_text("nodes 2\nedge 1 2\nfanout 3\n")
    assert main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert "valid keys" in err


def test_run_timeout_exit_code(capsys, tmp_path):
    p = tmp_path / "lossy.top"
    p.write_text(LINE2 + "loss_prob 1.0\nmax_ticks 40\n")
    assert main(["run", str(p), "--model", "detailed"]) == 1
    assert capsys.readouterr().out.strip() == "TIMEOUT"


def test_run_simple_with_loss_is_invalid(capsys, tmp_path):
    p = tmp_path / "bad_cfg.top"
    p.write_text(LINE2 + "loss_prob 0.5\n")
    assert main(["run", str(p), "--model", "simple"]) == 2
    assert "loss_prob" in capsys.readouterr().err


def test_run_overflow_exit_code(capsys, line3_path):
    assert main(["run", line3_path, "--model", "simple",
                 "--queue-capacity", "1"]) == 2
    assert capsys.readouterr().out.startswith("OVERFLOW node=2 tick=1")


def test_trace_roundtrip_through_summarize(capsys, tmp_path, line3_path):
    trace_path = tmp_path / "run.trace"
    assert main(["run", line3_path, "--model", "detailed",
                 "--trace", str(trace_path)]) == 0
    verdict_line = capsys.readouterr().out.strip()
    parts = dict(
        kv.split("=") for kv in verdict_line.split()[1:]
    )
    assert main(["summarize", str(trace_path)]) == 0
    summary = capsys.readouterr().out
    first = summary.splitlines()[0]
    assert first == (
        f"messages total={parts['msgs']} hello={parts['hello']} "
        f"dbd={parts['dbd']} req={parts['req']} upd={parts['upd']} "
        f"ack={parts['ack']}"
    )
    assert f"converged at tick {parts['tick']}" in summary
    assert "adjacency" in summary


def test_summarize_empty_trace(capsys, tmp_path):
    p = tmp_path / "empty.trace"
    # blank lines are skipped, so a trace of them is empty
    for text in ("", "\n  \n\n"):
        p.write_text(text)
        assert main(["summarize", str(p)]) == 0, repr(text)
        out = capsys.readouterr().out
        assert "messages total=0" in out
        assert "no convergence recorded" in out


# second records that summarize must refuse: truncated, not an object,
# missing a field, or a field of the wrong type
MALFORMED_RECORDS = [
    '{"tick":1,',
    '[1, 2]',
    '{"tick":1,"node":1,"kind":"send"}',
    '{"tick":0,"node":1,"kind":"send","detail":[]}',
    '{"tick":0,"node":1,"kind":"send","detail":null}',
    '{"tick":"x","node":1,"kind":"converged","detail":{}}',
    '{"tick":0,"node":1.5,"kind":"send","detail":{}}',
    '{"tick":0,"node":1,"kind":7,"detail":{}}',
    '{"tick":0,"node":1,"kind":"send","detail":{"type":[1]}}',
    '{"tick":0,"node":1,"kind":"send","detail":{"type":"bogus"}}',
    '{"tick":0,"node":1,"kind":"send","detail":{}}',
    '{"tick":0,"node":1,"kind":"state_change","detail":{"nbr":"2","ns":"Full"}}',
    '{"tick":0,"node":1,"kind":"state_change","detail":{"ns":"Full"}}',
    '{"tick":0,"node":1,"kind":"state_change","detail":{"nbr":2,"ns":5}}',
]


def test_summarize_truncated_record(capsys, tmp_path):
    p = tmp_path / "broken.trace"
    for record in MALFORMED_RECORDS:
        p.write_text('{"tick":0,"node":1,"kind":"send","detail":{"type":"hello"}}\n'
                     + record + "\n")
        assert main(["summarize", str(p)]) == 2, record
        err = capsys.readouterr().err
        assert "record 2: malformed trace record" in err, record


@pytest.mark.parametrize("command", ["run", "explore", "summarize"])
def test_commands_refuse_a_file_they_cannot_read(capsys, tmp_path, command):
    assert main([command, str(tmp_path / "missing")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "No such file" in captured.err


def one_error_line(err: str, *parts: str) -> bool:
    """``err`` is one ``error:`` line that names every one of ``parts``."""
    return (err.startswith("error: ") and err.count("\n") == 1
            and all(part in err for part in parts))


def test_run_trace_into_a_missing_directory_is_a_fault(capsys, tmp_path,
                                                       line3_path, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the run started before the trace file opened")

    monkeypatch.setattr("ospfsim.cli.run", no_run)
    path = str(tmp_path / "missing" / "run.trace")
    assert main(["run", line3_path, "--trace", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and one_error_line(captured.err, path)


def test_explore_trace_into_a_missing_directory_is_a_fault(capsys, tmp_path,
                                                           line3_path):
    path = str(tmp_path / "missing" / "ce.trace")
    assert main(["explore", line3_path, "--start-interval", "2",
                 "--queue-bound", "1", "--trace", path]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("EXPLORE VIOLATION")
    assert one_error_line(captured.err, path)


def test_summarize_refuses_a_record_that_is_not_utf8(capsys, tmp_path):
    p = tmp_path / "latin1.trace"
    # the second record holds a Latin-1 "é", which is no UTF-8
    p.write_bytes(b'{"tick":0,"node":1,"kind":"boot","detail":{}}\n'
                  b'{"tick":0,"node":1,"kind":"boot","detail":{"x":"\xe9"}}\n')
    assert main(["summarize", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert one_error_line(captured.err, "record 2: malformed trace record")


def test_explore_pass(capsys, line3_path):
    assert main(["explore", line3_path, "--start-interval", "2"]) == 0
    assert capsys.readouterr().out.startswith("EXPLORE PASS")


# a queue-bound, a wrap-window, a two-tick-send and an unconverged-cycle
# counterexample (a dead interval of 5 ticks lets line(2) cycle
# unconverged): the topology file, the flags, what the verdict names and
# how many records its replay writes
@pytest.mark.parametrize("text,flags,names,count", [
    (LINE3, ["--start-interval", "2", "--queue-bound", "1"], "P1 at tick 1", 10),
    (LINE3, ["--age-bound", "2", "--start-interval", "0"], "P3 at tick 3", 16),
    (LINE3 + "time_sending 2\n", ["--start-interval", "2", "--queue-bound", "2"],
     "P1 at tick 4", 13),
    (LINE2 + "rtdeadintvl 5\n", [], "convergence at tick 5", 18),
], ids=["queue-bound", "wrap-window", "two-tick-send", "unconverged-cycle"])
def test_explore_counterexample_is_replayed_into_a_trace(
        capsys, tmp_path, text, flags, names, count):
    p = tmp_path / "case.top"
    p.write_text(text)
    # without --trace the command prints the same lines and writes no file
    assert main(["explore", str(p), *flags]) == 1
    untraced = capsys.readouterr().out
    assert os.listdir(tmp_path) == ["case.top"]
    ce_path = tmp_path / "ce.trace"
    assert main(["explore", str(p), *flags, "--trace", str(ce_path)]) == 1
    out = capsys.readouterr().out
    assert out == untraced
    assert out.startswith("EXPLORE VIOLATION")
    assert f"counterexample: {names} " in out and "boot offsets" in out
    assert out.splitlines()[-1].startswith("counterexample choices: ")
    # the counterexample trace uses the engine's record format
    records = [json.loads(l) for l in ce_path.read_text().splitlines()]
    assert len(records) == count
    assert all(set(r) == {"tick", "node", "kind", "detail"} for r in records)
    assert any(r["kind"] == "send" for r in records)
    # and goes through the one trace consumer
    assert main(["summarize", str(ce_path)]) == 0
    assert "no convergence recorded" in capsys.readouterr().out


def test_explore_refuses_large_topology(capsys, tmp_path):
    p = tmp_path / "big.top"
    edges = "".join(f"edge {i} {i+1}\n" for i in range(1, 10))
    p.write_text("nodes 10\n" + edges)
    assert main(["explore", str(p)]) == 2
    assert "limited to" in capsys.readouterr().err


@pytest.mark.parametrize("override,flags,message", [
    ("time_sending 0\n", [], "time_sending must be at least 1 tick"),
    ("rtdeadintvl 0\n", [], "rtdeadintvl must be positive"),
    ("hellointvl 0\n", [], "hellointvl must be positive"),
    ("", ["--max-states", "0"], "max_states must be positive"),
    ("", ["--queue-bound", "0"], "queue_bound must be positive"),
    ("", ["--start-interval", "-1"], "start_interval must be non-negative"),
    ("", ["--age-bound", "1"], "age_bound must be at least 2"),
])
def test_explore_rejects_what_run_rejects(capsys, tmp_path, override, flags,
                                          message):
    p = tmp_path / "two.top"
    p.write_text(LINE2 + override)
    assert main(["explore", str(p)] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    if override:
        assert main(["run", str(p)]) == 2
        assert message in capsys.readouterr().err


# per topology-file directive other than nodes and edge: a line setting
# it to a value other than the default, and the config fields it sets
DIRECTIVES = {
    "hellointvl": ("hellointvl 7", {"hellointvl": 7}),
    "rtdeadintvl": ("rtdeadintvl 11", {"rtdeadintvl": 11}),
    "rxmtintvl": ("rxmtintvl 5", {"rxmtintvl": 5}),
    "refreshintvl": ("refreshintvl 20", {"refreshintvl": 20}),
    "time_sending": ("time_sending 2", {"time_sending": 2}),
    "seed": ("seed 5", {"seed": 5}),
    "max_ticks": ("max_ticks 8", {"max_ticks": 8}),
    "loss_prob": ("loss_prob 0.5", {"loss_prob": 0.5}),
    "boot": ("boot 3 4", {"boot_offsets": {3: 4}}),
    # adjacencies that leave line(3) whole, and ones that split it
    "adj": ("adj 1 2\nadj 2 3",
            {"adjacency": Topology(3, frozenset({(1, 2), (2, 3)}))}),
    "adj-split": ("adj 1 2", {"adjacency": Topology(3, frozenset({(1, 2)}))}),
}
FILE_KEYS = VALID_KEYS + ("adj", "adj-split")
REFUSED = {
    "run-simple": {"loss_prob", "adj", "adj-split"},
    "run-detailed": {"adj-split"},
    "explore": set(FILE_KEYS) - {"hellointvl", "rtdeadintvl", "time_sending"},
}


@pytest.mark.parametrize("key", FILE_KEYS)
@pytest.mark.parametrize("command", sorted(REFUSED))
def test_each_command_honours_or_refuses_every_file_directive(
        capsys, tmp_path, command, key):
    directive, fields = DIRECTIVES[key]
    p = tmp_path / "line3.top"
    p.write_text(LINE3 + directive + "\n")
    if command == "explore":
        argv = ["explore", str(p), "--start-interval", "1"]
    else:
        model = command.split("-")[1]
        argv = ["run", str(p), "--model", model, "--trace", "-"]
    code = main(argv)
    if key in REFUSED[command]:
        captured = capsys.readouterr()
        # the refusal names the directive's keyword
        assert code == 2 and captured.out == ""
        assert directive.split()[0] in captured.err
        return
    out = capsys.readouterr().out
    if command == "explore":
        verdict = explore(ExploreConfig(topology=line(3), start_interval=1,
                                        **fields))
        # a violation adds the counterexample's choices after these lines
        assert out.startswith("".join(l + "\n" for l in verdict.lines()))
    else:
        _, trace, verdict = run(EngineConfig(model=model, **fields), line(3),
                                trace=True)
        rendered = "".join(ev.render() + "\n" for ev in trace)
        assert out == rendered + verdict.line() + "\n"


def test_explore_inconclusive_exit_code(capsys, line3_path):
    assert main(["explore", line3_path, "--start-interval", "2",
                 "--max-states", "50"]) == 3
    assert "INCONCLUSIVE" in capsys.readouterr().out


def test_console_entry_point(tmp_path):
    p = tmp_path / "two.top"
    p.write_text(LINE2)
    proc = subprocess.run(
        [sys.executable, "-m", "ospfsim.cli", "run", str(p)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("CONVERGED")


def test_run_stops_writing_when_the_reader_closes_the_pipe(tmp_path):
    # the ring(10) trace, about 190 kB, is larger than a pipe holds, so
    # the writer is still writing when the reader goes
    p = tmp_path / "ring10.top"
    p.write_text("nodes 10\n" + "".join(f"edge {i} {i % 10 + 1}\n"
                                        for i in range(1, 11)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ospfsim.cli", "run", str(p), "--trace", "-"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONUNBUFFERED": "1"},
    )
    lines = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0, err
    assert err == ""
    assert all(json.loads(line)["tick"] == 0 for line in lines)


# a fresh process: what ``import ospfsim`` loads, then whether run and
# summarize, called through ``main``, load the explorer
LOADING = """
import json, sys
import ospfsim
loaded = sorted(m for m in sys.modules if m.startswith("ospfsim."))
from ospfsim.cli import main
top, trace = sys.argv[1:]
codes = [main(["run", top, "--trace", trace]), main(["summarize", trace])]
print(json.dumps({"import": loaded, "codes": codes,
                  "explorer": "ospfsim.explorer" in sys.modules}),
      file=sys.stderr)
"""


def test_import_and_cli_load_only_what_they_use(tmp_path):
    p = tmp_path / "two.top"
    p.write_text(LINE2)
    proc = subprocess.run(
        [sys.executable, "-c", LOADING, str(p), str(tmp_path / "two.trace")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr) == {
        "import": [], "codes": [0, 0], "explorer": False}
