"""The benchmark runner ``tools/bench.py``: its reading of run.py's output and its exit code.

Nothing here starts a process: run.py's output is a captured one.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)

# `perfbench/run.py --workload mc-isometry --seed 1 --seconds 1 --trace 0`, its env record cut short
CAPTURED = """\
perfbench mc-isometry: closed loop, 1 client, 1 s, trace 0; work unit path-steps (320000 per op)
env {"numpy": "2.4.6", "op_seed": 2550339171, "python": "3.11.7", "seed": 1, "trace": 0, "workload": "mc-isometry"}
argv isometry --dim 2 --steps 8 --paths 40000 --seed 2550339171
timed ops: 3; wall s per op min 0.1693 median 0.2184 max 0.2419
setup_s                              0.286306 s
op_s                                 0.211477 s
work_per_s                     1529050.251028 units/s
peak_rss_mb                         39.816406 MB
valid_frac                           1.000000 frac
attempted 5 failed 0
{"correct": true, "attempted": 5, "failed": 0, "metrics": {"setup_s": {"value": 0.28630596579725637, "unit": "s"}, "op_s": {"value": 0.21147730970794285, "unit": "s"}, "work_per_s": {"value": 1529050.2510284334, "unit": "units/s"}, "peak_rss_mb": {"value": 39.81640625, "unit": "MB"}, "valid_frac": {"value": 1.0, "unit": "frac"}}}
"""
FAIL_LINE = "FAIL mc-isometry op 3 (untraced, seed 1): stdout differs from the first op"
FAILED = CAPTURED.replace('"correct": true, "attempted": 5, "failed": 0',
                          '"correct": false, "attempted": 5, "failed": 1').replace(
    "attempted 5 failed 0\n", f"{FAIL_LINE}\nattempted 5 failed 1\n")


def test_parse_reads_the_env_record_and_the_result():
    env, result = bench.parse(CAPTURED)
    assert env["workload"] == "mc-isometry" and env["op_seed"] == 2550339171
    assert result["correct"] is True and result["metrics"]["op_s"]["value"] == 0.21147730970794285
    for broken in ("", CAPTURED.replace("env {", "env: {"), CAPTURED + "attempted 5 failed 0\n"):
        with pytest.raises(ValueError):
            bench.parse(broken)


@pytest.mark.parametrize("stdout, code", [(CAPTURED, 0), (FAILED, 1), ("Traceback\n", 1)])
def test_writes_every_run_and_exits_1_unless_each_reads_correct(stdout, code, tmp_path, monkeypatch,
                                                               capsys):
    calls = []

    def fake_run(argv, cwd, **kwargs):
        calls.append((Path(cwd), argv[argv.index("--workload") + 1], argv[argv.index("--seed") + 1]))
        return subprocess.CompletedProcess(argv, 0, stdout, "")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    monkeypatch.setattr(bench, "WORKLOADS", ("mc-isometry", "path-solve"))
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert bench.main([f"7={a}", f"8={b}", "--seeds", "1,2"]) == code
    # the trees take turns going first, seed by seed
    assert calls == [(a, "mc-isometry", "1"), (b, "mc-isometry", "1"), (a, "path-solve", "1"),
                     (b, "path-solve", "1"), (b, "mc-isometry", "2"), (a, "mc-isometry", "2"),
                     (b, "path-solve", "2"), (a, "path-solve", "2")]
    doc = json.loads((tmp_path / "BENCH_7.json").read_text(encoding="utf-8"))
    assert doc["n"] == 7 and doc["commit"] is None and len(doc["runs"]) == 4
    assert [(r["workload"], r["seed"]) for r in doc["runs"]] == [
        ("mc-isometry", 1), ("path-solve", 1), ("mc-isometry", 2), ("path-solve", 2)]
    printed = capsys.readouterr().out.splitlines()
    if code == 0:
        assert doc["runs"][0]["result"] == json.loads(CAPTURED.splitlines()[-1])
        assert doc["runs"][0]["env"]["workload"] == "mc-isometry"
        assert "fail" not in doc["runs"][0]
        assert printed[0] == ("BENCH_7 mc-isometry seed 1: correct True, "
                              "op_s 0.2115, work_per_s 1.529e+06, peak_rss_mb 39.82")
        assert len(printed) == 8
    else:
        assert all(("error" in r) == (stdout == "Traceback\n") for r in doc["runs"])
    if stdout == FAILED:  # each run's line, then the reason it is not correct
        assert doc["runs"][0]["fail"] == [FAIL_LINE]
        assert printed[:2] == ["BENCH_7 mc-isometry seed 1: correct False, "
                               "op_s 0.2115, work_per_s 1.529e+06, peak_rss_mb 39.82", FAIL_LINE]
        assert len(printed) == 16
    elif stdout == "Traceback\n":
        assert printed[0] == ("BENCH_7 mc-isometry seed 1: correct False, "
                              "op_s -, work_per_s -, peak_rss_mb -")
        assert printed[1].startswith("no env record in run.py's output")


def test_refuses_a_repeated_n_before_any_run(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(bench.subprocess, "run", lambda argv, **kwargs: calls.append(argv))
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    with pytest.raises(SystemExit) as exit_:
        bench.main([f"0={tmp_path}", f"0={tmp_path}"])
    assert exit_.value.code == 2 and calls == []
    assert capsys.readouterr().err.splitlines()[-1].endswith("error: N=0 is given twice")
    assert list(tmp_path.iterdir()) == []
