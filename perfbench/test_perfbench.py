"""Self-tests of the benchmark's tracer and output gate, on small CLI runs.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from calibrate import SpeedMeter  # noqa: E402
from workloads import CONTRACTION, WORKLOADS, Output, gate, import_cli, run_op, strict_json  # noqa: E402

cli = import_cli()

from tracer import LAYERS, LayerTracer  # noqa: E402  (imports matrixdiff from src)

P, N, D = 48, 16, 2  # paths, steps and dimension of the small runs
SMALL = {
    "trace-moment": ["trace-moment", "--dim", "2", "--alpha", "3", "--steps", str(N),
                     "--paths", str(P), "--seed", "3"],
    "isometry": ["isometry", "--dim", "2", "--steps", str(N), "--paths", str(P), "--seed", "3"],
    "verify": ["verify", "--samples", "64", "--dim", "3", "--seed", "3"],
    "simulate": ["simulate", "--method", "euler", "--paths", "3", "--dim", "2", "--alpha", "3",
                 "--steps", str(N), "--config", "{config}", "--seed", "3"],
    "picard": ["picard-convergence", "--paths", "3", "--dim", "2", "--alpha", "3",
               "--steps", str(N), "--config", "{config}", "--seed", "3"],
}


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "contraction.json"
    path.write_text(json.dumps(CONTRACTION))
    return path


def argv(name, config):
    return [arg.format(config=config) for arg in SMALL[name]]


def traced(argvs):
    tracer = LayerTracer()
    tracer.install()
    try:
        outputs = run_op(cli.run_cli, argvs)
    finally:
        tracer.uninstall()
    return tracer, outputs


def test_every_binding_of_an_original_is_wrapped_and_restored():
    tracer = LayerTracer()
    before = tracer.unwrapped_sites()
    assert "matrixdiff.sde.spectral_decompose_stack" in before
    assert "matrixdiff.checks.sample_path" in before
    tracer.install()
    try:
        assert tracer.unwrapped_sites() == []
        assert sorted(tracer.wrapped_sites()) == sorted(before)
    finally:
        tracer.uninstall()
    assert tracer.wrapped_sites() == []
    assert tracer.unwrapped_sites() == before


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_output_is_byte_identical(name, config):
    plain = run_op(cli.run_cli, [argv(name, config)])
    _, outputs = traced([argv(name, config)])
    assert outputs == plain
    assert plain[0].code in (0, 1) and plain[0].stdout  # a verdict, not a usage error


def test_counts_match_closed_forms(config):
    tracer, _ = traced([argv("trace-moment", config)])
    stats = tracer.stats
    assert stats["brownian"].counts == {"paths": P, "draws": P * N * D * D}
    assert stats["sde"].counts["path_steps"] == P * N
    # one (P, d, d) stack per step, plus the PSD check of x0 when the model is built
    assert stats["symmat"].counts["matrices"] == P * N + 1
    assert stats["cli"].calls == 1 and stats["checks"].calls == 1

    tracer, _ = traced([argv("isometry", config)])
    assert tracer.stats["symmat"].calls == 0 and tracer.stats["sde"].calls == 0
    assert tracer.stats["brownian"].counts == {"paths": P, "draws": P * N * D * D}
    assert tracer.stats["integrals"].calls == 1

    tracer, _ = traced([argv("verify", config)])
    # min_eigenvalues_stack calls spectral_decompose_stack: one entry into symmat
    assert tracer.stats["symmat"].calls == 1
    assert tracer.stats["symmat"].counts["matrices"] == 64
    assert tracer.stats["brownian"].calls == 0


def test_picard_counts_follow_its_diagnostics(config):
    tracer, outputs = traced([argv("picard", config)])
    iterations = sum(rec["iterations"] for rec in strict_json(outputs[0].stdout))
    assert tracer.stats["sde"].counts == {"path_steps": 3 * N, "picard_iterations": iterations}
    # each iteration lifts all N + 1 states; each path ends with one min-eigenvalue pass
    assert tracer.stats["symmat"].counts["matrices"] == (N + 1) * (iterations + 3) + 1


def test_self_times_partition_the_op(config):
    start = time.perf_counter()
    tracer, _ = traced([argv("simulate", config), argv("picard", config)])
    wall = time.perf_counter() - start
    busy = [tracer.stats[layer].busy_s for layer in LAYERS]
    assert all(b >= 0.0 for b in busy)
    assert sum(busy) <= wall
    assert tracer.stats["cli"].calls == 2 and tracer.stats["cli"].errors == 0


def test_errors_are_counted_and_reraised():
    tracer = LayerTracer()
    tracer.install()
    try:
        with pytest.raises(ValueError):
            sys.modules["matrixdiff.brownian"].sample_path(None, 0, 1)  # dim 0 is rejected
    finally:
        tracer.uninstall()
    assert tracer.stats["brownian"].errors == 1 and tracer.stats["brownian"].calls == 1


def test_strict_json_rejects_non_finite_tokens():
    for token in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ValueError):
            strict_json(f'{{"worst_violation": {token}}}')


def _mc_report(mean, se, passed, expected=6.0):
    return json.dumps([{"name": "trace_moment", "samples": 4096, "worst_violation": 0.0,
                        "tolerance": 0.0, "pass": passed,
                        "details": {"mean": mean, "expected": expected, "se": se}}])


def test_gate_recomputes_monte_carlo_verdicts():
    wishart = WORKLOADS["mc-wishart"]
    assert gate(wishart, [Output(0, _mc_report(6.1, 0.05, True), "")]) == []
    reasons = gate(wishart, [Output(0, _mc_report(6.2, 0.05, True), "")])
    assert any("exceeds 3 se" in r for r in reasons)
    assert any("recomputed verdict" in r for r in reasons)
    reasons = gate(wishart, [Output(0, _mc_report(6.0, 0.05, True, expected=5.0), "")])
    assert any("closed form" in r for r in reasons)
    assert gate(wishart, [Output(1, _mc_report(6.1, 0.05, True), "error: x\n")]) \
        == ["command 1 exited 1: error: x"]
    assert "malformed output" in gate(wishart, [Output(0, "[]", "")])[0]


def test_gate_checks_path_solve_outputs():
    solve = WORKLOADS["path-solve"]
    missing = Path(__file__).resolve().parent / "missing.json"
    reasons = gate(solve, run_op(cli.run_cli, solve.argvs(7, missing)))
    assert reasons[0].startswith("command 1 exited 2: error: cannot read config")

    csv_rows = ["path,t,x_1_1,x_1_2,x_2_2"] + [f"{p},0.5,1,0,1" for p in range(8) for _ in range(257)]
    records = [{"path_index": p, "converged": True, "iterations": 2, "d_n": [1.0, 1e-12]}
               for p in range(8)]
    good = [Output(0, "\n".join(csv_rows) + "\n", ""), Output(0, json.dumps(records), "")]
    assert gate(solve, good) == []
    short = [Output(0, "\n".join(csv_rows[:-1]) + "\n", ""), good[1]]
    assert "rows" in gate(solve, short)[0]
    nan_row = [Output(0, "\n".join(csv_rows[:-1] + ["7,1,nan,0,1"]) + "\n", ""), good[1]]
    assert "finite" in gate(solve, nan_row)[0]
    records[3]["converged"] = False
    assert "Picard path 3" in gate(solve, [good[0], Output(0, json.dumps(records), "")])[0]


def test_speed_meter_divides_by_the_calibrations_around_each_measurement():
    runs = iter([9.0, 1.0, 3.0, 2.0, 5.0, 7.0])  # the first run only warms up
    meter = SpeedMeter(lambda: next(runs), reference_s=0.5)
    assert meter.scale(2.0) == 2.0 * 0.5 / 2.0  # between the runs of 1.0 and 3.0
    assert meter.scale(5.0) == 5.0 * 0.5 / 2.5  # the 3.0 after the last one is its "before"
    meter.restart()  # other work ran: take a fresh "before"
    assert meter.scale(6.0) == 6.0 * 0.5 / 6.0
    assert meter.calibrations == [2.0, 2.5, 6.0]
