"""The committed CLI corpus, ``tools/corpus.py``: its argvs, configs, README parser and verdict.

Nothing here starts a process; CI runs the corpus itself.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from matrixdiff import cli

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("corpus", ROOT / "tools" / "corpus.py")
corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(corpus)


@pytest.fixture(scope="module")
def built():
    path = list(sys.path)
    try:
        return corpus.corpus(ROOT)
    finally:
        sys.path[:] = path  # corpus() puts perfbench first, to import its workloads


def test_corpus_has_158_distinct_argvs(built):
    argvs, _ = built
    assert len(argvs) == 158
    assert len({tuple(argv) for argv in argvs}) == 158


def test_every_argv_parses_and_every_config_loads(built, tmp_path):
    argvs, files = built
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    parser, named = cli._build_parser(), set()
    for argv in argvs:
        args = parser.parse_args(argv)
        if args.config is not None:
            assert isinstance(cli._load_config(tmp_path / args.config), dict), argv
            named.add(args.config)
    assert named == set(files)


def test_readme_parser_returns_the_cli_examples_and_picard_json():
    commands, config, library = corpus.readme_examples(ROOT)
    assert [argv[0] for argv in commands] == [
        "simulate", "verify", "isometry", "picard-convergence", "trace-moment"]
    assert commands[3][-2:] == ["--config", "picard.json"]
    assert json.loads(config) == {"x0": [16, 0, 0, 16], "sqrt_clip_bound": 10}
    assert "picard_solve(model, path)" in library


def test_verdict_reads_exit_code_stdout_stderr_and_out_file():
    refused = corpus.outcome(2, b"", b"error: x\n")
    assert corpus.verdict(refused, corpus.outcome(2, b"", b"error: x\n")) == "same"
    assert corpus.verdict(refused, corpus.outcome(2, b"", b"error: y\n")) == "moved"
    assert corpus.verdict(refused, corpus.outcome(2, b"error: x\n", b"")) == "moved"
    assert corpus.verdict(refused, corpus.outcome(1, b"", b"error: x\n")) == "moved"
    written = corpus.outcome(0, b"", b"", b"t,x\n")
    assert corpus.verdict(written, corpus.outcome(0, b"", b"", b"t,x\n")) == "same"
    assert corpus.verdict(written, corpus.outcome(0, b"", b"", b"t,y\n")) == "moved"


def test_verdict_names_the_check_reports_that_moved():
    def report(passed):
        doc = [{"name": "inq2", "details": {"dim": 3}, "pass": True},
               {"name": "prop_cauchy", "details": {"dim": 3}, "pass": passed}]
        return corpus.outcome(0, json.dumps(doc).encode(), b"")

    assert corpus.verdict(report(True), report(False)) == "moved: prop_cauchy d=3"


def test_verdict_sizes_a_move_that_changes_only_numbers():
    def printed(*values, code=0, sep=","):
        return corpus.outcome(code, ("t,x\n" + sep.join(values) + "\n").encode(), b"")

    base = printed("0.25", "2.0000000000000004", "-1e-300")
    assert corpus.verdict(base, printed("0.25", "2.0", "-1e-300")) \
        == "moved (numbers only, max rel 2e-16)"
    assert corpus.verdict(base, printed("0.25", "2.0000000000000004", "-1.5e-300")) \
        == "moved (numbers only, max rel 0.3)"
    assert corpus.verdict(base, printed("0.25", "2", "-1e-300")) \
        == "moved (numbers only, max rel 2e-16)"
    # other text, another count of numbers, another exit code or a change outside the output
    assert corpus.verdict(base, printed("0.25", "2.0", "-1e-300", sep=";")) == "moved"
    assert corpus.verdict(base, printed("0.25", "2.0")) == "moved"
    assert corpus.verdict(base, printed("0.25", "2.0", "-1e-300", code=1)) == "moved"
    assert corpus.verdict(base, corpus.outcome(0, base[2], b"warning: x\n")) == "moved"
    assert corpus.numbers_moved(base, base) is None

    def report(beta):
        doc = [{"name": "lemma", "details": {"dim": 2, "beta": beta}, "pass": True}]
        return corpus.outcome(0, json.dumps(doc).encode(), b"")

    assert corpus.verdict(report(0.5), report(0.5000000000000001)) \
        == "moved: lemma d=2 (numbers only, max rel 2e-16)"


def test_a_move_on_stderr_or_in_the_out_file_is_sized_too():
    refused = corpus.outcome(2, b"", b"error: d_25 = 2.0208e-10\n")
    assert corpus.verdict(refused, corpus.outcome(2, b"", b"error: d_25 = 2.0212e-10\n")) \
        == "moved (numbers only, max rel 0.0002)"
    written = corpus.outcome(0, b"", b"", b"t,x\n1,1.5\n")
    assert corpus.verdict(written, corpus.outcome(0, b"", b"", b"t,x\n1,1.5000000000000002\n")) \
        == "moved (numbers only, max rel 1e-16)"
    # the same text moved from stdout to stderr is not a change of numbers
    assert corpus.verdict(corpus.outcome(0, b"1\n", b""), corpus.outcome(0, b"", b"1\n")) == "moved"
