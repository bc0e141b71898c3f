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
