"""Run the unchanged benchmark on several trees, interleaved, and write BENCH_<n>.json.

    python tools/bench.py [--seconds 20] [--seeds 1,2,3] N=TREE ...

Each TREE is a commit (checked out from this repository with `git archive` into
a temporary directory, which leaves no trace in `.git` even when the run is cut
short) or a directory such as `.`, the working tree, used as it is.  For every
seed, then every workload, each tree's own `perfbench/run.py --trace 0` runs
once; the trees take turns going first, seed by seed, so host drift falls on
all of them alike.  Each run prints one line: its tree, workload and seed,
whether it is correct, its op_s, work_per_s and peak_rss_mb; a run that is
not correct also prints run.py's FAIL lines, or the reason it has no result.
BENCH_<N>.json holds the commit (null for a directory), the settings and every
run: its workload, seed, exit code, run.py's `env` record, its FAIL lines if
any and its final JSON line.  The exit code is 1 when any run does not read
`"correct": true` (a failed op, or no result at all), else 0.
"""

import argparse, io, json, subprocess, sys, tarfile, tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mc-wishart", "mc-isometry", "inequalities", "path-solve")


def parse(stdout):
    """run.py's `env` record and its final JSON line, from its stdout."""
    lines = stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env {")), None)
    if env is None:
        raise ValueError("no env record in run.py's output")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or "correct" not in result:
        raise ValueError("run.py's last line is not its result")
    return env, result


def run(tree, workload, seed, seconds):
    """One `run.py --trace 0` in tree; the run's record."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    record = {"workload": workload, "seed": seed, "exit": done.returncode}
    fails = [line for line in done.stdout.splitlines() if line.startswith("FAIL ")]
    if fails:
        record["fail"] = fails
    try:
        record["env"], record["result"] = parse(done.stdout)
    except ValueError as exc:  # includes a last line that is not JSON
        record["error"] = f"{exc}; stderr: {done.stderr[-500:]}"
    return record


def correct(record):
    return record.get("result", {}).get("correct") is True


def report(n, record):
    """The run's line, and when it is not correct, the reasons it is not."""
    metrics = record.get("result", {}).get("metrics", {})
    cells = []
    for name in ("op_s", "work_per_s", "peak_rss_mb"):
        value = metrics.get(name, {}).get("value")
        cells.append(f"{name} {value:.4g}" if isinstance(value, (int, float)) else f"{name} -")
    lines = [f"BENCH_{n} {record['workload']} seed {record['seed']}: "
             f"correct {correct(record)}, " + ", ".join(cells)]
    if not correct(record):
        lines += record.get("fail", [])
        if "error" in record:
            lines.append(record["error"])
    return "\n".join(lines)


def checkout(commit, into):
    """The commit's files under into, by `git archive`; its full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{commit}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return sha


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", metavar="N=TREE")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seeds", default="1,2,3")
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    with tempfile.TemporaryDirectory() as work:
        files = {}
        for spec in args.trees:
            n, _, tree = spec.partition("=")
            if not n.isdigit() or not tree:
                parser.error(f"{spec!r} is not N=TREE")
            if n in files:  # a second tree would overwrite the first's file
                parser.error(f"N={n} is given twice")
            path, commit = Path(tree), None
            if not path.is_dir():
                path = Path(work, n)
                try:
                    commit = checkout(tree, path)
                except subprocess.CalledProcessError:
                    parser.error(f"{tree!r} is neither a directory nor a commit")
            files[n] = ({"n": int(n), "commit": commit, "tree": tree, "seconds": args.seconds,
                         "trace": 0, "runs": []}, path)
        order = list(files)
        for turn, seed in enumerate(seeds):
            for workload in WORKLOADS:
                for n in order if turn % 2 == 0 else order[::-1]:
                    record = run(files[n][1], workload, seed, args.seconds)
                    files[n][0]["runs"].append(record)
                    print(report(n, record), flush=True)
    for n, (doc, _) in files.items():
        (ROOT / f"BENCH_{n}.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return int(not all(correct(r) for doc, _ in files.values() for r in doc["runs"]))


if __name__ == "__main__":
    sys.exit(main())
