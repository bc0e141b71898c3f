"""The committed CLI corpus: README's examples, and the argvs whose output two trees compare.

    python tools/corpus.py readme              # run README's examples on this checkout
    python tools/corpus.py compare BASE HEAD   # one markdown row per argv; never fails
"""

import hashlib, json, os, re, shlex, subprocess, sys, tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOLVERS = ("simulate --method euler", "simulate --method picard", "picard-convergence")


def readme_examples(root):
    """README's `## CLI` argvs (after `matrixdiff`), their picard.json, its library example."""
    text = (Path(root) / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n### ", 1)[0]
    commands = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    argvs = [shlex.split(line) for line in commands.splitlines() if line.strip()]
    if not argvs or any(argv[0] != "matrixdiff" for argv in argvs):
        raise ValueError(f"README's ## CLI block holds a command other than matrixdiff: {argvs}")
    config = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    library = re.search(r"\n## Library example\n+```python\n(.*?)```", text, re.S).group(1)
    return [argv[1:] for argv in argvs], config, library


def corpus(head):
    """Every argv in row order, and the files they read, by name: the text of each."""
    sys.path.insert(0, str(Path(head) / "perfbench"))
    from workloads import CONTRACTION, WORKLOADS

    def eye(dim, value, zero=0):  # value I, as rows
        return [[value if i == j else zero for j in range(dim)] for i in range(dim)]

    custom = {"x0": [16, 0, 0, 16], "g_kind": "clipped_sqrt", "g_clip": 10,
              "b_kind": "constant", "b_value": 3}
    documents = {
        # the path-solve start 16 I in 2, 1, 3, 5 and 8 dimensions; big3.json
        # starts at 1e308 I, whose lift sums R + R^T overflow
        "contraction.json": CONTRACTION, "contraction1.json": {**CONTRACTION, "x0": [16]},
        **{f"contraction{d}.json": {**CONTRACTION, "x0": sum(eye(d, 16), [])} for d in (3, 5, 8)},
        "big3.json": {**CONTRACTION, "x0": sum(eye(3, 1e308), [])},
        # custom models from 16 I whose f is clipped affine or the constant -1.3 or 1.0: only 1.0
        # takes the d = 2 kernel's shortcut of a product by 1.0, which keeps the other factor's bits
        "affine.json": {**custom, "f_kind": "clipped_affine", "f_a": -0.05, "f_b": 2, "f_bound": 3},
        "minus.json": {**custom, "f_kind": "constant", "f_value": -1.3},
        "one.json": {**custom, "f_kind": "constant", "f_value": 1.0},
        # one.json from diag(1, -1): only the Wishart model requires a PSD start
        "indef.json": {**custom, "x0": [1, 0, 0, -1], "f_kind": "constant", "f_value": 1.0},
        # starts at d = 5 whose norm, about 2.2e308, overflows: asym5.json is 1e308 I with 1e305
        # above the diagonal, not symmetric, and indef5.json is 1e308 diag(1, 1, 1, 1, -1), not PSD
        "asym5.json": {**CONTRACTION, "x0": [[1e308, 1e305, 0.0, 0.0, 0.0],
                                             *eye(5, 1e308, 0.0)[1:]]},
        "indef5.json": {**CONTRACTION, "x0": [*eye(5, 1e308, 0.0)[:4], [0.0] * 4 + [-1e308]]},
    }
    seeded = [  # each runs at seeds 1, 2 and 3
        # verify where its draw is degenerate (d = 1: no part orthogonal to x), at d = 13 with a
        # partial last Cauchy block (1500 = 1024 + 476), at the highest --dim, and as CSV, which
        # would print a non-finite worst violation that JSON output refuses
        "verify --dim 1 --samples 4096", "verify --dim 13 --samples 1500",
        "verify --dim 31 --samples 256", "verify --samples 512 --format csv",
        # one-sample blocks through all three kernels at every default d
        "verify --samples 1",
        # the solvers at d = 3, whose bits a d = 2 change must leave alone
        *(f"{solver} --dim 3 --alpha 4 --steps 256 --paths 2 --config {name}"
          for solver in SOLVERS for name in ("contraction3.json", "big3.json")),
        # the solvers and the trace moment at d = 1, which LAPACK decomposes
        *(f"{solver} --dim 1 --alpha 1 --steps 256 --paths 2 --config contraction1.json"
          for solver in SOLVERS),
        "trace-moment --dim 1",
        # states as JSON and Picard's distances as CSV, over two paths
        *(f"{command} --paths 2 --config contraction.json" for command in (
            "simulate --format json", "simulate --method picard --format json",
            "picard-convergence --format csv")),
        # Picard's d_n at d = 5 and 8 from 16 I, converged and cut short by --max-iter 3 (exit 1)
        *(f"picard-convergence --dim {d} --alpha {d} --paths 2 --config contraction{d}.json{cut}"
          for d in (5, 8) for cut in ("", " --max-iter 3")),
        # Picard from the default X0 = 0, whose zero state the reconstruction guard judges over
        # its own scale on every sweep, cut short by --max-iter 5 (exit 1)
        *(f"picard-convergence --dim {d} --alpha {d + 1} --steps 64 --paths 2 --max-iter 5"
          for d in (2, 3, 5)),
        # the custom models' coefficient kinds on every solver, and a custom model that
        # runs from an indefinite start
        *(f"{solver} --model custom --paths 2 --config {name}"
          for name in ("affine.json", "minus.json", "one.json") for solver in SOLVERS),
        "simulate --model custom --paths 2 --steps 8 --config indef.json",
        # the path draw at d = 1 and 3, and on horizons 2.5 and 0.3, where sqrt(dt) is inexact
        "isometry --dim 1 --steps 16 --paths 2000", "isometry --dim 3 --steps 16 --paths 2000",
        "isometry --horizon 2.5", "trace-moment --horizon 0.3 --steps 64",
        # the Monte Carlo fill loop's edges: one path past a full 64-path chunk with one-step
        # paths, and 2048 + 64 + 1 paths, a second block of one full chunk and one path
        "isometry --paths 65 --steps 1", "isometry --dim 3 --paths 2113 --steps 3",
        # starts refused where their norm overflows (exit 2)
        *(f"simulate --dim 5 --config {name}" for name in ("asym5.json", "indef5.json")),
        # the trace moment over 2048-path blocks and a last block of one path: the d = 2 kernels'
        # entry-plane stacks at m = 1 after m = 2048, whose bits must be those of each path alone
        "trace-moment --paths 2049 --steps 16",
        # alpha outside the Wallach set: the one `warning:` line on stderr of every run
        "simulate --alpha 0.5 --steps 4",
        # an --out that cannot be written: one `error:` line and exit 2
        "simulate --steps 4 --out missing/states.csv",
    ]
    readme, picard, _ = readme_examples(head)
    # the benchmark workloads' argvs at seeds 1, 2 and 3, and README's examples
    argvs = [argv for workload in WORKLOADS.values() for seed in (1, 2, 3)
             for argv in workload.argvs(seed, "contraction.json")]
    argvs += readme + [[*argv.split(), "--seed", str(s)] for argv in seeded for s in (1, 2, 3)]
    files = {name: json.dumps(doc) for name, doc in documents.items()}
    return argvs, {**files, "picard.json": picard}


def readme(root=ROOT):
    """Run README's CLI examples, then its library example; 1 if any of them fails."""
    commands, config, library = readme_examples(root)
    env, codes = dict(os.environ, PYTHONPATH=str(Path(root) / "src")), []
    with tempfile.TemporaryDirectory() as work:
        Path(work, "picard.json").write_text(config, encoding="utf-8")
        for args in [["-m", "matrixdiff.cli", *argv] for argv in commands] + [["-c", library]]:
            print("+ python", shlex.join(args), flush=True)
            codes.append(subprocess.run([sys.executable, *args], cwd=work, env=env).returncode)
    return int(any(codes))


def outcome(code, stdout, stderr, out=None):
    """Exit code, one SHA-256 over stdout, stderr and the --out file, the output to read,
    and the three of them."""
    parts, digest = (stdout, stderr, out or b""), hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "big") + part)
    return code, digest.hexdigest(), stdout if out is None else out, parts


# a decimal number as the CLI prints one, sign, fraction and exponent included
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def numbers_moved(before, after):
    """The largest relative change |a - b| / max(|a|, |b|) between the numbers of two
    outcomes whose exit codes match and whose stdout, stderr and --out file differ only in
    their numbers, else None."""
    old, new = b"\n".join(before[3]), b"\n".join(after[3])
    if before[0] != after[0] or old == new or NUMBER.split(old) != NUMBER.split(new):
        return None
    pairs = zip(map(float, NUMBER.findall(old)), map(float, NUMBER.findall(new)))
    return max((abs(a - b) / max(abs(a), abs(b)) for a, b in pairs if a != b), default=0.0)


def verdict(before, after):
    """`same` when exit code and digest match, else `moved`, the check reports that did, and
    the largest relative change where the outputs differ only in their numbers."""
    if before[:2] == after[:2]:
        return "same"
    rel = numbers_moved(before, after)
    size = "" if rel is None else f" (numbers only, max rel {rel:.1g})"
    try:
        old, new = json.loads(before[2]), json.loads(after[2])
    except ValueError:
        return "moved" + size
    if not all(isinstance(doc, list) and all(isinstance(r, dict) and "name" in r for r in doc)
               for doc in (old, new)) or len(old) != len(new):
        return "moved" + size
    moved = ", ".join(f"{b['name']} d={(b.get('details') or {}).get('dim')}"
                      for a, b in zip(old, new) if a != b)
    return (f"moved: {moved}" if moved else "moved") + size


def run(root, work, argv):
    """The outcome of argv on root's sources, run in work; its --out file is read and removed."""
    done = subprocess.run([sys.executable, "-m", "matrixdiff.cli", *argv], capture_output=True,
                          cwd=work, env=dict(os.environ, PYTHONPATH=str(root / "src")))
    out = Path(work, argv[argv.index("--out") + 1]) if "--out" in argv else None
    written = out.read_bytes() if out and out.exists() else None  # written instead of stdout
    if written is not None:
        out.unlink()
    return outcome(done.returncode, done.stdout, done.stderr, written)


def compare(base, head):
    """Print each argv's exit code on both trees and whether its output moved."""
    base, head = Path(base).resolve(), Path(head).resolve()
    argvs, files = corpus(head)
    print("| argv | exit (base) | exit (head) | output SHA-256 |\n|---|---|---|---|")
    with tempfile.TemporaryDirectory() as work:
        for name, text in files.items():
            Path(work, name).write_text(text, encoding="utf-8")
        for argv in argvs:
            before, after = run(base, work, argv), run(head, work, argv)
            print(f"| `{' '.join(argv)}` | {before[0]} | {after[0]} | {verdict(before, after)} |")
    # what `wc -l src/matrixdiff/*.py` totals
    old, new = (sum(p.read_bytes().count(b"\n") for p in (root / "src" / "matrixdiff").glob("*.py"))
                for root in (base, head))
    print(f"| `wc -l src/matrixdiff/*.py` | {old} | {new} | {new - old:+d} lines |")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["readme"]:
        sys.exit(readme())
    if len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(*sys.argv[2:]))
    sys.exit(__doc__)  # the usage, on stderr, with exit code 1
