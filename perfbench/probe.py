"""Run one op of a workload in a fresh interpreter and report its peak resident memory.

Usage: python3 perfbench/probe.py ARGV_JSON

ARGV_JSON holds the op's list of CLI argv lists.  The last stdout line is a
JSON object with ``maxrss_kb`` and each command's exit code, stdout and stderr,
which the benchmark passes through the same output gate as its in-process ops.
"""

import json
import resource
import sys
from pathlib import Path

from workloads import import_cli, run_op


def main() -> None:
    argvs = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    outputs = run_op(import_cli().run_cli, argvs)
    print(json.dumps({
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "outputs": [[out.code, out.stdout, out.stderr] for out in outputs],
    }))


if __name__ == "__main__":
    main()
