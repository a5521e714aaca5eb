"""Print one SHA-256 per benchmark workload over every output it computes.

    python3 tools/bithash.py [workload ...]

Each workload of `perfbench/workloads.py` is built in-process at full size
and every operation runs once.  The digest covers, in the workload's order,
each operation's name and its output: an array's bytes, or the `cli`
command's written files as sorted JSON.  A change that keeps every output
bit for bit prints the same digests before and after; the digests depend on
the numpy build, so compare two trees on the same machine.  The `cli` runs
write into the benchmark's ignored work directory, `perfbench/out/`.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT/"src"), str(ROOT/"perfbench")]

import workloads  # noqa: E402


def digest(name: str) -> str:
    sha = hashlib.sha256()
    for op in workloads.build(name, in_process=True).ops:
        out = op.collect(op.run())
        sha.update(op.name.encode())
        sha.update(json.dumps(out, sort_keys=True).encode() if isinstance(out, dict)
                   else np.ascontiguousarray(out).tobytes())
    return sha.hexdigest()


def main(names: list) -> None:
    workloads.prepare_cli()
    try:
        for name in names or workloads.WORKLOADS:
            print(f"{name:13s} {digest(name)}", flush=True)
    finally:
        workloads.cleanup_cli()


if __name__ == "__main__":
    main(sys.argv[1:])
