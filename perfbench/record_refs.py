"""Record the reference outputs that run.py checks every operation against.

    python3 perfbench/record_refs.py

Run it only at a commit whose outputs define "correct"; the references in
refs/ were recorded at the commit that introduced the benchmark.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent/"src"), str(HERE)]

import workloads  # noqa: E402


def main() -> None:
    workloads.prepare_cli()
    try:
        for smoke in (False, True):
            for name in workloads.WORKLOADS:
                wl = workloads.build(name, smoke, in_process=True)
                outputs = {op.name: op.collect(op.run()) for op in wl.ops}
                print(workloads.save_refs(name, smoke, outputs), len(outputs))
    finally:
        workloads.cleanup_cli()


if __name__ == "__main__":
    main()
