"""Closed-loop DD-DGMS benchmark: one workload, one seed, one run.

    python3 e2ebench/run.py --workload intake_explore_1x --seed 1 --seconds 20 --trace 0

Run from the repository root.  Prints a summary, then as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: knobs that would change what is measured: worker pools, scan processes,
#: observability sinks, armed faults and the scalar kernel oracle
_ENV_KNOBS = ("REPRO_WORKERS", "REPRO_SCAN_PROCS", "REPRO_OBS", "REPRO_FAULTS",
              "REPRO_SCALAR_KERNELS")


def prepare_imports() -> None:
    """Serial, uninstrumented program from this checkout's ``src``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e2ebench: no program source at {SRC}")
    for knob in _ENV_KNOBS:
        os.environ.pop(knob, None)
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare_imports()

    import loop
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(have: {', '.join(workloads.WORKLOADS)})")
    result = loop.execute(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds,
        trace=bool(args.trace), workbase=Path.cwd() / ".e2ebench",
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
