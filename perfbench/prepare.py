"""Set-up probe: a fresh interpreter gets ready to run one workload.

The benchmark times this script from launch to exit as its set-up time::

    python3 perfbench/prepare.py sweep-cold
    python3 perfbench/prepare.py sweep-warm --trace-dir DIR [--small]

``sweep-cold`` imports the public entry points and builds the grid.
``sweep-warm`` also captures the trace of every behaviour class into
``DIR``, so that every point of the timed re-sweep is a fast replay.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("sweep-cold", "sweep-warm"))
    parser.add_argument("--trace-dir")
    parser.add_argument("--small", action="store_true",
                        help="use the self-test's shrunk grid")
    args = parser.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro import api
    from repro.options import RunOptions

    import plan

    scale = plan.TINY if args.small else plan.FULL
    plan.cold_grid(0, scale=scale)
    if args.workload == "sweep-warm":
        configs = plan.capture_set(scale)
        report = api.campaign(configs,
                              options=RunOptions(trace_dir=args.trace_dir))
        if report.failures or report.captured != len(configs):
            print(f"trace capture failed: {report.summary()}",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
