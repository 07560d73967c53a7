#!/usr/bin/env python3
"""Run the whole experiment battery from one config file.

Usage:
    python scripts/run_all_experiments.py [--config configs/experiments.yaml]
                                          [--threads N] [--strict]

The subcommands run in the order of `kinex.cli.HANDLERS`, where `relax` comes
before `fit`, which re-fits the series the `relax` run wrote.
"""

import argparse
import sys
import time
from pathlib import Path

from kinex.cli import HANDLERS, main as kinex_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default="configs/experiments.yaml")
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--strict", action="store_true")
    args = parser.parse_args()

    if not Path(args.config).exists():
        print(f"config not found: {args.config}", file=sys.stderr)
        return 2

    worst = 0
    for name in HANDLERS:
        argv = [name, "--config", args.config]
        if args.threads is not None:
            argv += ["--threads", str(args.threads)]
        if args.strict:
            argv += ["--strict"]
        t0 = time.perf_counter()
        code = kinex_main(argv)
        print(f"{name:<14} exit={code} ({time.perf_counter() - t0:.1f}s)")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
