"""Every metric of every workload from one command.  From a checkout's root::

    python3 perfbench/report.py --seed 1 --seconds 40

Runs ``run.py`` once untraced and once traced per workload, one after the
other, each in its own process, and prints each run's metric lines (name,
value, unit, sample count) under a header.  Exits 1 if any run reported a
wrong answer or failed.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().with_name("run.py")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    args = parser.parse_args(argv)
    status = 0
    for workload in workloads.WORKLOADS:
        for traced in (0, 1):
            print(f"== {workload} trace={traced}", flush=True)
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(traced)],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1] if proc.returncode in (0, 1) else lines))
            if proc.returncode != 0:
                print(f"exit code {proc.returncode}: {proc.stderr.strip()}")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
