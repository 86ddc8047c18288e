#!/usr/bin/env python3
"""Benchmark of the cswin-seg package, run from the root of a checkout.

One run:
    python3 bench/run.py --workload train-64 --seed 1 --seconds 25 --trace 0

prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1`` (spans are then also written to
``bench/out/trace-<workload>-seed<n>.json``).

Repeat mode:
    python3 bench/run.py --workload train-64 --repeat 10 --seed 1 --seconds 25

runs the workload once per seed seed, seed+1, ... in fresh processes and
prints each metric's median, quartiles and quartile spread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# One BLAS thread: on two cores a second OpenBLAS thread doubled the CPU time
# of a forward pass without shortening it, and it competes with neighbours.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("train-64", "train-224", "eval-224")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0, help="run N seeds in fresh processes and summarise")
    return p.parse_args(argv)


def repeat(args) -> int:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    shares = []
    for i in range(args.repeat):
        cmd = [
            sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed + i),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if not res["correct"]:
            sys.stderr.write(proc.stdout)
            return 1
        shares.append(res["failed"] / res["attempted"])
        line = []
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
            line.append(f"{name}={m['value']:.6g}")
        print(f"seed {args.seed + i}: attempted {res['attempted']} failed {res['failed']}  " + " ".join(line), flush=True)
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}
        print(f"{name:28s} {units[name]:7s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {summary[name]['spread']:.4f}")
    print(json.dumps({"workload": args.workload, "runs": args.repeat, "failed_shares": shares, "metrics": summary}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.repeat:
        return repeat(args)
    if not (ROOT / "src" / "cswin_seg" / "__init__.py").is_file():
        print(f"error: no cswin_seg package under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # needs the BLAS settings above and the package path

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), HERE / "out")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
