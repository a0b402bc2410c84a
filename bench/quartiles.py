"""Median and quartiles of each metric over several seeds.

    python3 bench/quartiles.py --workload small-mixed --seeds 1-10 --seconds 30 --trace 0

Runs ``bench/run.py`` once per seed, one run at a time, and prints one
Markdown table row per metric: median, first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
(Q3 - Q1) / median. With ``--trace 0`` two rows more, marked as wall
clock, give the commands' measured wall time per round and the reference
kernel's time, which ``run.py`` prints on standard error. This is the
command that regenerates the reference figures in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    shares = set()  # failed / attempted of each run
    for seed in args.seeds:
        argv = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add(Fraction(result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        wall = re.search(r"wall clock: run_s ([0-9.]+) s, reference kernel ([0-9.]+) ms", proc.stderr)
        if wall:
            for name, unit, value in (("wall clock: run_s", "s", wall[1]), ("wall clock: reference kernel", "ms", wall[2])):
                values.setdefault(name, []).append(float(value))
                units[name] = unit
        print(f"seed {seed}: " + json.dumps({k: round(v[-1], 6) for k, v in values.items()}), file=sys.stderr)
    print(f"{args.workload}, seeds {args.seeds[0]}-{args.seeds[-1]}, failed/attempted: {', '.join(map(str, sorted(shares)))}")
    print("| metric | unit | median | Q1 | Q3 | (Q3-Q1)/median |")
    print("|---|---|---|---|---|---|")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        print(f"| {name} | {units[name]} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
