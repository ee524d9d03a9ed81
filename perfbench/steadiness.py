#!/usr/bin/env python3
"""A/A steadiness check: two alternating sets of runs of one commit.

Runs ``perfbench/run.py`` ``--runs`` times per set and workload, seed
``i`` for pair ``i``, alternating which set goes first.  For every
workload x end-to-end metric it prints each set's median and quartiles,
the spread (interquartile distance over the median) against the
metric's bound, and how far set B's median moved from set A's.  For
the wall-clock rates it also prints the raw (unnormalized) spread beside
the normalized one, which is what the reference kernel is for.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py --runs 5 --workloads des_cells
    python3 perfbench/steadiness.py --runs 10

Exit status 1 when any spread reaches a third of its bound or any
median moved by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    raw = next(
        json.loads(line[len("# raw: "):]) for line in out if line.startswith("# raw: ")
    )
    if not result["correct"]:
        print(f"  {workload} seed {seed}: not correct", file=sys.stderr)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values.update({f"raw.{k}": v for k, v in raw.items()})
    values["elapsed_s"] = time.perf_counter() - start
    return values


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(q1, median, q3, (q3 - q1) / median), quartiles as ``statistics.quantiles``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in bench["workloads"])
    )
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    sets: dict[str, list[list[dict]]] = {w: [[], []] for w in workloads}
    for i in range(args.runs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for s in order:
            for w in workloads:
                sets[w][s].append(run_once(w, i, args.seconds))
                print(f"  run {i} set {'AB'[s]} {w} done", file=sys.stderr, flush=True)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':18s} {'set':3s} {'q1':>11s} {'median':>11s} {'q3':>11s} "
              f"{'spread':>7s} {'bound':>6s} {'raw spr':>7s}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s in (0, 1):
                runs = sets[w][s]
                q1, med, q3, spr = spread([r[name] for r in runs])
                raw = (
                    f"{spread([r['raw.' + name] for r in runs])[3]:7.3f}"
                    if "raw." + name in runs[0] else f"{'':7s}"
                )
                medians.append(med)
                flag = ""
                if name != "setup_s" and spr >= bound / 3:
                    flag, ok = " <- spread", False
                print(f"  {name:18s} {'AB'[s]:3s} {q1:11.4g} {med:11.4g} {q3:11.4g} "
                      f"{spr:7.3f} {bound:6.3f} {raw}{flag}")
            sign = 1 if metric["better"] == "higher" else -1
            worse = sign * (medians[0] - medians[1]) / medians[0]
            flag = ""
            if worse > bound:
                flag, ok = " <- moved", False
            print(f"  {name:18s} B vs A: {-sign * worse:+.3f} of A's median "
                  f"(bound {bound}){flag}")
        ks = [r["raw.ref_kernel_ms"] for runs in sets[w] for r in runs]
        el = [r["elapsed_s"] for runs in sets[w] for r in runs]
        print(f"  kernel ms: min {min(ks):.2f} median {statistics.median(ks):.2f} "
              f"max {max(ks):.2f}; run seconds: median {statistics.median(el):.1f} "
              f"max {max(el):.1f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
