#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, with per-pair ratios and
a verdict per metric.

    OPENBLAS_NUM_THREADS=1 python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload meb-stream --seeds 10

For each seed 1..N (from ``--first-seed``), runs
``python3 perfbench/run.py --workload W --seed i --seconds S`` once in each
checkout, one after the other; S defaults to ``run_seconds`` of
``BENCHMARK.json``, the run length the benchmark is judged at.  The checkout
that goes first alternates from pair to pair, so a drift in host load falls
on both sides alike.  Each run's last output line is its JSON result; a run
that fails a solve, or whose last line is not JSON, stops the script.  Every
run is waited for before the next starts, and nothing is written but what
``run.py`` writes under each checkout's ``perfbench/out/``.

For every end-to-end metric of ``BENCHMARK.json`` it prints each pair's
change / parent ratio, the number of pairs in which the change is better (in
the metric's ``better`` direction), the quartiles of both sides and the
median ratio, then one verdict, the first that holds of:

- ``gain``: the change is better in at least 9 of 10 pairs, and its median
  is better than the parent's by more than the parent's interquartile range;
- ``worse``: the change's median is worse than the parent's by more than the
  metric's ``bound`` (a fraction of the parent's median);
- ``unresolved``: the parent's interquartile range is wider than the bound,
  and not every run of the change is better than every run of the parent;
- ``flat``: none of these.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"{checkout}: seed {seed}: no JSON result (exit {proc.returncode})\n"
                 f"{proc.stderr}")
    if proc.returncode or not result["correct"] or result["failed"]:
        sys.exit(f"{checkout}: seed {seed}: {result['failed']} failed solves "
                 f"(exit {proc.returncode})\n{proc.stderr}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The lower quartile, the median and the upper quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    lower, _, upper = statistics.quantiles(values, n=4)
    return lower, statistics.median(values), upper


def verdict(parent: list[float], change: list[float], wins: int, higher: bool,
            bound: float) -> str:
    """``gain``, ``worse``, ``unresolved`` or ``flat``, as the module says;
    ``wins`` counts the pairs in which the change is better."""
    sign = 1.0 if higher else -1.0
    p_lower, p_median, p_upper = quartiles(parent)
    gain = sign * (statistics.median(change) - p_median)
    if 10 * wins >= 9 * len(parent) and gain > p_upper - p_lower:
        return "gain"
    if gain < -bound * abs(p_median):
        return "worse"
    separated = min(sign * c for c in change) > max(sign * p for p in parent)
    if p_upper - p_lower > bound * abs(p_median) and not separated:
        return "unresolved"
    return "flat"


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=ROOT)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, required=True, help="number of pairs")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")

    spec = benchmark["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    for k, seed in enumerate(range(args.first_seed, args.first_seed + args.seeds)):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {side: run_once(sides[side], args.workload, seed, args.seconds) for side in order}
        pairs.append(pair)
        print(f"seed {seed} ({order[0]} first): " + ", ".join(
            f"{m['name']} {pair['parent'][m['name']]:.4g} -> {pair['change'][m['name']]:.4g}"
            for m in spec), flush=True)

    print(f"\n{args.workload}, {len(pairs)} pairs of {args.seconds:g} s, "
          f"parent {sides['parent']}, change {sides['change']}")
    for metric in spec:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        ratios = [c / p if p else float("nan") for p, c in zip(parent, change)]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        print(f"{name}: {verdict(parent, change, wins, higher, metric['bound'])}; change better in "
              f"{wins}/{len(pairs)}; quartiles parent "
              + "/".join(f"{q:.4g}" for q in quartiles(parent)) + " -> change "
              + "/".join(f"{q:.4g}" for q in quartiles(change))
              + f"; median ratio {statistics.median(ratios):.4f}; ratios "
              + " ".join(f"{r:.3f}" for r in ratios))
    return 0


if __name__ == "__main__":
    sys.exit(main())
