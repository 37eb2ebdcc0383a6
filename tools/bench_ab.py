#!/usr/bin/env python3
"""Alternating A/B of two source trees on one benchmark workload.

    python3 tools/bench_ab.py PARENT_TREE CHANGE_TREE --workload W --pairs N --seed S [--seconds T]

Each tree runs its own benchmark (the ``command`` of its ``BENCHMARK.json``,
``perfbench/run.py``) from its own root.  Pair i runs both trees at seed
S + i, the parent first in even pairs and the change first in odd ones.
``--seconds`` defaults to the ``run_seconds`` of ``BENCHMARK.json``.

For every end-to-end metric of the parent's ``BENCHMARK.json`` it prints the
median and quartiles of each side, the change against the parent's median,
and the pairs the change won.  Two rules follow:

- bound: the change's median may be worse than the parent's by at most the
  metric's ``bound`` (a fraction of the parent's median);
- gain: the change wins at least 9 in 10 of the pairs, and its median is
  better than the parent's by more than the parent's interquartile range.

The exit code is 1 if a bound is broken or a run failed an operation or a
check, else 0.  A gain is reported, not required.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

GAIN_WIN_SHARE = 0.9


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{tree}: {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """The two rules for one metric, from the per-pair values of each side."""
    sign = 1.0 if metric["better"] == "lower" else -1.0  # sign * (change - parent) < 0: better
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    worse_by = sign * (c_med - p_med) / p_med if p_med else 0.0
    return {
        "parent": (p_med, p1, p3),
        "change": (c_med, c1, c3),
        "relative": (c_med - p_med) / p_med if p_med else 0.0,
        "wins": wins,
        "bound_ok": worse_by <= metric["bound"],
        "gain": wins >= GAIN_WIN_SHARE * len(parent) and sign * (p_med - c_med) > p3 - p1,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    benchmark = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    trees = {"parent": args.parent, "change": args.change}
    commands = {side: json.loads((tree / "BENCHMARK.json").read_text())["command"]
                for side, tree in trees.items()}

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(trees[side], commands[side], args.workload, args.seed + i, seconds)
            runs[side].append(result)
            print(f"pair {i + 1}/{args.pairs} seed {args.seed + i} {side}: failed "
                  f"{result['failed']}/{result['attempted']}, correct {result['correct']}",
                  file=sys.stderr)

    ok = True
    for side, results in runs.items():
        failed = sum(r["failed"] for r in results)
        incorrect = sum(not r["correct"] for r in results)
        print(f"{side}: {len(results)} runs, {failed} failed operations, "
              f"{incorrect} runs with a failed check")
        ok = ok and not failed and not incorrect

    print(f"\n{args.workload}, {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}, "
          f"--seconds {seconds:g}\n")
    print("| metric | parent median (quartiles) | change median (quartiles) | change "
          "| change better | bound | gain |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in results]
                  for side, results in runs.items()}
        row = compare(metric, values["parent"], values["change"])
        cells = [f"{m:.4g} ({lo:.4g}–{hi:.4g})" for m, lo, hi in (row["parent"], row["change"])]
        print(f"| `{name}` | {cells[0]} | {cells[1]} | {row['relative']:+.1%} "
              f"| {row['wins']}/{args.pairs} "
              f"| {'within' if row['bound_ok'] else 'BROKEN'} {metric['bound']:g} "
              f"| {'yes' if row['gain'] else 'no'} |")
        ok = ok and row["bound_ok"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
