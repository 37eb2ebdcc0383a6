#!/usr/bin/env python3
"""Benchmark of ``hypersense identify`` and ``hypersense evaluate``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Set-up runs ``SETUPS`` times, each
in a fresh process that imports the package, renders the first pass's
recordings and loads the plans; the last of those processes stays to
render each later pass between timed passes.  Passes then run until
``--seconds`` of pass time is measured.  With ``--trace 1`` every second
pass runs with the per-layer wrappers of ``tracing.py`` installed and the
per-layer metrics are reported instead of the end-to-end ones.

Problems found by the checks go to stderr; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
SETUPS = 3  # setup_s is the median of this many set-ups
MIN_PASSES = 4  # so that a traced run has two traced and two untraced passes
SHOWN_PROBLEMS = 20


class SetupProcess:
    """One set-up, timed from process start until the first pass can begin."""

    def __init__(self, workload: str, seed: int):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "render.py"), workload, str(seed), str(WORK)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self._expect("ready")
        except RuntimeError:
            self.close()
            raise
        self.seconds = time.perf_counter() - t0

    def _expect(self, answer: str) -> None:
        line = self.proc.stdout.readline().strip()
        if line != answer:
            raise RuntimeError(f"set-up process answered {line!r}, expected {answer!r}")

    def render(self, i: int) -> None:
        self.proc.stdin.write(f"render {i}\n")
        self.proc.stdin.flush()
        self._expect(f"done {i}")

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(
    setup_s: list[float], passes: list[float], completed: list[int], rss_mb: float
) -> dict:
    """The untraced metrics, as ``name -> (value, unit)``.

    ``completed`` holds the operations each pass completed, ``rss_mb`` the
    peak resident memory through the first pass.
    """
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "pass_s": (statistics.median(passes), "s"),
        "ops_per_s": (statistics.median(n / t for n, t in zip(completed, passes)), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    import tracing

    workload = WORKLOADS[workload_name]
    tracer = tracing.Tracer() if trace else None
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    server = None
    untraced: list[float] = []
    traced: list[float] = []
    completed: list[int] = []  # operations completed per untraced pass
    ops = []
    rescans = 0
    try:
        setup_s = []
        for _ in range(SETUPS):
            if server is not None:
                server.close()
            server = SetupProcess(workload_name, seed)
            setup_s.append(server.seconds)
        i = 0
        while i < workload.max_passes and (
            i < MIN_PASSES or sum(untraced) + sum(traced) < seconds
        ):
            if i:
                server.render(i)
            traced_pass = tracer is not None and i % 2 == 1
            if traced_pass:
                tracer.install()
            t0 = time.perf_counter()
            done = workload.run_pass(WORK, seed, i)
            elapsed = time.perf_counter() - t0
            if traced_pass:
                tracer.uninstall()
                traced.append(elapsed)
                rescans += tracing.count_rescans(workload.reports(done))
            pass_ops = workload.check_pass(WORK, i, done)
            if not traced_pass:
                untraced.append(elapsed)
                completed.append(sum(op.items for op in pass_ops if not op.failed))
            ops += pass_ops
            if i == 0:
                # freed arrays the allocator keeps make the peak creep from
                # pass to pass; through the first pass it does not depend on
                # how many passes fit in the run
                rss_mb = peak_rss_mb()
            for path in WORK.glob(f"*-{i}.*"):
                path.unlink()
            i += 1
    finally:
        if server is not None:
            server.close()
        shutil.rmtree(WORK, ignore_errors=True)

    # a failed operation's note says why it failed; correctness speaks of
    # the operations that did not fail
    problems = [p for op in ops if not op.failed for p in op.problems]
    notes = [f"failed: {p}" for op in ops if op.failed for p in op.problems]
    notes += [f"check failed: {p}" for p in problems]
    for note in notes[:SHOWN_PROBLEMS]:
        print(note, file=sys.stderr)
    if len(notes) > SHOWN_PROBLEMS:
        print(f"... and {len(notes) - SHOWN_PROBLEMS} more", file=sys.stderr)
    if tracer is not None:
        for name in tracer.missing:
            print(f"trace: not found: {name}", file=sys.stderr)
        metrics = tracing.per_layer(tracer, traced, untraced, rescans)
    else:
        metrics = end_to_end(setup_s, untraced, completed, rss_mb)
    return {
        "correct": not problems,
        "attempted": sum(op.items for op in ops),
        "failed": sum(op.items for op in ops if op.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hypersense" / "cli.py").is_file():
        print(f"error: no hypersense sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
