#!/usr/bin/env python3
"""SHA-256 of every file ``simulate``, ``identify`` and ``nfspem`` write on the shipped inputs.

    PYTHONPATH=src python3 tools/output_digests.py

Drives ``hypersense.cli.main`` of whichever ``hypersense`` is importable, so
running it against two source trees and diffing the two outputs checks that
they write byte-identical files.  Each shipped scenario is simulated at its
own seed and at ``--seed 11`` and ``--seed 12``, and the recording is
identified against the matching shipped plan with ``--emit-psd``,
``--emit-cyclic`` and ``--emit-envelope``; ``nfspem`` then runs over the
written ``psd.csv``.  One line per written file:
``<scenario>@<seed> <file> <sha256>``.
"""

from __future__ import annotations

import contextlib
import hashlib
import sys
import tempfile
from importlib import resources
from pathlib import Path

from hypersense import cli

CASES = (("ism_burst_scenario.json", "ism24_plan.json"),
         ("pcs_multicarrier_scenario.json", "pcs1900_plan.json"))
SEEDS = (None, 11, 12)  # None: the scenario's own seed
FILES = ("rec.cf32", "rec.cf32.json", "rec.cf32.truth.json", "report.json",
         "psd.csv", "cyclic.csv", "envelope.csv", "nfspem.json")


def run_case(scenario: Path, plan: Path, seed: int | None, work: Path) -> None:
    seed_args = [] if seed is None else ["--seed", str(seed)]
    rec = work / "rec.cf32"
    steps = (
        [*seed_args, "simulate", str(scenario), "-o", str(rec)],
        ["identify", str(rec), "--plan", str(plan), "-o", str(work / "report.json"),
         "--emit-psd", str(work / "psd.csv"), "--emit-cyclic", str(work / "cyclic.csv"),
         "--emit-envelope", str(work / "envelope.csv")],
        ["nfspem", str(work / "psd.csv"), "-o", str(work / "nfspem.json")],
    )
    for argv in steps:
        with contextlib.redirect_stdout(sys.stderr):  # keep stdout to the digests
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"hypersense {' '.join(argv)} exited {code}")


def main() -> None:
    data = resources.files("hypersense.data")
    for scenario, plan in CASES:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                work = Path(tmp)
                run_case(Path(str(data / scenario)), Path(str(data / plan)), seed, work)
                case = f"{scenario.split('_')[0]}@{'shipped' if seed is None else seed}"
                for name in FILES:
                    digest = hashlib.sha256((work / name).read_bytes()).hexdigest()
                    print(f"{case} {name} {digest}")


if __name__ == "__main__":
    main()
