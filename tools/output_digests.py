#!/usr/bin/env python3
"""SHA-256 of every file ``simulate``, ``identify`` and ``nfspem`` write on the shipped inputs.

    PYTHONPATH=src python3 tools/output_digests.py [--one-core]

Drives ``hypersense.cli.main`` of whichever ``hypersense`` is importable, so
running it against two source trees and diffing the two outputs checks that
they write byte-identical files.  Each shipped scenario is simulated at its
own seed and at ``--seed 11`` and ``--seed 12``, and the recording is
identified against the matching shipped plan with ``--emit-psd``,
``--emit-cyclic`` and ``--emit-envelope``; ``nfspem`` then runs over the
written ``psd.csv``.  No shipped scenario has a ``psk_burst`` or
``rect_noise`` channel, so an inline scenario with both goes through the
same steps, against an inline plan whose one cyclic candidate none of its
components carries, and a small ``evaluate`` grid writes a CSV.  The
shipped ISM recording is identified once more with ``--config``
``{"guard_factor": 1024}``, a guard of at least ``fft_size`` that senses
every component on the whole band, and its analysis files are digested
again.  It is then identified against the shipped ISM plan with each
candidate's ``preferred_method`` set by key or by the paper's name, and
that report is digested.  One line per written file: ``<case> <file> <sha256>``.

``--one-core`` first pins this process to the first CPU of its affinity
mask, so the package sees one core and runs no work on its thread pool;
diffing its output against an unpinned run checks that the written files
do not depend on the core count.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
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

# bursts off and on 0 Hz, a continuous carrier, flat blocks across 0 Hz and at -fs/2
INLINE_SCENARIO = {
    "sample_rate_hz": 2e6, "duration_s": 0.02, "noise_power_dbw": -3.0, "seed": 29,
    "channels": [
        {"kind": "psk_burst", "center_freq_hz": 3.1e5, "snr_db": 9.0, "symbol_rate_hz": 1.25e5,
         "bursts": [[0.0011, 0.004], [0.009, 0.0071]]},
        {"kind": "psk_burst", "center_freq_hz": 0.0, "snr_db": 4.0, "symbol_rate_hz": 5e4,
         "bursts": [[0.0, 0.003]]},
        {"kind": "psk_burst", "center_freq_hz": 6.5e5, "snr_db": 6.0, "symbol_rate_hz": 2e5},
        {"kind": "rect_noise", "center_freq_hz": -2.0e4, "snr_db": 3.0, "bandwidth_hz": 1.5e5},
        {"kind": "rect_noise", "center_freq_hz": -9.0e5, "snr_db": 12.0, "bandwidth_hz": 2e5},
    ],
}
# every inline component fits this bandwidth and lacks the 0.5 MHz line: a
# cyclic verdict that is downgraded
INLINE_PLAN = {
    "name": "cyc", "entries": [{
        "name": "band", "band_hz": [-1e6, 1e6],
        "candidates": [{"label": "cyc", "expected_bw_hz": [1e5, 3e5],
                        "cyclic_features_hz": [{"freq_hz": 5e5, "tolerance_hz": 1e4}]}],
    }],
}
WHOLE_BAND = {"guard_factor": 1024}
# the shipped ISM plan's candidates, each with a method named as a plan may name it
NAMED_METHODS = {"fh-burst-1msym": "Cyclostationary Feature Detection",
                 "dsss-1p2288": "energy", "ofdm-narrow": "Autocorrelation"}
EVALUATE = ["--seed", "5", "evaluate", "--snr-list=-4,10", "--occ-list", "0,0.6",
            "--trials", "8", "--resamples", "200"]


def _main(argv: list[str]) -> None:
    with contextlib.redirect_stdout(sys.stderr):  # keep stdout to the digests
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"hypersense {' '.join(argv)} exited {code}")


def _digests(case: str, work: Path, names) -> None:
    for name in names:
        digest = hashlib.sha256((work / name).read_bytes()).hexdigest()
        print(f"{case} {name} {digest}")


def run_case(scenario: Path, plan: Path, seed: int | None, work: Path) -> None:
    seed_args = [] if seed is None else ["--seed", str(seed)]
    _main([*seed_args, "simulate", str(scenario), "-o", str(work / "rec.cf32")])
    analyse(plan, work)


def analyse(plan: Path, work: Path, config_args: tuple[str, ...] = ()) -> None:
    """Identify ``work/rec.cf32`` with every emit file, then run ``nfspem`` on its spectrum."""
    _main([*config_args, "identify", str(work / "rec.cf32"), "--plan", str(plan),
           "-o", str(work / "report.json"), "--emit-psd", str(work / "psd.csv"),
           "--emit-cyclic", str(work / "cyclic.csv"),
           "--emit-envelope", str(work / "envelope.csv")])
    _main(["nfspem", str(work / "psd.csv"), "-o", str(work / "nfspem.json")])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--one-core", action="store_true",
                        help="pin this process to the first CPU it may run on")
    if parser.parse_args().one_core:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    data = resources.files("hypersense.data")
    for scenario, plan in CASES:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                work = Path(tmp)
                run_case(Path(str(data / scenario)), Path(str(data / plan)), seed, work)
                case = f"{scenario.split('_')[0]}@{'shipped' if seed is None else seed}"
                _digests(case, work, FILES)
                if case == "ism@shipped":
                    (work / "config.json").write_text(json.dumps(WHOLE_BAND))
                    analyse(Path(str(data / plan)), work, ("--config", str(work / "config.json")))
                    _digests(f"{case}+whole_band", work, FILES[3:])
                    named = json.loads((data / plan).read_text())
                    for cand in named["entries"][0]["candidates"]:
                        cand["preferred_method"] = NAMED_METHODS[cand["label"]]
                    (work / "named.json").write_text(json.dumps(named))
                    analyse(work / "named.json", work)
                    _digests(f"{case}+named_methods", work, ["report.json"])
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "scenario.json").write_text(json.dumps(INLINE_SCENARIO))
        (work / "plan.json").write_text(json.dumps(INLINE_PLAN))
        run_case(work / "scenario.json", work / "plan.json", None, work)
        _digests(f"psk_rect@{INLINE_SCENARIO['seed']}", work, FILES)
        _main([*EVALUATE, "-o", str(work / "grid.csv")])
        _digests("evaluate@5", work, ["grid.csv"])


if __name__ == "__main__":
    main()
