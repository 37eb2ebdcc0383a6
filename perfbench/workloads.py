"""The benchmark's workloads: the inputs of each pass, its CLI calls, its checks.

A pass is what one timed interval covers: ``hypersense identify`` over the
pass's recordings, or one ``hypersense evaluate``.  Every pass gets inputs
that no earlier pass has seen (its own render seeds, or its own evaluation
seed), all derived from the run's ``--seed``, so a cache keyed on the input
cannot show up as a gain and every run does the same amount of work.

The program is driven only through ``hypersense.cli.main`` in-process
(``python -m hypersense.cli`` does nothing, and the package need not be
installed), with ``src`` on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import traceback
from dataclasses import dataclass
from pathlib import Path

from hypersense import classify, cli

import checks

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "hypersense" / "data"


def pass_seed(seed: int, pass_index: int, item: int = 0) -> int:
    """Seed of one input of one pass; a pure function of the run seed."""
    digest = hashlib.sha256(f"{seed}:{pass_index}:{item}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def _call(argv: list[str]) -> int:
    """Exit code of ``hypersense <argv>``, run in-process.

    The CLI reports each written file on stdout, which is kept for the
    benchmark's result line.  An exception that escapes ``main`` is exit
    code 1, as it is for the console script.
    """
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except Exception:
        traceback.print_exc()
        return 1


def _usable(path: Path) -> bool:
    return path.is_file() and path.stat().st_size > 0


# what a malformed output raises inside a check
MALFORMED = (ValueError, KeyError, TypeError, IndexError, AttributeError)


@dataclass
class Op:
    """One CLI call of a pass: ``items`` operations, all failed or none."""

    items: int
    failed: bool
    problems: list[str]


# -- identify workloads -----------------------------------------------------------


@dataclass
class Recording:
    stem: str
    scenario: str  # file names, in DATA or, if owned, in the work directory
    plan: str
    labels: list[str | None]  # expected label per scenario channel, None: no label check
    owned: bool = False  # the benchmark writes the scenario and plan itself
    check_bursts: bool = True

    def path(self, name: str, work: Path) -> Path:
        return (work if self.owned else DATA) / name


def dense_scenario() -> dict:
    """About twenty narrowband occupants across a 10 MHz capture.

    Sixteen rectangular-pulse QPSK channels and four always-on flat noise
    blocks, 500 kHz apart.  The symbol rates are low against the spacing,
    so a neighbour's sinc sidelobes stay below the noise inside each
    channel's passband.  Each QPSK channel bursts at both ends of the
    capture and twice in between, at staggered times.  The end bursts keep
    the channel filter's edge transient above the noise: where it falls
    below the noise it sets the bottom of the envelope's level grid, and
    the burst threshold can land inside the noise (see CHANGES.md).
    """
    rates = (40e3, 50e3, 60e3)
    channels = []
    for k in range(20):
        fc = -4.75e6 + 500e3 * k
        if k % 5 == 2:
            channels.append(
                {"kind": "rect_noise", "center_freq_hz": fc, "snr_db": 18.0,
                 "bandwidth_hz": 350e3}
            )
            continue
        middle = 0.0256 + 0.0004 * k
        channels.append(
            {"kind": "psk_burst", "center_freq_hz": fc, "snr_db": 18.0,
             "symbol_rate_hz": rates[k % 3],
             "bursts": [[0.0, 0.010], [round(middle, 6), 0.010],
                        [round(middle + 0.024, 6), 0.010], [0.090, 0.010]]}
        )
    return {
        "sample_rate_hz": 10e6,
        "duration_s": 0.1,
        "noise_power_dbw": 0.0,
        "seed": 0,
        "center_freq_hz": 915e6,
        "channels": channels,
    }


def dense_plan() -> dict:
    """Burst-header candidates without cyclic features: the cyclic scan never runs."""
    return {
        "name": "dense narrowband bursts",
        "entries": [
            {
                "name": "ISM-915",
                "band_hz": [910e6, 920e6],
                "candidates": [
                    {"label": "psk-burst", "expected_bw_hz": [40e3, 200e3],
                     "burst_header": {"period_hz": 50e3}, "dimension": "time"}
                ],
            }
        ],
    }


class IdentifyWorkload:
    """Each pass runs ``hypersense identify`` once per recording."""

    def __init__(self, recordings: list[Recording], max_passes: int):
        self.recordings = recordings
        self.max_passes = max_passes

    def setup(self, work: Path) -> None:
        """Write the benchmark-owned inputs and load every plan."""
        for rec in self.recordings:
            if rec.owned:
                rec.path(rec.scenario, work).write_text(json.dumps(dense_scenario(), indent=1))
                rec.path(rec.plan, work).write_text(json.dumps(dense_plan(), indent=1))
            classify.load_plan(rec.path(rec.plan, work))

    def render(self, work: Path, seed: int, i: int) -> None:
        for j, rec in enumerate(self.recordings):
            out = work / f"{rec.stem}-{i}.cf32"
            argv = ["--seed", str(pass_seed(seed, i, j)), "simulate",
                    str(rec.path(rec.scenario, work)), "-o", str(out)]
            if _call(argv) != 0:
                raise RuntimeError(f"simulate failed: {argv}")

    def run_pass(self, work: Path, seed: int, i: int) -> list[tuple[int, Path]]:
        done = []
        for rec in self.recordings:
            report = work / f"{rec.stem}-{i}.report.json"
            argv = ["identify", str(work / f"{rec.stem}-{i}.cf32"),
                    "--plan", str(rec.path(rec.plan, work)), "-o", str(report)]
            done.append((_call(argv), report))
        return done

    def check_pass(self, work: Path, i: int, done: list[tuple[int, Path]]) -> list[Op]:
        ops = []
        for rec, (code, report) in zip(self.recordings, done):
            if code != 0 or not _usable(report):
                ops.append(Op(1, True, [f"{report.name}: exit {code} or no report"]))
                continue
            truth = work / f"{rec.stem}-{i}.cf32.truth.json"
            try:
                problems = checks.check_identify(
                    json.loads(report.read_text()),
                    json.loads(rec.path(rec.scenario, work).read_text()),
                    json.loads(truth.read_text()),
                    json.loads(rec.path(rec.plan, work).read_text()),
                    rec.labels,
                    check_bursts=rec.check_bursts,
                )
            except MALFORMED as e:
                problems = [f"malformed report: {e!r}"]
            ops.append(Op(1, False, [f"{report.name}: {p}" for p in problems]))
        return ops

    @staticmethod
    def reports(done: list[tuple[int, Path]]) -> list[dict]:
        out = []
        for _, path in done:
            try:
                out.append(json.loads(path.read_text()))
            except (OSError, ValueError):
                continue  # counted as a failed or malformed operation
        return out


# -- evaluate workload ------------------------------------------------------------


class EvaluateWorkload:
    """Each pass runs one serial ``hypersense evaluate`` over a grid subset."""

    def __init__(self, snr_list, occ_list, trials: int, max_passes: int):
        self.snr_list = list(snr_list)
        self.occ_list = list(occ_list)
        self.trials = trials
        self.max_passes = max_passes

    def setup(self, work: Path) -> None:
        pass

    def render(self, work: Path, seed: int, i: int) -> None:
        pass

    def run_pass(self, work: Path, seed: int, i: int) -> list[tuple[int, Path]]:
        out = work / f"grid-{i}.csv"
        argv = ["--seed", str(pass_seed(seed, i)), "evaluate",
                "--snr-list=" + ",".join(f"{s:g}" for s in self.snr_list),
                "--occ-list=" + ",".join(f"{o:g}" for o in self.occ_list),
                "--trials", str(self.trials), "-o", str(out)]
        return [(_call(argv), out)]

    def check_pass(self, work: Path, i: int, done: list[tuple[int, Path]]) -> list[Op]:
        items = self.trials * len(self.snr_list) * len(self.occ_list)
        (code, out), = done
        if code != 0 or not _usable(out):
            return [Op(items, True, [f"{out.name}: exit {code} or no CSV"])]
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        try:
            problems = checks.check_grid(rows, self.snr_list, self.occ_list, self.trials)
        except MALFORMED as e:
            problems = [f"malformed CSV: {e!r}"]
        return [Op(items, False, [f"{out.name}: {p}" for p in problems])]

    @staticmethod
    def reports(done) -> list[dict]:
        return []


WORKLOADS = {
    # the shipped scenarios: the cyclic scan does about 90% of the work
    "identify_shipped": IdentifyWorkload(
        [
            # the FSK burst records are not checked: on some seeds the
            # envelope threshold lands in the noise and the records
            # fragment (see the FOUND line in CHANGES.md)
            Recording("ism", "ism_burst_scenario.json", "ism24_plan.json",
                      ["fh-burst-1msym", "dsss-1p2288", "ofdm-narrow"],
                      check_bursts=False),
            Recording("pcs", "pcs_multicarrier_scenario.json", "pcs1900_plan.json",
                      ["cdma2000-like"]),
        ],
        max_passes=60,
    ),
    # channelization and burst detection; the cyclic scan never runs
    "identify_dense": IdentifyWorkload(
        [Recording("dense", "dense_scenario.json", "dense_plan.json",
                   [None] * len(dense_scenario()["channels"]), owned=True)],
        max_passes=30,
    ),
    # Monte-Carlo users: scenario synthesis, Welch and the floor detector only
    "evaluate_grid": EvaluateWorkload(
        snr_list=(-4, 2, 8, 14, 20), occ_list=(0.0, 0.25, 0.60, 0.90), trials=30,
        max_passes=400,
    ),
}
