#!/usr/bin/env python3
"""Pd/Pfa table of the cyclic identification path, with 95% Wilson intervals.

    PYTHONPATH=src python3 tools/cyclic_quality.py [--seeds 100] [-o table.json]

Uses only the public API of whichever ``hypersense`` is importable, so the
same script measures any two source trees on the same seeds.

* Pd: the shipped ISM scenario's DSSS and FSK-burst channels, each alone in
  the scenario, at -10/-5/0/5/10 dB.  A hit is a component that contains
  the channel's centre frequency and is identified with the channel's label.
* Pfa: a ``rect_noise`` channel at 10 dB at the DSSS centre with the DSSS
  bandwidth (2 MHz), and at the FSK centre with the FSK bandwidth (1.1 MHz).
  A false alarm is any component identified with a label that has cyclic
  features.

Scenario seeds are 0..N-1 at every point.  The JSON table goes to stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
from importlib import resources
from pathlib import Path

from hypersense import classify, pipeline, wavegen

SNRS_DB = (-10.0, -5.0, 0.0, 5.0, 10.0)
LABELS = {"dsss": "dsss-1p2288", "fsk_header_burst": "fh-burst-1msym"}
NOISE_BW_HZ = {"dsss": 2.0e6, "fsk_header_burst": 1.1e6}


def wilson(hits: int, n: int, z: float = 1.959964) -> list[float]:
    if n == 0:
        return [0.0, 1.0]
    p = hits / n
    centre = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z / (1 + z * z / n) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return [max(0.0, centre - half), min(1.0, centre + half)]


def identified(spec: wavegen.ScenarioSpec, plan: classify.ChannelPlan) -> list[tuple]:
    """(label, component low Hz, component high Hz) of every identified component."""
    rec, _ = wavegen.compose_scenario(spec)
    report = pipeline.run_identification(rec, pipeline.PipelineConfig(), plan)
    return [
        (r.verdict.label, r.component.center - r.component.width / 2,
         r.component.center + r.component.width / 2)
        for r in report.results
        if r.verdict is not None and r.verdict.verdict == classify.VERDICT_IDENTIFIED
    ]


def row(name: str, snr_db: float, hits: int, n: int) -> dict:
    return {"channel": name, "snr_db": snr_db, "hits": hits, "trials": n,
            "rate": hits / n, "ci95": wilson(hits, n)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=100, help="scenario seeds per point")
    ap.add_argument("-o", "--out", default=None, help="also write the table here")
    args = ap.parse_args()

    data = resources.files("hypersense.data")
    base = wavegen.load_scenario(str(data / "ism_burst_scenario.json"))
    plan = classify.load_plan(str(data / "ism24_plan.json"))
    cyclic_labels = {c.label for e in plan.entries for c in e.candidates if c.cyclic_features_hz}
    channels = {c.kind: c for c in base.channels if c.kind in LABELS}

    def trials(channel: wavegen.ChannelSpec, hit) -> int:
        count = 0
        for seed in range(args.seeds):
            spec = dataclasses.replace(base, channels=[channel], seed=seed)
            count += hit(identified(spec, plan))
        return count

    table = {"seeds": args.seeds, "pd": [], "pfa": []}
    for kind, channel in channels.items():
        centre = base.center_freq_hz + channel.center_freq_hz
        for snr in SNRS_DB:
            hits = trials(
                dataclasses.replace(channel, snr_db=snr),
                lambda found: any(label == LABELS[kind] and lo <= centre <= hi
                                  for label, lo, hi in found),
            )
            table["pd"].append(row(kind, snr, hits, args.seeds))
        noise = wavegen.ChannelSpec(kind="rect_noise", center_freq_hz=channel.center_freq_hz,
                                    snr_db=10.0, bandwidth_hz=NOISE_BW_HZ[kind])
        alarms = trials(noise, lambda found: any(label in cyclic_labels for label, _, _ in found))
        table["pfa"].append(row(f"rect_noise_{NOISE_BW_HZ[kind] / 1e6:g}MHz", 10.0,
                                alarms, args.seeds))

    text = json.dumps(table, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
