#!/usr/bin/env python3
"""Burst-record count of the shipped ISM scenario's FSK channel, seed by seed.

    PYTHONPATH=src python3 tools/burst_quality.py [--seeds 147] [-o counts.json]

Uses only the public API of whichever ``hypersense`` is importable, so the
same script measures any two source trees on the same seeds.

The shipped ISM scenario (FSK header bursts beside DSSS and OFDM) is
composed at seeds 0..N-1 and at three seeds on which the burst detector
once put its threshold inside the noise, and identified with the shipped
ISM plan.  The count is the number of burst records of the component that
contains the FSK channel's centre frequency; a seed is fragmented when
that count differs from the scenario's burst count.  The JSON summary goes
to stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from importlib import resources
from pathlib import Path

from hypersense import classify, pipeline, wavegen

EXTRA_SEEDS = (1376850787, 1973731049, 2136180637)


def fsk_burst_count(spec: wavegen.ScenarioSpec, plan: classify.ChannelPlan, centre: float) -> int | None:
    """Burst records of the component holding ``centre``; None if no component does."""
    rec, _ = wavegen.compose_scenario(spec)
    report = pipeline.run_identification(rec, pipeline.PipelineConfig(), plan)
    for r in report.results:
        c = r.component
        if c.center - c.width / 2 <= centre <= c.center + c.width / 2:
            return len(r.bursts)
    return None


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=147, help="seeds 0..N-1, plus three fixed seeds")
    ap.add_argument("-o", "--out", default=None, help="also write the summary here")
    args = ap.parse_args()

    data = resources.files("hypersense.data")
    base = wavegen.load_scenario(str(data / "ism_burst_scenario.json"))
    plan = classify.load_plan(str(data / "ism24_plan.json"))
    fsk = next(c for c in base.channels if c.kind == "fsk_header_burst")
    centre = base.center_freq_hz + fsk.center_freq_hz
    truth = len(fsk.bursts)

    counts = {seed: fsk_burst_count(dataclasses.replace(base, seed=seed), plan, centre)
              for seed in (*range(args.seeds), *EXTRA_SEEDS)}
    fragmented = {str(s): n for s, n in counts.items() if n != truth}
    summary = {"truth": truth, "seeds": len(counts), "fragmented": len(fragmented),
               "fragmented_seeds": fragmented, "counts": {str(s): n for s, n in counts.items()}}
    text = json.dumps(summary, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
