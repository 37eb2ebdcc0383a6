"""Correctness checks on the outputs of a benchmark pass.

Each check returns a list of problems, empty when the output is right.
Identify reports are checked against ground truth computed apart from the
pipeline: the scenario spec and the truth file ``simulate`` writes next to
the recording.  Evaluation grids are checked against properties the
method must have (acceptance criterion 3 of the test suite).
"""

from __future__ import annotations

from hypersense import wavegen

# acceptance criterion 3: saturation floor, and the slack of the SNR
# monotonicity between SNRs at least MONOTONE_GAP_DB apart
SATURATION_SNR_DB = 10.0
SATURATION_MIN = 0.92
MONOTONE_GAP_DB = 4.0
MONOTONE_SLACK = 0.03


def _candidate(plan: dict, label: str) -> dict | None:
    for entry in plan.get("entries", []):
        for cand in entry.get("candidates", []):
            if cand.get("label") == label:
                return cand
    return None


def _cyclic_targets(cand: dict) -> list[tuple[float, float]]:
    """(frequency, tolerance) of every cyclic line the plan candidate names."""
    feats = [(f["freq_hz"], f["tolerance_hz"]) for f in cand.get("cyclic_features_hz", [])]
    spacing = cand.get("carrier_spacing_hz", 0.0)
    if spacing > 0.0:
        tol = max((t for _, t in feats), default=0.0) or 0.01 * spacing
        feats += [(j * spacing, tol) for j in range(1, cand.get("max_carriers", 1))]
    return feats


def _burst_problems(comp: dict, intervals: list, fs: float, config: dict) -> list[str]:
    """Burst records against the truth schedule, edge by edge.

    The envelope is a moving average of ``envelope_smooth_len`` samples of
    the channelized signal, whose rate the channelizer keeps at no less than
    2.5 times the passband (component width times at least the guard
    factor); one window at that lowest rate bounds how far an edge may move.
    """
    bursts = comp.get("bursts", [])
    if len(bursts) != len(intervals):
        return [f"{len(bursts)} burst records for {len(intervals)} bursts"]
    width = comp["component"]["width_hz"]
    window = config["envelope_smooth_len"] / (2.5 * width * config["guard_factor"])
    problems = []
    for rec, (start, length) in zip(sorted(bursts, key=lambda b: b["start_s"]), intervals):
        t0, t1 = start / fs, (start + length) / fs
        if abs(rec["start_s"] - t0) > window or abs(rec["start_s"] + rec["duration_s"] - t1) > window:
            problems.append(
                f"burst [{rec['start_s']:.6f}, +{rec['duration_s']:.6f}] s against "
                f"[{t0:.6f}, +{t1 - t0:.6f}] s, window {window:.6f} s"
            )
    return problems


def check_identify(
    report: dict,
    scenario: dict,
    truth: dict,
    plan: dict,
    labels: list[str | None],
    check_bursts: bool = True,
) -> list[str]:
    """Check an identify report against the scenario and its truth file.

    ``labels`` gives the expected label per scenario channel; None skips the
    verdict, feature and CP checks for that channel.  ``check_bursts``
    compares the burst records of every channel on a burst schedule.
    """
    spec = wavegen.scenario_from_dict(scenario)
    fs = spec.sample_rate_hz
    comps = report.get("components", [])
    problems = []
    if len(labels) != len(spec.channels):
        return [f"{len(labels)} expected labels for {len(spec.channels)} channels"]
    for ci, (chan, label) in enumerate(zip(spec.channels, labels)):
        lo, hi = wavegen.nominal_band(chan, fs)
        where = f"channel {ci} ({chan.kind} at {chan.center_freq_hz:g} Hz)"
        inside = [
            c for c in comps
            if lo <= c["component"]["center_hz"] - spec.center_freq_hz <= hi
        ]
        if not inside:
            problems.append(f"{where}: no component centred in its band")
            continue
        # a strong channel's spectral sidelobes or skirt can clear the floor
        # as narrow components of their own; the channel is the widest one
        comp = max(inside, key=lambda c: c["component"]["width_hz"])
        if comp.get("error") is not None:
            problems.append(f"{where}: error {comp['error']}")
            continue
        if check_bursts and chan.bursts:
            problems += [
                f"{where}: {p}"
                for p in _burst_problems(comp, truth["burst_intervals"][ci], fs, report["config"])
            ]
        if label is None:
            continue
        if comp.get("verdict") != "identified" or comp.get("label") != label:
            problems.append(
                f"{where}: {comp.get('verdict')} as {comp.get('label')!r}, expected {label!r}"
            )
            continue
        cand = _candidate(plan, label)
        if cand is None:
            problems.append(f"{where}: label {label!r} is not in the plan")
            continue
        measured = [m["measured"] for m in comp.get("matched_features", [])
                    if m["kind"] in ("cyclic", "carrier_spacing")]
        for target, tol in _cyclic_targets(cand):
            for feat in truth["feature_table"][ci]:
                if abs(feat - target) > tol:
                    continue
                if not any(abs(m - feat) <= tol for m in measured):
                    problems.append(f"{where}: no cyclic line within {tol:g} Hz of {feat:g} Hz")
        if cand.get("carrier_spacing_hz", 0.0) > 0.0:
            count = comp.get("extras", {}).get("carrier_count")
            if count != chan.carrier_count:
                problems.append(f"{where}: carrier count {count}, expected {chan.carrier_count}")
        if chan.kind == "ofdm" and cand.get("cp_feature"):
            tol = cand["cp_feature"]["tolerance_s"]
            extras = next(
                (e["extras"] for e in comp.get("evidence", []) if "useful_s" in e["extras"]), {}
            )
            for key, samples in (("useful_s", chan.useful_length), ("cp_s", chan.cp_length)):
                value = extras.get(key)
                if value is None or abs(value - samples / fs) > tol:
                    problems.append(f"{where}: {key} {value}, expected {samples / fs:g}")
    return problems


def check_grid(rows: list[dict], snr_list, occ_list, trials: int) -> list[str]:
    """Check ``hypersense evaluate`` CSV rows against criterion-3 properties."""
    cells = [(float(s), float(o)) for s in snr_list for o in occ_list]
    got = [(float(r["snr_db"]), float(r["occupancy"])) for r in rows]
    if got != cells:
        return [f"cells {got}, expected {cells}"]
    problems = []
    mean = {}
    for (snr, occ), row in zip(cells, rows):
        where = f"cell ({snr:g} dB, {occ:g})"
        m, lo, hi = (float(row[k]) for k in ("confidence_mean", "ci_low", "ci_high"))
        mean[snr, occ] = m
        if int(row["trials"]) != trials:
            problems.append(f"{where}: {row['trials']} trials, expected {trials}")
        if not lo <= m <= hi:
            problems.append(f"{where}: mean {m} outside its interval [{lo}, {hi}]")
        if occ == 0.0 and not 0.5 <= m <= 1.0:
            problems.append(f"{where}: vacant-band mean {m} outside [0.5, 1.0]")
        if occ > 0.0 and snr >= SATURATION_SNR_DB and m < SATURATION_MIN:
            problems.append(f"{where}: mean {m} below {SATURATION_MIN}")
    for occ in occ_list:
        if occ == 0.0:
            continue
        for s1 in snr_list:
            for s2 in snr_list:
                if s2 >= s1 + MONOTONE_GAP_DB and mean[s2, occ] < mean[s1, occ] - MONOTONE_SLACK:
                    problems.append(
                        f"occupancy {occ:g}: mean {mean[s2, occ]} at {s2:g} dB falls more than "
                        f"{MONOTONE_SLACK} below {mean[s1, occ]} at {s1:g} dB"
                    )
    return problems
