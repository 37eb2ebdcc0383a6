"""Acceptance suite: the toolkit's exit criteria, one line printed per check.

Each test computes its result, prints `ACCEPTANCE <id> PASS|FAIL (...)`
before asserting, and enforces the stated runtime budget.
"""

import json
import time

import numpy as np
import pytest

from hypersense import classify, cli, evaluation, pipeline, sensing
from hypersense import noisefloor as nf
from hypersense import wavegen as wg
from hypersense.iqio import IqRecording


def record(ident: str, ok: bool, elapsed: float, budget: float, detail: str) -> bool:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"\nACCEPTANCE {ident} {status} ({elapsed:.1f}s / budget {budget:.0f}s): {detail}")
    return ok and elapsed < budget


def test_acceptance_1_cusum_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(0xACCE1)
    checked = 0
    ok = True
    while checked < 1000:
        n = int(rng.integers(2, 65))
        y = rng.uniform(-60.0, 20.0, size=n)
        k = float(rng.uniform(0.2, 1.0))
        try:
            hist = nf.segment_levels(y, k)
        except Exception:
            continue
        if hist.level_count > 8:
            continue
        checked += 1
        ok &= int(hist.counts.sum()) == n
        est = nf.cusum_change_point(hist)
        ok &= abs(est.cusum[-1]) < 1e-9
        # brute force: explicit prefix sums, linear argmax scan
        mean = n / hist.level_count
        s, best_i, best_s = 0.0, 0, -np.inf
        for i in range(hist.level_count - 1):
            s += hist.counts[i] - mean
            if s > best_s:
                best_s, best_i = s, i + 1
        ok &= est.change_level == best_i
        if not ok:
            break
    elapsed = time.time() - t0
    assert record("1", ok, elapsed, 10.0,
                  f"change point equals brute-force prefix-sum oracle on {checked} sequences")


def test_acceptance_2_affine_invariance():
    t0 = time.time()
    rng = np.random.default_rng(0xACCE2)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(16, 257))
        y = rng.normal(0.0, rng.uniform(0.5, 6.0), size=n)
        a = float(rng.uniform(0.1, 10.0))
        b = float(rng.uniform(-50.0, 50.0))
        try:
            est1, _ = nf.detect(y, (0.0, 1.0))
            est2, _ = nf.detect(a * y + b, (0.0, 1.0))
        except Exception:
            ok = False
            break
        if not np.array_equal(y > est1.threshold_db, a * y + b > est2.threshold_db):
            ok = False
            break
    elapsed = time.time() - t0
    assert record("2", ok, elapsed, 10.0,
                  "noise/signal labels invariant under 1000 random affine maps")


SNR_LIST = list(range(-4, 22, 2))
OCC_LIST = [0.25, 0.60, 0.75, 0.90]
TRIALS = 300


@pytest.fixture(scope="module")
def table2_grid():
    t0 = time.time()
    cells = evaluation.confidence_grid(
        SNR_LIST, OCC_LIST, trials=TRIALS, resamples=1000, seed=0xE7A1
    )
    zero = evaluation.confidence_grid(
        SNR_LIST, [0.0], trials=TRIALS, resamples=1000, seed=0xE7A2
    )
    return cells, zero, time.time() - t0


def _mean(cells, snr, occ):
    for c in cells:
        if c.snr_db == snr and c.occupancy_fraction == occ:
            return c.confidence_mean
    raise KeyError((snr, occ))


def test_acceptance_3a_snr_monotonicity(table2_grid):
    cells, _, elapsed = table2_grid
    worst = 1.0
    for occ in OCC_LIST:
        for s1 in SNR_LIST:
            for s2 in SNR_LIST:
                if s2 >= s1 + 4:
                    worst = min(worst, _mean(cells, s2, occ) - (_mean(cells, s1, occ) - 0.03))
    ok = worst >= 0.0
    assert record("3a", ok, elapsed, 600.0,
                  f"noise-tolerant SNR monotonicity, worst margin {worst:+.4f}")


def test_acceptance_3b_saturation(table2_grid):
    cells, _, elapsed = table2_grid
    vals = [_mean(cells, s, o) for s in SNR_LIST if s >= 10 for o in OCC_LIST]
    ok = min(vals) >= 0.92
    assert record("3b", ok, elapsed, 600.0,
                  f"all cells at SNR >= 10 dB have mean >= 0.92 (min {min(vals):.4f})")


def test_acceptance_3c_zero_occupancy_band(table2_grid):
    _, zero, elapsed = table2_grid
    grand = float(np.mean([c.confidence_mean for c in zero]))
    ok = 0.40 <= grand <= 0.65
    assert record("3c", ok, elapsed, 600.0,
                  f"0%-occupancy grand mean {grand:.4f} in [0.40, 0.65]")


def test_acceptance_3d_low_snr_occupancy_ordering(table2_grid):
    cells, _, elapsed = table2_grid
    low, high = _mean(cells, -4, 0.25), _mean(cells, -4, 0.90)
    ok = low > high
    assert record("3d", ok, elapsed, 600.0,
                  f"at SNR -4: 25% occupancy mean {low:.4f} > 90% mean {high:.4f}")


def _load_shipped(name):
    from importlib import resources

    return str(resources.files("hypersense.data") / name)


def _fsk_result(report, center_abs):
    for r in report.results:
        if abs(r.component.center - center_abs) < 0.4e6 and r.component.width > 0.5e6:
            return r
    return None


def _cyclic_peaks(result):
    peaks = []
    for ev in result.verdict.evidence:
        if ev.method == sensing.METHOD_CYCLO:
            peaks.extend(ev.peaks)
    return peaks


def test_acceptance_4_filtering_effect():
    t0 = time.time()
    scn = wg.load_scenario(_load_shipped("ism_burst_scenario.json"))
    rec, _ = wg.compose_scenario(scn)
    plan = classify.load_plan(_load_shipped("ism24_plan.json"))
    fsk_abs = 2.44e9 - 2.0e6
    step = 10e3

    with_ch = pipeline.run_identification(rec, pipeline.PipelineConfig(), plan)
    r_on = _fsk_result(with_ch, fsk_abs)
    # a guard of fft_size or more passes the whole band: no filtering
    without_ch = pipeline.run_identification(
        rec, pipeline.PipelineConfig(guard_factor=1024.0), plan
    )
    r_off = _fsk_result(without_ch, fsk_abs)

    # unfiltered composite: no detection peak (6 dB over its local floor)
    # within two grid steps of the 1 MHz header line
    near_raw = [
        p for p in _cyclic_peaks(r_off) if abs(p.peak_position - 1e6) <= 2 * step
    ]
    # filtered: the strongest detected line sits at 1 MHz +- one step
    peaks_on = _cyclic_peaks(r_on)
    dominant = max(peaks_on, key=lambda p: p.peak_value_db).peak_position if peaks_on else 0.0

    ok = (
        r_on is not None
        and r_on.verdict.verdict == classify.VERDICT_IDENTIFIED
        and any(m.kind == "cyclic" and abs(m.expected - 1e6) < 1.0
                for m in r_on.verdict.matched_features)
        and r_off is not None
        and r_off.verdict.verdict != classify.VERDICT_IDENTIFIED
        and not near_raw
        and abs(dominant - 1e6) <= step
    )
    elapsed = time.time() - t0
    assert record("4", ok, elapsed, 60.0,
                  f"verdicts on/off channelization: {r_on.verdict.verdict}/{r_off.verdict.verdict}; "
                  f"unfiltered peaks near 1 MHz: {len(near_raw)}; "
                  f"filtered dominant line at {dominant/1e6:.2f} MHz")


def test_acceptance_5_three_carrier_identification():
    t0 = time.time()
    scn = wg.load_scenario(_load_shipped("pcs_multicarrier_scenario.json"))
    rec, _ = wg.compose_scenario(scn)
    plan = classify.load_plan(_load_shipped("pcs1900_plan.json"))
    report = pipeline.run_identification(rec, pipeline.PipelineConfig(), plan)
    main = max(report.results, key=lambda r: r.component.width)
    v = main.verdict
    chip = [m for m in v.matched_features if m.kind == "cyclic"] if v else []
    ok = (
        v is not None
        and v.verdict == classify.VERDICT_IDENTIFIED
        and bool(chip)
        and abs(chip[0].measured - 1.2288e6) <= 10e3
        and v.extras.get("carrier_count") == 3
    )
    elapsed = time.time() - t0
    assert record("5", ok, elapsed, 60.0,
                  f"verdict {v.verdict if v else None}, chip rate "
                  f"{chip[0].measured/1e6 if chip else float('nan'):.4f} MHz, "
                  f"carrier count {v.extras.get('carrier_count') if v else None}")


def test_acceptance_6_cp_identification():
    t0 = time.time()
    fs = 1e6
    hits = 0
    for seed in range(100):
        chan = wg.ChannelSpec(kind="ofdm", center_freq_hz=0.0, snr_db=0.0,
                              useful_length=64, cp_length=16)
        spec = wg.ScenarioSpec(fs, 80 * 1000 / fs, 0.0, [chan], seed=seed)
        rec, _ = wg.compose_scenario(spec)
        ev = sensing.cp_autocorr_detect(rec, (1, 256), pipeline.PipelineConfig().peak_k)
        if (
            ev.detected
            and ev.extras.get("useful_length") == 64
            and ev.extras.get("cp_length") == 16
        ):
            hits += 1
    ok = hits >= 90
    elapsed = time.time() - t0
    assert record("6", ok, elapsed, 120.0,
                  f"(useful, cp) = (64, 16) recovered exactly in {hits}/100 trials at SNR 0 dB")


def test_acceptance_7_energy_detector_calibration():
    t0 = time.time()
    m, trials, pfa = 1000, 10**4, 0.05
    rng = np.random.default_rng(0xACCE7)
    threshold = sensing.energy_detect(
        IqRecording(np.ones(m, dtype=complex), 1e6), 1.0, pfa
    ).threshold
    false_alarms = 0
    chunk = 500
    for _ in range(trials // chunk):
        block = (rng.standard_normal((chunk, m)) + 1j * rng.standard_normal((chunk, m))) / np.sqrt(2)
        stats = np.sum(np.abs(block) ** 2, axis=1)
        false_alarms += int(np.sum(stats > threshold))
    rate = false_alarms / trials
    ok = abs(rate - pfa) <= 0.01
    elapsed = time.time() - t0
    assert record("7", ok, elapsed, 30.0,
                  f"empirical Pfa {rate:.4f} within +-0.01 of requested {pfa}")


def test_acceptance_8_burst_detection():
    t0 = time.time()
    fs = 2e6
    smooth = 128
    cfg = pipeline.PipelineConfig(envelope_smooth_len=smooth)
    dt = 1.0 / fs
    good = 0
    for seed in range(100):
        chan = wg.ChannelSpec(kind="psk_burst", center_freq_hz=0.0, snr_db=10.0,
                              symbol_rate_hz=0.5e6,
                              bursts=[(0.002, 0.002), (0.008, 0.002), (0.014, 0.002)])
        spec = wg.ScenarioSpec(fs, 0.02, 0.0, [chan], seed=1000 + seed)
        rec, truth = wg.compose_scenario(spec)
        records, _ = pipeline.detect_bursts(rec, cfg)
        if len(records) != 3:
            continue
        match = all(
            abs(r.start_s - s * dt) <= smooth * dt
            and abs(r.duration_s - l * dt) <= 2 * smooth * dt
            for r, (s, l) in zip(records, truth.burst_intervals[0])
        )
        good += bool(match)
    ok = good == 100
    elapsed = time.time() - t0
    assert record("8", ok, elapsed, 60.0,
                  f"3 bursts recovered within tolerance in {good}/100 seeded runs")


def test_acceptance_9_identify_determinism(tmp_path):
    t0 = time.time()
    scenario = {
        "sample_rate_hz": 2e6, "duration_s": 0.02, "noise_power_dbw": 0.0,
        "seed": 99, "center_freq_hz": 2.44e9,
        "channels": [{"kind": "rect_noise", "center_freq_hz": 0.3e6,
                      "snr_db": 12.0, "bandwidth_hz": 0.4e6}],
    }
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps(scenario))
    iq = tmp_path / "rec.cf32"
    assert cli.main(["simulate", str(scn), "-o", str(iq)]) == 0
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli.main(["identify", str(iq), "-o", str(r1)]) == 0
    assert cli.main(["identify", str(iq), "-o", str(r2)]) == 0
    ok = r1.read_bytes() == r2.read_bytes()
    elapsed = time.time() - t0
    assert record("9", ok, elapsed, 60.0, "identify twice produced byte-identical reports")
