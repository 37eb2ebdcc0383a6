"""Pipeline orchestration tests on small synthetic scenarios."""

import dataclasses
import json

import numpy as np
import pytest
import scipy.fft

from hypersense import classify, dsp, pipeline, sensing
from hypersense import wavegen as wg
from hypersense.iqio import IqRecording


def ism_plan():
    return classify.ChannelPlan(
        name="test-ism",
        entries=[
            classify.ChannelPlanEntry(
                name="ISM",
                band_hz=(2.4e9, 2.4835e9),
                candidates=[
                    classify.CandidateSignature(
                        label="fh-1msym",
                        expected_bw_hz=(0.8e6, 1.6e6),
                        cyclic_features_hz=[classify.CyclicFeature(1.0e6, 10e3)],
                        burst_header={"period_hz": 1e6},
                    ),
                    classify.CandidateSignature(
                        label="dsss-like",
                        expected_bw_hz=(1.6e6, 2.6e6),
                        cyclic_features_hz=[classify.CyclicFeature(1.2288e6, 12e3)],
                    ),
                ],
            )
        ],
    )


def awgn_recording(seed, n=60000, fs=2e6, fc=2.44e9):
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    return IqRecording(x, fs, fc)


class TestRunIdentification:
    def test_pure_awgn_never_identified(self):
        plan = ism_plan()
        cfg = pipeline.PipelineConfig()
        for seed in range(20):
            report = pipeline.run_identification(awgn_recording(seed), cfg, plan)
            for r in report.results:
                assert r.error is None
                assert r.verdict.verdict != classify.VERDICT_IDENTIFIED

    def test_every_component_gets_a_verdict(self):
        chan = wg.ChannelSpec(kind="rect_noise", center_freq_hz=0.3e6, snr_db=12.0,
                              bandwidth_hz=0.4e6)
        spec = wg.ScenarioSpec(2e6, 0.03, 0.0, [chan], seed=5, center_freq_hz=2.44e9)
        rec, _ = wg.compose_scenario(spec)
        report = pipeline.run_identification(rec, pipeline.PipelineConfig(), ism_plan())
        assert len(report.results) >= 1
        for r in report.results:
            assert (r.verdict is not None) or (r.error is not None)

    def test_determinism_and_roundtrip(self):
        rec = awgn_recording(3)
        cfg = pipeline.PipelineConfig()
        plan = ism_plan()
        r1 = pipeline.run_identification(rec, cfg, plan)
        r2 = pipeline.run_identification(rec, cfg, plan)
        s1 = pipeline.serialize_report(r1)
        s2 = pipeline.serialize_report(r2)
        assert s1 == s2
        # round-trip: parse -> dump is byte-identical
        assert json.dumps(json.loads(s1), indent=2) + "\n" == s1

    def test_bare_candidate_gets_one_energy_evidence(self):
        chan = wg.ChannelSpec(kind="rect_noise", center_freq_hz=0.3e6, snr_db=12.0,
                              bandwidth_hz=0.4e6)
        spec = wg.ScenarioSpec(2e6, 0.03, 0.0, [chan], seed=5, center_freq_hz=2.44e9)
        rec, _ = wg.compose_scenario(spec)
        plan = classify.ChannelPlan(name="bare", entries=[classify.ChannelPlanEntry(
            name="E", band_hz=(2.4e9, 2.4835e9),
            candidates=[classify.CandidateSignature(label="c", expected_bw_hz=(0.2e6, 0.6e6))])])
        report = pipeline.run_identification(rec, pipeline.PipelineConfig(), plan)
        r = max(report.results, key=lambda r: r.component.width)
        assert r.verdict.candidates_ranked == ["c"]
        assert [ev.method for ev in r.verdict.evidence] == [sensing.METHOD_ENERGY]

    def test_component_isolation_on_failing_method(self):
        # one band's candidate has its only cyclic feature above the channel
        # rate, so its scan has nothing to search; the other component's
        # verdict must be unaffected
        plan = classify.ChannelPlan(
            name="broken",
            entries=[
                classify.ChannelPlanEntry(
                    name="low", band_hz=(2.4e9, 2.4394e9),
                    candidates=[classify.CandidateSignature(
                        label="broken-feature", expected_bw_hz=(0.1e6, 0.6e6),
                        cyclic_features_hz=[classify.CyclicFeature(50e6, 1e3)])],
                ),
                classify.ChannelPlanEntry(
                    name="high", band_hz=(2.4394e9, 2.4835e9),
                    candidates=[classify.CandidateSignature(
                        label="plain", expected_bw_hz=(0.1e6, 0.6e6))],
                ),
            ],
        )
        channels = [
            wg.ChannelSpec(kind="rect_noise", center_freq_hz=-0.7e6, snr_db=15.0,
                           bandwidth_hz=0.3e6),
            wg.ChannelSpec(kind="rect_noise", center_freq_hz=0.6e6, snr_db=15.0,
                           bandwidth_hz=0.3e6),
        ]
        spec = wg.ScenarioSpec(2e6, 0.03, 0.0, channels, seed=9, center_freq_hz=2.44e9)
        rec, _ = wg.compose_scenario(spec)
        report = pipeline.run_identification(rec, pipeline.PipelineConfig(), plan)
        big = [r for r in report.results if r.component.width > 0.2e6]
        assert len(big) == 2
        low, high = big[0], big[1]
        assert low.error is not None and "no cyclic features to scan" in low.error
        assert high.error is None
        assert high.verdict.verdict == classify.VERDICT_DETECTED_UNIDENTIFIED

        # baseline: with a fixed plan both succeed, and the common verdict matches
        plan.entries[0].candidates[0].cyclic_features_hz = []
        baseline = pipeline.run_identification(rec, pipeline.PipelineConfig(), plan)
        base_high = [r for r in baseline.results if r.component.width > 0.2e6][1]
        assert base_high.verdict.verdict == high.verdict.verdict

    def test_timing_excluded_by_default(self):
        rec = awgn_recording(4)
        report = pipeline.run_identification(rec, pipeline.PipelineConfig(), ism_plan())
        d = pipeline.report_to_dict(report)
        assert "timing_s" not in d

    def test_one_recording_fft(self, monkeypatch):
        channels = [wg.ChannelSpec(kind="rect_noise", center_freq_hz=f, snr_db=15.0,
                                   bandwidth_hz=0.2e6) for f in (-0.6e6, 0.5e6)]
        spec = wg.ScenarioSpec(2e6, 0.03, 0.0, channels, seed=9, center_freq_hz=2.44e9)
        rec, _ = wg.compose_scenario(spec)
        whole = []  # transforms of the whole recording; Welch's segment blocks are not
        fft = scipy.fft.fft

        def counting_fft(a, *args, **kwargs):
            if np.ndim(a) == 1 and np.size(a) >= rec.samples.size:
                whole.append(np.size(a))
            return fft(a, *args, **kwargs)

        monkeypatch.setattr(scipy.fft, "fft", counting_fft)
        report = pipeline.run_identification(
            rec, pipeline.PipelineConfig(), ism_plan())
        assert sum(r.component.width > 0.1e6 for r in report.results) == 2
        assert all(r.error is None for r in report.results)
        assert len(whole) == 1


class TestDetectBursts:
    def _burst_recording(self, seed=1, snr_db=10.0):
        chan = wg.ChannelSpec(kind="psk_burst", center_freq_hz=0.0, snr_db=snr_db,
                              symbol_rate_hz=0.5e6,
                              bursts=[(0.002, 0.002), (0.008, 0.002), (0.014, 0.002)])
        spec = wg.ScenarioSpec(2e6, 0.02, 0.0, [chan], seed=seed)
        rec, truth = wg.compose_scenario(spec)
        return rec, truth

    def test_three_bursts_recovered(self):
        rec, truth = self._burst_recording()
        cfg = pipeline.PipelineConfig(envelope_smooth_len=128)
        records, flags = pipeline.detect_bursts(rec, cfg)
        assert len(records) == 3
        dt = 1.0 / rec.sample_rate_hz
        for record, (start, length) in zip(records, truth.burst_intervals[0]):
            assert abs(record.start_s - start * dt) <= 128 * dt
            assert abs(record.duration_s - length * dt) <= 2 * 128 * dt

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_edge_dip_keeps_burst_count(self, seed):
        # ten 12 dB bursts in unit-power noise; the first and last half-windows
        # are a constant 4 dB under the noise, so the smoothed envelope's ends
        # dip about 4 dB below its noise median, as a filter ramp makes them
        n, nb, blen = 40000, 10, 1000
        rng = np.random.default_rng(seed)
        x = (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2)
        for s in np.arange(nb) * (n // nb) + (n // nb - blen) // 2:
            x[s:s + blen] += 10 ** (12 / 20) * np.exp(2j * np.pi * rng.random(blen))
        cfg = pipeline.PipelineConfig()
        half = cfg.envelope_smooth_len // 2
        x[:half] = x[-half:] = 10 ** (-4 / 20)
        rec = IqRecording(x, 1e6, 0.0)
        env_db, _ = dsp.power_envelope(rec, cfg.envelope_smooth_len)
        assert np.median(env_db) - env_db[[0, -1]] == pytest.approx([4.0, 4.0], abs=0.5)
        records, _ = pipeline.detect_bursts(rec, cfg)
        assert len(records) == nb

    def test_end_dip_inside_transient_keeps_burst_count(self):
        # a channelized record: the first and last 64 samples are the filter
        # transient, here a constant 4 dB under the noise.  The smoothing
        # spreads them over another half-window of the envelope, and the
        # trim must cover both, so the burst count is that without the dip
        n, nb, blen, transient = 40000, 10, 1000, 64
        cfg = pipeline.PipelineConfig()

        def bursts(seed, dip):
            rng = np.random.default_rng(seed)
            x = (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2)
            for s in np.arange(nb) * (n // nb) + (n // nb - blen) // 2:
                x[s:s + blen] += 10 ** (8 / 20) * np.exp(2j * np.pi * rng.random(blen))
            if dip:
                x[:transient] = x[-transient:] = 10 ** (-4 / 20)
            records, _ = pipeline.detect_bursts(IqRecording(x, 1e6, 0.0, transient=transient), cfg)
            return len(records)

        changed = [seed for seed in range(40) if bursts(seed, True) != bursts(seed, False)]
        assert changed == []

    def test_continuous_tone_flagged(self):
        n = 20000
        t = np.arange(n)
        rec = IqRecording(np.exp(2j * np.pi * 0.1 * t), 2e6, 0.0)
        records, flags = pipeline.detect_bursts(rec, pipeline.PipelineConfig())
        assert records == []
        assert "continuous_signal" in flags

    def test_silence_flagged_zero_bursts(self):
        rec = IqRecording(np.zeros(20000, dtype=complex), 2e6, 0.0)
        records, flags = pipeline.detect_bursts(rec, pipeline.PipelineConfig())
        assert records == []
        assert "continuous_signal" in flags


class TestConfig:
    def test_roundtrip(self):
        cfg = pipeline.PipelineConfig(fft_size=512, floor_k=0.8, burst_detection="on")
        back = pipeline.PipelineConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_unknown_field_rejected(self):
        from hypersense.errors import ParameterError
        with pytest.raises(ParameterError):
            pipeline.PipelineConfig.from_dict({"no_such_field": 1})

    def test_bad_burst_mode_rejected(self):
        from hypersense.errors import ParameterError
        with pytest.raises(ParameterError):
            pipeline.PipelineConfig.from_dict({"burst_detection": "sometimes"})

    @pytest.mark.parametrize("field, value", [
        ("fft_size", True), ("fft_size", 512.0), ("window", "kaiser"), ("overlap", float("nan")),
        ("floor_k", 0.0), ("floor_min_width_bins", 0), ("floor_merge_gap_bins", -1),
        ("guard_factor", 0.0), ("stop_atten_db", 5.0),
        ("envelope_smooth_len", 0), ("cyclic_step_hz", -1e3),
        ("tau_max", -1), ("peak_k", 1.5), ("energy_pfa", 0.5),
    ])
    def test_bad_field_rejected(self, field, value):
        from hypersense.errors import ParameterError
        with pytest.raises(ParameterError, match=field):
            pipeline.PipelineConfig.from_dict({field: value})

    def test_defaults_and_int_for_float_accepted(self):
        pipeline.PipelineConfig().validate()
        assert pipeline.PipelineConfig.from_dict({"overlap": 0, "guard_factor": 2}).guard_factor == 2

    def test_non_object_rejected(self):
        from hypersense.errors import ParameterError
        with pytest.raises(ParameterError):
            pipeline.PipelineConfig.from_dict([1024])


class TestBurstGating:
    def _scenario(self):
        chan = wg.ChannelSpec(kind="rect_noise", center_freq_hz=0.3e6, snr_db=12.0,
                              bandwidth_hz=0.4e6)
        spec = wg.ScenarioSpec(2e6, 0.03, 0.0, [chan], seed=21, center_freq_hz=2.44e9)
        return wg.compose_scenario(spec)[0]

    def _plan(self, burst_header):
        return classify.ChannelPlan(name="p", entries=[classify.ChannelPlanEntry(
            name="E", band_hz=(2.4e9, 2.4835e9),
            candidates=[classify.CandidateSignature(
                label="c", expected_bw_hz=(0.2e6, 0.6e6), burst_header=burst_header)])])

    def _main_result(self, report):
        return max(report.results, key=lambda r: r.component.width)

    def test_off_never_runs(self):
        rec = self._scenario()
        cfg = pipeline.PipelineConfig(burst_detection="off")
        report = pipeline.run_identification(rec, cfg, self._plan({"period_hz": 1e6}))
        r = self._main_result(report)
        assert r.bursts == [] and r.burst_flags == []

    def test_auto_runs_only_with_burst_header(self):
        rec = self._scenario()
        cfg = pipeline.PipelineConfig(burst_detection="auto")
        with_header = pipeline.run_identification(rec, cfg, self._plan({"period_hz": 1e6}))
        without = pipeline.run_identification(rec, cfg, self._plan(None))
        r_with = self._main_result(with_header)
        r_without = self._main_result(without)
        assert r_with.bursts or r_with.burst_flags  # attempted
        assert r_without.bursts == [] and r_without.burst_flags == []

    def test_on_always_runs(self):
        rec = self._scenario()
        cfg = pipeline.PipelineConfig(burst_detection="on")
        report = pipeline.run_identification(rec, cfg, self._plan(None))
        r = self._main_result(report)
        assert r.bursts or r.burst_flags


@pytest.fixture(scope="module")
def shipped():
    """The shipped ISM and PCS recordings at their shipped seeds, with plans."""
    from importlib import resources

    data = resources.files("hypersense.data")
    out = {}
    for name, scenario, plan in (("ism", "ism_burst_scenario.json", "ism24_plan.json"),
                                 ("pcs", "pcs_multicarrier_scenario.json", "pcs1900_plan.json")):
        rec, _ = wg.compose_scenario(wg.load_scenario(str(data / scenario)))
        out[name] = (rec, classify.load_plan(str(data / plan)))
    return out


@pytest.fixture(params=[1, 2, 5], ids=["1core", "2cores", "5cores"])
def cores(request, monkeypatch):
    monkeypatch.setattr(dsp, "available_cores", lambda: request.param)
    return request.param


class TestCoreCount:
    """Components run at once on the shared pool; the report must not show it."""

    @pytest.fixture(scope="class")
    def short_ism(self):
        """The shipped ISM scenario cut to 15 ms, its serial report and plan."""
        from importlib import resources

        data = resources.files("hypersense.data")
        spec = wg.load_scenario(str(data / "ism_burst_scenario.json"))
        end = 0.015
        channels = [
            dataclasses.replace(c, bursts=[b for b in c.bursts if b[0] + b[1] <= end])
            if c.bursts else c
            for c in spec.channels
        ]
        rec, _ = wg.compose_scenario(dataclasses.replace(spec, duration_s=end, channels=channels))
        plan = classify.load_plan(str(data / "ism24_plan.json"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dsp, "available_cores", lambda: 1)
            report = pipeline.run_identification(rec, pipeline.PipelineConfig(), plan)
        # two cyclic, one cyclic-prefix and two unidentified components
        assert [r.verdict.verdict for r in report.results].count(classify.VERDICT_IDENTIFIED) == 3
        return rec, plan, pipeline.serialize_report(report)

    def test_report_byte_identical(self, cores, short_ism):
        rec, plan, serial = short_ism
        report = pipeline.run_identification(rec, pipeline.PipelineConfig(), plan)
        assert pipeline.serialize_report(report) == serial


def loop_grid(windows, step):
    """The cyclic grid as first built, kept as the reference: a Python list of
    every step multiple inside each window, deduplicated and sorted."""
    points = []
    for lo, hi in windows:
        k0, k1 = int(np.ceil(lo / step)), int(np.floor(hi / step))
        points.extend(step * k for k in range(k0, k1 + 1))
    return np.array(sorted(set(points)))


class TestCyclicGrid:
    def test_matches_the_loop_on_merged_windows(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            step = 10 ** rng.uniform(1.0, 4.0)
            target = np.sort(rng.uniform(1e4, 4e6, rng.integers(1, 6)))
            candidate = classify.CandidateSignature(
                label="c", expected_bw_hz=(1e5, 1e7),
                cyclic_features_hz=[classify.CyclicFeature(float(a), float(rng.uniform(0, 2e4)))
                                    for a in target])
            windows = pipeline._cyclic_windows(candidate, 1e7, step, widen=rng.choice([1.0, 2.0]))
            grid = pipeline._grid_from_windows(windows, step)
            assert np.array_equal(grid, loop_grid(windows, step))
            assert np.all(np.diff(grid) > 0)

    @pytest.mark.parametrize("seed", [60798140, 164644012])
    def test_rescan_recovers_the_shipped_fsk_burst(self, seed):
        # two renders of the shipped ISM scenario that the benchmark draws
        # (run seeds 4000 and 4005): the FSK burst's first scan clears its
        # window threshold by 5.84 and 5.97 dB, under PEAK_MARGIN_DB, and
        # only the widened rescan names it
        from importlib import resources

        data = resources.files("hypersense.data")
        spec = wg.load_scenario(str(data / "ism_burst_scenario.json"))
        spec.seed = seed
        rec, _ = wg.compose_scenario(spec)
        report = pipeline.run_identification(
            rec, pipeline.PipelineConfig(), classify.load_plan(str(data / "ism24_plan.json")))
        (fsk,) = [r for r in report.results if r.verdict.label == "fh-burst-1msym"]
        first, widened = [ev for ev in fsk.verdict.evidence if ev.method == sensing.METHOD_CYCLO]
        assert fsk.verdict.extras["rescanned"]
        assert not first.detected and widened.detected

    def test_step_below_scan_resolution_rejected(self, shipped):
        # PCS: one 196,608-sample channel at 9.8304 MS/s, 50 Hz resolution
        rec, plan = shipped["pcs"]
        def error(step):
            config = pipeline.PipelineConfig(cyclic_step_hz=step, tau_max=2)
            (result,) = pipeline.run_identification(rec, config, plan).results
            return result.error

        assert error(49.9).startswith("ParameterError: cyclic_step_hz 49.9 Hz is below")
        assert error(50.0) is None


class TestCyclicLagRange:
    """The scan's last lag is ceil(2 fs_c / alpha_min), capped by tau_max."""

    def _tau_ranges(self, shipped, name, config=None):
        rec, plan = shipped[name]
        report = pipeline.run_identification(
            rec, pipeline.PipelineConfig.from_dict(config or {}), plan
        )
        ranges: dict[str, set] = {}
        for r in report.results:
            assert r.error is None
            for ev in r.verdict.evidence:
                if ev.method == sensing.METHOD_CYCLO:
                    label = r.verdict.candidates_ranked[0]
                    ranges.setdefault(label, set()).add(ev.extras["profile"].tau_range)
        return ranges

    def test_shipped_scenarios(self, shipped):
        # FSK burst: 4 MS/s channel, alpha 1 MHz; DSSS: 8 MS/s, 1.2288 MHz;
        # PCS: 9.8304 MS/s, 1.2288 MHz
        assert self._tau_ranges(shipped, "ism") == {
            "fh-burst-1msym": {(0, 8)}, "dsss-1p2288": {(0, 14)},
        }
        assert self._tau_ranges(shipped, "pcs") == {"cdma2000-like": {(0, 16)}}

    def test_tau_max_caps_the_range(self, shipped):
        assert self._tau_ranges(shipped, "ism", {"tau_max": 4}) == {
            "fh-burst-1msym": {(0, 4)}, "dsss-1p2288": {(0, 4)},
        }

    def test_full_rate_without_channelization(self, shipped):
        # a guard of fft_size or more passes the whole band: every component
        # is scanned at the recording's 8 MS/s
        assert self._tau_ranges(shipped, "ism", {"guard_factor": 1024.0}) == {
            "fh-burst-1msym": {(0, 16)}, "dsss-1p2288": {(0, 14)},
        }


class TestCyclicPrefixCheck:
    """``ofdm-narrow`` needs its prefix length too, not only its useful length."""

    def _ofdm_verdict(self, rec, plan):
        report = pipeline.run_identification(rec, pipeline.PipelineConfig(), plan)
        ofdm = [r for r in report.results if abs(r.component.center - 2.443e9) < 0.5e6]
        assert len(ofdm) == 1
        (evidence,) = [ev for ev in ofdm[0].verdict.evidence if ev.method == sensing.METHOD_AUTOCORR]
        return ofdm[0].verdict.label, evidence.extras["useful_length"], evidence.extras["cp_length"]

    def test_shipped_channel_identified(self, shipped):
        assert self._ofdm_verdict(*shipped["ism"]) == ("ofdm-narrow", 256, 64)

    @pytest.mark.parametrize("seed", [414, 1, 2])  # 414 is the scenario's own seed
    def test_longer_prefix_not_identified(self, shipped, seed):
        # the useful length still matches the candidate's 32 us (256 samples at
        # 8 MS/s); only the 128-sample (16 us) prefix misses its 8 +- 2 us
        from importlib import resources

        spec = wg.load_scenario(str(resources.files("hypersense.data") / "ism_burst_scenario.json"))
        channels = [dataclasses.replace(c, cp_length=128) if c.kind == "ofdm" else c
                    for c in spec.channels]
        rec, _ = wg.compose_scenario(dataclasses.replace(spec, seed=seed, channels=channels))
        assert self._ofdm_verdict(rec, shipped["ism"][1]) == (None, 256, 128)
