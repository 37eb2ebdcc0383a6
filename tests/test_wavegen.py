"""Scenario generator tests against construction-level oracles.

The OFDM cyclic-prefix claim is checked with a brute-force lag
correlation; channel SNR calibration is re-measured by projecting the
rendered channel onto its nominal band with a plain FFT, independent of
the generator's own scaling path.
"""

import numpy as np
import pytest

from hypersense import wavegen as wg
from hypersense.errors import InsufficientDataError, ParameterError


def brute_autocorr(x, lag):
    return np.sum(x[: len(x) - lag] * np.conj(x[lag:])) / len(x)


class TestGenAwgn:
    def test_power_calibration(self):
        rng = np.random.default_rng(0)
        x = wg.gen_awgn(10**5, 0.0, rng)
        mean_power = np.mean(np.abs(x) ** 2)
        assert 0.977 <= mean_power <= 1.023  # +-0.1 dB around 0 dBW

    def test_single_sample(self):
        x = wg.gen_awgn(1, -10.0, np.random.default_rng(1))
        assert x.shape == (1,)

    def test_empty_error(self):
        with pytest.raises(InsufficientDataError):
            wg.gen_awgn(0, 0.0, np.random.default_rng(0))

    def test_seed_determinism(self):
        a = wg.gen_awgn(1000, 3.0, np.random.default_rng(42))
        b = wg.gen_awgn(1000, 3.0, np.random.default_rng(42))
        assert np.array_equal(a, b)


class TestGenDsss:
    def test_single_carrier_feature_table(self):
        chan = wg.ChannelSpec(kind="dsss", center_freq_hz=0.0, snr_db=0.0,
                              chip_rate_hz=1.2288e6)
        assert wg.expected_features(chan, 9.8304e6) == [1.2288e6]

    def test_three_carrier_feature_table_has_spacings(self):
        chan = wg.ChannelSpec(kind="dsss", center_freq_hz=0.0, snr_db=0.0,
                              chip_rate_hz=1.2288e6, carrier_count=3,
                              carrier_spacing_hz=1.25e6)
        feats = wg.expected_features(chan, 9.8304e6)
        assert 1.2288e6 in feats
        assert 1.25e6 in feats and 2.5e6 in feats

    def test_chip_rate_zero_error(self):
        chan = wg.ChannelSpec(kind="dsss", center_freq_hz=0.0, snr_db=0.0, chip_rate_hz=0.0)
        with pytest.raises(ParameterError, match="chip rate"):
            wg.ScenarioSpec(1e6, 1e-3, 0.0, [chan]).validate()

    def test_chip_rate_above_nyquist(self):
        chan = wg.ChannelSpec(kind="dsss", center_freq_hz=0.0, snr_db=0.0, chip_rate_hz=0.9e6)
        with pytest.raises(ParameterError, match="chip rate"):
            wg.ScenarioSpec(1e6, 1e-3, 0.0, [chan]).validate()

    def test_constant_modulus_single_carrier_rect(self):
        chan = wg.ChannelSpec(kind="dsss", center_freq_hz=0.0, snr_db=0.0, chip_rate_hz=1e6)
        x = wg.gen_dsss(chan, 8e6, 4000, np.random.default_rng(3))
        assert np.allclose(np.abs(x), 1.0)

    def test_rrc_shaping_runs(self):
        chan = wg.ChannelSpec(kind="dsss", center_freq_hz=0.0, snr_db=0.0,
                              chip_rate_hz=1e6, chip_shaping="rrc")
        x = wg.gen_dsss(chan, 8e6, 4000, np.random.default_rng(3))
        assert x.shape == (4000,)


class TestGenOfdm:
    def test_cp_autocorr_oracle(self):
        # useful=64, cp=16: brute-force lag-64 correlation is strong and
        # repeats per 80-sample symbol; without a CP it vanishes
        chan = wg.ChannelSpec(kind="ofdm", center_freq_hz=0.0, snr_db=0.0,
                              useful_length=64, cp_length=16)
        x = wg.gen_ofdm(chan, 1e6, 80 * 500, np.random.default_rng(7))
        power = np.mean(np.abs(x) ** 2)
        r64 = abs(brute_autocorr(x, 64))
        assert r64 / power > 0.15  # 16/80 = 0.2 expected
        off = max(abs(brute_autocorr(x, lag)) for lag in (50, 55, 70, 75))
        assert r64 > 5 * off

    def test_no_cp_no_peak(self):
        chan = wg.ChannelSpec(kind="ofdm", center_freq_hz=0.0, snr_db=0.0,
                              useful_length=64, cp_length=0)
        x = wg.gen_ofdm(chan, 1e6, 64 * 600, np.random.default_rng(11))
        power = np.mean(np.abs(x) ** 2)
        assert abs(brute_autocorr(x, 64)) / power < 0.02

    def test_cp_equal_useful_error(self):
        chan = wg.ChannelSpec(kind="ofdm", center_freq_hz=0.0, snr_db=0.0,
                              useful_length=64, cp_length=64)
        with pytest.raises(ParameterError, match="cp_length"):
            wg.ScenarioSpec(1e6, 1e-3, 0.0, [chan]).validate()


class TestGenFskHeaderBurst:
    def _chan(self, bursts):
        return wg.ChannelSpec(kind="fsk_header_burst", center_freq_hz=0.0, snr_db=0.0,
                              symbol_rate_hz=1e6, header_len_symbols=54, bursts=bursts)

    def test_feature_table(self):
        assert wg.expected_features(self._chan([]), 8e6) == [1e6]

    def test_zero_bursts_all_zero(self):
        x, slices = wg.gen_fsk_header_burst(self._chan([]), 8e6, 8000, np.random.default_rng(0))
        assert slices == []
        assert np.all(x == 0)

    def test_two_bursts_interval_positions(self):
        fs = 8e6
        bursts = [(0.000625 * k, 0.000366) for k in (0, 1)]
        x, slices = wg.gen_fsk_header_burst(self._chan(bursts), fs, 16000, np.random.default_rng(0))
        assert slices == [(0, 2928), (5000, 2928)]
        for start, length in slices:
            assert np.all(np.abs(x[start : start + length]) > 0)

    def test_schedule_exceeds_duration(self):
        with pytest.raises(ParameterError):
            wg.gen_fsk_header_burst(self._chan([(0.0019, 0.0002)]), 8e6, 16000,
                                    np.random.default_rng(0))

    def test_constant_modulus_inside_burst(self):
        x, slices = wg.gen_fsk_header_burst(self._chan([(0.0, 0.001)]), 8e6, 8000,
                                            np.random.default_rng(5))
        s, l = slices[0]
        assert np.allclose(np.abs(x[s : s + l]), 1.0)


class TestComposeScenario:
    def test_empty_channels_pure_noise(self):
        spec = wg.ScenarioSpec(1e6, 0.01, -3.0, [], seed=1)
        rec, truth = wg.compose_scenario(spec, fft_size=256)
        assert not truth.occupancy_mask.any()
        assert rec.samples.shape == (10000,)
        assert np.mean(np.abs(rec.samples) ** 2) == pytest.approx(10 ** (-0.3), rel=0.05)

    def test_mask_exact_for_rect_channels(self):
        fs, fft = 1.024e6, 1024
        step = fs / fft
        channels = []
        expected = np.zeros(fft, dtype=bool)
        for i0 in (100, 300, 500, 700):
            i1 = i0 + 63  # 64 bins each -> 256 of 1024 = 25%
            lo = -fs / 2 + (i0 - 0.5) * step
            hi = -fs / 2 + (i1 + 0.5) * step
            channels.append(wg.ChannelSpec(kind="rect_noise", center_freq_hz=(lo + hi) / 2,
                                           snr_db=10.0, bandwidth_hz=hi - lo))
            expected[i0 : i1 + 1] = True
        spec = wg.ScenarioSpec(fs, 0.02, 0.0, channels, seed=3)
        _, truth = wg.compose_scenario(spec, fft_size=fft)
        assert np.array_equal(truth.occupancy_mask, expected)

    def test_inband_snr_calibration(self):
        # independent oracle: project the channel alone onto its band
        fs = 2e6
        chan = wg.ChannelSpec(kind="psk_burst", center_freq_hz=0.25e6, snr_db=7.0,
                              symbol_rate_hz=0.2e6)
        spec = wg.ScenarioSpec(fs, 0.02, -2.0, [chan], seed=9)
        rec, _ = wg.compose_scenario(spec)
        noise_only = wg.compose_scenario(wg.ScenarioSpec(fs, 0.02, -2.0, [], seed=9))[0]
        sig = rec.samples - noise_only.samples  # channel contribution alone
        spec_fft = np.fft.fft(sig)
        freqs = np.fft.fftfreq(sig.size, 1 / fs)
        lo, hi = wg.nominal_band(chan, fs)
        inband = (freqs >= lo) & (freqs < hi)
        p_sig = np.sum(np.abs(spec_fft[inband]) ** 2) / sig.size**2
        p_noise = 10 ** (-0.2) * (hi - lo) / fs
        snr_db = 10 * np.log10(p_sig / p_noise)
        assert abs(snr_db - 7.0) <= 0.5

    def test_determinism(self):
        chan = wg.ChannelSpec(kind="dsss", center_freq_hz=0.1e6, snr_db=5.0, chip_rate_hz=0.3e6)
        spec = wg.ScenarioSpec(2e6, 0.01, 0.0, [chan], seed=77)
        a, _ = wg.compose_scenario(spec)
        b, _ = wg.compose_scenario(spec)
        assert np.array_equal(a.samples, b.samples)

    def test_burst_intervals_inside_recording(self):
        chan = wg.ChannelSpec(kind="psk_burst", center_freq_hz=0.0, snr_db=5.0,
                              symbol_rate_hz=0.1e6,
                              bursts=[(0.001, 0.002), (0.005, 0.002)])
        spec = wg.ScenarioSpec(1e6, 0.01, 0.0, [chan], seed=2)
        rec, truth = wg.compose_scenario(spec)
        assert truth.burst_intervals[0] == [(1000, 2000), (5000, 2000)]
        for s, l in truth.burst_intervals[0]:
            assert s + l <= len(rec.samples)

    def test_band_outside_scenario_rejected(self):
        chan = wg.ChannelSpec(kind="psk_burst", center_freq_hz=0.9e6, snr_db=0.0,
                              symbol_rate_hz=0.5e6)
        with pytest.raises(ParameterError):
            wg.compose_scenario(wg.ScenarioSpec(2e6, 0.01, 0.0, [chan], seed=1))

    def test_overlapping_bursts_rejected(self):
        chan = wg.ChannelSpec(kind="psk_burst", center_freq_hz=0.0, snr_db=0.0,
                              symbol_rate_hz=0.1e6,
                              bursts=[(0.001, 0.002), (0.002, 0.002)])
        with pytest.raises(ParameterError):
            wg.compose_scenario(wg.ScenarioSpec(1e6, 0.01, 0.0, [chan], seed=1))
