"""Sensing method tests: Monte-Carlo calibration, exact reductions,
generator-ground-truth feature checks."""

import sys
import threading

import numpy as np
import pytest
import scipy.fft as sfft

from hypersense import dsp, pipeline, sensing
from hypersense import wavegen as wg
from hypersense.dsp import db10
from hypersense.errors import (
    EmptyInputError,
    InsufficientDataError,
    ParameterError,
    UnsupportedMethodError,
)
from hypersense.iqio import IqRecording
from hypersense.noisefloor import detect


# the level height coefficient the pipeline hands every spiky-axis method
PEAK_K = pipeline.PipelineConfig().peak_k


def rec(x, fs=1e6, fc=0.0):
    return IqRecording(np.asarray(x, dtype=complex), fs, fc)


def awgn(n, rng, var=1.0):
    return np.sqrt(var / 2) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def cyclic_autocorrelation(
    iq: IqRecording, alpha_hz: float, tau_range: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Direct-definition oracle for scan_cyclic.

    R(alpha, tau) = (1/T) sum_t x(t) conj(x(t+tau)) e^{-j2pi alpha t}.
    Returns (taus, values, truncated); lags reaching past the end of the
    recording are truncated rather than rejected, with the flag set.
    """
    x = np.asarray(iq.samples)
    if x.size == 0:
        raise EmptyInputError("empty recording")
    fs = iq.sample_rate_hz
    if abs(alpha_hz) >= fs / 2.0:
        raise ParameterError(f"|alpha| must be below fs/2 = {fs/2:g} Hz")
    lo, hi = int(tau_range[0]), int(tau_range[1])
    if lo < 0 or hi < lo:
        raise ParameterError(f"bad tau range ({lo}, {hi})")
    truncated = hi >= x.size
    hi = min(hi, x.size - 1)
    taus = np.arange(lo, hi + 1)
    t = np.arange(x.size)
    w = x * np.exp(-2j * np.pi * alpha_hz / fs * t)
    values = np.empty(taus.size, dtype=np.complex128)
    for i, tau in enumerate(taus):
        values[i] = np.dot(w[: x.size - tau], np.conj(x[tau:])) / x.size
    return taus, values, truncated


class TestEnergyDetect:
    def test_false_alarm_calibration(self):
        rng = np.random.default_rng(101)
        m, trials, pfa = 1000, 4000, 0.05
        # vectorized trials: sum |x|^2 over rows
        stats = np.sum(np.abs(awgn(m * trials, rng).reshape(trials, m)) ** 2, axis=1)
        ev = sensing.energy_detect(rec(awgn(m, rng)), 1.0, pfa)
        rate = np.mean(stats > ev.threshold)
        assert 0.035 <= rate <= 0.065

    def test_detection_at_10db(self):
        rng = np.random.default_rng(7)
        m = 1000
        hits = 0
        for _ in range(200):
            x = awgn(m, rng) + awgn(m, rng, var=10.0)
            if sensing.energy_detect(rec(x), 1.0, 0.05).detected:
                hits += 1
        assert hits == 200

    def test_threshold_matches_norm_isf(self):
        # the Gaussian quantile scipy.stats gave before the package stopped importing it
        from scipy.stats import norm

        rng = np.random.default_rng(11)
        for m in (100, 1000, 4097):
            x = rec(awgn(m, rng))
            for noise_var in (1e-6, 0.37, 1.0, 250.0):
                for pfa in (1e-9, 0.001, 0.01, 0.05, 0.2, 0.4999):
                    expected = m * noise_var + norm.isf(pfa) * noise_var * np.sqrt(m)
                    assert sensing.energy_detect(x, noise_var, pfa).threshold == float(expected)

    def test_threshold_monotone_in_pfa(self):
        x = rec(awgn(500, np.random.default_rng(0)))
        thresholds = [sensing.energy_detect(x, 1.0, p).threshold for p in (0.01, 0.05, 0.2)]
        assert thresholds[0] > thresholds[1] > thresholds[2]

    def test_errors(self):
        x = rec(awgn(500, np.random.default_rng(0)))
        with pytest.raises(ParameterError):
            sensing.energy_detect(x, 0.0, 0.05)
        with pytest.raises(ParameterError):
            sensing.energy_detect(x, 1.0, 0.7)
        with pytest.raises(InsufficientDataError):
            sensing.energy_detect(rec(awgn(50, np.random.default_rng(0))), 1.0, 0.05)


class TestCyclicAutocorrelation:
    def test_alpha_zero_reduces_to_autocorrelation(self):
        rng = np.random.default_rng(3)
        x = awgn(2000, rng)
        taus, values, truncated = cyclic_autocorrelation(rec(x), 0.0, (0, 20))
        assert not truncated
        for tau, value in zip(taus, values):
            direct = np.sum(x[: x.size - tau] * np.conj(x[tau:])) / x.size
            assert value == pytest.approx(direct, rel=1e-12, abs=1e-15)

    def test_white_noise_off_cycle_bound(self):
        rng = np.random.default_rng(5)
        t_len = 10**5
        x = awgn(t_len, rng)
        _, values, _ = cyclic_autocorrelation(rec(x), 1e6 / 16, (0, 32))
        assert np.all(np.abs(values) < 5.0 / np.sqrt(t_len))

    def test_phase_rotation_invariance(self):
        rng = np.random.default_rng(9)
        x = awgn(5000, rng)
        _, v1, _ = cyclic_autocorrelation(rec(x), 5e3, (0, 16))
        _, v2, _ = cyclic_autocorrelation(rec(x * np.exp(1j * 1.234)), 5e3, (0, 16))
        assert np.allclose(np.abs(v1), np.abs(v2), rtol=1e-10)

    def test_truncation_flag(self):
        x = awgn(100, np.random.default_rng(1))
        _, values, truncated = cyclic_autocorrelation(rec(x), 0.0, (0, 200))
        assert truncated
        assert values.size == 100

    def test_alpha_beyond_nyquist(self):
        with pytest.raises(ParameterError):
            cyclic_autocorrelation(rec(awgn(100, np.random.default_rng(0))), 0.6e6, (0, 4))


class TestScanCyclic:
    def test_dsss_chip_rate_line(self):
        fs = 9.8304e6
        chan = wg.ChannelSpec(kind="dsss", center_freq_hz=0.0, snr_db=10.0,
                              chip_rate_hz=1.2288e6)
        spec = wg.ScenarioSpec(fs, 0.01, 0.0, [chan], seed=21)
        recording, _ = wg.compose_scenario(spec)
        grid = np.arange(0.8e6, 1.6e6, 10e3)
        profile = sensing.scan_cyclic(recording, grid, (0, 256))
        median = np.median(profile.magnitude_db)
        at_chip = profile.magnitude_db[np.abs(grid - 1.2288e6) <= 5e3]
        assert at_chip.max() - median >= 10.0

    def test_grid_validation(self):
        x = rec(awgn(4000, np.random.default_rng(0)))
        with pytest.raises(ParameterError):
            sensing.scan_cyclic(x, np.array([]), (0, 256))
        with pytest.raises(ParameterError):
            sensing.scan_cyclic(x, np.array([2e3, 1e3]), (0, 256))
        with pytest.raises(ParameterError):
            sensing.scan_cyclic(x, np.array([0.6e6]), (0, 256))

    def test_matches_direct_caf(self):
        rng = np.random.default_rng(33)
        fs = 1e6
        x = awgn(5000, rng)
        alpha = 40 * fs / 5000  # on the length-5000 FFT grid
        profile = sensing.scan_cyclic(rec(x, fs), np.array([alpha]), (0, 256))
        _, values, _ = cyclic_autocorrelation(rec(x, fs), alpha, (0, 256))
        assert profile.magnitude_db[0] == pytest.approx(
            10 * np.log10(np.max(np.abs(values))), abs=1e-6
        )


def per_lag_scan(iq, alpha_grid, tau_range):
    """Reference for scan_cyclic: one full-length FFT per lag, in lag order."""
    x, fs = iq.samples, iq.sample_rate_hz
    alphas = np.asarray(alpha_grid, dtype=float)
    lo, hi = tau_range
    T = x.size
    L = sfft.next_fast_len(T)
    step = float(np.min(np.diff(alphas))) if alphas.size > 1 else fs / T
    starts = np.round((alphas - step / 2.0) / fs * L).astype(np.int64)
    ends = np.round((alphas + step / 2.0) / fs * L).astype(np.int64)
    starts = np.clip(starts, 0, L - 1)
    ends = np.clip(np.maximum(ends, starts + 1), 1, L - 1)
    idx = np.empty(2 * alphas.size, dtype=np.int64)
    idx[0::2] = starts
    idx[1::2] = ends
    idx = np.maximum.accumulate(idx)
    best = np.full(alphas.size, 0.0)
    buf = np.zeros(L, dtype=np.complex128)
    for tau in range(lo, hi + 1):
        buf[:] = 0.0
        buf[: T - tau] = x[: T - tau] * np.conj(x[tau:])
        mag = np.abs(sfft.fft(buf)) / T
        np.maximum(best, np.maximum.reduceat(mag, idx)[0::2], out=best)
    return db10(best)


@pytest.fixture(params=[1, 2], ids=["1core", "2cores"])
def cores(request, monkeypatch):
    monkeypatch.setattr(dsp, "available_cores", lambda: request.param)
    return request.param


class TestScanCyclicMatchesPerLagLoop:
    """scan_cyclic spreads the lags over workers; the per-lag loop is its oracle."""

    FS = 1e6
    # from 0 up to just below fs/2, so the last cell is clipped at the top bin
    GRID = np.append(np.arange(0.0, 495e3, 3e3), FS / 2.0 - 1.0)
    # None: every lag up to the pipeline's cap, tau_max or a quarter of the recording
    TAU_RANGES = [(0, 0), (3, 3), (5, 40), None]

    def _bpsk(self, n, seed):
        rng = np.random.default_rng(seed)
        chips = np.repeat(rng.choice([-1.0, 1.0], size=n // 8 + 1), 8)[:n]
        return rec(chips + awgn(n, rng), self.FS)

    @staticmethod
    def _longest(iq):
        return (0, min(pipeline.PipelineConfig().tau_max, len(iq.samples) // 4))

    @pytest.mark.parametrize("tau_range", TAU_RANGES)
    def test_bitwise_at_40000_samples(self, cores, tau_range):
        iq = self._bpsk(40_000, 1)
        tau_range = tau_range or self._longest(iq)
        got = sensing.scan_cyclic(iq, self.GRID, tau_range).magnitude_db
        assert np.array_equal(got, per_lag_scan(iq, self.GRID, tau_range))

    @pytest.mark.parametrize("n", [5_000, 20_011])  # 20,011 is prime: L > T, zero-padded
    @pytest.mark.parametrize("tau_range", TAU_RANGES)
    def test_close_below_40000_samples(self, cores, n, tau_range):
        iq = self._bpsk(n, 2)
        tau_range = tau_range or self._longest(iq)
        got = sensing.scan_cyclic(iq, self.GRID, tau_range).magnitude_db
        want = per_lag_scan(iq, self.GRID, tau_range)
        np.testing.assert_allclose(10 ** (got / 10), 10 ** (want / 10), rtol=1e-12)

    def test_more_workers_than_cores(self, monkeypatch):
        # each worker writes only its own rows; a short switch interval
        # interleaves them as often as the interpreter allows
        monkeypatch.setattr(dsp, "available_cores", lambda: 5)
        iq = self._bpsk(40_000, 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = sensing.scan_cyclic(iq, self.GRID, (0, 23)).magnitude_db
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, per_lag_scan(iq, self.GRID, (0, 23)))

    def test_no_threads_left_behind(self, cores):
        # the process-wide pool keeps its threads between calls; a scan
        # leaves no other thread running
        before = set(threading.enumerate())
        sensing.scan_cyclic(self._bpsk(5_000, 3), self.GRID, (0, 256))
        started = set(threading.enumerate()) - before
        assert all(t.name.startswith("hypersense-pool") for t in started)


class TestCyclicEvidence:
    def _profile(self, values):
        grid = 1e3 * np.arange(len(values), dtype=float)
        return sensing.CyclicProfile(grid, np.asarray(values, dtype=float), (0, 8))

    def test_constant_window_skipped(self):
        rng = np.random.default_rng(4)
        values = np.concatenate([np.zeros(20), rng.normal(0.0, 0.5, 40)])
        values[45] = 20.0
        profile = self._profile(values)
        ev = sensing.cyclic_evidence(profile, PEAK_K, [(0.0, 19e3), (20e3, 59e3)])
        assert ev.detected
        assert [(pk.start_index, pk.peak_position) for pk in ev.peaks] == [(45, 45e3)]
        assert ev.extras["profile"] is profile

    def test_statistic_is_the_best_window_margin(self):
        rng = np.random.default_rng(6)
        values = rng.normal(0.0, 0.5, 60)
        values[10] = 10.0
        values[45] = 20.0
        windows = [(0.0, 19e3), (20e3, 59e3)]
        ev = sensing.cyclic_evidence(self._profile(values), PEAK_K, windows)
        margins = []
        for lo, hi in ((0, 20), (20, 60)):
            estimate, comps = detect(values[lo:hi], (lo * 1e3, 1e3), PEAK_K,
                                     sensing.PEAK_MIN_WIDTH_BINS, sensing.PEAK_MERGE_GAP_BINS)
            margins.append(max(c.peak_value_db for c in comps) - estimate.threshold_db)
        assert margins[1] > margins[0] > 0.0
        assert ev.statistic == 20.0
        assert ev.statistic - ev.threshold == pytest.approx(margins[1])

    def test_nan_profile_raises(self):
        values = np.random.default_rng(5).normal(0.0, 0.5, 40)
        values[10] = np.nan
        with pytest.raises(ParameterError):
            sensing.cyclic_evidence(self._profile(values), PEAK_K, [(0.0, 39e3)])


class TestCpAutocorrDetect:
    def _ofdm_rec(self, seed, snr_db=0.0, n_sym=1000):
        fs = 1e6
        chan = wg.ChannelSpec(kind="ofdm", center_freq_hz=0.0, snr_db=snr_db,
                              useful_length=64, cp_length=16)
        spec = wg.ScenarioSpec(fs, 80 * n_sym / fs, 0.0, [chan], seed=seed)
        recording, _ = wg.compose_scenario(spec)
        return recording

    def test_clean_exact(self):
        recording = self._ofdm_rec(seed=1, snr_db=30.0)
        ev = sensing.cp_autocorr_detect(recording, (1, 256), PEAK_K)
        assert ev.detected
        assert ev.extras["useful_length"] == 64
        assert ev.extras["cp_length"] == 16
        assert ev.extras["symbol_period"] == 80

    def test_snr0_mostly_exact(self):
        hits = 0
        for seed in range(20):
            ev = sensing.cp_autocorr_detect(self._ofdm_rec(seed=100 + seed), (1, 256), PEAK_K)
            if ev.detected and (ev.extras.get("useful_length"), ev.extras.get("cp_length")) == (64, 16):
                hits += 1
        assert hits >= 18

    def test_white_noise_no_detection(self):
        rng = np.random.default_rng(55)
        for _ in range(5):
            ev = sensing.cp_autocorr_detect(rec(awgn(80000, rng)), (1, 256), PEAK_K)
            assert not ev.detected

    def test_bad_lag_range(self):
        x = rec(awgn(1000, np.random.default_rng(0)))
        with pytest.raises(ParameterError):
            sensing.cp_autocorr_detect(x, (0, 50), PEAK_K)
        with pytest.raises(ParameterError):
            sensing.cp_autocorr_detect(x, (10, 5), PEAK_K)


class TestRegistry:
    OTHER_METHODS = {"matched_filter": "Matched Filter", "statistical_tests": "Statistical Tests",
                     "entropy": "Entropy Based", "eigenvalue": "Eigenvalue Based",
                     "template_match": "Template Matching", "multitaper": "Multitaper Based",
                     "wavelet": "Wavelet", "multiband_joint": "Multiband Joint Detection"}

    def test_unimplemented_selection_raises(self):
        for method in (*self.OTHER_METHODS, *self.OTHER_METHODS.values()):
            with pytest.raises(UnsupportedMethodError) as err:
                sensing.method_key(method)
            message = str(err.value)
            assert method in message
            assert all(key in message for key in ("energy", "cyclo", "autocorr"))

    def test_unknown_method(self):
        for method in ("quantum", ""):
            with pytest.raises(UnsupportedMethodError):
                sensing.method_key(method)

    def test_implemented_lookup(self):
        expected = {"energy": "Energy Detection", "cyclo": "Cyclostationary Feature Detection",
                    "autocorr": "Autocorrelation"}
        assert sensing.METHODS == expected
        for key, name in expected.items():
            for spelling in (key, name, key.upper(), name.lower(), f"  {name.upper()} "):
                assert sensing.method_key(spelling) == key
