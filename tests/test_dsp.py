"""Spectral estimation, filtering and envelope tests.

Parseval and the pure-tone DFT serve as independent oracles for the
spectrum scaling; filter behavior is checked on the measured frequency
response and on tones pushed through the full channelizer.
"""

import functools
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from scipy import signal as sig

from hypersense import dsp
from hypersense.errors import EmptyInputError, InsufficientDataError, ParameterError
from hypersense.iqio import IqRecording
from hypersense.noisefloor import DetectedComponent


def tone(fs, n, freq, amp=1.0):
    t = np.arange(n) / fs
    return amp * np.exp(2j * np.pi * freq * t)


def rec(samples, fs=1e6, fc=0.0):
    return IqRecording(samples=np.asarray(samples, dtype=complex), sample_rate_hz=fs, center_freq_hz=fc)


@pytest.fixture(params=[1, 2, 5], ids=["1core", "2cores", "5cores"])
def cores(request, monkeypatch):
    monkeypatch.setattr(dsp, "available_cores", lambda: request.param)
    return request.param


class TestMapOnCores:
    def test_results_in_item_order(self, cores):
        # a short switch interval interleaves the claims as often as the
        # interpreter allows; a lost or doubled claim shows in the calls
        assert dsp.map_on_cores(abs, []) == []
        calls = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = dsp.map_on_cores(lambda i: calls.append(i) or -i, range(3000))
        finally:
            sys.setswitchinterval(interval)
        assert got == [-i for i in range(3000)]
        assert sorted(calls) == list(range(3000))

    def test_nested_call_with_every_pool_thread_busy(self, monkeypatch):
        size = dsp._pool._max_workers
        monkeypatch.setattr(dsp, "available_cores", lambda: size + 1)
        # the caller and every pool thread each hold an outer item before any
        # of them makes the inner call, whose pool tasks cannot start
        barrier = threading.Barrier(size + 1, timeout=10)

        def outer(i):
            barrier.wait()
            return dsp.map_on_cores(lambda j: i + j, range(10))

        done = []
        caller = threading.Thread(
            target=lambda: done.append(dsp.map_on_cores(outer, range(size + 1))), daemon=True
        )
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive(), "nested map_on_cores deadlocked"
        assert done == [[[i + j for j in range(10)] for i in range(size + 1)]]

    def test_cancelled_task_keeps_nothing_alive(self, monkeypatch):
        size = dsp._pool._max_workers
        monkeypatch.setattr(dsp, "available_cores", lambda: size + 1)
        # every pool thread holds an outer item while each thread's inner call
        # queues pool tasks that cannot start; each checks, before any thread
        # frees up, that its inner fn's captures died with the call
        barrier = threading.Barrier(size + 1, timeout=10)

        class Payload:
            pass

        def outer(i):
            payload = Payload()
            ref = weakref.ref(payload)
            fn = functools.partial(lambda captured, j: j, payload)
            del payload
            barrier.wait()
            assert dsp.map_on_cores(fn, range(10)) == list(range(10))
            del fn
            barrier.wait()
            alive = ref() is not None
            barrier.wait()
            return alive

        assert dsp.map_on_cores(outer, range(size + 1)) == [False] * (size + 1)

    def test_exception_stops_further_claims(self, cores):
        started = []

        def fail_at_3(i):
            started.append(i)
            if i == 3:
                raise ValueError("item 3")
            time.sleep(0.002)
            return i

        with pytest.raises(ValueError, match="item 3"):
            dsp.map_on_cores(fail_at_3, range(200))
        returned_with = len(started)
        time.sleep(0.05)
        assert len(started) == returned_with  # nothing runs once the call is back
        # items are claimed in order: 0..3, then at most one more per other
        # thread, already running when item 3 raised (one spare for a thread
        # that claims between the raise and the stop)
        assert sorted(started) == list(range(returned_with))
        assert returned_with <= 4 + cores
        if cores == 1:
            assert started == [0, 1, 2, 3]

    def test_pool_thread_exception_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(dsp, "available_cores", lambda: 2)

        def fail_off_caller(i):
            if threading.current_thread() is not threading.main_thread():
                raise ValueError("raised on a pool thread")
            time.sleep(0.002)
            return i

        with pytest.raises(ValueError, match="pool thread"):
            dsp.map_on_cores(fail_off_caller, range(200))


class TestWelchPsd:
    @pytest.mark.parametrize("window", dsp.WINDOWS)
    @pytest.mark.parametrize("overlap", [0.0, 0.5])
    @pytest.mark.parametrize("n_seg", [100, 256, 257, 1952])
    def test_blocks_bitwise_equal_one_batch(self, cores, window, overlap, n_seg):
        # the segments are transformed in blocks on the pool; averaged in one
        # reduction, they give the one-batch formula bit for bit
        fft_size = 64
        hop = int(round(fft_size * (1.0 - overlap)))
        rng = np.random.default_rng(n_seg)
        n = (n_seg - 1) * hop + fft_size + rng.integers(hop)  # a partial segment left over
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        psd = dsp.welch_psd(rec(x), fft_size, window, overlap)
        w = {"hann": np.hanning, "hamming": np.hamming, "rect": np.ones}[window](fft_size)
        segs = np.lib.stride_tricks.sliding_window_view(x, fft_size)[::hop][:n_seg]
        p = np.mean(np.abs(np.fft.fft(segs * w, axis=1)) ** 2, axis=0) / np.sum(w**2)
        assert psd.averaging_count == n_seg
        assert np.array_equal(psd.values_db, dsp.db10(np.fft.fftshift(p)))

    def test_pure_tone_peak_bin(self):
        fs, n = 1.024e6, 1024
        k = 160  # bin index over the shifted axis: freq = -fs/2 + k*fs/n
        freq = -fs / 2 + k * fs / n
        psd = dsp.welch_psd(rec(tone(fs, n, freq), fs), fft_size=n, window="rect", overlap=0.0)
        assert psd.averaging_count == 1
        assert int(np.argmax(psd.values_db)) == k
        assert psd.values_db[k] - np.median(psd.values_db) >= 30.0

    def test_all_zero_input_clamped(self):
        psd = dsp.welch_psd(rec(np.zeros(4096)), fft_size=1024)
        assert np.all(np.isfinite(psd.values_db))
        assert np.all(psd.values_db == 10.0 * np.log10(dsp.EPS_POWER))

    def test_parseval_rect_no_overlap(self):
        rng = np.random.default_rng(5)
        n, fft = 8192, 512
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        psd = dsp.welch_psd(rec(x), fft_size=fft, window="rect", overlap=0.0)
        linear = 10 ** (psd.values_db / 10.0)
        used = x[: (n // fft) * fft]
        assert np.mean(linear) == pytest.approx(np.mean(np.abs(used) ** 2), rel=1e-6)

    def test_shift_covariance_on_tones(self):
        fs, n = 1e6, 2048
        base = tone(fs, n, -200e3)
        shift_bins = 300
        f0 = shift_bins * fs / 2048
        shifted = base * np.exp(2j * np.pi * f0 * np.arange(n) / fs)
        p1 = dsp.welch_psd(rec(base, fs), 2048, "rect", 0.0)
        p2 = dsp.welch_psd(rec(shifted, fs), 2048, "rect", 0.0)
        assert np.allclose(np.roll(p1.values_db, shift_bins), p2.values_db, atol=1e-6)

    def test_axis_layout(self):
        fs = 2e6
        psd = dsp.welch_psd(rec(np.ones(4096), fs), fft_size=1024)
        assert psd.freq_start_hz == -fs / 2
        assert psd.freq_step_hz == pytest.approx(fs / 1024)
        assert len(psd.values_db) == 1024

    def test_errors(self):
        with pytest.raises(InsufficientDataError):
            dsp.welch_psd(rec(np.ones(100)), fft_size=1024)
        with pytest.raises(ParameterError):
            dsp.welch_psd(rec(np.ones(4096)), fft_size=1000)  # not a power of two
        with pytest.raises(ParameterError):
            dsp.welch_psd(rec(np.ones(4096)), fft_size=4)
        with pytest.raises(ParameterError):
            dsp.welch_psd(rec(np.ones(4096)), fft_size=1024, overlap=1.0)
        with pytest.raises(ParameterError):
            dsp.welch_psd(rec(np.ones(4096)), fft_size=1024, window="flattop")


class TestDesignBandpass:
    def test_lowpass_passes_inband_tone(self):
        fs = 10e6
        taps = dsp.design_lowpass(1e6, fs, 100e3, 60.0)
        w, h = sig.freqz(taps, worN=4096, fs=fs)
        gain_db = 20 * np.log10(np.abs(h) + 1e-12)
        inband = gain_db[w <= 0.4e6]
        assert np.all(np.abs(inband) < 1.0)
        stop = gain_db[w >= 0.5e6 + 100e3]
        assert np.all(stop < -60.0)

    def test_taps_symmetric_odd(self):
        taps = dsp.design_lowpass(0.5e6, 10e6, 100e3, 50.0)
        assert len(taps) % 2 == 1
        assert np.array_equal(taps, taps[::-1])

    def test_full_band_identity(self):
        fs = 4e6
        assert np.array_equal(dsp.design_lowpass(fs, fs, 100e3, 60.0), [1.0])
        # the whole band needs no transition band
        assert np.array_equal(dsp.design_lowpass(fs, fs, 0.0, 60.0), [1.0])

    def test_infeasible_band(self):
        with pytest.raises(ParameterError):
            dsp.design_lowpass(6e6, 5e6, 100e3)  # bw/2 > fs/2
        with pytest.raises(ParameterError):
            dsp.design_lowpass(-1.0, 5e6, 100e3)
        with pytest.raises(ParameterError):
            dsp.design_lowpass(4.9e6, 5e6, 200e3)  # transition does not fit
        with pytest.raises(ParameterError):
            dsp.design_lowpass(1e6, 5e6, 0.0)
        with pytest.raises(ParameterError):
            dsp.design_lowpass(1e6, 5e6, 100e3, 7.9)  # below Kaiser's formulas

    def test_max_taps(self):
        taps = dsp.design_lowpass(0.5e6, 10e6, 100e3, 50.0)
        assert np.array_equal(dsp.design_lowpass(0.5e6, 10e6, 100e3, 50.0, max_taps=taps.size), taps)
        with pytest.raises(ParameterError, match=f"needs {taps.size} taps"):
            dsp.design_lowpass(0.5e6, 10e6, 100e3, 50.0, max_taps=taps.size - 1)
        # refused before the about 5e15 taps of a 1e-8 Hz transition are allocated
        with pytest.raises(ParameterError, match="more than the 1000000 allowed"):
            dsp.design_lowpass(1e-7, 10e6, 1e-8, 60.0, max_taps=10**6)

    def test_matches_scipy_kaiserord_firwin_bitwise(self):
        # the design scipy.signal gave before the package stopped importing it
        rng = np.random.default_rng(2024)
        branches = set()
        for _ in range(1200):
            fs = 10 ** rng.uniform(3.0, 8.0)
            bw = fs * 10 ** rng.uniform(-4.0, np.log10(0.9))
            transition = min(0.15 * bw, (fs / 2.0 - bw / 2.0) * 0.9)
            atten = rng.uniform(8.0, 120.0)
            branches.add((atten > 21) + (atten > 50))
            numtaps, beta = sig.kaiserord(atten, transition / (fs / 2.0))
            expected = sig.firwin(numtaps | 1, bw / 2.0, window=("kaiser", beta), fs=fs)
            assert np.array_equal(dsp.design_lowpass(bw, fs, transition, atten), expected)
        assert branches == {0, 1, 2}  # every kaiser_beta branch: <= 21, <= 50, > 50 dB


def direct_channelize(iq, component, guard_factor=1.25, stop_atten_db=60.0):
    """The time-domain channelizer the filter bank replaced, kept as its oracle.

    Mix the whole recording to DC at the full rate, convolve with the Kaiser
    taps (``mode="same"`` compensates the group delay), keep every D-th sample.
    """
    fs = iq.sample_rate_hz
    offset = component.center - iq.center_freq_hz
    bw = min(component.width * guard_factor, fs)
    taps = dsp.design_lowpass(bw, fs, min(0.15 * bw, (fs / 2.0 - bw / 2.0) * 0.9), stop_atten_db)
    x = iq.samples * np.exp(-2j * np.pi * offset / fs * np.arange(len(iq.samples)))
    factor = 1
    while fs / (factor * 2) >= 2.5 * bw:
        factor *= 2
    return sig.fftconvolve(x, taps, mode="same")[::factor], factor


def full_grid_weights(taps, size, distance):
    """The filter bank's subband weights on the full grid, as first written:
    the taps' zero-phase response from an rfft of all ``size`` points, read at
    ``distance`` bins from DC by linear interpolation."""
    response = np.fft.rfft(np.bincount((np.arange(taps.size) - taps.size // 2) % size, taps, size)).real
    return np.interp(distance, np.arange(response.size), response)


class TestChannelize:
    def _component(self, center, width):
        return DetectedComponent(0, 0, center, width, 0.0, 0.0, center)

    @pytest.mark.parametrize(
        "fs, n, width, step",
        [
            (1e6, 40000, 300e3, 1),  # D = 1
            (1e6, 40000, 12e3, 1),  # D = 16, but 1,613 taps need the full grid
            (1e6, 40003, 3e3, 1),  # D = 64, 6,447 taps
            (1e6, 40000, 60e3, 4),  # D = 4: 325 taps fit a 10,000-point grid
            (10e6, 1_000_000, 50e3, 16),  # D = 64, 3,869 taps: a 62,500-point grid
        ],
    )
    def test_response_grid(self, fs, n, width, step):
        bw = width * 1.25
        taps = dsp.design_lowpass(bw, fs, min(0.15 * bw, (fs / 2.0 - bw / 2.0) * 0.9))
        factor = dsp.decimation(fs, bw, n)
        size = -(-n // factor) * factor
        kept = size // factor
        distance = np.abs(np.fft.ifftshift(np.arange(kept) - kept // 2) - 0.37)
        weights = dsp.subband_weights(taps, size, factor, distance)
        # the grid the weights were read from is the one whose formula they match bitwise
        grids = [d for d in 2 ** np.arange(factor.bit_length())
                 if np.array_equal(weights, full_grid_weights(taps, size // d, distance / d))]
        assert grids == [step]
        floor = dsp.RESPONSE_POINTS_PER_TAP * taps.size
        assert step == 1 or size // step >= floor  # never coarser than the floor
        assert step == factor or size // (2 * step) < floor  # and the coarsest above it

    def test_coarse_response_grid_matches_full_grid(self, monkeypatch):
        # D = 64 and a 62,500-point response grid (d = 16): white noise fills the
        # passband and the transition bands, where interpolation errs most
        fs, n = 10e6, 1_000_000
        rng = np.random.default_rng(5)
        iq = rec((rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2), fs, fc=915e6)
        comp = self._component(915e6 + 1.2345e6, 50e3)
        out = dsp.channelize(iq, comp)
        monkeypatch.setattr(dsp, "subband_weights",
                            lambda taps, size, factor, distance: full_grid_weights(taps, size, distance))
        full = dsp.channelize(iq, comp).samples
        want, factor = direct_channelize(iq, comp)
        assert factor == 64
        core = slice(out.transient, len(full) - out.transient)
        rms = np.sqrt(np.mean(np.abs(full[core]) ** 2))
        assert np.max(np.abs(out.samples[core] - full[core])) <= 5e-4 * rms
        assert np.max(np.abs(out.samples[core] - want[core])) <= 5e-3 * rms

    @pytest.mark.parametrize("n", [40000, 40003])
    @pytest.mark.parametrize("sub_bin", [0.0, 0.37])
    @pytest.mark.parametrize("width, factor", [(300e3, 1), (60e3, 4), (12e3, 16), (3e3, 64)])
    def test_matches_direct_channelizer(self, n, sub_bin, width, factor):
        # white noise fills the passband and both transition bands, where a
        # filter centred off the exact offset would show first
        fs = 1e6
        rng = np.random.default_rng(3)
        x = (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2)
        size = -(-n // factor) * factor
        comp = self._component(2.44e9 + (round(200e3 * size / fs) + sub_bin) * fs / size, width)
        iq = rec(x, fs, fc=2.44e9)
        out = dsp.channelize(iq, comp)
        want, want_factor = direct_channelize(iq, comp)
        assert want_factor == factor
        assert out.sample_rate_hz == fs / factor
        assert len(out.samples) == len(want) == -(-n // factor)
        core = slice(out.transient, len(want) - out.transient)
        rms = np.sqrt(np.mean(np.abs(want[core]) ** 2))
        assert np.max(np.abs(out.samples[core] - want[core])) <= 5e-3 * rms

    def test_shared_spectrum_is_bitwise_identical(self):
        fs, n = 1e6, 40000  # a multiple of 64, the largest decimation below
        rng = np.random.default_rng(4)
        iq = rec(rng.normal(size=n) + 1j * rng.normal(size=n), fs)
        shared = dsp.recording_spectrum(iq, 64)
        for width in (300e3, 60e3, 12e3, 3e3):
            comp = self._component(123456.7, width)
            alone = dsp.channelize(iq, comp)
            assert np.array_equal(dsp.channelize(iq, comp, spectrum=shared).samples, alone.samples)
        # a spectrum whose length the decimation does not divide is refused
        odd = rec(rng.normal(size=n + 3) + 0j, fs)
        with pytest.raises(ParameterError):
            dsp.channelize(odd, comp, spectrum=dsp.recording_spectrum(odd, 1))

    def test_inband_tone_survives(self):
        fs, n = 10e6, 40000
        comp = self._component(1e6, 1e6)
        x = tone(fs, n, 1.1e6)  # inside [0.5, 1.5] MHz
        out = dsp.channelize(rec(x, fs), comp, guard_factor=1.25)
        loss_db = 10 * np.log10(np.mean(np.abs(out.samples) ** 2) / 1.0)
        assert abs(loss_db) < 1.0
        assert out.center_freq_hz == pytest.approx(1e6)

    def test_out_of_band_tone_attenuated(self):
        fs, n = 10e6, 40000
        comp = self._component(1e6, 1e6)
        x = tone(fs, n, 3e6)  # 2 bandwidths away
        out = dsp.channelize(rec(x, fs), comp, guard_factor=1.25, stop_atten_db=60.0)
        steady = out.samples[1000:-1000]  # response evaluation: skip edge transients
        atten_db = -10 * np.log10(np.mean(np.abs(steady) ** 2) + 1e-30)
        assert atten_db >= 60.0

    def test_full_band_passthrough(self):
        fs, n = 4e6, 5000
        rng = np.random.default_rng(2)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        comp = self._component(0.0, fs)
        out = dsp.channelize(rec(x, fs), comp, guard_factor=1.0)
        assert out.sample_rate_hz == fs  # no decimation possible
        assert np.allclose(out.samples, x)

    def test_decimation_rate(self):
        fs = 16e6
        comp = self._component(0.0, 1e6)
        x = tone(fs, 64000, 0.2e6)
        out = dsp.channelize(rec(x, fs), comp, guard_factor=1.0)
        # smallest power-of-two-divisor rate >= 2.5 MHz is 16/4 = 4 MHz
        assert out.sample_rate_hz == pytest.approx(4e6)
        assert len(out.samples) == 16000

    def test_decimation_at_most_the_sample_count(self):
        assert dsp.decimation(1e6, 10.0, 10**9) == 2**15  # 1e6 / 2**15 >= 25 Hz
        assert dsp.decimation(1e6, 10.0, 1000) == 512  # the largest power of two <= 1000
        assert dsp.decimation(1e6, 0.0, 1024) == 1024  # a zero passband still ends
        assert dsp.decimation(1e6, 10.0, 0) == 1
        # a 1e-9 Hz channel needs far more taps than its spectrum holds: 3,000
        # samples padded to a multiple of D = 2,048, not of the passband's D = 2**48
        with pytest.raises(ParameterError, match="taps, more than the 4096 allowed"):
            dsp.channelize(rec(np.ones(3000), 1e6), self._component(0.0, 1e-9))

    def test_absolute_center_offsets(self):
        fs = 8e6
        comp = self._component(2.44e9 + 1e6, 1e6)
        x = tone(fs, 30000, 1e6)
        out = dsp.channelize(rec(x, fs, fc=2.44e9), comp, guard_factor=1.25)
        # the tone sits at the component center: mixed to DC
        pw = np.abs(np.fft.fft(out.samples))
        assert int(np.argmax(pw)) == 0

    def test_component_outside_band(self):
        comp = self._component(6e6, 1e6)
        with pytest.raises(ParameterError):
            dsp.channelize(rec(np.ones(1000), 8e6), comp)


class TestPowerEnvelope:
    def test_constant_input(self):
        env, (t0, dt) = dsp.power_envelope(rec(2.0 * np.ones(1000)), smooth_len=10)
        assert np.allclose(env, 10 * np.log10(4.0))
        assert t0 == 0.0
        assert dt == pytest.approx(1e-6)

    def test_burst_run_length(self):
        n, fs = 20000, 1e6
        x = np.zeros(n, dtype=complex)
        x[5000:6000] = 1.0
        env, _ = dsp.power_envelope(rec(x, fs), smooth_len=100)
        above = env > -40.0
        assert 900 <= int(above.sum()) <= 1100

    def test_smooth_one_is_raw_power(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=200) + 1j * rng.normal(size=200)
        env, _ = dsp.power_envelope(rec(x), smooth_len=1)
        assert np.allclose(env, 10 * np.log10(np.abs(x) ** 2))

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            dsp.power_envelope(rec(np.array([])))

    def test_locality(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=2000) + 0j
        b = rng.normal(size=2000) + 0j
        w = 50
        env_cat, _ = dsp.power_envelope(rec(np.concatenate([a, b])), smooth_len=w)
        env_a, _ = dsp.power_envelope(rec(a), smooth_len=w)
        env_b, _ = dsp.power_envelope(rec(b), smooth_len=w)
        assert np.allclose(env_cat[w : 2000 - w], env_a[w : 2000 - w])
        assert np.allclose(env_cat[2000 + w : -w], env_b[w:-w])
