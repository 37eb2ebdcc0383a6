"""Synthetic scenario generation with exact ground truth.

Each scenario is a sum of channels (PSK bursts, DSSS, OFDM, FSK bursts
with a fixed header, flat-spectrum noise blocks) over complex AWGN.  Every
channel is scaled so that its measured in-band power, projected onto the
channel's nominal band, sits at the requested SNR over the in-band noise
power.  The composer returns the recording together with the occupancy
mask, burst schedule and expected cyclic features that tests and the
evaluation harness treat as ground truth.

Generation is a pure function of the spec: the same spec (including seed)
reproduces the recording bit for bit.  The generators trust the channel
they are given: ``compose_scenario`` checks every value with
``ScenarioSpec.validate`` before any of them runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.fft as sfft

from .errors import InsufficientDataError, ParameterError
from .iqio import IqRecording
from .schema import from_json, load_json

CHANNEL_KINDS = ("psk_burst", "dsss", "ofdm", "fsk_header_burst", "rect_noise")

# the highest noise power (dBW), SNR (dB) or channel power (their sum) a
# scenario may ask for: 10 ** (600 / 10) is far inside float64, and a sample
# amplitude of about sqrt(1e60) leaves cf32 (max 3.4e38) eight orders of
# magnitude for noise peaks and short bursts
MAX_POWER_DB = 600.0


@dataclass
class ChannelSpec:
    """One occupant signal of a scenario."""

    kind: str
    center_freq_hz: float
    snr_db: float
    # psk_burst / fsk_header_burst
    symbol_rate_hz: float = 0.0
    bursts: list[tuple[float, float]] = field(default_factory=list)  # (start_s, duration_s)
    # fsk_header_burst
    header_len_symbols: int = 54
    modulation_index: float = 0.5
    # dsss
    chip_rate_hz: float = 0.0
    chip_shaping: str = "rect"  # or "rrc"
    carrier_count: int = 1
    carrier_spacing_hz: float = 0.0
    # ofdm
    useful_length: int = 64
    cp_length: int = 16
    used_subcarriers: int = 0  # 0 means all
    # rect_noise
    bandwidth_hz: float = 0.0


@dataclass
class ScenarioSpec:
    sample_rate_hz: float
    duration_s: float
    noise_power_dbw: float
    channels: list[ChannelSpec] = field(default_factory=list)
    seed: int = 0
    center_freq_hz: float = 0.0  # RF frequency the baseband origin represents

    def validate(self) -> None:
        """Raise ParameterError for a value out of range; renders nothing."""
        fs = self.sample_rate_hz
        if fs <= 0 or self.duration_s <= 0:
            raise ParameterError("sample rate and duration must be positive")
        if fs * self.duration_s <= 0.5:  # rounds to no sample
            raise ParameterError("scenario shorter than one sample")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.noise_power_dbw > MAX_POWER_DB:
            raise ParameterError(f"noise_power_dbw must be <= {MAX_POWER_DB:g}, got {self.noise_power_dbw:g}")
        for chan in self.channels:
            _validate_channel(chan, fs, self.duration_s, self.noise_power_dbw)


@dataclass
class GroundTruth:
    """What the scenario actually contains, for scoring detections."""

    fft_size: int
    occupancy_mask: np.ndarray          # bool per frequency bin
    burst_intervals: list[list[tuple[int, int]]]  # per channel: (start_sample, length)
    feature_table: list[list[float]]    # per channel: expected cyclic frequencies (Hz)


def nominal_band(chan: ChannelSpec, fs_hz: float) -> tuple[float, float]:
    """The band a channel nominally occupies, used for SNR and the mask."""
    fc = chan.center_freq_hz
    if chan.kind == "psk_burst":
        half = chan.symbol_rate_hz / 2.0
    elif chan.kind == "dsss":
        span = (chan.carrier_count - 1) * chan.carrier_spacing_hz
        half = span / 2.0 + chan.chip_rate_hz / 2.0
    elif chan.kind == "ofdm":
        used = chan.used_subcarriers or chan.useful_length
        half = used * (fs_hz / chan.useful_length) / 2.0
    elif chan.kind == "fsk_header_burst":
        half = (1.0 + chan.modulation_index) * chan.symbol_rate_hz / 2.0
    elif chan.kind == "rect_noise":
        half = chan.bandwidth_hz / 2.0
    else:
        raise ParameterError(f"unknown channel kind {chan.kind!r}")
    return (fc - half, fc + half)


def expected_features(chan: ChannelSpec, fs_hz: float) -> list[float]:
    """Cyclic frequencies the channel is built to exhibit."""
    if chan.kind == "dsss":
        feats = [chan.chip_rate_hz]
        feats += [j * chan.carrier_spacing_hz for j in range(1, chan.carrier_count)]
        return feats
    if chan.kind == "fsk_header_burst":
        return [chan.symbol_rate_hz]
    if chan.kind == "ofdm":
        return [fs_hz / (chan.useful_length + chan.cp_length)]
    return []


def _validate_channel(chan: ChannelSpec, fs: float, duration: float, noise_dbw: float) -> None:
    if chan.kind not in CHANNEL_KINDS:
        raise ParameterError(f"unknown channel kind {chan.kind!r}")
    if chan.useful_length < 1 or chan.cp_length < 0:
        raise ParameterError("useful_length must be >= 1 and cp_length >= 0")
    if not 0 <= chan.used_subcarriers <= chan.useful_length:
        raise ParameterError("used_subcarriers must be in [0, useful_length]")
    if chan.carrier_spacing_hz < 0:
        raise ParameterError(f"carrier_spacing_hz must be >= 0, got {chan.carrier_spacing_hz:g}")
    if max(chan.snr_db, noise_dbw + chan.snr_db) > MAX_POWER_DB:
        raise ParameterError(
            f"snr_db {chan.snr_db:g} over noise_power_dbw {noise_dbw:g} exceeds {MAX_POWER_DB:g} dB"
        )
    lo, hi = nominal_band(chan, fs)
    if not -fs / 2.0 <= lo <= hi <= fs / 2.0:
        raise ParameterError(
            f"{chan.kind} band [{lo:g}, {hi:g}] is not inside the scenario band +-{fs/2:g}"
        )
    if chan.kind == "psk_burst" and chan.symbol_rate_hz <= 0:
        raise ParameterError("psk_burst needs symbol_rate_hz > 0")
    if chan.kind == "fsk_header_burst":
        if chan.symbol_rate_hz <= 0 or chan.symbol_rate_hz > fs / 2.0:
            raise ParameterError("fsk symbol rate must be in (0, fs/2]")
        if chan.header_len_symbols < 1:
            raise ParameterError("header_len_symbols must be >= 1")
        if not chan.bursts:
            raise ParameterError("fsk_header_burst needs at least one burst")
    if chan.kind == "dsss":
        if chan.chip_rate_hz <= 0 or chan.chip_rate_hz > fs / 2.0:
            raise ParameterError("chip rate must be in (0, fs/2]")
        if chan.carrier_count < 1:
            raise ParameterError("carrier_count must be >= 1")
        if chan.chip_shaping not in ("rect", "rrc"):
            raise ParameterError(f"unknown chip shaping {chan.chip_shaping!r}")
    if chan.kind == "ofdm" and chan.cp_length >= chan.useful_length:
        raise ParameterError("cp_length must be shorter than useful_length")
    if chan.kind == "rect_noise" and chan.bandwidth_hz <= 0:
        raise ParameterError("rect_noise needs bandwidth_hz > 0")
    intervals = sorted(chan.bursts)
    for i, (start, dur) in enumerate(intervals):
        if start < 0 or dur <= 0 or start + dur > duration:
            raise ParameterError(
                f"burst ({start:g}s + {dur:g}s) falls outside the {duration:g}s scenario"
            )
        if i and start < sum(intervals[i - 1]):
            raise ParameterError("burst intervals overlap")


def gen_awgn(n: int, power_dbw: float, rng: np.random.Generator) -> np.ndarray:
    """Circularly-symmetric complex white Gaussian noise at the given power."""
    if n < 1:
        raise InsufficientDataError("sample count must be >= 1")
    x = np.empty(n, dtype=np.complex128)
    x.real = rng.standard_normal(n)
    x.imag = rng.standard_normal(n)
    x *= np.sqrt(10.0 ** (power_dbw / 10.0) / 2.0)
    return x


def _rrc_taps(sps: int, beta: float = 0.35, span: int = 8) -> np.ndarray:
    n = np.arange(-span * sps, span * sps + 1) / sps
    taps = np.zeros_like(n)
    for i, t in enumerate(n):
        if abs(t) < 1e-12:
            taps[i] = 1.0 - beta + 4 * beta / np.pi
        elif beta > 0 and abs(abs(4 * beta * t) - 1.0) < 1e-9:
            taps[i] = (beta / np.sqrt(2)) * (
                (1 + 2 / np.pi) * np.sin(np.pi / (4 * beta))
                + (1 - 2 / np.pi) * np.cos(np.pi / (4 * beta))
            )
        else:
            num = np.sin(np.pi * t * (1 - beta)) + 4 * beta * t * np.cos(np.pi * t * (1 + beta))
            den = np.pi * t * (1 - (4 * beta * t) ** 2)
            taps[i] = num / den
    return taps / np.sqrt(np.sum(taps**2))


def _chip_wave(n: int, fs: float, rate: float, symbols: np.ndarray, shaping: str) -> np.ndarray:
    """Hold each symbol for fs/rate samples (fractional rates allowed)."""
    idx = np.minimum((np.arange(n) * rate / fs).astype(np.int64), len(symbols) - 1)
    wave = symbols[idx].astype(np.complex128)
    if shaping == "rrc":
        sps = max(2, int(round(fs / rate)))
        taps = _rrc_taps(sps)
        from scipy.signal import fftconvolve

        wave = fftconvolve(wave, taps, mode="same")
    return wave


def gen_dsss(chan: ChannelSpec, fs: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """BPSK chip stream replicated on carrier_count carriers.

    The same chips ride every carrier, so multi-carrier scenarios show
    strong cyclic lines at the carrier spacing and its multiples on top of
    the chip-rate line.
    """
    n_chips = int(np.ceil(n * chan.chip_rate_hz / fs)) + 1
    chips = 2.0 * rng.integers(0, 2, n_chips) - 1.0
    base = _chip_wave(n, fs, chan.chip_rate_hz, chips, chan.chip_shaping)
    t = np.arange(n) / fs
    out = np.zeros(n, dtype=np.complex128)
    for c in range(chan.carrier_count):
        f_c = (c - (chan.carrier_count - 1) / 2.0) * chan.carrier_spacing_hz
        out += base * np.exp(2j * np.pi * f_c * t)
    return out


def gen_ofdm(chan: ChannelSpec, fs: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Random-QPSK OFDM symbols with a cyclic prefix."""
    useful, cp = chan.useful_length, chan.cp_length
    used = chan.used_subcarriers or useful
    period = useful + cp
    n_sym = int(np.ceil(n / period))
    qpsk = (
        rng.choice([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], size=(n_sym, useful)) / np.sqrt(2)
    )
    if used < useful:
        # keep the `used` central subcarriers (split across positive/negative bins)
        keep = np.zeros(useful, dtype=bool)
        half = used // 2
        keep[1 : 1 + half] = True
        keep[useful - (used - half) :] = True
        qpsk[:, ~keep] = 0.0
    blocks = np.fft.ifft(qpsk, axis=1) * np.sqrt(useful**2 / max(used, 1))
    with_cp = np.concatenate([blocks[:, useful - cp :], blocks], axis=1) if cp else blocks
    return with_cp.reshape(-1)[:n]


def _burst_slices(
    bursts: list[tuple[float, float]], fs: float, n: int
) -> list[tuple[int, int]]:
    out = []
    for start_s, dur_s in sorted(bursts):
        start = int(round(start_s * fs))
        length = int(round(dur_s * fs))
        if start < 0 or length < 1 or start + length > n:
            raise ParameterError("burst schedule exceeds the recording")
        out.append((start, length))
    return out


def _cpfsk(bits: np.ndarray, fs: float, rate: float, h: float, n: int) -> np.ndarray:
    idx = np.minimum((np.arange(n) * rate / fs).astype(np.int64), len(bits) - 1)
    freq = (2.0 * bits[idx] - 1.0) * (h * rate / 2.0)
    phase = 2.0 * np.pi * np.cumsum(freq) / fs
    return np.exp(1j * phase)


def gen_fsk_header_burst(
    chan: ChannelSpec, fs: float, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Binary CPFSK bursts, each opening with the scenario's fixed header.

    Returns the waveform and the realized (start_sample, length) list.
    The header bit pattern is drawn once per channel and reused by every
    burst; payload bits are fresh per burst.
    """
    header = rng.integers(0, 2, chan.header_len_symbols)
    out = np.zeros(n, dtype=np.complex128)
    slices = _burst_slices(chan.bursts, fs, n)
    for start, length in slices:
        n_sym = int(np.ceil(length * chan.symbol_rate_hz / fs)) + 1
        payload = rng.integers(0, 2, max(n_sym - len(header), 0))
        bits = np.concatenate([header, payload])[:n_sym]
        out[start : start + length] = _cpfsk(
            bits, fs, chan.symbol_rate_hz, chan.modulation_index, length
        )
    return out, slices


def gen_psk_burst(
    chan: ChannelSpec, fs: float, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Rectangular-pulse QPSK, gated by the burst schedule (or continuous)."""
    slices = _burst_slices(chan.bursts, fs, n) if chan.bursts else [(0, n)]
    out = np.zeros(n, dtype=np.complex128)
    for start, length in slices:
        n_sym = int(np.ceil(length * chan.symbol_rate_hz / fs)) + 1
        syms = rng.choice([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], size=n_sym) / np.sqrt(2)
        out[start : start + length] = _chip_wave(
            length, fs, chan.symbol_rate_hz, syms, "rect"
        )
    return out, slices


def _band_bins(band: tuple[float, float], fs: float, n: int) -> list[slice]:
    """The bins of ``(f >= lo) & (f < hi)``, ``f = np.fft.fftfreq(n, 1 / fs)``, as slices.

    Bin k sits at ``k * step`` as in ``fftfreq``, rising with k, so the band
    is one run of k, split in two (in array order) where it crosses 0 Hz.
    """
    step = 1.0 / (n * (1.0 / fs))
    k_min, k_max = -(n // 2), (n - 1) // 2

    def first_at_or_above(edge: float) -> int:
        k = math.ceil(min(max(edge / step, k_min), k_max + 1))
        while k > k_min and (k - 1) * step >= edge:
            k -= 1
        while k <= k_max and k * step < edge:
            k += 1
        return k

    lo = first_at_or_above(band[0])
    hi = max(first_at_or_above(band[1]), lo)
    runs = [slice(max(lo, 0), max(hi, 0)), slice(n + min(lo, 0), n + min(hi, 0))]
    return [run for run in runs if run.stop > run.start]


def _rect_coefficients(bins: list[slice], n: int, rng: np.random.Generator) -> np.ndarray:
    """Frequency-domain coefficients of a flat channel on its band's ``bins``.

    Independent Gaussian coefficients, in the bins' array order, the same
    process as masking white noise; unit mean power.
    """
    m = sum(run.stop - run.start for run in bins)
    coeff = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2)
    # unit mean power after the inverse transform (Parseval)
    return coeff * (n / np.sqrt(m))


def _inband_power(x: np.ndarray, bins: list[slice]) -> float:
    spec = sfft.fft(x)
    return float(np.sum(np.abs(np.concatenate([spec[run] for run in bins])) ** 2) / x.size**2)


def compose_scenario(
    spec: ScenarioSpec, fft_size: int = 1024
) -> tuple[IqRecording, GroundTruth]:
    """Render the scenario and its ground truth.

    Channel power is calibrated by projection: each waveform is scaled so
    its measured power inside the nominal band equals snr * (noise power
    falling in that band).  A channel whose band holds no bin of the
    recording's DFT has no power to measure and raises ``ParameterError``.
    """
    spec.validate()
    if fft_size < 1:
        raise ParameterError(f"fft_size must be >= 1, got {fft_size}")
    fs = spec.sample_rate_hz
    n = int(round(fs * spec.duration_s))

    root = np.random.SeedSequence(spec.seed)
    streams = root.spawn(len(spec.channels) + 1)
    noise_rng = np.random.default_rng(streams[0])
    noise_power = 10.0 ** (spec.noise_power_dbw / 10.0)
    x = gen_awgn(n, spec.noise_power_dbw, noise_rng)

    step = fs / fft_size
    bin_centers = -fs / 2.0 + step * np.arange(fft_size)
    mask = np.zeros(fft_size, dtype=bool)
    burst_intervals: list[list[tuple[int, int]]] = []
    feature_table: list[list[float]] = []

    # flat-spectrum channels are accumulated in the frequency domain and
    # rendered with a single transform; the other kinds are time-domain
    rect_spectrum = np.zeros(n, dtype=np.complex128) if any(
        ch.kind == "rect_noise" for ch in spec.channels
    ) else None

    for ci, chan in enumerate(spec.channels):
        rng = np.random.default_rng(streams[ci + 1])
        intervals: list[tuple[int, int]] = [(0, n)]
        band = nominal_band(chan, fs)
        bins = _band_bins(band, fs, n)
        if not bins:
            raise ParameterError(
                f"{chan.kind} band [{band[0]:g}, {band[1]:g}] holds no bin of the {n}-point DFT"
            )
        noise_inband = noise_power * (band[1] - band[0]) / fs
        target = 10.0 ** (chan.snr_db / 10.0) * noise_inband

        if chan.kind == "rect_noise":
            coeff = _rect_coefficients(bins, n, rng)
            measured = float(np.sum(np.abs(coeff) ** 2)) / n**2  # Parseval
            coeff *= np.sqrt(target / measured)
            for run in bins:
                rect_spectrum[run] += coeff[: run.stop - run.start]
                coeff = coeff[run.stop - run.start :]
        else:
            if chan.kind == "psk_burst":
                base, intervals = gen_psk_burst(chan, fs, n, rng)
            elif chan.kind == "dsss":
                base = gen_dsss(chan, fs, n, rng)
            elif chan.kind == "ofdm":
                base = gen_ofdm(chan, fs, n, rng)
            else:
                base, intervals = gen_fsk_header_burst(chan, fs, n, rng)
            # base is zero outside its spans, so only they are mixed and added
            spans = [slice(start, start + length) for start, length in intervals]
            if chan.center_freq_hz != 0.0:
                for span in spans:
                    t = np.arange(span.start, span.stop) / fs
                    base[span] *= np.exp(2j * np.pi * chan.center_freq_hz * t)
            scale = np.sqrt(target / _inband_power(base, bins))
            for span in spans:
                x[span] += base[span] * scale

        mask |= (bin_centers >= band[0]) & (bin_centers < band[1])
        burst_intervals.append(intervals)
        feature_table.append(expected_features(chan, fs))

    if rect_spectrum is not None:
        x += np.fft.ifft(rect_spectrum)

    rec = IqRecording(samples=x, sample_rate_hz=fs, center_freq_hz=spec.center_freq_hz)
    truth = GroundTruth(
        fft_size=fft_size,
        occupancy_mask=mask,
        burst_intervals=burst_intervals,
        feature_table=feature_table,
    )
    return rec, truth


# -- scenario / ground truth serialization ----------------------------------

def scenario_from_dict(data: dict) -> ScenarioSpec:
    """Build and check a spec from parsed JSON; ``ParameterError`` if malformed."""
    spec = from_json(ScenarioSpec, data, "bad scenario config")
    spec.validate()
    return spec


def load_scenario(path: str | Path) -> ScenarioSpec:
    return scenario_from_dict(load_json(path, "scenario config"))


def truth_to_dict(truth: GroundTruth) -> dict:
    return {
        "fft_size": truth.fft_size,
        "occupancy_mask": [int(b) for b in truth.occupancy_mask],
        "burst_intervals": [
            [[int(s), int(l)] for s, l in ch] for ch in truth.burst_intervals
        ],
        "feature_table": [[float(f) for f in ch] for ch in truth.feature_table],
    }

