"""Spectral estimation, channelization and envelope computation.

Everything here but ``available_cores`` and ``map_on_cores``, whose one pool
runs components, cyclic-scan lags, trials and Welch's segment blocks, is a
pure function.  Power quantities are floored at ``EPS_POWER`` before dB
conversion so downstream level segmentation never sees -inf.  The channelizer
is a fast-convolution filter bank: one FFT of the recording, padded to a
multiple of the config's largest decimation, serves every channel, each
filtered circularly on it and inverse-transformed at its decimated length,
scaled 1/D.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy.special import i0

from .errors import InsufficientDataError, ParameterError
from .iqio import IqRecording
from .noisefloor import DetectedComponent

EPS_POWER = 1e-30
# the channelizer's response grid keeps at least this many points per tap
RESPONSE_POINTS_PER_TAP = 16

WINDOWS = ("hann", "hamming", "rect")
# Welch's segments per pool item: a trial's 64-192 segments stay one block
WELCH_BLOCK_ROWS = 256


def available_cores() -> int:
    """Cores this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_pool = ThreadPoolExecutor(max(1, available_cores() - 1), "hypersense-pool")


def _run_held(held: list) -> None:
    for work in held[:1]:
        work()


def map_on_cores(fn, items) -> list:
    """``[fn(x) for x in items]``, computed by the calling thread and the one
    process-wide pool of ``available_cores() - 1`` threads (started on use).

    Each thread claims the next unclaimed item; an exception or an interrupt
    stops further claims and reaches the caller.  The caller, out of items,
    cancels the pool tasks not yet started and waits only on those that have,
    so a call made from inside a pool task cannot deadlock.
    """
    items = list(items)
    results = [None] * len(items)
    claims = itertools.count()  # next() on it is atomic under the GIL
    failed = False

    def work() -> None:
        nonlocal failed
        try:
            while not failed and (i := next(claims)) < len(items):
                results[i] = fn(items[i])
        except BaseException:
            failed = True
            raise

    # a pool task reaches ``work`` only through ``held``, emptied on return, so
    # a task still queued then (cancelled) keeps nothing of this call alive
    held = [work]
    futures = [_pool.submit(_run_held, held) for _ in range(min(available_cores(), len(items)) - 1)]
    try:
        work()
    finally:
        held.clear()
        started = [f for f in futures if not f.cancel()]
        wait(started)
    for future in started:
        future.result()  # re-raises a pool thread's exception
    return results


def db10(p: np.ndarray | float) -> np.ndarray | float:
    """Power to dB with the epsilon floor."""
    return 10.0 * np.log10(np.maximum(p, EPS_POWER))


@dataclass
class PowerSpectrum:
    """Averaged periodogram in dB over a baseband frequency axis."""

    values_db: np.ndarray
    freq_start_hz: float
    freq_step_hz: float
    averaging_count: int

    @property
    def freqs_hz(self) -> np.ndarray:
        return self.freq_start_hz + self.freq_step_hz * np.arange(self.values_db.size)


def _window(kind: str, n: int) -> np.ndarray:
    if kind == "hann":
        return np.hanning(n)
    if kind == "hamming":
        return np.hamming(n)
    if kind == "rect":
        return np.ones(n)
    raise ParameterError(f"unknown window {kind!r}, expected one of {WINDOWS}")


def welch_psd(
    iq: IqRecording,
    fft_size: int = 1024,
    window: str = "hann",
    overlap: float = 0.5,
) -> PowerSpectrum:
    """Averaged, window-compensated periodogram in dB.

    Scaling is such that the mean of the linear-domain spectrum equals the
    mean input power (exactly so for the rectangular window).  The axis is
    baseband, ordered -fs/2 upward in steps of fs/fft_size.  The segments are
    transformed in blocks of ``WELCH_BLOCK_ROWS`` on ``map_on_cores``; the
    periodograms are averaged in one reduction in segment order, so the result
    does not depend on the blocks or the core count.
    """
    if fft_size < 8 or fft_size & (fft_size - 1):
        raise ParameterError(f"fft_size must be a power of two >= 8, got {fft_size}")
    if not 0.0 <= overlap < 1.0:
        raise ParameterError(f"overlap must be in [0, 1), got {overlap}")
    x = np.asarray(iq.samples)
    if x.size < fft_size:
        raise InsufficientDataError(
            f"recording has {x.size} samples, need at least fft_size={fft_size}"
        )
    w = _window(window, fft_size)
    hop = max(1, int(round(fft_size * (1.0 - overlap))))
    n_seg = (x.size - fft_size) // hop + 1
    segs = np.lib.stride_tricks.sliding_window_view(x, fft_size)[::hop][:n_seg]
    power = np.empty((n_seg, fft_size))

    def periodograms(lo: int) -> None:
        rows = power[lo : lo + WELCH_BLOCK_ROWS]
        spec = scipy.fft.fft(segs[lo : lo + len(rows)] * w, axis=1, overwrite_x=True, workers=1)
        np.square(np.abs(spec, out=rows), out=rows)

    map_on_cores(periodograms, range(0, n_seg, WELCH_BLOCK_ROWS))
    p = np.mean(power, axis=0) / np.sum(w**2)
    p = np.fft.fftshift(p)
    fs = iq.sample_rate_hz
    return PowerSpectrum(
        values_db=db10(p),
        freq_start_hz=-fs / 2.0,
        freq_step_hz=fs / fft_size,
        averaging_count=int(n_seg),
    )


def design_lowpass(
    bw_hz: float,
    fs_hz: float,
    transition_hz: float,
    stop_atten_db: float = 60.0,
    max_taps: int | None = None,
) -> np.ndarray:
    """Taps of a Kaiser-windowed linear-phase FIR passing [-bw/2, bw/2].

    The taps are real and of odd length (type I, symmetric).  A passband
    covering the whole representable band degenerates to the identity
    filter ``[1.0]``.  Kaiser's order and beta formulas for A =
    ``stop_atten_db`` and a transition of w (a fraction of Nyquist), as
    Oppenheim & Schafer give them: N = ceil((A - 7.95) / (2.285 pi w)) + 1
    taps (made odd), beta = 0.1102 (A - 8.7) above 50 dB, 0.5842 (A - 21)^0.4
    + 0.07886 (A - 21) above 21 dB, else 0.  The ideal lowpass sinc times the
    window, scaled to unit DC gain, matches ``scipy.signal.firwin`` fed by
    ``scipy.signal.kaiserord`` bit for bit.  A design of more than
    ``max_taps`` taps is a ParameterError, raised before any allocation.
    """
    if bw_hz <= 0:
        raise ParameterError(f"bandwidth must be positive, got {bw_hz}")
    if bw_hz > fs_hz:
        raise ParameterError(
            f"bandwidth {bw_hz:g} Hz does not fit inside (+-{fs_hz / 2.0:g}) Hz"
        )
    if bw_hz >= fs_hz * (1.0 - 2e-9):
        return np.array([1.0])
    if transition_hz <= 0:
        raise ParameterError(f"transition width must be positive, got {transition_hz}")
    if not stop_atten_db >= 8.0:
        raise ParameterError(f"stop_atten_db must be >= 8 for Kaiser's formulas, got {stop_atten_db}")
    nyq = fs_hz / 2.0
    if bw_hz / 2.0 + transition_hz >= nyq:
        raise ParameterError("transition band does not fit inside the Nyquist band")

    a = stop_atten_db
    if a > 50:
        beta = 0.1102 * (a - 8.7)
    elif a > 21:
        beta = 0.5842 * (a - 21) ** 0.4 + 0.07886 * (a - 21)
    else:
        beta = 0.0
    numtaps = math.ceil((a - 7.95) / 2.285 / (np.pi * (transition_hz / nyq)) + 1) | 1
    if max_taps is not None and numtaps > max_taps:
        raise ParameterError(
            f"a {transition_hz:g} Hz transition needs {numtaps} taps, more than the {max_taps} allowed"
        )
    half = (numtaps - 1) / 2.0
    m = np.arange(numtaps, dtype=float) - half
    cutoff = bw_hz / 2.0 / nyq
    h = cutoff * np.sinc(cutoff * m) * (i0(beta * np.sqrt(1 - (m / half) ** 2.0)) / i0(beta))
    return h / h.sum()


def decimation(fs_hz: float, passband_hz: float, sample_count: int) -> int:
    """Largest power of two D whose output rate fs/D is still >= 2.5x the
    passband, and which leaves at least one of ``sample_count`` samples (D <= n,
    so a spectrum padded to a multiple of D is shorter than 2n)."""
    factor = 1
    while factor * 2 <= sample_count and fs_hz / (factor * 2) >= 2.5 * passband_hz:
        factor *= 2
    return factor


def recording_spectrum(iq: IqRecording, factor: int) -> np.ndarray:
    """FFT of the samples zero-padded to a multiple of ``factor`` points; it
    serves every channel whose (power-of-two) decimation divides ``factor``."""
    return scipy.fft.fft(iq.samples, -(-len(iq.samples) // factor) * factor)


def subband_weights(taps: np.ndarray, size: int, factor: int, distance: np.ndarray) -> np.ndarray:
    """Zero-phase response of the odd-length ``taps`` ``distance`` bins from DC
    on a size-point DFT grid.

    The response is taken on a size/d grid and read at distance/d by linear
    interpolation, d the largest power of two dividing ``factor`` that leaves
    the grid ``RESPONSE_POINTS_PER_TAP`` points per tap (d = 1: the full grid).
    """
    step = factor
    while step > 1 and size // step < RESPONSE_POINTS_PER_TAP * taps.size:
        step //= 2
    grid = size // step
    # the taps centred on sample 0 and folded onto the grid are real and even,
    # so their spectrum is the real, even zero-phase response
    response = np.fft.rfft(np.bincount((np.arange(taps.size) - taps.size // 2) % grid, taps, grid)).real
    return np.interp(distance / step, np.arange(response.size), response)


def _circular_slice(a: np.ndarray, start: int, count: int) -> np.ndarray:
    """``a[(start + arange(count)) % a.size]`` for count <= a.size, from at most two slices."""
    start %= a.size
    if start + count <= a.size:
        return a[start : start + count]
    return np.concatenate((a[start:], a[: start + count - a.size]))


def channelize(
    iq: IqRecording,
    component: DetectedComponent,
    guard_factor: float = 1.25,
    stop_atten_db: float = 60.0,
    spectrum: np.ndarray | None = None,
) -> IqRecording:
    """Isolate one detected component: shift to DC, lowpass, decimate.

    ``component.center`` is an absolute frequency; the baseband offset is
    taken against the recording's center frequency.  The passband is the
    component width times ``guard_factor``.  Decimation keeps the largest
    power-of-two divisor D whose output rate is still >= 2.5x the passband.

    A fast-convolution filter bank (Harris, Dick & Rice 2003; Renfors,
    Yli-Kaakinen & Harris 2014) on the N-point ``recording_spectrum``, which
    callers may share: the N/D bins around the offset are weighted by the
    taps' zero-phase response at each bin's distance from the offset,
    inverse-transformed at length N/D and scaled by 1/D.  The response is
    read with linear interpolation from an N/d grid of at least 16·numtaps
    points (d | D; d = 1, the full grid, when N is shorter), see
    ``subband_weights``.  Filtering is circular: the capture's ends leak into
    each other over ``transient`` output samples.  The output has ceil(n/D)
    samples at fs/D, D <= n.  A filter of more taps than the spectrum has
    points is a ParameterError.
    """
    if guard_factor <= 0:
        raise ParameterError("guard_factor must be positive")
    fs = iq.sample_rate_hz
    offset = component.center - iq.center_freq_hz
    if abs(offset) > fs / 2.0:
        raise ParameterError(
            f"component center {component.center:g} Hz outside the recording band"
        )
    bw = min(component.width * guard_factor, fs)
    transition = min(0.15 * bw, (fs / 2.0 - bw / 2.0) * 0.9)
    factor = decimation(fs, bw, len(iq.samples))
    if spectrum is None:
        spectrum = recording_spectrum(iq, factor)
    size = spectrum.size
    if size % factor or size < len(iq.samples):
        raise ParameterError(f"a {size}-point spectrum does not serve decimation by {factor}")
    taps = design_lowpass(bw, fs, transition, stop_atten_db, max_taps=size)
    kept = size // factor
    high = kept - kept // 2  # bins 0 .. high-1 above the offset, then kept//2 below it
    bins = np.fft.ifftshift(np.arange(kept) - kept // 2)  # FFT order around DC
    k0 = int(round(offset * size / fs))
    delta = offset * size / fs - k0  # the offset's sub-bin remainder, in bins
    weights = subband_weights(taps, size, factor, np.abs(bins - delta))
    y = np.empty(kept, spectrum.dtype)
    y[:high] = _circular_slice(spectrum, k0, high)
    y[high:] = _circular_slice(spectrum, k0 - kept // 2, kept // 2)
    y *= weights
    del bins, weights  # components run at once: keep each one's transients short
    y = scipy.fft.ifft(y, overwrite_x=True)[: -(-len(iq.samples) // factor)]
    y /= factor
    y *= np.exp(-2j * np.pi * delta * factor / size * np.arange(y.size))
    return IqRecording(
        samples=y,
        sample_rate_hz=fs / factor,
        center_freq_hz=component.center,
        description=iq.description,
        transient=-(-(taps.size // 2) // factor),
    )


def power_envelope(
    iq: IqRecording, smooth_len: int = 1
) -> tuple[np.ndarray, tuple[float, float]]:
    """Moving-average instantaneous power in dB, with its time axis.

    Returns ``(values_db, (t0, dt))``; dt is the sample period.  Edges use
    nearest-sample extension, so only the first/last smooth_len samples
    deviate from the interior average.
    """
    x = np.asarray(iq.samples)
    if x.size == 0:
        raise InsufficientDataError("empty recording")
    if smooth_len < 1:
        raise ParameterError(f"smooth_len must be >= 1, got {smooth_len}")
    p = np.abs(x) ** 2
    if smooth_len > 1:
        from scipy.ndimage import uniform_filter1d

        p = uniform_filter1d(p, size=smooth_len, mode="nearest")
    return db10(p), (0.0, 1.0 / iq.sample_rate_hz)
