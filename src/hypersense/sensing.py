"""Narrowband sensing and identification methods.

The pipeline runs energy detection, cyclic-profile scanning (the
max over lags of the cyclic autocorrelation) and cyclic-prefix detection
via the sample autocorrelation; ``METHODS`` maps each one's key to the
paper's name.  The paper's other eight methods (matched filtering and
template matching among them: a channel plan cannot carry a template) have
no algorithm here, and selecting one, like any other name, raises
``UnsupportedMethodError``.

Peak extraction on every method's output axis is delegated to the noise
floor detector, so the detection behavior is uniform across axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft
from scipy.special import ndtri

from . import dsp
from .dsp import EPS_POWER, db10
from .errors import (
    DegenerateSpectrumError,
    EmptyInputError,
    InsufficientDataError,
    ParameterError,
    UnsupportedMethodError,
)
from .iqio import IqRecording
from .noisefloor import DetectedComponent, detect

# Margin in dB a peak must clear the estimated floor threshold by before it
# counts as a detection on spiky axes (cyclic profiles, lag profiles).  On
# those axes one bin is a run, and no gap between runs is merged.
PEAK_MARGIN_DB = 6.0
PEAK_MIN_WIDTH_BINS, PEAK_MERGE_GAP_BINS = 1, 0

METHOD_ENERGY = "energy"
METHOD_CYCLO = "cyclo"
METHOD_AUTOCORR = "autocorr"

# the methods a pipeline stage runs, by key, with the paper's names
METHODS = {
    METHOD_ENERGY: "Energy Detection",
    METHOD_CYCLO: "Cyclostationary Feature Detection",
    METHOD_AUTOCORR: "Autocorrelation",
}


def method_key(key_or_name: str) -> str:
    """The key of the method named by its key or paper's name, in any case."""
    wanted = key_or_name.strip().lower()
    for key, name in METHODS.items():
        if wanted in (key, name.lower()):
            return key
    raise UnsupportedMethodError(
        f"sensing method {key_or_name!r} has no pipeline stage; "
        f"the methods are {', '.join(METHODS)}"
    )


@dataclass
class Evidence:
    """Outcome of one sensing method run."""

    method: str
    peaks: list[DetectedComponent]
    statistic: float
    threshold: float
    detected: bool
    flags: list[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)


@dataclass
class CyclicProfile:
    """Max-over-lag cyclic autocorrelation magnitude per cyclic frequency."""

    alpha_grid: np.ndarray   # Hz, strictly increasing
    magnitude_db: np.ndarray
    tau_range: tuple[int, int]


def energy_detect(iq: IqRecording, noise_var: float, pfa: float = 0.05) -> Evidence:
    """Total-energy test with a Gaussian-approximated noise-only threshold."""
    if noise_var <= 0:
        raise ParameterError(f"noise_var must be positive, got {noise_var}")
    if not 0.0 < pfa < 0.5:
        raise ParameterError(f"pfa must be in (0, 0.5), got {pfa}")
    x = np.asarray(iq.samples)
    m = x.size
    if m < 100:
        raise InsufficientDataError(
            f"need >= 100 samples for the Gaussian threshold approximation, got {m}"
        )
    statistic = float(np.sum(np.abs(x) ** 2))
    threshold = m * noise_var - ndtri(pfa) * noise_var * np.sqrt(m)  # ndtri(pfa) = -Q^-1(pfa)
    return Evidence(
        method=METHOD_ENERGY,
        peaks=[],
        statistic=statistic,
        threshold=float(threshold),
        detected=bool(statistic > threshold),
    )


def scan_cyclic(iq: IqRecording, alpha_grid: np.ndarray, tau_range: tuple[int, int]) -> CyclicProfile:
    """Cyclic-line profile over a grid of cyclic frequencies.

    Each grid point reports the strongest line magnitude (max over lags,
    in dB) within its half-step cell, so features between grid points are
    not lost; the underlying resolution is fs / len(recording).  The lags
    are spread over every core the process may run on; the profile does
    not depend on how many there are.
    """
    x = np.asarray(iq.samples)
    if x.size == 0:
        raise EmptyInputError("empty recording")
    alphas = np.asarray(alpha_grid, dtype=float)
    if alphas.size == 0:
        raise ParameterError("empty cyclic-frequency grid")
    if alphas.size > 1 and not np.all(np.diff(alphas) > 0):
        raise ParameterError("cyclic-frequency grid must be strictly increasing")
    fs = iq.sample_rate_hz
    if alphas[0] < 0 or alphas[-1] >= fs / 2.0:
        raise ParameterError("cyclic-frequency grid must lie within [0, fs/2)")
    lo, hi = int(tau_range[0]), int(tau_range[1])
    if lo < 0 or hi < lo or hi >= x.size:
        raise ParameterError(f"bad tau range ({lo}, {hi})")

    T = x.size
    L = sfft.next_fast_len(T)
    step = float(np.min(np.diff(alphas))) if alphas.size > 1 else fs / T
    # each grid point owns the half-step cell around it, in FFT-bin units
    starts = np.round((alphas - step / 2.0) / fs * L).astype(np.int64)
    ends = np.round((alphas + step / 2.0) / fs * L).astype(np.int64)
    starts = np.clip(starts, 0, L - 1)
    ends = np.clip(np.maximum(ends, starts + 1), 1, L - 1)
    idx = np.empty(2 * alphas.size, dtype=np.int64)
    idx[0::2] = starts
    idx[1::2] = ends
    idx = np.maximum.accumulate(idx)

    # only bins idx[0]..idx[-1] fall in a cell; reduce them from a slice
    first, last = int(idx[0]), int(idx[-1])
    cells = idx - first

    # Lags are dealt round-robin to n workers, each keeping its own per-cell
    # maximum; the element-wise max over workers is exact in any order.  They
    # run on the pool shared with components and trials; their buffers are
    # allocated here, so they do not land in the pool threads' malloc arenas.
    n = min(dsp.available_cores(), hi - lo + 1)
    bufs = np.empty((n, L), dtype=np.complex128)
    mags = np.empty((n, last - first + 1))
    best = np.zeros((n, alphas.size))

    def scan_lags(w: int) -> None:
        buf, mag = bufs[w], mags[w]
        for tau in range(lo + w, hi + 1, n):
            # conj(x[tau:]) * x[:T-tau] in this operand order: the complex
            # multiply is not bitwise commutative
            row = buf[: T - tau]
            np.conjugate(x[tau:], out=row)
            np.multiply(row, x[: T - tau], out=row)
            buf[T - tau:] = 0.0
            spectrum = sfft.fft(buf, overwrite_x=True, workers=1)
            np.abs(spectrum[first : last + 1], out=mag)
            np.divide(mag, T, out=mag)
            np.maximum(best[w], np.maximum.reduceat(mag, cells)[0::2], out=best[w])

    dsp.map_on_cores(scan_lags, range(n))
    return CyclicProfile(
        alpha_grid=alphas,
        magnitude_db=db10(best.max(axis=0)),
        tau_range=(lo, hi),
    )


def cyclic_evidence(profile: CyclicProfile, k: float, windows: list[tuple[float, float]]) -> Evidence:
    """Peak extraction on a cyclic profile via the noise floor detector.

    Random-data modulation gives the profile a smooth continuum that slopes
    away from zero, so a single global floor over a wide grid is
    meaningless.  ``windows`` (cyclic-frequency intervals) run the floor
    detector, at level height coefficient ``k``, per interval, where the
    local floor is flat; peaks must clear their local threshold by
    ``PEAK_MARGIN_DB``.  A constant window has no
    level structure and is skipped.  ``statistic`` and ``threshold`` are
    the highest peak and the local threshold of the window whose peak
    clears its threshold by the most; with no usable window both are the
    profile maximum.  The scanned profile is kept in ``extras["profile"]``.
    """
    grid = profile.alpha_grid
    step = float(grid[1] - grid[0]) if grid.size > 1 else 1.0

    strong: list = []
    flags: list[str] = []
    best_margin = -np.inf
    best_stat = best_thr = float(profile.magnitude_db.max())
    for lo, hi in windows:
        sel = np.flatnonzero((grid >= lo - step / 2.0) & (grid <= hi + step / 2.0))
        if sel.size < 2:
            continue
        values = profile.magnitude_db[sel]
        try:
            estimate, comps = detect(values, (float(grid[sel[0]]), step), k,
                                     PEAK_MIN_WIDTH_BINS, PEAK_MERGE_GAP_BINS)
        except DegenerateSpectrumError:  # a constant window has no peaks
            continue
        if estimate.all_tied and "nfspem_tied" not in flags:
            flags.append("nfspem_tied")
        for c in comps:
            # re-anchor run indices onto the full grid
            c.start_index += int(sel[0])
            c.end_index += int(sel[0])
        window_best = max((c.peak_value_db for c in comps), default=estimate.threshold_db)
        if window_best - estimate.threshold_db > best_margin:
            best_margin = window_best - estimate.threshold_db
            best_stat, best_thr = float(window_best), float(estimate.threshold_db)
        strong.extend(
            c for c in comps if c.peak_value_db - estimate.threshold_db >= PEAK_MARGIN_DB
        )
    strong.sort(key=lambda c: c.start_index)
    return Evidence(
        method=METHOD_CYCLO,
        peaks=strong,
        statistic=best_stat,
        threshold=best_thr,
        detected=bool(strong),
        flags=flags,
        extras={"profile": profile},
    )


def sample_autocorrelation(x: np.ndarray, max_lag: int) -> np.ndarray:
    """r(tau) = (1/T) sum_t x(t) conj(x(t+tau)) for tau = 0..max_lag."""
    T = x.size
    L = sfft.next_fast_len(T + max_lag + 1)
    X = sfft.fft(x, L)
    c = sfft.ifft(np.abs(X) ** 2)  # c[tau] = sum_t x(t+tau) conj(x(t))
    return np.conj(c[: max_lag + 1]) / T


def _fold_profile(z: np.ndarray, period: int) -> np.ndarray:
    n_periods = z.size // period
    return np.abs(z[: n_periods * period].reshape(n_periods, period).mean(axis=0))


def _half_prominence_support(profile: np.ndarray) -> int:
    base = float(np.median(profile))
    thr = base + 0.5 * (float(profile.max()) - base)
    above = profile > thr
    if above.all():
        return profile.size
    # longest circular run
    ext = np.concatenate([above, above])
    best = cur = 0
    for v in ext:
        cur = cur + 1 if v else 0
        best = max(best, cur)
    return min(best, profile.size)


def cp_autocorr_detect(iq: IqRecording, lag_range: tuple[int, int], k: float) -> Evidence:
    """Detect repeated-tail structure from the sample autocorrelation.

    A lag peak at u, found by the floor detector at level height
    coefficient ``k``, marks the repeat distance.  The product
    z(t) = x(t) conj(x(t+u)) is coherent only while the repeated segment is
    active, so folding z over candidate periods in (u, 2u] and picking the
    most coherent fold recovers the full symbol period; the prefix length
    is the half-prominence support of the folded magnitude.  Absence of a
    lag peak is a non-detection, not an error.
    """
    x = np.asarray(iq.samples)
    if x.size == 0:
        raise EmptyInputError("empty recording")
    lo, hi = int(lag_range[0]), int(lag_range[1])
    if lo < 1 or hi <= lo or hi >= x.size:
        raise ParameterError(f"bad lag range ({lo}, {hi})")

    r = sample_autocorrelation(x, hi)
    mag_db = db10(np.abs(r[lo:]) ** 2)
    estimate, comps = detect(mag_db, (float(lo), 1.0), k, PEAK_MIN_WIDTH_BINS, PEAK_MERGE_GAP_BINS)
    strong = [c for c in comps if c.peak_value_db - estimate.threshold_db >= PEAK_MARGIN_DB]
    flags = ["nfspem_tied"] if estimate.all_tied else []
    evidence = Evidence(
        method=METHOD_AUTOCORR,
        peaks=strong,
        statistic=float(mag_db.max()),
        threshold=float(estimate.threshold_db),
        detected=bool(strong),
        flags=flags,
    )
    if not strong:
        return evidence

    best = max(strong, key=lambda c: c.peak_value_db)
    seg = mag_db[best.start_index : best.end_index + 1]
    u = lo + best.start_index + int(np.argmax(seg))

    z = x[: x.size - u] * np.conj(x[u:])
    best_period, best_score, best_fold = 0, -np.inf, None
    for period in range(u + 1, 2 * u + 1):
        if z.size // period < 4:
            break
        folded = _fold_profile(z, period)
        score = float(folded.max() / (np.median(folded) + EPS_POWER))
        if score > best_score:
            best_period, best_score, best_fold = period, score, folded
    if best_fold is None:
        evidence.extras["useful_length"] = u
        return evidence

    cp_from_period = best_period - u
    cp_support = _half_prominence_support(best_fold)
    evidence.extras.update(
        {
            "useful_length": int(u),
            "cp_length": int(cp_from_period),
            "symbol_period": int(best_period),
            "cp_support": int(cp_support),
            "useful_s": u / iq.sample_rate_hz,
            "cp_s": cp_from_period / iq.sample_rate_hz,
        }
    )
    return evidence
