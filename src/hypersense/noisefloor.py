"""Noise floor estimation and component extraction.

The estimator partitions a dB-valued sample set (a power spectrum, an
envelope, a cyclic profile) into equal-height quantization levels, locates
the level where the per-level sample counts fall off via a cumulative-sum
change point, and treats everything above that level's upper boundary as
information-bearing.  A second stage extracts contiguous above-threshold
runs as detected components with center/width/power estimates.

The same detector serves wideband sensing (frequency axis), burst
detection (time axis) and peak picking on cyclic-frequency and lag
profiles; each caller passes ``detect`` its axis's settings: the level
height coefficient ``k``, the narrowest run kept, the widest gap merged and
the samples trimmed from each end.  A ``k`` that would split the samples'
range into more than ``MAX_LEVELS`` levels is rejected before any level is
counted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, InsufficientDataError, ParameterError

# Relative slop when snapping a sample onto a level boundary. Keeps the
# "boundary belongs to the lower level" rule stable under float noise.
_BOUNDARY_SNAP = 1e-9

# The most levels one histogram may hold (8 MiB of counts).  At k = 1 a set
# of n samples needs at most ceil(sqrt(2 n)) levels; only a tiny k nears this.
MAX_LEVELS = 1 << 20


@dataclass
class LevelHistogram:
    """Equal-width level occupancy of a dB sample set."""

    counts: np.ndarray         # samples per level, lowest level first
    y_min: float
    level_width: float

    @property
    def level_count(self) -> int:
        return len(self.counts)


@dataclass
class NoiseFloorEstimate:
    """Change level and derived threshold for one histogram."""

    change_level: int          # 1-based level index; levels <= change_level are noise
    threshold_db: float        # upper boundary of the change level
    cusum: np.ndarray          # S_1 .. S_L
    all_tied: bool             # every level equally occupied; threshold is suspect
    level_width: float

    @property
    def level_count(self) -> int:
        return len(self.cusum)

    def summary(self) -> dict:
        """The floor as the report's ``noise_floor`` and ``nfspem`` show it."""
        return {"threshold_db": self.threshold_db, "change_level": self.change_level,
                "level_count": self.level_count, "level_width_db": self.level_width,
                "all_tied": self.all_tied}


@dataclass
class DetectedComponent:
    """One contiguous above-floor run on some axis (Hz, seconds, lags)."""

    start_index: int
    end_index: int             # inclusive
    center: float              # power-weighted centroid in axis units
    width: float               # (end - start + 1) * axis step
    peak_value_db: float
    mean_excess_db: float
    peak_position: float       # axis position of the maximum value


def segment_levels(samples: np.ndarray, k: float = 1.0) -> LevelHistogram:
    """Quantize dB samples into equal-height levels scaled to their spread.

    The level count is ceil(range / (k * sigma)) with sigma the population
    standard deviation, so the level height never exceeds k * sigma.  A
    count above ``MAX_LEVELS`` raises ``ParameterError``.  A sample sitting
    exactly on a boundary belongs to the lower level; the maximum sample
    belongs to the top level.
    """
    y = np.asarray(samples, dtype=float)
    if y.ndim != 1:
        raise ParameterError("samples must be one-dimensional")
    if y.size < 2:
        raise InsufficientDataError(f"need at least 2 samples, got {y.size}")
    if not np.all(np.isfinite(y)):
        raise ParameterError("samples must be finite")
    if not 0.0 < k <= 1.0:
        raise ParameterError(f"k must be in (0, 1], got {k}")

    y_min = float(y.min())
    y_max = float(y.max())
    sigma = float(y.std())  # population (divide by N)
    if sigma == 0.0 or y_max - y_min <= 0.0:
        raise DegenerateSpectrumError("constant input: zero spread")
    # multiplied, not divided: k * sigma may underflow to zero
    if y_max - y_min > MAX_LEVELS * k * sigma:
        raise ParameterError(
            f"k {k!r} is too small: the samples' range needs more than {MAX_LEVELS} levels of k * sigma"
        )

    level_count = max(2, int(np.ceil((y_max - y_min) / (k * sigma))))
    width = (y_max - y_min) / level_count

    # ceil((y - min)/width) maps the half-open level (lower, upper] to its
    # 1-based index; snap near-integer quotients first so exact boundaries
    # survive float rounding.
    q = (y - y_min) / width
    q_round = np.rint(q)
    snap = np.abs(q - q_round) <= _BOUNDARY_SNAP * level_count
    q = np.where(snap, q_round, q)
    idx = np.ceil(q).astype(int)
    idx = np.clip(idx, 1, level_count)

    counts = np.bincount(idx - 1, minlength=level_count).astype(np.int64)
    return LevelHistogram(counts=counts, y_min=y_min, level_width=width)


def cusum_change_point(hist: LevelHistogram) -> NoiseFloorEstimate:
    """Locate the level where counts drop below their running average.

    S_i = S_{i-1} + (m_i - mean count), S_0 = 0.  The change level is the
    smallest index attaining the maximum of S_1..S_{L-1}; S_L telescopes to
    zero identically, so it carries no information and is excluded (a
    top-heavy histogram would otherwise always push the floor to the top).
    Levels 1..i* are noise, levels above are signal.
    """
    counts = np.asarray(hist.counts, dtype=np.int64)
    cusum = np.cumsum(counts - counts.sum() / counts.size)
    change_level = int(np.argmax(cusum[:-1])) + 1  # first occurrence on ties
    threshold_db = hist.y_min + change_level * hist.level_width
    all_tied = bool(np.all(counts == counts[0]))

    return NoiseFloorEstimate(
        change_level=change_level,
        threshold_db=threshold_db,
        cusum=cusum,
        all_tied=all_tied,
        level_width=hist.level_width,
    )


def extract_components(
    samples: np.ndarray,
    axis: tuple[float, float],
    threshold_db: float,
    min_width_bins: int = 3,
    merge_gap_bins: int = 2,
) -> list[DetectedComponent]:
    """Turn runs of samples above ``threshold_db`` into components.

    ``axis`` is (position of sample 0, step) in axis units.  Runs separated
    by at most ``merge_gap_bins`` below-threshold bins are merged, then runs
    narrower than ``min_width_bins`` are dropped.  The component center is
    the linear-power weighted centroid on the axis.
    """
    y = np.asarray(samples, dtype=float)
    axis_start, axis_step = float(axis[0]), float(axis[1])

    mask = y > threshold_db
    if not mask.any():
        return []

    padded = np.concatenate(([False], mask, [False]))
    d = np.diff(padded.astype(np.int8))
    run_starts = np.flatnonzero(d == 1)
    run_ends = np.flatnonzero(d == -1) - 1

    merged: list[list[int]] = []
    for s, e in zip(run_starts, run_ends):
        if merged and s - merged[-1][1] - 1 <= merge_gap_bins:
            merged[-1][1] = int(e)
        else:
            merged.append([int(s), int(e)])

    components = []
    for s, e in merged:
        if e - s + 1 < min_width_bins:
            continue
        seg = y[s : e + 1]
        w = np.power(10.0, seg / 10.0)
        positions = axis_start + axis_step * np.arange(s, e + 1)
        center = float(np.sum(w * positions) / np.sum(w))
        components.append(
            DetectedComponent(
                start_index=s,
                end_index=e,
                center=center,
                width=(e - s + 1) * abs(axis_step),
                peak_value_db=float(seg.max()),
                mean_excess_db=float(np.mean(seg - threshold_db)),
                peak_position=float(axis_start + axis_step * (s + int(np.argmax(seg)))),
            )
        )
    return components


def detect(
    samples: np.ndarray,
    axis: tuple[float, float],
    k: float = 1.0,
    min_width_bins: int = 3,
    merge_gap_bins: int = 2,
    trim: int = 0,
) -> tuple[NoiseFloorEstimate, list[DetectedComponent]]:
    """Full pass: level histogram, change point, component extraction.

    ``k`` scales the level height (``segment_levels``); ``min_width_bins``
    and ``merge_gap_bins`` shape the runs (``extract_components``).  The
    histogram and change point leave out ``trim`` samples at each end
    (unless fewer than two would remain); components come from all samples.
    """
    if not 0.0 < k <= 1.0:
        raise ParameterError(f"k must be in (0, 1], got {k}")
    if min_width_bins < 1:
        raise ParameterError("min_width_bins must be >= 1")
    if merge_gap_bins < 0:
        raise ParameterError("merge_gap_bins must be >= 0")
    core = samples[trim:len(samples) - trim] if len(samples) - 2 * trim >= 2 else samples
    estimate = cusum_change_point(segment_levels(core, k))
    components = extract_components(samples, axis, estimate.threshold_db, min_width_bins, merge_gap_bins)
    return estimate, components
