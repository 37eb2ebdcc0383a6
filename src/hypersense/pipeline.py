"""End-to-end identification: spectrum, floor, per-component narrowband work.

Stages: Welch spectrum, beside the one recording FFT that every channel
shares (padded to a multiple of the config's largest decimation) ->
noise-floor detection -> per-component plan matching -> channelization ->
optional burst detection -> selected sensing method -> verdict.  The front
end's two transforms, then the components, run independently and at once on
the one pool of ``dsp.map_on_cores`` that also runs scan lags and trials; a
failing component records its error and leaves the others untouched.  Reports
are deterministic for identical inputs, whatever the core count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len

from . import classify, sensing
from .dsp import WINDOWS, PowerSpectrum, channelize, decimation, map_on_cores, power_envelope, recording_spectrum, welch_psd
from .errors import DegenerateSpectrumError, InsufficientDataError, ParameterError
from .iqio import IqRecording
from .noisefloor import DetectedComponent, NoiseFloorEstimate, detect
from .schema import dump_json, from_json

@dataclass
class PipelineConfig:
    fft_size: int = 1024
    window: str = "hann"
    overlap: float = 0.5
    floor_k: float = 1.0
    floor_min_width_bins: int = 3
    floor_merge_gap_bins: int = 2
    guard_factor: float = 1.25
    stop_atten_db: float = 60.0
    burst_detection: str = "auto"  # auto | on | off
    envelope_smooth_len: int = 128
    cyclic_step_hz: float = 10e3
    # upper cap only: the cyclic scan's last lag is the smallest of this,
    # ceil(2 * channel rate / smallest cyclic line) and a quarter of the channel
    tau_max: int = 256
    peak_k: float = 1.0
    energy_pfa: float = 0.05

    def to_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        cfg = from_json(cls, data, "pipeline config")
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Raise ParameterError for the first field out of range (types are checked by ``from_json``)."""
        ranges = (
            ("fft_size", self.fft_size >= 8 and not self.fft_size & (self.fft_size - 1),
             "a power of two >= 8"),
            ("window", self.window in WINDOWS, f"one of {WINDOWS}"),
            ("overlap", 0.0 <= self.overlap < 1.0, "in [0, 1)"),
            ("floor_k", 0.0 < self.floor_k <= 1.0, "in (0, 1]"),
            ("floor_min_width_bins", self.floor_min_width_bins >= 1, ">= 1"),
            ("floor_merge_gap_bins", self.floor_merge_gap_bins >= 0, ">= 0"),
            ("guard_factor", self.guard_factor > 0.0, "> 0"),
            # the Kaiser window formula has no design below 8 dB
            ("stop_atten_db", self.stop_atten_db >= 8.0, ">= 8"),
            ("burst_detection", self.burst_detection in ("auto", "on", "off"),
             "one of auto, on, off"),
            ("envelope_smooth_len", self.envelope_smooth_len >= 1, ">= 1"),
            ("cyclic_step_hz", self.cyclic_step_hz > 0.0, "> 0"),
            ("tau_max", self.tau_max >= 0, ">= 0"),
            ("peak_k", 0.0 < self.peak_k <= 1.0, "in (0, 1]"),
            ("energy_pfa", 0.0 < self.energy_pfa < 0.5, "in (0, 0.5)"),
        )
        for name, ok, domain in ranges:
            if not ok:
                raise ParameterError(
                    f"pipeline config field {name!r} must be {domain}, got {getattr(self, name)!r}"
                )


@dataclass
class BurstRecord:
    start_s: float
    duration_s: float
    mean_power_db: float


@dataclass
class ComponentResult:
    component: DetectedComponent
    verdict: classify.IdentificationVerdict | None
    bursts: list[BurstRecord]
    burst_flags: list[str]
    error: str | None


@dataclass
class IdentificationReport:
    recording: dict
    config: dict
    noise_floor: dict | None  # None when the recording has no floor to detect
    results: list[ComponentResult]
    flags: list[str]
    # the wideband spectrum the floor was detected on (None if the recording
    # is shorter than one FFT); not serialized
    psd: PowerSpectrum | None


def detect_bursts(
    iq: IqRecording, config: PipelineConfig
) -> tuple[list[BurstRecord], list[str]]:
    """Envelope-domain run of the floor detector; bursts are components.

    The threshold is estimated without the envelope's ends, the filter
    transient plus the smoothing half-window that spreads it: a dip there
    under the noise would scale the levels.  A constant envelope (a
    continuous tone, or pure silence) has no level structure to segment;
    that is reported as zero bursts with the ``continuous_signal`` flag
    rather than as an error.
    """
    smooth = config.envelope_smooth_len
    env_db, (t0, dt) = power_envelope(iq, smooth)
    try:
        estimate, comps = detect(env_db, (t0, dt), config.floor_k, min_width_bins=max(3, smooth // 2),
                                 merge_gap_bins=smooth, trim=iq.transient + smooth // 2)
    except DegenerateSpectrumError:
        return [], ["continuous_signal"]
    flags = ["nfspem_tied"] if estimate.all_tied else []
    records = [
        BurstRecord(
            start_s=t0 + c.start_index * dt,
            duration_s=c.width,
            mean_power_db=estimate.threshold_db + c.mean_excess_db,
        )
        for c in comps
    ]
    return records, flags


def _cyclic_windows(
    candidate: classify.CandidateSignature,
    fs: float,
    step: float,
    widen: float = 1.0,
) -> list[tuple[float, float]]:
    """Search windows around the candidate's expected cyclic features.

    Each window is wide enough for the local floor statistics but narrow
    enough that the modulation continuum stays flat across it; overlapping
    windows are merged.
    """
    alpha_cap = fs / 2.0 - step
    windows = []
    for _, target, tol in candidate.cyclic_lines():
        if target > alpha_cap:
            continue
        radius = widen * max(10.0 * tol, 0.1 * target, 12.0 * step)
        windows.append((max(step, target - radius), min(alpha_cap, target + radius)))
    if not windows:
        raise ParameterError("no cyclic features to scan inside the channel rate")
    windows.sort()
    merged = [list(windows[0])]
    for lo, hi in windows[1:]:
        if lo <= merged[-1][1] + step:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def _grid_from_windows(windows: list[tuple[float, float]], step: float) -> np.ndarray:
    """The multiples of ``step`` inside the merged windows, which lie more than
    one step apart, so the grid comes out strictly increasing."""
    return np.concatenate([
        np.arange(int(np.ceil(lo / step)), int(np.floor(hi / step)) + 1) * step
        for lo, hi in windows
    ])


def _cyclic_scan(
    candidate: classify.CandidateSignature,
    channelized: IqRecording,
    config: PipelineConfig,
    widen: float = 1.0,
) -> sensing.Evidence:
    """Scan the candidate's cyclic windows, ``widen`` times their radius, on one channel."""
    fs = channelized.sample_rate_hz
    n = len(channelized.samples)
    # the scan resolves no finer than fs / L: a finer grid only costs memory
    resolution = fs / next_fast_len(n)
    if config.cyclic_step_hz < resolution:
        raise ParameterError(
            f"cyclic_step_hz {config.cyclic_step_hz:g} Hz is below the cyclic scan's "
            f"resolution of {resolution:g} Hz on this {n}-sample channel"
        )
    windows = _cyclic_windows(candidate, fs, config.cyclic_step_hz, widen)
    grid = _grid_from_windows(windows, config.cyclic_step_hz)
    # the cyclic autocorrelation at alpha is supported within about one
    # period, |tau| <~ fs/alpha (Gardner 1991); longer lags add only noise
    alpha_min = min(alpha for _, alpha, _ in candidate.cyclic_lines())
    tau_hi = min(config.tau_max, math.ceil(2.0 * fs / alpha_min), n // 4)
    profile = sensing.scan_cyclic(channelized, grid, (0, tau_hi))
    return sensing.cyclic_evidence(profile, config.peak_k, windows)


def _cp_autocorr(
    candidate: classify.CandidateSignature,
    channelized: IqRecording,
    config: PipelineConfig,
    passband_hz: float,
) -> sensing.Evidence:
    """Search the channel's lag autocorrelation for the candidate's cyclic prefix."""
    fs = channelized.sample_rate_hz
    n = len(channelized.samples)
    # a band-limited channel is self-correlated out to ~fs/bandwidth
    # lags; start the search above that
    lo = 1
    if passband_hz < fs:
        lo = max(1, int(np.ceil(2.5 * fs / passband_hz)))
    hi = min(256, n // 4)
    if candidate.cp_feature is not None:
        expected_u = candidate.cp_feature.useful_s * fs
        lo = min(lo, max(1, int(expected_u / 2)))
        period = (candidate.cp_feature.useful_s + candidate.cp_feature.cp_s) * fs
        hi = min(max(hi, int(2.5 * period)), n // 4)
    return sensing.cp_autocorr_detect(channelized, (lo, hi), config.peak_k)


def _process_component(
    iq: IqRecording,
    estimate: NoiseFloorEstimate,
    noise_var_fullband: float,
    component: DetectedComponent,
    plan: classify.ChannelPlan,
    config: PipelineConfig,
    spectrum: np.ndarray | None,
) -> ComponentResult:
    try:
        candidates = classify.scb_match(component, plan)
        labels = [c.label for c in candidates]
        top = candidates[0] if candidates else None

        guard = config.guard_factor
        if top is not None and top.cyclic_features_hz:
            # a cyclic line at alpha correlates spectral content alpha apart;
            # keep enough passband around the component for those pairs
            alpha_max = max(alpha for _, alpha, _ in top.cyclic_lines())
            guard = max(guard, 1.6 * alpha_max / max(component.width, 1.0))
        channelized = channelize(
            iq, component, guard_factor=guard, stop_atten_db=config.stop_atten_db, spectrum=spectrum
        )

        noise_var = noise_var_fullband * channelized.sample_rate_hz / iq.sample_rate_hz
        evidences: list[sensing.Evidence] = []
        if len(channelized.samples) >= 100:
            evidences.append(
                sensing.energy_detect(channelized, noise_var, config.energy_pfa)
            )

        bursts: list[BurstRecord] = []
        burst_flags: list[str] = []
        want_bursts = config.burst_detection == "on" or (
            config.burst_detection == "auto" and top is not None and top.burst_header is not None
        )
        if want_bursts:
            bursts, burst_flags = detect_bursts(channelized, config)

        method = classify.ssmsb_select(top) if top is not None else None
        if method == sensing.METHOD_CYCLO:
            evidences.append(_cyclic_scan(top, channelized, config))
        elif method == sensing.METHOD_AUTOCORR:
            passband_hz = min(component.width * guard, iq.sample_rate_hz)
            evidences.append(_cp_autocorr(top, channelized, config, passband_hz))
        verdict = classify.decide(top, evidences, labels, estimate.all_tied)
        if method == sensing.METHOD_CYCLO and verdict.verdict != classify.VERDICT_IDENTIFIED:
            # only a cyclic downgrade earns one rescan, over windows twice as wide
            evidences.append(_cyclic_scan(top, channelized, config, widen=2.0))
            verdict = classify.decide(top, evidences, labels, estimate.all_tied)
            verdict.extras["rescanned"] = True

        return ComponentResult(component, verdict, bursts, burst_flags, None)
    except Exception as exc:  # per-component isolation
        return ComponentResult(component, None, [], [], f"{type(exc).__name__}: {exc}")


def largest_decimation(config: PipelineConfig, fs_hz: float, sample_count: int) -> int:
    """The decimation of the narrowest component the config lets the floor detector
    find (``floor_min_width_bins`` bins) at the smallest guard (``guard_factor``).
    Widths are whole bins and the cyclic guard only widens, so every component's
    power-of-two D divides it, and a spectrum padded to a multiple of it serves
    every channel."""
    narrowest = config.floor_min_width_bins * (fs_hz / config.fft_size) * config.guard_factor
    return decimation(fs_hz, narrowest, sample_count)


def run_identification(
    iq: IqRecording, config: PipelineConfig, plan: classify.ChannelPlan
) -> IdentificationReport:
    """Identify every detected component of the recording against the plan.

    A recording shorter than one FFT, or one whose spectrum has no spread
    (pure silence), has no floor to detect: its report has no components,
    no noise floor and the flag ``insufficient_data`` or
    ``degenerate_spectrum``.
    """
    recording = {
        "sample_rate_hz": iq.sample_rate_hz,
        "center_freq_hz": iq.center_freq_hz,
        "sample_count": len(iq.samples),
        "description": iq.description,
    }

    def shared_spectrum() -> np.ndarray | None:
        if len(iq.samples) < config.fft_size:
            return None
        return recording_spectrum(iq, largest_decimation(config, iq.sample_rate_hz, len(iq.samples)))

    # Welch and the one FFT that serves every channel run at once
    psd = None
    try:
        psd, spectrum = map_on_cores(lambda stage: stage(), [
            lambda: welch_psd(iq, config.fft_size, config.window, config.overlap), shared_spectrum])
        axis_abs = (iq.center_freq_hz + psd.freq_start_hz, psd.freq_step_hz)
        estimate, components = detect(psd.values_db, axis_abs, config.floor_k,
                                      config.floor_min_width_bins, config.floor_merge_gap_bins)
    except (InsufficientDataError, DegenerateSpectrumError) as exc:
        flag = "insufficient_data" if isinstance(exc, InsufficientDataError) else "degenerate_spectrum"
        return IdentificationReport(recording, config.to_dict(), None, [], [flag], psd)

    linear = np.power(10.0, psd.values_db / 10.0)
    noise_bins = psd.values_db <= estimate.threshold_db
    noise_var_fullband = float(np.mean(linear[noise_bins])) if noise_bins.any() else float(np.mean(linear))

    results = map_on_cores(lambda c: _process_component(
        iq, estimate, noise_var_fullband, c, plan, config, spectrum), components)

    flags = ["nfspem_tied"] if estimate.all_tied else []
    return IdentificationReport(
        recording=recording,
        config=config.to_dict(),
        noise_floor={**estimate.summary(), "averaging_count": psd.averaging_count},
        results=results,
        flags=flags,
        psd=psd,
    )


# -- report serialization ------------------------------------------------------

def _component_to_dict(c: DetectedComponent) -> dict:
    return {
        "start_bin": c.start_index,
        "end_bin": c.end_index,
        "center_hz": c.center,
        "width_hz": c.width,
        "peak_db": c.peak_value_db,
        "mean_excess_db": c.mean_excess_db,
    }


def _evidence_to_dict(ev: sensing.Evidence) -> dict:
    return {
        "method": ev.method,
        "statistic": float(ev.statistic),
        "threshold": float(ev.threshold),
        "detected": ev.detected,
        "flags": list(ev.flags),
        "peaks": [
            {"center": p.center, "width": p.width, "peak_db": p.peak_value_db}
            for p in ev.peaks
        ],
        "extras": {
            k: v
            for k, v in ev.extras.items()
            if isinstance(v, (int, float, str, bool))
        },
    }


def report_to_dict(report: IdentificationReport) -> dict:
    results = []
    for r in report.results:
        entry: dict = {"component": _component_to_dict(r.component)}
        if r.verdict is not None:
            v = r.verdict
            entry["verdict"] = v.verdict
            entry["label"] = v.label
            entry["candidates"] = list(v.candidates_ranked)
            entry["matched_features"] = [
                {"kind": m.kind, "expected": m.expected, "measured": m.measured}
                for m in v.matched_features
            ]
            entry["extras"] = dict(v.extras)
            entry["evidence"] = [_evidence_to_dict(ev) for ev in v.evidence]
        entry["bursts"] = [
            {"start_s": b.start_s, "duration_s": b.duration_s, "mean_power_db": b.mean_power_db}
            for b in r.bursts
        ]
        entry["burst_flags"] = list(r.burst_flags)
        entry["error"] = r.error
        results.append(entry)
    return {
        "recording": report.recording,
        "config": report.config,
        "noise_floor": report.noise_floor,
        "components": results,
        "flags": report.flags,
    }


def serialize_report(report: IdentificationReport) -> str:
    return dump_json(report_to_dict(report))
