"""Candidate matching against a channel plan and identification verdicts.

A channel plan lists frequency bands and, per band, candidate signal
signatures (expected bandwidth, cyclic features, a cyclic prefix).  Detected
components are matched against the plan, a sensing method with a pipeline
stage is selected per candidate, and the collected evidence is rendered
into a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ParameterError
from .noisefloor import DetectedComponent
from .schema import from_json, load_json
from .sensing import (
    METHOD_AUTOCORR,
    METHOD_CYCLO,
    METHOD_ENERGY,
    Evidence,
    method_key,
)

VERDICT_IDENTIFIED = "identified"
VERDICT_DETECTED_UNIDENTIFIED = "detected_unidentified"
VERDICT_LOW_CONFIDENCE = "low_confidence"

BW_SLACK = 0.25  # fractional widening of the expected bandwidth range


@dataclass
class CyclicFeature:
    freq_hz: float
    tolerance_hz: float


@dataclass
class CpFeature:
    useful_s: float
    cp_s: float
    tolerance_s: float


@dataclass
class CandidateSignature:
    label: str
    expected_bw_hz: tuple[float, float]
    cyclic_features_hz: list[CyclicFeature] = field(default_factory=list)
    burst_header: dict | None = None          # {"period_hz": ...}
    preferred_method: str | None = None
    cp_feature: CpFeature | None = None
    carrier_spacing_hz: float = 0.0
    max_carriers: int = 1

    def validate(self) -> None:
        lo, hi = self.expected_bw_hz
        if not 0.0 < lo <= hi:
            raise ParameterError(f"{self.label}: expected_bw_hz needs 0 < min <= max, got {lo} and {hi}")
        if self.max_carriers < 1 or self.carrier_spacing_hz < 0.0:
            raise ParameterError(
                f"{self.label}: needs max_carriers >= 1 and carrier_spacing_hz >= 0, "
                f"got {self.max_carriers} and {self.carrier_spacing_hz}"
            )
        cp = self.cp_feature
        if cp is not None and not (cp.useful_s > 0.0 and cp.cp_s >= 0.0 and cp.tolerance_s >= 0.0):
            raise ParameterError(
                f"{self.label}: cp_feature needs useful_s > 0, cp_s >= 0 and tolerance_s >= 0, got {cp}"
            )
        for f in self.cyclic_features_hz:
            # the cyclic scan's lag range divides by the smallest line
            if not (f.freq_hz > 0.0 and f.tolerance_hz >= 0.0):
                raise ParameterError(
                    f"{self.label}: cyclic feature needs freq_hz > 0 and tolerance_hz >= 0, "
                    f"got {f.freq_hz} and {f.tolerance_hz}"
                )
        if self.preferred_method:
            method_key(self.preferred_method)

    def cyclic_lines(self) -> list[tuple[str, float, float]]:
        """The cyclic lines the signature predicts, as ``(kind, alpha_hz, tol_hz)``.

        The features (kind ``"cyclic"``), then ``j * carrier_spacing_hz`` for
        ``0 < j < max_carriers`` (kind ``"carrier_spacing"``), each with the
        largest feature tolerance or, without features, 1% of the spacing.
        """
        lines = [("cyclic", f.freq_hz, f.tolerance_hz) for f in self.cyclic_features_hz]
        if self.carrier_spacing_hz > 0.0:
            tol = max((f.tolerance_hz for f in self.cyclic_features_hz), default=0.0)
            tol = tol or 0.01 * self.carrier_spacing_hz
            lines += [
                ("carrier_spacing", j * self.carrier_spacing_hz, tol)
                for j in range(1, self.max_carriers)
            ]
        return lines


@dataclass
class ChannelPlanEntry:
    name: str
    band_hz: tuple[float, float]
    candidates: list[CandidateSignature] = field(default_factory=list)

    def validate(self) -> None:
        lo, hi = self.band_hz
        if lo >= hi:
            raise ParameterError(f"plan entry {self.name}: band low {lo} >= high {hi}")
        for cand in self.candidates:
            cand.validate()


@dataclass
class ChannelPlan:
    name: str = ""
    entries: list[ChannelPlanEntry] = field(default_factory=list)

    def validate(self) -> None:
        for entry in self.entries:
            entry.validate()


@dataclass
class MatchedFeature:
    kind: str            # "cyclic", "carrier_spacing", "cp"
    expected: float
    measured: float


@dataclass
class IdentificationVerdict:
    candidates_ranked: list[str]
    verdict: str
    label: str | None
    matched_features: list[MatchedFeature]
    evidence: list[Evidence]
    extras: dict = field(default_factory=dict)


# -- plan loading ------------------------------------------------------------

def plan_from_dict(data: dict) -> ChannelPlan:
    """Build and validate a plan.

    Raises ``ParameterError`` for a malformed plan and
    ``UnsupportedMethodError`` for a ``preferred_method`` with no pipeline
    stage behind it, so either is reported before any recording is
    processed.  Keys the plan's dataclasses do not declare are ignored.
    """
    plan = from_json(ChannelPlan, data, "bad channel plan", ignore_unknown=True)
    plan.validate()
    return plan


def load_plan(path: str | Path) -> ChannelPlan:
    return plan_from_dict(load_json(path, "channel plan"))


# -- SCB: spectral matching ---------------------------------------------------

def scb_match(component: DetectedComponent, plan: ChannelPlan) -> list[CandidateSignature]:
    """Rank plan candidates that fit the component's center and bandwidth.

    The component center (absolute Hz) must fall inside the entry band and
    the estimated width inside the candidate's expected bandwidth range
    widened by 25% on both ends.  Candidates are ordered by how close the
    estimate sits to the range midpoint; duplicates (same label) keep
    their best rank.  The ordering is a total order, so plan permutations
    cannot change the result.
    """
    fc = component.center
    bw = component.width
    scored: list[tuple[float, str, CandidateSignature]] = []
    for entry in plan.entries:
        if not entry.band_hz[0] <= fc <= entry.band_hz[1]:
            continue
        for cand in entry.candidates:
            lo, hi = cand.expected_bw_hz
            if not lo * (1.0 - BW_SLACK) <= bw <= hi * (1.0 + BW_SLACK):
                continue
            midpoint = (lo + hi) / 2.0
            scored.append((abs(bw - midpoint), cand.label, cand))
    scored.sort(key=lambda item: (item[0], item[1]))
    out, seen = [], set()
    for _, label, cand in scored:
        if label not in seen:
            seen.add(label)
            out.append(cand)
    return out


# -- SSMSB: method selection ---------------------------------------------------

def ssmsb_select(candidate: CandidateSignature) -> str:
    """Pick the sensing method a candidate's signature calls for.

    An explicit ``preferred_method`` wins (checked against ``METHODS`` when
    the plan is loaded).  Otherwise: cyclic features select the cyclic scan,
    a repeated-tail (CP/midamble) feature the autocorrelation detector, and
    a bare signature falls back to energy detection.
    """
    if candidate.preferred_method:
        return method_key(candidate.preferred_method)
    if candidate.cyclic_features_hz:
        return METHOD_CYCLO
    if candidate.cp_feature is not None:
        return METHOD_AUTOCORR
    return METHOD_ENERGY


# -- decision ------------------------------------------------------------------

def _match_cyclic(candidate: CandidateSignature, ev: Evidence) -> list[MatchedFeature]:
    # a line sits at its run's maximum, not at the run's power centroid
    matches = []
    for kind, alpha, tol in candidate.cyclic_lines():
        hits = [p for p in ev.peaks if abs(p.peak_position - alpha) <= tol]
        if hits:
            best = max(hits, key=lambda p: p.peak_value_db)
            matches.append(MatchedFeature(kind, alpha, best.peak_position))
    return matches


def _match_cp(candidate: CandidateSignature, ev: Evidence) -> list[MatchedFeature]:
    cp = candidate.cp_feature
    if cp is None or "cp_s" not in ev.extras:
        return []
    if (
        abs(ev.extras["useful_s"] - cp.useful_s) <= cp.tolerance_s
        and abs(ev.extras["cp_s"] - cp.cp_s) <= cp.tolerance_s
    ):
        return [
            MatchedFeature("cp", cp.useful_s, ev.extras["useful_s"]),
            MatchedFeature("cp", cp.cp_s, ev.extras["cp_s"]),
        ]
    return []


def match_features(candidate: CandidateSignature, ev: Evidence) -> list[MatchedFeature]:
    if ev.method == METHOD_CYCLO:
        return _match_cyclic(candidate, ev)
    if ev.method == METHOD_AUTOCORR:
        return _match_cp(candidate, ev)
    return []


def decide(
    candidate: CandidateSignature | None,
    evidences: list[Evidence],
    candidates_ranked: list[str],
    floor_tied: bool = False,
) -> IdentificationVerdict:
    """Render the verdict for one component.

    Identification requires at least one matched feature within its
    tolerance.  A wideband floor from an all-tied level histogram (no
    change point), ``floor_tied``, or evidence from one downgrades the
    verdict to low confidence, since the floor threshold that produced the
    component or the evidence is meaningless.
    """
    tied = floor_tied or any("nfspem_tied" in ev.flags for ev in evidences)
    matched: list[MatchedFeature] = []
    if candidate is not None:
        for ev in evidences:
            matched.extend(match_features(candidate, ev))

    extras: dict = {}
    if candidate is not None and candidate.carrier_spacing_hz > 0.0:
        spacing_hits = {m.expected for m in matched if m.kind == "carrier_spacing"}
        if spacing_hits:
            extras["carrier_count"] = len(spacing_hits) + 1
    chip = next((m for m in matched if m.kind == "cyclic"), None)
    if chip is not None:
        extras["measured_cyclic_hz"] = chip.measured

    if tied:
        verdict = VERDICT_LOW_CONFIDENCE
        label = None
    elif matched:
        verdict = VERDICT_IDENTIFIED
        label = candidate.label if candidate else None
    else:
        verdict = VERDICT_DETECTED_UNIDENTIFIED
        label = None
    return IdentificationVerdict(
        candidates_ranked=candidates_ranked,
        verdict=verdict,
        label=label,
        matched_features=matched,
        evidence=evidences,
        extras=extras,
    )
