"""Plan matching, method selection and verdict rules."""

import numpy as np
import pytest

from hypersense import classify, sensing
from hypersense.errors import ParameterError, UnsupportedMethodError
from hypersense.noisefloor import DetectedComponent


def comp(center, width):
    return DetectedComponent(0, 10, center, width, 0.0, 3.0, center)


def cand(label, bw, **kw):
    return classify.CandidateSignature(label=label, expected_bw_hz=bw, **kw)


def plan(*entries):
    return classify.ChannelPlan(name="test", entries=list(entries))


def entry(name, band, cands):
    return classify.ChannelPlanEntry(name=name, band_hz=band, candidates=cands)


ISM_BAND = (2.4e9, 2.4835e9)


class TestScbMatch:
    def test_ism_header_candidate_ranked_first(self):
        fh = cand("fh-1msym", (0.8e6, 1.2e6),
                  cyclic_features_hz=[classify.CyclicFeature(1e6, 10e3)])
        wide = cand("wideband", (0.5e6, 2.0e6))
        p = plan(entry("ISM", ISM_BAND, [wide, fh]))
        ranked = classify.scb_match(comp(2.44e9, 1.0e6), p)
        assert [c.label for c in ranked] == ["fh-1msym", "wideband"]

    def test_empty_plan(self):
        assert classify.scb_match(comp(2.44e9, 1e6), plan()) == []

    def test_tighter_range_first(self):
        a = cand("tight", (0.9e6, 1.1e6))
        b = cand("loose", (0.5e6, 2.0e6))
        p = plan(entry("E", ISM_BAND, [b, a]))
        ranked = classify.scb_match(comp(2.41e9, 1.0e6), p)
        assert [c.label for c in ranked] == ["tight", "loose"]

    def test_out_of_band_component(self):
        p = plan(entry("E", ISM_BAND, [cand("x", (0.5e6, 2e6))]))
        assert classify.scb_match(comp(5.8e9, 1e6), p) == []

    def test_bandwidth_slack(self):
        p = plan(entry("E", ISM_BAND, [cand("x", (1.0e6, 2.0e6))]))
        # 25% slack: accepts down to 0.75 MHz and up to 2.5 MHz
        assert classify.scb_match(comp(2.45e9, 0.8e6), p)
        assert classify.scb_match(comp(2.45e9, 2.4e6), p)
        assert not classify.scb_match(comp(2.45e9, 0.7e6), p)
        assert not classify.scb_match(comp(2.45e9, 2.6e6), p)

    def test_permutation_invariance_and_dedupe(self):
        rng = np.random.default_rng(4)
        cands = [cand(f"c{i}", (0.5e6 * (i + 1), 1e6 * (i + 1))) for i in range(5)]
        cands.append(cand("c2", (0.5e6 * 3, 1e6 * 3)))  # duplicate label
        baseline = None
        for _ in range(10):
            shuffled = list(cands)
            rng.shuffle(shuffled)
            p = plan(entry("A", ISM_BAND, shuffled[:3]), entry("B", ISM_BAND, shuffled[3:]))
            ranked = [c.label for c in classify.scb_match(comp(2.45e9, 1.5e6), p)]
            if baseline is None:
                baseline = ranked
            assert ranked == baseline
        assert len(baseline) == len(set(baseline))


class TestSsmsbSelect:
    def test_cyclic_features_select_cyclo(self):
        c = cand("dsss", (1e6, 2e6), cyclic_features_hz=[classify.CyclicFeature(1.2288e6, 10e3)])
        assert classify.ssmsb_select(c) == sensing.METHOD_CYCLO

    def test_no_features_select_energy(self):
        assert classify.ssmsb_select(cand("plain", (1e6, 2e6))) == sensing.METHOD_ENERGY

    def test_cp_selects_autocorr(self):
        c = cand("x", (1e6, 2e6), cp_feature=classify.CpFeature(64e-6, 16e-6, 2e-6))
        assert classify.ssmsb_select(c) == sensing.METHOD_AUTOCORR

    def test_priority_order(self):
        c = cand("x", (1e6, 2e6),
                 cyclic_features_hz=[classify.CyclicFeature(1e6, 1e3)],
                 cp_feature=classify.CpFeature(64e-6, 16e-6, 2e-6))
        assert classify.ssmsb_select(c) == sensing.METHOD_CYCLO

    def test_unsupported_preferred_method(self):
        c = cand("x", (1e6, 2e6), preferred_method="Wavelet")
        with pytest.raises(UnsupportedMethodError):
            classify.ssmsb_select(c)


def ev_cyclo(peak_centers, detected=True, flags=()):
    peaks = [DetectedComponent(0, 0, c, 10e3, -20.0, 8.0, c) for c in peak_centers]
    return sensing.Evidence(sensing.METHOD_CYCLO, peaks, -20.0, -30.0, detected, list(flags))


def ev_energy(detected=True):
    return sensing.Evidence(sensing.METHOD_ENERGY, [], 10.0, 5.0, detected)


class TestDecide:
    def test_identified_within_tolerance(self):
        c = cand("cdma", (3e6, 5e6),
                 cyclic_features_hz=[classify.CyclicFeature(1.2288e6, 10e3)])
        v = classify.decide(c, [ev_cyclo([1.2300e6])], ["cdma"])
        assert v.verdict == classify.VERDICT_IDENTIFIED
        assert v.label == "cdma"
        assert v.matched_features[0].measured == pytest.approx(1.23e6)

    def test_peak_outside_tolerance_unidentified(self):
        c = cand("cdma", (3e6, 5e6),
                 cyclic_features_hz=[classify.CyclicFeature(1.2288e6, 10e3)])
        v = classify.decide(c, [ev_cyclo([1.30e6]), ev_energy()], ["cdma"])
        assert v.verdict == classify.VERDICT_DETECTED_UNIDENTIFIED
        assert v.label is None

    def test_tied_flag_gives_low_confidence(self):
        c = cand("cdma", (3e6, 5e6),
                 cyclic_features_hz=[classify.CyclicFeature(1.2288e6, 10e3)])
        v = classify.decide(c, [ev_cyclo([1.2288e6], flags=["nfspem_tied"])], ["cdma"])
        assert v.verdict == classify.VERDICT_LOW_CONFIDENCE

    def test_never_identified_without_match(self):
        # adversarial: detected evidence everywhere but nothing within tolerance
        c = cand("x", (1e6, 2e6),
                 cyclic_features_hz=[classify.CyclicFeature(1.0e6, 1e3)])
        for centers in ([1.01e6], [0.99e6], [2.0e6], []):
            v = classify.decide(c, [ev_cyclo(centers), ev_energy()], ["x"])
            assert v.verdict != classify.VERDICT_IDENTIFIED

    def test_carrier_count(self):
        c = cand("cdma", (3e6, 5e6),
                 cyclic_features_hz=[classify.CyclicFeature(1.2288e6, 12e3)],
                 carrier_spacing_hz=1.25e6, max_carriers=5)
        v = classify.decide(c, [ev_cyclo([1.2288e6, 1.25e6, 2.5e6])], ["cdma"])
        assert v.verdict == classify.VERDICT_IDENTIFIED
        assert v.extras["carrier_count"] == 3

    def test_no_candidate(self):
        v = classify.decide(None, [ev_energy()], [])
        assert v.verdict == classify.VERDICT_DETECTED_UNIDENTIFIED

    def test_cp_match(self):
        c = cand("ofdm", (1e6, 2e6), cp_feature=classify.CpFeature(64e-6, 16e-6, 2e-6))
        good = sensing.Evidence(sensing.METHOD_AUTOCORR, [], 0.0, -10.0, True,
                                extras={"useful_s": 63.5e-6, "cp_s": 16.2e-6})
        v = classify.decide(c, [good], ["ofdm"])
        assert v.verdict == classify.VERDICT_IDENTIFIED
        bad = sensing.Evidence(sensing.METHOD_AUTOCORR, [], 0.0, -10.0, True,
                               extras={"useful_s": 80e-6, "cp_s": 16e-6})
        v = classify.decide(c, [bad, ev_energy()], ["ofdm"])
        assert v.verdict == classify.VERDICT_DETECTED_UNIDENTIFIED


class TestPlanLoading:
    def test_roundtrip_from_dict(self):
        data = {
            "name": "p",
            "entries": [{
                "name": "E", "band_hz": [2.4e9, 2.4835e9],
                "candidates": [{
                    "label": "c1", "expected_bw_hz": [0.8e6, 1.2e6],
                    "cyclic_features_hz": [{"freq_hz": 1e6, "tolerance_hz": 1e4}],
                    "burst_header": {"period_hz": 1e6},
                    "carrier_spacing_hz": 1.25e6, "max_carriers": 3,
                    "cp_feature": {"useful_s": 3.2e-5, "cp_s": 8e-6, "tolerance_s": 2e-6},
                }],
            }],
        }
        p = classify.plan_from_dict(data)
        c = p.entries[0].candidates[0]
        assert c.cyclic_features_hz[0].freq_hz == 1e6
        assert c.cp_feature.useful_s == pytest.approx(3.2e-5)
        assert c.max_carriers == 3

    @pytest.mark.parametrize("count", [2**62, classify.MAX_CARRIERS + 1], ids=["2**62", "cap+1"])
    def test_max_carriers_over_cap_rejected(self, count):
        candidate = {"label": "c1", "expected_bw_hz": [0.8e6, 1.2e6], "carrier_spacing_hz": 1.25e6}
        plan = {"entries": [{"name": "E", "band_hz": [2.4e9, 2.4835e9], "candidates": [candidate]}]}
        candidate["max_carriers"] = classify.MAX_CARRIERS
        assert classify.plan_from_dict(plan).entries[0].candidates[0].max_carriers == classify.MAX_CARRIERS
        candidate["max_carriers"] = count
        message = f"^c1: max_carriers must be <= {classify.MAX_CARRIERS}, got {count}$"
        with pytest.raises(ParameterError, match=message):
            classify.plan_from_dict(plan)

    def test_bad_plan_rejected(self):
        with pytest.raises(ParameterError):
            classify.plan_from_dict({"entries": [{"name": "E"}]})
        with pytest.raises(ParameterError):
            classify.plan_from_dict({"entries": [{
                "name": "E", "band_hz": [2e9, 1e9], "candidates": []}]})

    def test_shipped_plans_load(self):
        from importlib import resources
        for name in ("ism24_plan.json", "pcs1900_plan.json"):
            path = resources.files("hypersense.data") / name
            p = classify.load_plan(str(path))
            assert p.entries
