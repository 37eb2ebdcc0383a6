"""Level segmentation, change-point and component extraction tests.

Expected values for the hand examples were worked out directly from the
definitions: population sigma, L = ceil(range / (k * sigma)), the
S_i = S_{i-1} + (m_i - mean) recursion, and the boundary rule that a
sample on a level edge belongs to the lower level.
"""

import numpy as np
import pytest

from hypersense import noisefloor as nf
from hypersense.errors import (
    DegenerateSpectrumError,
    InsufficientDataError,
    ParameterError,
)


class TestSegmentLevels:
    def test_hand_example(self):
        # [0,0,0,0,10]: sigma=4 (population), L=ceil(10/4)=3, width 10/3
        hist = nf.segment_levels(np.array([0.0, 0.0, 0.0, 0.0, 10.0]), k=1.0)
        assert hist.level_count == 3
        assert hist.level_width == pytest.approx(10.0 / 3.0)
        assert hist.counts.tolist() == [4, 0, 1]

    def test_constant_input_degenerate(self):
        with pytest.raises(DegenerateSpectrumError):
            nf.segment_levels(np.full(16, 3.5))

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            nf.segment_levels(np.array([1.0]))

    def test_bad_k(self):
        y = np.array([0.0, 1.0, 2.0])
        for k in (0.0, -1.0, 1.5):
            with pytest.raises(ParameterError):
                nf.segment_levels(y, k=k)

    def test_level_count_capped(self):
        # [0, 1]: sigma 0.5, so k = 2 / MAX_LEVELS needs exactly MAX_LEVELS levels
        y = np.array([0.0, 1.0])
        assert nf.segment_levels(y, k=2.0 / nf.MAX_LEVELS).level_count == nf.MAX_LEVELS
        for k in (1.9 / nf.MAX_LEVELS, 1e-300):
            with pytest.raises(ParameterError, match="too small"):
                nf.segment_levels(y, k=k)
        # k * sigma underflows to zero
        with pytest.raises(ParameterError, match="too small"):
            nf.segment_levels(np.array([0.0, 1e-150, 0.0]), k=1e-200)

    def test_nonfinite_rejected(self):
        with pytest.raises(ParameterError):
            nf.segment_levels(np.array([0.0, np.inf, 1.0]))

    def test_affine_map_preserves_histogram(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=256)
        base = nf.segment_levels(y, k=0.7)
        mapped = nf.segment_levels(3.0 * y - 17.0, k=0.7)
        assert mapped.level_count == base.level_count
        assert mapped.counts.tolist() == base.counts.tolist()

    def test_boundary_sample_goes_to_lower_level(self):
        # values 0..4: sigma=sqrt(2), L=ceil(4/sqrt(2))=3, width=4/3;
        # 0->1st, 1->1st (0.75), 2->2nd (1.5), 3->3rd (2.25), 4->3rd
        hist = nf.segment_levels(np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
        assert hist.level_count == 3
        assert hist.counts.tolist() == [2, 1, 2]

    def test_exact_boundary_assignment(self):
        # [0,1,2,3]: sigma=sqrt(1.25), L=3, width=1.0 exactly; the samples
        # 1 and 2 sit on level edges and belong to the lower level, the
        # maximum belongs to the top level
        hist = nf.segment_levels(np.array([0.0, 1.0, 2.0, 3.0]))
        assert hist.level_count == 3
        assert hist.level_width == pytest.approx(1.0)
        assert hist.counts.tolist() == [2, 1, 1]

    def test_conservation_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            y = rng.normal(size=rng.integers(2, 400))
            if y.std() == 0:
                continue
            hist = nf.segment_levels(y, k=float(rng.uniform(0.05, 1.0)))
            assert hist.counts.sum() == y.size

    def test_monotone_k(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            y = rng.normal(size=128)
            k = float(rng.uniform(0.1, 1.0))
            l_full = nf.segment_levels(y, k).level_count
            l_half = nf.segment_levels(y, k / 2.0).level_count
            assert l_half >= 2 * l_full - 1


class TestCusumChangePoint:
    def test_hand_example_counts_50_40_5_3_2(self):
        hist = nf.LevelHistogram(counts=np.array([50, 40, 5, 3, 2]), y_min=0.0, level_width=1.0)
        est = nf.cusum_change_point(hist)
        # mean count 20
        assert est.cusum == pytest.approx([30.0, 50.0, 35.0, 18.0, 0.0])
        assert est.change_level == 2
        assert est.threshold_db == pytest.approx(2.0)

    def test_hand_example_counts_4_0_1(self):
        hist = nf.segment_levels(np.array([0.0, 0.0, 0.0, 0.0, 10.0]), k=1.0)
        est = nf.cusum_change_point(hist)
        assert est.cusum == pytest.approx([7.0 / 3.0, 2.0 / 3.0, 0.0])
        assert est.change_level == 1
        # the 10 dB sample sits above the threshold: classified signal
        assert 10.0 > est.threshold_db

    def test_equal_counts_all_tied(self):
        hist = nf.LevelHistogram(counts=np.array([8, 8, 8, 8]), y_min=0.0, level_width=1.0)
        est = nf.cusum_change_point(hist)
        assert est.change_level == 1
        assert est.all_tied
        assert est.cusum == pytest.approx([0.0, 0.0, 0.0, 0.0])

    def test_telescoping_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            y = rng.normal(size=int(rng.integers(2, 300)))
            est = nf.cusum_change_point(nf.segment_levels(y))
            assert abs(est.cusum[-1]) < 1e-9

    def test_brute_force_oracle_small(self):
        # independent re-derivation: explicit prefix-sum loop and scan
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = int(rng.integers(2, 65))
            y = rng.uniform(-40, 10, size=n)
            k = float(rng.uniform(0.3, 1.0))
            hist = nf.segment_levels(y, k)
            if hist.level_count > 8:
                continue
            est = nf.cusum_change_point(hist)
            mean = n / hist.level_count
            s, best_i, best_s = 0.0, 0, -np.inf
            for i in range(hist.level_count - 1):
                s += hist.counts[i] - mean
                if s > best_s:
                    best_s, best_i = s, i + 1
            assert est.change_level == best_i

    def test_top_heavy_histogram_keeps_floor_at_bottom(self):
        # most mass at the top level: the bottom cluster still marks the floor
        hist = nf.LevelHistogram(counts=np.array([99, 3, 0, 25, 897]), y_min=0.0, level_width=1.0)
        est = nf.cusum_change_point(hist)
        assert est.change_level == 1


class TestExtractComponents:
    def test_nothing_above_threshold(self):
        assert nf.extract_components(np.zeros(64), (0.0, 1.0), 5.0) == []

    def test_rect_block(self):
        y = np.full(1024, -10.0)
        y[100:200] = 0.0
        comps = nf.extract_components(y, (0.0, 10e3), -5.0, 3, 2)
        assert len(comps) == 1
        c = comps[0]
        assert (c.start_index, c.end_index) == (100, 199)
        assert c.width == pytest.approx(1e6)
        # flat power: centroid at the run midpoint
        assert c.center == pytest.approx(10e3 * (100 + 199) / 2.0)
        assert c.peak_value_db == pytest.approx(0.0)
        assert c.mean_excess_db == pytest.approx(5.0)
        assert c.peak_position == pytest.approx(1e6)  # first bin of the flat run

    def test_merge_gap(self):
        y = np.full(64, -20.0)
        y[10:13] = 0.0
        y[15:18] = 0.0  # 2-bin gap at 13,14
        merged = nf.extract_components(y, (0.0, 1.0), -10.0, 1, 3)
        assert len(merged) == 1
        assert (merged[0].start_index, merged[0].end_index) == (10, 17)
        split = nf.extract_components(y, (0.0, 1.0), -10.0, 1, 1)
        assert len(split) == 2

    def test_min_width_discard(self):
        y = np.full(64, -20.0)
        y[30] = 0.0
        assert nf.extract_components(y, (0.0, 1.0), -10.0, 2, 0) == []
        assert len(nf.extract_components(y, (0.0, 1.0), -10.0, 1, 0)) == 1

    def test_components_disjoint_and_sorted(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            y = rng.normal(size=512)
            est, comps = nf.detect(y, (0.0, 1.0), min_width_bins=1)
            for a, b in zip(comps, comps[1:]):
                assert a.end_index < b.start_index


class TestDetect:
    def test_affine_invariance_of_labels(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            y = rng.normal(size=256) * rng.uniform(0.5, 8.0)
            a = float(rng.uniform(0.1, 10.0))
            b = float(rng.uniform(-50.0, 50.0))
            est1, _ = nf.detect(y, (0.0, 1.0))
            est2, _ = nf.detect(a * y + b, (0.0, 1.0))
            labels1 = y > est1.threshold_db
            labels2 = a * y + b > est2.threshold_db
            assert np.array_equal(labels1, labels2)
            assert est2.threshold_db == pytest.approx(a * est1.threshold_db + b, rel=1e-9, abs=1e-6)

    def test_five_carriers(self):
        # five disjoint flat carriers well above a flat noise floor
        rng = np.random.default_rng(29)
        y = rng.normal(0.0, 0.3, size=1024)
        centers = [100, 280, 470, 660, 850]
        for c in centers:
            y[c - 20 : c + 21] += 15.0
        est, comps = nf.detect(y, (0.0, 1.0))
        assert len(comps) == 5
        for comp, c in zip(comps, centers):
            assert abs(comp.center - c) <= 2.0

    def test_threshold_within_range(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            y = rng.normal(size=128)
            est, comps = nf.detect(y, (0.0, 1.0))
            assert y.min() <= est.threshold_db <= y.max()

    def test_trim_sets_floor_but_not_extent(self):
        # a strong run in the last ``trim`` samples stays out of the floor
        # but is still extracted, with indices on the untrimmed input
        rng = np.random.default_rng(37)
        y = rng.normal(size=256)
        y[-4:] = 30.0
        est, comps = nf.detect(y, (0.0, 1.0), trim=4)
        core = nf.cusum_change_point(nf.segment_levels(y[4:-4]))
        assert est.threshold_db == core.threshold_db
        assert est.level_count == core.level_count
        assert est.threshold_db < nf.detect(y, (0.0, 1.0))[0].threshold_db
        assert (comps[-1].start_index, comps[-1].end_index) == (252, 255)
        assert comps[-1].peak_position == 252.0

    def test_trim_too_long_uses_every_sample(self):
        y = np.array([0.0, 0.0, 0.0, 10.0])
        est, comps = nf.detect(y, (0.0, 1.0), min_width_bins=1, trim=2)
        assert est.threshold_db == nf.detect(y, (0.0, 1.0))[0].threshold_db
        assert [(c.start_index, c.end_index) for c in comps] == [(3, 3)]
