"""Monte-Carlo harness tests (small grids; the full grid runs in the
acceptance suite)."""

import csv
import sys

import numpy as np
import pytest

from hypersense import dsp, evaluation
from hypersense.errors import ParameterError


class TestRunTrial:
    def test_zero_occupancy_is_true_negative_rate(self):
        # with an all-false mask every noise declaration is right and every
        # signal declaration is wrong, whatever the bin powers: the score is
        # 0.5 if the trial declared any bin signal, else 1.0
        res = evaluation.run_trial(10.0, 0.0, fft_size=1024, seed=1)
        assert res.detected.shape == (1024,)
        assert res.confidence == (0.5 if res.detected.any() else 1.0)

    def test_full_band_flagged(self):
        # all-true mask: the mirror image, decided by the noise declarations
        res = evaluation.run_trial(15.0, 1.0, fft_size=512, seed=2)
        assert res.detected.shape == (512,)
        assert res.confidence == (0.5 if (~res.detected).any() else 1.0)

    def test_high_snr_quarter_occupancy_accurate(self):
        accs = [
            evaluation.run_trial(20.0, 0.25, fft_size=1024, seed=s).confidence
            for s in range(10)
        ]
        assert np.mean(accs) >= 0.99

    def test_determinism(self):
        a = evaluation.run_trial(5.0, 0.6, fft_size=512, seed=77)
        b = evaluation.run_trial(5.0, 0.6, fft_size=512, seed=77)
        assert a.confidence == b.confidence

    def test_occupancy_out_of_range(self):
        with pytest.raises(ParameterError):
            evaluation.run_trial(0.0, 1.5)


class TestConfidenceGrid:
    def test_cell_fields_and_csv(self, tmp_path):
        cells = evaluation.confidence_grid([0.0, 10.0], [0.25], trials=8, resamples=200, seed=3)
        assert len(cells) == 2
        for c in cells:
            assert c.ci_low <= c.confidence_mean <= c.ci_high
            assert c.trials == 8
        out = tmp_path / "grid.csv"
        evaluation.write_grid_csv(cells, out)
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["snr_db", "occupancy", "trials", "confidence_mean", "ci_low", "ci_high"]
        assert len(rows) == 3
        assert rows[1][0] == "0.000000"  # fixed 6-decimal formatting

    def test_deterministic_across_workers(self, monkeypatch):
        # trials run on one thread per core; a short switch interval
        # interleaves them as often as the interpreter allows
        kw = dict(trials=6, resamples=100, seed=11, fft_size=512)
        grids = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cores in (1, 4):
                monkeypatch.setattr(dsp, "available_cores", lambda: cores)
                grids.append(evaluation.confidence_grid([4.0, 12.0], [0.0, 0.6], **kw))
        finally:
            sys.setswitchinterval(interval)
        assert grids[0] == grids[1]

    def test_failed_trial_raises(self):
        with pytest.raises(ParameterError):
            evaluation.confidence_grid([0.0], [0.25, 1.5], trials=4, resamples=10)

    def test_two_seeds_ci_consistency(self):
        a = evaluation.confidence_grid([6.0], [0.25], trials=40, resamples=400, seed=1)[0]
        b = evaluation.confidence_grid([6.0], [0.25], trials=40, resamples=400, seed=2)[0]
        lo = min(a.ci_low, b.ci_low)
        hi = max(a.ci_high, b.ci_high)
        assert lo <= a.confidence_mean <= hi
        assert lo <= b.confidence_mean <= hi

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            evaluation.confidence_grid([0.0], [0.25], trials=1)
        with pytest.raises(ParameterError):
            evaluation.confidence_grid([0.0], [0.25], trials=10, resamples=0)


class TestTrendInvariants:
    def test_occupancy_ordering_at_low_snr(self):
        # lower occupancy should score at least as well, up to CI overlap
        for snr in (-4.0, 4.0):
            cells = evaluation.confidence_grid(
                [snr], [0.25, 0.6, 0.75, 0.9], trials=32, resamples=300, seed=int(snr) + 50
            )
            for lower, higher in zip(cells, cells[1:]):
                slack = (lower.ci_high - lower.ci_low) + (higher.ci_high - higher.ci_low)
                assert lower.confidence_mean >= higher.confidence_mean - slack, (
                    f"snr {snr}: occ {lower.occupancy_fraction} mean "
                    f"{lower.confidence_mean:.3f} < occ {higher.occupancy_fraction} "
                    f"mean {higher.confidence_mean:.3f} beyond CI slack"
                )
