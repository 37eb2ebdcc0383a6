"""``wavegen._band_bins`` selects exactly the bins of an ``np.fft.fftfreq`` mask."""

import numpy as np
import pytest

from hypersense import wavegen as wg

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def bands(draw):
    """(n, fs, lo, hi) with edges on bins, one ulp off them, at 0 Hz, at +-fs/2 or anywhere."""
    n = draw(st.integers(1, 64) | st.integers(64, 5000))
    fs = draw(st.sampled_from([1.0, 3e3, 1.024e6, 2e6, 20e6]) | st.floats(1e-3, 1e9))
    freqs = np.fft.fftfreq(n, d=1.0 / fs)
    on_bin = st.sampled_from(freqs.tolist())
    edge = (
        on_bin
        | on_bin.map(lambda f: float(np.nextafter(f, np.inf)))
        | on_bin.map(lambda f: float(np.nextafter(f, -np.inf)))
        | st.sampled_from([-fs / 2.0, fs / 2.0, 0.0])
        | st.floats(-0.6 * fs, 0.6 * fs)
    )
    if draw(st.booleans()):  # straddles 0 Hz
        return n, fs, -abs(draw(edge)), abs(draw(edge))
    return n, fs, draw(edge), draw(edge)


@hypothesis.settings(max_examples=500, deadline=None, database=None)
@hypothesis.given(bands())
@hypothesis.example((8, 8.0, -4.0, 4.0))     # even n: the whole band, -fs/2 is a bin
@hypothesis.example((7, 7.0, -3.5, 3.5))     # odd n: +-fs/2 fall between bins
@hypothesis.example((8, 8.0, -1.0, 1.0))     # straddles 0 Hz, edges on bins
@hypothesis.example((9, 9.0, 2.0, 4.5))      # touches fs/2
@hypothesis.example((10, 1.0, 0.3, 0.3))     # empty band on a bin
@hypothesis.example((1, 2e6, -1e6, 1e6))     # one bin
def test_matches_fftfreq_mask(case):
    n, fs, lo, hi = case
    freqs = np.fft.fftfreq(n, d=1.0 / fs)
    want = np.flatnonzero((freqs >= lo) & (freqs < hi))
    runs = wg._band_bins((lo, hi), fs, n)
    assert all(run.step is None and 0 <= run.start < run.stop <= n for run in runs)
    got = np.concatenate([np.arange(n)[run] for run in runs] or [np.arange(0)])
    assert np.array_equal(got, want)
