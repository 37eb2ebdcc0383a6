"""Property test of the padding of the one recording FFT that serves every channel."""

import numpy as np
import pytest

from hypersense import dsp, pipeline

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def channels(draw):
    """A config, a recording length and rate, and a component of whole bins, at least
    ``floor_min_width_bins`` wide, with a guard no smaller than the config's."""
    fft_size = 2 ** draw(st.integers(3, 12))
    min_width = draw(st.integers(1, 64))
    guard_factor = 10 ** draw(st.floats(-12.0, 1.0))
    config = pipeline.PipelineConfig(fft_size=fft_size, floor_min_width_bins=min_width,
                                     guard_factor=guard_factor)
    fs = draw(st.floats(1.0, 1e10))
    n = draw(st.integers(fft_size, 2_000_000))
    width_bins = draw(st.integers(min_width, min_width + fft_size))
    guard = guard_factor * draw(st.sampled_from([1.0]) | st.floats(1.0, 1e6))
    return config, fs, n, width_bins * (fs / fft_size), guard


@hypothesis.settings(max_examples=500, deadline=None, database=None)
@hypothesis.given(channels())
def test_every_decimation_divides_the_largest(channel):
    config, fs, n, width, guard = channel
    largest = pipeline.largest_decimation(config, fs, n)
    size = -(-n // largest) * largest  # the shared spectrum's length
    assert size < 2 * n
    # channelize's decimation of this component, and its one refusal of a spectrum
    factor = dsp.decimation(fs, min(width * guard, fs), n)
    assert largest % factor == 0
    assert not (size % factor or size < n)
