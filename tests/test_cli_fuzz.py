"""A fuzz of ``cli.main`` end to end: any recording, sidecar, scenario or CSV exits
0, 2, 3 or 4, no exception escapes, a run that fails writes no output file, and
every JSON file written (report, sidecar, truth file, ``nfspem`` result) is
strict (no ``NaN`` or ``Infinity``)."""

import json
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from hypersense import cli
from hypersense.iqio import IqRecording, sidecar_path, write_iq

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from test_schema import json_values  # noqa: E402  (needs hypothesis)

DATA = resources.files("hypersense.data")
EXIT_CODES = {0, 2, 3, 4}


def _noise(n, rng):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


SHAPES = {
    "zero": lambda n, rng: np.zeros(n, dtype=complex),
    "constant": lambda n, rng: np.full(n, 0.5 - 0.25j),
    "tone": lambda n, rng: np.exp(2j * np.pi * 0.1 * np.arange(n)),
    "noise": _noise,
    "huge": lambda n, rng: 1e30 * _noise(n, rng),
    "subnormal": lambda n, rng: 1e-40 * _noise(n, rng),  # below float32's smallest normal
}


@st.composite
def sidecars(draw, sample_count):
    """A valid sidecar with some of its leaves replaced by arbitrary JSON values."""
    header = {"sample_rate_hz": 2e6, "center_freq_hz": 2.44e9, "sample_format": "cf32le",
              "sample_count": sample_count, "description": "fuzz"}
    for key in draw(st.lists(st.sampled_from(list(header)), unique=True, max_size=3)):
        header[key] = draw(json_values)
    return header


csv_cells = st.floats().map(repr) | st.integers().map(str) | st.text("0123456789.e-+naif ", max_size=6)
csv_text = st.lists(  # mostly numbers, one or two columns, sometimes junk
    st.lists(st.floats(-1e3, 1e3).map(repr), min_size=1, max_size=2)
    | st.lists(csv_cells, min_size=1, max_size=3),
    max_size=300,
).map(lambda rows: "\n".join(",".join(row) for row in rows))
# a clean column of values, which the parser hands to the floor detector
value_column = st.lists(st.floats(-1e3, 1e3).map(repr), min_size=2, max_size=300).map("\n".join)


def _run(argv, out):
    cli.build_parser().parse_args(argv)  # a usage error would exit 2 without running the command
    code = cli.main(argv)
    hypothesis.event(f"exit {code}")
    assert code in EXIT_CODES
    assert code == 0 or not out.exists()


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _strict(path):
    return json.loads(path.read_text(), parse_constant=_reject_constant)


@hypothesis.settings(max_examples=20, deadline=None, database=None)
@hypothesis.given(shape=st.sampled_from(sorted(SHAPES)), n=st.integers(0, 2_000) | st.integers(2_000, 20_000),
                  seed=st.integers(0, 2**32 - 1), plan=st.sampled_from(["ism24_plan.json",
                                                                        "pcs1900_plan.json"]),
                  data=st.data())
def test_identify_any_recording_and_sidecar(shape, n, seed, plan, data):
    with tempfile.TemporaryDirectory() as tmp:
        rec, out = Path(tmp) / "rec.cf32", Path(tmp) / "report.json"
        write_iq(IqRecording(SHAPES[shape](n, np.random.default_rng(seed)), 2e6, 2.44e9), rec)
        sidecar_path(rec).write_text(json.dumps(data.draw(sidecars(n))))
        _run(["identify", str(rec), "--plan", str(DATA / plan), "-o", str(out)], out)
        if out.exists():
            _strict(out)


# a 20,000-sample PSK channel whose plan candidate predicts its cyclic line, so
# the cyclic scan runs on it with the drawn grid step and lag cap
PSK_SCENARIO = {"sample_rate_hz": 2e6, "duration_s": 0.01, "noise_power_dbw": 0.0, "seed": 3,
                "center_freq_hz": 2.44e9, "channels": [
                    {"kind": "psk_burst", "center_freq_hz": 3e5, "snr_db": 12.0, "symbol_rate_hz": 1.25e5}]}
PSK_PLAN = {"name": "fuzz", "entries": [{"name": "ISM", "band_hz": [2.4e9, 2.5e9], "candidates": [
    {"label": "psk", "expected_bw_hz": [1e5, 5e5],
     "cyclic_features_hz": [{"freq_hz": 1.25e5, "tolerance_hz": 1e3}]}]}]}

# a level height coefficient, log-uniform over [1e-300, 1]
tiny_to_one = st.floats(-300.0, 0.0).map(lambda e: 10.0**e)

pipeline_configs = st.fixed_dictionaries({
    "fft_size": st.integers(3, 12).map(lambda e: 2**e),
    "floor_min_width_bins": st.integers(1, 16) | st.integers(1, 2**53),
    "guard_factor": st.floats(-12.0, 1.0).map(lambda e: 10.0**e),
    "cyclic_step_hz": st.floats(1e3, 5e4) | st.floats(-300.0, 308.0).map(lambda e: 10.0**e),
    "floor_k": tiny_to_one,
    "peak_k": tiny_to_one,
})


# most drawn k are too small for the floor detector and exit 2 at once, so
# more examples keep about as many configs running the whole pipeline
@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(config=pipeline_configs, shape=st.sampled_from(["psk", "noise", "tone"]))
def test_identify_any_pipeline_config(config, shape):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        rec, cfg, plan, out = tmp / "rec.cf32", tmp / "cfg.json", tmp / "plan.json", tmp / "report.json"
        if shape == "psk":
            (tmp / "scn.json").write_text(json.dumps(PSK_SCENARIO))
            assert cli.main(["simulate", str(tmp / "scn.json"), "-o", str(rec)]) == 0
        else:
            write_iq(IqRecording(SHAPES[shape](20_000, np.random.default_rng(3)), 2e6, 2.44e9), rec)
        cfg.write_text(json.dumps(config))
        plan.write_text(json.dumps(PSK_PLAN))
        _run(["identify", str(rec), "--config", str(cfg), "--plan", str(plan), "-o", str(out)], out)
        if out.exists():
            _strict(out)


@st.composite
def scenarios(draw):
    """Up to 4,000 samples at 1 Hz to 1e15 Hz, up to three channels of two kinds,
    with centres, widths and rates anywhere in the band."""
    fs = draw(st.floats(1.0, 1e15))
    band = st.floats(-0.5, 0.5).map(lambda f: f * fs)
    channel = st.fixed_dictionaries({
        "kind": st.sampled_from(["rect_noise", "psk_burst"]), "center_freq_hz": band,
        "snr_db": st.floats(-100.0, 100.0), "bandwidth_hz": st.floats(0.0, 1.0).map(lambda f: f * fs),
        "symbol_rate_hz": st.floats(0.0, 1.0).map(lambda f: f * fs),
    })
    return {"sample_rate_hz": fs, "duration_s": draw(st.integers(1, 4000)) / fs,
            "noise_power_dbw": draw(st.floats(-400.0, 400.0)), "seed": draw(st.integers(0, 2**32 - 1)),
            "center_freq_hz": draw(st.floats(allow_nan=False, allow_infinity=False)), "channels": draw(st.lists(channel, max_size=3))}


@hypothesis.settings(max_examples=50, deadline=None, database=None)
@hypothesis.given(scenarios())
def test_simulate_any_scenario(scenario):
    with tempfile.TemporaryDirectory() as tmp:
        scn, rec = Path(tmp) / "scn.json", Path(tmp) / "rec.cf32"
        scn.write_text(json.dumps(scenario))
        _run(["simulate", str(scn), "-o", str(rec)], rec)
        if rec.exists():
            _strict(sidecar_path(rec))
            _strict(Path(str(rec) + ".truth.json"))
        else:  # neither the sidecar nor the truth file either
            assert list(Path(tmp).iterdir()) == [scn]


@hypothesis.settings(max_examples=100, deadline=None, database=None)
@hypothesis.given(content=st.binary(max_size=64) | st.text(max_size=64).map(str.encode)
                  | csv_text.map(str.encode) | value_column.map(str.encode), k=tiny_to_one)
def test_nfspem_any_csv(content, k):
    with tempfile.TemporaryDirectory() as tmp:
        values, out = Path(tmp) / "values.csv", Path(tmp) / "floor.json"
        values.write_bytes(content)
        _run(["nfspem", str(values), "--k", repr(k), "-o", str(out)], out)
        if out.exists():
            _strict(out)
