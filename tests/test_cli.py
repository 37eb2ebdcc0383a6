"""Command-line interface tests: file formats, exit codes, reproducibility."""

import argparse
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from hypersense import classify, cli, pipeline, sensing
from hypersense.classify import MAX_CARRIERS, plan_from_dict
from hypersense.errors import IqFormatError, ParameterError, UnsupportedMethodError
from hypersense.iqio import IqRecording, read_iq, write_iq
from hypersense.noisefloor import MAX_LEVELS


class RawJson(str):
    """JSON text written into a document as it stands (``NaN``, ``1e400``)."""


def _package_env(**extra):
    """The environment with this package's sources first on ``PYTHONPATH``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p), **extra)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _cli_under_1gb(argv, one_cpu=False):
    """Run ``hypersense argv`` in a child process limited to 1 GB of address space."""
    limited = (
        "import os, resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        + ("os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n" if one_cpu else "")
        + "from hypersense import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    return subprocess.run([sys.executable, "-c", limited, *map(str, argv)],
                          env=_package_env(OPENBLAS_NUM_THREADS="1"), capture_output=True,
                          text=True, timeout=60)


def _too_small_k(k):
    return f"k {float(k)!r} is too small: the samples' range needs more than {MAX_LEVELS} levels"


def scenario_dict(**over):
    base = {
        "sample_rate_hz": 2e6,
        "duration_s": 0.02,
        "noise_power_dbw": 0.0,
        "seed": 5,
        "center_freq_hz": 2.44e9,
        "channels": [
            {"kind": "rect_noise", "center_freq_hz": 0.3e6, "snr_db": 12.0,
             "bandwidth_hz": 0.4e6}
        ],
    }
    base.update(over)
    return base


def scenario_channel(**over):
    """The base scenario with ``over`` set on its one channel."""
    return scenario_dict(channels=[dict(scenario_dict()["channels"][0], **over)])


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scenario_dict()))
    return path


class TestSimulate:
    def test_writes_data_sidecar_truth(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "rec.cf32"
        code = cli.main(["simulate", str(scenario_file), "-o", str(out)])
        assert code == 0
        rec = read_iq(out)
        assert rec.sample_rate_hz == 2e6
        assert rec.center_freq_hz == 2.44e9
        assert len(rec.samples) == 40000
        truth = json.loads((tmp_path / "rec.cf32.truth.json").read_text())
        assert truth["fft_size"] == 1024
        assert sum(truth["occupancy_mask"]) > 0

    def test_empty_channels_pure_noise(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(scenario_dict(channels=[])))
        out = tmp_path / "noise.cf32"
        assert cli.main(["simulate", str(path), "-o", str(out)]) == 0
        truth = json.loads((tmp_path / "noise.cf32.truth.json").read_text())
        assert sum(truth["occupancy_mask"]) == 0

    def test_nonexistent_config_exit2(self, tmp_path):
        assert cli.main(["simulate", str(tmp_path / "nope.json"), "-o", str(tmp_path / "x")]) == 2

    def test_malformed_json_line_anchored(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "sample_rate_hz": 2e6,\n  oops\n}\n')
        assert cli.main(["simulate", str(path), "-o", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"{path}:3:" in err

    def test_bad_channel_kind_exit2(self, tmp_path):
        path = tmp_path / "scn.json"
        bad = scenario_dict()
        bad["channels"][0]["kind"] = "martian"
        path.write_text(json.dumps(bad))
        assert cli.main(["simulate", str(path), "-o", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("scenario, message", [
        ([1], "bad scenario config"),
        (scenario_dict(sample_rate_hz="x"), "bad scenario config"),
        (scenario_channel(snr_db="x"), "bad scenario config"),
        (scenario_channel(snr_db="10"), "bad scenario config: channels[0].snr_db"),
        (scenario_dict(seed=3.9), "bad scenario config: seed"),
        (scenario_dict(noise_power_dbw="nan"), "bad scenario config: noise_power_dbw"),
        (scenario_dict(noise_power_dbw=float("nan")), "bad scenario config: noise_power_dbw"),
        (scenario_dict(extra=1), "bad scenario config: the top level has unknown field 'extra'"),
        (scenario_dict(seed=-1), "seed must be >= 0"),
        (scenario_channel(kind="ofdm", useful_length=0), "useful_length must be >= 1"),
        (scenario_channel(kind="ofdm", cp_length=-4), "useful_length must be >= 1 and cp_length >= 0"),
        (scenario_channel(kind="ofdm", used_subcarriers=-1), "used_subcarriers must be in"),
        (scenario_channel(kind="ofdm", used_subcarriers=65), "used_subcarriers must be in"),
        (scenario_channel(kind="dsss", chip_rate_hz=0.2e6, carrier_count=2,
                          carrier_spacing_hz=-0.25e6), "carrier_spacing_hz must be >= 0"),
        (scenario_channel(snr_db=4000), "snr_db 4000 over noise_power_dbw 0 exceeds 600 dB"),
        (scenario_dict(noise_power_dbw=800), "noise_power_dbw must be <= 600"),
        (scenario_dict(duration_s=1e9), "Unable to allocate"),  # 2e15 samples: MemoryError
        (scenario_dict(sample_rate_hz=1.0, duration_s=1.0,  # the one bin sits at 0 Hz
                       channels=[dict(scenario_dict()["channels"][0], center_freq_hz=0.25,
                                      bandwidth_hz=0.25)]),
         "rect_noise band [0.125, 0.375] holds no bin of the 1-point DFT"),
    ], ids=["not_an_object", "sample_rate_str", "snr_str", "snr_numeric_str", "seed_float",
            "noise_nan_str", "noise_nan", "unknown_top_key", "seed_negative", "useful_length_0",
            "cp_length_negative", "used_subcarriers_negative", "used_subcarriers_above_useful",
            "carrier_spacing_negative", "snr_overflow", "noise_overflow", "duration_too_large",
            "rect_band_without_bins"])
    def test_malformed_scenario_exit2(self, tmp_path, capsys, scenario, message):
        (tmp_path / "scn.json").write_text(json.dumps(scenario))
        assert cli.main(["simulate", str(tmp_path / "scn.json"), "-o", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert [p.name for p in tmp_path.iterdir()] == ["scn.json"]

    def test_run_as_module(self, tmp_path, scenario_file):
        out = tmp_path / "x.cf32"
        proc = subprocess.run(
            [sys.executable, "-m", "hypersense.cli", "simulate", str(scenario_file), "-o", str(out)],
            env=_package_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.is_file()
        assert len(read_iq(out).samples) == 40000

    def test_seed_override(self, tmp_path, scenario_file):
        a, b, c = (tmp_path / n for n in ("a.cf32", "b.cf32", "c.cf32"))
        cli.main(["--seed", "9", "simulate", str(scenario_file), "-o", str(a)])
        cli.main(["--seed", "9", "simulate", str(scenario_file), "-o", str(b)])
        cli.main(["--seed", "10", "simulate", str(scenario_file), "-o", str(c)])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()


@pytest.fixture
def recording_file(tmp_path, scenario_file):
    out = tmp_path / "rec.cf32"
    assert cli.main(["simulate", str(scenario_file), "-o", str(out)]) == 0
    return out


@pytest.fixture
def ism_recording(tmp_path):
    """The shipped ISM scenario, simulated at its own seed."""
    out = tmp_path / "ism.cf32"
    data = resources.files("hypersense.data")
    assert cli.main(["simulate", str(data / "ism_burst_scenario.json"), "-o", str(out)]) == 0
    return out


@pytest.fixture
def plan_file(tmp_path):
    plan = {
        "name": "test plan",
        "entries": [{
            "name": "ISM", "band_hz": [2.4e9, 2.4835e9],
            "candidates": [
                {"label": "rect-like", "expected_bw_hz": [0.2e6, 0.6e6]},
            ],
        }],
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    return path


class TestIdentify:
    def test_report_written_and_deterministic(self, tmp_path, recording_file, plan_file):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert cli.main(["identify", str(recording_file), "--plan", str(plan_file), "-o", str(r1)]) == 0
        assert cli.main(["identify", str(recording_file), "--plan", str(plan_file), "-o", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()
        report = json.loads(r1.read_text())
        assert report["components"]
        assert "timing_s" not in report

    def test_non_finite_report_exit2(self, tmp_path, recording_file, plan_file, monkeypatch, capsys):
        monkeypatch.setattr(pipeline, "report_to_dict", lambda report: {"flags": [float("nan")]})
        out = tmp_path / "r.json"
        code = cli.main(["identify", str(recording_file), "--plan", str(plan_file), "-o", str(out)])
        assert code == 2
        assert not out.exists()
        assert "cannot write JSON" in capsys.readouterr().err

    def test_truncated_data_exit3(self, tmp_path, recording_file, plan_file):
        data = recording_file.read_bytes()
        recording_file.write_bytes(data[:-16])
        code = cli.main(["identify", str(recording_file), "--plan", str(plan_file),
                         "-o", str(tmp_path / "r.json")])
        assert code == 3

    # methods the paper names that have no pipeline stage
    @pytest.mark.parametrize("method", ["Wavelet", "matched_filter", "Template Matching"])
    def test_unsupported_method_exit4(self, tmp_path, recording_file, capsys, method):
        plan = {
            "name": "bad", "entries": [{
                "name": "ISM", "band_hz": [2.4e9, 2.4835e9],
                "candidates": [{"label": "w", "expected_bw_hz": [0.2e6, 0.6e6],
                                "preferred_method": method}],
            }],
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        out = tmp_path / "r.json"
        code = cli.main(["identify", str(recording_file), "--plan", str(path), "-o", str(out)])
        assert code == 4
        assert not out.exists()
        assert method in capsys.readouterr().err

    def test_unsupported_method_rejected_with_the_plan(self, tmp_path, recording_file):
        # the candidate fits no component, so no component would ever select it
        plan = {
            "name": "bad", "entries": [{
                "name": "ISM", "band_hz": [2.4e9, 2.4835e9],
                "candidates": [{"label": "w", "expected_bw_hz": [20e6, 30e6],
                                "preferred_method": "Wavelet"}],
            }],
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        out = tmp_path / "r.json"
        code = cli.main(["identify", str(recording_file), "--plan", str(path), "-o", str(out)])
        assert code == 4
        assert not out.exists()

    def test_emit_plot_data_row_counts(self, tmp_path, recording_file, plan_file):
        psd_csv = tmp_path / "psd.csv"
        env_csv = tmp_path / "env.csv"
        cyc_csv = tmp_path / "cyc.csv"
        code = cli.main(["identify", str(recording_file), "--plan", str(plan_file),
                         "-o", str(tmp_path / "r.json"),
                         "--emit-psd", str(psd_csv), "--emit-envelope", str(env_csv),
                         "--emit-cyclic", str(cyc_csv)])
        assert code == 0
        assert len(psd_csv.read_text().splitlines()) == 1024
        assert len(env_csv.read_text().splitlines()) == 40000
        # no cyclic candidate in this plan: empty profile, zero rows
        assert cyc_csv.read_text() == ""
        first = psd_csv.read_text().splitlines()[0].split(",")
        assert len(first) == 2
        float(first[0]), float(first[1])

    def test_emit_cyclic_profile_rows(self, tmp_path, recording_file):
        plan = {
            "name": "cyc", "entries": [{
                "name": "ISM", "band_hz": [2.4e9, 2.4835e9],
                "candidates": [{"label": "c", "expected_bw_hz": [0.2e6, 0.6e6],
                                "cyclic_features_hz": [
                                    {"freq_hz": 0.5e6, "tolerance_hz": 1e4}]}],
            }],
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        cyc_csv = tmp_path / "cyc.csv"
        code = cli.main(["identify", str(recording_file), "--plan", str(plan_path),
                         "-o", str(tmp_path / "r.json"), "--emit-cyclic", str(cyc_csv)])
        assert code == 0
        rows = cyc_csv.read_text().splitlines()
        assert len(rows) > 10  # one row per scanned grid point
        float(rows[0].split(",")[0])
        # the 0.5 MHz line widens the channelizer guard, and this noise block
        # has no such line, so the verdict follows the widened rescan; the
        # export is that scan, not one redone at the default guard
        report = pipeline.run_identification(
            read_iq(recording_file), pipeline.PipelineConfig(), plan_from_dict(plan))
        first = next(r for r in report.results if r.verdict and any(
            ev.method == sensing.METHOD_CYCLO for ev in r.verdict.evidence))
        assert first.verdict.extras["rescanned"]
        scan = [ev for ev in first.verdict.evidence
                if ev.method == sensing.METHOD_CYCLO][-1].extras["profile"]
        exported = np.loadtxt(cyc_csv, delimiter=",", ndmin=2)
        assert np.array_equal(exported[:, 0], scan.alpha_grid)
        assert np.array_equal(exported[:, 1], scan.magnitude_db)

    def test_cyclic_step_below_resolution_is_a_component_error(self, tmp_path):
        # At 0.01 Hz the PCS candidate's windows would hold about 152 million
        # grid points, spaced far finer than the scan's 50 Hz resolution on the
        # 196,608-sample channel.  Run under a 1 GB address-space limit on one
        # CPU (one pool thread), identify must end at once with that error.
        data = resources.files("hypersense.data")
        rec, cfg, out = tmp_path / "pcs.cf32", tmp_path / "cfg.json", tmp_path / "r.json"
        assert cli.main(["simulate", str(data / "pcs_multicarrier_scenario.json"), "-o", str(rec)]) == 0
        cfg.write_text(json.dumps({"cyclic_step_hz": 0.01}))
        proc = _cli_under_1gb(["identify", rec, "--config", cfg, "--plan", data / "pcs1900_plan.json",
                               "-o", out], one_cpu=True)
        assert proc.returncode == 0, proc.stderr
        assert [c["error"] for c in json.loads(out.read_text())["components"]] == [
            "ParameterError: cyclic_step_hz 0.01 Hz is below the cyclic scan's resolution "
            "of 50 Hz on this 196608-sample channel"
        ]

    def test_tiny_guard_factor_ends_in_a_report(self, tmp_path):
        # At guard_factor 1e-12 the narrowest channel the config allows would be
        # decimated by 2**39, and the shared FFT padded to 8 TiB; capped at the
        # largest power of two <= the sample count, the padding stays below 2n.
        data = resources.files("hypersense.data")
        rec, cfg, out = tmp_path / "pcs.cf32", tmp_path / "cfg.json", tmp_path / "r.json"
        assert cli.main(["simulate", str(data / "pcs_multicarrier_scenario.json"), "-o", str(rec)]) == 0
        cfg.write_text(json.dumps({"guard_factor": 1e-12}))
        proc = _cli_under_1gb(["identify", rec, "--config", cfg, "--plan", data / "pcs1900_plan.json",
                               "-o", out])
        assert proc.returncode == 0, proc.stderr
        # the cyclic guard widens the one component back to a channel that identifies
        assert [(c["error"], c["label"]) for c in json.loads(out.read_text())["components"]] == [
            (None, "cdma2000-like")]

    @pytest.mark.parametrize("k", ["1e-300", "1e-9"])
    def test_tiny_k_exit2(self, tmp_path, ism_recording, k):
        # At k 1e-300 the level count would overflow a C long, and at 1e-9
        # the spectrum would need 22.5 GiB of level counts; over MAX_LEVELS,
        # the floor detector rejects both before it counts a level.
        cfg, out = tmp_path / "cfg.json", tmp_path / "r.json"
        cfg.write_text(json.dumps({"floor_k": float(k)}))
        plan = resources.files("hypersense.data") / "ism24_plan.json"
        proc = _cli_under_1gb(["identify", ism_recording, "--config", cfg, "--plan", plan, "-o", out])
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {_too_small_k(k)}") and proc.stderr.count("\n") == 1
        assert not out.exists()

    def test_tiny_peak_k_is_a_component_error(self, tmp_path, ism_recording):
        # the FSK, DSSS and OFDM components run the cyclic scan or the lag
        # profile, whose peaks are found at peak_k; the other two run energy
        # detection alone
        cfg, out = tmp_path / "cfg.json", tmp_path / "r.json"
        cfg.write_text(json.dumps({"peak_k": 1e-300}))
        plan = resources.files("hypersense.data") / "ism24_plan.json"
        proc = _cli_under_1gb(["identify", ism_recording, "--config", cfg, "--plan", plan, "-o", out])
        assert proc.returncode == 0, proc.stderr
        errors = [c["error"] for c in json.loads(out.read_text())["components"]]
        assert [e is not None for e in errors] == [True, False, False, True, True]
        assert all(e.startswith(f"ParameterError: {_too_small_k(1e-300)}") for e in errors if e)

    @pytest.mark.parametrize("plan", [[1], {"entries": [{
        "name": "ISM", "band_hz": [2.4e9, 2.5e9],
        "candidates": [{"label": "x", "expected_bw_hz": ["x", 2]}]}]},
        *({"entries": [{"name": "ISM", "band_hz": [2.4e9, 2.5e9], "candidates": [
            {"label": "x", "expected_bw_hz": [0.2e6, 0.6e6], **candidate}]}]}
          for candidate in (
            {"cyclic_features_hz": [{"freq_hz": "1228800", "tolerance_hz": 1e4}]},
            {"cyclic_features_hz": [{"freq_hz": 1228800.0, "tolerance_hz": float("inf")}]},
            {"carrier_spacing_hz": float("nan")},
            {"label": 5},
            {"label": [1]},
            {"cp_feature": {"useful_s": 3.2e-5, "cp_s": float("nan"), "tolerance_s": 2e-6}},
            {"max_carriers": 2.0},
            {"expected_bw_hz": [0.2e6, 0.4e6, 0.6e6]},
        )),
    ], ids=["not_an_object", "bandwidth_str", "cyclic_freq_str", "cyclic_tol_inf",
            "carrier_spacing_nan", "label_int", "label_list", "cp_nan", "max_carriers_float",
            "bandwidth_three_values"])
    def test_malformed_plan_exit2(self, tmp_path, recording_file, capsys, plan):
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        out = tmp_path / "r.json"
        assert cli.main(["identify", str(recording_file), "--plan", str(tmp_path / "plan.json"),
                         "-o", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: bad channel plan")

    @pytest.mark.parametrize("candidate, message", [
        # a method that is not a string is a type error, caught by the loader
        ({"preferred_method": 5}, "bad channel plan: entries[0].candidates[0].preferred_method"),
        ({"cyclic_features_hz": [{"freq_hz": 0.0, "tolerance_hz": 1e3}]}, "w: "),
        ({"cyclic_features_hz": [{"freq_hz": -1e6, "tolerance_hz": 1e3}]}, "w: "),
        ({"cyclic_features_hz": [{"freq_hz": 1e6, "tolerance_hz": -1.0}]}, "w: "),
        ({"expected_bw_hz": [0.0, 0.6e6]}, "w: expected_bw_hz"),
        ({"max_carriers": 0}, "w: needs max_carriers >= 1"),
        ({"max_carriers": 2**62}, f"w: max_carriers must be <= {MAX_CARRIERS}, got {2**62}"),
        ({"max_carriers": MAX_CARRIERS + 1, "carrier_spacing_hz": 1.25e6},
         f"w: max_carriers must be <= {MAX_CARRIERS}, got {MAX_CARRIERS + 1}"),
        ({"carrier_spacing_hz": -1.25e6}, "w: needs max_carriers >= 1 and carrier_spacing_hz >= 0"),
        ({"cp_feature": {"useful_s": 0.0, "cp_s": 8e-6, "tolerance_s": 2e-6}}, "w: cp_feature"),
        ({"cp_feature": {"useful_s": 3.2e-5, "cp_s": -1e-6, "tolerance_s": 2e-6}}, "w: cp_feature"),
        ({"cp_feature": {"useful_s": 3.2e-5, "cp_s": 8e-6, "tolerance_s": -1e-6}}, "w: cp_feature"),
    ], ids=["method_int", "cyclic_freq_0", "cyclic_freq_negative", "cyclic_tol_negative",
            "bandwidth_min_0", "max_carriers_0", "max_carriers_2**62", "max_carriers_over_cap",
            "carrier_spacing_negative", "cp_useful_0", "cp_negative", "cp_tol_negative"])
    def test_bad_plan_value_exit2(self, tmp_path, recording_file, capsys, candidate, message):
        plan = {"name": "bad", "entries": [{
            "name": "ISM", "band_hz": [2.4e9, 2.4835e9],
            "candidates": [{"label": "w", "expected_bw_hz": [0.2e6, 0.6e6], **candidate}],
        }]}
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        out = tmp_path / "r.json"
        assert cli.main(["identify", str(recording_file), "--plan", str(tmp_path / "plan.json"),
                         "-o", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_missing_iq_exit2(self, tmp_path, plan_file):
        assert cli.main(["identify", str(tmp_path / "none.cf32"), "--plan", str(plan_file)]) == 2

    @pytest.mark.parametrize("field, value", [
        ("sample_rate_hz", 0), ("sample_rate_hz", -2e6), ("sample_rate_hz", float("inf")),
        ("sample_rate_hz", float("nan")), ("sample_rate_hz", "fast"), ("sample_rate_hz", True),
        ("sample_count", "40000"), ("sample_count", 40000.5),
        pytest.param("center_freq_hz", "x", id="center_freq_hz-str"),
        pytest.param("center_freq_hz", [1], id="center_freq_hz-list"),
        pytest.param("center_freq_hz", True, id="center_freq_hz-True"),
        pytest.param("center_freq_hz", RawJson("NaN"), id="center_freq_hz-NaN"),
        pytest.param("center_freq_hz", RawJson("1e400"), id="center_freq_hz-1e400"),
        pytest.param("center_freq_hz", 1e308, id="center_freq_hz-1e308"),
        pytest.param("center_freq_hz", -2e12, id="center_freq_hz-minus-2e12"),
        pytest.param("sample_rate_hz", 1.7e308, id="sample_rate_hz-1.7e308"),
        pytest.param("description", 5, id="description-5"),
        pytest.param("description", [1, 2], id="description-list"),
        pytest.param("description", None, id="description-null"),
        pytest.param(None, b"5", id="bare_number"),
        pytest.param(None, b"\xff\xfe{}", id="not_utf8"),
        pytest.param(None, None, id="missing"),
    ])
    def test_bad_sidecar_number_exit3(self, tmp_path, recording_file, plan_file, capsys,
                                      field, value):
        side = Path(str(recording_file) + ".json")
        if field is None:  # the whole sidecar as raw bytes, or no sidecar
            side.unlink()
            if value is not None:
                side.write_bytes(value)
        else:
            header = json.loads(side.read_text())
            header[field] = "@raw" if isinstance(value, RawJson) else value
            side.write_text(json.dumps(header).replace('"@raw"', str(value)))
        out = tmp_path / "r.json"
        code = cli.main(["identify", str(recording_file), "--plan", str(plan_file), "-o", str(out)])
        assert code == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(side) in err

    def test_undeclared_sidecar_key_ignored(self, tmp_path, recording_file, plan_file):
        side = Path(str(recording_file) + ".json")
        side.write_text(json.dumps({**json.loads(side.read_text()), "antenna": "east"}))
        out = tmp_path / "r.json"
        assert cli.main(["identify", str(recording_file), "--plan", str(plan_file),
                         "-o", str(out)]) == 0
        assert "antenna" not in json.loads(out.read_text())["recording"]

    @pytest.mark.parametrize("samples, flag, psd_rows", [
        (np.zeros(40000, dtype=complex), "degenerate_spectrum", 1024),
        (np.ones(100, dtype=complex), "insufficient_data", 0),
        (np.zeros(0, dtype=complex), "insufficient_data", 0),
    ], ids=["silence", "shorter_than_fft", "empty"])
    def test_degenerate_recording_flagged(self, tmp_path, plan_file, samples, flag, psd_rows):
        rec = tmp_path / "d.cf32"
        write_iq(IqRecording(samples, 2e6, 2.44e9), rec)
        out, psd, env = tmp_path / "r.json", tmp_path / "psd.csv", tmp_path / "env.csv"
        assert cli.main(["identify", str(rec), "--plan", str(plan_file), "-o", str(out),
                         "--emit-psd", str(psd), "--emit-envelope", str(env)]) == 0
        report = json.loads(out.read_text())
        assert report["components"] == []
        assert report["noise_floor"] is None
        assert report["flags"] == [flag]
        assert len(psd.read_text().splitlines()) == psd_rows
        assert len(env.read_text().splitlines()) == len(samples)

    def test_non_finite_sample_exit3(self, tmp_path, recording_file, plan_file, capsys):
        samples = np.fromfile(recording_file, dtype="<c8")
        samples[1234] = np.nan
        samples.tofile(recording_file)
        out = tmp_path / "r.json"
        code = cli.main(["identify", str(recording_file), "--plan", str(plan_file), "-o", str(out)])
        assert code == 3
        assert not out.exists()
        assert "sample 1234" in capsys.readouterr().err


class TestIqFormat:
    def test_sidecar_round_trip(self, tmp_path):
        rec = IqRecording(np.array([1 + 2j, -0.5j, 3.0]), 2e6, 2.44e9, "roof antenna, 12 dB LNA")
        side = write_iq(rec, tmp_path / "r.cf32")
        assert list(json.loads(side.read_text())) == [
            "sample_rate_hz", "center_freq_hz", "sample_format", "sample_count", "description"]
        back = read_iq(tmp_path / "r.cf32")
        assert (back.sample_rate_hz, back.center_freq_hz) == (2e6, 2.44e9)
        assert back.description == "roof antenna, 12 dB LNA"
        np.testing.assert_array_equal(back.samples, rec.samples)

    def test_non_finite_sidecar_writes_nothing(self, tmp_path):
        with pytest.raises(ParameterError):
            write_iq(IqRecording(np.ones(4, dtype=complex), float("inf")), tmp_path / "r.cf32")
        assert list(tmp_path.iterdir()) == []


class TestBadConfig:
    @pytest.mark.parametrize("config", [
        {"fft_size": 1000},
        {"fft_size": 0},
        {"floor_k": 2},
        {"overlap": 1.5},
        {"tau_max": "256"},
        {"cyclic_step_hz": 0},
        {"fft_size": "1024"},
        {"parallel": False},
        {"channelize_enabled": False},
        [1],
    ], ids=["fft_size_1000", "fft_size_0", "k_2", "overlap_1.5", "tau_max_str", "cyclic_step_0",
            "fft_size_str", "removed_field", "channelize_enabled", "not_an_object"])
    def test_exit2_and_no_report(self, tmp_path, recording_file, plan_file, capsys, config):
        path, out = tmp_path / "cfg.json", tmp_path / "r.json"
        path.write_text(json.dumps(config))
        code = cli.main(["identify", str(recording_file), "--config", str(path),
                         "--plan", str(plan_file), "-o", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")  # the config's error, not a usage error
        assert not out.exists()


SIMULATE = ["simulate", "{scn}"]
EVALUATE = ["evaluate", "--snr-list", "10", "--occ-list", "0.25", "--trials", "2", "--resamples", "1"]


class TestExitCodes:
    @pytest.mark.parametrize("error, code", [
        (UnsupportedMethodError, 4), (IqFormatError, 3), (ParameterError, 2),
        (FileNotFoundError, 2), (RuntimeError, None),
    ])
    def test_error_class_decides_the_code(self, monkeypatch, capsys, error, code):
        def fail(args):
            raise error("boom")

        monkeypatch.setattr(cli, "cmd_identify", fail)
        if code is None:  # a bug stays a traceback
            with pytest.raises(error, match="boom"):
                cli.main(["identify", "rec.cf32"])
        else:
            assert cli.main(["identify", "rec.cf32"]) == code
            assert capsys.readouterr().err == "error: boom\n"

    @pytest.mark.parametrize("argv", [
        [*SIMULATE, "-o", "{tmp}/missing/x"],
        ["identify", "{rec}", "--plan", "{plan}", "-o", "{tmp}/missing/x"],
        [*EVALUATE, "-o", "{tmp}/missing/x"],
        [*SIMULATE, "--fft-size=0", "-o", "{tmp}/x"],
        [*SIMULATE, "--fft-size=-8", "-o", "{tmp}/x"],
        [*EVALUATE, "--fft-size=0", "-o", "{tmp}/x"],
        [*EVALUATE, "--fft-size=-8", "-o", "{tmp}/x"],
        ["--seed=-1", *EVALUATE, "-o", "{tmp}/x"],
    ], ids=["simulate_missing_dir", "identify_missing_dir", "evaluate_missing_dir",
            "simulate_fft_0", "simulate_fft_-8", "evaluate_fft_0", "evaluate_fft_-8",
            "evaluate_seed_-1"])
    def test_exit2_writes_nothing(self, tmp_path, capsys, scenario_file, recording_file, plan_file,
                                  argv):
        before = sorted(tmp_path.rglob("*"))
        paths = {"tmp": tmp_path, "scn": scenario_file, "rec": recording_file, "plan": plan_file}
        assert cli.main([arg.format(**paths) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")  # not a usage error
        assert sorted(tmp_path.rglob("*")) == before


class TestEvaluate:
    def test_small_grid_csv(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = cli.main(["evaluate", "--snr-list", "0,10", "--occ-list", "0.25",
                         "--trials", "4", "--resamples", "50", "-o", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3

    def test_bad_grid_exit2(self, tmp_path):
        assert cli.main(["evaluate", "--snr-list", "abc", "--occ-list", "0.25",
                         "-o", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("snr, occ", [
        ("nan", "0"), ("10", "nan"), ("inf", "0.25"), ("10,-inf", "0.25"), ("10", "0.25,inf"),
    ])
    def test_non_finite_grid_exit2(self, tmp_path, capsys, snr, occ):
        out = tmp_path / "x.csv"
        assert cli.main(["evaluate", "--snr-list", snr, "--occ-list", occ,
                         "--trials", "2", "--resamples", "1", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("occ", ["0.001", "0.002"])
    def test_occupancy_below_one_bin_per_channel(self, tmp_path, occ):
        # 1 or 2 of 1024 bins: the channels that get no bin are left out
        out = tmp_path / "x.csv"
        assert cli.main(["evaluate", "--snr-list", "10", "--occ-list", occ,
                         "--trials", "2", "--resamples", "1", "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2

    def test_workers_flag_gone(self, tmp_path):
        # the trials spread over the cores of the affinity mask; no flag sets that
        assert cli.main([*EVALUATE, "--workers", "2", "-o", str(tmp_path / "x.csv")]) == 2
        assert not (tmp_path / "x.csv").exists()


class TestNfspem:
    def test_values_only_csv(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=256)
        vals[100:120] += 15.0
        path = tmp_path / "vals.csv"
        path.write_text("\n".join(f"{float(v)!r}" for v in vals) + "\n")
        assert cli.main(["nfspem", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["level_count"] >= 2
        assert len(out["components"]) >= 1
        comp = out["components"][0]
        assert 95 <= comp["start_index"] <= 105

    def test_axis_value_csv(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=128)
        vals[64:80] += 12.0
        lines = [f"{i*10.0!r},{float(v)!r}" for i, v in enumerate(vals)]
        path = tmp_path / "vals.csv"
        path.write_text("\n".join(lines) + "\n")
        assert cli.main(["nfspem", str(path), "--min-width", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        strongest = max(out["components"], key=lambda c: c["peak_value_db"])
        assert strongest["center"] == pytest.approx(715.0, abs=80.0)

    @pytest.mark.parametrize("text, flags", [
        ("\n".join(["1.0"] * 64) + "\n", []),
        ("1.0\n", []),
        ("1.0\nnan\n2.0\n", []),
        ("1.0\n2.0\n5.0\n", ["--min-width", "0"]),
        ("0,1\n1,2\n5\n2,3\n", []),
        ("0,1\n2,5,7\n3,2\n", []),
    ], ids=["constant", "one_value", "nan", "min_width_0", "short_row", "three_columns"])
    def test_constant_input_exit2(self, tmp_path, capsys, text, flags):
        path = tmp_path / "vals.csv"
        path.write_text(text)
        assert cli.main(["nfspem", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        "1.0\n2.0\n1e308\n1.5\n1e308\n1e308\n3.0\n1.2\n",
        "1.0\n2.0\n1000.5\n1.5\n",
        "1.0\n-inf\n2.0\n",
        "1e308,1.0\n-1e308,2.0\n0,5.0\n",
        "0,1.0\n1,2.0\n2e12,5.0\n",
    ], ids=["value_1e308", "value_over_1000_db", "value_-inf", "axis_1e308", "axis_2e12"])
    def test_out_of_range_exit2_writes_nothing(self, tmp_path, capsys, text):
        path, out = tmp_path / "vals.csv", tmp_path / "floor.json"
        path.write_text(text)
        assert cli.main(["nfspem", str(path), "--min-width", "1", "-o", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "within" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "0,0\n1,0.1\n100,20\n101,21\n102,20.5\n103,0.2\n104,0.1\n105,0\n",
        "5,0\n5,0.1\n5,20\n5,21\n5,0.2\n5,0.1\n",
    ], ids=["uneven", "zero_step"])
    def test_axis_without_one_step_exit2_writes_nothing(self, tmp_path, capsys, text):
        # the axis is read as a start and one step: read from its first two
        # rows, the uneven axis would place the run at 100-102 near 3
        path, out = tmp_path / "vals.csv", tmp_path / "floor.json"
        path.write_text(text)
        assert cli.main(["nfspem", str(path), "--min-width", "1", "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: the axis must step by one constant, non-zero amount\n")
        assert not out.exists()

    def test_values_at_the_bound_accepted(self, tmp_path, capsys):
        # values at +-1000 dB on an axis that starts at 1e12
        values = [-1000.0, -999.0, -998.0, 1000.0, 1000.0, -1000.0, -999.5, -998.5]
        path = tmp_path / "vals.csv"
        path.write_text("\n".join(f"{1e12 - i * 1e11!r},{v!r}" for i, v in enumerate(values)))
        assert cli.main(["nfspem", str(path), "--min-width", "1"]) == 0
        out = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        comp, = out["components"]
        assert (comp["start_index"], comp["end_index"]) == (3, 4)
        assert comp["center"] == pytest.approx(6.5e11)

    @pytest.mark.parametrize("text, k", [
        ("\n".join(f"{float(v)!r}" for v in np.random.default_rng(2).normal(size=200)), "1e-300"),
        ("0\n1e-150\n0\n", "1e-200"),
    ], ids=["normal_k_1e-300", "k_sigma_underflows"])
    def test_tiny_k_exit2_writes_nothing(self, tmp_path, capsys, text, k):
        # the level count would overflow; with k 1e-200, k * sigma underflows to 0
        path, out = tmp_path / "vals.csv", tmp_path / "floor.json"
        path.write_text(text)
        assert cli.main(["nfspem", str(path), "--k", k, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: ParameterError: {_too_small_k(k)}") and err.count("\n") == 1
        assert not out.exists()

    def test_k_flag(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        path = tmp_path / "v.csv"
        path.write_text("\n".join(f"{float(v)!r}" for v in rng.normal(size=200)))
        assert cli.main(["nfspem", str(path), "--k", "0.5"]) == 0
        k_half = json.loads(capsys.readouterr().out)["level_count"]
        assert cli.main(["nfspem", str(path)]) == 0
        k_one = json.loads(capsys.readouterr().out)["level_count"]
        assert k_half >= 2 * k_one - 1


class TestStartup:
    def test_cli_import_leaves_out_scipy_signal_and_stats(self):
        # together they take longer to import than an identification takes to run
        code = ("import sys, hypersense.cli\n"
                "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
                "(['scipy', 'signal'], ['scipy', 'stats'])))")
        proc = subprocess.run([sys.executable, "-c", code], env=_package_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestParser:
    def test_unknown_command_exit2(self):
        assert cli.main(["frobnicate"]) == 2

    def test_no_args_exit2(self):
        assert cli.main([]) == 2

    @pytest.mark.parametrize("argv", [["--help"], ["identify", "--help"]])
    def test_help_exit0(self, capsys, argv):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: hypersense")

    @pytest.mark.parametrize("argv", [
        ["--k", "0.5", *EVALUATE, "-o", "{tmp}/x"],
        ["--k", "0.5", *SIMULATE, "-o", "{tmp}/x"],
        ["--k", "0.5", "nfspem", "{csv}", "-o", "{tmp}/x"],
        ["--config", "{cfg}", *SIMULATE, "-o", "{tmp}/x"],
        ["--config", "{cfg}", *EVALUATE, "-o", "{tmp}/x"],
        ["--config", "{cfg}", "nfspem", "{csv}", "-o", "{tmp}/x"],
        ["--fft-size", "512", "identify", "{rec}", "--plan", "{plan}", "-o", "{tmp}/x"],
        ["identify", "{rec}", "--plan", "{plan}", "--k", "0.5", "-o", "{tmp}/x"],
        ["nfspem", "{csv}", "--fft-size", "8", "-o", "{tmp}/x"],
    ], ids=["k_evaluate", "k_simulate", "k_nfspem", "config_simulate", "config_evaluate",
            "config_nfspem", "fft_size_identify", "identify_k", "nfspem_fft_size"])
    def test_option_the_command_does_not_read_exit2(self, tmp_path, capsys, scenario_file,
                                                     recording_file, plan_file, argv):
        (tmp_path / "cfg.json").write_text("{}")
        (tmp_path / "vals.csv").write_text("1.0\n2.0\n9.0\n1.5\n")
        before = sorted(tmp_path.rglob("*"))
        paths = {"tmp": tmp_path, "scn": scenario_file, "rec": recording_file, "plan": plan_file,
                 "cfg": tmp_path / "cfg.json", "csv": tmp_path / "vals.csv"}
        assert cli.main([arg.format(**paths) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith("usage: hypersense")
        assert sorted(tmp_path.rglob("*")) == before

    def test_plan_defaults_to_the_shipped_ism_plan(self):
        plan = cli.build_parser().parse_args(["identify", "rec.cf32"]).plan
        assert Path(plan) == Path(str(resources.files("hypersense.data") / "ism24_plan.json"))
        assert classify.load_plan(plan).name

    def test_readme_flags_exist(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        parser = cli.build_parser()
        options = set(parser._option_string_actions)
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    options |= set(sub._option_string_actions)
        documented = set(re.findall(r"--[a-z][a-z0-9-]*", section))
        assert documented and documented <= options, documented - options
