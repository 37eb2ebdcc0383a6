"""Tests of the benchmark itself: each check must reject a corrupted output.

Run with ``python -m pytest perfbench``.  The outputs are produced by the
benchmark's own passes over fixed seeds, so the good outputs must pass and
every corruption must be caught by the check that owns it.
"""

from __future__ import annotations

import copy
import csv
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, EvaluateWorkload, IdentifyWorkload  # noqa: E402

SEED = 3


def _pass(workload, work: Path):
    workload.setup(work)
    workload.render(work, SEED, 0)
    done = workload.run_pass(work, SEED, 0)
    return done, workload.check_pass(work, 0, done)


def _inputs(workload: IdentifyWorkload, work: Path, done) -> list[dict]:
    out = []
    for rec, (_, report) in zip(workload.recordings, done):
        out.append(
            {
                "report": json.loads(report.read_text()),
                "scenario": json.loads(rec.path(rec.scenario, work).read_text()),
                "truth": json.loads((work / f"{rec.stem}-0.cf32.truth.json").read_text()),
                "plan": json.loads(rec.path(rec.plan, work).read_text()),
                "labels": rec.labels,
            }
        )
    return out


@pytest.fixture(scope="module")
def shipped(tmp_path_factory):
    work = tmp_path_factory.mktemp("shipped")
    workload = WORKLOADS["identify_shipped"]
    done, ops = _pass(workload, work)
    assert [op.problems for op in ops] == [[], []]
    ism, pcs = _inputs(workload, work, done)
    return ism, pcs


@pytest.fixture(scope="module")
def dense(tmp_path_factory):
    work = tmp_path_factory.mktemp("dense")
    workload = WORKLOADS["identify_dense"]
    done, ops = _pass(workload, work)
    assert [op.problems for op in ops] == [[]]
    return _inputs(workload, work, done)[0]


GRID = EvaluateWorkload(snr_list=(-4, 2, 14), occ_list=(0.0, 0.6), trials=8, max_passes=1)


@pytest.fixture(scope="module")
def grid_rows(tmp_path_factory):
    work = tmp_path_factory.mktemp("grid")
    done, ops = _pass(GRID, work)
    assert [op.problems for op in ops] == [[]]
    with open(done[0][1], newline="") as fh:
        return list(csv.DictReader(fh))


def _check(case: dict) -> list[str]:
    return checks.check_identify(
        case["report"], case["scenario"], case["truth"], case["plan"], case["labels"]
    )


def _component(case: dict, label: str) -> dict:
    return next(c for c in case["report"]["components"] if c.get("label") == label)


def _corrupt(case: dict, edit) -> dict:
    bad = copy.deepcopy(case)
    edit(bad)
    return bad


# -- identify reports ---------------------------------------------------------


def test_pcs_report_passes(shipped):
    assert _check(shipped[1]) == []


def test_ism_report_passes_without_burst_check(shipped):
    ism = shipped[0]
    assert checks.check_identify(
        ism["report"], ism["scenario"], ism["truth"], ism["plan"], ism["labels"],
        check_bursts=False,
    ) == []


def test_dense_report_passes(dense):
    assert _check(dense) == []


def test_missing_component_rejected(shipped):
    def edit(case):
        case["report"]["components"] = [
            c for c in case["report"]["components"] if c.get("label") != "cdma2000-like"
        ]

    assert any("no component" in p for p in _check(_corrupt(shipped[1], edit)))


def test_channel_is_its_widest_component(shipped):
    def edit(case, width):
        comps = case["report"]["components"]
        extra = copy.deepcopy(_component(case, "cdma2000-like"))
        extra["component"]["width_hz"] = width
        extra["label"] = "wideband-occupant"
        comps.append(extra)

    sidelobe = _corrupt(shipped[1], lambda case: edit(case, 30e3))
    assert _check(sidelobe) == []
    wider = _corrupt(shipped[1], lambda case: edit(case, 9e6))
    assert any("expected 'cdma2000-like'" in p for p in _check(wider))


def test_component_error_rejected(dense):
    def edit(case):
        case["report"]["components"][0]["error"] = "ValueError: boom"

    assert any("error ValueError" in p for p in _check(_corrupt(dense, edit)))


def test_wrong_label_rejected(shipped):
    def edit(case):
        _component(case, "cdma2000-like")["label"] = "wideband-occupant"

    assert any("expected 'cdma2000-like'" in p for p in _check(_corrupt(shipped[1], edit)))


def test_misplaced_cyclic_line_rejected(shipped):
    def edit(case):
        for m in _component(case, "cdma2000-like")["matched_features"]:
            if m["kind"] == "cyclic":
                m["measured"] += 30e3

    assert any("no cyclic line" in p for p in _check(_corrupt(shipped[1], edit)))


def test_wrong_carrier_count_rejected(shipped):
    def edit(case):
        _component(case, "cdma2000-like")["extras"]["carrier_count"] = 2

    assert any("carrier count 2" in p for p in _check(_corrupt(shipped[1], edit)))


def test_wrong_cp_length_rejected(shipped):
    def edit(case):
        for ev in _component(case, "ofdm-narrow")["evidence"]:
            if "cp_s" in ev["extras"]:
                ev["extras"]["cp_s"] += 4e-6

    assert any(p.endswith("expected 8e-06") for p in _check(_corrupt(shipped[0], edit)))


def test_missing_burst_rejected(dense):
    def edit(case):
        comp = next(c for c in case["report"]["components"] if c["bursts"])
        comp["bursts"].pop()

    assert any("burst records for" in p for p in _check(_corrupt(dense, edit)))


def test_shifted_burst_rejected(dense):
    def edit(case):
        comp = next(c for c in case["report"]["components"] if c["bursts"])
        comp["bursts"][1]["start_s"] += 2e-3

    assert any("window" in p for p in _check(_corrupt(dense, edit)))


# -- evaluation grid ------------------------------------------------------------


def _grid(rows) -> list[str]:
    return checks.check_grid(rows, GRID.snr_list, GRID.occ_list, GRID.trials)


def _row(rows, snr, occ) -> dict:
    return next(r for r in rows if float(r["snr_db"]) == snr and float(r["occupancy"]) == occ)


def test_grid_passes(grid_rows):
    assert _grid(grid_rows) == []


def test_missing_row_rejected(grid_rows):
    assert any("expected" in p for p in _grid(grid_rows[:-1]))


def test_trial_count_rejected(grid_rows):
    rows = copy.deepcopy(grid_rows)
    rows[0]["trials"] = "7"
    assert any("7 trials" in p for p in _grid(rows))


def test_mean_outside_interval_rejected(grid_rows):
    rows = copy.deepcopy(grid_rows)
    row = _row(rows, 2, 0.6)
    row["ci_high"] = str(float(row["confidence_mean"]) - 0.01)
    assert any("outside its interval" in p for p in _grid(rows))


def test_vacant_band_below_half_rejected(grid_rows):
    rows = copy.deepcopy(grid_rows)
    row = _row(rows, 2, 0.0)
    row["confidence_mean"] = row["ci_low"] = "0.400000"
    assert any("vacant-band" in p for p in _grid(rows))


def test_unsaturated_cell_rejected(grid_rows):
    rows = copy.deepcopy(grid_rows)
    row = _row(rows, 14, 0.6)
    row["confidence_mean"] = row["ci_low"] = "0.900000"
    assert any("below 0.92" in p for p in _grid(rows))


def test_snr_monotonicity_rejected(grid_rows):
    rows = copy.deepcopy(grid_rows)
    low = _row(rows, -4, 0.6)
    low["confidence_mean"] = low["ci_high"] = "0.990000"
    row = _row(rows, 2, 0.6)
    row["confidence_mean"] = row["ci_low"] = "0.950000"
    assert any("falls more than" in p for p in _grid(rows))


def test_malformed_outputs_rejected(tmp_path, shipped):
    report = tmp_path / "pcs-0.report.json"
    report.write_text("{not json")
    truth = tmp_path / "pcs-0.cf32.truth.json"
    truth.write_text(json.dumps(shipped[1]["truth"]))
    workload = IdentifyWorkload([WORKLOADS["identify_shipped"].recordings[1]], max_passes=1)
    (op,) = workload.check_pass(tmp_path, 0, [(0, report)])
    assert not op.failed and op.problems[0].startswith("pcs-0.report.json: malformed")

    csv_path = tmp_path / "grid-0.csv"
    csv_path.write_text("snr_db\n-4\n")
    (op,) = GRID.check_pass(tmp_path, 0, [(0, csv_path)])
    assert not op.failed and "malformed CSV" in op.problems[0]


# -- failed operations ----------------------------------------------------------------


@pytest.mark.parametrize("state", ["exit", "missing", "empty"])
def test_failed_operation_counted(tmp_path, state):
    out = tmp_path / "grid-0.csv"
    if state == "exit":
        out.write_text("snr_db\n")
    elif state == "empty":
        out.write_text("")
    code = 2 if state == "exit" else 0
    (op,) = GRID.check_pass(tmp_path, 0, [(code, out)])
    assert op.failed and op.items == 8 * 6

    report = tmp_path / "ism-0.report.json"
    if state == "empty":
        report.write_text("")
    elif state == "exit":
        report.write_text("{}")
    ops = WORKLOADS["identify_shipped"].check_pass(tmp_path, 0, [(code, report)] * 2)
    assert all(op.failed for op in ops)


# -- tracing and the metric names ------------------------------------------------------


def test_tracer_wraps_imported_names_and_restores_them():
    from hypersense import evaluation, wavegen

    original = evaluation.compose_scenario
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert evaluation.compose_scenario is not original
        assert evaluation.compose_scenario is wavegen.compose_scenario
        evaluation.run_trial(10.0, 0.25, seed=1)
    finally:
        tracer.uninstall()
    assert evaluation.compose_scenario is original
    assert tracer.missing == []
    for target in ("evaluation.run_trial", "wavegen.compose_scenario",
                   "dsp.welch_psd", "noisefloor.detect"):
        assert tracer.counts[target + ".calls"] == 1
        assert tracer.self_s[target] > 0.0
    assert tracer.counts["wavegen.compose_scenario.samples"] > 0


def test_tracer_lists_missing_names(monkeypatch):
    monkeypatch.setitem(tracing.TARGETS, "dsp.no_such_function", None)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["dsp.no_such_function"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = tracing.per_layer(tracing.Tracer(), [1.0], [1.0], 0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (k, unit) for k, (_, unit) in per_layer.items()
    ]
    end_to_end = run.end_to_end([1.0], [1.0], [1], 1.0)
    assert sorted((m["name"], m["unit"]) for m in spec["end_to_end"]) == sorted(
        (k, unit) for k, (_, unit) in end_to_end.items()
    )
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
