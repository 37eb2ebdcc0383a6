"""Batch command-line interface.

Commands: ``simulate`` (render a scenario config to an IQ file plus
ground truth), ``identify`` (run the identification pipeline over a
recording), ``evaluate`` (Monte-Carlo confidence grid), ``nfspem`` (run
the noise-floor detector alone over a CSV of values).  Each option sits on
the command that reads it, and a command given another command's option
exits 2.  The one global option, ``--seed`` (before the command), is read
by ``simulate`` and ``evaluate`` and ignored by the other two;
``identify`` takes its pipeline settings (``fft_size``, ``floor_k``, ...)
from ``--config`` alone.

Exit codes are decided in ``main`` from the error class alone: 0 success;
2 ``ParameterError``, ``OSError`` or ``MemoryError`` (unusable config,
arguments or paths, a scenario too large for memory, an output number
that strict JSON cannot hold; config parse errors are line-anchored); 3
``IqFormatError`` (malformed sidecar, IQ data/sidecar mismatch); 4
``UnsupportedMethodError`` (a plan names a sensing method with no
pipeline stage behind it).  Any other error surfaces as a traceback.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import classify, evaluation, pipeline, sensing, wavegen
from .dsp import power_envelope
from .errors import IqFormatError, ParameterError, UnsupportedMethodError
from .iqio import read_iq, write_iq
from .noisefloor import detect
from .schema import dump_json, load_json

# the largest |value| (dB) and |axis| in an nfspem CSV: the centroid's
# weights 10 ** (value / 10) and axis positions then stay finite
NFSPEM_MAX_DB, NFSPEM_MAX_AXIS = 1000.0, 1e12

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IQ_FORMAT = 3
EXIT_UNSUPPORTED_METHOD = 4


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _write_xy_csv(path: str, axis: np.ndarray, values: np.ndarray) -> None:
    with open(path, "w") as fh:
        for a, v in zip(axis, values):
            fh.write(f"{float(a)!r},{float(v)!r}\n")


# -- commands -------------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> None:
    spec = wavegen.load_scenario(args.scenario)
    if args.seed is not None:
        spec.seed = args.seed
    rec, truth = wavegen.compose_scenario(spec, fft_size=args.fft_size)
    truth_text = dump_json(wavegen.truth_to_dict(truth))
    out = Path(args.out)
    write_iq(rec, out)
    truth_path = Path(str(out) + ".truth.json")
    truth_path.write_text(truth_text)
    print(f"wrote {out} ({len(rec.samples)} samples), sidecar and {truth_path.name}")


def cmd_identify(args: argparse.Namespace) -> None:
    rec = read_iq(args.iq_path)
    plan = classify.load_plan(args.plan)
    cfg = pipeline.PipelineConfig.from_dict(
        load_json(args.config, "pipeline config") if args.config else {})

    report = pipeline.run_identification(rec, cfg, plan)
    text = pipeline.serialize_report(report)
    out = Path(args.out) if args.out else Path(str(args.iq_path) + ".report.json")
    out.write_text(text)

    if args.emit_psd:  # empty when the recording is shorter than one FFT
        psd = report.psd
        if psd is None:
            Path(args.emit_psd).write_text("")
        else:
            _write_xy_csv(args.emit_psd, rec.center_freq_hz + psd.freqs_hz, psd.values_db)
    if args.emit_envelope:  # empty when the recording has no samples
        if len(rec.samples) == 0:
            Path(args.emit_envelope).write_text("")
        else:
            env_db, (t0, dt) = power_envelope(rec, cfg.envelope_smooth_len)
            _write_xy_csv(args.emit_envelope, t0 + dt * np.arange(env_db.size), env_db)
    if args.emit_cyclic:
        profile = _verdict_cyclic_profile(report)
        if profile is None:
            Path(args.emit_cyclic).write_text("")
        else:
            _write_xy_csv(args.emit_cyclic, profile.alpha_grid, profile.magnitude_db)
    print(f"wrote {out}")


def _verdict_cyclic_profile(report: pipeline.IdentificationReport):
    """The scan behind the first cyclic verdict: the widened one if rescanned."""
    for result in report.results:
        scans = [
            ev.profile
            for ev in (result.verdict.evidence if result.verdict else [])
            if ev.method == sensing.METHOD_CYCLO
        ]
        if scans:
            return scans[-1]
    return None


def cmd_evaluate(args: argparse.Namespace) -> None:
    try:
        snr_list = [float(v) for v in args.snr_list.split(",") if v.strip()]
        occ_list = [float(v) for v in args.occ_list.split(",") if v.strip()]
    except ValueError as e:
        raise ParameterError(f"bad grid values: {e}") from e
    if not snr_list or not occ_list:
        raise ParameterError("empty SNR or occupancy list")
    if not np.all(np.isfinite(snr_list + occ_list)):
        raise ParameterError("grid values must be finite")
    cells = evaluation.confidence_grid(
        snr_list,
        occ_list,
        trials=args.trials,
        resamples=args.resamples,
        seed=args.seed if args.seed is not None else 0,
        fft_size=args.fft_size,
    )
    evaluation.write_grid_csv(cells, args.out)
    print(f"wrote {args.out} ({len(cells)} cells)")


def cmd_nfspem(args: argparse.Namespace) -> None:
    path = Path(args.values_csv)
    try:
        rows = [line.strip() for line in path.read_text().splitlines() if line.strip()]
        columns = [row.split(",") for row in rows]
        values = np.array([float(col[-1]) for col in columns])
        with_axis = bool(columns) and len(columns[0]) > 1
        axis_vals = np.array([float(col[0]) for col in columns] if with_axis else [0.0, 1.0])
    except (ValueError, IndexError) as e:
        raise ParameterError(f"{path}: not a CSV of numbers: {e}") from e
    for row, col in zip(rows, columns):
        if len(col) > 2 or len(col) != len(columns[0]):
            raise ParameterError(f"{path}: row {row!r} has {len(col)} columns and the first row "
                                 f"{len(columns[0])}: every row must be `value` or `axis,value`")
    if not (np.all(np.abs(values) <= NFSPEM_MAX_DB) and np.all(np.abs(axis_vals) <= NFSPEM_MAX_AXIS)):
        raise ParameterError(f"{path}: values must be within +-{NFSPEM_MAX_DB:g} dB "
                             f"and axis values within +-{NFSPEM_MAX_AXIS:g}")
    step = float(axis_vals[1] - axis_vals[0]) if len(axis_vals) > 1 else 1.0
    if step == 0 or not np.allclose(np.diff(axis_vals), step, rtol=1e-6, atol=0):
        raise ParameterError(f"{path}: the axis must step by one constant, non-zero amount")
    axis = (float(axis_vals[0]), step)

    try:
        estimate, comps = detect(values, axis, args.k, args.min_width, args.merge_gap)
    except ValueError as e:  # every hypersense error is a ValueError
        raise ParameterError(f"{type(e).__name__}: {e}") from e
    out = {
        **estimate.summary(),
        "components": [
            {
                "start_index": c.start_index,
                "end_index": c.end_index,
                "center": c.center,
                "width": c.width,
                "peak_value_db": c.peak_value_db,
                "mean_excess_db": c.mean_excess_db,
            }
            for c in comps
        ],
    }
    text = dump_json(out)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")


# -- parser -----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypersense",
        description="Wideband spectrum sensing and signal identification toolkit",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed (simulate) or the trial seed (evaluate)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="render a scenario config to an IQ recording")
    p.add_argument("scenario", help="scenario config JSON")
    p.add_argument("-o", "--out", required=True, help="output IQ data path")
    p.add_argument("--fft-size", type=int, default=1024, help="FFT size of the truth's occupancy mask")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("identify", help="run identification over a recording")
    p.add_argument("iq_path", help="IQ data file (cf32le with JSON sidecar)")
    p.add_argument("--plan", default=str(resources.files("hypersense.data") / "ism24_plan.json"),
                   help="channel plan JSON (default: the shipped ISM plan)")
    p.add_argument("--config", default=None, help="pipeline config JSON (default: every default)")
    p.add_argument("-o", "--out", default=None, help="report path (default <iq>.report.json)")
    p.add_argument("--emit-psd", default=None, metavar="CSV", help="write spectrum plot data")
    p.add_argument("--emit-cyclic", default=None, metavar="CSV",
                   help="write the cyclic scan behind the first cyclic verdict")
    p.add_argument("--emit-envelope", default=None, metavar="CSV", help="write power envelope")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("evaluate", help="Monte-Carlo confidence grid")
    p.add_argument("--snr-list", required=True, help="comma-separated SNR values in dB")
    p.add_argument("--occ-list", required=True, help="comma-separated occupancy fractions")
    p.add_argument("--trials", type=int, default=300)
    p.add_argument("--resamples", type=int, default=1000)
    p.add_argument("--fft-size", type=int, default=1024, help="FFT size of each trial")
    p.add_argument("-o", "--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("nfspem", help="run the noise-floor detector over a CSV of values")
    p.add_argument("values_csv", help="CSV: either `value` or `axis,value` per line, "
                   f"|value| <= {NFSPEM_MAX_DB:g} dB, |axis| <= {NFSPEM_MAX_AXIS:g}")
    p.add_argument("--min-width", type=int, default=3)
    p.add_argument("--merge-gap", type=int, default=2)
    p.add_argument("--k", type=float, default=1.0, help="level-height coefficient in (0, 1]")
    p.add_argument("-o", "--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_nfspem)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse exits 0 for --help and 2 for a usage error
        return e.code
    try:
        args.func(args)
    except UnsupportedMethodError as e:
        return _fail(EXIT_UNSUPPORTED_METHOD, str(e))
    except IqFormatError as e:
        return _fail(EXIT_IQ_FORMAT, str(e))
    except (ParameterError, OSError, MemoryError) as e:
        return _fail(EXIT_CONFIG, str(e))
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
