"""Complex baseband recordings and their on-disk interchange format.

Data files hold interleaved little-endian float32 pairs (I then Q).  A
JSON sidecar next to the data file carries sample rate, center frequency
and the sample count; the count must match the data file size exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import IqFormatError

SAMPLE_FORMAT = "cf32le"
BYTES_PER_SAMPLE = 8  # two float32


@dataclass
class IqRecording:
    """Complex baseband samples plus capture metadata."""

    samples: np.ndarray
    sample_rate_hz: float
    center_freq_hz: float = 0.0
    description: str = ""


def sidecar_path(data_path: str | Path) -> Path:
    return Path(str(data_path) + ".json")


def write_iq(rec: IqRecording, data_path: str | Path) -> Path:
    """Write samples as cf32le plus the JSON sidecar; returns sidecar path."""
    data_path = Path(data_path)
    samples = np.ascontiguousarray(rec.samples, dtype="<c8")
    samples.tofile(data_path)
    header = {
        "sample_rate_hz": rec.sample_rate_hz,
        "center_freq_hz": rec.center_freq_hz,
        "sample_format": SAMPLE_FORMAT,
        "sample_count": int(samples.size),
    }
    if rec.description:
        header["description"] = rec.description
    side = sidecar_path(data_path)
    side.write_text(json.dumps(header, indent=2) + "\n")
    return side


def read_iq(data_path: str | Path) -> IqRecording:
    """Read a cf32le data file, validating it against its sidecar.

    Raises IqFormatError for a sidecar that disagrees with the data file,
    a sample count that is not an integer, a sample rate that is not a
    finite positive number, or a non-finite sample.
    """
    data_path = Path(data_path)
    side = sidecar_path(data_path)
    if not data_path.exists():
        raise FileNotFoundError(f"no such data file: {data_path}")
    if not side.exists():
        raise IqFormatError(f"missing sidecar {side}")
    try:
        header = json.loads(side.read_text())
    except json.JSONDecodeError as e:
        raise IqFormatError(f"{side}: invalid sidecar JSON: {e}") from e

    for key in ("sample_rate_hz", "sample_format", "sample_count"):
        if key not in header:
            raise IqFormatError(f"{side}: missing field {key!r}")
    if header["sample_format"] != SAMPLE_FORMAT:
        raise IqFormatError(
            f"{side}: unsupported sample_format {header['sample_format']!r}"
        )
    count, rate = header["sample_count"], header["sample_rate_hz"]
    if isinstance(count, bool) or not isinstance(count, int) or count < 0:
        raise IqFormatError(f"{side}: sample_count must be an integer >= 0, got {count!r}")
    if (isinstance(rate, bool) or not isinstance(rate, (int, float))
            or not (math.isfinite(rate) and rate > 0)):
        raise IqFormatError(f"{side}: sample_rate_hz must be a finite number > 0, got {rate!r}")
    actual = data_path.stat().st_size
    if count * BYTES_PER_SAMPLE != actual:
        raise IqFormatError(
            f"{data_path}: sidecar declares {count} samples "
            f"({count * BYTES_PER_SAMPLE} bytes) but file has {actual} bytes"
        )
    samples = np.fromfile(data_path, dtype="<c8").astype(np.complex128)
    finite = np.isfinite(samples)
    if not finite.all():
        raise IqFormatError(f"{data_path}: sample {int(np.argmin(finite))} is not finite")
    return IqRecording(
        samples=samples,
        sample_rate_hz=float(rate),
        center_freq_hz=float(header.get("center_freq_hz", 0.0)),
        description=header.get("description", ""),
    )
