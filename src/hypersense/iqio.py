"""Complex baseband recordings and their on-disk interchange format.

Data files hold interleaved little-endian float32 pairs (I then Q).  A
JSON sidecar next to the data file carries sample rate, center frequency
and the sample count; the count must match the data file size exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IqFormatError, ParameterError
from .schema import dump_json, from_json, load_json

SAMPLE_FORMAT = "cf32le"
BYTES_PER_SAMPLE = 8  # two float32
# bound on a sidecar's rate and |centre|: far above any radio capture, and far
# enough below the float maximum that every frequency derived from them is finite
MAX_FREQ_HZ = 1e12


@dataclass
class IqRecording:
    """Complex baseband samples plus capture metadata."""

    samples: np.ndarray
    sample_rate_hz: float
    center_freq_hz: float = 0.0
    description: str = ""
    # samples at each end that a filter's transient disturbs (0: unfiltered)
    transient: int = 0


@dataclass(kw_only=True)
class Sidecar:
    """The JSON sidecar, its fields in the order ``write_iq`` writes them."""

    sample_rate_hz: float
    center_freq_hz: float = 0.0
    sample_format: str
    sample_count: int
    description: str = ""


def sidecar_path(data_path: str | Path) -> Path:
    return Path(str(data_path) + ".json")


def write_iq(rec: IqRecording, data_path: str | Path) -> Path:
    """Write samples as cf32le plus the JSON sidecar; returns sidecar path.

    The sidecar is serialized first, so a rate or centre that JSON cannot
    hold raises ``ParameterError`` before either file is written.
    """
    data_path = Path(data_path)
    samples = np.ascontiguousarray(rec.samples, dtype="<c8")
    header = vars(Sidecar(sample_rate_hz=rec.sample_rate_hz, center_freq_hz=rec.center_freq_hz,
                          sample_format=SAMPLE_FORMAT, sample_count=int(samples.size),
                          description=rec.description))
    if not rec.description:
        del header["description"]
    text = dump_json(header)
    samples.tofile(data_path)
    side = sidecar_path(data_path)
    side.write_text(text)
    return side


def read_iq(data_path: str | Path) -> IqRecording:
    """Read a cf32le data file, validating it against its sidecar.

    The sidecar goes through the JSON loader (``hypersense.schema``), so a
    missing or unparsable sidecar, a missing field and a value of the wrong
    type or not finite are rejected there; keys ``Sidecar`` does not declare
    are ignored.  Every sidecar failure, a rate or centre beyond
    ``MAX_FREQ_HZ``, a sidecar that disagrees with the data file and a
    non-finite sample raise IqFormatError.
    """
    data_path = Path(data_path)
    side = sidecar_path(data_path)
    if not data_path.exists():
        raise FileNotFoundError(f"no such data file: {data_path}")
    try:
        header = from_json(Sidecar, load_json(side, "sidecar"), str(side), ignore_unknown=True)
    except ParameterError as e:
        raise IqFormatError(str(e)) from e
    if header.sample_format != SAMPLE_FORMAT:
        raise IqFormatError(f"{side}: unsupported sample_format {header.sample_format!r}")
    count = header.sample_count
    if count < 0:
        raise IqFormatError(f"{side}: sample_count must be >= 0, got {count}")
    if not 0 < header.sample_rate_hz <= MAX_FREQ_HZ:
        raise IqFormatError(
            f"{side}: sample_rate_hz must be in (0, {MAX_FREQ_HZ:g}], got {header.sample_rate_hz}")
    if abs(header.center_freq_hz) > MAX_FREQ_HZ:
        raise IqFormatError(
            f"{side}: |center_freq_hz| must be <= {MAX_FREQ_HZ:g}, got {header.center_freq_hz}")
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
    return IqRecording(samples, header.sample_rate_hz, header.center_freq_hz, header.description)
