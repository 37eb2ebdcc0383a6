"""Wideband spectrum sensing and signal identification toolkit."""

__version__ = "0.1.0"

from .iqio import IqRecording, read_iq, write_iq
from .noisefloor import (
    DetectedComponent,
    NoiseFloorEstimate,
)

__all__ = [
    "IqRecording",
    "read_iq",
    "write_iq",
    "DetectedComponent",
    "NoiseFloorEstimate",
    "__version__",
]
