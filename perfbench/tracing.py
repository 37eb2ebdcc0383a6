"""Per-layer self times and counts, from wrappers around public functions.

The wrappers are installed from the benchmark's side, so the program is
unchanged.  A function imported with ``from .x import f`` is bound in the
importing module too; every binding of the same function object in a
``hypersense`` module is replaced, so ``pipeline.channelize`` and
``evaluation.compose_scenario`` are traced as well.  A layer's self time is
a wrapped call's duration minus the time of the wrapped calls made inside
it; time outside every wrapped call is ``unattributed_s``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

from scipy.fft import next_fast_len

PACKAGE = "hypersense"


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _scan_counts(args, kwargs, result) -> dict:
    lo, hi = result.tau_range
    lags = hi - lo + 1
    n = len(_arg(args, kwargs, 0, "iq").samples)
    return {"lags": lags, "fft_points": lags * next_fast_len(n)}


def _channelize_counts(args, kwargs, result) -> dict:
    return {
        "in_samples": len(_arg(args, kwargs, 0, "iq").samples),
        "out_samples": len(result.samples),
    }


def _compose_counts(args, kwargs, result) -> dict:
    return {"samples": len(result[0].samples)}


def _detect_counts(args, kwargs, result) -> dict:
    return {"samples": len(_arg(args, kwargs, 0, "samples"))}


# "module.function" -> extra counts per call (every target also counts calls)
TARGETS = {
    "iqio.read_iq": None,
    "pipeline.run_identification": None,
    "pipeline.serialize_report": None,
    "pipeline.detect_bursts": None,
    "classify.scb_match": None,
    "classify.decide": None,
    "dsp.welch_psd": None,
    "dsp.channelize": _channelize_counts,
    "dsp.power_envelope": None,
    "noisefloor.detect": _detect_counts,
    "sensing.energy_detect": None,
    "sensing.scan_cyclic": _scan_counts,
    "sensing.cyclic_evidence": None,
    "sensing.cp_autocorr_detect": None,
    "wavegen.compose_scenario": _compose_counts,
    "evaluation.run_trial": None,
}


class Tracer:
    """Accumulates self time and counts per target over the traced passes."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._open: list[float] = []  # time of wrapped children, per open call
        self._bound: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every target; names no longer found are listed in ``missing``."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for target, counter in TARGETS.items():
            module_name, attr = target.rsplit(".", 1)
            try:
                fn = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), attr)
            except (ImportError, AttributeError):
                if target not in self.missing:
                    self.missing.append(target)
                continue
            wrapper = self._wrap(target, fn, counter)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._bound.append((module, name, fn))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        while self._bound:
            module, name, fn = self._bound.pop()
            setattr(module, name, fn)

    def _wrap(self, target: str, fn, counter):
        open_calls = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_calls.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = open_calls.pop()
                self.self_s[target] += elapsed - children
                if open_calls:
                    open_calls[-1] += elapsed
                self.counts[target + ".calls"] += 1
            if counter is not None:
                try:
                    counts = counter(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the function changed shape: keep timing it, list the count
                    if f"{target} counts" not in self.missing:
                        self.missing.append(f"{target} counts")
                    counts = {}
                for key, value in counts.items():
                    self.counts[f"{target}.{key}"] += value
            return result

        return wrapper


# counts reported per pass, besides the self time of every target
COUNTS = (
    "sensing.scan_cyclic.calls",
    "sensing.scan_cyclic.lags",
    "sensing.scan_cyclic.fft_points",
    "dsp.channelize.calls",
    "dsp.channelize.in_samples",
    "dsp.channelize.out_samples",
    "wavegen.compose_scenario.samples",
    "dsp.welch_psd.calls",
    "noisefloor.detect.calls",
    "noisefloor.detect.samples",
)


def count_rescans(reports: list[dict]) -> int:
    """Verdicts the pipeline reached only after its widened cyclic rescan."""
    return sum(
        1
        for report in reports
        for comp in report.get("components", [])
        if comp.get("extras", {}).get("rescanned")
    )


def per_layer(tracer: Tracer, traced: list[float], untraced: list[float], rescans: int) -> dict:
    """Per-pass means over the traced passes, as ``name -> (value, unit)``.

    Means, not medians, so that the self times plus ``unattributed_s`` add
    up to ``traced_pass_s``.
    """
    n = len(traced)
    out = {f"{t}.s": (tracer.self_s[t] / n, "s") for t in TARGETS}
    out.update({c: (tracer.counts[c] / n, "count") for c in COUNTS})
    out["pipeline.rescans"] = (rescans / n, "count")
    traced_s = sum(traced) / n
    untraced_s = sum(untraced) / len(untraced)
    out["unattributed_s"] = (traced_s - sum(tracer.self_s.values()) / n, "s")
    out["traced_pass_s"] = (traced_s, "s")
    out["untraced_pass_s"] = (untraced_s, "s")
    out["trace_overhead_s"] = (traced_s - untraced_s, "s")
    out["trace.missing_targets"] = (len(tracer.missing), "count")
    return out
