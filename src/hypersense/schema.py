"""JSON in and out: reading it, building dataclasses checked against their
annotations, and writing it.

Every JSON input (pipeline config, scenario, channel plan, IQ sidecar)
enters through ``load_json`` and ``from_json``, so one set of rules holds
for all of them: numbers are finite and never bools, an int is accepted
where a float is declared (and becomes a float), and a field without a
default must be given.  Every JSON output (report, truth file, ``nfspem``
result, IQ sidecar) leaves through ``dump_json``, so none holds ``NaN`` or
``Infinity``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing
from pathlib import Path

from .errors import ParameterError


def load_json(path: str | Path, what: str):
    """Parse a JSON file; ``ParameterError`` (parse errors anchored at path:line:col)."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ParameterError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    except (OSError, ValueError, RecursionError) as e:  # unreadable, not UTF-8, too long or deep
        raise ParameterError(f"{what} {path}: {e}") from e


def dump_json(obj) -> str:
    """Indented, strict JSON text ending in a newline; ``ParameterError`` on a non-finite number."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError as e:
        raise ParameterError(f"cannot write JSON: {e}") from e


def from_json(cls, data, where: str, ignore_unknown: bool = False):
    """Build dataclass ``cls`` from parsed JSON, checking every value against its annotation.

    ``list[...]``, fixed-length ``tuple[...]`` (a JSON list), ``X | None`` and
    nested dataclasses are checked recursively.  A wrong type, a missing
    field without a default, and a key ``cls`` does not declare (unless
    ``ignore_unknown``) raise ``ParameterError`` naming ``where`` and the
    path to the value.
    """
    try:
        return _build(cls, data, "", ignore_unknown)
    except ParameterError as e:
        raise ParameterError(f"{where}: {e}") from None


def _build(tp, value, path: str, ignore_unknown: bool):
    def fail(message: str) -> ParameterError:
        return ParameterError(f"{path.lstrip('.') or 'the top level'} {message}")

    def expect(ok: bool, what: str) -> None:
        if not ok:
            raise fail(f"must be {what}, got {value!r}")

    if dataclasses.is_dataclass(tp):
        expect(isinstance(value, dict), "an object")
        declared = {f.name: f for f in dataclasses.fields(tp)}
        unknown = [key for key in value if key not in declared]
        if unknown and not ignore_unknown:
            raise fail(f"has unknown field {unknown[0]!r}")
        hints = typing.get_type_hints(tp)
        kwargs = {}
        for name, f in declared.items():
            if name in value:
                kwargs[name] = _build(hints[name], value[name], f"{path}.{name}", ignore_unknown)
            elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise fail(f"is missing field {name!r}")
        return tp(**kwargs)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # X | None
        if value is None:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _build(tp, value, path, ignore_unknown)
    if origin is list:
        expect(isinstance(value, list), "a list")
        return [_build(args[0], v, f"{path}[{i}]", ignore_unknown) for i, v in enumerate(value)]
    if origin is tuple:
        expect(isinstance(value, list) and len(value) == len(args), f"a list of {len(args)}")
        return tuple(_build(a, v, f"{path}[{i}]", ignore_unknown) for i, (a, v) in enumerate(zip(args, value)))
    if tp in (int, float):  # finite: within the float range, never NaN or infinite
        what = "an integer" if tp is int else "a finite number"
        expect(isinstance(value, int if tp is int else (int, float)) and not isinstance(value, bool), what)
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            finite = False
        expect(finite, what)
        return tp(value)
    expect(isinstance(value, tp), {str: "a string", bool: "a bool", dict: "an object"}[tp])
    if tp is dict:  # contents undeclared, yet held to the finite-number rule
        try:
            json.dumps(value, allow_nan=False)
        except ValueError:
            raise fail(f"must hold only finite numbers, got {value!r}") from None
    return value
