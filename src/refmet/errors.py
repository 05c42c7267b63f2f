"""Exception types shared across the package, and JSON file, value and id-list checks."""

import json
import sys
from pathlib import Path


class RefmetError(ValueError):
    """Base class for all domain errors raised by refmet."""


class FormatError(RefmetError):
    """Malformed or unsupported image file content."""


class ShapeMismatchError(RefmetError):
    """Two grids that must be congruent have different dims."""


class DegenerateRangeError(RefmetError):
    """An operation hit a zero-width intensity range (constant image), or a
    data range too wide for float64."""


class NonRectangularMaskError(RefmetError):
    """A windowed metric was asked to evaluate a non-rectangular mask.

    Windowed metrics (ssim, ms_ssim, cw_ssim) combine neighboring pixels
    and only support masks that are exactly a filled rectangle, which are
    evaluated by cropping both images to that rectangle.
    """


class ConfigError(RefmetError):
    """Invalid harness/CLI configuration."""


JSON_KINDS = {
    "an object": lambda v: type(v) is dict,
    "an object or array": lambda v: type(v) in (dict, list),
    "a string": lambda v: type(v) is str,
    "an integer": lambda v: type(v) is int,
    # finite as a float: JSON's NaN and Infinity, and ints beyond float range, are not
    "a number": lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
    "a list of strings": lambda v: type(v) is list and all(type(x) is str for x in v),
    "a list of integers":
        lambda v: type(v) in (list, tuple) and all(type(x) is int for x in v),
}


def check_kind(value, kind: str, name: str):
    """``value`` if it is of JSON ``kind``, else a ConfigError naming ``name``."""
    if not JSON_KINDS[kind](value):
        raise ConfigError(f"{name} must be {kind}, got {json.dumps(value, default=repr)}")
    return value


def read_json(path, kind: str, what: str):
    """The JSON value in the file at ``path``, ``what`` (``"lint config"``); a
    ConfigError naming the file when its text is not JSON (nor UTF-8) or its
    value is not of JSON ``kind``."""
    try:
        value = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ConfigError(f"{path}: bad {what} JSON: {exc}") from None
    return check_kind(value, kind, f"{path}: {what}")


def config_value(obj: dict, path: str, kind: str, default=None):
    """The JSON value at dotted ``path`` (``"phantoms.count"``), or ``default``
    if absent or null; a ConfigError naming the key if it is not ``kind``."""
    section, _, key = path.rpartition(".")
    if section:
        obj = config_value(obj, section, "an object", {})
    value = obj.get(key)
    return default if value is None else check_kind(value, kind, f"config key {path!r}")


def check_ids(ids, known, what: str) -> None:
    """A ConfigError unless every id of ``ids`` is one of ``known`` and none is
    listed twice; ``what`` names the list (``"metrics"``, ``"scenario ids"``)."""
    unknown = [i for i in ids if i not in known]
    if unknown:
        raise ConfigError(f"unknown {what} {unknown}; available: {', '.join(known)}")
    repeated = sorted({i for i in ids if ids.count(i) > 1})
    if repeated:
        raise ConfigError(f"duplicate {what} {repeated}")
