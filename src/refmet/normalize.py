"""Affine intensity normalization, binning, and data-range resolution.

Normalization is the affine map ``I' = (I - a) / b`` with

* minmax: a = min(I), b = max(I) - min(I)
* zscore: a = mean(I), b = population std(I)
* custom: user-chosen a and b > 0
* none:   identity

Binning quantizes intensities into ``bins`` integer levels:
``I' = min(bins - 1, floor((I - min) / (max - min) * bins))``.

Data-range resolution produces the parameter L consumed by SSIM and PSNR.
All degenerate denominators (constant images) and non-finite parameters
or ranges are hard errors; nothing here silently propagates NaN.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateRangeError
from .image import Image

__all__ = [
    "NormMethod",
    "DataRangePolicy",
    "normalize",
    "bin_quantize",
    "resolve_data_range_values",
]


class _Spec:
    """The text grammar of :class:`NormMethod` and :class:`DataRangePolicy`,
    read by ``--norm``, ``--range`` and plan configs: a bare kind, or the
    class's one numbered kind as ``kind:name=value,...`` naming every number
    exactly once, in any order. A subclass declares ``_KINDS`` and
    ``_NUMBERED = (kind, {text name: field})``; its own ``__post_init__``
    checks the kind and the values. ``parse(x.spec_string()) == x``.
    """

    @classmethod
    def parse(cls, text: str):
        kind, colon, body = text.strip().partition(":")
        numbered, names = cls._NUMBERED
        if kind != numbered and not colon:
            return cls(kind)
        pairs = [part.partition("=") for part in body.split(",")]
        keys = [key.strip() for key, _, _ in pairs]
        if kind != numbered or not all(eq for _, eq, _ in pairs) \
                or sorted(keys) != sorted(names):
            form = f"{numbered}:" + ",".join(f"{name}=.." for name in names)
            forms = " | ".join(form if k == numbered else k for k in cls._KINDS)
            raise ConfigError(f"bad spec {text!r}; expected {forms}")
        # Numbers first: the constructor's own ConfigError is a ValueError too.
        try:
            values = {names[key]: float(number) for key, (_, _, number) in zip(keys, pairs)}
        except ValueError:
            raise ConfigError(f"bad number in {text!r}") from None
        return cls(kind, **values)

    def spec_string(self) -> str:
        numbered, names = self._NUMBERED
        if self.kind != numbered:
            return self.kind
        return f"{numbered}:" + ",".join(f"{name}={getattr(self, field)!r}"
                                         for name, field in names.items())


@dataclass(frozen=True)
class NormMethod(_Spec):
    """One of the affine normalization variants. Spec strings: ``minmax``,
    ``zscore``, ``none`` and ``custom:a=<shift>,b=<scale>``.
    """

    kind: str
    shift: float | None = None
    scale: float | None = None

    _KINDS = ("minmax", "zscore", "custom", "none")
    _NUMBERED = ("custom", {"a": "shift", "b": "scale"})

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ConfigError(f"unknown normalization {self.kind!r}")
        if self.kind == "custom":
            if self.shift is None or self.scale is None:
                raise ConfigError("custom normalization needs both a and b")
            if not self.scale > 0:
                raise ConfigError(f"custom scale b must be > 0, got {self.scale}")
            if not (np.isfinite(self.shift) and np.isfinite(self.scale)):
                raise ConfigError("custom normalization needs finite a and b, "
                                  f"got a={self.shift}, b={self.scale}")
        elif self.shift is not None or self.scale is not None:
            raise ConfigError(f"{self.kind} normalization takes no parameters")

    @classmethod
    def minmax(cls) -> "NormMethod":
        return cls("minmax")

    @classmethod
    def zscore(cls) -> "NormMethod":
        return cls("zscore")

    @classmethod
    def none(cls) -> "NormMethod":
        return cls("none")

    @classmethod
    def custom(cls, a: float, b: float) -> "NormMethod":
        return cls("custom", shift=float(a), scale=float(b))


@dataclass(frozen=True)
class DataRangePolicy(_Spec):
    """Rule producing the data-range parameter L for SSIM/PSNR. Spec strings:
    ``joint``, ``ref``, ``test`` and ``fixed:L=<value>``.
    """

    kind: str
    value: float | None = None

    _KINDS = ("joint", "ref", "test", "fixed")
    _NUMBERED = ("fixed", {"L": "value"})

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ConfigError(f"unknown data-range policy {self.kind!r}")
        if self.kind == "fixed":
            if self.value is None or not self.value > 0:
                raise ConfigError(f"fixed data range needs L > 0, got {self.value}")
            if self.value == np.inf:
                raise ConfigError(f"fixed data range needs a finite L, got {self.value}")
        elif self.value is not None:
            raise ConfigError(f"{self.kind} policy takes no value")

    @classmethod
    def joint(cls) -> "DataRangePolicy":
        return cls("joint")

    @classmethod
    def ref(cls) -> "DataRangePolicy":
        return cls("ref")

    @classmethod
    def test(cls) -> "DataRangePolicy":
        return cls("test")

    @classmethod
    def fixed(cls, L: float) -> "DataRangePolicy":
        return cls("fixed", value=float(L))


def normalize(img: Image, method: NormMethod) -> Image:
    """Apply ``I' = (I - a) / b``; constant images are an error for minmax/zscore."""
    d = img.data
    if method.kind == "none":
        return img
    if method.kind == "minmax":
        a = float(d.min())
        b = float(d.max()) - a
        if b == 0:
            raise DegenerateRangeError("minmax normalization of a constant image")
    elif method.kind == "zscore":
        a = float(d.mean())
        b = float(d.std(ddof=0))
        if b == 0:
            raise DegenerateRangeError("zscore normalization of a constant image")
    else:
        a, b = float(method.shift), float(method.scale)
    return Image((d - a) / b)


def bin_quantize(img: Image, bins: int) -> Image:
    """Quantize to integer bin indices 0..bins-1 over the image's own range."""
    bins = int(bins)
    if bins < 2:
        raise ConfigError(f"bins must be >= 2, got {bins}")
    d = img.data
    lo = float(d.min())
    span = float(d.max()) - lo
    if span == 0:
        raise DegenerateRangeError("bin_quantize of a constant image")
    idx = np.floor((d - lo) / span * bins)
    return Image(np.minimum(idx, bins - 1))


def resolve_data_range_values(ref_vals: np.ndarray, test_vals: np.ndarray,
                              policy: DataRangePolicy) -> float:
    """The data-range parameter L under ``policy`` from two value arrays (full
    images or masked values). L must be > 0 and L^2, which PSNR and SSIM's
    constants use, a normal float64."""
    if policy.kind == "fixed":
        L = float(policy.value)
    elif policy.kind == "joint":
        L = max(float(ref_vals.max()), float(test_vals.max())) - \
            min(float(ref_vals.min()), float(test_vals.min()))
    elif policy.kind == "ref":
        L = float(ref_vals.max()) - float(ref_vals.min())
    else:
        L = float(test_vals.max()) - float(test_vals.min())
    if not sys.float_info.min <= L * L <= sys.float_info.max:
        why = ("constant input" if L <= 0 else
               "the span overflows float64" if L == np.inf else
               "its square leaves float64's range")
        raise DegenerateRangeError(
            f"data-range policy {policy.kind!r} resolved to L={L} ({why})")
    return L
