"""Deterministic, seeded image distortions.

Every operation is pure and reproducible: equal inputs (and seed, where
one applies) give bit-identical outputs, and each distortion's identity
parameter (gamma=1, factor=1, zero shift, sigma_rel=0, amplitude_rel=0)
returns the input image object unchanged.

Gaussian noise draws from the package's portable splitmix64 generator
(see :mod:`refmet.rng`), never from global state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import ConfigError, DegenerateRangeError, RefmetError, check_kind
from .image import Image, correlate_valid, gaussian_kernel

__all__ = [
    "DistortionSpec",
    "gamma_transform", "linear_scale", "translate", "mirror_replace",
    "add_gaussian_noise", "add_stripes", "gaussian_blur", "crop_fraction",
    "apply", "apply_chain", "parse_chain",
]


def _span(img: Image) -> tuple[float, float]:
    lo = float(img.data.min())
    hi = float(img.data.max())
    if hi == lo:
        raise DegenerateRangeError("operation undefined on a constant image")
    return lo, hi


# parameter -> (holds, message): each parameter's bound, checked by its
# distortion function and by DistortionSpec on the JSON value.
_BOUNDS = {
    "gamma": (lambda v: v > 0, "gamma must be > 0, got {}"),
    "factor": (lambda v: v != 0, "linear scale factor must be nonzero"),
    "sigma_rel": (lambda v: not v < 0, "sigma_rel must be >= 0, got {}"),
    "period": (lambda v: not v < 2, "stripe period must be >= 2, got {}"),
    "sigma": (lambda v: v > 0, "blur sigma must be > 0, got {}"),
    "fraction": (lambda v: 0.0 < v < 0.5, "crop fraction must lie in (0, 0.5), got {}"),
}


def _bounded(name: str, value):
    """``value`` if it meets parameter ``name``'s bound, else a ConfigError."""
    holds, message = _BOUNDS[name]
    if not holds(value):
        raise ConfigError(message.format(value))
    return value


def gamma_transform(img: Image, gamma: float) -> Image:
    """Power-law remap of min-max-normalized intensities, range restored.

    Endpoints are fixed (min -> min, max -> max) and the map is strictly
    monotone for any gamma > 0.
    """
    gamma = _bounded("gamma", float(gamma))
    if gamma == 1.0:
        return img
    lo, hi = _span(img)
    unit = (img.data - lo) / (hi - lo)
    return Image(lo + (hi - lo) * np.power(unit, gamma))


def linear_scale(img: Image, factor: float) -> Image:
    """Elementwise multiplication by ``factor`` (any nonzero real)."""
    factor = _bounded("factor", float(factor))
    if factor == 1.0:
        return img
    return Image(img.data * factor)


def translate(img: Image, shift: tuple[int, ...]) -> Image:
    """Whole-pixel shift; vacated cells are filled with the image minimum."""
    shift = tuple(int(s) for s in shift)
    if len(shift) != img.ndim:
        raise ConfigError(f"shift rank {len(shift)} != image rank {img.ndim}")
    for s, n in zip(shift, img.shape):
        if abs(s) >= n:
            raise ConfigError(f"shift {s} must be smaller than extent {n}")
    if all(s == 0 for s in shift):
        return img
    fill = float(img.data.min())
    out = np.full_like(img.data, fill)
    src = tuple(slice(max(0, -s), n - max(0, s)) for s, n in zip(shift, img.shape))
    dst = tuple(slice(max(0, s), n - max(0, -s)) for s, n in zip(shift, img.shape))
    out[dst] = img.data[src]
    return Image(out)


def mirror_replace(img: Image, axis: int = 0) -> Image:
    """Replace the lower half along ``axis`` with a mirror of the upper half.

    For odd extents the middle line is kept. The output is symmetric about
    the midline: out[k] = in[n-1-k] for every k in the replaced half.
    """
    axis = int(axis)
    if not 0 <= axis < img.ndim:
        raise ConfigError(f"axis {axis} out of range for rank {img.ndim}")
    n = img.shape[axis]
    if n < 2:
        raise ConfigError(f"extent along axis {axis} must be >= 2")
    out = np.array(img.data)
    keep = (n + 1) // 2
    idx_dst = [slice(None)] * img.ndim
    idx_src = [slice(None)] * img.ndim
    idx_dst[axis] = slice(keep, n)
    # reversed first rows: out[k] = in[n-1-k] for k in [keep, n)
    idx_src[axis] = slice(n - 1 - keep, None, -1)
    out[tuple(idx_dst)] = img.data[tuple(idx_src)]
    return Image(out)


def add_gaussian_noise(img: Image, sigma_rel: float, seed: int) -> Image:
    """Add N(0, (sigma_rel * (max - min))^2) noise, seeded and portable."""
    sigma_rel = _bounded("sigma_rel", float(sigma_rel))
    if sigma_rel == 0.0:
        return img
    lo, hi = _span(img)
    noise = rng.normals(seed, img.data.size).reshape(img.shape)
    out = img.data + sigma_rel * (hi - lo) * noise
    return Image(out)


def add_stripes(img: Image, period: int, amplitude_rel: float, axis: int = 0) -> Image:
    """Add a constant offset to every period-th line along ``axis``."""
    period = _bounded("period", int(period))
    amplitude_rel = float(amplitude_rel)
    if not 0 <= axis < img.ndim:
        raise ConfigError(f"axis {axis} out of range for rank {img.ndim}")
    if amplitude_rel == 0.0:
        return img
    lo, hi = _span(img)
    out = np.array(img.data)
    idx = [slice(None)] * img.ndim
    idx[axis] = slice(0, None, period)
    out[tuple(idx)] += amplitude_rel * (hi - lo)
    return Image(out)


def gaussian_blur(img: Image, sigma: float) -> Image:
    """Separable Gaussian blur, kernel truncated at radius ceil(3 sigma).

    Boundaries are handled by edge-inclusive mirroring, which conserves
    total intensity for the symmetric kernel.
    """
    sigma = _bounded("sigma", float(sigma))
    kern = gaussian_kernel(sigma)
    out = img.data
    for ax in range(img.ndim):
        pad = [(0, 0)] * img.ndim
        pad[ax] = (len(kern) // 2,) * 2
        out = correlate_valid(np.pad(out, pad, mode="symmetric"), kern, ax)
    return Image(out)


def crop_fraction(img: Image, fraction: float) -> Image:
    """Symmetric crop removing floor(fraction * extent) pixels per side."""
    fraction = _bounded("fraction", float(fraction))
    margins = [int(np.floor(fraction * n)) for n in img.shape]
    if any(n - 2 * m < 1 for m, n in zip(margins, img.shape)):
        raise RefmetError(f"crop fraction {fraction} degenerates shape {img.shape}")
    if all(m == 0 for m in margins):
        return img
    sl = tuple(slice(m, n - m) for m, n in zip(margins, img.shape))
    return Image(img.data[sl])


# ---------------------------------------------------------------------------
# Serializable specs and dispatch
# ---------------------------------------------------------------------------

# kind -> (function, {parameter: JSON kind} in call order, seed consumed last)
_KINDS = {
    "gamma": (gamma_transform, {"gamma": "a number"}, False),
    "linear_scale": (linear_scale, {"factor": "a number"}, False),
    "translate": (translate, {"shift": "a list of integers"}, False),
    "mirror_replace": (mirror_replace, {"axis": "an integer"}, False),
    "gaussian_noise": (add_gaussian_noise, {"sigma_rel": "a number"}, True),
    "stripes": (add_stripes, {"period": "an integer", "amplitude_rel": "a number",
                              "axis": "an integer"}, False),
    "gaussian_blur": (gaussian_blur, {"sigma": "a number"}, False),
    "crop_fraction": (crop_fraction, {"fraction": "a number"}, False),
}


@dataclass(frozen=True)
class DistortionSpec:
    """One deterministic distortion: kind, parameters, and a seed.

    The seed is consumed only by the ``seeded`` kinds. JSON form:
    ``{"kind": "...", "params": {...}, "seed": n}``; chains are JSON
    arrays applied left to right.
    """

    kind: str
    params: dict[str, object] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if type(self.kind) is not str or self.kind not in _KINDS:
            raise ConfigError(f"unknown distortion kind {self.kind!r}")
        check_kind(self.params, "an object", f"{self.kind} params")
        _, required, _ = _KINDS[self.kind]
        missing = [k for k in required if k not in self.params]
        if missing:
            raise ConfigError(f"{self.kind} spec missing params {missing}")
        extra = [k for k in self.params if k not in required]
        if extra:
            raise ConfigError(f"{self.kind} spec has unknown params {extra}")
        for name, kind in required.items():
            check_kind(self.params[name], kind, f"{self.kind} param {name!r}")
        check_kind(self.seed, "an integer", f"{self.kind} seed")
        object.__setattr__(self, "params", {k: tuple(v) if k == "shift" else v
                                            for k, v in self.params.items()})
        for name, value in self.params.items():
            if name in _BOUNDS:
                _bounded(name, value)

    @property
    def seeded(self) -> bool:
        return _KINDS[self.kind][2]

    def fingerprint(self) -> str:
        """``kind(k=v,...)``, sorted by key. A number parameter prints as a
        float, so ``{"gamma": 2}`` and ``{"gamma": 2.0}`` share one fingerprint."""
        kinds = _KINDS[self.kind][1]
        kv = {k: float(v) if kinds[k] == "a number" else v
              for k, v in self.params.items()}
        if self.seeded:
            kv["seed"] = self.seed
        inner = ",".join(f"{k}={v!r}" for k, v in sorted(kv.items()))
        return f"{self.kind}({inner})"

    @classmethod
    def from_json(cls, obj) -> "DistortionSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ConfigError(f"bad distortion spec {obj!r}")
        extra = sorted(set(obj) - {"kind", "params", "seed"})
        if extra:
            raise ConfigError(f"unknown distortion spec keys {extra}")
        return cls(obj["kind"], obj.get("params", {}), obj.get("seed", 0))


def apply(spec: DistortionSpec, img: Image) -> Image:
    """Dispatch one spec to its distortion function."""
    fn, names, _ = _KINDS[spec.kind]
    args = [spec.params[k] for k in names] + ([spec.seed] if spec.seeded else [])
    return fn(img, *args)


def apply_chain(specs, img: Image) -> Image:
    for spec in specs:
        img = apply(spec, img)
    return img


def parse_chain(text: str) -> tuple[DistortionSpec, ...]:
    """Parse a JSON distortion chain (single object or array of objects)."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad distortion JSON: {exc}") from None
    if isinstance(obj, dict):
        obj = [obj]
    if not isinstance(obj, list):
        raise ConfigError("distortion chain must be a JSON object or array")
    return tuple(DistortionSpec.from_json(o) for o in obj)


def chain_fingerprint(specs) -> str:
    return "|".join(s.fingerprint() for s in specs) if specs else "identity"
