"""Seeded synthetic brain-like phantoms with known masks.

A phantom is an elliptical bright "brain" on a zero background, textured
with a smoothed random field, plus one elliptical high-intensity "tumor"
placed uniformly at random strictly inside the lower half of the
foreground, and a tiny bright "vessel" marker in the upper half. The tumor
sits in the lower half because ``mirror_replace(axis=0)`` overwrites that
half with the mirrored upper one: the pitfall-5 audit scenario relies on it
to remove the tumor while image metrics stay high. The
marker is smaller than the segmenter's minimum component size, so
it never appears in segmentations, but it anchors the intensity range of
images whose tumor was removed (e.g. by the mirror-replace distortion).

Intensity layout (background 0, tumor peak 1):

    tissue texture   0.64 .. 0.92
    vessel marker    0.99
    tumor            0.955 .. 1.00 (dome, peak at the center pixel)

The brain is vertically centered on the mirror line of ``mirror_replace``
so that the mirrored foreground maps onto itself and intensity changes
stay inside the foreground. Texture values are rank-remapped to a uniform
marginal, which keeps local contrast high throughout the tissue.

All randomness comes from one splitmix64 stream per seed, so phantoms are
bit-identical across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distort import gaussian_blur
from .errors import ConfigError
from .image import Image, Mask
from .rng import Stream

__all__ = ["PhantomParams", "Phantom", "generate_phantom"]

TISSUE_LO = 0.64
TISSUE_HI = 0.92
TUMOR_BASE = 0.955
TUMOR_PEAK = 1.0
MARKER_VALUE = 0.99
MARKER_RADIUS = 1.6  # px; area stays below the segmenter's size filter
TEXTURE_SMOOTHNESS = 1.5  # blur sigma of the texture field, px


@dataclass(frozen=True)
class PhantomParams:
    dims: tuple[int, int] = (192, 192)

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        if len(self.dims) != 2:
            raise ConfigError("phantoms are 2D")
        if any(n < 64 for n in self.dims):
            raise ConfigError(f"phantom dims must be >= 64 per axis, got {self.dims}")


@dataclass(frozen=True, eq=False)
class Phantom:
    image: Image
    tumor_mask: Mask
    foreground_mask: Mask
    seed: int


def _uniform_remap(field: np.ndarray) -> np.ndarray:
    """Monotone rank remap of the field values onto a uniform [-1, 1] grid."""
    order = np.argsort(field.ravel(), kind="stable")
    out = np.empty(field.size)
    out[order] = np.linspace(-1.0, 1.0, field.size)
    return out.reshape(field.shape)


def generate_phantom(seed: int, params: PhantomParams | None = None) -> Phantom:
    """Deterministic phantom for ``seed``; see module docstring for layout."""
    p = params or PhantomParams()
    h, w = p.dims
    stream = Stream(seed)

    cy = (h - 1) / 2.0  # on the mirror line: the ellipse maps onto itself
    cx = w / 2.0 + stream.uniform(-2.0, 2.0)
    ay = 0.41 * h + stream.uniform(-3.0, 3.0)
    ax = 0.35 * w + stream.uniform(-3.0, 3.0)
    yy, xx = np.mgrid[0:h, 0:w]
    brain = (((yy - cy) / ay) ** 2 + ((xx - cx) / ax) ** 2) <= 1.0

    noise = stream.normals(h * w).reshape(h, w)
    field = _uniform_remap(gaussian_blur(Image(noise), TEXTURE_SMOOTHNESS).data)
    tissue = 0.5 * (TISSUE_LO + TISSUE_HI) + 0.5 * (TISSUE_HI - TISSUE_LO) * field

    data = np.zeros((h, w))
    data[brain] = tissue[brain]

    # Tumor: ellipse with an intensity dome, strictly inside the lower half,
    # the half that mirror_replace(axis=0) overwrites (pitfall 5).
    r_scale = min(h, w)
    ry = (0.045 + stream.uniform(0.0, 0.02)) * r_scale
    rx = (0.045 + stream.uniform(0.0, 0.02)) * r_scale
    margin = 3.0
    row_lo, row_hi = (h + 1) // 2 + ry + margin, cy + ay - ry - margin
    if row_hi <= row_lo:
        raise ConfigError(f"phantom dims {p.dims} too small to place a tumor")
    for _ in range(256):
        ty = stream.uniform(row_lo, row_hi)
        tx = stream.uniform(cx - ax + rx + margin, cx + ax - rx - margin)
        fit = (((ty - cy) / (ay - ry - margin)) ** 2
               + ((tx - cx) / (ax - rx - margin)) ** 2)
        if fit <= 1.0:
            break
    else:
        raise ConfigError("could not place tumor inside the foreground")

    rho2 = ((yy - round(ty)) / ry) ** 2 + ((xx - round(tx)) / rx) ** 2
    tumor = rho2 <= 1.0
    dome = TUMOR_BASE + (TUMOR_PEAK - TUMOR_BASE) * (1.0 - rho2)
    data[tumor] = dome[tumor]

    # Vessel marker: tiny bright disk at a fixed upper-half position.
    my, mx = round(cy - 0.45 * ay), round(cx)
    marker = ((yy - my) ** 2 + (xx - mx) ** 2) <= MARKER_RADIUS ** 2
    data[marker] = MARKER_VALUE

    return Phantom(
        image=Image(data),
        tumor_mask=Mask(tumor),
        foreground_mask=Mask(brain),
        seed=int(seed),
    )
