"""Image, mask and rectangle types plus file I/O.

Images are dense 2D or 3D float grids. Arrays follow numpy layout:
``(h, w)`` for 2D and ``(d, h, w)`` for 3D. An image is its data alone: a
loaded PGM keeps no trace of its maxval, so the data range SSIM and PSNR
use always comes from an explicit policy (:mod:`refmet.normalize`). Two
on-disk formats are supported:

* PGM ("P2" ASCII or "P5" binary), maxval 255 or 65535, 16-bit values
  big-endian per the PGM convention. 2D only.
* rawf32: little-endian float32 in C row-major order, with a JSON
  sidecar at ``<path>.meta`` holding ``{"dims": [h, w] | [d, h, w],
  "dtype": "f32le"}``.

Images and masks are immutable after construction: each holds a read-only
copy of the array it was given, never the caller's own. Every operation
here is pure.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, RefmetError, ShapeMismatchError

__all__ = [
    "Image",
    "Mask",
    "Rect",
    "load_image",
    "save_image",
    "crop",
    "bounding_box",
]


def _freeze(arr: np.ndarray, given) -> np.ndarray:
    """``arr``, the array made from ``given``, read-only and C-contiguous in
    memory of its own: it is copied when it shares memory with ``given``, so
    no caller keeps a handle that could write to it or turn writes back on."""
    if isinstance(given, np.ndarray) and np.may_share_memory(arr, given):
        arr = arr.copy()
    else:
        arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Image:
    """A finite 2D/3D intensity grid and nothing else: the range a metric
    uses is always an explicit data-range policy, never the image's."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim not in (2, 3):
            raise RefmetError(f"image must be 2D or 3D, got ndim={data.ndim}")
        if any(n < 1 for n in data.shape):
            raise RefmetError(f"image dims must be >= 1, got {data.shape}")
        if not np.all(np.isfinite(data)):
            raise RefmetError("image contains non-finite values")
        object.__setattr__(self, "data", _freeze(data, self.data))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim


@dataclass(frozen=True, eq=False)
class Mask:
    """Boolean grid congruent with some image."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.dtype != np.bool_:
            raise RefmetError(f"mask data must be boolean, got {data.dtype}")
        if data.ndim not in (2, 3):
            raise RefmetError(f"mask must be 2D or 3D, got ndim={data.ndim}")
        object.__setattr__(self, "data", _freeze(data, self.data))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def count(self) -> int:
        return int(self.data.sum())


@dataclass(frozen=True)
class Rect:
    """Axis-aligned box in array index order (same axis order as ``data.shape``)."""

    origin: tuple[int, ...]
    extent: tuple[int, ...]

    def __post_init__(self):
        origin = tuple(int(v) for v in self.origin)
        extent = tuple(int(v) for v in self.extent)
        if len(origin) != len(extent):
            raise RefmetError("origin and extent must have equal length")
        if any(o < 0 for o in origin):
            raise RefmetError(f"rect origin must be >= 0, got {origin}")
        if any(e < 1 for e in extent):
            raise RefmetError(f"rect extent must be >= 1, got {extent}")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "extent", extent)

    def slices(self) -> tuple[slice, ...]:
        return tuple(slice(o, o + e) for o, e in zip(self.origin, self.extent))


def crop(img: Image, r: Rect) -> Image:
    """Sub-image at ``r``."""
    if len(r.origin) != img.ndim:
        raise RefmetError(f"rect rank {len(r.origin)} != image rank {img.ndim}")
    for o, e, n in zip(r.origin, r.extent, img.shape):
        if o + e > n:
            raise RefmetError(f"rect {r} out of bounds for image shape {img.shape}")
    return Image(img.data[r.slices()])


def correlate_valid(arr: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """Correlate ``arr`` with an odd symmetric ``kernel`` along ``axis`` at
    valid positions only; that axis shrinks by ``len(kernel) - 1``.

    Real or complex input. The additions run in ndimage's order for a
    symmetric kernel, x0*k_c + (x-r + x+r)*k_0 + ... + (x-1 + x+1)*k_(r-1),
    so the result is bit-identical to ndimage's correlation at the same
    positions: the SSIM moments, CW-SSIM box sums and blur that ndimage
    used to compute keep their bits, and with them every golden value.
    """
    a = np.moveaxis(arr, axis, 0)
    r = (len(kernel) - 1) // 2
    n = len(a) - 2 * r
    out = a[r:r + n] * kernel[r]
    pair = np.empty_like(out)  # one buffer for every tap pair: fewer temporaries
    for i in range(r):
        np.add(a[i:i + n], a[2 * r - i:2 * r - i + n], out=pair)
        pair *= kernel[i]
        out += pair
    return np.moveaxis(out, 0, axis)


# Bytes of float64 one block of rows reads from each image: with its
# temporaries, a block stays in a core's cache. A 192x192 image fits in one
# block.
_BLOCK_BYTES = 512 * 1024


def row_blocks(shape: tuple[int, ...], halo: int) -> list[slice]:
    """Blocks of valid positions along axis 0 of a stencil that reaches
    ``halo`` rows past each valid row. Block ``rows`` reads input rows
    ``rows.start`` to ``rows.stop + halo``: at most ``_BLOCK_BYTES`` of
    float64, but never fewer than ``halo`` valid rows, so no block reads more
    than twice the rows it keeps (rows wider than the budget allows, as the
    planes of a 96^3 volume, take ``halo`` rows a block)."""
    valid = shape[0] - halo
    step = max(halo, _BLOCK_BYTES // (8 * math.prod(shape[1:])) - halo)
    return [slice(i, min(i + step, valid)) for i in range(0, valid, step)]


def by_row_blocks(maps, shape: tuple[int, ...], halo: int) -> tuple[np.ndarray, ...]:
    """``maps(rows, span)``, a tuple of maps over the valid positions of a
    stencil on ``shape`` that reaches ``halo`` rows past each valid row,
    called once per block of :func:`row_blocks` with its valid ``rows`` and
    the input rows ``span`` they read, and joined into full-size maps. One
    block returns the arrays ``maps`` made, not a copy."""
    blocks = row_blocks(shape, halo)
    if len(blocks) == 1:
        return maps(blocks[0], slice(0, shape[0]))
    out = None
    for rows in blocks:
        parts = maps(rows, slice(rows.start, rows.stop + halo))
        out = out or tuple(np.empty((shape[0] - halo, *p.shape[1:]), p.dtype) for p in parts)
        for full, part in zip(out, parts):
            full[rows] = part
        del parts, part  # the next block's maps run without this block's
    return out


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian taps, truncated at radius ceil(3 sigma)."""
    radius = int(np.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return k / k.sum()


def bounding_box(m: Mask) -> Rect:
    """Minimal Rect containing every true element of the mask."""
    if not m.data.any():
        raise RefmetError("bounding_box of an empty mask")
    idx = np.nonzero(m.data)
    origin = tuple(int(ax.min()) for ax in idx)
    extent = tuple(int(ax.max()) - int(ax.min()) + 1 for ax in idx)
    return Rect(origin, extent)


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

_TOKEN = re.compile(rb"\S+")


def _pgm_tokens(buf: bytes, count: int, pos: int) -> tuple[list[bytes], int]:
    """Next ``count`` whitespace-separated tokens, skipping '#' comments."""
    out: list[bytes] = []
    while len(out) < count:
        m = _TOKEN.search(buf, pos)
        if m is None:
            raise FormatError("truncated PGM header")
        tok = m.group(0)
        if tok.startswith(b"#"):
            nl = buf.find(b"\n", m.start())
            if nl < 0:
                raise FormatError("truncated PGM comment")
            pos = nl + 1
            continue
        out.append(tok)
        pos = m.end()
    return out, pos


def _load_pgm(path: Path) -> Image:
    buf = path.read_bytes()
    (magic,), pos = _pgm_tokens(buf, 1, 0)
    if magic not in (b"P2", b"P5"):
        raise FormatError(f"not a PGM file (magic {magic!r})")
    (w_tok, h_tok, maxval_tok), pos = _pgm_tokens(buf, 3, pos)
    try:
        w, h, maxval = int(w_tok), int(h_tok), int(maxval_tok)
    except ValueError as exc:
        raise FormatError(f"bad PGM header field: {exc}") from None
    if w < 1 or h < 1:
        raise FormatError(f"bad PGM dims {w}x{h}")
    if maxval not in (255, 65535):
        raise FormatError(f"unsupported PGM maxval {maxval} (need 255 or 65535)")
    n = w * h
    if magic == b"P2":
        toks = buf[pos:].split()
        if len(toks) != n:
            raise FormatError(f"PGM payload has {len(toks)} values, expected {n}")
        try:
            vals = np.array([int(t) for t in toks], dtype=np.int64)
        except ValueError as exc:
            raise FormatError(f"bad PGM sample: {exc}") from None
        except OverflowError:
            raise FormatError(f"PGM sample out of range [0, {maxval}]") from None
    else:
        pos += 1  # single whitespace byte after maxval
        itemsize = 1 if maxval < 256 else 2
        payload = buf[pos:pos + n * itemsize]
        if len(payload) != n * itemsize:
            raise FormatError(
                f"PGM payload has {len(payload)} bytes, expected {n * itemsize}")
        dtype = np.uint8 if itemsize == 1 else np.dtype(">u2")
        vals = np.frombuffer(payload, dtype=dtype).astype(np.int64)
    if vals.min() < 0 or vals.max() > maxval:
        raise FormatError(f"PGM sample out of range [0, {maxval}]")
    return Image(vals.reshape(h, w).astype(np.float64))


def _load_rawf32(path: Path) -> Image:
    meta_path = Path(str(path) + ".meta")
    if not meta_path.exists():
        raise FormatError(f"missing rawf32 sidecar {meta_path}")
    try:
        meta = json.loads(meta_path.read_text())
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise FormatError(f"{meta_path}: bad rawf32 sidecar JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise FormatError(f"{meta_path}: rawf32 sidecar must be a JSON object")
    dims = meta.get("dims")
    dtype = meta.get("dtype")
    if dtype != "f32le":
        raise FormatError(f"unsupported rawf32 dtype {dtype!r}")
    if not isinstance(dims, list) or len(dims) not in (2, 3) or \
            not all(type(v) is int and v >= 1 for v in dims):
        raise FormatError(f"bad rawf32 dims {dims!r}")
    n = math.prod(dims)
    payload = path.read_bytes()
    if len(payload) != 4 * n:
        raise FormatError(f"rawf32 payload has {len(payload)} bytes, expected {4 * n}")
    vals = np.frombuffer(payload, dtype="<f4").reshape(dims)
    if not np.all(np.isfinite(vals)):
        raise FormatError("rawf32 contains non-finite values")
    return Image(vals.astype(np.float64))


def load_image(path) -> Image:
    """Load an image: PGM for a ``.pgm`` extension, rawf32 otherwise."""
    path = Path(path)
    if not path.exists():
        raise FormatError(f"no such file: {path}")
    return _load_pgm(path) if path.suffix.lower() == ".pgm" else _load_rawf32(path)


def save_image(img: Image, path) -> None:
    """Write ``img`` as PGM for a ``.pgm`` extension, rawf32 otherwise; pgm
    requires integer values in [0, 65535] and 2D data, rawf32 float32-range values."""
    path = Path(path)
    if path.suffix.lower() == ".pgm":
        if img.ndim != 2:
            raise FormatError("PGM only stores 2D images")
        d = img.data
        if not np.all(d == np.floor(d)):
            raise FormatError("PGM requires integer-valued data")
        if d.min() < 0 or d.max() > 65535:
            raise FormatError("PGM values must lie in [0, 65535]")
        maxval = 255 if d.max() <= 255 else 65535
        h, w = d.shape
        header = f"P5\n{w} {h}\n{maxval}\n".encode()
        dtype = np.uint8 if maxval == 255 else np.dtype(">u2")
        path.write_bytes(header + d.astype(dtype).tobytes())
    else:
        # Underflow to 0 is the format's precision; overflow to inf is an error.
        with np.errstate(over="ignore"):
            payload = img.data.astype("<f4")
        if not np.all(np.isfinite(payload)):
            raise FormatError("rawf32 stores float32, whose range is "
                              f"±{np.finfo(np.float32).max:.8g}; the image exceeds it")
        path.write_bytes(payload.tobytes(order="C"))
        meta = {"dims": [int(v) for v in img.shape], "dtype": "f32le"}
        Path(str(path) + ".meta").write_text(json.dumps(meta) + "\n")


MASK_THRESHOLD = 0.5  # a mask image is on where its value exceeds this


def mask_from_image(img: Image) -> Mask:
    """Interpret an intensity image as a boolean mask (``> MASK_THRESHOLD``)."""
    return Mask(img.data > MASK_THRESHOLD)


def mask_to_image(m: Mask) -> Image:
    """Boolean mask as a 0/255 image, convenient for PGM export."""
    return Image(m.data.astype(np.float64) * 255.0)


def require_same_shape(a, b) -> None:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
