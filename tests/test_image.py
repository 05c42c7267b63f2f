from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from refmet.errors import FormatError, RefmetError
from refmet.image import (Image, Mask, Rect, bounding_box, crop,
                          intensity_stats, load_image, save_image)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False, width=32)


def test_image_rejects_nan():
    with pytest.raises(RefmetError):
        Image(np.array([[0.0, np.nan]]))


def test_image_rejects_1d():
    with pytest.raises(RefmetError):
        Image(np.arange(4.0))


def test_image_fields():
    assert [f.name for f in fields(Image)] == ["data"]


def test_image_data_is_read_only():
    img = Image(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        img.data[0, 0] = 1.0


def test_dims_properties():
    img = Image(np.zeros((3, 4)))
    assert (img.height, img.width, img.depth) == (3, 4, None)
    vol = Image(np.zeros((2, 3, 4)))
    assert (vol.depth, vol.height, vol.width) == (2, 3, 4)


# --- intensity stats ------------------------------------------------------

def test_stats_constant():
    assert intensity_stats(Image(np.full((2, 2), 5.0))) == (5, 5, 5, 0)


def test_stats_hand_computed():
    mn, mx, mean, std = intensity_stats(Image(np.array([[0.0, 1.0], [2.0, 3.0]])))
    assert (mn, mx, mean) == (0, 3, 1.5)
    assert std == pytest.approx(np.sqrt(1.25), abs=0)


def test_stats_two_values():
    assert intensity_stats(Image(np.array([[-1.0, 1.0]]))) == (-1, 1, 0, 1)


@given(arrays(np.float64, (5, 7), elements=finite),
       st.floats(min_value=-100, max_value=100, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_stats_shift_property(data, c):
    mn, mx, mean, std = intensity_stats(Image(data))
    mn2, mx2, mean2, std2 = intensity_stats(Image(data + c))
    tol = 1e-12 * max(1.0, float(np.abs(data).max()), abs(c))
    assert mn2 == pytest.approx(mn + c, abs=tol)
    assert mx2 == pytest.approx(mx + c, abs=tol)
    assert mean2 == pytest.approx(mean + c, abs=tol)
    assert std2 == pytest.approx(std, rel=1e-9, abs=1e-9)


# --- crop / bounding box --------------------------------------------------

def test_crop_identity():
    img = Image(np.arange(6.0).reshape(2, 3))
    out = crop(img, Rect((0, 0), (2, 3)))
    assert np.array_equal(out.data, img.data)


def test_crop_single_element():
    img = Image(np.array([[0.0, 10.0], [20.0, 30.0]]))
    out = crop(img, Rect((1, 1), (1, 1)))
    assert out.data.tolist() == [[30.0]]


def test_crop_out_of_bounds():
    img = Image(np.zeros((2, 2)))
    with pytest.raises(RefmetError):
        crop(img, Rect((1, 1), (2, 1)))


def test_bounding_box_single_point():
    m = np.zeros((5, 6), dtype=bool)
    m[2, 3] = True
    assert bounding_box(Mask(m)) == Rect((2, 3), (1, 1))


def test_bounding_box_all_true():
    assert bounding_box(Mask(np.ones((5, 6), dtype=bool))) == Rect((0, 0), (5, 6))


def test_bounding_box_corners():
    m = np.zeros((6, 9), dtype=bool)
    m[0, 0] = m[4, 7] = True
    assert bounding_box(Mask(m)) == Rect((0, 0), (5, 8))


def test_bounding_box_empty_mask():
    with pytest.raises(RefmetError):
        bounding_box(Mask(np.zeros((3, 3), dtype=bool)))


@given(arrays(np.bool_, (6, 8), elements=st.booleans()))
@settings(max_examples=50, deadline=None)
def test_crop_of_bbox_has_bbox_extent(mask_data):
    if not mask_data.any():
        return
    rect = bounding_box(Mask(mask_data))
    out = crop(Image(np.zeros(mask_data.shape)), rect)
    assert out.shape == rect.extent


# --- file I/O -------------------------------------------------------------

def test_pgm_ascii_roundtrip_contract(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_text("P2\n# comment\n2 2\n255\n0 10 20 30\n")
    img = load_image(path, "pgm")
    assert img.shape == (2, 2)
    assert img.data.ravel().tolist() == [0, 10, 20, 30]


def test_pgm_binary_roundtrip(tmp_path):
    data = np.arange(256.0).reshape(16, 16)
    img = Image(data)
    save_image(img, tmp_path / "x.pgm")
    back = load_image(tmp_path / "x.pgm")
    assert np.array_equal(back.data, data)


def test_pgm_16bit(tmp_path):
    data = np.array([[0.0, 300.0], [65535.0, 12.0]])
    save_image(Image(data), tmp_path / "w.pgm")
    back = load_image(tmp_path / "w.pgm")
    assert np.array_equal(back.data, data)


def test_pgm_rejects_fractional(tmp_path):
    with pytest.raises(FormatError):
        save_image(Image(np.array([[0.5]])), tmp_path / "bad.pgm")


def test_pgm_rejects_negative(tmp_path):
    with pytest.raises(FormatError):
        save_image(Image(np.array([[-1.0]])), tmp_path / "bad.pgm")


def test_rawf32_roundtrip_bit_exact(tmp_path, rng):
    data = rng.random((8, 8), dtype=np.float32).astype(np.float64)
    save_image(Image(data), tmp_path / "r.rawf32")
    back = load_image(tmp_path / "r.rawf32")
    assert np.array_equal(back.data, data)


def test_rawf32_dims_orientation(tmp_path):
    vals = np.arange(12, dtype="<f4")
    (tmp_path / "a.rawf32").write_bytes(vals.tobytes())
    (tmp_path / "a.rawf32.meta").write_text('{"dims": [3, 4], "dtype": "f32le"}')
    img = load_image(tmp_path / "a.rawf32")
    assert (img.height, img.width) == (3, 4)
    assert img.data[0].tolist() == [0, 1, 2, 3]


def test_rawf32_3d_roundtrip(tmp_path, rng):
    data = rng.random((3, 4, 5), dtype=np.float32).astype(np.float64)
    save_image(Image(data), tmp_path / "v.rawf32")
    assert np.array_equal(load_image(tmp_path / "v.rawf32").data, data)


def test_rawf32_rejects_nan(tmp_path):
    vals = np.array([1.0, np.nan, 0.0, 2.0], dtype="<f4")
    (tmp_path / "n.rawf32").write_bytes(vals.tobytes())
    (tmp_path / "n.rawf32.meta").write_text('{"dims": [2, 2], "dtype": "f32le"}')
    with pytest.raises(FormatError):
        load_image(tmp_path / "n.rawf32")


def test_rawf32_payload_length_mismatch(tmp_path):
    (tmp_path / "s.rawf32").write_bytes(b"\x00" * 8)
    (tmp_path / "s.rawf32.meta").write_text('{"dims": [2, 2], "dtype": "f32le"}')
    with pytest.raises(FormatError):
        load_image(tmp_path / "s.rawf32")


def test_pgm_truncated_header(tmp_path):
    (tmp_path / "t.pgm").write_text("P2\n2")
    with pytest.raises(FormatError):
        load_image(tmp_path / "t.pgm")


def test_pgm_payload_count_mismatch(tmp_path):
    (tmp_path / "t.pgm").write_text("P2\n2 2\n255\n0 1 2\n")
    with pytest.raises(FormatError):
        load_image(tmp_path / "t.pgm")
