import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import refmet.image as image
from refmet.errors import FormatError, RefmetError
from refmet.image import (Image, Mask, Rect, bounding_box, by_row_blocks, correlate_valid, crop,
                          load_image, row_blocks, save_image)


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


@pytest.mark.parametrize("make", (Image, lambda a: Mask(a > 0.0)), ids=("image", "mask"))
def test_a_later_write_to_the_given_array_does_not_reach_the_data(make):
    arr = np.zeros((2, 4, 4))
    obj = make(arr[0])
    arr[0] += 1.0
    assert arr.flags.writeable
    assert not obj.data.any()
    assert not obj.data.flags.writeable


def test_dims_properties():
    img = Image(np.zeros((3, 4)))
    assert (img.shape, img.ndim) == ((3, 4), 2)
    vol = Image(np.zeros((2, 3, 4)))
    assert (vol.shape, vol.ndim) == ((2, 3, 4), 3)


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
    img = load_image(path)
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


SAVE_ERRORS = [
    ("cube.pgm", np.zeros((2, 2, 2)), "PGM only stores 2D images"),
    ("half.pgm", np.array([[0.5]]), "PGM requires integer-valued data"),
    ("wide.pgm", np.array([[0.0, 65536.0]]), "PGM values must lie in [0, 65535]"),
    ("big.rawf32", np.array([[1.0, -1e39]]),
     "rawf32 stores float32, whose range is ±3.4028235e+38; the image exceeds it"),
]


@pytest.mark.parametrize("name, data, message", SAVE_ERRORS,
                         ids=[name for name, _, _ in SAVE_ERRORS])
def test_save_error_names_its_file(tmp_path, name, data, message):
    path = tmp_path / name
    with pytest.raises(FormatError) as exc:
        save_image(Image(data), path)
    assert str(exc.value) == f"{path}: {message}"
    assert list(tmp_path.iterdir()) == []


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
    assert img.shape == (3, 4)
    assert img.data[0].tolist() == [0, 1, 2, 3]


def test_rawf32_3d_roundtrip(tmp_path, rng):
    data = rng.random((3, 4, 5), dtype=np.float32).astype(np.float64)
    save_image(Image(data), tmp_path / "v.rawf32")
    assert np.array_equal(load_image(tmp_path / "v.rawf32").data, data)


def test_rawf32_save_beyond_float32_raises_and_writes_nothing(tmp_path):
    with pytest.raises(FormatError, match="float32"):
        save_image(Image(np.array([[1.0, -1e39]])), tmp_path / "o.rawf32")
    assert not (tmp_path / "o.rawf32").exists()
    assert not (tmp_path / "o.rawf32.meta").exists()
    # underflow is float32's precision, not an error
    save_image(Image(np.array([[1.0, 1e-60]])), tmp_path / "u.rawf32")
    assert load_image(tmp_path / "u.rawf32").data.tolist() == [[1.0, 0.0]]


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


def test_rawf32_sidecar_errors_print_its_json(tmp_path):
    (tmp_path / "b.rawf32").write_bytes(bytes(16))
    meta = tmp_path / "b.rawf32.meta"
    meta.write_text('{"dims": [true, 4], "dtype": "f32le"}')
    with pytest.raises(FormatError, match=re.escape(f"{meta}: bad rawf32 dims [true, 4]")):
        load_image(tmp_path / "b.rawf32")
    meta.write_text('{"dims": [2, 2]}')
    with pytest.raises(FormatError, match=re.escape(f"{meta}: unsupported rawf32 dtype null")):
        load_image(tmp_path / "b.rawf32")


def test_pgm_truncated_header(tmp_path):
    (tmp_path / "t.pgm").write_text("P2\n2")
    with pytest.raises(FormatError):
        load_image(tmp_path / "t.pgm")


def test_pgm_payload_count_mismatch(tmp_path):
    (tmp_path / "t.pgm").write_text("P2\n2 2\n255\n0 1 2\n")
    with pytest.raises(FormatError):
        load_image(tmp_path / "t.pgm")


@pytest.mark.parametrize("shape", [(40, 9), (31, 5, 4)])
def test_by_row_blocks_returns_one_blocks_arrays_and_joins_several(monkeypatch, shape):
    # A 7-row box sum (halo 6) and its complex multiple: one block hands
    # back the arrays maps made, which the audit's memory relies on;
    # several blocks give the same bits.
    arr = np.random.default_rng(sum(shape)).normal(size=shape) * 1e3
    made, calls = [], []

    def maps(rows, span):
        calls.append((rows, span))
        sums = correlate_valid(arr[span], np.ones(7), 0)
        made.append((sums, sums * (1 + 2j)))
        return made[-1]

    whole = by_row_blocks(maps, shape, 6)
    assert calls == [(slice(0, shape[0] - 6), slice(0, shape[0]))]
    assert len(whole) == 2 and all(got is own for got, own in zip(whole, made[0]))
    monkeypatch.setattr(image, "_BLOCK_BYTES", 1)  # 6 valid rows a block
    calls.clear()
    blocked = by_row_blocks(maps, shape, 6)
    assert [rows for rows, _ in calls] == row_blocks(shape, 6) and len(calls) > 1
    assert all(span == slice(rows.start, rows.stop + 6) for rows, span in calls)
    for got, want in zip(blocked, whole, strict=True):
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()
