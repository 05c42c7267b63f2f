import numpy as np
import pytest

from refmet.errors import ConfigError
from refmet.downstream import threshold_segment
from refmet.metrics import dice
from refmet.phantom import MARKER_VALUE, PhantomParams, TUMOR_BASE, generate_phantom


def test_same_seed_bit_identical():
    a = generate_phantom(12345)
    b = generate_phantom(12345)
    assert np.array_equal(a.image.data, b.image.data)
    assert np.array_equal(a.tumor_mask.data, b.tumor_mask.data)
    assert np.array_equal(a.foreground_mask.data, b.foreground_mask.data)


def test_different_seeds_differ():
    a = generate_phantom(1)
    b = generate_phantom(2)
    assert not np.array_equal(a.image.data, b.image.data)


def test_tumor_inside_foreground(phantoms):
    for p in phantoms:
        assert not np.any(p.tumor_mask.data & ~p.foreground_mask.data)


def test_background_is_zero(phantoms):
    for p in phantoms:
        assert np.all(p.image.data[~p.foreground_mask.data] == 0.0)


def test_tumor_is_unique_maximal_blob(phantoms):
    for p in phantoms:
        peak = p.image.data.max()
        assert peak == 1.0
        # everything at/above the tumor base outside the tumor is the tiny
        # marker, which stays strictly below the tumor peak
        outside = p.image.data[~p.tumor_mask.data]
        assert outside.max() <= MARKER_VALUE < peak
        assert p.image.data[p.tumor_mask.data].min() >= TUMOR_BASE


def test_tumor_in_lower_half(phantoms):
    for p in phantoms:
        rows = np.nonzero(p.tumor_mask.data.any(axis=1))[0]
        assert rows.min() >= p.image.shape[0] // 2


def test_segmenter_recovers_tumor(phantoms):
    for p in phantoms:
        seg = threshold_segment(p.image)
        assert dice(seg, p.tumor_mask).value >= 0.9


def test_dims_knob():
    p = generate_phantom(5, PhantomParams(dims=(96, 128)))
    assert p.image.shape == (96, 128)


def test_dims_too_small_rejected():
    with pytest.raises(ConfigError):
        PhantomParams(dims=(32, 192))
