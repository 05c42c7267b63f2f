import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from refmet.errors import ConfigError, DegenerateRangeError
from refmet.image import Image
from refmet.downstream import SegmenterParams, _label, task_similarity, threshold_segment
from refmet.distort import mirror_replace
from refmet.metrics import SsimParams, ssim
from refmet.normalize import DataRangePolicy, resolve_data_range_values


def test_threshold_above_everything_gives_empty():
    img = Image(np.linspace(0, 1, 64).reshape(8, 8))
    seg = threshold_segment(img, SegmenterParams(threshold_rel=0.99,
                                                 min_component_size=1))
    assert seg.count() <= 1  # only the max pixel can survive


def test_constant_image_errors():
    with pytest.raises(DegenerateRangeError):
        threshold_segment(Image(np.full((8, 8), 2.0)))


def test_small_components_removed():
    data = np.zeros((16, 16))
    data[2:6, 2:6] = 1.0        # 16 px blob
    data[10, 10] = 1.0          # single pixel
    seg = threshold_segment(Image(data), SegmenterParams(threshold_rel=0.5,
                                                         min_component_size=10))
    assert seg.data[3, 3]
    assert not seg.data[10, 10]


def test_connectivity_modes():
    data = np.zeros((8, 8))
    data[2, 2] = data[3, 3] = 1.0  # diagonal touch
    face = threshold_segment(Image(data), SegmenterParams(
        threshold_rel=0.5, min_component_size=2, connectivity="face"))
    corner = threshold_segment(Image(data), SegmenterParams(
        threshold_rel=0.5, min_component_size=2, connectivity="face+corner"))
    assert face.count() == 0      # two 1-px components, both filtered
    assert corner.count() == 2    # one 2-px component survives


def test_phantom_tumor_single_component(phantoms, ndimage):
    for p in phantoms[:5]:
        seg = threshold_segment(p.image)
        _, count = ndimage.label(seg.data)
        assert count == 1


def serpentine(n):
    """One n x n component: full even rows, joined at alternate ends."""
    grid = np.zeros((n, n), dtype=bool)
    grid[::2] = True
    grid[1::4, -1] = True
    grid[3::4, 0] = True
    return grid


def assert_same_partition(ndimage, raw, connectivity):
    """``_label`` splits ``raw`` into the components ``ndimage.label`` finds;
    ids may differ, so the pairs of ids must map one to one."""
    rank = 1 if connectivity == "face" else raw.ndim
    want, count = ndimage.label(raw, ndimage.generate_binary_structure(raw.ndim, rank))
    got = _label(raw, connectivity)
    assert np.array_equal(got > 0, raw)
    pairs = {(int(a), int(b)) for a, b in zip(want[raw], got[raw])}
    assert len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs}) == count


@given(arrays(np.bool_, array_shapes(min_dims=2, max_dims=3, min_side=1, max_side=9),
              elements=st.booleans()),
       st.sampled_from(["face", "face+corner"]))
@settings(max_examples=200, deadline=None)
def test_label_partition_equals_ndimage(ndimage, raw, connectivity):
    assert_same_partition(ndimage, raw, connectivity)


def diagonal_chain(n):
    """The main diagonal of an n^3 volume: consecutive voxels share a corner only."""
    grid = np.zeros((n, n, n), dtype=bool)
    grid[np.arange(n), np.arange(n), np.arange(n)] = True
    return grid


LABEL_CASES = {
    "all_false": np.zeros((5, 7), dtype=bool),
    "all_true": np.ones((5, 7), dtype=bool),
    "single_pixel": np.ones((1, 1), dtype=bool),
    "one_row": np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1]], dtype=bool),
    "one_column": np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1]], dtype=bool).T,
    "serpentine_192": serpentine(192),
    "diagonal_chain_3d": diagonal_chain(6),
}


@pytest.mark.parametrize("connectivity", ["face", "face+corner"])
@pytest.mark.parametrize("case", LABEL_CASES)
def test_label_edge_cases_equal_ndimage(ndimage, case, connectivity):
    assert_same_partition(ndimage, LABEL_CASES[case], connectivity)


def test_segmenter_affine_invariance(phantoms):
    img = phantoms[0].image
    base = threshold_segment(img)
    for a, b in ((0.25, 2.0), (-8.0, 0.5), (3.0, 4.0)):
        mapped = Image((img.data - a) / b)
        assert np.array_equal(threshold_segment(mapped).data, base.data)


def test_params_validation():
    with pytest.raises(ConfigError):
        SegmenterParams(threshold_rel=0.0)
    with pytest.raises(ConfigError):
        SegmenterParams(threshold_rel=1.0)
    with pytest.raises(ConfigError):
        SegmenterParams(connectivity="knight")


def test_task_similarity_self_is_one(phantoms):
    for p in phantoms[:5]:
        assert task_similarity(p.image, p.image).value == 1.0


def test_task_similarity_symmetric(phantoms):
    ref = phantoms[0].image
    test = mirror_replace(ref, 0)
    assert task_similarity(ref, test).value == task_similarity(test, ref).value


def test_tumor_free_test_scores_zero(phantoms):
    # mirror-replace removes the lower-half tumor; segmentation comes up
    # empty while the reference still has one -> dice 0
    p = phantoms[0]
    test = mirror_replace(p.image, 0)
    assert task_similarity(p.image, test).value == 0.0


def test_mirror_dice_zero_while_ssim_high(phantoms):
    p = phantoms[0]
    test = mirror_replace(p.image, 0)
    L = resolve_data_range_values(p.image.data, test.data, DataRangePolicy.joint())
    assert task_similarity(p.image, test).value == 0.0
    assert ssim(p.image, test, SsimParams(L)).value > 0.7


def test_fingerprint_lists_segmenter_params():
    fp = SegmenterParams().fingerprint()
    assert fp == ("connectivity=face;min_component_size=20;threshold_rel=0.94")
