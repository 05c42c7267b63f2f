import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from oracles import naive_box_sum, naive_cw_ssim, naive_cw_ssim_index, naive_filter_bank
import refmet.image as image
from refmet.errors import RefmetError
from refmet.image import Image, row_blocks
from refmet.metrics import EvalContext, cw_ssim, ssim
from refmet.metrics import wavelet
from refmet.metrics.wavelet import _HALO, _K, _build_bank, _neighborhood_sum
from refmet.distort import gamma_transform, linear_scale, mirror_replace, translate
from refmet.phantom import PhantomParams, generate_phantom

GOLDEN = json.loads((Path(__file__).parent / "golden" / "golden.json").read_text())


def test_identical_images_score_one(phantoms):
    img = phantoms[0].image
    assert cw_ssim(img, img).value == pytest.approx(1.0, abs=1e-9)


def test_rejects_3d():
    vol = Image(np.zeros((32, 32, 32)))
    with pytest.raises(RefmetError):
        cw_ssim(vol, vol)


def test_rejects_too_small():
    img = Image(np.zeros((20, 20)))
    with pytest.raises(RefmetError):
        cw_ssim(img, img)


def test_no_data_range_parameter(rng):
    # the fingerprint carries no L; scaling both images jointly is a no-op
    # on SSIM-with-L but cw_ssim has no such knob at all
    img = Image(rng.random((28, 28)))
    fp = cw_ssim(img, img).params_fingerprint
    assert "data_range" not in fp
    assert fp == "k=0.03;levels=2;neighborhood=7;orientations=6"


def test_positive_rescale_scores_near_one(phantoms):
    # coefficients scale linearly: score ~ 2a/(1+a^2) plus k-term pull
    for p in phantoms[:5]:
        scaled = linear_scale(p.image, 1.1)
        assert cw_ssim(p.image, scaled).value >= 0.99


def test_translation_tolerance_vs_ssim(phantoms):
    wins = 0
    for p in phantoms:
        shifted = translate(p.image, (2, 0))
        drop_ssim = 1.0 - ssim(p.image, shifted, EvalContext()).value
        drop_cw = 1.0 - cw_ssim(p.image, shifted).value
        wins += drop_cw < drop_ssim
    assert wins >= 18  # >= 90% of 20 phantoms


def test_symmetric(phantoms):
    a = phantoms[0].image
    b = translate(a, (1, 1))
    assert cw_ssim(a, b).value == pytest.approx(cw_ssim(b, a).value, rel=1e-9)


# Captured with the full-frame correlate-and-crop box sums and a filter bank
# rebuilt per call; pinned as exact float.hex values.
@pytest.mark.parametrize("case", ["gamma_linear", "shift_2px", "mirror_replace"])
def test_golden_values(case):
    ref = generate_phantom(1000).image
    test = {"gamma_linear": lambda: linear_scale(gamma_transform(ref, 0.4), 1.2),
            "shift_2px": lambda: translate(ref, (2, 0)),
            "mirror_replace": lambda: mirror_replace(ref, 0)}[case]()
    assert cw_ssim(ref, test).value.hex() == GOLDEN["cw_ssim_phantom1000_hex"][case]


def _correlate_and_crop(ndimage, arr):
    kern = np.ones(7)
    out = ndimage.correlate1d(arr, kern, axis=0, mode="constant")
    out = ndimage.correlate1d(out, kern, axis=1, mode="constant")
    return out[3:arr.shape[0] - 3, 3:arr.shape[1] - 3]


@pytest.mark.parametrize("shape", [(7, 7), (7, 30), (30, 7), (8, 13), (29, 41), (64, 48)])
def test_neighborhood_sum_matches_correlate_and_oracle(ndimage, shape):
    g = np.random.default_rng(sum(shape))
    arr = g.normal(size=shape) * 10.0 ** g.uniform(-3, 3, size=shape)
    got = _neighborhood_sum(arr)
    assert got.shape == (shape[0] - 6, shape[1] - 6)
    assert np.array_equal(got, _correlate_and_crop(ndimage, arr))
    # summation order differs from the loop: bound by the sum of magnitudes
    err = np.abs(got - naive_box_sum(arr, 7))
    assert np.all(err <= 1e-12 * naive_box_sum(np.abs(arr), 7))


def test_neighborhood_sum_complex_sums_parts_separately(ndimage):
    g = np.random.default_rng(3)
    arr = g.normal(size=(20, 17)) + 1j * g.normal(size=(20, 17))
    got = _neighborhood_sum(arr)
    assert np.array_equal(got.real, _correlate_and_crop(ndimage, arr.real))
    assert np.array_equal(got.imag, _correlate_and_crop(ndimage, arr.imag))


def _masks(shape):
    bands, angular = _build_bank(shape)
    return [band * a for band in bands for a in angular]


def test_filter_bank_masks_are_read_only():
    assert len(_masks((64, 64))) == 12
    bands, angular = _build_bank((64, 64))
    with pytest.raises(ValueError):
        bands[0][0, 0] = 1.0
    with pytest.raises(ValueError):
        angular[5] *= 2.0
    for factor in bands + angular:
        assert not factor.flags.writeable


def _np_mod_windows(shape):
    """The angular windows as built with ``np.mod`` for the angle wrap."""
    wy = 2.0 * np.pi * np.fft.fftfreq(shape[0])[:, None]
    wx = 2.0 * np.pi * np.fft.fftfreq(shape[1])[None, :]
    theta = np.arctan2(wy, wx)
    norm = np.sqrt(2.0 ** 10 * math.factorial(5) ** 2 / (6 * math.factorial(10)))
    windows = []
    for o in range(6):
        dt = np.mod(theta - np.pi * o / 6 + np.pi, 2.0 * np.pi) - np.pi
        a = np.zeros(shape)
        inside = np.abs(dt) < np.pi / 2.0
        a[inside] = norm * np.cos(dt[inside]) ** 5
        windows.append(a)
    return windows


@pytest.mark.parametrize("shape", [(192, 192), (512, 512), (426, 362), (28, 31), (33, 29)])
def test_filter_bank_windows_equal_the_np_mod_wrap(shape):
    _, angular = wavelet._build_bank(shape)
    for got, want in zip(angular, _np_mod_windows(shape), strict=True):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _cached():
    """(shapes, bytes) of the filter-bank cache, counted independently."""
    slot = wavelet._bank
    if slot is None:
        return [], 0
    shape, (bands, angular) = slot
    return [shape], sum(f.nbytes for f in bands + angular)


def _score(rng, shape):
    img = Image(rng.random(shape))
    assert cw_ssim(img, translate(img, (1, 0))).value < 1.0


def test_filter_bank_cache_budget(rng):
    # One shape, as its 8 factors: within the bound of the old cache, which
    # held the 12 masks of one shape.
    for shape in ((56, 56), (64, 72), (80, 60), (40, 40), (80, 60), (44, 48),
                  (44, 48), (60, 80), (30, 30)):
        _score(rng, shape)
        shapes, cached = _cached()
        assert len(shapes) == 1
        assert cached <= 12 * max(h * w for h, w in shapes) * 8


def test_filter_bank_cache_keeps_the_image_while_crops_vary(rng, monkeypatch):
    # An image, then a crop of another shape each time: the image's bank
    # stays cached, so it is built once.
    monkeypatch.setattr(wavelet, "_bank", None)
    monkeypatch.setattr(wavelet, "_last_shape", None)
    _score(rng, (96, 96))
    image_bank = wavelet._bank
    assert image_bank[0] == (96, 96)
    for crop in ((80, 70), (78, 72), (82, 69), (40, 40)):
        _score(rng, crop)
        assert wavelet._bank is image_bank


def test_filter_bank_cache_moves_to_a_new_shape(rng):
    # A shape that does not fit beside a larger one is cached from its
    # second call in a row on.
    _score(rng, (96, 96))
    _score(rng, (90, 90))
    assert (90, 90) not in _cached()[0]
    _score(rng, (90, 90))
    assert _cached()[0] == [(90, 90)]


def test_concurrent_calls_on_varying_shapes(two_cpus):
    # Callers on several threads share the cache and the one worker; each
    # gets the score of a call made alone.
    g = np.random.default_rng(4)
    pairs = []
    for shape in ((28, 28), (40, 33), (64, 64), (33, 57)) * 2:
        ref = g.normal(size=shape)
        pairs.append((Image(ref), Image(ref + 0.3 * g.normal(size=shape))))
    expected = [cw_ssim(r, t).value for r, t in pairs]
    got = [None] * len(pairs)
    errors = []

    def score(i):
        try:
            for _ in range(3):
                got[i] = cw_ssim(*pairs[i]).value
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=score, args=(i,)) for i in range(len(pairs))]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert not errors
    assert got == expected
    workers = [th for th in threading.enumerate() if th.name.startswith("refmet-cw_ssim")]
    assert len(workers) == 1


@pytest.mark.parametrize("shape", [(28, 28), (32, 40)])
def test_index_stage_matches_naive_loop(shape):
    # 28 is the smallest extent 2 levels admit. The oracle takes the same
    # subbands (FFT filter-bank stage) and redoes num/den with explicit loops.
    g = np.random.default_rng(sum(shape))
    ref = Image(g.normal(size=shape))
    test = Image(ref.data + 0.3 * g.normal(size=shape))
    fr, ft = np.fft.fft2(ref.data), np.fft.fft2(test.data)
    masks = _masks(shape)
    expected = naive_cw_ssim_index([np.fft.ifft2(fr * m) for m in masks],
                                   [np.fft.ifft2(ft * m) for m in masks], k=_K)
    assert cw_ssim(ref, test).value == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("shape", [(28, 28), (28, 30)])
def test_filter_bank_and_score_match_the_scalar_oracle(shape):
    # The oracle builds the bank and the subbands with math alone (no np.fft,
    # no package code), so it also pins what the index-stage test takes as given.
    for got, want in zip(_masks(shape), naive_filter_bank(shape), strict=True):
        assert np.max(np.abs(got - want)) <= 1e-14
    g = np.random.default_rng(sum(shape) + 1)
    ref = g.normal(size=shape)
    test = ref + 0.3 * g.normal(size=shape)
    score = cw_ssim(Image(ref), Image(test)).value
    assert abs(score - naive_cw_ssim(ref, test, k=_K)) <= 1e-12


def _pairs(phantoms):
    g = np.random.default_rng(11)
    for p in phantoms[:4]:
        yield p.image, translate(p.image, (2, 0))
        yield p.image, linear_scale(gamma_transform(p.image, 0.4), 1.2)
    for shape in ((28, 28), (28, 31), (33, 29)):
        ref = g.normal(size=shape)
        yield Image(ref), Image(ref + 0.3 * g.normal(size=shape))
    big = generate_phantom(1000, PhantomParams(dims=(512, 512))).image
    yield big, translate(big, (1, 2))


def test_worker_and_serial_paths_give_the_same_bits(phantoms, two_cpus, monkeypatch):
    pairs = list(_pairs(phantoms))
    threaded = [cw_ssim(r, t).value.hex() for r, t in pairs]
    assert any(th.name.startswith("refmet-cw_ssim") for th in threading.enumerate())
    monkeypatch.setattr(wavelet, "_pool", lambda: None)
    assert [cw_ssim(r, t).value.hex() for r, t in pairs] == threaded


_ONE_CPU_CHILD = """
import os, sys, threading
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from refmet.image import Image
from refmet.metrics import evaluate
from refmet.phantom import generate_phantom
ref = generate_phantom(1000).image
evaluate("cw_ssim", ref, Image(ref.data[::-1].copy()))
print(threading.active_count(), "concurrent.futures" in sys.modules)
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_one_cpu_runs_serially_without_a_thread():
    out = subprocess.run([sys.executable, "-c", _ONE_CPU_CHILD], check=True,
                         capture_output=True, text=True)
    assert out.stdout.split() == ["1", "False"]


def _score_flipped(seed):
    ref = generate_phantom(seed).image
    return cw_ssim(ref, Image(ref.data[::-1].copy())).value.hex()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs fork")
def test_forked_child_makes_its_own_worker(two_cpus):
    # The child inherits the parent's pool without its thread; it waited
    # for that thread forever before.
    expected = _score_flipped(1000)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.map_async(_score_flipped, [1000]).get(timeout=60) == [expected]


def _bits(arr):
    return arr.view(np.int64)


def _rough_pair(shape):
    g = np.random.default_rng(sum(shape))
    ref = g.normal(size=shape)
    return Image(ref), Image(ref + 0.3 * g.normal(size=shape))


# (shape, block budget): 2 blocks; 3 blocks, the last one short; a 179-point
# axis, which takes pocketfft's slow path; prime-factor axes (353, 19^2);
# 6 valid rows per block (a budget smaller than one row), the last short.
CW_BLOCKED = [((300, 360), None), ((420, 360), None), ((426, 358), None),
              ((353, 361), None), ((40, 33), 1)]


@pytest.mark.parametrize("shape, budget", CW_BLOCKED, ids=[str(s) for s, _ in CW_BLOCKED])
def test_row_blocks_give_the_bits_of_one_block(monkeypatch, shape, budget):
    ref, test = _rough_pair(shape)
    fr, ft = np.fft.fft2(ref.data), np.fft.fft2(test.data)
    if budget is not None:
        monkeypatch.setattr(image, "_BLOCK_BYTES", budget)
    assert len(row_blocks(shape, _HALO)) > 1
    blocked = [wavelet._subband_index(fr, ft, m).hex() for m in _masks(shape)]
    blocked_score = cw_ssim(ref, test).value.hex()
    monkeypatch.setattr(image, "_BLOCK_BYTES", 2 ** 62)
    assert len(row_blocks(shape, _HALO)) == 1
    assert [wavelet._subband_index(fr, ft, m).hex() for m in _masks(shape)] == blocked
    assert cw_ssim(ref, test).value.hex() == blocked_score


# 192x192 (every audit image) is one block; the bounding-box crops of a
# 512x512 phantom are 3 and the image itself 5.
@pytest.mark.parametrize("shape, count", [((192, 192), 1), ((426, 358), 3), ((512, 512), 5)])
def test_row_block_count(shape, count):
    assert len(row_blocks(shape, _HALO)) == count


def _run_kind(runs, height):
    """"one" or "wrapped" when ``runs`` skips some rows and is one run, or two
    runs joined across the last row to row 0; None otherwise."""
    if sum(r.stop - r.start for r in runs) == height:
        return None
    if len(runs) == 1:
        return "one"
    return "wrapped" if len(runs) == 2 and runs[0].start == 0 and runs[1].stop == height else None


@pytest.mark.parametrize("shape", [(28, 31), (192, 192), (426, 358), (512, 512)])
def test_row_skipping_inverse_transform_gives_the_bits_of_ifft2(shape):
    g = np.random.default_rng(sum(shape))
    f = np.fft.fft2(g.normal(size=shape))
    kinds = []
    for mask in _masks(shape):
        runs = wavelet._row_runs(mask)
        rows = np.concatenate([np.arange(shape[0])[r] for r in runs])
        assert np.array_equal(rows, np.flatnonzero(mask.any(axis=1)))
        kinds.append(_run_kind(runs, shape[0]))
        got = wavelet._masked_ifft2(f, mask, runs)
        assert np.array_equal(_bits(got), _bits(np.fft.ifft2(f * mask)))
    # Masks with one run of rows (the half-planes above the horizontal axis)
    # and with two runs that wrap around row 0, both skipping rows.
    assert "one" in kinds and "wrapped" in kinds


def _recording(monkeypatch, module, name):
    """Wrap ``module.name`` so that it records, per call, whether it ran on
    the worker and its first argument."""
    calls = []
    fn = getattr(module, name)

    def wrapper(arg, *args, **kwargs):
        calls.append((threading.current_thread().name.startswith("refmet-cw_ssim"), arg))
        return fn(arg, *args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_worker_built_bank_and_transformed_test_give_the_serial_bits(two_cpus, monkeypatch):
    pairs = [_rough_pair(shape) for shape in ((40, 33), (40, 33), (56, 44))]
    with monkeypatch.context() as serial_path:
        serial_path.setattr(wavelet, "_pool", lambda: None)
        serial = [cw_ssim(r, t).value.hex() for r, t in pairs]
    serial_bank = wavelet._build_bank((40, 33))
    monkeypatch.setattr(wavelet, "_bank", None)
    monkeypatch.setattr(wavelet, "_last_shape", None)
    built = _recording(monkeypatch, wavelet, "_build_bank")
    transformed = _recording(monkeypatch, np.fft, "fft2")
    got = []
    for r, t in pairs:
        built.clear()
        transformed.clear()
        got.append(cw_ssim(r, t).value.hex())
        fft_threads = {(on_worker, arg is t.data) for on_worker, arg in transformed}
        if len(got) == 2:
            # A cached shape: the worker transforms the test image, the
            # caller the reference.
            assert not built and fft_threads == {(True, True), (False, False)}
        else:
            # An uncached shape: the worker builds the bank, the caller
            # transforms both images.
            assert built == [(True, r.shape)]
            assert fft_threads == {(False, True), (False, False)}
    assert got == serial
    # The first shape was cached from the worker's bank: the serial bits.
    shape, (bands, angular) = wavelet._bank
    assert shape == (40, 33)
    for got_factor, want in zip(bands + angular, serial_bank[0] + serial_bank[1], strict=True):
        assert np.array_equal(_bits(got_factor), _bits(want))
