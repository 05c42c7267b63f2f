"""The per-thread memo behind ssim/ms_ssim's reuse: the last reference's
pyramid, keyed on its bits, and in it the last test's scale 0, keyed on the
test's bits and L. A hit needs equal bits and an equal extra key, gives the
bits of a cold computation, and stays on its thread; one reference pyramid
and one test at most are held."""

import gc
import threading
import weakref

import numpy as np
import pytest

import refmet.metrics.structural as structural
from refmet.image import Image, Mask
from refmet.metrics import EvalContext, evaluate, masked_evaluate
from refmet.metrics.memo import BitsMemo


def _pair(shape=(40, 44), seed=3):
    g = np.random.default_rng(seed)
    ref = g.random(shape) * 100.0
    return ref, 0.8 * ref + 10.0 * g.random(shape)


def _counted(monkeypatch, module, name):
    """Clears the memo, then counts calls of ``module.name``."""
    structural._PYRAMID.clear()
    calls = []
    fn = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _scale0(ref, test, L):
    return structural._scale0(Image(ref), Image(test), L)[1]


def _hex(values):
    return [v.hex() for v in values]


def _one_ulp_up(arr):
    out = arr.copy()
    out[3, 5] = np.nextafter(out[3, 5], np.inf)
    return out


def _signed_zero(arr, sign):
    out = arr.copy()
    out[0, 0] = np.copysign(0.0, sign)
    return out


def test_scale0_hits_only_on_equal_bits_and_equal_L(monkeypatch):
    calls = _counted(monkeypatch, structural, "ssim_and_cs")
    ref, test = _pair()
    cold = _scale0(ref, test, 100.0)
    # equal bits in new arrays and Images: a hit
    assert _scale0(ref.copy(), test.copy(), 100.0) is cold and len(calls) == 1
    # one ULP in the test, then back; one ULP in the reference; another L
    for r, t, L in ((ref, _one_ulp_up(test), 100.0), (ref, test, 100.0),
                    (_one_ulp_up(ref), test, 100.0), (ref, test, 100.5)):
        before = len(calls)
        got = _scale0(r, t, L)
        assert len(calls) == before + 1
        structural._PYRAMID.clear()
        assert _hex(got) == _hex(_scale0(r, t, L))
    # -0.0 and +0.0 are different bits
    calls.clear()
    _scale0(_signed_zero(ref, 1.0), test, 100.0)
    _scale0(_signed_zero(ref, -1.0), test, 100.0)
    _scale0(ref, _signed_zero(test, -1.0), 100.0)
    _scale0(ref, _signed_zero(test, 1.0), 100.0)
    assert len(calls) == 4


def test_a_hit_has_the_bits_of_a_cold_computation():
    ref, test = _pair((180, 177), 4)
    ctx = EvalContext()
    first = [evaluate(m, Image(ref), Image(test), ctx).value for m in ("ssim", "ms_ssim")]
    structural._PYRAMID.clear()
    cold_ms = evaluate("ms_ssim", Image(ref), Image(test), ctx).value
    structural._PYRAMID.clear()
    cold_ssim = evaluate("ssim", Image(ref), Image(test), ctx).value
    assert _hex(first) == _hex([cold_ssim, cold_ms])


def test_ms_ssim_after_ssim_without_a_workspace_reuses_scale_0(monkeypatch):
    calls = _counted(monkeypatch, structural, "ssim_and_cs")
    moments = _counted(monkeypatch, structural, "_ref_moments")
    ref, test = (Image(a) for a in _pair((96, 100), 5))
    ctx = EvalContext(scales=3)
    evaluate("ssim", ref, test, ctx)
    evaluate("ms_ssim", ref, test, ctx)
    # scale 0 once, and the hit needs no scale-0 reference moments
    assert (len(calls), len(moments)) == (3, 3)


def test_writing_to_the_array_an_image_was_made_from_cannot_make_a_hit_stale():
    ref, a = _pair()
    ctx = EvalContext()
    first = evaluate("ssim", Image(ref), Image(a), ctx)
    a.flags.writeable = True
    a[:] = 0.5 * ref
    second = evaluate("ssim", Image(ref), Image(a), ctx)
    structural._PYRAMID.clear()
    cold = evaluate("ssim", Image(ref), Image(a), ctx)
    assert second.value != first.value
    assert second.value.hex() == cold.value.hex()


def test_a_failed_computation_keeps_nothing():
    test = Image(_pair()[1])
    memo = BitsMemo()
    memo.get(test, 1, lambda: "kept")

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        memo.get(test, 2, fail)
    assert memo.entry is None
    assert memo.get(test, 2, lambda: "fresh") == "fresh"


def test_threads_do_not_share_an_entry():
    test = Image(_pair()[1])
    memo = BitsMemo()
    memo.get(test, 1, lambda: "main")
    seen = []
    worker = threading.Thread(target=lambda: seen.append(
        (memo.entry, memo.get(test, 1, lambda: "worker"))))
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert seen == [(None, "worker")]
    assert memo.get(test, 1, lambda: "again") == "main"


def _held_pair():
    """The reference and test arrays the calling thread's memo holds."""
    entry = structural._PYRAMID.entry
    return entry[0], entry[2].scale0.entry[0]


def test_the_memo_holds_one_pair_at_most():
    structural._PYRAMID.clear()
    _scale0(*_pair(), 100.0)
    held = [weakref.ref(a) for a in _held_pair()]
    other = [Image(a) for a in _pair(seed=9)]
    structural._scale0(*other, 100.0)
    gc.collect()
    assert [h() for h in held] == [None, None]
    # an Image's read-only data is held as it is, not copied
    assert all(h is img.data for h, img in zip(_held_pair(), other))


def test_rect_mask_ssim_equals_a_cold_crop():
    ref, test = (Image(a) for a in _pair((200, 190), 6))
    m = np.zeros(ref.shape, dtype=bool)
    m[7:190, 5:183] = True
    masked = [masked_evaluate(k, ref, test, Mask(m)).value for k in ("ssim", "ms_ssim")]
    structural._PYRAMID.clear()
    crop_ref, crop_test = Image(ref.data[7:190, 5:183]), Image(test.data[7:190, 5:183])
    assert masked[0] == evaluate("ssim", crop_ref, crop_test).value
    structural._PYRAMID.clear()
    assert masked[1] == evaluate("ms_ssim", crop_ref, crop_test).value



def _score_panel(ref, test):
    ctx = EvalContext(scales=2)
    for metric_id in ("ssim", "ms_ssim"):
        evaluate(metric_id, ref, test, ctx)


def _weak_hold():
    """Weak references to everything the calling thread's memo holds."""
    data, _, pyramid = structural._PYRAMID.entry
    held = [data, pyramid, pyramid.scale0.entry[0], *pyramid.levels]
    for moments in pyramid.moments.values():
        held += [moments.mu, moments.sq]
    return [weakref.ref(x) for x in held]


def _freed(refs):
    gc.collect()
    return all(r() is None for r in refs)


def test_each_thread_holds_one_reference_pyramid_and_one_test():
    structural._PYRAMID.clear()
    ref, test, other_test = (Image(a) for a in (*_pair(seed=11), _pair(seed=12)[1]))
    _score_panel(ref, test)
    _score_panel(ref, other_test)
    # one reference pyramid: the reference's data and its two scales, each
    # built once; one test: the last one scored
    data, extra, pyramid = structural._PYRAMID.entry
    assert data is ref.data and extra is None and pyramid.levels[0] is ref.data
    assert len(pyramid.levels) == 2 and sorted(pyramid.moments) == [0, 1]
    assert pyramid.scale0.entry[0] is other_test.data
    old = _weak_hold()
    del data, pyramid, ref, test, other_test
    # another reference frees the previous one's data and moments
    _score_panel(*(Image(a) for a in _pair(seed=13)))
    assert _freed(old)
    # clear() frees everything
    new = _weak_hold()
    structural._PYRAMID.clear()
    assert _freed(new) and structural._PYRAMID.entry is None
    # threads never share an entry
    main_pair = [Image(a) for a in _pair(seed=14)]
    _score_panel(*main_pair)
    main_entry = structural._PYRAMID.entry
    seen = []

    def work():
        seen.append(structural._PYRAMID.entry)
        _score_panel(*(Image(a) for a in _pair(seed=15)))
        seen.append(structural._PYRAMID.entry[0].copy())

    worker = threading.Thread(target=work)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert seen[0] is None and np.array_equal(seen[1], _pair(seed=15)[0])
    assert structural._PYRAMID.entry is main_entry
