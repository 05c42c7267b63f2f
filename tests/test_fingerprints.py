"""Every registered metric's parameter fingerprint, pinned as a literal. The
SSIM window and constants, the CW-SSIM filter bank and the histogram range
are fixed settings that reach the output only through these strings, so a
changed constant or a changed way of printing one shows here."""

import pytest

from refmet.distort import gamma_transform, linear_scale
from refmet.metrics import METRIC_IDS, evaluate
from refmet.phantom import generate_phantom

FINGERPRINTS = {
    "mae": "",
    "mse": "",
    "psnr": "data_range=1.2;range_policy=joint",
    "pcc": "",
    "mi": "bins=256;hist_range=per_image",
    "nmi": "bins=256;hist_range=per_image",
    "ssim": ("data_range=1.2;k1=0.01;k2=0.03;range_policy=joint;"
             "window=gaussian(radius=5,sigma=1.5)"),
    "ms_ssim": ("data_range=1.2;downsample=mean2;k1=0.01;k2=0.03;range_policy=joint;"
                "scales=5;weights=0.0448,0.2856,0.3001,0.2363,0.1333;"
                "window=gaussian(radius=5,sigma=1.5)"),
    "cw_ssim": "k=0.03;levels=2;neighborhood=7;orientations=6",
    "dice": "connectivity=face;min_component_size=20;threshold_rel=0.94",
}


@pytest.fixture(scope="module")
def pair():
    ref = generate_phantom(1000).image
    return ref, linear_scale(gamma_transform(ref, 0.4), 1.2)


def test_every_registered_metric_is_pinned():
    assert sorted(METRIC_IDS) == sorted(FINGERPRINTS)


@pytest.mark.parametrize("metric_id", sorted(FINGERPRINTS))
def test_default_fingerprint(pair, metric_id):
    assert evaluate(metric_id, *pair).params_fingerprint == FINGERPRINTS[metric_id]
