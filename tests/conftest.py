import os

import numpy as np
import pytest

from refmet.phantom import PhantomParams, generate_phantom

ACCEPTANCE_SEED = 1000
ACCEPTANCE_COUNT = 20


@pytest.fixture(scope="session")
def phantoms():
    """The 20 phantoms (192x192, lower-half tumor) the acceptance suite uses."""
    return [generate_phantom(ACCEPTANCE_SEED + i, PhantomParams())
            for i in range(ACCEPTANCE_COUNT)]


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


@pytest.fixture(scope="session")
def ndimage():
    """``scipy.ndimage``, an independent oracle for refmet's own kernels.
    refmet needs only numpy, so tests that use it skip without scipy."""
    return pytest.importorskip("scipy.ndimage")


@pytest.fixture()
def two_cpus(monkeypatch):
    """cw_ssim's worker path, whatever the CPUs of this machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
