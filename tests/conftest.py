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
