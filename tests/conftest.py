import numpy as np
import pytest
from scipy.fft import fftn, ifftn

from csvortex.fields import GridDomain


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def torus64():
    return GridDomain.torus(2.0 * np.pi, 2.0 * np.pi, 64, 64)


@pytest.fixture
def box32():
    return GridDomain.box(6.0, 32)


def full_k2(domain):
    """|k|² on the full torus spectrum, shape (n1, n2): the reference grid."""
    kx = 2.0 * np.pi * np.fft.fftfreq(domain.n1, d=domain.h1)
    ky = 2.0 * np.pi * np.fft.fftfreq(domain.n2, d=domain.h2)
    return kx[:, None] ** 2 + ky[None, :] ** 2


def smooth_random(domain, rng, amp=0.5, mean_zero=True):
    """Band-limited random field: spectrally smoothed white noise."""
    arr = rng.standard_normal(domain.shape)
    if domain.kind == "torus":
        arr = np.real(ifftn(fftn(arr) * np.exp(-full_k2(domain))))
    else:
        from scipy.ndimage import gaussian_filter

        arr = gaussian_filter(arr, sigma=2.0, mode="constant")
        # taper to zero at the walls so the state respects the boundary data
        n1, n2 = domain.shape
        wx = np.sin(np.pi * (np.arange(n1) + 0.5) / n1)
        wy = np.sin(np.pi * (np.arange(n2) + 0.5) / n2)
        arr = arr * wx[:, None] * wy[None, :]
    if mean_zero and domain.kind == "torus":
        arr -= arr.mean()
    return amp * arr / max(np.max(np.abs(arr)), 1e-30)
