import os
import subprocess
import sys

import numpy as np
import pytest

from nlostrack import _kernels


def test_backend_reports_name():
    assert _kernels.active_backend() in ("numba", "numpy")


def test_env_flag_forces_numpy_backend():
    env = dict(os.environ, NLOSTRACK_NO_NUMBA="1")
    out = subprocess.run(
        [sys.executable, "-c", "import nlostrack; print(nlostrack.active_backend())"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "numpy"


class TestGaussianMass:
    def test_total_mass_conserved(self):
        out = np.zeros(6250)
        _kernels.add_gaussian_mass(out, 4e-12, 12.0e-9, 120e-12, 750.0)
        assert out.sum() == pytest.approx(750.0, rel=1e-12)

    def test_zero_sigma_single_bin(self):
        out = np.zeros(1000)
        _kernels.add_gaussian_mass(out, 4e-12, 500.5 * 4e-12, 0.0, 42.0)
        assert out[500] == 42.0
        assert out.sum() == 42.0

    def test_wraps_across_period_edge(self):
        out = np.zeros(6250)
        window = 6250 * 4e-12
        _kernels.add_gaussian_mass(out, 4e-12, window - 100e-12, 120e-12, 100.0)
        assert out.sum() == pytest.approx(100.0, rel=1e-12)
        assert out[:200].sum() > 5.0  # tail folded onto the start
        assert out[-200:].sum() > 50.0

    @pytest.mark.skipif(not _kernels.HAVE_NUMBA, reason="numba backend not active")
    def test_backend_parity(self):
        a = np.zeros(6250)
        b = np.zeros(6250)
        for mu, sigma, total in [(1e-9, 120e-12, 10.0), (24.9e-9, 300e-12, 5.0), (0.0, 50e-12, 1.0)]:
            _kernels._gaussian_mass_numpy(a, 4e-12, mu, sigma, total)
            _kernels._gaussian_mass_numba(b, 4e-12, mu, sigma, total)
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-300)
