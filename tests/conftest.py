import numpy as np
import pytest

from nlostrack import AcquisitionParams
from nlostrack.studies import DEFAULT_GRID, corner_scene


def same_histogram(a, b) -> bool:
    """Whether two histograms hold the same counts and the same four metadata fields.

    Histograms compare by identity, so the tests compare their contents here.
    """
    return (np.array_equal(a.counts, b.counts)
            and (a.bin_width_s, a.t0_offset_s, a.pixel_index, a.acq_time_s)
            == (b.bin_width_s, b.t0_offset_s, b.pixel_index, b.acq_time_s))


@pytest.fixture
def default_grid():
    return DEFAULT_GRID


@pytest.fixture
def one_person_scene():
    return corner_scene([(0.6, 1.2)])


@pytest.fixture
def quiet_params():
    """No dark or ambient noise; strong return."""
    return AcquisitionParams(dark_rate_hz=0.0, system_throughput=1.0e6, rng_seed=0)
