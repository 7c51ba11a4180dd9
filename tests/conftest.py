import pytest

from nlostrack import AcquisitionParams, GridSpec, HiddenObject, Point3, Scene


@pytest.fixture
def default_grid():
    return GridSpec(x_min=-3.0, x_max=3.0, y_min=0.0, y_max=4.0, resolution=0.02, z_plane=1.0)


@pytest.fixture
def corner_pixels():
    return (
        Point3(-0.9, 0.0, 1.0),
        Point3(-0.62, 0.0, 1.08),
        Point3(-0.38, 0.0, 0.95),
        Point3(-0.1, 0.0, 1.05),
    )


@pytest.fixture
def one_person_scene(corner_pixels):
    return Scene(
        laser_spot=Point3(-0.5, 0.0, 1.15),
        pixels=corner_pixels,
        objects=(HiddenObject(Point3(0.6, 1.2, 1.0), 3.0, "person-1"),),
        standoff_m=2.0,
    )


@pytest.fixture
def quiet_params():
    """No dark or ambient noise; strong return."""
    return AcquisitionParams(dark_rate_hz=0.0, system_throughput=1.0e6, rng_seed=0)
