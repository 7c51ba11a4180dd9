import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlostrack import SPEED_OF_LIGHT, HiddenObject, Point3, Scene, path_length, tof

coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)
points = st.builds(Point3, coord, coord, coord)


class TestPathLength:
    def test_coincident_foci(self):
        # both bounce legs identical: 2 * |r_o|
        assert path_length(Point3(0, 0, 0), Point3(3, 4, 0), Point3(0, 0, 0)) == 10.0

    def test_two_leg_value(self):
        got = path_length(Point3(0, 0, 1), Point3(0.5, 2, 1), Point3(1, 0, 1))
        assert got == pytest.approx(2.0 * math.sqrt(4.25), rel=1e-12)
        assert got == pytest.approx(4.1231, abs=5e-5)

    def test_object_on_focus(self):
        r_l, r_i = Point3(0, 0, 0), Point3(2, 0, 0)
        assert path_length(r_l, r_l, r_i) == r_l.distance_to(r_i)

    @given(points, points, points)
    @settings(max_examples=200)
    def test_symmetry_exact(self, r_l, r_o, r_i):
        assert path_length(r_l, r_o, r_i) == path_length(r_i, r_o, r_l)

    @given(points, points, points)
    @settings(max_examples=200)
    def test_triangle_bound(self, r_l, r_o, r_i):
        assert path_length(r_l, r_o, r_i) >= r_l.distance_to(r_i) - 1e-12


class TestTof:
    def test_ten_meter_path(self):
        t = tof(Point3(0, 0, 0), Point3(3, 4, 0), Point3(0, 0, 0))
        assert t == pytest.approx(10.0 / SPEED_OF_LIGHT, rel=1e-12)
        assert t == pytest.approx(33.356e-9, abs=5e-13)

    def test_two_leg_value(self):
        t = tof(Point3(0, 0, 1), Point3(0.5, 2, 1), Point3(1, 0, 1))
        assert t == pytest.approx(13.753e-9, abs=5e-13)

    def test_homogeneity(self):
        origin = Point3(0, 0, 0)
        t1 = tof(origin, Point3(1.0, 2.0, 0.5), origin)
        t2 = tof(origin, Point3(2.0, 4.0, 1.0), origin)
        assert t2 == pytest.approx(2.0 * t1, rel=1e-12)

    @given(points, points, points)
    @settings(max_examples=200)
    def test_times_c_is_path(self, r_l, r_o, r_i):
        assert tof(r_l, r_o, r_i) * SPEED_OF_LIGHT == pytest.approx(
            path_length(r_l, r_o, r_i), rel=1e-12
        )


class TestTypes:
    def test_point_requires_finite(self):
        with pytest.raises(ValueError):
            Point3(float("nan"), 0, 0)
        with pytest.raises(ValueError):
            Point3(0, float("inf"), 0)

    def test_reflectivity_nonnegative(self):
        with pytest.raises(ValueError):
            HiddenObject(Point3(0, 1, 0), reflectivity=-0.1)

    def test_scene_rejects_duplicate_pixels(self):
        with pytest.raises(ValueError, match="pairwise distinct"):
            Scene(
                laser_spot=Point3(0, 0, 1),
                pixels=(Point3(1, 0, 1), Point3(1, 0, 1)),
            )

    def test_scene_rejects_pixel_on_laser(self):
        with pytest.raises(ValueError, match="pairwise distinct"):
            Scene(laser_spot=Point3(0, 0, 1), pixels=(Point3(0, 0, 1),))

    def test_scene_needs_a_pixel(self):
        with pytest.raises(ValueError, match="^scene needs at least one detector pixel$"):
            Scene(laser_spot=Point3(0, 0, 1), pixels=())

    def test_scene_rejects_two_component_normal(self):
        with pytest.raises(ValueError, match="^wall_normal must have three components$"):
            Scene(laser_spot=Point3(0, 0, 1), pixels=(Point3(1, 0, 1),), wall_normal=(0.0, 1.0))

    def test_scene_rejects_non_unit_normal(self):
        with pytest.raises(ValueError, match="unit length"):
            Scene(
                laser_spot=Point3(0, 0, 1),
                pixels=(Point3(1, 0, 1),),
                wall_normal=(0.0, 1.0 + 1e-6, 0.0),
            )

    @pytest.mark.parametrize("normal", [(math.nan, 1.0, 0.0), (0.0, 1.0, math.inf)])
    def test_scene_rejects_non_finite_normal(self, normal):
        # A nan component fails every comparison, the unit-length test's too.
        with pytest.raises(ValueError, match=r"wall_normal must be finite, got \("):
            Scene(laser_spot=Point3(0, 0, 1), pixels=(Point3(1, 0, 1),), wall_normal=normal)

    def test_scene_rejects_bad_standoff(self):
        with pytest.raises(ValueError, match="standoff"):
            Scene(laser_spot=Point3(0, 0, 1), pixels=(Point3(1, 0, 1),), standoff_m=0.0)
