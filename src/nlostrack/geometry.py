"""Scene geometry: points, hidden targets, relay-wall layout, two-bounce path lengths.

Coordinate convention (fixed for the whole package): x runs parallel to the
relay wall, y points away from the wall into the hidden region, z is vertical.
The origin is wherever the scene author put it; the bundled configs use the
right-hand corner of the junction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact by definition


@dataclass(frozen=True)
class Point3:
    """A point in meters, right-handed Cartesian."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"Point3.{name} must be finite, got {v!r}")
            object.__setattr__(self, name, float(v))

    def distance_to(self, other: "Point3") -> float:
        return math.sqrt(
            (self.x - other.x) ** 2 + (self.y - other.y) ** 2 + (self.z - other.z) ** 2
        )


@dataclass(frozen=True)
class HiddenObject:
    """A point scatterer standing in for a hidden target or static clutter.

    ``reflectivity`` is a dimensionless albedo-area product relative to the
    radiometric calibration constant of the acquisition; it only scales the
    expected return rate.
    """

    position: Point3
    reflectivity: float = 1.0
    label: str = ""

    def __post_init__(self):
        if not math.isfinite(self.reflectivity) or self.reflectivity < 0:
            raise ValueError(f"reflectivity must be >= 0, got {self.reflectivity!r}")


@dataclass(frozen=True)
class Scene:
    """Relay-wall layout plus ground truth for the simulator.

    ``objects`` is ground truth and is only ever read by the forward
    simulator; the retrieval functions take the laser spot and pixel
    positions explicitly so they cannot touch it.
    """

    laser_spot: Point3
    pixels: tuple[Point3, ...]
    objects: tuple[HiddenObject, ...] = ()
    background_scatterers: tuple[HiddenObject, ...] = ()
    wall_normal: tuple[float, float, float] = (0.0, 1.0, 0.0)
    standoff_m: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "pixels", tuple(self.pixels))
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "background_scatterers", tuple(self.background_scatterers))
        object.__setattr__(self, "wall_normal", tuple(float(v) for v in self.wall_normal))
        if len(self.pixels) < 1:
            raise ValueError("scene needs at least one detector pixel")
        spots = [self.laser_spot] + list(self.pixels)
        for i in range(len(spots)):
            for j in range(i + 1, len(spots)):
                if spots[i] == spots[j]:
                    what = "laser spot" if i == 0 else f"pixel {i - 1}"
                    raise ValueError(
                        f"wall spots must be pairwise distinct: {what} coincides with pixel {j - 1}"
                    )
        if len(self.wall_normal) != 3:
            raise ValueError("wall_normal must have three components")
        if not all(map(math.isfinite, self.wall_normal)):
            # A nan component would pass the unit-length test below.
            raise ValueError(f"wall_normal must be finite, got {self.wall_normal!r}")
        norm = math.sqrt(sum(v * v for v in self.wall_normal))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"wall_normal must be unit length within 1e-9, |n|={norm!r}")
        if not (math.isfinite(self.standoff_m) and self.standoff_m > 0):
            raise ValueError(f"standoff_m must be > 0, got {self.standoff_m!r}")

    @property
    def num_pixels(self) -> int:
        return len(self.pixels)


def path_length(r_l: Point3, r_o: Point3, r_i: Point3) -> float:
    """Two-bounce path |r_o - r_l| + |r_o - r_i| in meters."""
    return r_o.distance_to(r_l) + r_o.distance_to(r_i)


def tof(r_l: Point3, r_o: Point3, r_i: Point3) -> float:
    """Time of flight of the two-bounce path, in seconds."""
    return path_length(r_l, r_o, r_i) / SPEED_OF_LIGHT
