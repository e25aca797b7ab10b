"""Coordinate conventions and basic geometry containers.

Spherical coordinates follow the physics convention: colatitude theta is
measured from the +z axis downwards, azimuth phi from +x towards +y.
All angles in radians, all lengths in meters.
"""

import numpy as np
from dataclasses import dataclass

SPEED_OF_SOUND = 343.0  # m/s, dry air at ~20 C; simulation and design share it

TWO_PI = 2.0 * np.pi


def wavenumbers(frequencies):
    """k = 2 pi f / c per frequency, c = SPEED_OF_SOUND."""
    return TWO_PI * frequencies / SPEED_OF_SOUND


@dataclass(frozen=True)
class Direction:
    """A point on the unit sphere (colatitude, azimuth)."""

    colatitude: float
    azimuth: float

    def __post_init__(self):
        if not (0.0 <= self.colatitude <= np.pi):
            raise ValueError(f"colatitude {self.colatitude} outside [0, pi]")
        # normalize azimuth into [0, 2pi)
        object.__setattr__(self, "azimuth", float(np.mod(self.azimuth, TWO_PI)))
        object.__setattr__(self, "colatitude", float(self.colatitude))


def sph_to_cart(r, d):
    """Spherical (r, Direction) to Cartesian (x, y, z).

    x = r sin(theta) cos(phi), y = r sin(theta) sin(phi), z = r cos(theta).
    """
    if r < 0:
        raise ValueError("radius must be non-negative")
    st = np.sin(d.colatitude)
    return (
        r * st * np.cos(d.azimuth),
        r * st * np.sin(d.azimuth),
        r * np.cos(d.colatitude),
    )


def directions_to_arrays(directions):
    """Stack a Direction list into (colatitudes, azimuths) float arrays."""
    th = np.array([d.colatitude for d in directions], dtype=float)
    ph = np.array([d.azimuth for d in directions], dtype=float)
    return th, ph


@dataclass(frozen=True)
class ArrayGeometry:
    """Microphone layout: (radius, Direction) per mic, relative to the array
    center, plus the center position in the room frame."""

    mics: tuple
    center_position: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if len(self.mics) == 0:
            raise ValueError("array needs at least one microphone")
        for r, d in self.mics:
            if r <= 0:
                raise ValueError("microphone radius must be positive")
            if not isinstance(d, Direction):
                raise ValueError("microphone direction must be a Direction")
        object.__setattr__(self, "mics", tuple((float(r), d) for r, d in self.mics))
        object.__setattr__(
            self, "center_position", tuple(float(v) for v in self.center_position)
        )

    @property
    def num_mics(self):
        return len(self.mics)

    def local_positions(self):
        """Mic positions relative to the array center, shape (M, 3)."""
        return np.array([sph_to_cart(r, d) for r, d in self.mics])

    def room_positions(self):
        return self.local_positions() + np.asarray(self.center_position)


def semicircle_array(num_mics, radius, center_position=(0.0, 0.0, 0.0)):
    """Horizontal semicircular layout, azimuths from pi down to 0.

    phi_m = pi - pi*(m-1)/(M-1) for m = 1..M, all at colatitude pi/2.
    A single mic sits at phi = pi.
    """
    if num_mics < 1:
        raise ValueError("num_mics must be >= 1")
    if num_mics == 1:
        phis = [np.pi]
    else:
        phis = [np.pi - np.pi * m / (num_mics - 1) for m in range(num_mics)]
    mics = tuple((radius, Direction(np.pi / 2, p)) for p in phis)
    return ArrayGeometry(mics=mics, center_position=center_position)
