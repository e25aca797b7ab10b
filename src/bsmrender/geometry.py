"""Coordinate conventions and basic geometry containers.

Spherical coordinates follow the physics convention: colatitude theta is
measured from the +z axis downwards, azimuth phi from +x towards +y.
All angles in radians, all lengths in meters. A set of directions is a
float (D, 2) array of (colatitude, azimuth) rows.
"""

import numpy as np
from dataclasses import dataclass

SPEED_OF_SOUND = 343.0  # m/s, dry air at ~20 C; simulation and design share it

TWO_PI = 2.0 * np.pi


def wavenumbers(frequencies):
    """k = 2 pi f / c per frequency, c = SPEED_OF_SOUND."""
    return TWO_PI * frequencies / SPEED_OF_SOUND


def as_directions(rows):
    """Checked copy of (colatitude, azimuth) rows as a float (D, 2) array:
    every value finite and each colatitude in [0, pi], else ValueError.
    Azimuths are taken mod 2 pi, which leaves one in [0, 2 pi) unchanged."""
    dirs = np.array(rows, dtype=float, ndmin=2)
    if dirs.ndim != 2 or dirs.shape[1] != 2:
        raise ValueError("directions must be (colatitude, azimuth) rows")
    if not np.isfinite(dirs).all():
        raise ValueError("non-finite direction")
    outside = dirs[(dirs[:, 0] < 0.0) | (dirs[:, 0] > np.pi), 0]
    if outside.size:
        raise ValueError(f"colatitude {outside[0]} outside [0, pi]")
    # a tiny negative azimuth rounds up to 2 pi, which the second mod maps to 0
    dirs[:, 1] = np.mod(np.mod(dirs[:, 1], TWO_PI), TWO_PI)
    return dirs


def sph_to_cart(rows):
    """(radius, colatitude, azimuth) rows, shape (..., 3), to Cartesian
    (x, y, z) rows of the same shape.

    x = r sin(theta) cos(phi), y = r sin(theta) sin(phi), z = r cos(theta).
    """
    r, th, ph = np.moveaxis(np.asarray(rows, dtype=float), -1, 0)
    if np.any(r < 0):
        raise ValueError("radius must be non-negative")
    st = np.sin(th)
    return np.stack([r * st * np.cos(ph), r * st * np.sin(ph),
                     r * np.cos(th)], axis=-1)


@dataclass(frozen=True, eq=False)
class ArrayGeometry:
    """Microphone layout: a (radius, colatitude, azimuth) row per mic,
    relative to the array center, plus the center's room position."""

    mics: np.ndarray
    center_position: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        mics = np.array(self.mics, dtype=float, ndmin=2)
        if mics.ndim != 2 or mics.shape[1] != 3 or mics.size == 0:
            raise ValueError("array needs one or more (radius, colatitude, "
                             "azimuth) rows")
        if not np.all((mics[:, 0] > 0) & np.isfinite(mics[:, 0])):
            raise ValueError("microphone radius must be positive and finite")
        mics[:, 1:] = as_directions(mics[:, 1:])
        object.__setattr__(self, "mics", mics)
        object.__setattr__(
            self, "center_position", tuple(float(v) for v in self.center_position)
        )

    @property
    def num_mics(self):
        return len(self.mics)

    def local_positions(self):
        """Mic positions relative to the array center, shape (M, 3)."""
        return sph_to_cart(self.mics)

    def room_positions(self):
        return self.local_positions() + np.asarray(self.center_position)


def semicircle_array(num_mics, radius, center_position=(0.0, 0.0, 0.0)):
    """Horizontal semicircular layout, azimuths from pi down to 0.

    phi_m = pi - pi*(m-1)/(M-1) for m = 1..M, all at colatitude pi/2.
    A single mic sits at phi = pi.
    """
    phis = np.pi - np.pi * np.arange(num_mics) / max(num_mics - 1, 1)
    mics = np.stack(np.broadcast_arrays(float(radius), np.pi / 2, phis), axis=1)
    return ArrayGeometry(mics=mics, center_position=center_position)
