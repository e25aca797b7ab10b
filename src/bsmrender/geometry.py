"""Coordinate conventions, directions and array layouts.

Spherical coordinates follow the physics convention: colatitude theta is
measured from the +z axis downwards, azimuth phi from +x towards +y.
All angles in radians, all lengths in meters. A set of directions is a
float (D, 2) array of (colatitude, azimuth) rows.
"""

import numpy as np

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


def semicircle_array(num_mics, radius):
    """Mic positions (num_mics, 3) relative to the array center of a
    horizontal semicircular layout, azimuths from pi down to 0.

    phi_m = pi - pi*(m-1)/(M-1) for m = 1..M, all at colatitude pi/2.
    A single mic sits at phi = pi.
    """
    phis = np.pi - np.pi * np.arange(num_mics) / max(num_mics - 1, 1)
    return sph_to_cart(
        np.stack(np.broadcast_arrays(float(radius), np.pi / 2, phis), axis=1))
