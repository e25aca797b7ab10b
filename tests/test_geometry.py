"""Coordinate conventions, array layouts and the wavenumber rule."""

import numpy as np
import pytest

from bsmrender.geometry import (
    SPEED_OF_SOUND,
    ArrayGeometry,
    Direction,
    directions_to_arrays,
    semicircle_array,
    sph_to_cart,
    wavenumbers,
)
from bsmrender.stft import StftConfig
from oracles import cart_to_sph, max_radius, unit_vector


def test_sph_to_cart_axes():
    # +z, +x, +y in the physics convention
    np.testing.assert_allclose(sph_to_cart(1.0, Direction(0.0, 0.0)),
                               (0.0, 0.0, 1.0), atol=1e-15)
    np.testing.assert_allclose(sph_to_cart(2.0, Direction(np.pi / 2, 0.0)),
                               (2.0, 0.0, 0.0), atol=1e-15)
    np.testing.assert_allclose(sph_to_cart(1.0, Direction(np.pi / 2, np.pi / 2)),
                               (0.0, 1.0, 0.0), atol=1e-15)


def test_sph_to_cart_rejects_negative_radius():
    with pytest.raises(ValueError):
        sph_to_cart(-0.1, Direction(0.0, 0.0))


def test_cart_sph_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = rng.uniform(-1.0, 1.0, 3)
        r, d = cart_to_sph(p)
        np.testing.assert_allclose(sph_to_cart(r, d), p, atol=1e-12)


def test_cart_to_sph_origin():
    r, d = cart_to_sph((0.0, 0.0, 0.0))
    assert r == 0.0
    assert d.colatitude == 0.0 and d.azimuth == 0.0


def test_direction_normalizes_azimuth():
    d = Direction(1.0, -np.pi / 2)
    np.testing.assert_allclose(d.azimuth, 1.5 * np.pi)
    with pytest.raises(ValueError):
        Direction(-0.1, 0.0)
    with pytest.raises(ValueError):
        Direction(np.pi + 0.1, 0.0)


def test_unit_vector_matches_sph_to_cart():
    d = Direction(0.7, 2.1)
    np.testing.assert_allclose(unit_vector(d), sph_to_cart(1.0, d), atol=0)


def test_directions_to_arrays():
    ds = [Direction(0.1, 0.2), Direction(1.0, 2.0)]
    th, ph = directions_to_arrays(ds)
    np.testing.assert_allclose(th, [0.1, 1.0])
    np.testing.assert_allclose(ph, [0.2, 2.0])


def test_semicircle_layout():
    # phi_m = pi - pi*(m-1)/(M-1), m = 1..M, all in the horizontal plane
    geom = semicircle_array(6, 0.07)
    assert geom.num_mics == 6
    expected = [np.pi - np.pi * m / 5 for m in range(6)]
    for (r, d), phi in zip(geom.mics, expected):
        assert r == 0.07
        np.testing.assert_allclose(d.colatitude, np.pi / 2)
        np.testing.assert_allclose(d.azimuth, phi % (2 * np.pi), atol=1e-15)


def test_semicircle_single_mic_sits_at_pi():
    geom = semicircle_array(1, 0.1)
    np.testing.assert_allclose(geom.mics[0][1].azimuth, np.pi)
    with pytest.raises(ValueError):
        semicircle_array(0, 0.1)


def test_room_positions_offset_by_center():
    center = (1.0, 2.0, 3.0)
    geom = semicircle_array(4, 0.5, center)
    np.testing.assert_allclose(geom.room_positions(),
                               geom.local_positions() + np.array(center))
    # every mic on the requested ring
    np.testing.assert_allclose(np.linalg.norm(geom.local_positions(), axis=1),
                               0.5)
    assert max_radius(geom) == 0.5


def test_array_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(mics=())
    with pytest.raises(ValueError):
        ArrayGeometry(mics=((0.0, Direction(0.0, 0.0)),))
    with pytest.raises(ValueError):
        ArrayGeometry(mics=((0.1, (0.0, 0.0)),))


def test_wavenumbers_of_stft_bins():
    freqs = StftConfig(48000, 2048, 1024).bin_frequencies()
    assert freqs.size == 1025
    assert freqs[0] == 0.0
    np.testing.assert_allclose(freqs[-1], 24000.0)
    np.testing.assert_allclose(wavenumbers(343.0), 2.0 * np.pi)
    np.testing.assert_allclose(wavenumbers(freqs),
                               2 * np.pi * freqs / SPEED_OF_SOUND)
