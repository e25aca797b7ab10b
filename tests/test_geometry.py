"""Coordinate conventions, direction rows, array layouts and the wavenumber
rule."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsmrender.containers import ContainerError, load_hrtf, save_hrtf
from bsmrender.geometry import (
    SPEED_OF_SOUND,
    TWO_PI,
    ArrayGeometry,
    as_directions,
    semicircle_array,
    sph_to_cart,
    wavenumbers,
)
from bsmrender.stft import StftConfig
from oracles import assert_bits_equal, cart_to_sph, max_radius, unit_vector


def test_sph_to_cart_axes():
    # +z, +x, +y in the physics convention
    np.testing.assert_allclose(sph_to_cart((1.0, 0.0, 0.0)),
                               (0.0, 0.0, 1.0), atol=1e-15)
    np.testing.assert_allclose(sph_to_cart((2.0, np.pi / 2, 0.0)),
                               (2.0, 0.0, 0.0), atol=1e-15)
    np.testing.assert_allclose(sph_to_cart((1.0, np.pi / 2, np.pi / 2)),
                               (0.0, 1.0, 0.0), atol=1e-15)
    # rows of any leading shape
    rows = np.array([[1.0, 0.0, 0.0], [2.0, np.pi / 2, 0.0]])
    assert sph_to_cart(rows).shape == (2, 3)
    assert sph_to_cart(rows[None]).shape == (1, 2, 3)


def test_sph_to_cart_rejects_negative_radius():
    with pytest.raises(ValueError):
        sph_to_cart((-0.1, 0.0, 0.0))


def test_cart_sph_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = rng.uniform(-1.0, 1.0, 3)
        r, d = cart_to_sph(p)
        np.testing.assert_allclose(sph_to_cart((r, *d)), p, atol=1e-12)


def test_cart_to_sph_origin():
    r, d = cart_to_sph((0.0, 0.0, 0.0))
    assert r == 0.0
    assert tuple(d) == (0.0, 0.0)


def test_unit_vector_matches_sph_to_cart():
    d = np.array([0.7, 2.1])
    np.testing.assert_allclose(unit_vector(d), sph_to_cart((1.0, *d)), atol=0)


_COLATITUDES = st.floats(0.0, np.pi)
_AZIMUTHS = st.floats(0.0, TWO_PI, exclude_max=True)
_FINITE = st.floats(-1e6, 1e6)
# every value that is not a colatitude: NaN, the infinities and finite
# values on either side of [0, pi]
_NOT_COLATITUDE = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf]),
    st.floats(max_value=0.0, exclude_max=True, allow_infinity=False),
    st.floats(min_value=np.pi, exclude_min=True, allow_infinity=False))


@settings(max_examples=200)
@given(st.lists(st.tuples(_COLATITUDES, _AZIMUTHS), min_size=1, max_size=8))
def test_as_directions_keeps_in_range_rows_bitwise(rows):
    want = np.array(rows, dtype=float)
    got = as_directions(rows)
    assert_bits_equal(got, want)
    # a checked copy: the caller's array is not the result
    assert not np.shares_memory(as_directions(want), want)


@settings(max_examples=200)
@given(st.lists(st.tuples(_COLATITUDES, _FINITE), min_size=1, max_size=8))
def test_as_directions_takes_azimuths_into_one_turn(rows):
    got = as_directions(rows)
    azimuths = np.array(rows)[:, 1]
    assert np.all((0.0 <= got[:, 1]) & (got[:, 1] < TWO_PI)), got
    # the same angle: a whole number of turns away, within rounding
    turns = (azimuths - got[:, 1]) / TWO_PI
    np.testing.assert_allclose(turns, np.round(turns),
                               atol=1e-9 * (1 + np.abs(turns).max()))
    assert_bits_equal(got[:, 0], np.array(rows)[:, 0])


@settings(max_examples=100)
@given(st.lists(st.tuples(_COLATITUDES, _AZIMUTHS), min_size=1, max_size=6),
       st.data())
def test_bad_direction_raises_and_fails_a_bsmh_file(rows, data):
    # one bad value anywhere: a colatitude outside [0, pi] or non-finite,
    # or a non-finite azimuth
    index = data.draw(st.integers(0, len(rows) - 1))
    if data.draw(st.booleans()):
        bad = (data.draw(_NOT_COLATITUDE), rows[index][1])
    else:
        bad = (rows[index][0], data.draw(st.sampled_from(
            [np.nan, np.inf, -np.inf])))
    rows = [*rows[:index], bad, *rows[index + 1:]]
    with pytest.raises(ValueError, match=r"non-finite direction|colatitude "
                                         r".* outside \[0, pi\]"):
        as_directions(rows)
    # save_hrtf writes the table as given; the reader refuses it
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "bad.bsmh"
        ir = np.zeros((len(rows), 4))
        save_hrtf(path, rows, ir, ir, 48000)
        with pytest.raises(ContainerError, match="invalid HRTF set"):
            load_hrtf(path, StftConfig(48000, 8, 4))


def test_as_directions_shapes():
    assert as_directions((0.5, 1.0)).shape == (1, 2)
    assert as_directions(np.zeros((3, 2))).shape == (3, 2)
    for bad in ([], [[0.1, 0.2, 0.3]], np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="rows"):
            as_directions(bad)


def test_semicircle_layout():
    # phi_m = pi - pi*(m-1)/(M-1), m = 1..M, all in the horizontal plane
    geom = semicircle_array(6, 0.07)
    assert geom.num_mics == 6
    assert geom.mics.shape == (6, 3)
    expected = [np.pi - np.pi * m / 5 for m in range(6)]
    for (r, theta, phi), want in zip(geom.mics, expected):
        assert r == 0.07
        np.testing.assert_allclose(theta, np.pi / 2)
        np.testing.assert_allclose(phi, want % (2 * np.pi), atol=1e-15)


def test_semicircle_single_mic_sits_at_pi():
    geom = semicircle_array(1, 0.1)
    np.testing.assert_allclose(geom.mics[0, 2], np.pi)
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
    with pytest.raises(ValueError, match="rows"):
        ArrayGeometry(mics=())
    with pytest.raises(ValueError, match="rows"):
        ArrayGeometry(mics=((0.1, 0.0),))
    for radius in (0.0, -0.05, np.nan, np.inf):
        with pytest.raises(ValueError, match="radius must be positive"):
            ArrayGeometry(mics=((radius, 0.0, 0.0),))
    with pytest.raises(ValueError, match="colatitude 4.0 outside"):
        ArrayGeometry(mics=((0.1, 4.0, 0.0),))
    with pytest.raises(ValueError, match="non-finite direction"):
        ArrayGeometry(mics=((0.1, 1.0, np.nan),))
    # the directions go through as_directions: azimuths into [0, 2 pi)
    geom = ArrayGeometry(mics=[(0.1, 1.0, -np.pi / 2)])
    np.testing.assert_allclose(geom.mics, [[0.1, 1.0, 1.5 * np.pi]])


def test_wavenumbers_of_stft_bins():
    freqs = StftConfig(48000, 2048, 1024).bin_frequencies()
    assert freqs.size == 1025
    assert freqs[0] == 0.0
    np.testing.assert_allclose(freqs[-1], 24000.0)
    np.testing.assert_allclose(wavenumbers(343.0), 2.0 * np.pi)
    np.testing.assert_allclose(wavenumbers(freqs),
                               2 * np.pi * freqs / SPEED_OF_SOUND)
