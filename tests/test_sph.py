"""Spherical harmonics, the spiral grid and plane-wave steering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsmrender.geometry import SPEED_OF_SOUND, Direction, semicircle_array
from bsmrender.sph import (
    SH_BLOCK_DIRECTIONS,
    num_coeffs,
    sh_degrees,
    sh_matrix,
    spiral_grid,
    steering_tensor,
)
from bsmrender.stft import StftConfig
from oracles import assert_bits_equal, sh_basis, sh_matrix_loop, \
    sh_matrix_one_call, steering_matrix, steering_vector, steering_vector_sh, \
    unit_vector

STFT = StftConfig(48000, 2048, 1024)


def test_num_coeffs_and_degrees():
    assert num_coeffs(0) == 1
    assert num_coeffs(4) == 25
    n, m = sh_degrees(2)
    np.testing.assert_array_equal(n, [0, 1, 1, 1, 2, 2, 2, 2, 2])
    np.testing.assert_array_equal(m, [0, -1, 0, 1, -2, -1, 0, 1, 2])


def test_sh_order_zero_is_constant():
    for d in spiral_grid(20):
        np.testing.assert_allclose(sh_basis(0, d)[0],
                                   1.0 / np.sqrt(4 * np.pi), atol=1e-14)


def test_sh_degree_one_pole():
    # Y_1^0 at the pole is sqrt(3/(4 pi)); the |m|=1 terms vanish there
    y = sh_basis(1, Direction(0.0, 0.0))
    np.testing.assert_allclose(y[2], np.sqrt(3.0 / (4 * np.pi)), atol=1e-14)
    np.testing.assert_allclose(y[[1, 3]], 0.0, atol=1e-14)


def test_sh_addition_theorem():
    # sum_m Y_nm(a) conj(Y_nm(b)) = (2n+1)/(4 pi) P_n(cos gamma)
    from numpy.polynomial import legendre

    rng = np.random.default_rng(3)
    a = Direction(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
    b = Direction(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
    ya, yb = sh_basis(3, a), sh_basis(3, b)
    cos_gamma = float(unit_vector(a) @ unit_vector(b))
    n_idx, _ = sh_degrees(3)
    for n in range(4):
        sel = n_idx == n
        got = np.sum(ya[sel] * np.conj(yb[sel]))
        coef = np.zeros(n + 1)
        coef[n] = 1.0
        want = (2 * n + 1) / (4 * np.pi) * legendre.legval(cos_gamma, coef)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_sh_matrix_orthonormality():
    # quasi-uniform quadrature: (4 pi / L) Y^H Y approaches identity
    order = 6
    dirs = spiral_grid(3000)
    y = sh_matrix(order, dirs)
    gram = (4 * np.pi / len(dirs)) * (y.conj().T @ y)
    np.testing.assert_allclose(gram, np.eye(num_coeffs(order)), atol=1e-2)
    # off-diagonal leakage well below the diagonal
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() < 1e-2


def test_sh_matrix_accepts_arrays_and_directions():
    dirs = spiral_grid(10)
    th = np.array([d.colatitude for d in dirs])
    ph = np.array([d.azimuth for d in dirs])
    np.testing.assert_array_equal(sh_matrix(3, dirs), sh_matrix(3, (th, ph)))
    with pytest.raises(ValueError):
        sh_matrix(-1, dirs)
    # two Directions, as a list or a tuple, are two rows
    pair = dirs[:2]
    assert sh_matrix(3, tuple(pair)).shape == (2, 16)
    np.testing.assert_array_equal(sh_matrix(3, tuple(pair)),
                                  sh_matrix(3, (th[:2], ph[:2])))


# poles, both ends of the azimuth range and an equatorial point
EDGE_THETA = np.array([0.0, np.pi, 0.0, np.pi, np.pi / 2, 1e-300, np.pi / 2])
EDGE_PHI = np.array([0.0, 0.0, np.nextafter(2 * np.pi, 0), 1.0, 0.0, 0.5,
                     np.nextafter(2 * np.pi, 0)])


@pytest.mark.parametrize("order", range(31))
def test_sh_matrix_bitwise_equals_per_degree_loop(order):
    dirs = spiral_grid(40)
    th = np.concatenate([[d.colatitude for d in dirs], EDGE_THETA])
    ph = np.concatenate([[d.azimuth for d in dirs], EDGE_PHI])
    got = sh_matrix(order, (th, ph))
    assert got.flags.c_contiguous
    assert_bits_equal(got, sh_matrix_loop(order, th, ph))


@settings(max_examples=60)
@given(st.integers(0, 30),
       st.lists(st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi,
                                                           exclude_max=True)),
                min_size=1, max_size=12))
def test_sh_matrix_bitwise_on_drawn_directions(order, angles):
    th = np.concatenate([EDGE_THETA, [a[0] for a in angles]])
    ph = np.concatenate([EDGE_PHI, [a[1] for a in angles]])
    assert_bits_equal(sh_matrix(order, (th, ph)), sh_matrix_loop(order, th, ph))


@pytest.mark.parametrize("count", [1, 2, SH_BLOCK_DIRECTIONS - 1,
                                   SH_BLOCK_DIRECTIONS,
                                   SH_BLOCK_DIRECTIONS + 1, 300])
def test_sh_matrix_blocks_bitwise_equal_one_call(count):
    # the blocked build writes every block into one array; its bits are
    # those of a single sph_harm_y_all call over all directions
    dirs = spiral_grid(count)
    th = np.array([d.colatitude for d in dirs])
    ph = np.array([d.azimuth for d in dirs])
    want = sh_matrix_one_call(12, th, ph)
    got = sh_matrix(12, dirs)
    assert got.flags.c_contiguous
    assert_bits_equal(got, want)
    assert_bits_equal(sh_matrix(12, (th, ph)), want)


def test_sh_matrix_of_no_directions_is_empty():
    assert sh_matrix(3, []).shape == (0, 16)


def test_spiral_grid_single_point_on_equator():
    (d,) = spiral_grid(1)
    np.testing.assert_allclose(d.colatitude, np.pi / 2)


def test_spiral_grid_balance_and_spacing():
    pts = np.array([unit_vector(d) for d in spiral_grid(200)])
    # centroid near the origin for a quasi-uniform covering
    assert np.abs(pts.mean(axis=0)).max() < 0.02
    dots = pts @ pts.T
    np.fill_diagonal(dots, -1.0)
    min_dist = np.arccos(np.clip(dots.max(), -1, 1))
    # nearest neighbours no closer than ~60% of the uniform spacing
    assert min_dist > 0.6 * np.sqrt(4 * np.pi / 200)
    with pytest.raises(ValueError):
        spiral_grid(0)


def test_steering_dc_is_ones():
    geom = semicircle_array(6, 0.07)
    v = steering_vector(0.0, geom, Direction(np.pi / 2, 0.3))
    np.testing.assert_array_equal(v, np.ones(6))


def test_steering_half_wavelength_flip():
    # mic displaced half a wavelength towards the source: phase pi
    geom = semicircle_array(1, 0.5, (0, 0, 0))  # single mic at phi = pi
    doa = Direction(np.pi / 2, np.pi)
    f = SPEED_OF_SOUND / 1.0  # k r = pi when r = lambda/2
    v = steering_vector(f, geom, doa)
    np.testing.assert_allclose(v[0], -1.0, atol=1e-12)


def test_steering_matrix_and_tensor_consistency():
    geom = semicircle_array(6, 0.07)
    doas = spiral_grid(12)
    f = float(STFT.bin_frequencies()[200])
    mat = steering_matrix(f, geom, doas)
    assert mat.shape == (6, 12)
    np.testing.assert_allclose(np.abs(mat), 1.0, atol=1e-13)
    for j, d in enumerate(doas):
        np.testing.assert_allclose(mat[:, j],
                                   steering_vector(f, geom, d),
                                   atol=1e-13)
    tensor = steering_tensor(STFT, geom, doas)
    assert tensor.shape == (STFT.num_bins, 6, 12)
    np.testing.assert_allclose(tensor[200], mat, atol=1e-12)
    with pytest.raises(ValueError):
        steering_tensor(STFT, geom, [])


def test_steering_matrix_full_rank_on_distinct_mics():
    geom = semicircle_array(6, 0.07)
    doas = spiral_grid(40)
    mat = steering_matrix(4000.0, geom, doas)
    assert np.linalg.matrix_rank(mat) == 6


def test_steering_sh_matches_closed_form():
    # truncated SH expansion of the plane-wave phase reproduces exp(ik r.u)
    geom = semicircle_array(6, 0.07)
    doa = Direction(1.1, 0.8)
    v_exact = steering_vector(4000.0, geom, doa)
    v_sh = steering_vector_sh(4000.0, geom, doa, pad=10)
    np.testing.assert_allclose(v_sh, v_exact, atol=1e-6)


def test_steering_deterministic():
    geom = semicircle_array(6, 0.07)
    doas = spiral_grid(30)
    a = steering_tensor(STFT, geom, doas)
    b = steering_tensor(STFT, geom, doas)
    np.testing.assert_array_equal(a, b)
