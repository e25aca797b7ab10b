"""Spherical harmonics, the spiral grid and plane-wave steering."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from bsmrender.geometry import SPEED_OF_SOUND, as_directions, semicircle_array
from bsmrender.sph import (
    _legendre,
    num_coeffs,
    sh_matrix,
    spiral_grid,
    steering_tensor,
)
from bsmrender.stft import StftConfig
from oracles import assert_bits_equal, sh_basis, sh_degrees, sh_matrix_loop, \
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
    y = sh_basis(1, (0.0, 0.0))
    np.testing.assert_allclose(y[2], np.sqrt(3.0 / (4 * np.pi)), atol=1e-14)
    np.testing.assert_allclose(y[[1, 3]], 0.0, atol=1e-14)


def test_sh_addition_theorem():
    # sum_m Y_nm(a) conj(Y_nm(b)) = (2n+1)/(4 pi) P_n(cos gamma)
    from numpy.polynomial import legendre

    rng = np.random.default_rng(3)
    a = (rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
    b = (rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
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


_DIRECTION = st.tuples(st.floats(0.0, np.pi) | st.sampled_from([0.0, np.pi]),
                      st.floats(0.0, 2 * np.pi, exclude_max=True))


@settings(max_examples=60)
@given(_DIRECTION, _DIRECTION)
@example((0.0, 0.0), (np.pi, 0.0))
@example((1.0, 2.0), (1.0, 2.0))
def test_sh_addition_theorem_to_order_30(u, v):
    # sum_m conj(Y_nm(u)) Y_nm(v) = (2n+1)/(4 pi) P_n(u.v) for every
    # n <= 30: the identity that folds the point model's reference into
    # one zonal channel per degree, whose _legendre m = 0 chain at the
    # angle between u and v is sqrt((2n+1)/(4 pi)) P_n(u.v)
    y = np.conj(sh_matrix(30, [u])[0]) * sh_matrix(30, [v])[0]
    cos_gamma = float(np.clip(unit_vector(u) @ unit_vector(v), -1.0, 1.0))
    n_idx, _ = sh_degrees(30)
    got = np.bincount(n_idx, weights=y.real) \
        + 1j * np.bincount(n_idx, weights=y.imag)
    n = np.arange(31)
    want = (2 * n + 1) / (4 * np.pi) * special.eval_legendre(n, cos_gamma)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    gamma = np.array([np.arccos(cos_gamma)])
    zonal = np.array([p[0] for p in _legendre(30, 0, gamma)])
    np.testing.assert_allclose(np.sqrt((2 * n + 1) / (4 * np.pi)) * zonal,
                               want, rtol=0, atol=1e-12)


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


# poles, both ends of the azimuth range and an equatorial point
EDGE_ROWS = np.array([(0.0, 0.0), (np.pi, 0.0), (0.0, np.nextafter(2 * np.pi, 0)),
                      (np.pi, 1.0), (np.pi / 2, 0.0), (1e-300, 0.5),
                      (np.pi / 2, np.nextafter(2 * np.pi, 0))])


@pytest.mark.parametrize("order", range(31))
def test_sh_matrix_bitwise_equals_per_degree_loop(order):
    rows = np.concatenate([spiral_grid(40), EDGE_ROWS])
    got = sh_matrix(order, rows)
    assert got.flags.c_contiguous
    assert_bits_equal(got, sh_matrix_loop(order, *rows.T))


@settings(max_examples=60)
@given(st.integers(0, 30),
       st.lists(st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi,
                                                           exclude_max=True)),
                min_size=1, max_size=12))
def test_sh_matrix_bitwise_on_drawn_directions(order, angles):
    rows = np.concatenate([EDGE_ROWS, angles])
    assert_bits_equal(sh_matrix(order, rows), sh_matrix_loop(order, *rows.T))


@pytest.mark.parametrize("count", [1, 2, 255, 256, 257, 300])
def test_sh_matrix_blocks_bitwise_equal_one_call(count):
    # the bits are those of a single sph_harm_y_all call over all
    # directions, whatever their count
    dirs = spiral_grid(count)
    want = sh_matrix_one_call(12, *np.ascontiguousarray(dirs.T))
    got = sh_matrix(12, dirs)
    assert got.flags.c_contiguous
    assert_bits_equal(got, want)


@settings(max_examples=60)
@given(st.integers(0, 30),
       st.lists(st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi,
                                                           exclude_max=True)),
                min_size=1, max_size=12))
def test_sh_conjugate_symmetry(order, angles):
    # Y_(n,-m) = (-1)^m conj(Y_(n,m)); == counts +0 and -0 as equal, so
    # this holds whatever rounding scipy's oracle follows
    rows = np.concatenate([EDGE_ROWS, angles])
    y = sh_matrix(order, rows)
    n, m = sh_degrees(order)
    assert (y == np.power(-1.0, m) * np.conj(y[:, n * n + n - m])).all()


def test_sh_matrix_orthonormal_on_exact_quadrature():
    # Gauss-Legendre nodes in cos(theta) times 2 (order + 1) equispaced
    # azimuths integrate every product of two order-30 harmonics exactly
    order = 30
    x, w = np.polynomial.legendre.leggauss(order + 1)
    phi = 2 * np.pi * np.arange(2 * order + 2) / (2 * order + 2)
    rows = np.stack(np.broadcast_arrays(np.arccos(x)[:, None], phi),
                    axis=-1).reshape(-1, 2)
    weights = np.repeat(w * 2 * np.pi / phi.size, phi.size)
    y = sh_matrix(order, rows)
    gram = y.conj().T @ (weights[:, None] * y)
    assert np.abs(gram - np.eye(num_coeffs(order))).max() <= 1e-12


def test_sh_matrix_of_no_directions_is_empty():
    assert sh_matrix(3, np.empty((0, 2))).shape == (0, 16)
    # and no order below zero has harmonics
    with pytest.raises(ValueError, match="order"):
        sh_matrix(-1, spiral_grid(10))


def test_spiral_grid_single_point_on_equator():
    (d,) = spiral_grid(1)
    np.testing.assert_allclose(d[0], np.pi / 2)


def test_spiral_grid_balance_and_spacing():
    grid = spiral_grid(200)
    # (colatitude, azimuth) rows that are valid directions as they stand
    assert grid.shape == (200, 2)
    assert_bits_equal(as_directions(grid), grid)
    pts = np.array([unit_vector(d) for d in grid])
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
    v = steering_vector(0.0, geom, (np.pi / 2, 0.3))
    np.testing.assert_array_equal(v, np.ones(6))


def test_steering_half_wavelength_flip():
    # mic displaced half a wavelength towards the source: phase pi
    geom = semicircle_array(1, 0.5)  # single mic at phi = pi
    doa = (np.pi / 2, np.pi)
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
    doa = (1.1, 0.8)
    v_exact = steering_vector(4000.0, geom, doa)
    v_sh = steering_vector_sh(4000.0, geom, doa, pad=10)
    np.testing.assert_allclose(v_sh, v_exact, atol=1e-6)


def test_steering_deterministic():
    geom = semicircle_array(6, 0.07)
    doas = spiral_grid(30)
    a = steering_tensor(STFT, geom, doas)
    b = steering_tensor(STFT, geom, doas)
    np.testing.assert_array_equal(a, b)
