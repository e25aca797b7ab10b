"""Ear response models, their SH expansion and the IR container."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsmrender.containers import ContainerError, load_hrtf, save_hrtf
from bsmrender.geometry import SPEED_OF_SOUND, Direction, directions_to_arrays
from bsmrender.hrtf import (
    HrtfSet,
    apply_sh_fit,
    evaluate_sh,
    flat_hrtf,
    point_receiver_hrtf,
    sh_fit_operator,
)
from bsmrender.sph import num_coeffs, sh_matrix, spiral_grid
from bsmrender.stft import StftConfig
from oracles import assert_bits_equal, sh_fit, sh_interpolate

STFT = StftConfig(48000, 512, 256)


def test_point_receiver_dc_is_unity():
    hs = point_receiver_hrtf(0.0875, STFT, spiral_grid(16))
    np.testing.assert_array_equal(hs.ears[:, :, 0], 1.0)


def test_point_receiver_quarter_wave_phase():
    # source on +y, offset 0.1 m: left ear leads by k*e = pi/2 -> response i
    offset = 0.1
    f = SPEED_OF_SOUND / (4 * offset)  # k * offset = pi/2
    # a 4-point FFT at 4 f has the bins 0, f and 2 f
    stft_cfg = StftConfig(4 * f, 4, 2)
    hs = point_receiver_hrtf(offset, stft_cfg, [Direction(np.pi / 2, np.pi / 2)])
    np.testing.assert_allclose(hs.ears[:, 0, 1], [1j, -1j], atol=1e-12)


def test_point_receiver_ears_are_conjugate():
    hs = point_receiver_hrtf(0.0875, STFT, spiral_grid(32))
    np.testing.assert_array_equal(hs.ears[1], np.conj(hs.ears[0]))
    np.testing.assert_allclose(np.abs(hs.ears[0]), 1.0, atol=1e-12)


def test_point_receiver_rejects_bad_offset():
    with pytest.raises(ValueError):
        point_receiver_hrtf(0.0, STFT, spiral_grid(4))
    with pytest.raises(ValueError):
        point_receiver_hrtf(-0.1, STFT, spiral_grid(4))


def test_flat_hrtf_is_ones():
    hs = flat_hrtf(STFT, spiral_grid(8))
    np.testing.assert_array_equal(hs.ears, 1.0)


def test_hrtf_set_validation():
    dirs = spiral_grid(4)
    good = np.ones((2, 4, STFT.num_bins), complex)
    with pytest.raises(ValueError, match="empty"):
        HrtfSet(directions=(), ears=good[:, :0], sample_rate=48000)
    for bad in (good[0], good[:1], good[:, :3], good[None]):
        with pytest.raises(ValueError, match=r"shape \(2, directions, bins\)"):
            HrtfSet(directions=tuple(dirs), ears=bad, sample_rate=48000)
    with pytest.raises(ValueError, match="non-finite"):
        HrtfSet(directions=tuple(dirs), ears=good * np.nan, sample_rate=48000)
    hs = HrtfSet(directions=tuple(dirs), ears=good, sample_rate=48000)
    assert hs.num_directions == 4 and hs.num_bins == STFT.num_bins


def test_sh_fit_reproduces_fit_grid():
    # enough coefficients for an exact interpolatory fit on the sample grid
    dirs = spiral_grid(36)
    hs = point_receiver_hrtf(0.0875, STFT, dirs)
    coeffs = sh_fit(hs, 5)  # 36 coefficients for 36 directions
    back = evaluate_sh(coeffs, dirs)
    np.testing.assert_allclose(back.ears, hs.ears, atol=1e-8)


def test_sh_fit_generalizes_to_held_out_directions():
    # the truncation order must track kr, so judge only bins below 2 kHz
    # (kr < 3.3 for the 0.0875 m offset) where order 12 is plenty
    fit_dirs = spiral_grid(400)
    test_dirs = spiral_grid(37)
    hs = point_receiver_hrtf(0.0875, STFT, fit_dirs)
    coeffs = sh_fit(hs, 12)
    got = evaluate_sh(coeffs, test_dirs)
    want = point_receiver_hrtf(0.0875, STFT, test_dirs)
    low = STFT.bin_frequencies() <= 2000.0
    np.testing.assert_allclose(got.ears[:, :, low], want.ears[:, :, low],
                               atol=1e-4)


def test_sh_fit_residual_shrinks_with_order():
    fit_dirs = spiral_grid(400)
    targets = spiral_grid(25)
    hs = point_receiver_hrtf(0.0875, STFT, fit_dirs)
    want = point_receiver_hrtf(0.0875, STFT, targets)
    low = STFT.bin_frequencies() <= 4000.0  # kr up to ~6.4
    errs = []
    for order in (2, 6, 10):
        got = evaluate_sh(sh_fit(hs, order), targets)
        errs.append(np.abs(got.ears[0, :, low] - want.ears[0, :, low]).max())
    assert errs[0] > errs[1] > errs[2]


def test_sh_fit_requires_enough_directions():
    hs = point_receiver_hrtf(0.0875, STFT, spiral_grid(8))
    with pytest.raises(ValueError):
        sh_fit(hs, 3)  # 16 coefficients, 8 directions


def test_sh_fit_on_two_directions():
    # a tuple of exactly two Directions is two directions, not a
    # (theta, phi) array pair
    dirs = spiral_grid(2)
    coeffs = sh_fit(flat_hrtf(STFT, dirs), 0)
    np.testing.assert_allclose(coeffs.ears, np.sqrt(4 * np.pi), rtol=1e-14)
    back = evaluate_sh(coeffs, tuple(dirs))
    assert back.num_directions == 2
    np.testing.assert_allclose(back.ears, 1.0, rtol=1e-14)


def _assert_rows_of_pinv(order, count, keep):
    """The leading-rows route against the first rows of np.linalg.pinv,
    within 1e-12 relative (Frobenius)."""
    dirs = spiral_grid(count)
    want = np.linalg.pinv(sh_matrix(order, dirs))[:num_coeffs(keep)]
    got = sh_fit_operator(order, dirs, keep)
    assert got.shape == want.shape
    err = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert err <= 1e-12, (order, count, keep, err)


@pytest.mark.parametrize("order, count", [(0, 2), (5, 36), (10, 150),
                                          (14, 300)])
def test_fit_operator_bitwise_equals_pinv(order, count):
    dirs = spiral_grid(count)
    pinv = np.linalg.pinv(sh_matrix(order, dirs))
    assert_bits_equal(sh_fit_operator(order, dirs), pinv)
    # a lower-order consumer gets the first rows of the same fit, through
    # the Gram matrix
    _assert_rows_of_pinv(order, count, order // 2)
    # never padded above the fit's own order
    assert_bits_equal(sh_fit_operator(order, dirs, order + 1), pinv)


@settings(max_examples=25, deadline=None)
@given(order=st.integers(0, 12), extra=st.floats(1.2, 3.0))
def test_leading_rows_match_pinv(order, extra):
    # every keep order below the fit's, on spiral grids of at least 1.2 C
    # directions (condition number below 2.5)
    count = int(np.ceil(extra * num_coeffs(order)))
    for keep in range(order):
        _assert_rows_of_pinv(order, count, keep)


def test_leading_rows_match_pinv_at_reference_size():
    # the binaural reference's 225 rows of the order-30 fit on 1 600
    # directions, as simulate forms them on both profiles
    _assert_rows_of_pinv(30, 1600, 14)


def test_leading_rows_peak_memory():
    # the Gram route holds Y once: Y, G, the solve's identity and result
    # and the product, with the Gram matrix's column-block scratch and
    # sh_matrix's per-block scratch below the rest
    order, count, keep = 30, 1600, 14
    c, rows = num_coeffs(order), num_coeffs(keep)
    dirs = spiral_grid(count)
    tracemalloc.start()
    try:
        op = sh_fit_operator(order, dirs, keep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.shape == (rows, count)
    items = count * c + c * c + (count + c) * rows
    bound = 1.1 * items * np.dtype(complex).itemsize
    assert peak <= bound, (peak, bound)


def test_fit_operator_peak_memory():
    # Y is conjugated in place and freed after its SVD, and U after its
    # scaling, so at most two (D, C) or (C, D) arrays and V^H are traced at
    # once (LAPACK's own copy of Y and its workspace are not traced); with
    # many more directions than coefficients sh_matrix's per-block scratch
    # stays below that
    order, count = 12, 1200
    c = (order + 1) ** 2
    dirs = spiral_grid(count)
    tracemalloc.start()
    try:
        op = sh_fit_operator(order, dirs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.shape == (c, count)
    bound = 1.1 * (2 * count * c + c * c) * np.dtype(complex).itemsize
    assert peak <= bound, (peak, bound)


def test_sh_fit_is_operator_applied_to_responses():
    dirs = spiral_grid(64)
    hs = point_receiver_hrtf(0.0875, STFT, dirs)
    coeffs = sh_fit(hs, 4)
    op = np.linalg.pinv(sh_matrix(4, dirs))
    assert coeffs.order == 4
    assert_bits_equal(coeffs.ears[0], op @ hs.ears[0])
    assert_bits_equal(coeffs.ears[1], op @ hs.ears[1])
    with pytest.raises(ValueError, match="direction count"):
        apply_sh_fit(op, point_receiver_hrtf(0.0875, STFT, spiral_grid(65)))


def test_rank_deficient_grid_is_refused():
    # 16 equator directions outnumber the 9 coefficients of order 2, but
    # the harmonics odd in z vanish there: rank 5, not a fit
    equator = [Direction(np.pi / 2, 2 * np.pi * k / 16) for k in range(16)]
    for fit in (lambda: sh_fit_operator(2, equator),
                lambda: sh_fit(flat_hrtf(STFT, equator), 2)):
        with pytest.raises(ValueError, match="order 2 is rank deficient.*"
                                             "rank 5 of 9 coefficients"):
            fit()
    # order 1 on the same grid still misses Y_1^0
    with pytest.raises(ValueError, match="rank 3 of 4"):
        sh_fit_operator(1, equator)
    sh_fit_operator(0, equator)


def test_ill_conditioned_grid_is_refused_by_both_routes():
    # one direction 1e-6 rad off an equator ring makes the order-1 fit full
    # rank, but with s_min/s_max = 3e-7, below the 1e-5 cutoff; 1e-3 rad
    # off (3e-4) passes
    ring = [Direction(np.pi / 2, 2 * np.pi * k / 16) for k in range(16)]
    off = [*ring, Direction(np.pi / 2 - 1e-6, 0.3)]
    s = np.linalg.svd(sh_matrix(1, off), compute_uv=False)
    assert 1e-15 < s[-1] / s[0] < 1e-5
    for keep in (None, 0):
        with pytest.raises(ValueError, match="rank 3 of 4 coefficients"):
            sh_fit_operator(1, off, keep)
    # the Gram route counts a rank-deficient grid's rank as the SVD does
    with pytest.raises(ValueError, match="rank 5 of 9 coefficients"):
        sh_fit_operator(2, ring, 1)
    near = [*ring, Direction(np.pi / 2 - 1e-3, 0.3)]
    assert sh_fit_operator(1, near).shape == (4, 17)
    assert sh_fit_operator(1, near, 0).shape == (1, 17)


def test_sh_interpolate_linearity():
    dirs = spiral_grid(64)
    targets = spiral_grid(5)
    rng = np.random.default_rng(4)
    a = rng.standard_normal((64, STFT.num_bins)) + 0j
    b = rng.standard_normal((64, STFT.num_bins)) + 0j
    mk = lambda arr: HrtfSet(directions=tuple(dirs), ears=np.stack([arr, arr]),
                             sample_rate=48000)
    one = sh_interpolate(mk(a + 2 * b), 5, targets)
    two_a = sh_interpolate(mk(a), 5, targets)
    two_b = sh_interpolate(mk(b), 5, targets)
    np.testing.assert_allclose(one.ears[0], two_a.ears[0] + 2 * two_b.ears[0],
                               atol=1e-10)


def test_ir_container_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    dirs = spiral_grid(6)
    left = rng.standard_normal((6, 64)).astype(np.float32)
    right = rng.standard_normal((6, 64)).astype(np.float32)
    path = tmp_path / "set.bsmh"
    save_hrtf(path, dirs, left, right, 48000)
    hs = load_hrtf(path, 64)
    assert hs.num_directions == 6
    assert hs.sample_rate == 48000
    th, ph = directions_to_arrays(dirs)
    got_th, got_ph = directions_to_arrays(hs.directions)
    np.testing.assert_allclose(got_th, th, atol=1e-12)
    np.testing.assert_allclose(got_ph, ph, atol=1e-12)
    # spectra are plain transforms of the stored IRs
    np.testing.assert_allclose(hs.ears[0], np.fft.rfft(left, 64, axis=1),
                               atol=1e-5)
    np.testing.assert_allclose(hs.ears[1], np.fft.rfft(right, 64, axis=1),
                               atol=1e-5)


def test_identity_impulse_gives_flat_response(tmp_path):
    dirs = spiral_grid(3)
    ir = np.zeros((3, 64), np.float32)
    ir[:, 0] = 1.0
    path = tmp_path / "flat.bsmh"
    save_hrtf(path, dirs, ir, ir, 48000)
    hs = load_hrtf(path, fft_size=128)
    assert hs.num_bins == 65
    np.testing.assert_allclose(hs.ears, 1.0, atol=1e-7)


def test_ir_container_errors(tmp_path):
    dirs = spiral_grid(3)
    ir = np.zeros((3, 16), np.float32)
    with pytest.raises(ValueError):
        save_hrtf(tmp_path / "x.bsmh", dirs, ir, ir[:, :8], 48000)
    with pytest.raises(ValueError):
        save_hrtf(tmp_path / "x.bsmh", spiral_grid(2), ir, ir, 48000)
    path = tmp_path / "bad.bsmh"
    path.write_bytes(b"NOPE" + bytes(32))
    with pytest.raises(ContainerError):
        load_hrtf(path, 16)
    good = tmp_path / "good.bsmh"
    save_hrtf(good, dirs, ir, ir, 48000)
    with pytest.raises(ContainerError):
        load_hrtf(good, fft_size=8)  # shorter than the IRs
