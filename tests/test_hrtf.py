"""Ear response models, their SH expansion and the IR container."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from bsmrender.containers import ContainerError, load_hrtf, save_hrtf
from bsmrender.geometry import SPEED_OF_SOUND
from bsmrender import hrtf
from bsmrender.hrtf import (
    RANK_RTOL,
    evaluate_sh,
    point_receiver_channels,
    point_receiver_hrtf,
    sh_channels,
    sh_fit_operator,
)
from bsmrender.sph import num_coeffs, sh_matrix, spiral_grid
from bsmrender.stft import StftConfig
from oracles import assert_bits_equal, channel_response, sh_fit, \
    sh_interpolate

STFT = StftConfig(48000, 512, 256)
DESK_STFT = StftConfig.default(48000, 32.0, 16.0)  # both profiles' STFT


def test_point_receiver_dc_is_unity():
    hs = point_receiver_hrtf(0.0875, STFT, spiral_grid(16))
    np.testing.assert_array_equal(hs[:, :, 0], 1.0)


def test_point_receiver_quarter_wave_phase():
    # source on +y, offset 0.1 m: left ear leads by k*e = pi/2 -> response i
    offset = 0.1
    f = SPEED_OF_SOUND / (4 * offset)  # k * offset = pi/2
    # a 4-point FFT at 4 f has the bins 0, f and 2 f
    stft_cfg = StftConfig(4 * f, 4, 2)
    hs = point_receiver_hrtf(offset, stft_cfg, [(np.pi / 2, np.pi / 2)])
    np.testing.assert_allclose(hs[:, 0, 1], [1j, -1j], atol=1e-12)


def test_point_receiver_ears_are_conjugate():
    hs = point_receiver_hrtf(0.0875, STFT, spiral_grid(32))
    assert hs.shape == (2, 32, STFT.num_bins)
    np.testing.assert_array_equal(hs[1], np.conj(hs[0]))
    np.testing.assert_allclose(np.abs(hs[0]), 1.0, atol=1e-12)


def test_point_receiver_rejects_bad_offset():
    for offset in (-0.1, -1e-300):
        with pytest.raises(ValueError, match="must not be negative"):
            point_receiver_hrtf(offset, STFT, spiral_grid(4))


def test_flat_hrtf_is_ones():
    # the flat model is the point model with its ears at the center
    hs = point_receiver_hrtf(0.0, STFT, spiral_grid(8))
    np.testing.assert_array_equal(hs, 1.0)


@pytest.mark.parametrize("order, bound", [(14, 5e-4), (30, 5e-7)])
def test_point_closed_form_synthesizes_the_model(order, bound):
    # the zonal channels reproduce both ears of the model wherever the
    # truncated Jacobi-Anger series has converged, k a <= order / 2; the
    # bounds are about twice the measured 2.1e-4 (order 14) and 1.0e-7
    # (order 30)
    dirs = spiral_grid(300)
    channels = point_receiver_channels(0.0875, DESK_STFT, order)
    assert channels.order == order
    assert channels.decode.shape == (2, order + 1, DESK_STFT.num_bins)
    got = channel_response(channels, dirs)
    want = point_receiver_hrtf(0.0875, DESK_STFT, dirs)
    ka = 2 * np.pi * DESK_STFT.bin_frequencies() / SPEED_OF_SOUND * 0.0875
    valid = ka <= order / 2
    assert valid.sum() > 150  # 4.4 kHz at order 14, 9.4 kHz at order 30
    err = np.abs(got - want)[..., valid].max()
    assert err <= bound, err


def test_point_closed_form_matches_the_fit_below_8khz():
    # the order-30 fit on the profiles' 1600-direction grid aliases the
    # orders above 30 into its coefficients, 1.7e-11 relative at 4-8 kHz
    # and 3.2e-15 below; a response sums the errors of 961 of them, so the
    # fit's channels and the projection answer within 3e-10 below 8 kHz
    # (measured 1.3e-10 at 4-8 kHz, 1.4e-14 below 4 kHz)
    grid = spiral_grid(1600)
    fit = sh_fit(grid, point_receiver_hrtf(0.0875, DESK_STFT, grid), 30)
    closed = point_receiver_channels(0.0875, DESK_STFT, 30)
    dirs = spiral_grid(200)
    below = DESK_STFT.bin_frequencies() < 8000.0
    want = channel_response(closed, dirs)[..., below]
    diff = np.abs(channel_response(sh_channels(fit, 30), dirs)[..., below]
                  - want).max(axis=1)
    scale = np.abs(want).max(axis=1)
    assert (diff <= 3e-10 * scale).all(), (diff / scale).max()


def test_point_closed_form_rejects_bad_offset():
    # an offset of 0 is the flat model; a negative one is no model
    with pytest.raises(ValueError):
        point_receiver_channels(-0.01, STFT, 2)


@pytest.mark.parametrize("order", [0, 3])
def test_flat_closed_form_is_exact(order):
    # ears at the center: the flat model's unit response is its one
    # order-0 channel whatever order is asked, a_0 = 1 / sqrt(4 pi)
    # decoded by sqrt(4 pi) exactly on both ears at every bin
    channels = point_receiver_channels(0.0, STFT, order)
    assert channels.order == 0
    assert channels.decode.shape == (2, 1, STFT.num_bins)
    np.testing.assert_array_equal(channels.decode, np.sqrt(4 * np.pi))
    np.testing.assert_allclose(channel_response(channels, spiral_grid(50)),
                               1.0, rtol=0, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.integers(0, 30), st.sampled_from([16000, 48000, 96000]))
@example(0.99, 30, 96000)
@example(0.0875, 14, 48000)
@example(1e-300, 30, 16000)
def test_point_projection_matches_jacobi_anger(ear_offset, order, rate):
    # the projection of point_receiver_hrtf on the zonal channels against
    # scipy's spherical_jn in the Jacobi-Anger series, exp(+/- i k a t) =
    # sum_n (+/- i)^n sqrt(4 pi (2n+1)) j_n(k a) P_n^0(t): measured within
    # 3.7e-14 for offsets up to 0.9999999 m at all three rates, orders 0-30
    # (largest at 0.99 m, 96 kHz, order 30, k a up to 870); gate 1e-12
    stft_cfg = StftConfig(rate, 512, 256)
    channels = point_receiver_channels(ear_offset, stft_cfg, order)
    assert channels.order == order and channels.zonal
    n = np.arange(order + 1)[:, None]
    ka = 2 * np.pi * stft_cfg.bin_frequencies() / SPEED_OF_SOUND * ear_offset
    radial = np.sqrt(4 * np.pi * (2 * n + 1)) * special.spherical_jn(n, ka)
    want = np.stack([1j ** n * radial, (-1j) ** n * radial])
    err = np.abs(channels.decode - want).max()
    assert err <= 1e-12, err


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 2**32 - 1))
def test_sh_channels_reproduce_the_expansion(order, ref_order, seed):
    # sum_c H_c Y_c(u) = sum_k D_k a_k(u) for drawn complex H and drawn u,
    # the poles included, at the smaller of the two orders
    rng = np.random.default_rng(seed)
    bins = 3
    shape = (2, num_coeffs(order), bins)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    dirs = np.column_stack([rng.uniform(0, np.pi, 20),
                            rng.uniform(0, 2 * np.pi, 20)])
    dirs[:2, 0] = 0.0, np.pi
    kept = min(order, ref_order)
    channels = sh_channels(coeffs, ref_order)
    assert channels.order == kept
    assert channels.decode.shape == (2, num_coeffs(kept), bins)
    want = sh_matrix(kept, dirs) @ coeffs[:, : num_coeffs(kept)]
    np.testing.assert_allclose(channel_response(channels, dirs), want,
                               rtol=0, atol=1e-12)


def test_load_hrtf_refuses_non_finite_responses(tmp_path):
    # a non-finite impulse response sample, in either ear, is a
    # ContainerError naming the file; so is a set of no directions
    ir = np.zeros((4, 8))
    for ear, bad in ((0, np.nan), (1, np.inf), (1, -np.inf)):
        irs = [ir, ir.copy()]
        irs[ear][2, 5] = bad
        path = tmp_path / f"bad{ear}.bsmh"
        save_hrtf(path, spiral_grid(4), *irs, 48000)
        with pytest.raises(ContainerError, match=rf"^{path}: invalid HRTF "
                           r"set: non-finite impulse responses$"):
            load_hrtf(path, StftConfig(48000, 16, 8))
    path = tmp_path / "empty.bsmh"
    save_hrtf(path, np.zeros((0, 2)), ir[:0], ir[:0], 48000)
    with pytest.raises(ContainerError, match=rf"^{path}: empty HRTF set$"):
        load_hrtf(path, StftConfig(48000, 16, 8))


def test_sh_fit_reproduces_fit_grid():
    # enough coefficients for an exact interpolatory fit on the sample grid
    dirs = spiral_grid(36)
    hs = point_receiver_hrtf(0.0875, STFT, dirs)
    coeffs = sh_fit(dirs, hs, 5)  # 36 coefficients for 36 directions
    back = evaluate_sh(coeffs, dirs)
    np.testing.assert_allclose(back, hs, atol=1e-8)


def test_sh_fit_generalizes_to_held_out_directions():
    # the truncation order must track kr, so judge only bins below 2 kHz
    # (kr < 3.3 for the 0.0875 m offset) where order 12 is plenty
    fit_dirs = spiral_grid(400)
    test_dirs = spiral_grid(37)
    hs = point_receiver_hrtf(0.0875, STFT, fit_dirs)
    coeffs = sh_fit(fit_dirs, hs, 12)
    got = evaluate_sh(coeffs, test_dirs)
    want = point_receiver_hrtf(0.0875, STFT, test_dirs)
    low = STFT.bin_frequencies() <= 2000.0
    np.testing.assert_allclose(got[:, :, low], want[:, :, low], atol=1e-4)


def test_sh_fit_residual_shrinks_with_order():
    fit_dirs = spiral_grid(400)
    targets = spiral_grid(25)
    hs = point_receiver_hrtf(0.0875, STFT, fit_dirs)
    want = point_receiver_hrtf(0.0875, STFT, targets)
    low = STFT.bin_frequencies() <= 4000.0  # kr up to ~6.4
    errs = []
    for order in (2, 6, 10):
        got = evaluate_sh(sh_fit(fit_dirs, hs, order), targets)
        errs.append(np.abs(got[0, :, low] - want[0, :, low]).max())
    assert errs[0] > errs[1] > errs[2]


def test_sh_fit_requires_enough_directions():
    dirs = spiral_grid(8)
    with pytest.raises(ValueError):
        # 16 coefficients, 8 directions
        sh_fit(dirs, point_receiver_hrtf(0.0875, STFT, dirs), 3)


def test_sh_fit_on_two_directions():
    # two direction rows are two directions
    dirs = spiral_grid(2)
    coeffs = sh_fit(dirs, point_receiver_hrtf(0.0, STFT, dirs), 0)
    np.testing.assert_allclose(coeffs, np.sqrt(4 * np.pi), rtol=1e-14)
    back = evaluate_sh(coeffs, dirs)
    assert back.shape == (2, 2, STFT.num_bins)
    np.testing.assert_allclose(back, 1.0, rtol=1e-14)


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
    coeffs = sh_fit(dirs, hs, 4)
    op = np.linalg.pinv(sh_matrix(4, dirs))
    assert coeffs.shape == (2, num_coeffs(4), STFT.num_bins)
    assert_bits_equal(coeffs[0], op @ hs[0])
    assert_bits_equal(coeffs[1], op @ hs[1])


def test_rank_deficient_grid_is_refused():
    # 16 equator directions outnumber the 9 coefficients of order 2, but
    # the harmonics odd in z vanish there: rank 5, not a fit
    equator = [(np.pi / 2, 2 * np.pi * k / 16) for k in range(16)]
    for fit in (lambda: sh_fit_operator(2, equator),
                lambda: sh_fit(equator,
                               point_receiver_hrtf(0.0, STFT, equator), 2)):
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
    ring = [(np.pi / 2, 2 * np.pi * k / 16) for k in range(16)]
    off = [*ring, (np.pi / 2 - 1e-6, 0.3)]
    s = np.linalg.svd(sh_matrix(1, off), compute_uv=False)
    assert 1e-15 < s[-1] / s[0] < 1e-5
    for keep in (None, 0):
        with pytest.raises(ValueError, match="rank 3 of 4 coefficients"):
            sh_fit_operator(1, off, keep)
    # the Gram route counts a rank-deficient grid's rank as the SVD does
    with pytest.raises(ValueError, match="rank 5 of 9 coefficients"):
        sh_fit_operator(2, ring, 1)
    near = [*ring, (np.pi / 2 - 1e-3, 0.3)]
    assert sh_fit_operator(1, near).shape == (4, 17)
    assert sh_fit_operator(1, near, 0).shape == (1, 17)


def _verdict(check):
    """None if `check()` passes, else its ValueError's message."""
    try:
        check()
    except ValueError as err:
        return str(err)
    return None


def _assert_gram_verdict_is_eigvalsh_rule(order, dirs):
    # the leading-rows route passes or refuses the grid exactly as the plain
    # rule on all of the Gram matrix's eigenvalues does, with its rank count
    y = sh_matrix(order, dirs)
    lam = np.linalg.eigvalsh(y.conj().T @ y)
    want = _verdict(lambda: hrtf._refuse_rank_deficient(
        order, lam > RANK_RTOL ** 2 * lam[-1]))
    rows = num_coeffs(max(order - 1, 0))
    assert _verdict(lambda: hrtf._leading_rows(order, y, rows)) == want


@settings(max_examples=40)
@given(order=st.integers(0, 12), extra=st.floats(1.0, 3.0))
def test_gram_verdict_is_eigvalsh_rule_on_spiral_grids(order, extra):
    count = int(np.ceil(extra * num_coeffs(order)))
    _assert_gram_verdict_is_eigvalsh_rule(order, spiral_grid(count))


@pytest.mark.parametrize("k", range(1, 9))
def test_gram_verdict_is_eigvalsh_rule_on_tilted_rings(k):
    # the ring of the ill-conditioned grid test with one direction tilted
    # 10^-k rad off it: s_min/s_max from about 3e-2 down to 3e-9
    ring = [(np.pi / 2, 2 * np.pi * j / 16) for j in range(16)]
    tilted = [*ring, (np.pi / 2 - 10.0 ** -k, 0.3)]
    _assert_gram_verdict_is_eigvalsh_rule(1, tilted)


def test_well_conditioned_grid_skips_eigvalsh(monkeypatch):
    # the Gershgorin discs pass the reference's order-30 grid on their
    # own; the 1e-6 rad tilted ring is left to eigvalsh, which refuses it
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    assert sh_fit_operator(30, spiral_grid(1600), 14).shape == (225, 1600)
    assert calls == []
    ring = [(np.pi / 2, 2 * np.pi * k / 16) for k in range(16)]
    tilted = [*ring, (np.pi / 2 - 1e-6, 0.3)]
    with pytest.raises(ValueError, match="rank 3 of 4 coefficients"):
        sh_fit_operator(1, tilted, 0)
    assert calls == [(4, 4)]


def test_sh_interpolate_linearity():
    dirs = spiral_grid(64)
    targets = spiral_grid(5)
    rng = np.random.default_rng(4)
    a = rng.standard_normal((64, STFT.num_bins)) + 0j
    b = rng.standard_normal((64, STFT.num_bins)) + 0j
    both = lambda arr: np.stack([arr, arr])
    one = sh_interpolate(dirs, both(a + 2 * b), 5, targets)
    two_a = sh_interpolate(dirs, both(a), 5, targets)
    two_b = sh_interpolate(dirs, both(b), 5, targets)
    np.testing.assert_allclose(one[0], two_a[0] + 2 * two_b[0], atol=1e-10)


def test_ir_container_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    dirs = spiral_grid(6)
    left = rng.standard_normal((6, 64)).astype(np.float32)
    right = rng.standard_normal((6, 64)).astype(np.float32)
    path = tmp_path / "set.bsmh"
    save_hrtf(path, dirs, left, right, 48000)
    back, ears = load_hrtf(path, StftConfig(48000, 64, 32))
    assert ears.shape == (2, 6, 33)
    # the run's StftConfig owns the sample rate: a set of another is refused
    with pytest.raises(ContainerError, match=f"{path}: sample rate is 48000, "
                       "not the run's 44100"):
        load_hrtf(path, StftConfig(44100, 64, 32))
    # the table is stored at double precision: the same rows, to the bit
    assert_bits_equal(back, dirs)
    # spectra are plain transforms of the stored IRs
    np.testing.assert_allclose(ears[0], np.fft.rfft(left, 64, axis=1),
                               atol=1e-5)
    np.testing.assert_allclose(ears[1], np.fft.rfft(right, 64, axis=1),
                               atol=1e-5)


def test_identity_impulse_gives_flat_response(tmp_path):
    dirs = spiral_grid(3)
    ir = np.zeros((3, 64), np.float32)
    ir[:, 0] = 1.0
    path = tmp_path / "flat.bsmh"
    save_hrtf(path, dirs, ir, ir, 48000)
    _, ears = load_hrtf(path, StftConfig(48000, 128, 64))
    assert ears.shape == (2, 3, 65)
    np.testing.assert_allclose(ears, 1.0, atol=1e-7)


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
        load_hrtf(path, StftConfig(48000, 16, 8))
    good = tmp_path / "good.bsmh"
    save_hrtf(good, dirs, ir, ir, 48000)
    with pytest.raises(ContainerError):
        load_hrtf(good, StftConfig(48000, 8, 4))  # shorter than the IRs
