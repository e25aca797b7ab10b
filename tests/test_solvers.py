"""Filter solvers: LS, covariance-weighted, MagLS, bank design and IO."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsmrender.containers import ContainerError, load_filterbank, save_filterbank
from bsmrender.geometry import Direction, semicircle_array
from bsmrender.hrtf import HrtfSet, flat_hrtf, point_receiver_hrtf
from bsmrender import solvers
from bsmrender.solvers import (
    BsmFilterBank,
    CovarianceModel,
    SolverConfig,
    SolverError,
    design_filterbank,
    solve_general,
    solve_ls,
    solve_magls,
)
from bsmrender.sph import spiral_grid, steering_tensor
from bsmrender.stft import StftConfig
import oracles
from oracles import assert_bits_equal, design_filterbank_loop, magls_loop, \
    steering_matrix


def _random_system(rng, m, l):
    v = rng.standard_normal((m, l)) + 1j * rng.standard_normal((m, l))
    h = rng.standard_normal(l) + 1j * rng.standard_normal(l)
    return v, h


def test_scalar_identities():
    # single mic, single source, unit steering: c = h* (up to regularization)
    h = np.array([0.3 - 0.7j])
    v = np.array([[1.0 + 0j]])
    np.testing.assert_allclose(solve_ls(v, h, np.inf), np.conj(h), rtol=1e-9)
    snr = 10.0
    np.testing.assert_allclose(solve_ls(v, h, snr),
                               np.conj(h) / (1.0 + 1.0 / snr), rtol=1e-12)


def test_general_matches_ls_under_scaled_identities():
    rng = np.random.default_rng(42)
    v, h = _random_system(rng, 6, 4)
    sigma_s, sigma_n = 2.0, 0.25
    cov = CovarianceModel(source_cov=sigma_s * np.eye(4),
                          noise_cov=sigma_n * np.eye(6))
    got = solve_general(v, cov, h)
    want = solve_ls(v, h, snr=sigma_s / sigma_n)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_ls_solution_minimizes_objective():
    # J(c) = ||V^H c - h*||^2 + (1/snr) ||c||^2 is smallest at the solution
    rng = np.random.default_rng(7)
    v, h = _random_system(rng, 4, 9)
    snr = 50.0
    c = solve_ls(v, h, snr)

    def objective(cand):
        r = v.conj().T @ cand - np.conj(h)
        return (np.vdot(r, r).real + np.vdot(cand, cand).real / snr)

    base = objective(c)
    for _ in range(20):
        delta = 1e-3 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        assert objective(c + delta) > base


def test_overdetermined_regime_is_exact():
    # more mics than modeled waves and no noise: response match to rounding
    geom = semicircle_array(6, 0.07)
    rng = np.random.default_rng(0)
    doas = [Direction(rng.uniform(0.2, np.pi - 0.2), rng.uniform(0, 2 * np.pi))
            for _ in range(2)]
    v = steering_matrix(4000.0, geom, doas)
    h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    c = solve_ls(v, h, np.inf)
    np.testing.assert_allclose(v.conj().T @ c, np.conj(h), atol=1e-6)


def test_ls_conjugate_symmetry():
    # conjugating the system conjugates the filter (negative-frequency bins)
    rng = np.random.default_rng(3)
    v, h = _random_system(rng, 5, 8)
    c = solve_ls(v, h, 100.0)
    c_conj = solve_ls(np.conj(v), np.conj(h), 100.0)
    np.testing.assert_allclose(c_conj, np.conj(c), rtol=1e-12)


def test_filter_norm_grows_with_snr():
    # weaker regularization never shrinks the solution norm
    rng = np.random.default_rng(12)
    v, h = _random_system(rng, 6, 20)
    norms = [np.linalg.norm(solve_ls(v, h, snr))
             for snr in (1.0, 10.0, 100.0, 1e4)]
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


def test_filter_norm_bounded_by_snr():
    rng = np.random.default_rng(8)
    v, h = _random_system(rng, 6, 30)
    snr = 25.0
    c = solve_ls(v, h, snr)
    # ||(VV^H + I/snr)^{-1} V|| <= sqrt(snr)/2
    assert np.linalg.norm(c) <= np.sqrt(snr) * np.linalg.norm(h)


@settings(max_examples=30, deadline=None)
@given(st.complex_numbers(max_magnitude=5.0, allow_nan=False,
                          allow_infinity=False))
def test_ls_is_conjugate_linear_in_target(alpha):
    rng = np.random.default_rng(77)
    v, h = _random_system(rng, 4, 6)
    scaled = solve_ls(v, alpha * h, 40.0)
    np.testing.assert_allclose(scaled, np.conj(alpha) * solve_ls(v, h, 40.0),
                               atol=1e-9)


def test_general_rejects_bad_covariances():
    with pytest.raises(ValueError):
        CovarianceModel(source_cov=np.array([[0.0, 1.0], [0.0, 0.0]]),
                        noise_cov=np.eye(3))
    with pytest.raises(ValueError):
        CovarianceModel(source_cov=-np.eye(2), noise_cov=np.eye(3))


def test_general_flags_ill_conditioning():
    # duplicated columns and no noise floor: the system is singular
    v = np.ones((3, 2), complex)
    cov = CovarianceModel(source_cov=np.eye(2), noise_cov=np.zeros((3, 3)))
    with pytest.raises(SolverError):
        solve_general(v, cov, np.ones(2, complex))


def test_non_finite_inputs_rejected():
    v = np.ones((2, 2), complex)
    h = np.array([1.0, np.nan], complex)
    with pytest.raises(SolverError):
        solve_ls(v, h, 10.0)
    with pytest.raises(SolverError):
        solve_magls(v, h, 10.0)


def test_magls_matches_ls_at_its_fixed_point():
    # on a well-conditioned exact system the LS filter already reproduces
    # magnitude and phase, so the iteration must keep it
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6))
                        + 1j * rng.standard_normal((6, 6)))
    h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    c_ls = solve_ls(q, h, np.inf)
    c_mag = solve_magls(q, h, np.inf)
    np.testing.assert_allclose(c_mag, c_ls, atol=1e-12)


def test_magls_reaches_magnitude_on_unitary_system():
    # V unitary: any magnitude profile is attainable exactly
    theta = 0.3
    v = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]], complex)
    h = np.array([2.0 * np.exp(0.3j), 0.5 * np.exp(-1.1j)])
    c = solve_magls(v, h, np.inf)
    np.testing.assert_allclose(np.abs(v.conj().T @ c), np.abs(h), atol=1e-8)


def test_magls_deterministic():
    rng = np.random.default_rng(21)
    v, h = _random_system(rng, 6, 40)
    a = solve_magls(v, h, 100.0)
    b = solve_magls(v, h, 100.0)
    np.testing.assert_array_equal(a, b)


def test_magls_seeding_path():
    # the default start is the plain LS filter, so passing that filter as
    # the seed must reproduce the unseeded run bit for bit; restarting from
    # a converged filter may keep drifting in phase but cannot lose the
    # magnitude fit
    rng = np.random.default_rng(2)
    v, h = _random_system(rng, 6, 40)
    c0 = solve_magls(v, h, 100.0)
    np.testing.assert_array_equal(
        solve_magls(v, h, 100.0, phase_init=solve_ls(v, h, 100.0)), c0)
    c1 = solve_magls(v, h, 100.0, phase_init=c0)
    err = lambda c: np.linalg.norm(np.abs(v.conj().T @ c) - np.abs(h))
    assert err(c1) <= err(c0) * 1.05


def test_magls_improves_magnitude_over_ls():
    # the reason the iteration exists: better |response| fit than plain LS
    rng = np.random.default_rng(2)
    v, h = _random_system(rng, 6, 40)
    err = lambda c: np.linalg.norm(np.abs(v.conj().T @ c) - np.abs(h))
    assert err(solve_magls(v, h, 100.0)) < err(solve_ls(v, h, 100.0))


STFT_SMALL = StftConfig(48000, 8, 4)  # bins 0, 6, 12, 18 and 24 kHz


def test_design_filterbank_matches_per_bin_solver():
    geom = semicircle_array(6, 0.07)
    doas = spiral_grid(8)
    hrtf = point_receiver_hrtf(0.0875, STFT_SMALL, doas)
    cfg = SolverConfig(snr=100.0, magls_enabled=False)
    bank = design_filterbank(geom, STFT_SMALL, hrtf, cfg, tag="direct")
    assert bank.num_bins == STFT_SMALL.num_bins
    assert bank.num_mics == 6
    for b, f in enumerate(STFT_SMALL.bin_frequencies()):
        v = steering_matrix(float(f), geom, doas)
        want = solve_ls(v, hrtf.ears[0][:, b], 100.0)
        np.testing.assert_allclose(bank.ears[0][b], want, atol=1e-12)


def test_design_filterbank_magls_kicks_in_above_cutoff():
    geom = semicircle_array(4, 0.07)
    doas = spiral_grid(12)
    hrtf = point_receiver_hrtf(0.0875, STFT_SMALL, doas)
    plain = design_filterbank(geom, STFT_SMALL, hrtf,
                              SolverConfig(snr=30.0), tag="reverberant")
    mixed = design_filterbank(
        geom, STFT_SMALL, hrtf,
        SolverConfig(snr=30.0, magls_enabled=True, magls_cutoff_hz=10000.0),
        tag="reverberant")
    # identical below the cutoff, different above it
    np.testing.assert_array_equal(mixed.ears[0][:2], plain.ears[0][:2])
    assert np.abs(mixed.ears[0][3:] - plain.ears[0][3:]).max() > 1e-6


def test_design_filterbank_validation():
    geom = semicircle_array(4, 0.07)
    doas = spiral_grid(12)
    hrtf = point_receiver_hrtf(0.0875, STFT_SMALL, doas)
    with pytest.raises(ValueError):
        design_filterbank(
            geom, STFT_SMALL, hrtf,
            SolverConfig(magls_enabled=True, magls_cutoff_hz=30000.0),
            tag="direct")


def test_filterbank_validation():
    ears = np.zeros((2, 5, 3), complex)
    cfg = SolverConfig()
    for bad in (ears[0], ears[:1], ears[None]):
        with pytest.raises(ValueError, match=r"shape \(2, bins, M\)"):
            BsmFilterBank(ears=bad, tag="direct", config=cfg,
                          sample_rate=48000, fft_size=8)
    with pytest.raises(ValueError):
        BsmFilterBank(ears=ears, tag="mystery", config=cfg,
                      sample_rate=48000, fft_size=8)
    with pytest.raises(ValueError):
        BsmFilterBank(ears=np.full((2, 5, 3), np.inf, complex), tag="direct",
                      config=cfg, sample_rate=48000, fft_size=8)
    with pytest.raises(ValueError):
        BsmFilterBank(ears=ears, tag="direct", config=cfg,
                      sample_rate=48000, fft_size=16)


def test_filterbank_io_round_trip(tmp_path):
    geom = semicircle_array(3, 0.05)
    doas = spiral_grid(5)
    hrtf = flat_hrtf(STFT_SMALL, doas)
    cfg = SolverConfig(snr=12.5, magls_enabled=True, magls_cutoff_hz=9000.0)
    bank = design_filterbank(geom, STFT_SMALL, hrtf, cfg,
                             tag="reverberant")
    path = tmp_path / "bank.bsmf"
    save_filterbank(path, bank, "ab" * 8)
    back, digest = load_filterbank(path)
    assert digest == "ab" * 8
    assert back.tag == "reverberant"
    assert back.config == cfg
    assert back.sample_rate == 48000 and back.fft_size == 8
    assert_bits_equal(back.ears, bank.ears)


def test_filterbank_io_rejects_damage(tmp_path):
    path = tmp_path / "bank.bsmf"
    path.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(ContainerError):
        load_filterbank(path)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(snr=0.0)
    with pytest.raises(ValueError):
        SolverConfig(magls_enabled=True, magls_cutoff_hz=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tikhonov_floor=-1e-9)
    cfg = SolverConfig(snr=10.0)
    assert SolverConfig(**cfg.to_dict()) == cfg


@pytest.mark.parametrize("max_iter, want", [(0, 6), (1000, 0)])
def test_design_filterbank_counts_capped_magls_bins(monkeypatch, max_iter,
                                                    want):
    # MagLS runs on bins 2-4 (12, 18 and 24 kHz) of both ears: a cap of 0
    # stops all six, while 1000 iterations let every one converge
    geom = semicircle_array(4, 0.07)
    doas = spiral_grid(12)
    hrtf = point_receiver_hrtf(0.0875, STFT_SMALL, doas)
    cfg = SolverConfig(snr=30.0, magls_enabled=True, magls_cutoff_hz=10000.0)
    default = design_filterbank(geom, STFT_SMALL, hrtf, cfg,
                                tag="reverberant")
    monkeypatch.setattr(solvers, "MAGLS_MAX_ITER", max_iter)
    bank = design_filterbank(geom, STFT_SMALL, hrtf, cfg,
                             tag="reverberant")
    assert bank.magls_capped == want
    assert 0 < default.magls_capped < 6  # 50 iterations: some, not all
    # the LS bins below the cutoff do not depend on the cap
    np.testing.assert_array_equal(bank.ears[0][:2], default.ears[0][:2])
    assert np.isfinite(bank.ears[0]).all() and np.isfinite(bank.ears[1]).all()


def test_capped_count_is_not_stored(tmp_path):
    geom = semicircle_array(4, 0.07)
    doas = spiral_grid(12)
    hrtf = point_receiver_hrtf(0.0875, STFT_SMALL, doas)
    bank = design_filterbank(geom, STFT_SMALL, hrtf, SolverConfig(),
                             tag="reverberant")
    capped = BsmFilterBank(ears=bank.ears, tag=bank.tag,
                           config=bank.config, sample_rate=bank.sample_rate,
                           fft_size=bank.fft_size, magls_capped=7)
    save_filterbank(tmp_path / "a.bsmf", bank, "ab" * 8)
    save_filterbank(tmp_path / "b.bsmf", capped, "ab" * 8)
    assert (tmp_path / "a.bsmf").read_bytes() \
        == (tmp_path / "b.bsmf").read_bytes()


def _random_hrtf(rng, stft_cfg, doas):
    shape = (len(doas), stft_cfg.num_bins)
    draw = lambda: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return HrtfSet(directions=tuple(doas), ears=np.stack([draw(), draw()]),
                   sample_rate=stft_cfg.sample_rate)


def _relative_per_bin(got, want):
    return (np.linalg.norm(got - want, axis=1)
            / np.linalg.norm(want, axis=1)).max()


@settings(max_examples=60)
@given(m=st.integers(1, 6), l=st.integers(1, 12),
       fft_size=st.sampled_from([8, 16, 32]), radius=st.floats(0.02, 0.2),
       snr_db=st.floats(-10.0, 40.0), snr_inf=st.booleans(),
       cutoff_bin=st.integers(0, 16), seed=st.integers(0, 2**16))
def test_design_filterbank_matches_loop(m, l, fft_size, radius, snr_db,
                                        snr_inf, cutoff_bin, seed):
    # LS banks (every L, snr = inf included) and LS bins are the loop's
    # bits: same A, same right-hand side V h*, same LAPACK solve. A MagLS
    # bin applies P = A^{-1} V instead, so it is compared with the loop's
    # MagLS seeded with the same filter of bin b-1: chaining the seeds
    # would also compare how far each route drifts along the MagLS
    # solutions' common phase, which rounding alone moves by 1e-6 on some
    # draws. MagLS draws use a finite SNR: at snr = inf with L < M the
    # system's condition number is about 1e12, and either route's filter
    # carries rounding noise of about 1e-4 in the null space of V^H
    stft_cfg = StftConfig(48000, fft_size, fft_size // 2)
    geom = semicircle_array(m, radius)
    doas = spiral_grid(l)
    hrtf = _random_hrtf(np.random.default_rng(seed), stft_cfg, doas)
    snr = np.inf if snr_inf else 10.0 ** (snr_db / 10.0)
    magls = cutoff_bin > 0 and not snr_inf  # cutoff_bin 0: MagLS off
    freqs = stft_cfg.bin_frequencies()
    cutoff = float(freqs[min(max(cutoff_bin, 1), stft_cfg.num_bins - 1)])
    cfg = SolverConfig(snr=snr, magls_enabled=magls, magls_cutoff_hz=cutoff)
    bank = design_filterbank(geom, stft_cfg, hrtf, cfg, tag="reverberant")
    left, right, capped = design_filterbank_loop(geom, stft_cfg, hrtf, cfg)
    if not magls:
        assert_bits_equal(bank.ears[0], left)
        assert_bits_equal(bank.ears[1], right)
        assert bank.magls_capped == capped == 0
        return
    vs = steering_tensor(stft_cfg, geom, doas)
    first = int(np.flatnonzero(freqs >= cutoff)[0])
    seeded_capped = 0
    for got, want, h in zip(bank.ears, (left, right), hrtf.ears):
        assert_bits_equal(got[:first], want[:first])
        for b in range(first, stft_cfg.num_bins):
            c, hit_cap = magls_loop(vs[b], h[:, b], snr, got[b - 1])
            seeded_capped += hit_cap
            assert _relative_per_bin(got[b:b + 1], c[None]) < 1e-9
    assert bank.magls_capped == seeded_capped


DESK_STFT = StftConfig(48000, 2048, 1024)  # 1025 bins


def test_design_filterbank_matches_loop_at_desk_size():
    # desk's six mics, its direct bank (one DOA, snr = inf, LS only) and
    # its reverberant bank (240 DOAs, 20 dB, MagLS from 1500 Hz), with the
    # point-receiver ears evaluated at the DOAs instead of fitted
    geom = semicircle_array(6, 0.07)
    direct = [Direction(np.pi / 2, 0.3)]
    reverb = spiral_grid(240)
    cfg = SolverConfig(snr=np.inf)
    hrtf = point_receiver_hrtf(0.0875, DESK_STFT, direct)
    bank = design_filterbank(geom, DESK_STFT, hrtf, cfg, tag="direct")
    left, right, _ = design_filterbank_loop(geom, DESK_STFT, hrtf, cfg)
    assert_bits_equal(bank.ears[0], left)
    assert_bits_equal(bank.ears[1], right)
    cfg = SolverConfig(snr=100.0, magls_enabled=True, magls_cutoff_hz=1500.0)
    hrtf = point_receiver_hrtf(0.0875, DESK_STFT, reverb)
    bank = design_filterbank(geom, DESK_STFT, hrtf, cfg,
                             tag="reverberant")
    left, right, capped = design_filterbank_loop(geom, DESK_STFT,
                                                 hrtf, cfg)
    assert _relative_per_bin(bank.ears[0], left) < 1e-9
    assert _relative_per_bin(bank.ears[1], right) < 1e-9
    assert bank.magls_capped == capped > 0


def test_design_filterbank_zero_response_keeps_angle_phase(monkeypatch):
    # V = [[1, 1], [1, -1]] at every bin and a left ear that wants [1, 0]:
    # every filter is a multiple of [1, 1], so the second component of
    # V^H c is exactly zero and its phase is np.angle's, not 0/0
    stft_cfg = StftConfig(48000, 8, 4)
    v = np.array([[1.0, 1.0], [1.0, -1.0]], complex)
    vs = np.repeat(v[None], stft_cfg.num_bins, axis=0)
    for module in (solvers, oracles):
        monkeypatch.setattr(module, "steering_tensor", lambda *args: vs)
    doas = spiral_grid(2)
    ones = np.ones(stft_cfg.num_bins, complex)
    hrtf = HrtfSet(directions=tuple(doas),
                   ears=np.array([[ones, 0 * ones], [ones, 2j * ones]]),
                   sample_rate=48000)
    cfg = SolverConfig(snr=10.0, magls_enabled=True, magls_cutoff_hz=6000.0)
    geom = semicircle_array(2, 0.07)
    bank = design_filterbank(geom, stft_cfg, hrtf, cfg, tag="reverberant")
    left, right, capped = design_filterbank_loop(geom, stft_cfg, hrtf, cfg)
    assert np.all((v.conj().T @ bank.ears[0].T)[1] == 0)
    assert _relative_per_bin(bank.ears[0], left) < 1e-12
    assert _relative_per_bin(bank.ears[1], right) < 1e-12
    assert bank.magls_capped == capped


@pytest.mark.parametrize("ear, b, where", [
    ("left", 1, "LS bin"), ("right", 3, "MagLS bin")])
def test_design_filterbank_names_non_finite_bins(ear, b, where):
    # checked before any batched solve, so a NaN ends in the named error
    # of its ear and bin, as in a solve per bin, whichever bank route the
    # bin takes (MagLS from 10 kHz: bins 2-4)
    geom = semicircle_array(4, 0.07)
    doas = spiral_grid(12)
    hrtf = point_receiver_hrtf(0.0875, STFT_SMALL, doas)
    hrtf.ears[("left", "right").index(ear), 5, b] = np.nan
    cfg = SolverConfig(snr=30.0, magls_enabled=True, magls_cutoff_hz=10000.0)
    f = STFT_SMALL.bin_frequencies()[b]
    with pytest.raises(SolverError, match=rf"^{ear} ear, bin {b} \({f:.1f} "
                                          r"Hz\): non-finite values in h$"):
        design_filterbank(geom, STFT_SMALL, hrtf, cfg, tag="reverberant")


def test_design_filterbank_names_non_finite_steering(monkeypatch):
    # a bad steering bin is the left ear's first failure, even where the
    # right ear's responses fail earlier
    geom = semicircle_array(4, 0.07)
    doas = spiral_grid(12)
    hrtf = point_receiver_hrtf(0.0875, STFT_SMALL, doas)
    hrtf.ears[1, 0, 1] = np.inf
    vs = steering_tensor(STFT_SMALL, geom, doas)
    vs[3, 2, 7] = np.nan
    monkeypatch.setattr(solvers, "steering_tensor", lambda *args: vs)
    with pytest.raises(SolverError, match=r"^left ear, bin 3 \(18000\.0 Hz\): "
                                          r"non-finite values in v$"):
        design_filterbank(geom, STFT_SMALL, hrtf, SolverConfig(),
                          tag="reverberant")


def test_design_filterbank_peak_memory():
    # at desk size the steering tensor V (bins, M, L) is the largest array.
    # It is exponentiated in place, the Gram V V^H conjugates 64 bins at a
    # time and P = A^{-1} V is formed one bin at a time, so no second
    # (bins, M, L) array is ever traced; the rest is the conjugated ear
    # responses (bins, L) and V's finiteness mask
    geom = semicircle_array(6, 0.07)
    doas = spiral_grid(240)
    hrtf = point_receiver_hrtf(0.0875, DESK_STFT, doas)
    cfg = SolverConfig(snr=100.0, magls_enabled=True, magls_cutoff_hz=1500.0)
    tensor = DESK_STFT.num_bins * 6 * 240 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        design_filterbank(geom, DESK_STFT, hrtf, cfg, tag="reverberant")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * tensor, (peak, tensor)
