"""Filter application, the decomposed rendering and binaural SH references."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsmrender.containers import ContainerError, write_binaural_spectrogram
from bsmrender.hrtf import point_receiver_hrtf, sh_channels
from bsmrender.render import FRAME_BLOCK, apply_filterbank, render_estimates
from bsmrender.simulate import binaural_references, \
    compute_image_sources, image_lattice, render_rir
from bsmrender.sph import spiral_grid
from bsmrender.stft import StftConfig, stft
from oracles import assert_bits_equal, sh_fit
from sh_oracle import decode_matrix

CFG = StftConfig(48000, 256, 128)  # fft 256, 129 bins
BINS = CFG.num_bins


def _spec(rng, channels, frames=5):
    """Random (channels, frames, bins) spectra."""
    shape = (channels, frames, BINS)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _bank(rng, mics):
    """Random (2, bins, mics) filters."""
    shape = (2, BINS, mics)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_apply_filterbank_against_double_loop():
    rng = np.random.default_rng(0)
    x = _spec(rng, 4)
    bank = _bank(rng, 4)
    out = apply_filterbank(bank, x)
    want = np.zeros((5, BINS), complex)
    for f in range(5):
        for b in range(BINS):
            want[f, b] = np.vdot(bank[0, b], x[:, f, b])
    assert out.shape == (2, 5, BINS)
    np.testing.assert_allclose(out[0], want, atol=1e-12)
    want_r = np.einsum("mfb,bm->fb", x, np.conj(bank[1]))
    np.testing.assert_allclose(out[1], want_r, atol=1e-12)
    # a bank of another bin or mic count than the spectra is refused
    for bad in (bank[:, 1:], bank[..., 1:]):
        with pytest.raises(ValueError, match="bin counts|channel count"):
            apply_filterbank(bad, x)


def test_apply_filterbank_selector():
    # a one-hot real filter just picks out that microphone
    rng = np.random.default_rng(1)
    x = _spec(rng, 3)
    ears = np.zeros((2, BINS, 3), complex)
    ears[0, :, 1] = 1.0
    ears[1, :, 2] = 1.0
    out = apply_filterbank(ears, x)
    np.testing.assert_array_equal(out[0], x[1])
    np.testing.assert_array_equal(out[1], x[2])


def test_apply_filterbank_zero_bank():
    rng = np.random.default_rng(2)
    out = apply_filterbank(np.zeros((2, BINS, 2), complex), _spec(rng, 2))
    np.testing.assert_array_equal(out, 0)


def test_apply_filterbank_is_linear_over_components():
    rng = np.random.default_rng(4)
    bank = _bank(rng, 3)
    x_d = _spec(rng, 3)
    x_r = _spec(rng, 3)
    whole = apply_filterbank(bank, x_d + x_r)
    split = apply_filterbank(bank, x_d) + apply_filterbank(bank, x_r)
    np.testing.assert_allclose(split, whole, atol=1e-12)


def test_render_standard_and_decomposed_agree_with_shared_bank():
    rng = np.random.default_rng(6)
    bank = _bank(rng, 3)
    x = _spec(rng, 3)
    x_d = _spec(rng, 3)
    standard = apply_filterbank(bank, x)
    decomposed = apply_filterbank(bank, x_d) + apply_filterbank(bank, x - x_d)
    np.testing.assert_allclose(decomposed, standard, atol=1e-12)


@settings(max_examples=30)
@given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_decomposition_identity(mics, frames, seed):
    # x - x_d is x_r, and the decomposed rendering with one shared bank
    # is the standard one up to rounding
    rng = np.random.default_rng(seed)
    bank = _bank(rng, mics)
    x = _spec(rng, mics, frames)
    x_d = _spec(rng, mics, frames)
    split = apply_filterbank(bank, x_d) + apply_filterbank(bank, x - x_d)
    whole = apply_filterbank(bank, x)
    scale = np.abs(whole).max()
    np.testing.assert_allclose(split, whole, rtol=0, atol=1e-13 * scale)


def test_decode_matrix_flips_degree_sign():
    dirs = spiral_grid(64)
    coeffs = sh_fit(dirs, point_receiver_hrtf(0.0875, StftConfig(48000, 4, 2),
                                              dirs), 3)
    # flat index n^2 + n + m; decoding swaps m -> -m with a parity sign.
    # A lower order decodes the leading rows of the fit, and an order
    # above the fit's decodes all of them
    for order, kept in ((3, 3), (2, 2), (5, 3)):
        g = decode_matrix(coeffs, order)
        assert g.shape == (2, (kept + 1) ** 2, 3)
        for n in range(kept + 1):
            for m in range(-n, n + 1):
                want = (-1) ** m * coeffs[:, n * n + n - m]
                np.testing.assert_array_equal(g[:, n * n + n + m], want)


def _center_images(reflection=0.8, max_order=2, rir_len=1200):
    max_delay = (rir_len - 17) / 48000
    lattice = image_lattice((4.0, 3.0, 2.5), (reflection,) * 6,
                            (3.0, 1.2, 1.3), max_order, max_delay)
    return compute_image_sources(lattice, (1.0, 2.0, 1.1), max_delay)


def test_render_reference_zero_input_is_silent():
    dirs = spiral_grid(64)
    coeffs = sh_fit(dirs, point_receiver_hrtf(0.0875, CFG, dirs), 3)
    refs = binaural_references(_center_images(), np.zeros(1000),
                               sh_channels(coeffs, 3), CFG, 1200 / 48000)
    for ref in refs:
        assert ref.shape[0] == 2
        np.testing.assert_array_equal(ref, 0)


def test_render_reference_linearity():
    rng = np.random.default_rng(8)
    dirs = spiral_grid(64)
    coeffs = sh_fit(dirs, point_receiver_hrtf(0.0875, CFG, dirs), 2)
    images = _center_images()
    a, b = rng.standard_normal((2, 800))

    def refs(sig):
        return binaural_references(images, sig, sh_channels(coeffs, 2), CFG,
                                   1200 / 48000)

    for both, ra, rb in zip(refs(a + 3 * b), refs(a), refs(b)):
        np.testing.assert_allclose(both, ra + 3 * rb,
                                   atol=1e-10)


def test_render_reference_decodes_plane_wave_to_hrtf():
    # a single image arriving from direction d must come out as the
    # pressure at the array center weighted by the ear response at d:
    # sum_k D_k a_k(d) = sum_nm H_nm Y_nm(d) = H(d)
    order = 10
    images = _center_images(reflection=0.0, max_order=0)
    assert images.shape == (4, 1)
    doa = images[2:, 0]
    dirs = spiral_grid(600)
    coeffs = sh_fit(dirs, point_receiver_hrtf(0.0875, CFG, dirs), order)
    rng = np.random.default_rng(9)
    x = rng.standard_normal(CFG.window_length * 4)
    full, direct = binaural_references(images, x, sh_channels(coeffs, order),
                                       CFG, 1200 / 48000)
    np.testing.assert_array_equal(full, direct)
    pressure = np.convolve(x, render_rir(*images[:2], 1200, 48000))
    base = stft(pressure, CFG)
    want = point_receiver_hrtf(0.0875, CFG, [doa])
    # judge bins below 2 kHz where the order-10 expansion is converged;
    # normalize by the spectral peak so noise-spectrum dips cannot inflate
    # the relative error
    low = CFG.bin_frequencies() <= 2000.0
    got = direct[0][:, low]
    ideal = base[0][:, low] * want[0, 0, low][None, :]
    err = np.abs(got - ideal).max() / np.abs(base[0][:, low]).max()
    assert err < 10 ** (-50 / 20)  # below -50 dB


def test_binaural_spectrogram_validation(tmp_path):
    # a binaural spectrogram is stored with exactly two channels and the
    # config's bins; a spectrogram of the mics takes any count
    rng = np.random.default_rng(10)
    path = tmp_path / "reference.bsmg"
    for spec in (_spec(rng, 1), _spec(rng, 3), _spec(rng, 2)[..., 1:],
                 _spec(rng, 2)[0]):
        with pytest.raises(ContainerError, match=re.escape(
                f"spectra of shape {spec.shape}, not (2, frames, "
                f"{CFG.num_bins})")):
            write_binaural_spectrogram(path, spec, CFG, "0123456789abcdef")
    assert not path.exists()


@pytest.mark.parametrize("frames", [1, FRAME_BLOCK, FRAME_BLOCK + 1,
                                    2 * FRAME_BLOCK + 5])
def test_block_estimates_bitwise_equal_whole_spectrograms(frames):
    # framed, transformed and filtered FRAME_BLOCK frames at a time, the
    # three estimates carry the bits of the whole-spectrogram path; the
    # frame counts cover one frame, an exact block and partial last blocks
    rng = np.random.default_rng(frames)
    num_samples = CFG.window_length + (frames - 1) * CFG.hop - 7 * (frames > 1)
    assert CFG.num_frames(num_samples) == frames
    full, direct = rng.standard_normal((2, num_samples, 3))
    bank_d, bank_r = _bank(rng, 3), _bank(rng, 3)
    got = render_estimates(full, direct, bank_d, bank_r, CFG)
    x, x_d = stft(full, CFG), stft(direct, CFG)
    # the direct bank on x_d, the reverberant one on x - x_d and on x
    want = [apply_filterbank(bank_d, x_d), apply_filterbank(bank_r, x - x_d),
            apply_filterbank(bank_r, x)]
    assert len(got) == len(want)
    for est, w in zip(got, want):
        assert_bits_equal(est, w)


@pytest.mark.parametrize("direct_shape", [(999, 3), (1000, 2)])
def test_block_estimates_refuse_unequal_signals(direct_shape):
    # framed one block at a time, a shorter direct signal would be padded
    # with zeros instead of refused
    rng = np.random.default_rng(11)
    bank_d, bank_r = _bank(rng, 3), _bank(rng, 3)
    with pytest.raises(ValueError, match="mic signal shapes differ"):
        render_estimates(np.ones((1000, 3)), np.ones(direct_shape), bank_d,
                         bank_r, CFG)
