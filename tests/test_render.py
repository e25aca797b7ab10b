"""Filter application, decomposition algebra and binaural SH references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsmrender.geometry import Direction
from bsmrender.hrtf import point_receiver_hrtf
from bsmrender.render import apply_filterbank, decode_matrix
from bsmrender.simulate import RoomSpec, binaural_references, \
    compute_image_sources, render_rir
from bsmrender.solvers import BsmFilterBank, SolverConfig
from bsmrender.sph import spiral_grid
from bsmrender.stft import BINAURAL_TAGS, MIC_TAGS, Spectrogram, StftConfig, \
    stft
from oracles import sh_fit

CFG = StftConfig(48000, 256, 128)  # fft 256, 129 bins
BINS = CFG.num_bins


def _spec(rng, channels, frames=5, tag="x"):
    data = (rng.standard_normal((channels, frames, BINS))
            + 1j * rng.standard_normal((channels, frames, BINS)))
    return Spectrogram(data=data, config=CFG, tag=tag)


def _bank(rng, mics, tag="reverberant"):
    shape = (BINS, mics)
    draw = lambda: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return BsmFilterBank(ears=np.stack([draw(), draw()]), tag=tag,
                         config=SolverConfig(), sample_rate=48000,
                         fft_size=CFG.fft_size)


def test_apply_filterbank_against_double_loop():
    rng = np.random.default_rng(0)
    x = _spec(rng, 4)
    bank = _bank(rng, 4)
    out = apply_filterbank(bank, x)
    want = np.zeros((5, BINS), complex)
    for f in range(5):
        for b in range(BINS):
            want[f, b] = np.vdot(bank.ears[0, b], x.data[:, f, b])
    assert out.data.shape == (2, 5, BINS)
    np.testing.assert_allclose(out.data[0], want, atol=1e-12)
    want_r = np.einsum("mfb,bm->fb", x.data, np.conj(bank.ears[1]))
    np.testing.assert_allclose(out.data[1], want_r, atol=1e-12)


def test_apply_filterbank_selector():
    # a one-hot real filter just picks out that microphone
    rng = np.random.default_rng(1)
    x = _spec(rng, 3)
    ears = np.zeros((2, BINS, 3), complex)
    ears[0, :, 1] = 1.0
    ears[1, :, 2] = 1.0
    bank = BsmFilterBank(ears=ears, tag="reverberant",
                         config=SolverConfig(), sample_rate=48000,
                         fft_size=CFG.fft_size)
    out = apply_filterbank(bank, x)
    np.testing.assert_array_equal(out.data[0], x.data[1])
    np.testing.assert_array_equal(out.data[1], x.data[2])


def test_apply_filterbank_zero_bank():
    rng = np.random.default_rng(2)
    x = _spec(rng, 2)
    bank = BsmFilterBank(ears=np.zeros((2, BINS, 2), complex), tag="direct",
                         config=SolverConfig(), sample_rate=48000,
                         fft_size=CFG.fft_size)
    out = apply_filterbank(bank, x)
    np.testing.assert_array_equal(out.data, 0)


def test_apply_filterbank_origin_tags():
    rng = np.random.default_rng(3)
    bank = _bank(rng, 2)
    for tag_in, tag in (("x", "bsm-standard"), ("x_d", "component-direct"),
                        ("x_r", "component-reverb")):
        out = apply_filterbank(bank, _spec(rng, 2, tag=tag_in))
        assert out.tag == tag
    # a binaural spectrogram is not a recording
    with pytest.raises(ValueError):
        apply_filterbank(bank, _spec(rng, 2, tag="reference"))


def test_apply_filterbank_is_linear_over_components():
    rng = np.random.default_rng(4)
    bank = _bank(rng, 3)
    x_d = _spec(rng, 3, tag="x_d")
    x_r = _spec(rng, 3, tag="x_r")
    x = Spectrogram(data=x_d.data + x_r.data, config=CFG, tag="x")
    whole = apply_filterbank(bank, x)
    split = apply_filterbank(bank, x_d) + apply_filterbank(bank, x_r)
    assert split.tag == "bsm-decomposed"
    np.testing.assert_allclose(split.data, whole.data, atol=1e-12)


def test_decompose_measurement():
    rng = np.random.default_rng(5)
    x = _spec(rng, 3, tag="x")
    x_d = _spec(rng, 3, tag="x_d")
    x_r = x - x_d
    assert x_r.tag == "x_r"
    np.testing.assert_array_equal(x_r.data, x.data - x_d.data)
    with pytest.raises(ValueError):
        x_d - x  # operands swapped
    with pytest.raises(ValueError):
        x - x  # second must be x_d
    with pytest.raises(ValueError):
        x - _spec(rng, 2, tag="x_d")  # channel counts differ


def test_render_standard_and_decomposed_agree_with_shared_bank():
    rng = np.random.default_rng(6)
    bank = _bank(rng, 3)
    x = _spec(rng, 3, tag="x")
    x_d = _spec(rng, 3, tag="x_d")
    standard = apply_filterbank(bank, x)
    decomposed = apply_filterbank(bank, x_d) + apply_filterbank(bank, x - x_d)
    assert standard.tag == "bsm-standard"
    assert decomposed.tag == "bsm-decomposed"
    np.testing.assert_allclose(decomposed.data, standard.data, atol=1e-12)


@settings(max_examples=30)
@given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_decomposition_identity(mics, frames, seed):
    # x - x_d is x_r, and the decomposed rendering with one shared bank
    # is the standard one up to rounding
    rng = np.random.default_rng(seed)
    bank = _bank(rng, mics)
    x = _spec(rng, mics, frames, tag="x")
    x_d = _spec(rng, mics, frames, tag="x_d")
    x_r = x - x_d
    assert x_r.tag == "x_r"
    split = apply_filterbank(bank, x_d) + apply_filterbank(bank, x_r)
    whole = apply_filterbank(bank, x)
    assert split.tag == "bsm-decomposed"
    scale = np.abs(whole.data).max()
    np.testing.assert_allclose(split.data, whole.data, rtol=0,
                               atol=1e-13 * scale)


def test_binaural_tag_algebra():
    rng = np.random.default_rng(7)

    def bs(tag):
        return _spec(rng, 2, frames=4, tag=tag)

    total = bs("component-direct") + bs("component-reverb")
    assert total.tag == "bsm-decomposed"
    assert (bs("component-reverb") + bs("component-direct")).tag \
        == "bsm-decomposed"
    with pytest.raises(ValueError):
        bs("component-direct") + bs("component-direct")
    with pytest.raises(ValueError):
        bs("bsm-standard") + bs("component-reverb")
    rev = bs("reference") - bs("reference-direct")
    assert rev.tag == "reference-reverb"
    with pytest.raises(ValueError):
        bs("reference") - bs("reference")
    with pytest.raises(ValueError):
        bs("mystery")


ALLOWED = {("-", "x", "x_d"), ("-", "reference", "reference-direct"),
           ("+", "component-direct", "component-reverb"),
           ("+", "component-reverb", "component-direct")}


@settings(max_examples=100)
@given(st.sampled_from(("+", "-")), st.sampled_from(MIC_TAGS + BINAURAL_TAGS),
       st.sampled_from(MIC_TAGS + BINAURAL_TAGS))
def test_tag_pairs_outside_the_rules_raise(op, tag_a, tag_b):
    rng = np.random.default_rng(0)
    a = _spec(rng, 2, frames=3, tag=tag_a)
    b = _spec(rng, 2, frames=3, tag=tag_b)
    combine = (lambda: a + b) if op == "+" else (lambda: a - b)
    if (op, tag_a, tag_b) in ALLOWED:
        combine()
    else:
        with pytest.raises(ValueError):
            combine()


def test_decode_matrix_flips_degree_sign():
    hs = point_receiver_hrtf(0.0875, StftConfig(48000, 4, 2), spiral_grid(64))
    coeffs = sh_fit(hs, 3)
    # flat index n^2 + n + m; decoding swaps m -> -m with a parity sign.
    # A lower order decodes the leading rows of the fit, and an order
    # above the fit's decodes all of them
    for order, kept in ((3, 3), (2, 2), (5, 3)):
        g = decode_matrix(coeffs, order)
        assert g.shape == (2, (kept + 1) ** 2, 3)
        for n in range(kept + 1):
            for m in range(-n, n + 1):
                want = (-1) ** m * coeffs.ears[:, n * n + n - m]
                np.testing.assert_array_equal(g[:, n * n + n + m], want)


def _center_images(reflection=0.8, max_order=2, rir_len=1200):
    room = RoomSpec(dimensions=(4.0, 3.0, 2.5),
                    reflection_coefficients=(reflection,) * 6)
    return compute_image_sources(room, (3.0, 1.2, 1.3), (1.0, 2.0, 1.1),
                                 max_order, (rir_len - 17) / 48000)


def test_render_reference_zero_input_is_silent():
    coeffs = sh_fit(point_receiver_hrtf(0.0875, CFG, spiral_grid(64)), 3)
    refs = binaural_references(_center_images(), np.zeros(1000), coeffs, CFG,
                               3, 1200 / 48000)
    assert [r.tag for r in refs] == ["reference", "reference-direct"]
    for ref in refs:
        assert ref.num_channels == 2
        np.testing.assert_array_equal(ref.data, 0)


def test_render_reference_linearity():
    rng = np.random.default_rng(8)
    coeffs = sh_fit(point_receiver_hrtf(0.0875, CFG, spiral_grid(64)), 2)
    images = _center_images()
    a, b = rng.standard_normal((2, 800))

    def refs(sig):
        return binaural_references(images, sig, coeffs, CFG, 2, 1200 / 48000)

    for both, ra, rb in zip(refs(a + 3 * b), refs(a), refs(b)):
        np.testing.assert_allclose(both.data, ra.data + 3 * rb.data,
                                   atol=1e-10)


def test_render_reference_decodes_plane_wave_to_hrtf():
    # a single image arriving from direction d must come out as the
    # pressure at the array center weighted by the ear response at d:
    # sum_nm G_nm conj(Y_nm(d)) = H(d)
    order = 10
    images = _center_images(reflection=0.0, max_order=0)
    assert images.count == 1
    doa = Direction(images.colatitudes[0], images.azimuths[0])
    hs = point_receiver_hrtf(0.0875, CFG, spiral_grid(600))
    coeffs = sh_fit(hs, order)
    rng = np.random.default_rng(9)
    x = rng.standard_normal(CFG.window_length * 4)
    full, direct = binaural_references(images, x, coeffs, CFG, order,
                                       1200 / 48000)
    np.testing.assert_array_equal(full.data, direct.data)
    pressure = np.convolve(x, render_rir(images, 1200, 48000))
    base = stft(pressure, CFG)
    want = point_receiver_hrtf(0.0875, CFG, [doa])
    # judge bins below 2 kHz where the order-10 expansion is converged;
    # normalize by the spectral peak so noise-spectrum dips cannot inflate
    # the relative error
    low = CFG.bin_frequencies() <= 2000.0
    got = direct.data[0][:, low]
    ideal = base.data[0][:, low] * want.ears[0, 0, low][None, :]
    err = np.abs(got - ideal).max() / np.abs(base.data[0][:, low]).max()
    assert err < 10 ** (-50 / 20)  # below -50 dB


def test_binaural_spectrogram_validation():
    # binaural tags need exactly two channels; mic tags take any count
    rng = np.random.default_rng(10)
    for channels in (1, 3):
        with pytest.raises(ValueError):
            _spec(rng, channels, tag="reference")
        assert _spec(rng, channels, tag="x").num_channels == channels
    other = Spectrogram(data=rng.standard_normal((2, 4, 129)) + 0j,
                        config=StftConfig(48000, 128, 64, fft_size=256),
                        tag="reference-direct")
    with pytest.raises(ValueError):
        _spec(rng, 2, frames=4, tag="reference") - other  # configs differ
    ok = _spec(rng, 2, frames=4, tag="reference")
    assert ok.num_frames == 4
