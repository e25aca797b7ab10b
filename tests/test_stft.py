"""Analysis/synthesis transform: framing, invertibility, conventions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsmrender.stft import StftConfig, istft, stft

from oracles import assert_bits_equal, sliding_frames

CFG = StftConfig.default()  # 32 ms / 16 ms Hamming at 48 kHz


def test_default_config_sizes():
    assert CFG.window_length == 1536
    assert CFG.hop == 768
    assert CFG.fft_size == 2048
    assert CFG.num_bins == 1025


def test_config_validation():
    with pytest.raises(ValueError):
        StftConfig(48000, 0, 10)
    with pytest.raises(ValueError):
        StftConfig(48000, 1000, 300)  # hop does not divide the window
    with pytest.raises(ValueError):
        StftConfig(48000, 1000, 1000)  # no overlap


@pytest.mark.parametrize("window, hop, fft_size", [
    (2, 1, 2), (3, 1, 4), (1024, 512, 1024), (1025, 205, 2048),
    (1536, 768, 2048)])
def test_fft_size_follows_the_window(window, hop, fft_size):
    # the least power of two at or above the window: no other size is set
    assert StftConfig(48000, window, hop).fft_size == fft_size


def test_frame_count_formula():
    w, h = CFG.window_length, CFG.hop
    assert CFG.num_frames(1) == 1
    assert CFG.num_frames(w) == 1
    assert CFG.num_frames(w + 1) == 2
    assert CFG.num_frames(w + h) == 2
    assert CFG.num_frames(w + h + 1) == 3


def test_window_is_periodic_hamming():
    w = CFG.window()
    n = np.arange(CFG.window_length)
    np.testing.assert_allclose(
        w, 0.54 - 0.46 * np.cos(2 * np.pi * n / CFG.window_length), atol=0)


def test_dc_frame_is_window_transform():
    # a constant input leaves exactly the (zero-padded) window spectrum
    spec = stft(np.ones(CFG.window_length), CFG)
    frame = spec[0, 0]
    np.testing.assert_allclose(frame[0], CFG.window().sum(), rtol=1e-12)
    np.testing.assert_allclose(frame, np.fft.rfft(CFG.window(), CFG.fft_size),
                               atol=1e-9)


def test_bin_centered_sinusoid_sidelobes():
    # Hamming sidelobes sit 40+ dB below the peak; the mainlobe spans a few
    # bins because the window is zero-padded to the transform size
    k = 64
    n = np.arange(CFG.window_length)
    x = np.cos(2 * np.pi * k * n / CFG.fft_size)
    mag = np.abs(stft(x, CFG)[0, 0])
    peak = mag[k]
    assert np.argmax(mag) == k
    far = np.concatenate([mag[: k - 6], mag[k + 7 :]])
    assert far.max() < peak * 10 ** (-40 / 20)


def test_single_frame_parseval():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(CFG.window_length)
    xw = x * CFG.window()
    spec = stft(x, CFG)[0, 0]
    n = CFG.fft_size
    # one-sided rFFT energy bookkeeping (DC and Nyquist count once)
    e_spec = (np.abs(spec[0]) ** 2 + np.abs(spec[-1]) ** 2
              + 2 * np.sum(np.abs(spec[1:-1]) ** 2)) / n
    np.testing.assert_allclose(e_spec, np.sum(xw ** 2), rtol=1e-9)


def test_linearity():
    rng = np.random.default_rng(5)
    a = rng.standard_normal(10000)
    b = rng.standard_normal(10000)
    sab = stft(2.5 * a - 1.5 * b, CFG)
    np.testing.assert_allclose(
        sab, 2.5 * stft(a, CFG) - 1.5 * stft(b, CFG), atol=1e-12)


def test_round_trip_multichannel():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((48000, 3))
    y = istft(stft(x, CFG), CFG, num_samples=48000)
    assert y.shape == (48000, 3)
    w = CFG.window_length
    err = np.abs(y[w:-w] - x[w:-w]).max()
    assert err < 1e-10


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4000), st.integers(1, 4), st.integers(1, 64),
       st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_round_trip_property(num_samples, channels, hop, overlap, seed):
    # every window and hop StftConfig accepts (the hop dividing the window
    # with at least 50% overlap) inverts on the interior within acceptance
    # 04's bound. The Hamming window never reaches zero, so the edges
    # invert too and the interior is the whole signal.
    window = hop * overlap
    cfg = StftConfig(48000, window, hop)
    x = np.random.default_rng(seed).standard_normal((num_samples, channels))
    y = istft(stft(x, cfg), cfg, num_samples=num_samples)
    assert y.shape == x.shape
    assert np.linalg.norm(y - x) <= 1e-10 * np.linalg.norm(x)


def test_zeros_stay_zero():
    spec = stft(np.zeros(4096), CFG)
    np.testing.assert_array_equal(spec, 0)
    np.testing.assert_array_equal(istft(spec, CFG, 4096), 0)


def test_complex_input_keeps_analytic_sign():
    # the real-signal transform refuses complex input instead of
    # silently dropping its imaginary part
    k = 100
    n = np.arange(CFG.window_length)
    up = np.exp(2j * np.pi * k * n / CFG.fft_size)
    with pytest.raises(ValueError):
        stft(up, CFG)


def test_spectrogram_validation():
    # a spectrogram is a complex (channels, frames, bins) array on CFG
    spec = stft(np.ones(2000), CFG)
    assert spec.shape == (1, CFG.num_frames(2000), CFG.num_bins)
    assert spec.dtype == np.complex128
    with pytest.raises(ValueError):
        stft(np.array([]), CFG)


@settings(max_examples=60)
@given(st.integers(1, 6000), st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.integers(1, 12))
def test_stft_bitwise_equals_padded_frame_transform(num_samples, channels,
                                                    seed, block):
    # frames written into the zero-padded FFT buffer transform to the same
    # bits as the window-length frames padded by rfft's n argument; the
    # lengths cover a partial frame, exact multiples of the hop and the
    # window, and tails of one or two frames. Framed and transformed
    # `block` frames at a time, they give the same bits again.
    x = np.random.default_rng(seed).standard_normal((num_samples, channels))
    want = np.fft.rfft(sliding_frames(x.T, CFG), n=CFG.fft_size, axis=2)
    assert_bits_equal(stft(x, CFG), want)
    count = CFG.num_frames(num_samples)
    blocks = [stft(x, CFG, start, min(start + block, count))
              for start in range(0, count, block)]
    assert_bits_equal(np.concatenate(blocks, axis=1), want)


@pytest.mark.parametrize("num_samples", [1, 767, 768, 1535, 1536, 1537,
                                         2304, 2305, 48000])
def test_frames_match_padded_copy_framing(num_samples):
    x = np.random.default_rng(num_samples).standard_normal((num_samples, 2))
    got = stft(x, CFG)
    want = np.fft.rfft(sliding_frames(x.T, CFG), n=CFG.fft_size, axis=2)
    assert_bits_equal(got, want)
    # a frame range transforms the same rows, the last one partial or not
    count = got.shape[1]
    for start, stop in ((0, count), (0, 1), (count - 1, count),
                        (count // 2, count), (count // 3, 2 * count // 3),
                        (count, count)):
        assert_bits_equal(stft(x, CFG, start, stop),
                          got[:, start:stop])
    assert_bits_equal(stft(x, CFG, count // 2), got[:, count // 2 :])
