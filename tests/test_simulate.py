"""Shoebox image-source model, RIR rendering, binaural SH references and
room statistics."""

import tracemalloc

import numpy as np
import pytest
import scipy.signal as sps
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bsmrender import config as cfgmod
from bsmrender.evaluate import band_summary, nmse, octave_bands
from bsmrender.geometry import SPEED_OF_SOUND, semicircle_array
from bsmrender.hrtf import point_receiver_channels, \
    point_receiver_hrtf, sh_channels
from bsmrender import simulate
from bsmrender.simulate import (
    _convolver,
    _fast_len,
    Scene,
    add_noise,
    binaural_references,
    compute_image_sources,
    estimate_t60,
    eyring_t60,
    image_lattice,
    reflection_for_t60,
    render_mic_signals,
    render_rir,
    scene_images,
    scene_statistics,
    synth_speech_noise,
)
from bsmrender.sph import spiral_grid
from bsmrender.stft import StftConfig
from oracles import assert_bits_equal, compute_image_sources_per_receiver, \
    delay_matrix_coo, point_ear_spectrograms, point_receiver_sh, \
    sh_degrees, sh_fit
from sh_oracle import binaural_references_serial, render_reference, \
    render_reference_plane_waves

DIMS = (4.0, 3.0, 2.5)
REFL = (0.8,) * 6
SRC = (3.0, 1.2, 1.3)
RCV = (1.0, 2.0, 1.1)


def _scene(refl=REFL, src=SRC, seconds=0.2, fs=48000, mics=3, seed=0):
    sig = synth_speech_noise(int(seconds * fs), fs, seed)
    return Scene(DIMS, refl, src, sig, RCV, semicircle_array(mics, 0.05), fs)


def test_scene_receivers_are_the_center_then_each_mic():
    # the mic positions are relative to the array center: the receivers
    # are the center, then each of them offset by it
    scene = _scene(mics=2)
    np.testing.assert_array_equal(scene.receivers[0], RCV)
    np.testing.assert_allclose(scene.receivers[1:],
                               [(0.95, 2.0, 1.1), (1.05, 2.0, 1.1)],
                               rtol=0, atol=1e-15)


def test_rir_shorter_than_the_direct_path_is_named():
    # an RIR that cannot hold the direct path with its sinc taps would
    # leave a receiver without images; the error names the length that fits
    scene = _scene()
    with pytest.raises(ValueError, match="shorter than the direct path") \
            as err:
        scene_images(scene, 2, 0.001)
    need = float(str(err.value).rsplit(">= ", 1)[1])
    center, mics = scene_images(scene, 2, need)
    assert all(imgs.shape[1] >= 1 for imgs in [center, *mics])
    with pytest.raises(ValueError, match="shorter than the direct path"):
        scene_images(scene, 2, need - 1.0 / scene.sample_rate)


def test_direct_path_gain_and_delay():
    imgs = compute_image_sources(image_lattice(DIMS, REFL, SRC, 0), RCV)
    assert imgs.shape == (4, 1)
    gain, delay, th, ph = imgs[:, 0]
    diff = np.array(SRC) - np.array(RCV)
    d = np.linalg.norm(diff)
    np.testing.assert_allclose(gain, 1.0 / (4 * np.pi * d), rtol=1e-12)
    np.testing.assert_allclose(delay, d / SPEED_OF_SOUND, rtol=1e-12)
    # the direct path arrives from the source
    np.testing.assert_allclose(
        [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)],
        diff / d, atol=1e-12)


def test_fully_absorptive_walls_leave_direct_only():
    imgs = compute_image_sources(image_lattice(DIMS, (0.0,) * 6, SRC, 6), RCV)
    assert imgs.shape == (4, 1)  # zero-gain images are dropped


def test_images_sorted_and_capped_by_delay():
    max_delay = 0.02
    delays = compute_image_sources(image_lattice(DIMS, REFL, SRC, 10, max_delay),
                                   RCV, max_delay)[1]
    assert np.all(np.diff(delays) >= 0)
    assert delays.max() <= max_delay


def test_image_lattice_against_brute_force():
    # directly enumerate mirrored positions for order <= 2 and compare,
    # each image keyed by its distance and arrival direction
    refl = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4)
    got = compute_image_sources(image_lattice(DIMS, refl, SRC, 2), RCV)
    lx, ly, lz = DIMS
    want = {}
    for nx in range(-2, 3):
        for px in (0, 1):
            for ny in range(-2, 3):
                for py in (0, 1):
                    for nz in range(-2, 3):
                        for pz in (0, 1):
                            order = (abs(nx - px) + abs(nx) + abs(ny - py)
                                     + abs(ny) + abs(nz - pz) + abs(nz))
                            if order > 2:
                                continue
                            pos = (
                                (1 - 2 * px) * SRC[0] + 2 * nx * lx,
                                (1 - 2 * py) * SRC[1] + 2 * ny * ly,
                                (1 - 2 * pz) * SRC[2] + 2 * nz * lz,
                            )
                            g = (refl[0] ** abs(nx - px) * refl[1] ** abs(nx)
                                 * refl[2] ** abs(ny - py) * refl[3] ** abs(ny)
                                 * refl[4] ** abs(nz - pz) * refl[5] ** abs(nz))
                            diff = np.array(pos) - np.array(RCV)
                            d = np.linalg.norm(diff)
                            key = tuple(np.round([d, *diff / d], 9))
                            want[key] = g / (4 * np.pi * d)
    assert got.shape == (4, len(want))
    gains, delays, th, ph = got
    keys = np.round(np.stack([delays * SPEED_OF_SOUND,
                              np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                              np.cos(th)], axis=1), 9)
    for key, gain in zip(keys, gains):
        assert tuple(key) in want
        np.testing.assert_allclose(gain, want[tuple(key)], rtol=1e-10)
    with pytest.raises(ValueError, match="source must be inside the room"):
        image_lattice(DIMS, refl, (4.5, 1.2, 1.3), 2)


def test_image_set_symmetric_under_room_inversion():
    # reflecting the whole setup through the room center relabels walls
    # within each parallel pair; uniform coefficients keep the RIR identical
    dims = np.array(DIMS)
    src2 = tuple(dims - np.array(SRC))
    rcv2 = tuple(dims - np.array(RCV))
    a = compute_image_sources(image_lattice(DIMS, REFL, SRC, 4), RCV)
    b = compute_image_sources(image_lattice(DIMS, REFL, src2, 4), rcv2)
    # each row sorted: the delays and the gains as sets
    np.testing.assert_allclose(np.sort(a[:2]), np.sort(b[:2]), atol=1e-12)


def test_reverb_energy_monotone_in_reflectivity():
    energies = []
    for beta in (0.3, 0.6, 0.9):
        imgs = compute_image_sources(
            image_lattice(DIMS, (beta,) * 6, SRC, 8), RCV)
        energies.append(np.sum(imgs[0, 1:] ** 2))
    assert energies[0] < energies[1] < energies[2]


def test_render_rir_places_pulse_at_geometric_delay():
    fs = 48000
    imgs = compute_image_sources(image_lattice(DIMS, REFL, SRC, 0), RCV)
    rir = render_rir(*imgs[:2], 2000, fs)
    d = np.linalg.norm(np.array(SRC) - np.array(RCV))
    # peak within a sample of the geometric delay
    assert abs(np.argmax(np.abs(rir)) - d / SPEED_OF_SOUND * fs) <= 1.0
    np.testing.assert_allclose(np.sum(rir), imgs[0, 0], rtol=1e-3)


def _assert_scatter_matches_coo(gains, delays, num_samples, fs, seed):
    # every column of a 4- and an 8-column weight matrix, scattered one at
    # a time, against the sparse matrix's product with all of them
    want = delay_matrix_coo(delays, num_samples, fs)
    assert_bits_equal(render_rir(gains, delays, num_samples, fs),
                      want @ gains)
    taps, rows = simulate._delay_taps(delays, num_samples, fs)
    rng = np.random.default_rng(seed)
    for cols in (4, 8):
        w = rng.standard_normal((delays.size, cols))
        got = [simulate._scatter(taps, rows, col, num_samples) for col in w.T]
        assert_bits_equal(np.stack(got, axis=1), want @ w)


# delays in samples: anywhere in or past the RIR, plus the stretches where
# taps fall before its first sample or past its last
@settings(max_examples=80)
@given(st.integers(1, 120), st.data(), st.integers(0, 2**32 - 1),
       st.sampled_from([1, 3, 4, simulate.DELAY_BLOCK]))
def test_scatter_bitwise_equals_coo(num_samples, data, seed, block):
    # bincount adds every sample's taps in image order, as the COO -> CSR
    # matrix does; overlapping taps make the order matter. Small blocks
    # give lists longer than one block, exact multiples of it and a partial
    # last block
    where = (st.floats(0.0, num_samples + 20.0) | st.floats(0.0, 16.0)
             | st.floats(max(num_samples - 16.0, 0.0), num_samples + 0.0))
    rows = data.draw(st.lists(st.tuples(where, st.floats(-1.0, 1.0)),
                              max_size=12))
    fs = 48000
    d_samp, gains = np.array(rows, dtype=float).reshape(-1, 2).T
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "DELAY_BLOCK", block)
        _assert_scatter_matches_coo(gains, d_samp / fs, num_samples, fs,
                                    seed)


@pytest.mark.parametrize("count", [simulate.DELAY_BLOCK - 1,
                                   simulate.DELAY_BLOCK,
                                   2 * simulate.DELAY_BLOCK,
                                   2 * simulate.DELAY_BLOCK + 5])
def test_blocked_delay_matrix_bitwise_equals_coo(count):
    # at the module's block size: one block less one image, exactly one and
    # two blocks, and two blocks with a partial third
    rng = np.random.default_rng(count)
    num_samples, fs = 600, 48000
    d_samp = rng.uniform(-20.0, num_samples + 20.0, count)
    _assert_scatter_matches_coo(rng.standard_normal(count), d_samp / fs,
                                num_samples, fs, count)


@pytest.mark.parametrize("count", [3_000, 30_000])
def test_delay_matrix_peak_memory(count):
    # the taps are formed a block of images at a time into their own
    # array: the peak is the tap and row arrays, the per-image delays and
    # base samples, and one block's temporaries (np.sinc alone holds four),
    # however many images there are. Forming every image's taps at once
    # would hold several more (images, SINC_TAPS) arrays
    rng = np.random.default_rng(0)
    num_samples, fs = 40_000, 48000
    delays = rng.uniform(0.0, num_samples, count) / fs
    tracemalloc.start()
    try:
        taps, rows = simulate._delay_taps(delays, num_samples, fs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = taps.nbytes + rows.nbytes
    per_image = 2 * count * 8
    block = simulate.DELAY_BLOCK * simulate.SINC_TAPS * 8
    assert np.count_nonzero(rows < num_samples) \
        > 0.99 * count * simulate.SINC_TAPS
    assert peak <= arrays + per_image + 6 * block, \
        (peak, arrays, per_image, block)


@pytest.mark.parametrize("reflection", [0.8, 0.0])
def test_scene_delay_matrix_bitwise_equals_coo(reflection):
    # a reverberant room's many overlapping taps, and the empty reverberant
    # list of an anechoic room
    center, _ = scene_images(_scene(refl=(reflection,) * 6, seconds=0.05),
                             6, 0.05)
    gains, delays = center[:2, 1:]
    assert (gains.size == 0) == (reflection == 0.0)
    _assert_scatter_matches_coo(gains, delays, 2400, 48000, 0)


def test_mic_signals_split_and_anechoic_identity():
    scene = _scene(refl=(0.0,) * 6, seconds=0.1)
    full, direct, reverb = render_mic_signals(
        scene, scene_images(scene, 4, 0.05), 0.05)
    assert full.shape == direct.shape == reverb.shape
    assert full.shape[1] == 3
    np.testing.assert_array_equal(reverb, 0.0)
    np.testing.assert_array_equal(full, direct)


def test_mic_signals_decomposition_identity():
    scene = _scene(seconds=0.1)
    full, direct, reverb = render_mic_signals(
        scene, scene_images(scene, 3, 0.05), 0.05)
    np.testing.assert_array_equal(full, direct + reverb)
    assert np.sum(reverb ** 2) > 0


@st.composite
def _small_shoeboxes(draw):
    """A small valid scene at 16 kHz, its reflection order and an RIR long
    enough for the direct path to every receiver."""
    fs = 16000
    dims = np.array([draw(st.floats(1.0, 4.0)) for _ in range(3)])
    source = dims * [draw(st.floats(0.1, 0.9)) for _ in range(3)]
    center = dims * [draw(st.floats(0.2, 0.8)) for _ in range(3)]
    mics = semicircle_array(draw(st.integers(1, 4)),
                            draw(st.floats(0.01, 0.1)))
    try:
        simulate.check_positions(dims, source, center, mics, "mics")
    except ValueError:
        assume(False)
    refl = [draw(st.sampled_from([0.0, 0.3, 0.9])) for _ in range(6)]
    far = np.linalg.norm(source - [center, *(mics + center)], axis=1).max()
    rir_seconds = (far / SPEED_OF_SOUND + 20 / fs
                   + draw(st.floats(0.0, 0.02)))
    signal = synth_speech_noise(draw(st.integers(2, 400)), fs,
                                draw(st.integers(0, 2**32 - 1)))
    scene = Scene(dims, np.array(refl), source, signal, center, mics, fs)
    return scene, draw(st.integers(0, 3)), rir_seconds


@settings(max_examples=40, deadline=None)
@given(_small_shoeboxes())
def test_decomposition_identity_holds_in_any_small_shoebox(drawn):
    # full == direct + reverb to the bit, and with every wall absorbing
    # the reverberant part is exactly zero and the full signals are the
    # direct ones, which the walls do not touch
    scene, order, rir_seconds = drawn
    full, direct, reverb = render_mic_signals(
        scene, scene_images(scene, order, rir_seconds), rir_seconds)
    assert_bits_equal(full, direct + reverb)
    anechoic = scene._replace(reflection_coefficients=np.zeros(6))
    full_0, direct_0, reverb_0 = render_mic_signals(
        anechoic, scene_images(anechoic, order, rir_seconds), rir_seconds)
    assert not np.any(reverb_0)
    assert_bits_equal(full_0, direct_0)
    assert_bits_equal(direct_0, direct)


def test_mic_signal_delay_between_mics():
    # cross-correlation of an anechoic recording peaks at the geometric
    # inter-mic delay difference
    fs = 48000
    sig = synth_speech_noise(int(0.3 * fs), fs, 1)
    scene = Scene((10.0, 10.0, 4.0), (0.0,) * 6, (8.0, 5.0, 2.0), sig,
                  (5.0, 5.0, 2.0), semicircle_array(2, 0.5), fs)
    full, _, _ = render_mic_signals(scene, scene_images(scene, 0, 0.08),
                                    0.08)
    lags = sps.correlation_lags(full.shape[0], full.shape[0])
    xc = sps.correlate(full[:, 0], full[:, 1])
    got = lags[np.argmax(np.abs(xc))]
    pos = scene.receivers[1:]
    d0 = np.linalg.norm(pos[0] - np.array(scene.source_position))
    d1 = np.linalg.norm(pos[1] - np.array(scene.source_position))
    want = (d0 - d1) / SPEED_OF_SOUND * fs
    assert abs(got - want) <= 1.0


@settings(max_examples=150)
@given(st.integers(1, 300), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_fft_convolve_bitwise_equals_fftconvolve(len_a, len_b, seed):
    # one convolver, its source's spectrum taken once, serves every RIR
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(len_a)
    convolve = _convolver(a, len_b)
    for b in rng.standard_normal((2, len_b)):
        assert_bits_equal(convolve(b), sps.fftconvolve(a, b))


def test_fast_len_equals_scipy_next_fast_len():
    # the smallest 5-smooth size >= n, as scipy.fft's real-transform rule
    from scipy.fft import next_fast_len

    sizes = [*range(1, 5000), 278_399, 279_936, 279_937, 2**20 + 1]
    assert [_fast_len(n) for n in sizes] == \
        [next_fast_len(n, True) for n in sizes]


def test_sh_reference_order_zero_matches_pressure():
    # channel 0 is the omni pressure at the array center scaled by the
    # constant basis function
    scene = _scene(seconds=0.05)
    fs = scene.sample_rate
    sh = render_reference_plane_waves(scene, 0, 2, 0.04)
    max_delay = (int(0.04 * fs) - 17) / fs
    imgs = compute_image_sources(
        image_lattice(scene.room_dimensions, scene.reflection_coefficients,
                      scene.source_position, 2, max_delay),
        scene.array_center, max_delay)
    rir = render_rir(*imgs[:2], int(0.04 * fs), fs)
    want = sps.fftconvolve(np.asarray(scene.source_signal), rir)
    np.testing.assert_allclose(sh[:, 0].real,
                               want / np.sqrt(4 * np.pi), atol=1e-10)
    np.testing.assert_allclose(sh[:, 0].imag, 0.0, atol=1e-12)


def test_sh_reference_direct_only_keeps_first_image():
    scene = _scene(seconds=0.05)
    full = render_reference_plane_waves(scene, 1, 2, 0.04)
    direct = render_reference_plane_waves(scene, 1, 2, 0.04, direct_only=True)
    assert full.shape == direct.shape == (full.shape[0], 4)
    # the direct wave is the leading arrival, identical in both renders
    head = np.abs(direct).sum(axis=1)
    first = np.nonzero(head > 1e-12)[0][0]
    np.testing.assert_allclose(full[: first + 16], direct[: first + 16],
                               atol=1e-8)


def _hrtf_sh(cfg, order):
    dirs = spiral_grid(200)
    return sh_fit(dirs, point_receiver_hrtf(0.0875, cfg, dirs), order)


def _reference_hrtf(kind, cfg, ref_order, hrtf_order):
    """The SH coefficients an oracle decodes with and the real channels
    binaural_references takes for the same HRTF at min(ref_order,
    hrtf_order): the point model fitted or projected, at ear offset 0
    (the flat model) at order 0, or SH ears drawn at random."""
    order = min(ref_order, hrtf_order)
    if kind in ("point", "flat"):
        offset, order = (0.0875, order) if kind == "point" else (0.0, 0)
        return (point_receiver_sh(offset, cfg, order),
                point_receiver_channels(offset, cfg, order))
    coeffs = _hrtf_sh(cfg, hrtf_order)
    if kind == "drawn":
        rng = np.random.default_rng(7)
        shape = coeffs.shape[1:]
        draw = lambda: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        coeffs = np.stack([draw(), draw()])
    return coeffs, sh_channels(coeffs, ref_order)


@pytest.mark.parametrize("kind, ref_order, hrtf_order", [
    pytest.param("fit", 5, 6, id="5-6"), pytest.param("fit", 6, 4, id="6-4"),
    pytest.param("point", 6, 4, id="point-6-4"),
    pytest.param("flat", 5, 6, id="flat-5-6")])
def test_binaural_references_match_oracle(kind, ref_order, hrtf_order):
    # rank-one direct path and real channels against the full complex128
    # encode -> STFT -> decode route, including HRTF truncation, for a
    # fitted set and the two projected models
    scene = _scene(seconds=0.1)
    cfg = StftConfig(48000, 512, 256)
    coeffs, channels = _reference_hrtf(kind, cfg, ref_order, hrtf_order)
    center, _ = scene_images(scene, 6, 0.05)
    full, direct = binaural_references(center, scene.source_signal, channels,
                                       cfg, 0.05)
    for got, direct_only in ((full, False), (direct, True)):
        sh = render_reference_plane_waves(scene, ref_order, 6, 0.05,
                                          direct_only=direct_only)
        want = render_reference(sh, coeffs, cfg)
        for ear in range(2):
            err = np.linalg.norm(got[ear] - want[ear]) \
                / np.linalg.norm(want[ear])
            assert err <= 1e-10, (direct_only, ear, err)


def test_point_reference_matches_the_ear_signals():
    # an oracle that shares no SH code with the reference: desk's point
    # model ear signals, each image shifted by its interaural lead. In the
    # octave bands below 5.66 kHz the order-14 reference measured -32.5 to
    # -36.5 dB from them on both ears, the floor of its STFT-domain decode;
    # -30 dB leaves 2.5 dB. Swapped ears or a conjugated decode fail it
    cfg = cfgmod.resolve("desk", seed=0)
    scene, stft_cfg = cfgmod.build_scene(cfg), cfgmod.build_stft_config(cfg)
    rir_s, design = cfg["scene"]["rir_seconds"], cfg["design"]
    center, _ = scene_images(scene, cfg["scene"]["max_reflection_order"],
                             rir_s)
    channels = point_receiver_channels(design["hrtf_ear_offset"], stft_cfg,
                                       design["reference_order"])
    reference, _ = binaural_references(center, scene.source_signal,
                                       channels, stft_cfg, rir_s)
    ears = point_ear_spectrograms(center, scene.source_signal,
                                  design["hrtf_ear_offset"], stft_cfg, rir_s)
    bands = [band for band in octave_bands() if band[1] < 5.66e3]
    assert len(bands) == 6
    per_band = band_summary(*nmse(reference, ears),
                            stft_cfg.bin_frequencies(), bands)
    assert np.all(per_band < -30.0), per_band


@settings(max_examples=20)
@given(st.tuples(st.floats(0.3, 3.7), st.floats(0.3, 2.7), st.floats(0.3, 2.2)),
       st.floats(0.0, 0.95), st.integers(0, 4))
def test_sh_encoding_conjugate_symmetry(source, reflection, order):
    # real source + Condon-Shortley phase: p_(n,-m) = (-1)^m conj(p_(n,m)),
    # the identity the chunked oracle uses to skip the m < 0 channels
    assume(np.linalg.norm(np.subtract(source, RCV)) > 0.2)  # off the array
    scene = _scene(refl=(reflection,) * 6, src=source, seconds=0.01)
    p = render_reference_plane_waves(scene, order, 3, 0.01)
    n, m = sh_degrees(order)
    mirror = n * n + n - m
    sign = np.where(m % 2 == 0, 1.0, -1.0)
    np.testing.assert_allclose(p[:, mirror], sign * np.conj(p),
                               rtol=0, atol=1e-12 * np.abs(p).max())


def test_anechoic_reverberant_reference_is_exactly_zero():
    scene = _scene(refl=(0.0,) * 6, seconds=0.1)
    cfg = StftConfig(48000, 512, 256)
    center, _ = scene_images(scene, 4, 0.05)
    full, direct = binaural_references(
        center, scene.source_signal, sh_channels(_hrtf_sh(cfg, 4), 4), cfg,
        0.05)
    np.testing.assert_array_equal(full - direct, 0.0)


def _assert_images_bitwise(got, refl, source, receiver, max_order,
                           max_delay):
    want = compute_image_sources_per_receiver(DIMS, refl, source, receiver,
                                              max_order, max_delay)
    assert got.shape == want.shape, receiver
    for name, one, other in zip(("gain", "delay", "colatitude", "azimuth"),
                                got, want):
        assert one.tobytes() == other.tobytes(), (name, receiver)


@pytest.mark.parametrize("refl", [(0.9, 0.8, 0.7, 0.6, 0.5, 0.4),
                                  (0.9, 0.0, 0.7, 0.6, 0.5, 0.4)],
                         ids=["distinct", "zero-wall"])
@pytest.mark.parametrize("max_order, max_delay", [
    (0, None), (0, 0.02), (3, None), (8, 0.02), (24, 0.03)])
def test_image_lattice_bitwise_equals_per_receiver_enumeration(
        refl, max_order, max_delay):
    # one lattice viewed from any receiver keeps the images that receiver's
    # own enumeration keeps, in its order and with its bits: off the walls,
    # near a wall and in a corner, for a source off and near the walls
    receivers = (RCV, (3.99, 1.5, 1.2), (0.01, 2.99, 0.01),
                 (3.999, 2.999, 2.499))
    for source in (SRC, (0.02, 1.5, 2.48)):
        lattice = image_lattice(DIMS, refl, source, max_order, max_delay)
        for receiver in receivers:
            got = compute_image_sources(lattice, receiver, max_delay)
            _assert_images_bitwise(got, refl, source, receiver, max_order,
                                   max_delay)


def test_scene_images_bitwise_equals_per_receiver_enumeration(monkeypatch):
    # the array center's list, then one list per mic, each the image
    # sources seen from that receiver up to the RIR's last arrival, from
    # one lattice for the scene
    lattices = []

    def lattice_spy(*args):
        lattices.append(args)
        return image_lattice(*args)
    monkeypatch.setattr(simulate, "image_lattice", lattice_spy)
    scene = _scene(seconds=0.05)
    center, mics = scene_images(scene, 6, 0.05)
    assert len(mics) == 3 and len(lattices) == 1
    max_delay = (int(0.05 * 48000) - 17) / 48000
    for images, receiver in zip([center, *mics], scene.receivers):
        _assert_images_bitwise(images, REFL, scene.source_position,
                               receiver, 6, max_delay)


def test_add_noise_power_and_determinism():
    rng = np.random.default_rng(0)
    sig = rng.standard_normal((48000, 2))
    assert add_noise(sig, np.inf) is sig
    noisy = add_noise(sig, 1.0, seed=3)
    noise = noisy - sig
    ratio = np.mean(sig ** 2, axis=0) / np.mean(noise ** 2, axis=0)
    np.testing.assert_allclose(ratio, 1.0, rtol=0.05)
    np.testing.assert_array_equal(noisy, add_noise(sig, 1.0, seed=3))
    assert not np.array_equal(noisy, add_noise(sig, 1.0, seed=4))
    with pytest.raises(ValueError):
        add_noise(sig, 0.0)


def test_eyring_round_trip():
    dims = (4.0, 3.0, 2.5)
    beta = reflection_for_t60(dims, 0.3)
    np.testing.assert_allclose(eyring_t60(dims, (beta,) * 6), 0.3,
                               rtol=1e-12)
    # limiting cases
    assert eyring_t60(dims, (0.0,) * 6) == 0.0


def test_estimate_t60_on_synthetic_decay():
    fs = 48000
    t = np.arange(int(0.5 * fs)) / fs
    for t60 in (0.2, 0.4):
        rir = 10.0 ** (-3.0 * t / t60)  # 60 dB down at t = t60
        got = estimate_t60(rir, fs)
        np.testing.assert_allclose(got, t60, rtol=0.05)


def test_estimate_t60_rejects_unusable_input():
    with pytest.raises(ValueError):
        estimate_t60(np.zeros(1000), 48000)
    with pytest.raises(ValueError):
        estimate_t60(np.ones(1000), 48000)  # no decay


def test_scene_statistics_fields():
    scene = _scene(seconds=0.05)
    stats = scene_statistics(scene, scene_images(scene, 12, 0.25), 0.25)
    d = np.linalg.norm(np.array(SRC) - np.array(RCV))
    np.testing.assert_allclose(stats["direct_delay_samples"],
                               d / SPEED_OF_SOUND * 48000, atol=1e-6)
    assert stats["image_count"] > 1000
    assert stats["t60_s"] > 0
    assert stats["t60_eyring_s"] > 0
    assert stats["drr_db"] is not None
    assert stats["sample_rate"] == 48000


def test_scene_statistics_anechoic():
    scene = _scene(refl=(0.0,) * 6, seconds=0.05)
    stats = scene_statistics(scene, scene_images(scene, 4, 0.1), 0.1)
    assert stats["drr_db"] is None
    assert stats["t60_s"] is None
    assert stats["t60_eyring_s"] == 0.0
    assert stats["image_count"] == 1


def test_speech_noise_shape_and_seed():
    fs = 48000
    a = synth_speech_noise(fs, fs, 5)
    b = synth_speech_noise(fs, fs, 5)
    c = synth_speech_noise(fs, fs, 6)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    np.testing.assert_allclose(np.sqrt(np.mean(a ** 2)), 0.1, rtol=1e-9)
    # band energy concentrated around the speech band, not at the edges
    spec = np.abs(np.fft.rfft(a)) ** 2
    freqs = np.fft.rfftfreq(fs, 1 / fs)
    mid = spec[(freqs > 200) & (freqs < 2000)].mean()
    hi = spec[freqs > 20000].mean()
    assert mid > 30 * hi


@pytest.mark.parametrize("kind, ref_order, hrtf_order", [
    pytest.param("fit", 5, 6, id="5-6-False"),
    pytest.param("fit", 6, 4, id="6-4-False"),
    pytest.param("drawn", 3, 3, id="3-3-True"),
    pytest.param("fit", 0, 4, id="0-4-False"),
    pytest.param("fit", 3, 6, id="3-6-False"),
    pytest.param("point", 5, 6, id="point-5-6"),
    pytest.param("flat", 3, 3, id="flat-3-3")])
def test_binaural_references_match_serial_loop(kind, ref_order, hrtf_order):
    # the real channels against the m >= 0 complex channels in 8-channel
    # chunks, decoded with the mirrored negative bins: two routes that
    # differ only in rounding. Drawn SH ears and a source with a DC offset
    # give bin 0 of the mirrored part and every m < 0 coefficient weight.
    scene = _scene(seconds=0.1)
    cfg = StftConfig(48000, 512, 256)
    coeffs, channels = _reference_hrtf(kind, cfg, ref_order, hrtf_order)
    source = scene.source_signal + (0.1 if kind == "drawn" else 0.0)
    center, _ = scene_images(scene, 6, 0.05)
    got = binaural_references(center, source, channels, cfg, 0.05)
    want = binaural_references_serial(center, source, coeffs, cfg, ref_order,
                                      0.05)
    for name, one, other in zip(("full", "direct"), got, want):
        for ear in range(2):
            err = np.abs(one[ear] - other[ear]).max() \
                / np.abs(other[ear]).max()
            assert err <= 1e-12, (name, ear, err)


def _long_reference_case():
    """A 4 s source with a 20 ms RIR: the spectrograms are long, so parts
    of the whole signal would dominate a chunk's memory."""
    scene = _scene(seconds=4.0)
    cfg = StftConfig(48000, 512, 256)
    rir_seconds = 0.02
    center, _ = scene_images(scene, 2, rir_seconds)
    num_samples = scene.source_signal.size + int(round(rir_seconds * 48000)) - 1
    return (center, scene.source_signal, cfg, rir_seconds, num_samples)


def test_binaural_references_peak_memory():
    # the reference and direct spectrograms, 2 ears each, and one channel's
    # STFT: in the loop a channel's STFT and its decoded product of 2 ears
    # sit next to the reference, and at the end the direct part's STFT and
    # its 2 ears. A loop that kept each channel's STFT alive, or formed the
    # reference out of place, would add at least one ear more
    center, source, cfg, rir_seconds, num_samples = _long_reference_case()
    ear = cfg.num_frames(num_samples) * cfg.num_bins \
        * np.dtype(complex).itemsize
    channels = sh_channels(_hrtf_sh(cfg, 4), 4)
    tracemalloc.start()
    try:
        binaural_references(center, source, channels, cfg, rir_seconds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 5 * ear, (peak, ear)
