"""Shoebox image-source model, RIR rendering, binaural SH references and
room statistics."""

import inspect
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.signal as sps
from scipy import fft as sp_fft
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bsmrender.geometry import SPEED_OF_SOUND, semicircle_array
from bsmrender.hrtf import HrtfSHCoefficients, point_receiver_hrtf
from bsmrender import simulate
from bsmrender.simulate import (
    ImageSourceList,
    RoomSpec,
    _fft_convolve,
    Scene,
    add_noise,
    binaural_references,
    compute_drr,
    compute_image_sources,
    estimate_t60,
    eyring_t60,
    reflection_for_t60,
    render_mic_signals,
    render_rir,
    scene_images,
    scene_statistics,
    synth_speech_noise,
)
from bsmrender.sph import sh_degrees, spiral_grid
from bsmrender.stft import StftConfig
from oracles import assert_bits_equal, sh_fit
from sh_oracle import binaural_references_serial, render_reference, \
    render_reference_plane_waves, reverb_chunk_unblocked

ROOM = RoomSpec(dimensions=(4.0, 3.0, 2.5),
                reflection_coefficients=(0.8,) * 6)
SRC = (3.0, 1.2, 1.3)
RCV = (1.0, 2.0, 1.1)


def _scene(room=ROOM, src=SRC, seconds=0.2, fs=48000, mics=3, seed=0):
    sig = synth_speech_noise(int(seconds * fs), fs, seed)
    return Scene(room=room, source_position=src, source_signal=sig,
                 sample_rate=fs, array=semicircle_array(mics, 0.05, RCV),
                 seed=seed)


def test_room_spec_validation():
    with pytest.raises(ValueError):
        RoomSpec(dimensions=(0.0, 3.0, 2.5),
                 reflection_coefficients=(0.5,) * 6)
    with pytest.raises(ValueError):
        RoomSpec(dimensions=(4.0, 3.0, 2.5),
                 reflection_coefficients=(1.0,) * 6)  # beta < 1 required
    with pytest.raises(ValueError):
        RoomSpec(dimensions=(4.0, 3.0, 2.5),
                 reflection_coefficients=(0.5,) * 5)
    assert ROOM.volume == 30.0
    assert ROOM.surface == 2 * (12.0 + 10.0 + 7.5)
    assert ROOM.contains((1.0, 1.0, 1.0))
    assert not ROOM.contains((4.0, 1.0, 1.0))
    assert not ROOM.contains((3.95, 1.0, 1.0), margin=0.1)


def test_scene_validates_positions():
    with pytest.raises(ValueError):
        _scene(src=(5.0, 1.0, 1.0))
    # array mic poking through a wall
    sig = np.zeros(100)
    with pytest.raises(ValueError):
        Scene(room=ROOM, source_position=SRC, source_signal=sig,
              array=semicircle_array(3, 0.5, (0.2, 1.0, 1.0)))
    # a source on the array center or on a mic has no direct-path direction
    # and an infinite gain
    array = semicircle_array(3, 0.5, RCV)
    for receiver in (RCV, array.room_positions()[1]):
        with pytest.raises(ValueError, match="must not sit on the array"):
            Scene(room=ROOM, source_position=tuple(receiver),
                  source_signal=sig, array=array)


def test_rir_shorter_than_the_direct_path_is_named():
    # an RIR that cannot hold the direct path with its sinc taps would
    # leave a receiver without images; the error names the length that fits
    scene = _scene()
    with pytest.raises(ValueError, match="shorter than the direct path") \
            as err:
        scene_images(scene, 2, 0.001)
    need = float(str(err.value).rsplit(">= ", 1)[1])
    center, mics = scene_images(scene, 2, need)
    assert center.count >= 1 and all(imgs.count >= 1 for imgs in mics)
    with pytest.raises(ValueError, match="shorter than the direct path"):
        scene_images(scene, 2, need - 1.0 / scene.sample_rate)


def test_direct_path_gain_and_delay():
    imgs = compute_image_sources(ROOM, SRC, RCV, 0)
    assert imgs.count == 1
    d = np.linalg.norm(np.array(SRC) - np.array(RCV))
    np.testing.assert_allclose(imgs.gains[0], 1.0 / (4 * np.pi * d), rtol=1e-12)
    np.testing.assert_allclose(imgs.delays[0], d / SPEED_OF_SOUND, rtol=1e-12)
    np.testing.assert_allclose(imgs.positions[0], SRC, atol=1e-12)


def test_fully_absorptive_walls_leave_direct_only():
    room = RoomSpec(dimensions=(4.0, 3.0, 2.5),
                    reflection_coefficients=(0.0,) * 6)
    imgs = compute_image_sources(room, SRC, RCV, 6)
    assert imgs.count == 1  # zero-gain images are dropped


def test_images_sorted_and_capped_by_delay():
    max_delay = 0.02
    imgs = compute_image_sources(ROOM, SRC, RCV, 10, max_delay)
    assert np.all(np.diff(imgs.delays) >= 0)
    assert imgs.delays.max() <= max_delay
    assert imgs.orders[0] == 0


def test_image_lattice_against_brute_force():
    # directly enumerate mirrored positions for order <= 2 and compare
    refl = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4)
    room = RoomSpec(dimensions=(4.0, 3.0, 2.5), reflection_coefficients=refl)
    got = compute_image_sources(room, SRC, RCV, 2)
    lx, ly, lz = room.dimensions
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
                            d = np.linalg.norm(np.array(pos) - np.array(RCV))
                            want[tuple(np.round(pos, 9))] = g / (4 * np.pi * d)
    assert got.count == len(want)
    for pos, gain in zip(got.positions, got.gains):
        key = tuple(np.round(pos, 9))
        assert key in want
        np.testing.assert_allclose(gain, want[key], rtol=1e-10)


def test_image_set_symmetric_under_room_inversion():
    # reflecting the whole setup through the room center relabels walls
    # within each parallel pair; uniform coefficients keep the RIR identical
    dims = np.array(ROOM.dimensions)
    src2 = tuple(dims - np.array(SRC))
    rcv2 = tuple(dims - np.array(RCV))
    a = compute_image_sources(ROOM, SRC, RCV, 4)
    b = compute_image_sources(ROOM, src2, rcv2, 4)
    np.testing.assert_allclose(np.sort(a.delays), np.sort(b.delays),
                               atol=1e-12)
    np.testing.assert_allclose(np.sort(a.gains), np.sort(b.gains), atol=1e-12)


def test_reverb_energy_monotone_in_reflectivity():
    energies = []
    for beta in (0.3, 0.6, 0.9):
        room = RoomSpec(dimensions=(4.0, 3.0, 2.5),
                        reflection_coefficients=(beta,) * 6)
        imgs = compute_image_sources(room, SRC, RCV, 8)
        energies.append(np.sum(imgs.gains[1:] ** 2))
    assert energies[0] < energies[1] < energies[2]


def test_render_rir_places_pulse_at_geometric_delay():
    fs = 48000
    imgs = compute_image_sources(ROOM, SRC, RCV, 0)
    rir = render_rir(imgs, 2000, fs)
    d = np.linalg.norm(np.array(SRC) - np.array(RCV))
    # peak within a sample of the geometric delay
    assert abs(np.argmax(np.abs(rir)) - d / SPEED_OF_SOUND * fs) <= 1.0
    np.testing.assert_allclose(np.sum(rir), imgs.gains[0], rtol=1e-3)


def test_mic_signals_split_and_anechoic_identity():
    room = RoomSpec(dimensions=(4.0, 3.0, 2.5),
                    reflection_coefficients=(0.0,) * 6)
    scene = _scene(room=room, seconds=0.1)
    full, direct, reverb = render_mic_signals(scene, 4, 0.05)
    assert full.shape == direct.shape == reverb.shape
    assert full.shape[1] == 3
    np.testing.assert_array_equal(reverb, 0.0)
    np.testing.assert_array_equal(full, direct)


def test_mic_signals_decomposition_identity():
    scene = _scene(seconds=0.1)
    full, direct, reverb = render_mic_signals(scene, 3, 0.05)
    np.testing.assert_array_equal(full, direct + reverb)
    assert np.sum(reverb ** 2) > 0


def test_mic_signal_delay_between_mics():
    # cross-correlation of an anechoic recording peaks at the geometric
    # inter-mic delay difference
    room = RoomSpec(dimensions=(10.0, 10.0, 4.0),
                    reflection_coefficients=(0.0,) * 6)
    fs = 48000
    sig = synth_speech_noise(int(0.3 * fs), fs, 1)
    geom = semicircle_array(2, 0.5, (5.0, 5.0, 2.0))
    scene = Scene(room=room, source_position=(8.0, 5.0, 2.0),
                  source_signal=sig, sample_rate=fs, array=geom)
    full, _, _ = render_mic_signals(scene, 0, 0.08)
    lags = sps.correlation_lags(full.shape[0], full.shape[0])
    xc = sps.correlate(full[:, 0], full[:, 1])
    got = lags[np.argmax(np.abs(xc))]
    pos = geom.room_positions()
    d0 = np.linalg.norm(pos[0] - np.array(scene.source_position))
    d1 = np.linalg.norm(pos[1] - np.array(scene.source_position))
    want = (d0 - d1) / SPEED_OF_SOUND * fs
    assert abs(got - want) <= 1.0


def _signal(length, rng, complex_):
    x = rng.standard_normal(length)
    return x + 1j * rng.standard_normal(length) if complex_ else x


@settings(max_examples=150)
@given(st.integers(1, 300), st.integers(1, 300),
       st.sampled_from(["real/real", "real/complex", "complex/real"]),
       st.integers(0, 2**32 - 1))
def test_fft_convolve_bitwise_equals_fftconvolve(len_a, len_b, kinds, seed):
    rng = np.random.default_rng(seed)
    kind_a, kind_b = kinds.split("/")
    a = _signal(len_a, rng, kind_a == "complex")
    b = _signal(len_b, rng, kind_b == "complex")
    assert_bits_equal(_fft_convolve(a, b), sps.fftconvolve(a, b))


@settings(max_examples=100)
@given(st.integers(1, 300), st.integers(1, 300), st.integers(1, 5),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_fft_convolve_broadcasts_like_fftconvolve(len_a, len_b, rows,
                                                  transposed, seed):
    # the reverberant chunks: one real source row against k complex RIRs,
    # which arrive as the transpose of a (samples, k) block
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((1, len_a))
    b = rng.standard_normal((len_b, rows)) + 1j * rng.standard_normal((len_b, rows))
    b = b.T if transposed else np.ascontiguousarray(b.T)
    assert_bits_equal(_fft_convolve(a, b), sps.fftconvolve(a, b, axes=1))


def test_sh_reference_order_zero_matches_pressure():
    # channel 0 is the omni pressure at the array center scaled by the
    # constant basis function
    scene = _scene(seconds=0.05)
    fs = scene.sample_rate
    sh = render_reference_plane_waves(scene, 0, 2, 0.04)
    imgs = compute_image_sources(scene.room, scene.source_position,
                                 scene.array.center_position, 2,
                                 (int(0.04 * fs) - 17) / fs)
    rir = render_rir(imgs, int(0.04 * fs), fs)
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
    return sh_fit(point_receiver_hrtf(0.0875, cfg, spiral_grid(200)), order)


@pytest.mark.parametrize("ref_order, hrtf_order", [(5, 6), (6, 4)])
def test_binaural_references_match_oracle(ref_order, hrtf_order):
    # rank-one direct path and m >= 0 encoding against the full complex128
    # encode -> STFT -> decode route, including HRTF truncation
    scene = _scene(seconds=0.1)
    cfg = StftConfig(48000, 512, 256)
    coeffs = _hrtf_sh(cfg, hrtf_order)
    center, _ = scene_images(scene, 6, 0.05)
    full, direct = binaural_references(center, scene.source_signal, coeffs,
                                       cfg, ref_order, 0.05)
    for got, direct_only in ((full, False), (direct, True)):
        sh = render_reference_plane_waves(scene, ref_order, 6, 0.05,
                                          direct_only=direct_only)
        want = render_reference(sh, coeffs, cfg)
        for ear in range(2):
            err = np.linalg.norm(got.data[ear] - want.data[ear]) \
                / np.linalg.norm(want.data[ear])
            assert err <= 1e-10, (direct_only, ear, err)


@settings(max_examples=20)
@given(st.tuples(st.floats(0.3, 3.7), st.floats(0.3, 2.7), st.floats(0.3, 2.2)),
       st.floats(0.0, 0.95), st.integers(0, 4))
def test_sh_encoding_conjugate_symmetry(source, reflection, order):
    # real source + Condon-Shortley phase: p_(n,-m) = (-1)^m conj(p_(n,m)),
    # the identity binaural_references uses to skip the m < 0 channels
    assume(np.linalg.norm(np.subtract(source, RCV)) > 0.2)  # off the array
    room = RoomSpec(dimensions=(4.0, 3.0, 2.5),
                    reflection_coefficients=(reflection,) * 6)
    scene = _scene(room=room, src=source, seconds=0.01)
    p = render_reference_plane_waves(scene, order, 3, 0.01)
    n, m = sh_degrees(order)
    mirror = n * n + n - m
    sign = np.where(m % 2 == 0, 1.0, -1.0)
    np.testing.assert_allclose(p[:, mirror], sign * np.conj(p),
                               rtol=0, atol=1e-12 * np.abs(p).max())


def test_anechoic_reverberant_reference_is_exactly_zero():
    room = RoomSpec(dimensions=(4.0, 3.0, 2.5),
                    reflection_coefficients=(0.0,) * 6)
    scene = _scene(room=room, seconds=0.1)
    cfg = StftConfig(48000, 512, 256)
    center, _ = scene_images(scene, 4, 0.05)
    full, direct = binaural_references(center, scene.source_signal,
                                       _hrtf_sh(cfg, 4), cfg, 4, 0.05)
    reverb = full - direct
    assert reverb.tag == "reference-reverb"
    np.testing.assert_array_equal(reverb.data, 0.0)


def test_shared_images_give_identical_outputs():
    # one enumeration per receiver, passed around, changes no result
    scene = _scene(seconds=0.05)
    images = scene_images(scene, 6, 0.05)
    center, mics = images
    assert len(mics) == 3
    want = compute_image_sources(scene.room, scene.source_position,
                                 scene.array.center_position, 6,
                                 (int(0.05 * 48000) - 17) / 48000)
    np.testing.assert_array_equal(center.delays, want.delays)
    assert scene_statistics(scene, 6, 0.05, images) \
        == scene_statistics(scene, 6, 0.05)
    for a, b in zip(render_mic_signals(scene, 6, 0.05, images),
                    render_mic_signals(scene, 6, 0.05)):
        np.testing.assert_array_equal(a, b)


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
    room = RoomSpec(dimensions=dims, reflection_coefficients=(beta,) * 6)
    np.testing.assert_allclose(eyring_t60(room), 0.3, rtol=1e-12)
    # limiting cases
    assert eyring_t60(RoomSpec(dimensions=dims,
                               reflection_coefficients=(0.0,) * 6)) == 0.0


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


def test_compute_drr_cases():
    direct = np.zeros(100)
    direct[10] = 1.0
    assert compute_drr(direct, direct) == np.inf
    tail = np.zeros(100)
    tail[50] = 1.0
    np.testing.assert_allclose(compute_drr(direct + tail, direct), 0.0,
                               atol=1e-12)
    with pytest.raises(ValueError):
        compute_drr(np.zeros(10), np.zeros(11))


def test_scene_statistics_fields():
    scene = _scene(seconds=0.05)
    stats = scene_statistics(scene, 12, 0.25)
    d = np.linalg.norm(np.array(SRC) - np.array(RCV))
    np.testing.assert_allclose(stats["direct_delay_samples"],
                               d / SPEED_OF_SOUND * 48000, atol=1e-6)
    assert stats["image_count"] > 1000
    assert stats["t60_s"] > 0
    assert stats["t60_eyring_s"] > 0
    assert stats["drr_db"] is not None
    assert stats["sample_rate"] == 48000


def test_scene_statistics_anechoic():
    room = RoomSpec(dimensions=(4.0, 3.0, 2.5),
                    reflection_coefficients=(0.0,) * 6)
    stats = scene_statistics(_scene(room=room, seconds=0.05), 4, 0.1)
    assert stats["drr_db"] is None
    assert stats["drr_center_coherent_db"] is None
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


def _reference_case(order, reflection=0.8):
    room = RoomSpec(dimensions=(4.0, 3.0, 2.5),
                    reflection_coefficients=(reflection,) * 6)
    scene = _scene(room=room, seconds=0.1)
    cfg = StftConfig(48000, 512, 256)
    center, _ = scene_images(scene, 6, 0.05)
    return (center, scene.source_signal, _hrtf_sh(cfg, 4), cfg, order, 0.05)


@pytest.mark.parametrize("order, reflection", [(2, 0.8), (4, 0.8), (4, 0.0)])
def test_reference_bits_do_not_depend_on_worker_count(monkeypatch, order,
                                                      reflection):
    # 6 and 15 encoded m >= 0 channels, neither a multiple of the chunk
    # size; reflection 0 is the anechoic room, with no reverberant chunk.
    # Three workers on a short switch interval oversubscribe a 2-core box.
    encoded = (order + 1) * (order + 2) // 2
    assert encoded % simulate.REF_CHUNK_CHANNELS != 0
    case = _reference_case(order, reflection)
    runs = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for workers in (1, 2, 3):
            monkeypatch.setattr(simulate, "REF_WORKERS", workers)
            runs.append(binaural_references(*case))
    finally:
        sys.setswitchinterval(interval)
    for one, *others in zip(*runs):
        for other in others:
            assert_bits_equal(other.data, one.data)


@pytest.mark.parametrize("ref_order, hrtf_order, random_ears",
                         [(5, 6, False), (6, 4, False), (3, 3, True)])
def test_binaural_references_match_serial_loop(ref_order, hrtf_order,
                                               random_ears):
    # against the one-thread loop with 8-channel chunks, padded framing and
    # gathered negative bins: only the rounding may differ. Random SH ears
    # and a source with a DC offset give bin 0 of the mirrored part weight.
    scene = _scene(seconds=0.1)
    cfg = StftConfig(48000, 512, 256)
    coeffs = _hrtf_sh(cfg, hrtf_order)
    source = scene.source_signal
    if random_ears:
        rng = np.random.default_rng(7)
        shape = coeffs.ears.shape[1:]
        draw = lambda: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        coeffs = HrtfSHCoefficients(
            order=hrtf_order, sample_rate=coeffs.sample_rate,
            ears=np.stack([draw(), draw()]))
        source = source + 0.1
    center, _ = scene_images(scene, 6, 0.05)
    args = (center, source, coeffs, cfg, ref_order, 0.05)
    for got, want in zip(binaural_references(*args),
                         binaural_references_serial(*args)):
        assert got.tag == want.tag
        for ear in range(2):
            err = np.abs(got.data[ear] - want.data[ear]).max() \
                / np.abs(want.data[ear]).max()
            assert err <= 1e-12, (want.tag, ear, err)


def test_worker_exception_reaches_the_caller(monkeypatch):
    raised = []

    def failing_chunk(*args):
        raised.append(RuntimeError("chunk failed"))
        raise raised[-1]

    monkeypatch.setattr(simulate, "REF_WORKERS", 2)
    monkeypatch.setattr(simulate, "_reverb_chunk", failing_chunk)
    with pytest.raises(RuntimeError, match="chunk failed") as err:
        binaural_references(*_reference_case(4))
    assert err.value is raised[0]


def test_reference_workers_call_no_public_function(monkeypatch):
    # perfbench's tracer wraps every public bsmrender function with one
    # unsynchronised timing stack; a call from a worker thread would
    # scramble it. Wrap them the same way and record the thread of each call.
    calls = set()

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            on_main = threading.current_thread() is threading.main_thread()
            calls.add((name, on_main))
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for n, m in sys.modules.items()
               if n.partition(".")[0] == "bsmrender"]
    wrappers = {}
    for mod in modules:
        for attr, value in vars(mod).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == mod.__name__):
                wrappers[value] = wrap(f"{mod.__name__}.{attr}", value)
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                monkeypatch.setattr(mod, attr, wrappers[value])
    monkeypatch.setattr(simulate, "REF_WORKERS", 2)
    simulate.binaural_references(*_reference_case(4))
    assert ("bsmrender.stft.stft", True) in calls  # the wrappers are live
    assert {name for name, on_main in calls if not on_main} == set()


FB = simulate.FRAME_BLOCK


def _blocked_case(frames, order, random_ears=False):
    """A reference case whose SH signals span exactly `frames` frames of a
    2048-sample window, hop 1024, after a 20 ms RIR."""
    cfg = StftConfig(48000, 2048, 1024)
    rir_seconds = 0.02  # 960 samples
    source_len = cfg.window_length + (frames - 1) * cfg.hop - 960 + 1
    assert cfg.num_frames(source_len + 960 - 1) == frames
    source = synth_speech_noise(source_len, 48000, 0)
    coeffs = _hrtf_sh(cfg, 4)
    if random_ears:
        rng = np.random.default_rng(7)
        shape = coeffs.ears.shape[1:]
        draw = lambda: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        coeffs = HrtfSHCoefficients(
            order=4, sample_rate=coeffs.sample_rate,
            ears=np.stack([draw(), draw()]))
        source = source + 0.1
    center, _ = scene_images(_scene(), 6, rir_seconds)
    assert center.count > 1
    return (center, source, coeffs, cfg, order, rir_seconds)


@pytest.mark.parametrize(
    "frames, order, random_ears",
    [(frames, order, False) for frames in (1, FB - 1, FB, FB + 1, 2 * FB + 3)
     for order in (2, 4)] + [(2 * FB + 3, 3, True)])
def test_blocked_reference_bitwise_equals_unblocked(monkeypatch, frames,
                                                    order, random_ears):
    # each frame is transformed as a row of its own and each decode
    # contracts the same channels, so working FRAME_BLOCK frames at a time
    # gives the bits of one transform over every frame: less than a block,
    # exact blocks and a partial tail block. Random SH ears and a source
    # with a DC offset give bin 0 of the mirrored part weight.
    case = _blocked_case(frames, order, random_ears)
    got = binaural_references(*case)
    monkeypatch.setattr(simulate, "_reverb_chunk", reverb_chunk_unblocked)
    for one, want in zip(got, binaural_references(*case)):
        assert_bits_equal(one.data, want.data)


def test_reverb_chunk_peak_memory():
    # the chunk holds its convolved SH signals, the two decoded parts and
    # one block of frames; the framed buffer no longer grows with the
    # number of frames (it would add ~2x the convolution buffer here)
    scene = _scene(seconds=4.0)
    cfg = StftConfig(48000, 512, 256)
    rir_seconds = 0.02
    center, _ = scene_images(scene, 2, rir_seconds)
    reverb = center.take(slice(1, None))
    rir_len = int(round(rir_seconds * 48000))
    num_samples = scene.source_signal.size + rir_len - 1
    src_spec = sp_fft.fft(scene.source_signal,
                          sp_fft.next_fast_len(num_samples))
    delays = simulate._delay_matrix(reverb, rir_len, 48000)
    cols = np.arange(simulate.REF_CHUNK_CHANNELS)
    rng = np.random.default_rng(0)
    g = rng.standard_normal((2, cols.size, cfg.num_bins)) + 0j
    frames, item = cfg.num_frames(num_samples), np.dtype(complex).itemsize
    conv = cols.size * src_spec.size * item
    parts = 2 * 2 * frames * cfg.num_bins * item
    block = cols.size * FB * cfg.fft_size * item
    tracemalloc.start()
    try:
        pos, neg = simulate._reverb_chunk(reverb, delays, sh_degrees(4),
                                          src_spec, num_samples, cfg, cols,
                                          g, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pos.shape == neg.shape == (2, frames, cfg.num_bins)
    assert peak <= 1.1 * (conv + parts + block), (peak, conv, parts, block)
