"""Shoebox room simulation via the image method, plus scene statistics.

Rendering produces three aligned per-channel signals: the direct path, the
reverberant remainder and their sum, so the measurement decomposition of
the rendering model holds sample-exactly by construction. The binaural
references decode the order-N spherical-harmonic plane-wave encoding of
every image source at the array center with the HRTF, through a few real
channels; their arrival directions use the same conventions as the
steering vectors.
"""

from typing import NamedTuple

import numpy as np

from .geometry import SPEED_OF_SOUND
from .stft import stft

SINC_TAPS = 32  # windowed-sinc fractional delay, in-band error < -60 dB
_HALF = SINC_TAPS // 2
# images whose sinc taps _delay_taps forms at once: (DELAY_BLOCK,
# SINC_TAPS) temporaries, 256 KiB each, whatever the image count
DELAY_BLOCK = 1024


class Scene(NamedTuple):
    """One source and one array in a shoebox room, as config.resolve
    checked them. The room is its (3,) dimensions and (6,) reflection
    coefficients, ordered (x=0, x=Lx, y=0, y=Ly, z=0, z=Lz); the array is
    its (M, 3) mic positions relative to its (3,) center."""

    room_dimensions: np.ndarray
    reflection_coefficients: np.ndarray
    source_position: np.ndarray
    source_signal: np.ndarray
    array_center: np.ndarray
    mic_positions: np.ndarray
    sample_rate: int

    @property
    def receivers(self):
        """The array center, then each microphone, in room coordinates."""
        return (self.array_center, *(self.mic_positions + self.array_center))


def _point(pos):
    return "[" + ", ".join(f"{v:g}" for v in pos) + "]"


def check_positions(dimensions, source, center, mic_positions, mics_key):
    """ValueError naming the first position that breaks the scene's rules:
    the source, the array `center` and every microphone, `mic_positions`
    (M, 3) relative to it and named by row of the config key `mics_key`,
    lie strictly inside the room of `dimensions`, and the source sits on
    no receiver, whose direct path would have no direction and no finite
    gain. config.resolve applies them."""
    center = np.asarray(center, float)
    receivers = [("scene.array_center", center),
                 *((f"microphone {m} of {mics_key}", pos)
                   for m, pos in enumerate(mic_positions + center))]
    source = np.asarray(source, float)
    walls = " x ".join(f"{v:g}" for v in dimensions)
    for name, pos in [("scene.source_position", source), *receivers]:
        if not np.all((0.0 < pos) & (pos < dimensions)):
            raise ValueError(f"{name} {_point(pos)} is not strictly inside "
                             f"the {walls} m room")
    for name, pos in receivers:
        if np.array_equal(pos, source):
            raise ValueError(f"scene.source_position {_point(source)} must "
                             f"not sit on the array center or a microphone: "
                             f"it is {name}")


def image_lattice(dimensions, reflection_coefficients, source, max_order,
                  max_delay=None):
    """The image sources of `source` in the shoebox of (3,) `dimensions`
    and (6,) `reflection_coefficients`, whatever the receiver: (positions
    (N, 3), reflection products (N,)), parity-major.

    Bounded by reflection order and, when given, by arrival delay from
    any receiver inside the room. Images whose reflection product is
    exactly zero are dropped (they carry no energy), so an anechoic room
    yields only the direct path.
    """
    source = np.asarray(source, float)
    dims = np.asarray(dimensions, float)
    if not np.all((0.0 < source) & (source < dims)):
        raise ValueError("source must be inside the room")
    beta = np.asarray(reflection_coefficients, float).reshape(3, 2)  # [axis][wall0, wallL]

    # cells whose images may lie within `reach` of a receiver inside the
    # room, for every parity; |n| + |n - p| <= max_order bounds |n| too
    reach = np.inf if max_delay is None else SPEED_OF_SOUND * max_delay
    n_max = np.minimum(np.ceil((reach + source + 2.0 * dims) / (2.0 * dims)),
                       max_order // 2 + 1).astype(int)
    cells = np.indices(2 * n_max + 1).reshape(3, -1).T - n_max

    blocks = []
    for p in map(np.array, np.ndindex(2, 2, 2)):
        order = np.abs(cells - p).sum(axis=1) + np.abs(cells).sum(axis=1)
        n = cells[order <= max_order]
        refl = np.ones(len(n))
        for a in range(3):
            refl = refl * beta[a, 0] ** np.abs(n[:, a] - p[a])
            refl = refl * beta[a, 1] ** np.abs(n[:, a])
        keep = refl > 0.0
        blocks.append(((1 - 2 * p) * source + 2.0 * n[keep] * dims,
                       refl[keep]))
    return tuple(map(np.concatenate, zip(*blocks)))


def compute_image_sources(lattice, receiver, max_delay=None):
    """The image sources of image_lattice's result seen from `receiver`,
    one (4, N) array whose rows are gain, delay (s), colatitude and
    azimuth, its columns sorted by delay, so column 0 is the direct path.
    Capped at `max_delay` when given: the lattice's bound, which holds for
    a receiver inside the room (check_positions holds the array center and
    every microphone to that)."""
    pos, refl = lattice
    diff = pos - np.asarray(receiver, float)
    dist = np.linalg.norm(diff, axis=1)
    delay = dist / SPEED_OF_SOUND
    if max_delay is not None:
        keep = delay <= max_delay
        refl, diff, dist, delay = refl[keep], diff[keep], dist[keep], delay[keep]
    gain = refl / (4.0 * np.pi * dist)
    theta = np.arccos(np.clip(diff[:, 2] / dist, -1.0, 1.0))
    phi = np.mod(np.arctan2(diff[:, 1], diff[:, 0]), 2.0 * np.pi)
    idx = np.argsort(delay, kind="stable")
    return np.stack([gain, delay, theta, phi])[:, idx]


def _sinc_kernel(frac):
    """Hann-windowed sinc taps for fractional delays, shape (len(frac), 32)."""
    u = (np.arange(SINC_TAPS) - (_HALF - 1))[None, :] - frac[:, None]
    return np.sinc(u) * 0.5 * (1.0 + np.cos(np.pi * u / _HALF))


def _delay_taps(delays, num_samples, sample_rate):
    """The windowed-sinc taps of each delay (s) and the RIR samples they
    fall on, two (delays, SINC_TAPS) arrays; a tap outside the signal falls
    on sample num_samples. Formed DELAY_BLOCK delays at a time, each tap
    with the bits of an all-at-once build."""
    d_samp = delays * sample_rate
    base = np.floor(d_samp).astype(np.int64)
    rows = base[:, None] + (np.arange(SINC_TAPS) - (_HALF - 1))
    rows[(rows < 0) | (rows >= num_samples)] = num_samples
    taps = np.empty(rows.shape)
    for start in range(0, delays.size, DELAY_BLOCK):
        stop = start + DELAY_BLOCK
        taps[start:stop] = _sinc_kernel(d_samp[start:stop] - base[start:stop])
    return taps, rows


def _scatter(taps, rows, weights, num_samples):
    """sum_i weights_i x image i's taps, num_samples long. bincount adds
    each sample's products tap x weight in image order, so the bits are
    those of a sparse delay matrix's product with `weights`."""
    sums = np.bincount(rows.ravel(), (taps * weights[:, None]).ravel(),
                       num_samples + 1)
    return sums[:num_samples].astype(float, copy=False)  # int if no image


def render_rir(gains, delays, num_samples, sample_rate):
    """Scatter image gains into an impulse response through the
    windowed-sinc taps of their delays (s)."""
    taps, rows = _delay_taps(delays, num_samples, sample_rate)
    return _scatter(taps, rows, gains, num_samples)


def max_arrival_delay(source, center, mic_positions, fs, rir_seconds):
    """The latest arrival whose sinc taps all fit in an `rir_seconds` RIR
    at `fs` Hz. An RIR too short for the direct path from `source` to the
    array `center` or a mic, `mic_positions` (M, 3) relative to it, would
    leave that receiver no image and is an error; the direct delays are
    formed as compute_image_sources forms them, so the two agree to the
    bit. config.resolve applies the rule."""
    max_delay = (int(round(rir_seconds * fs)) - _HALF - 1) / fs
    dists = np.linalg.norm(
        np.subtract(source, [center, *(mic_positions + center)]), axis=1)
    if np.any(dists / SPEED_OF_SOUND > max_delay):
        dist = dists.max()
        need = (int(np.ceil(dist / SPEED_OF_SOUND * fs))
                + _HALF + 1) / fs
        raise ValueError(
            f"scene.rir_seconds {rir_seconds:g} is shorter than the direct "
            f"path to a receiver {dist:.3f} m from the source; with its sinc "
            f"taps it needs scene.rir_seconds >= {need:.6g}")
    return max_delay


def scene_images(scene, max_order, rir_seconds):
    """Image sources seen from the array center and from each microphone:
    (center's array, [each mic's]), views of one image lattice, shared
    by scene_statistics, render_mic_signals and binaural_references."""
    max_delay = max_arrival_delay(scene.source_position, scene.array_center,
                                  scene.mic_positions, scene.sample_rate,
                                  rir_seconds)
    lattice = image_lattice(scene.room_dimensions,
                            scene.reflection_coefficients,
                            scene.source_position, max_order, max_delay)
    images = [compute_image_sources(lattice, receiver, max_delay)
              for receiver in scene.receivers]
    return images[0], images[1:]


def _fast_len(n):
    """scipy.fft.next_fast_len(n, True): the least m 2^k >= n, m = 3^i 5^j."""
    odd = (3 ** i * 5 ** j for i in range(n.bit_length() + 1)
           for j in range(n.bit_length() + 1))
    return min(m << ((n - 1) // m).bit_length() for m in odd)


def _convolver(src, rir_len):
    """Full linear convolution of the 1-D real signal `src` with any
    `rir_len`-sample one: the transforms of scipy.signal.fftconvolve, so
    the same bits, with the source's spectrum taken once for every RIR. A
    length-1 operand is a plain product, as there."""
    n = src.size + rir_len - 1
    if src.size == 1 or rir_len == 1:
        return lambda rir: src * rir
    size = _fast_len(n)
    src_spec = np.fft.rfft(src, size)

    def convolve(rir):
        # the source on the left, as in fftconvolve: `src_spec * rfft(rir)`
        # would swap the (not bitwise commutative) operands in place
        rir_spec = np.fft.rfft(rir, size)
        np.multiply(src_spec, rir_spec, out=rir_spec)
        return np.fft.irfft(rir_spec, size)[:n]
    return convolve


def _split_rirs(gains, delays, num_samples, sample_rate):
    """Direct and reverberant RIRs of one receiver's images (same length)."""
    return (render_rir(gains[:1], delays[:1], num_samples, sample_rate),
            render_rir(gains[1:], delays[1:], num_samples, sample_rate))


def signal_length(source_samples, rir_seconds, sample_rate):
    """Samples of a source convolved with an `rir_seconds` RIR: the length
    of every mic signal and binaural reference the simulator renders."""
    return source_samples + int(round(rir_seconds * sample_rate)) - 1


def render_mic_signals(scene, images, rir_seconds):
    """Per-mic signals: (full, direct, reverb), each (samples, M) float64,
    from scene_images' result.

    full is defined as direct + reverb, so the decomposition identity is
    sample-exact by construction.
    """
    fs = scene.sample_rate
    rir_len = int(round(rir_seconds * fs))
    src = np.asarray(scene.source_signal, float)
    _, mic_images = images
    n_out = signal_length(src.size, rir_seconds, fs)
    direct = np.empty((n_out, len(mic_images)))
    reverb = np.empty((n_out, len(mic_images)))
    convolve = _convolver(src, rir_len)
    for m, imgs in enumerate(mic_images):
        rir_d, rir_r = _split_rirs(*imgs[:2], rir_len, fs)
        direct[:, m] = convolve(rir_d)
        reverb[:, m] = convolve(rir_r)
    return direct + reverb, direct, reverb


def binaural_references(images, source, channels, config, rir_seconds):
    """Binaural reference spectra (full, direct), each (2, frames, bins),
    of `images`, the image sources seen from the array center, decoded
    with `channels` (hrtf.HrtfChannels).

    A plane wave from u reaches ear e as sum_k D_e,k(f) a_k(u), so the
    reference is sum_k D_k STFT(s * r_k), with the real RIR r_k = sum_i
    a_k(u_i) g_i delta(t - tau_i): one convolution and one STFT per
    channel, one channel at a time. This equals encoding the (N+1)^2
    complex SH channels of the order-N plane-wave encoding and decoding
    each bin with the HRTF's SH coefficients, without forming them. The
    direct image is rank one: its ears get STFT(s * r_0) sum_k D_k
    a_k(u_0), r_0 its RIR. The full reference is direct + reverberant, so
    the two are identical in an anechoic room.
    """
    fs = config.sample_rate
    rir_len = int(round(rir_seconds * fs))
    decode = channels.decode
    if decode.shape[2] != config.num_bins:
        raise ValueError("HRTF bin count does not match the STFT config")
    src = np.asarray(source, float)
    gains, delays, theta, phi = images[:, 1:]  # the reverberant images
    num_samples = signal_length(src.size, rir_seconds, fs)
    ears = np.zeros((2, config.num_frames(num_samples), config.num_bins),
                    complex)
    convolve = _convolver(src, rir_len)
    if gains.size:
        taps, rows = _delay_taps(delays, rir_len, fs)
        for k, a in enumerate(channels.angular(theta, phi)):
            rir = _scatter(taps, rows, a * gains, rir_len)
            spec = stft(convolve(rir), config)[0]
            for ear, row in zip(ears, decode[:, k, None, :]):
                ear += row * spec  # one ear's product at a time
            del spec  # before the next channel's STFT
        del taps, rows

    a0 = np.array([a[0] for a in channels.angular(*images[2:, :1])])
    spec = stft(convolve(render_rir(*images[:2, :1], rir_len, fs)), config)[0]
    del convolve  # the source's spectrum, before the direct part's ears
    ears_d = spec * (a0 @ decode)[:, None, :]
    ears += ears_d
    return ears, ears_d


def add_noise(signals, snr, seed=0):
    """Add white Gaussian noise at the given per-channel SNR (power ratio)."""
    if not snr > 0:
        raise ValueError("snr must be positive")
    if np.isinf(snr):
        return signals
    rng = np.random.default_rng(seed)
    sig = np.asarray(signals, float)
    flat = sig.reshape(sig.shape[0], -1)
    power = np.mean(flat ** 2, axis=0)
    noise = rng.standard_normal(flat.shape) * np.sqrt(power / snr)
    return (flat + noise).reshape(sig.shape)


# ------------------------------------------------------------- statistics

def _volume_surface(dimensions):
    lx, ly, lz = np.asarray(dimensions, float)
    return lx * ly * lz, 2.0 * (lx * ly + lx * lz + ly * lz)


def eyring_t60(dimensions, reflection_coefficients):
    """Eyring reverberation time of the room of (3,) `dimensions` and (6,)
    `reflection_coefficients`."""
    lx, ly, lz = np.asarray(dimensions, float)
    areas = np.repeat([ly * lz, lx * lz, lx * ly], 2)  # the walls' order
    absorb = 1.0 - np.asarray(reflection_coefficients, float) ** 2
    mean_abs = float(np.dot(areas, absorb) / areas.sum())
    if mean_abs >= 1.0:
        return 0.0
    volume, surface = _volume_surface(dimensions)
    return 0.161 * volume / (-surface * np.log(1.0 - mean_abs))


def reflection_for_t60(dimensions, t60):
    """Uniform wall reflection coefficient hitting an Eyring T60 target."""
    volume, surface = _volume_surface(dimensions)
    alpha = 1.0 - np.exp(-0.161 * volume / (surface * t60))
    return float(np.sqrt(1.0 - alpha))


def estimate_t60(rir, sample_rate):
    """Schroeder backward integration; line fit on the -5..-25 dB stretch,
    extrapolated by 3 to the 60 dB decay."""
    energy = np.asarray(rir, float) ** 2
    edc = np.cumsum(energy[::-1])[::-1]
    if edc[0] <= 0:
        raise ValueError("silent impulse response")
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(edc / edc[0])
    below5 = np.nonzero(db <= -5.0)[0]
    below25 = np.nonzero(db <= -25.0)[0]
    if not (db.min() <= -45.0) or below25.size == 0:
        raise ValueError("insufficient decay range for a T60 estimate")
    start, stop = below5[0], below25[0]
    if stop - start < 8:
        raise ValueError("insufficient decay range for a T60 estimate")
    t = np.arange(start, stop) / sample_rate
    seg = db[start:stop]
    slope = np.polyfit(t, seg, 1)[0]
    if slope >= 0:
        raise ValueError("energy decay is not monotone")
    return -60.0 / slope


def scene_statistics(scene, images, rir_seconds):
    """Scene descriptors from scene_images' result: array DRR, measured
    and predicted T60, direct delay and the image count.

    drr_db is the phase-averaged (incoherent) energy ratio summed over the
    microphones: sum of squared image gains, direct against the rest.
    """
    fs = scene.sample_rate
    rir_len = int(round(rir_seconds * fs))
    center, mic_images = images
    rir_d, rir_r = _split_rirs(*center[:2], rir_len, fs)
    try:
        t60 = estimate_t60(rir_d + rir_r, fs)
    except ValueError:
        t60 = None
    e_direct = e_reverb = 0.0
    for gains, *_ in mic_images:
        e_direct += float(gains[0] ** 2)
        e_reverb += float(np.sum(gains[1:] ** 2))
    # None rather than inf for anechoic rooms: the dict goes to JSON
    drr = None if e_reverb == 0.0 else 10.0 * np.log10(e_direct / e_reverb)
    return {
        "drr_db": drr,
        "t60_s": t60,
        "t60_eyring_s": eyring_t60(scene.room_dimensions,
                                   scene.reflection_coefficients),
        "direct_delay_samples": float(center[1, 0] * fs),
        "image_count": center.shape[1],
        "sample_rate": fs,
    }


def synth_speech_noise(num_samples, sample_rate, seed):
    """Deterministic speech-shaped noise: white Gaussian noise colored by a
    coarse long-term speech magnitude (bandpass around 500 Hz, 6 dB/oct
    slopes on both sides)."""
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(num_samples)
    freqs = np.fft.rfftfreq(num_samples, 1.0 / sample_rate)
    fn = freqs / 500.0
    shape = fn / (1.0 + fn ** 2)
    spec = np.fft.rfft(white) * shape
    sig = np.fft.irfft(spec, n=num_samples)
    rms = np.sqrt(np.mean(sig ** 2))
    return 0.1 * sig / rms
