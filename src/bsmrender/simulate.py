"""Shoebox room simulation via the image method, plus scene statistics.

Rendering produces three aligned per-channel signals: the direct path, the
reverberant remainder and their sum, so the measurement decomposition of
the rendering model holds sample-exactly by construction. The binaural
references decode a spherical-harmonic plane-wave encoding of every image
source at the array center; their arrival directions use the same
conventions as the steering vectors.

scipy (fft, sparse, special) is imported inside the kernels that use it,
so a stage process that only needs this module's types and statistics
never loads it.
"""

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .geometry import SPEED_OF_SOUND
from .render import decode_matrix
from .sph import num_coeffs, sh_degrees
from .stft import Spectrogram, _frames, stft

SINC_TAPS = 32  # windowed-sinc fractional delay, in-band error < -60 dB
_HALF = SINC_TAPS // 2
# m >= 0 SH channels encoded per chunk of binaural_references. With
# REF_WORKERS chunks in flight its transient memory stays at about a
# hundred MB on the full-size scene
REF_CHUNK_CHANNELS = 4
# threads that encode, transform and decode the reverberant chunks; the
# reference's bytes do not depend on it
REF_WORKERS = min(2, len(os.sched_getaffinity(0)))
# analysis frames each reverberant chunk frames, transforms and decodes at
# once: (REF_CHUNK_CHANNELS, FRAME_BLOCK, fft_size) complex, 4 MiB at a
# 2048-point FFT, whatever the signal length
FRAME_BLOCK = 32


@dataclass(frozen=True)
class RoomSpec:
    """Axis-aligned room. reflection_coefficients order:
    (x=0, x=Lx, y=0, y=Ly, z=0, z=Lz)."""

    dimensions: tuple
    reflection_coefficients: tuple

    def __post_init__(self):
        dims = tuple(float(v) for v in self.dimensions)
        refl = tuple(float(v) for v in self.reflection_coefficients)
        if len(dims) != 3 or any(v <= 0 for v in dims):
            raise ValueError("dimensions must be three positive lengths")
        if len(refl) != 6 or any(not (0.0 <= b < 1.0) for b in refl):
            raise ValueError("need six reflection coefficients in [0, 1)")
        object.__setattr__(self, "dimensions", dims)
        object.__setattr__(self, "reflection_coefficients", refl)

    @property
    def volume(self):
        lx, ly, lz = self.dimensions
        return lx * ly * lz

    @property
    def surface(self):
        lx, ly, lz = self.dimensions
        return 2.0 * (lx * ly + lx * lz + ly * lz)

    def contains(self, point, margin=0.0):
        return all(margin < p < l - margin
                   for p, l in zip(point, self.dimensions))


@dataclass(frozen=True)
class Scene:
    room: RoomSpec
    source_position: tuple
    source_signal: np.ndarray = field(repr=False)
    sample_rate: int = 48000
    array: object = None  # ArrayGeometry
    noise_snr: float = np.inf
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "source_position",
                           tuple(float(v) for v in self.source_position))
        if not self.room.contains(self.source_position):
            raise ValueError("source must be strictly inside the room")
        if self.array is not None:
            for pos in self.array.room_positions():
                if not self.room.contains(pos):
                    raise ValueError("every microphone must be inside the room")
            # a receiver on the source sees its direct path at distance 0:
            # an infinite gain and no arrival direction
            for pos in self.receivers:
                if tuple(float(v) for v in pos) == self.source_position:
                    raise ValueError("the source must not sit on the array "
                                     "center or a microphone")
        if np.asarray(self.source_signal).size == 0:
            raise ValueError("source signal is empty")

    @property
    def receivers(self):
        """The array center, then each microphone, in room coordinates."""
        return (self.array.center_position, *self.array.room_positions())


@dataclass(frozen=True)
class ImageSourceList:
    """Flat image-source table sorted by delay; row 0 is the direct path."""

    positions: np.ndarray = field(repr=False)
    gains: np.ndarray = field(repr=False)
    delays: np.ndarray = field(repr=False)
    colatitudes: np.ndarray = field(repr=False)
    azimuths: np.ndarray = field(repr=False)
    orders: np.ndarray = field(repr=False)

    @property
    def count(self):
        return self.gains.size

    def take(self, index):
        """The rows selected by `index` (a slice or index array)."""
        return ImageSourceList(**{f.name: getattr(self, f.name)[index]
                                  for f in fields(self)})


def compute_image_sources(room, source, receiver, max_order, max_delay=None):
    """Enumerate shoebox image sources seen from `receiver`.

    Bounded by reflection order and, when given, by arrival delay. Images
    whose reflection product is exactly zero are dropped (they carry no
    energy), so an anechoic room yields only the direct path.
    """
    source = np.asarray(source, float)
    receiver = np.asarray(receiver, float)
    if not room.contains(source) or not room.contains(receiver):
        raise ValueError("source and receiver must be inside the room")
    dims = np.asarray(room.dimensions)
    beta = np.asarray(room.reflection_coefficients).reshape(3, 2)  # [axis][wall0, wallL]

    if max_delay is not None:
        reach = SPEED_OF_SOUND * max_delay
    else:
        # order bound alone: |n| + |n - p| <= order limits |n|
        reach = (max_order / 2.0 + 1.0) * 2.0 * dims.max()

    blocks = []
    for px in (0, 1):
        for py in (0, 1):
            for pz in (0, 1):
                p = np.array([px, py, pz])
                mirrored = (1 - 2 * p) * source
                n_axes = []
                for a in range(3):
                    span = reach + abs(mirrored[a]) + dims[a] + receiver[a]
                    n_max = int(np.ceil(span / (2.0 * dims[a])))
                    n_max = min(n_max, max_order // 2 + 1)
                    n_axes.append(np.arange(-n_max, n_max + 1))
                nx, ny, nz = np.meshgrid(*n_axes, indexing="ij")
                n = np.stack([nx.ravel(), ny.ravel(), nz.ravel()], axis=1)
                order = (np.abs(n - p).sum(axis=1) + np.abs(n).sum(axis=1))
                keep = order <= max_order
                n = n[keep]
                order = order[keep]
                pos = mirrored + 2.0 * n * dims
                diff = pos - receiver
                dist = np.linalg.norm(diff, axis=1)
                delay = dist / SPEED_OF_SOUND
                if max_delay is not None:
                    keep = delay <= max_delay
                    n, order = n[keep], order[keep]
                    pos, diff, dist, delay = pos[keep], diff[keep], dist[keep], delay[keep]
                refl = np.ones(len(n))
                for a in range(3):
                    refl = refl * beta[a, 0] ** np.abs(n[:, a] - p[a])
                    refl = refl * beta[a, 1] ** np.abs(n[:, a])
                keep = refl > 0.0
                n, order, refl = n[keep], order[keep], refl[keep]
                pos, diff, dist, delay = pos[keep], diff[keep], dist[keep], delay[keep]
                gain = refl / (4.0 * np.pi * dist)
                theta = np.arccos(np.clip(diff[:, 2] / dist, -1.0, 1.0))
                phi = np.mod(np.arctan2(diff[:, 1], diff[:, 0]), 2.0 * np.pi)
                blocks.append((pos, gain, delay, theta, phi, order))

    pos = np.concatenate([b[0] for b in blocks])
    gain = np.concatenate([b[1] for b in blocks])
    delay = np.concatenate([b[2] for b in blocks])
    theta = np.concatenate([b[3] for b in blocks])
    phi = np.concatenate([b[4] for b in blocks])
    order = np.concatenate([b[5] for b in blocks])
    idx = np.argsort(delay, kind="stable")
    return ImageSourceList(positions=pos[idx], gains=gain[idx], delays=delay[idx],
                           colatitudes=theta[idx], azimuths=phi[idx],
                           orders=order[idx])


def _sinc_kernel(frac):
    """Hann-windowed sinc taps for fractional delays, shape (len(frac), 32)."""
    u = (np.arange(SINC_TAPS) - (_HALF - 1))[None, :] - frac[:, None]
    return np.sinc(u) * 0.5 * (1.0 + np.cos(np.pi * u / _HALF))


def _delay_matrix(images, num_samples, sample_rate):
    """Sparse (num_samples x images) matrix of windowed-sinc delay taps."""
    from scipy import sparse

    d_samp = images.delays * sample_rate
    base = np.floor(d_samp).astype(np.int64)
    kern = _sinc_kernel(d_samp - base)
    rows = base[:, None] + (np.arange(SINC_TAPS) - (_HALF - 1))
    cols = np.broadcast_to(np.arange(images.count)[:, None], rows.shape)
    valid = (rows >= 0) & (rows < num_samples)
    mat = sparse.coo_matrix(
        (kern[valid], (rows[valid], cols[valid])),
        shape=(num_samples, images.count))
    return mat.tocsr()


def render_rir(images, num_samples, sample_rate):
    """Scatter the image gains into an impulse response through their
    windowed-sinc delay taps."""
    return _delay_matrix(images, num_samples, sample_rate) @ images.gains


def max_arrival_delay(scene, rir_seconds):
    """The latest arrival whose sinc taps all fit in an `rir_seconds` RIR.
    An RIR too short for the direct path to a receiver, which would leave
    it no image, is an error; the direct delays are formed as
    compute_image_sources forms them, so the two agree to the bit."""
    fs = scene.sample_rate
    max_delay = (int(round(rir_seconds * fs)) - _HALF - 1) / fs
    dists = np.linalg.norm(
        np.subtract(scene.source_position, scene.receivers), axis=1)
    if np.any(dists / SPEED_OF_SOUND > max_delay):
        dist = dists.max()
        need = (int(np.ceil(dist / SPEED_OF_SOUND * fs))
                + _HALF + 1) / fs
        raise ValueError(
            f"rir_seconds {rir_seconds:g} is shorter than the direct path to "
            f"a receiver {dist:.3f} m from the source; with its sinc taps "
            f"it needs rir_seconds >= {need:.6g}")
    return max_delay


def scene_images(scene, max_order, rir_seconds):
    """Image sources seen from the array center and from each microphone:
    (center list, [one list per mic]). One enumeration per receiver, shared
    by scene_statistics, render_mic_signals and binaural_references."""
    max_delay = max_arrival_delay(scene, rir_seconds)
    images = [compute_image_sources(scene.room, scene.source_position,
                                    tuple(receiver), max_order, max_delay)
              for receiver in scene.receivers]
    return images[0], images[1:]


def _fft_convolve(a, b):
    """Full linear convolution along the last axis, broadcast over the
    others: the transforms of scipy.signal.fftconvolve, so the same bits,
    without importing scipy.signal. A length-1 operand is a plain product,
    as there."""
    from scipy import fft as spfft

    n = a.shape[-1] + b.shape[-1] - 1
    if a.shape[-1] == 1 or b.shape[-1] == 1:
        return a * b
    real = not (np.iscomplexobj(a) or np.iscomplexobj(b))
    size = spfft.next_fast_len(n, real)
    if real:
        out = spfft.irfft(spfft.rfft(a, size) * spfft.rfft(b, size), size)
    else:
        out = spfft.ifft(spfft.fft(a, size) * spfft.fft(b, size), size)
    return out[..., :n]


def _split_rirs(images, num_samples, sample_rate):
    """Direct and reverberant RIRs of one image list (same length)."""
    return (render_rir(images.take(slice(0, 1)), num_samples, sample_rate),
            render_rir(images.take(slice(1, None)), num_samples, sample_rate))


def signal_length(source_samples, rir_seconds, sample_rate):
    """Samples of a source convolved with an `rir_seconds` RIR: the length
    of every mic signal and binaural reference the simulator renders."""
    return source_samples + int(round(rir_seconds * sample_rate)) - 1


def render_mic_signals(scene, max_order, rir_seconds, images=None):
    """Per-mic signals: (full, direct, reverb), each (samples, M) float64.

    full is defined as direct + reverb, so the decomposition identity is
    sample-exact by construction. `images` is scene_images' result when the
    caller already has it.
    """
    fs = scene.sample_rate
    rir_len = int(round(rir_seconds * fs))
    src = np.asarray(scene.source_signal, float)
    _, mic_images = images or scene_images(scene, max_order, rir_seconds)
    n_out = signal_length(src.size, rir_seconds, fs)
    direct = np.empty((n_out, len(mic_images)))
    reverb = np.empty((n_out, len(mic_images)))
    for m, imgs in enumerate(mic_images):
        rir_d, rir_r = _split_rirs(imgs, rir_len, fs)
        direct[:, m] = _fft_convolve(src, rir_d)
        reverb[:, m] = _fft_convolve(src, rir_r)
    return direct + reverb, direct, reverb


def _sh_weights_block(images, degrees, cols):
    """conj(Y) columns `cols` at the image arrival directions, times gains;
    `degrees` is sh_degrees' (n, m) pair."""
    from scipy import special

    n_idx, m_idx = degrees
    out = np.empty((images.count, len(cols)), dtype=complex)
    for j, c in enumerate(cols):
        y = special.sph_harm_y(int(n_idx[c]), int(m_idx[c]),
                               images.colatitudes, images.azimuths)
        out[:, j] = np.conj(y)
    return out * images.gains[:, None]


def _reverb_chunk(reverb, delays, degrees, src_spec, num_samples, config,
                  cols, g_pos, g_neg):
    """Both ears' share of the SH channels `cols` (all m >= 0) of the
    reverberant images: (positive-frequency part, mirrored part), each
    (ears, frames, bins). The caller adds the two in that order.

    `src_spec` is the source's FFT, long enough for the full convolution,
    which keeps `num_samples` samples. The frames are transformed and
    decoded FRAME_BLOCK at a time, each frame on its own, so the framed
    buffer does not grow with the signal. Calls only private helpers, so it
    may run on a worker thread under a tracer that wraps the public ones.
    binaural_references loads every scipy module used here before it
    submits a chunk, so the imports on the worker only find them."""
    from scipy import fft as spfft

    w = _sh_weights_block(reverb, degrees, cols)
    rir = delays @ np.ascontiguousarray(w.real) \
        + 1j * (delays @ np.ascontiguousarray(w.imag))
    del w
    p = spfft.fft(rir.T, src_spec.size)
    del rir
    p *= src_spec
    p = spfft.ifft(p, overwrite_x=True)[:, :num_samples]
    bins = config.num_bins
    frames = config.num_frames(num_samples)
    pos = np.empty((g_pos.shape[0], frames, bins), dtype=complex)
    neg = np.empty_like(pos)
    for start in range(0, frames, FRAME_BLOCK):
        stop = min(start + FRAME_BLOCK, frames)
        spec = spfft.fft(_frames(p, config, start, stop), axis=2,
                         overwrite_x=True)
        np.einsum("cfb,ecb->efb", spec[..., :bins], g_pos,
                  out=pos[:, start:stop])
        # bin -k of the full FFT: bin 0 on its own, then k = 1..bins-1 read
        # through a reversed view instead of a gathered copy
        np.einsum("cfb,ecb->efb", spec[..., :1], g_neg[..., :1],
                  out=neg[:, start:stop, :1])
        np.einsum("cfb,ecb->efb", spec[..., : -bins : -1], g_neg[..., 1:],
                  out=neg[:, start:stop, 1:])
    return pos, np.conjugate(neg, out=neg)


def _add_parts(total, parts):
    """Add a chunk's parts into `total`, in order and in place."""
    for part in parts:
        total += part


def binaural_references(images, source, hrtf_sh, config, order, rir_seconds):
    """Binaural reference spectrograms (full, direct) decoded from the
    order-`order` SH plane-wave encoding of `images`, the image sources seen
    from the array center.

    Equal to encoding all (order+1)^2 SH channels, taking their STFTs and
    decoding each bin with the HRTF's SH coefficients (truncated to the
    smaller order), without forming the SH signals. The direct image is
    rank one: its channels are w_c (s * k_0), so its ears get
    STFT(s * k_0) sum_c w_c G_c. Of the other images only the m >= 0
    channels are encoded, a chunk at a time: the source is real and the
    harmonics carry the Condon-Shortley phase, so p_(n,-m) =
    (-1)^m conj(p_(n,m)) and P_(n,-m)(f) = (-1)^m conj(P_(n,m)(-f)) comes
    from the same full FFT. The full reference is direct + reverberant, so
    the two are identical in an anechoic room.

    The chunks run on up to REF_WORKERS (two) threads, at most one chunk
    per thread in flight, and are added in chunk order on the calling
    thread, so the reference's bytes do not depend on the thread count.
    The scipy modules the chunks use are loaded on the calling thread
    before the first chunk is submitted: scipy.fft here, scipy.special by
    the direct image's weights and scipy.sparse by the delay matrices.
    """
    from scipy import fft as spfft

    fs = config.sample_rate
    rir_len = int(round(rir_seconds * fs))
    src = np.asarray(source, float)
    order = min(order, hrtf_sh.order)
    g = decode_matrix(hrtf_sh, order)  # (ears, channels, bins)
    if g.shape[2] != config.num_bins:
        raise ValueError("HRTF bin count does not match the STFT config")
    degrees = sh_degrees(order)
    direct = images.take(slice(0, 1))
    reverb = images.take(slice(1, None))

    kernel = _delay_matrix(direct, rir_len, fs).toarray()[:, 0]
    base = stft(_fft_convolve(src, kernel), config).data[0]
    w0 = _sh_weights_block(direct, degrees, range(num_coeffs(order)))[0]
    ears_d = base[None] * (w0 @ g)[:, None, :]

    ears_r = np.zeros_like(ears_d)
    if reverb.count:
        n_idx, m_idx = degrees
        encoded = np.nonzero(m_idx >= 0)[0]
        m_enc = m_idx[encoded]
        mirror = (n_idx * n_idx + n_idx - m_idx)[encoded]  # index of (n, -m)
        # conj(P_(n,m)(-f)) decodes with conj((-1)^m G_(n,-m)) since
        # sum G conj(P) = conj(sum conj(G) P); m = 0 has no partner
        sign = np.where(m_enc > 0, np.power(-1.0, m_enc), 0.0)
        g_pos = g[:, encoded]
        g_neg = np.conj(sign[:, None] * g[:, mirror])
        num_samples = signal_length(src.size, rir_seconds, fs)
        src_spec = spfft.fft(src, spfft.next_fast_len(num_samples))
        delays = _delay_matrix(reverb, rir_len, fs)
        chunk = partial(_reverb_chunk, reverb, delays, degrees, src_spec,
                        num_samples, config)
        pending = deque()
        with ThreadPoolExecutor(REF_WORKERS) as pool:
            for start in range(0, encoded.size, REF_CHUNK_CHANNELS):
                if len(pending) == REF_WORKERS:
                    _add_parts(ears_r, pending.popleft().result())
                sl = slice(start, start + REF_CHUNK_CHANNELS)
                pending.append(pool.submit(chunk, encoded[sl], g_pos[:, sl],
                                           g_neg[:, sl]))
            while pending:
                _add_parts(ears_r, pending.popleft().result())

    return (Spectrogram(data=ears_d + ears_r, config=config, tag="reference"),
            Spectrogram(data=ears_d, config=config, tag="reference-direct"))


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

def eyring_t60(room):
    """Eyring reverberation time from the room's reflection coefficients."""
    areas = _wall_areas(room.dimensions)
    absorb = 1.0 - np.asarray(room.reflection_coefficients) ** 2
    mean_abs = float(np.dot(areas, absorb) / areas.sum())
    if mean_abs <= 0:
        return np.inf
    if mean_abs >= 1.0:
        return 0.0
    return 0.161 * room.volume / (-room.surface * np.log(1.0 - mean_abs))


def reflection_for_t60(dimensions, t60):
    """Uniform wall reflection coefficient hitting an Eyring T60 target."""
    lx, ly, lz = dimensions
    volume = lx * ly * lz
    surface = 2.0 * (lx * ly + lx * lz + ly * lz)
    alpha = 1.0 - np.exp(-0.161 * volume / (surface * t60))
    return float(np.sqrt(1.0 - alpha))


def _wall_areas(dimensions):
    lx, ly, lz = dimensions
    return np.array([ly * lz, ly * lz, lx * lz, lx * lz, lx * ly, lx * ly])


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


def compute_drr(full_rir, direct_rir):
    """Direct-to-reverberant energy ratio in dB; +inf when anechoic."""
    full = np.asarray(full_rir, float)
    direct = np.asarray(direct_rir, float)
    if full.shape != direct.shape:
        raise ValueError("RIRs must be aligned and equally long")
    e_dir = float(np.sum(direct ** 2))
    e_rev = float(np.sum((full - direct) ** 2))
    if e_rev == 0.0:
        return np.inf
    return 10.0 * np.log10(e_dir / e_rev)


def scene_statistics(scene, max_order, rir_seconds, images=None):
    """Scene descriptors: array DRR, measured and predicted T60, direct
    delay and the image count.

    drr_db is the phase-averaged (incoherent) energy ratio summed over the
    microphones: sum of squared image gains, direct against the rest. The
    coherent waveform ratio at the array center is reported separately as
    drr_center_coherent_db; it is systematically lower here because exact
    source/receiver symmetries (shared horizontal plane) create equal-delay
    image pairs that interfere constructively in the rendered RIR, which no
    diffuse-field DRR figure accounts for.

    `images` is scene_images' result when the caller already has it.
    """
    fs = scene.sample_rate
    rir_len = int(round(rir_seconds * fs))
    images, mic_images = images or scene_images(scene, max_order, rir_seconds)
    rir_d, rir_r = _split_rirs(images, rir_len, fs)
    try:
        t60 = estimate_t60(rir_d + rir_r, fs)
    except ValueError:
        t60 = None
    e_direct = e_reverb = 0.0
    for imgs in mic_images:
        e_direct += float(imgs.gains[0] ** 2)
        e_reverb += float(np.sum(imgs.gains[1:] ** 2))
    # None rather than inf for anechoic rooms: the dict goes to JSON
    drr = None if e_reverb == 0.0 else 10.0 * np.log10(e_direct / e_reverb)
    coherent = compute_drr(rir_d + rir_r, rir_d)
    return {
        "drr_db": drr,
        "drr_center_coherent_db": None if np.isinf(coherent) else coherent,
        "t60_s": t60,
        "t60_eyring_s": eyring_t60(scene.room),
        "direct_delay_samples": float(images.delays[0] * fs),
        "image_count": int(images.count),
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
