"""Reference implementations of the binaural SH reference, for tests only.

The first is the direct route that simulate.binaural_references shortcuts:
every image source seen from the array center is encoded as a plane wave
into all (order+1)^2 SH channels at complex128, each channel gets its own
complex STFT, and every bin is decoded with the HRTF's SH coefficients
through decode_matrix. The second is a different shortcut, run in 8-channel
chunks: only the m >= 0 complex channels are encoded, and the m < 0 ones
are decoded from the mirrored negative-frequency bins of the same FFT,
gathered by index.
"""

import numpy as np
from scipy import fft as spfft
from scipy import signal as sps

from bsmrender.simulate import _HALF, compute_image_sources, image_lattice
from bsmrender.sph import num_coeffs
from bsmrender.stft import stft
from oracles import delay_matrix_coo, fit_order, sh_degrees, \
    sh_weights_loop, sliding_frames


def decode_matrix(hrtf_sh, order):
    """Decode vectors G_(n,m) = (-1)^m H_(n,-m) of both ears, shape
    (2, C, bins) with C = (min(order, fit_order(hrtf_sh))+1)^2, left ear
    first.

    Contracting an SH-encoded plane wave with G reproduces the HRTF at the
    wave's arrival direction (up to SH truncation at `order`).
    """
    n_idx, m_idx = sh_degrees(min(order, fit_order(hrtf_sh)))
    flipped = (n_idx * n_idx + n_idx - m_idx).astype(int)  # index of (n, -m)
    sign = np.where(m_idx % 2 == 0, 1.0, -1.0)[:, None]
    return sign * hrtf_sh[:, flipped]


def render_reference_plane_waves(scene, sh_order, max_order, rir_seconds,
                                 direct_only=False, chunk_channels=32):
    """Encode every image source as a plane wave into SH channels.

    Arrival directions are taken relative to the array center. Returns the
    SH-domain time signal, shape (samples, (sh_order+1)^2), complex128.
    """
    fs = scene.sample_rate
    rir_len = int(round(rir_seconds * fs))
    max_delay = (rir_len - _HALF - 1) / fs
    lattice = image_lattice(scene.room, scene.source_position, max_order,
                            max_delay)
    images = compute_image_sources(lattice, scene.array.center_position,
                                   max_delay)
    if direct_only:
        images = images.take(slice(0, 1))
    src = np.asarray(scene.source_signal, float)
    n_coeff = num_coeffs(sh_order)
    out = np.empty((src.size + rir_len - 1, n_coeff), dtype=complex)
    delays = delay_matrix_coo(images, rir_len, fs)
    for start in range(0, n_coeff, chunk_channels):
        cols = range(start, min(start + chunk_channels, n_coeff))
        w = sh_weights_loop(images, sh_degrees(sh_order), cols)
        rir = delays @ np.ascontiguousarray(w.real) \
            + 1j * (delays @ np.ascontiguousarray(w.imag))
        out[:, start : start + len(cols)] = sps.fftconvolve(
            src[:, None], rir, axes=0)
    return out


def complex_stft(signal, config):
    """Positive-frequency half of the full DFT of each analysis frame,
    shape (channels, frames, bins); equals the rfft for real channels."""
    spec = np.fft.fft(sliding_frames(signal.T, config), n=config.fft_size,
                      axis=2)
    return spec[..., : config.num_bins]


def render_reference(sh_signal, hrtf_sh, config):
    """Binaural reference from an SH-domain time signal, decoded per STFT
    bin with the HRTF's SH coefficients (truncated to the smaller order)."""
    n_ch = sh_signal.shape[1]
    order = int(round(np.sqrt(n_ch))) - 1
    if num_coeffs(order) != n_ch:
        raise ValueError("channel count is not a complete SH band")
    order = min(order, fit_order(hrtf_sh))
    g = decode_matrix(hrtf_sh, order)
    spec = complex_stft(sh_signal[:, : num_coeffs(order)], config)
    return np.stack([np.einsum("cfb,cb->fb", spec, g_ear) for g_ear in g])


def binaural_references_serial(images, source, hrtf_sh, config, order,
                               rir_seconds, chunk_channels=8):
    """Binaural reference spectra (full, direct) from the m >= 0
    complex SH channels, `chunk_channels` at a time: the source is real and
    the harmonics carry the Condon-Shortley phase, so p_(n,-m) = (-1)^m
    conj(p_(n,m)) and P_(n,-m)(f) = (-1)^m conj(P_(n,m)(-f)) comes from the
    same full FFT, decoded with conj((-1)^m G_(n,-m)). The direct image is
    rank one; frames are copied out of a padded signal and padded again by
    the FFT."""
    fs = config.sample_rate
    rir_len = int(round(rir_seconds * fs))
    src = np.asarray(source, float)
    order = min(order, fit_order(hrtf_sh))
    g = decode_matrix(hrtf_sh, order)
    degrees = sh_degrees(order)
    direct = images.take(slice(0, 1))
    reverb = images.take(slice(1, None))

    kernel = delay_matrix_coo(direct, rir_len, fs).toarray()[:, 0]
    base = stft(sps.fftconvolve(src, kernel), config)[0]
    w0 = sh_weights_loop(direct, degrees, range(num_coeffs(order)))[0]
    ears_d = base[None] * (w0 @ g)[:, None, :]

    ears_r = np.zeros_like(ears_d)
    if reverb.count:
        n_idx, m_idx = degrees
        encoded = np.nonzero(m_idx >= 0)[0]
        m_enc = m_idx[encoded]
        mirror = (n_idx * n_idx + n_idx - m_idx)[encoded]
        sign = np.where(m_enc > 0, np.power(-1.0, m_enc), 0.0)
        g_pos = g[:, encoded]
        g_neg = np.conj(sign[:, None] * g[:, mirror])
        neg_bins = -np.arange(config.num_bins) % config.fft_size
        delays = delay_matrix_coo(reverb, rir_len, fs)
        for start in range(0, encoded.size, chunk_channels):
            sl = slice(start, start + chunk_channels)
            w = sh_weights_loop(reverb, degrees, encoded[sl])
            rir = delays @ np.ascontiguousarray(w.real) \
                + 1j * (delays @ np.ascontiguousarray(w.imag))
            p = sps.fftconvolve(src[None, :], rir.T, axes=1)
            spec = spfft.fft(sliding_frames(p, config), n=config.fft_size,
                             axis=2)
            ears_r += np.einsum("cfb,ecb->efb", spec[..., : config.num_bins],
                                g_pos[:, sl])
            ears_r += np.conj(np.einsum("cfb,ecb->efb", spec[..., neg_bins],
                                        g_neg[:, sl]))

    return ears_d + ears_r, ears_d
