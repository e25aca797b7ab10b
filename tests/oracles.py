"""Test-only helpers and reference implementations of library kernels.

The (n, m) index arrays of the flat SH ordering, the wavenumber of one
frequency, closed-form and truncated-series
plane-wave steering, the steering
matrix of one frequency, the unit vector of a direction, the largest
radius of an array, the Cartesian to spherical conversion, the pinv
HRTF SH fit, the order of a fit and fit-then-evaluate HRTF interpolation, the SH vector of
one direction, the spherical-harmonic matrix from one call per (n, m)
and from one call for all directions, the exact SH coefficients of the
analytic HRTF models, the response of real HRTF channels at a set of
directions, STFT framing through a padded
copy of the signal, the version 1 (double precision) binaural
spectrogram file, filter-bank design as one LS or MagLS solve per bin
and ear, the sinc delay matrix built as COO triplets and converted
to CSR, the image sources enumerated for one receiver at a time, and the
point model's ear signals built from an image list. The library itself
needs none of them; tests use them as oracles for what it does compute.
"""

import math
import struct
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal as sps
from scipy import sparse, special

from bsmrender.geometry import SPEED_OF_SOUND, sph_to_cart, wavenumbers
from bsmrender.hrtf import evaluate_sh, sh_fit_operator
from bsmrender import solvers
from bsmrender.simulate import SINC_TAPS, _HALF, _sinc_kernel, render_rir
from bsmrender.sph import num_coeffs, sh_matrix
from bsmrender.stft import stft


def sh_degrees(order):
    """(n, m) index arrays for the flat coefficient ordering,
    index = n^2 + n + m."""
    n = np.repeat(np.arange(order + 1), 2 * np.arange(order + 1) + 1)
    m = np.concatenate([np.arange(-k, k + 1) for k in range(order + 1)])
    return n, m


def unit_vector(d):
    """Cartesian unit vector of a (colatitude, azimuth) row."""
    return sph_to_cart((1.0, *d))


def max_radius(geom):
    """Largest mic distance from the array center."""
    return geom.mics[:, 0].max()


def sh_basis(order, d):
    """Y_n^m(theta, phi) for one (colatitude, azimuth) row, flat
    (order+1)^2 vector."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return sh_matrix(order, [d])[0]


def wavenumber(f):
    """k = 2 pi f / SPEED_OF_SOUND of one frequency; negative f is refused."""
    if f < 0:
        raise ValueError("negative frequency")
    return 2.0 * np.pi * f / SPEED_OF_SOUND


def steering_vector(f, geom, doa):
    """Free-field omni array response to a unit plane wave from `doa`.

    v_m = exp(+i k r_m . u), with r_m the mic position relative to the
    array center and u the unit vector towards the source. Entries have
    unit magnitude by construction.
    """
    k = wavenumber(f)  # rejects negative f
    u = unit_vector(doa)
    proj = geom.local_positions() @ u
    return np.exp(1j * k * proj)


def steering_matrix(f, geom, doas):
    """Column-stacked steering vectors at one frequency, shape (M, L),
    column l <-> doas[l]."""
    if len(doas) == 0:
        raise ValueError("doas must be non-empty")
    k = wavenumber(f)
    th, ph = np.asarray(doas, dtype=float).T
    st = np.sin(th)
    u = np.stack([st * np.cos(ph), st * np.sin(ph), np.cos(th)], axis=0)  # (3, L)
    return np.exp(1j * k * (geom.local_positions() @ u))


def steering_vector_sh(f, geom, doa, order=None, pad=10):
    """SH-truncated evaluation of the same steering vector.

    Expands the plane wave at each mic radius: 4 pi sum_nm i^n j_n(k r_m)
    Y_nm(mic direction) conj(Y_nm(doa)), truncated at ceil(k r_max) + pad
    unless an explicit order is given. Converges to steering_vector as the
    order grows; used to cross-check the closed form.
    """
    k = wavenumber(f)
    if order is None:
        order = int(np.ceil(k * max_radius(geom))) + pad
    n_idx, _ = sh_degrees(order)
    y_doa = np.conj(sh_basis(order, doa))
    out = np.empty(geom.num_mics, dtype=complex)
    for i, (r, *d) in enumerate(geom.mics):
        jn = special.spherical_jn(np.arange(order + 1), k * r)
        y_mic = sh_basis(order, d)
        out[i] = 4.0 * np.pi * np.sum((1j ** n_idx) * jn[n_idx] * y_mic * y_doa)
    return out


def cart_to_sph(xyz):
    """Cartesian to (r, (colatitude, azimuth) row), azimuth in [0, 2 pi).
    The origin maps to theta=0, phi=0."""
    x, y, z = float(xyz[0]), float(xyz[1]), float(xyz[2])
    r = float(np.sqrt(x * x + y * y + z * z))
    if r == 0.0:
        return 0.0, np.zeros(2)
    theta = float(np.arccos(np.clip(z / r, -1.0, 1.0)))
    phi = float(np.arctan2(y, x)) % (2.0 * np.pi)
    return r, np.array([theta, phi])


def sh_fit(directions, ears, order):
    """The pinv oracle: least-squares SH expansion per bin, both ears,
    (2, C, bins), by the full fit operator (bitwise np.linalg.pinv of the
    directions' SH matrix, with the library's refusals) applied to the
    (2, D, bins) responses at them."""
    return sh_fit_operator(order, directions) @ ears


def fit_order(coeffs):
    """The order of (2, C, bins) SH coefficients, C = (order + 1)^2."""
    return math.isqrt(coeffs.shape[1]) - 1


def sh_interpolate(directions, ears, order, targets):
    """Fit at `order`, then evaluate at `targets`.

    Exact reproduction (to solver precision) when targets coincide with the
    source grid and the fit is exactly determined.
    """
    return evaluate_sh(sh_fit(directions, ears, order), targets)


def sh_matrix_loop(order, theta, phi):
    """SH matrix (directions, (order+1)^2) from one sph_harm_y call per
    (n, m), in the flat ordering index = n^2 + n + m."""
    out = np.empty((np.size(theta), num_coeffs(order)), dtype=complex)
    idx = 0
    for n in range(order + 1):
        for m in range(-n, n + 1):
            out[:, idx] = special.sph_harm_y(n, m, theta, phi)
            idx += 1
    return out


def sh_weights_loop(images, degrees, cols):
    """conj(Y) columns `cols` at the image arrival directions times the
    image gains, from one sph_harm_y call per column; `degrees` is
    sh_degrees' (n, m) pair."""
    n_idx, m_idx = degrees
    out = np.empty((images.count, len(cols)), dtype=complex)
    for j, c in enumerate(cols):
        out[:, j] = np.conj(special.sph_harm_y(int(n_idx[c]), int(m_idx[c]),
                                               images.colatitudes,
                                               images.azimuths))
    return out * images.gains[:, None]


# the ears of point_receiver_hrtf, +/- ear_offset on the y axis
EAR_DIRECTIONS = np.array([[math.pi / 2, math.pi / 2],
                           [math.pi / 2, 3 * math.pi / 2]])


def point_receiver_sh(ear_offset, stft_cfg, order):
    """point_receiver_hrtf's exact SH coefficients up to `order`, by
    Jacobi-Anger: exp(i k r.u) = sum 4 pi i^n j_n(k r) conj(Y_nm(r^))
    Y_nm(u), so c_nm(f) = 4 pi i^n j_n(k a) conj(Y_nm(ear)). Unlike a fit,
    it has no aliasing from the orders above `order`. At ear_offset 0 only
    c_00 = sqrt(4 pi) is nonzero: the flat model, h = 1."""
    if ear_offset < 0:
        raise ValueError("ear_offset must not be negative")
    n_idx = sh_degrees(order)[0]
    ka = wavenumbers(stft_cfg.bin_frequencies()) * ear_offset
    degrees = np.arange(order + 1)
    radial = (4 * np.pi * 1j ** degrees)[:, None] \
        * special.spherical_jn(degrees[:, None], ka)
    return np.conj(sh_matrix(order, EAR_DIRECTIONS))[:, :, None] \
        * radial[n_idx]


def channel_response(channels, directions):
    """Both ears' response sum_k decode_k a_k(u) of hrtf.HrtfChannels at
    (colatitude, azimuth) rows, shape (2, D, bins), left ear first."""
    th, ph = np.asarray(directions, dtype=float).T
    a = np.array(list(channels.angular(th, ph)))  # (K, D)
    return np.einsum("ekb,kd->edb", channels.decode, a)


def sh_matrix_one_call(order, theta, phi):
    """SH matrix (directions, (order+1)^2) from a single sph_harm_y_all
    call over every direction."""
    n, m = sh_degrees(order)
    y = special.sph_harm_y_all(order, order, theta, phi)
    return np.ascontiguousarray(y[n, m].T)


def sliding_frames(signal, config):
    """Windowed analysis frames of a (channels, samples) signal, shape
    (channels, frames, window): the signal is copied into a zero-padded
    buffer and windowed through a strided view of it."""
    num_ch, num_samples = signal.shape
    count = config.num_frames(num_samples)
    padded = np.zeros(
        (num_ch, (count - 1) * config.hop + config.window_length),
        dtype=signal.dtype)
    padded[:, :num_samples] = signal
    segments = sliding_window_view(padded, config.window_length, axis=1)
    return segments[:, :: config.hop] * config.window()


def assert_bits_equal(got, want):
    """Same shape, dtype and bit pattern, signed zeros included."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))


def write_binaural_spectrogram_v1(path, spec, cfg, digest):
    """A BSMG file in the version 1 layout: version 2's header with a
    version field of 1, and the (2, frames, bins) payload `spec` at <c16.
    The tag is the file's name, `_` read as `-`."""
    tag = path.stem.replace("_", "-").encode("ascii")
    with open(path, "wb") as fh:
        fh.write(b"BSMG" + struct.pack("<7I", 1, int(cfg.sample_rate),
                                       cfg.window_length, cfg.hop,
                                       cfg.fft_size, *spec.shape[1:])
                 + struct.pack("<I", len(tag)) + tag + digest.encode("ascii"))
        fh.write(np.ascontiguousarray(spec, dtype="<c16"))


def _ls_system_loop(v, snr):
    m = v.shape[0]
    a = v @ v.conj().T
    reg = max(1.0 / snr, solvers.TIKHONOV_FLOOR * np.trace(a).real / m)
    return a + reg * np.eye(m)


def magls_loop(v, h, snr, phase_init):
    """One bin's MagLS seeded with filter phase_init, through a full solve
    per iteration and the phase as an angle: (filter, whether it stopped
    at MAGLS_MAX_ITER)."""
    a = _ls_system_loop(v, snr)
    c = np.asarray(phase_init, dtype=complex)
    mag = np.abs(h)
    phase = np.angle(v.conj().T @ c)
    for _ in range(solvers.MAGLS_MAX_ITER):
        c = np.linalg.solve(a, v @ np.conj(mag * np.exp(-1j * phase)))
        new_phase = np.angle(v.conj().T @ c)
        step = np.abs(np.angle(np.exp(1j * (new_phase - phase))))
        phase = new_phase
        if step.max() < solvers.MAGLS_PHASE_TOL:
            return c, False
    return c, True


def design_filterbank_loop(vs, responses, stft_cfg, config):
    """solvers.design_filterbank one bin and ear at a time, from the
    (bins, M, L) steering tensor and the (2, L, bins) ear responses: per
    bin, the LS solve A^{-1}(V h*) below the MagLS cutoff (and at bin 0),
    above it MagLS seeded with the ear's filter of the bin before.
    Returns (left, right, magls_capped)."""
    banks = []
    capped = 0
    for h_all in responses:
        coeffs = np.empty(vs.shape[:2], dtype=complex)
        for b, f in enumerate(stft_cfg.bin_frequencies()):
            v, h = vs[b], h_all[:, b]
            cutoff = config.magls_cutoff_hz
            if cutoff is not None and b > 0 and f >= cutoff:
                coeffs[b], hit_cap = magls_loop(v, h, config.snr, coeffs[b - 1])
                capped += hit_cap
            else:
                a = _ls_system_loop(v, config.snr)
                coeffs[b] = np.linalg.solve(a, v @ np.conj(h))
        banks.append(coeffs)
    return banks[0], banks[1], capped


def delay_matrix_coo(images, num_samples, sample_rate):
    """The sparse (num_samples x images) matrix of simulate._delay_taps
    as COO triplets, one per tap inside the signal, converted to CSR."""
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


def compute_image_sources_per_receiver(room, source, receiver, max_order,
                                       max_delay=None):
    """Shoebox image sources seen from `receiver`, enumerated for that
    receiver alone: each parity's lattice bounded by the receiver's own
    reach. Fields as simulate.ImageSourceList's, plus each image's position
    and reflection order; rows sorted by delay."""
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

    pos, gain, delay, theta, phi, order = map(np.concatenate, zip(*blocks))
    idx = np.argsort(delay, kind="stable")
    return SimpleNamespace(positions=pos[idx], gains=gain[idx],
                           delays=delay[idx], colatitudes=theta[idx],
                           azimuths=phi[idx], orders=order[idx])


def point_ear_spectrograms(images, source, ear_offset, config, rir_seconds):
    """The point model's ear signals built from the image list directly,
    (2, frames, bins), left ear first: an image arriving from u reaches
    the ears at +/- ear_offset on y ear_offset u_y / c earlier (left) or
    later (right) than the array center, through render_rir's sinc taps,
    and each ear's RIR is convolved with the source and transformed. The
    RIRs run on until every shifted tap fits; the signals are cut to the
    reference's length."""
    fs = config.sample_rate
    rir_len = int(round(rir_seconds * fs))
    lead = ear_offset * np.sin(images.colatitudes) \
        * np.sin(images.azimuths) / SPEED_OF_SOUND
    pad = int(np.ceil(ear_offset / SPEED_OF_SOUND * fs))
    src = np.asarray(source, float)
    ears = []
    for sign in (-1.0, 1.0):
        shifted = replace(images, delays=images.delays + sign * lead)
        signal = sps.fftconvolve(src, render_rir(shifted, rir_len + pad, fs))
        ears.append(stft(signal[: src.size + rir_len - 1], config)[0])
    return np.stack(ears)
