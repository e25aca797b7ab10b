"""Test-only helpers and reference implementations of library kernels.

The wavenumber of one frequency, closed-form and truncated-series
plane-wave steering, the steering
matrix of one frequency, the unit vector of a Direction, the largest
radius of an array, the Cartesian to spherical conversion, the pinv
HRTF SH fit and fit-then-evaluate HRTF interpolation, the SH vector of
one direction, the spherical-harmonic matrix from one call per (n, m)
and from one call for all directions, STFT framing through a padded
copy of the signal, the version 1 (double precision) binaural
spectrogram file, and filter-bank design as one LS or MagLS solve per
bin and ear. The library itself needs none of them; tests use them as
oracles for what it does compute.
"""

import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special

from bsmrender.geometry import SPEED_OF_SOUND, Direction, directions_to_arrays, \
    sph_to_cart
from bsmrender.hrtf import apply_sh_fit, evaluate_sh, sh_fit_operator
from bsmrender import solvers
from bsmrender.sph import num_coeffs, sh_degrees, sh_matrix, steering_tensor


def unit_vector(d):
    """Cartesian unit vector of a Direction."""
    return np.array(sph_to_cart(1.0, d))


def max_radius(geom):
    """Largest mic distance from the array center."""
    return max(r for r, _ in geom.mics)


def sh_basis(order, d):
    """Y_n^m(theta, phi) for one Direction, flat (order+1)^2 vector."""
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
    th, ph = directions_to_arrays(doas)
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
    for i, (r, d) in enumerate(geom.mics):
        jn = special.spherical_jn(np.arange(order + 1), k * r)
        y_mic = sh_basis(order, d)
        out[i] = 4.0 * np.pi * np.sum((1j ** n_idx) * jn[n_idx] * y_mic * y_doa)
    return out


def cart_to_sph(xyz):
    """Cartesian to (r, Direction). The origin maps to theta=0, phi=0."""
    x, y, z = float(xyz[0]), float(xyz[1]), float(xyz[2])
    r = float(np.sqrt(x * x + y * y + z * z))
    if r == 0.0:
        return 0.0, Direction(0.0, 0.0)
    theta = float(np.arccos(np.clip(z / r, -1.0, 1.0)))
    phi = float(np.arctan2(y, x))
    return r, Direction(theta, phi)


def sh_fit(hrtf_set, order):
    """The pinv oracle: least-squares SH expansion per bin, both ears, by
    the full fit operator (bitwise np.linalg.pinv of the set's SH matrix,
    with the library's refusals) applied to the set's responses."""
    return apply_sh_fit(sh_fit_operator(order, hrtf_set.directions),
                        hrtf_set)


def sh_interpolate(hrtf_set, order, targets):
    """Fit at `order`, then evaluate at `targets`.

    Exact reproduction (to solver precision) when targets coincide with the
    source grid and the fit is exactly determined.
    """
    return evaluate_sh(sh_fit(hrtf_set, order), targets)


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


def write_binaural_spectrogram_v1(path, spec, digest):
    """A BSMG file in the version 1 layout: version 2's header with a
    version field of 1, and the (2, frames, bins) payload at <c16."""
    cfg, tag = spec.config, spec.tag.encode("ascii")
    with open(path, "wb") as fh:
        fh.write(b"BSMG" + struct.pack("<7I", 1, int(cfg.sample_rate),
                                       cfg.window_length, cfg.hop,
                                       cfg.fft_size, spec.num_frames,
                                       spec.num_bins)
                 + struct.pack("<I", len(tag)) + tag + digest.encode("ascii"))
        fh.write(np.ascontiguousarray(spec.data, dtype="<c16"))


def _ls_system_loop(v, snr, tikhonov_floor):
    m = v.shape[0]
    a = v @ v.conj().T
    if np.isinf(snr):
        reg = tikhonov_floor * np.trace(a).real / m
    else:
        reg = 1.0 / snr
    return a + reg * np.eye(m)


def magls_loop(v, h, snr, phase_init, tikhonov_floor=1e-12):
    """One bin's MagLS seeded with filter phase_init, through a full solve
    per iteration and the phase as an angle: (filter, whether it stopped
    at MAGLS_MAX_ITER)."""
    a = _ls_system_loop(v, snr, tikhonov_floor)
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


def design_filterbank_loop(geom, stft_cfg, hrtf_at_doas, config):
    """solvers.design_filterbank one bin and ear at a time: per bin, the
    LS solve A^{-1}(V h*) below the MagLS cutoff (and at bin 0), above it
    MagLS seeded with the ear's filter of the bin before.
    Returns (left, right, magls_capped)."""
    vs = steering_tensor(stft_cfg, geom, hrtf_at_doas.directions)
    banks = []
    capped = 0
    for h_all in hrtf_at_doas.ears:
        coeffs = np.empty((stft_cfg.num_bins, geom.num_mics), dtype=complex)
        for b, f in enumerate(stft_cfg.bin_frequencies()):
            v, h = vs[b], h_all[:, b]
            if config.magls_enabled and b > 0 and f >= config.magls_cutoff_hz:
                coeffs[b], hit_cap = magls_loop(v, h, config.snr, coeffs[b - 1],
                                                config.tikhonov_floor)
                capped += hit_cap
            else:
                a = _ls_system_loop(v, config.snr, config.tikhonov_floor)
                coeffs[b] = np.linalg.solve(a, v @ np.conj(h))
        banks.append(coeffs)
    return banks[0], banks[1], capped
