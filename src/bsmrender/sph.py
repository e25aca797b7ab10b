"""Spherical harmonics, nearly uniform sphere sampling and steering matrices.

Complex spherical harmonics with the Condon-Shortley phase throughout,
ordered by (n, m) with m = -n..n, so index = n^2 + n + m. The same
convention backs the steering matrices, the HRTF SH fit and the plane-wave
encoding of the simulator; do not mix in real-valued harmonics. The one
exception is the simulated reference's real channels (hrtf.HrtfChannels),
whose decode is derived from complex coefficients in this convention.

Plane-wave phase convention: a unit plane wave arriving from direction u
(unit vector pointing from the origin towards the source) is observed at
position r as exp(+i k r.u). Time delays therefore map to exp(-i 2 pi f tau)
in the rFFT spectrum.
"""

import math

import numpy as np

from .geometry import wavenumbers


def num_coeffs(order):
    return (order + 1) ** 2


def _legendre(n_max, m, colatitudes):
    """Yield fully normalised P_n^m(cos theta), Condon-Shortley phase
    included, for n = |m|..n_max (Rafaely 2015): scipy's
    sph_legendre_p recurrences in its rounding order, so its bits, signed
    zeros too. m < 0 seeds its own chain, and each sum starts from +0."""
    a = abs(m)
    x, s = np.cos(colatitudes), np.sin(colatitudes)
    p0 = np.full_like(x, 1.0 / (2.0 * math.sqrt(math.pi)))
    p1 = (math.sqrt(3.0) / (2.0 * math.sqrt(2.0 * math.pi))
          * (-1.0 if m > 0 else 1.0)) * np.abs(s)
    for k in range(2, a + 1):
        c = math.sqrt((2 * k + 1) * (2 * k - 1) / (4 * k * (k - 1)))
        p0, p1 = p1, 0.0 + c * s * s * p0 + 0.0 * p1
    p0 = p1 if a else p0
    yield p0
    if n_max > a:
        p1 = math.sqrt(2 * a + 3) * x * p0
        yield p1
    for n in range(a + 2, n_max + 1):
        d = (2 * n - 3) * (n * n - m * m)
        c0 = -math.sqrt((2 * n + 1) * ((n - 1) ** 2 - m * m) / d)
        c1 = math.sqrt((2 * n + 1) * (4 * (n - 1) ** 2 - 1) / d)
        p0, p1 = p1, 0.0 + c0 * p0 + c1 * x * p1
        yield p1


def sh_matrix(order, directions):
    """Rows of SH values at (colatitude, azimuth) rows, shape (D, 2).

    Returns a C-contiguous complex array of shape (D, (order+1)^2) from one
    exp(i m phi) and one _legendre chain per m: bitwise sph_harm_y's values.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    th, ph = np.asarray(directions, dtype=float).T
    out = np.empty((th.size, num_coeffs(order)), dtype=complex)
    for m in range(-order, order + 1):
        e = np.exp(1j * m * ph)
        for n, p in enumerate(_legendre(order, m, th), start=abs(m)):
            # (p + 0i) e, each part rounded on its own as sph_harm_y's
            # complex product rounds it
            col = out[:, n * n + n + m]
            col.real = p * e.real - 0.0 * e.imag
            col.imag = p * e.imag + 0.0 * e.real
    return out


def spiral_grid(num_points):
    """Deterministic nearly uniform sphere sampling (golden-angle spiral).

    Midpoint rule on z keeps the poles free: z_i = 1 - (2i+1)/L, with the
    azimuth advancing by the golden angle pi*(3 - sqrt(5)), in (L, 2)
    direction rows. L=1 degenerates to a single equatorial point.
    """
    if num_points < 1:
        raise ValueError("num_points must be >= 1")
    i = np.arange(num_points)
    z = 1.0 - (2.0 * i + 1.0) / num_points
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    phi = np.mod(i * np.pi * (3.0 - np.sqrt(5.0)), 2.0 * np.pi)
    return np.stack([theta, phi], axis=1)


def steering_tensor(stft_cfg, geom, doas):
    """Free-field array responses exp(+i k r_m . u_l) for every STFT bin
    at once, shape (bins, M, L): column l of bin b belongs to doas[l]."""
    if len(doas) == 0:
        raise ValueError("doas must be non-empty")
    ks = wavenumbers(stft_cfg.bin_frequencies())
    th, ph = np.asarray(doas, dtype=float).T
    st = np.sin(th)
    u = np.stack([st * np.cos(ph), st * np.sin(ph), np.cos(th)], axis=0)
    proj = geom.local_positions() @ u  # (M, L)
    v = 1j * ks[:, None, None] * proj[None, :, :]
    return np.exp(v, out=v)  # in place: one (bins, M, L) array at a time
