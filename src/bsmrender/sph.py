"""Spherical harmonics, nearly uniform sphere sampling and steering matrices.

Complex spherical harmonics with the Condon-Shortley phase throughout,
ordered by (n, m) with m = -n..n, so index = n^2 + n + m. The same
convention backs the steering matrices, the HRTF SH fit and the plane-wave
encoding of the simulator; do not mix in real-valued harmonics.

Plane-wave phase convention: a unit plane wave arriving from direction u
(unit vector pointing from the origin towards the source) is observed at
position r as exp(+i k r.u). Time delays therefore map to exp(-i 2 pi f tau)
in the rFFT spectrum.
"""

import numpy as np

from .geometry import wavenumbers

# directions per sph_harm_y_all call in sh_matrix: at order 30 one block's
# output is 7.4 MiB, against 46 MiB for the 1600 directions of an HRTF grid
SH_BLOCK_DIRECTIONS = 256


def num_coeffs(order):
    return (order + 1) ** 2


def sh_degrees(order):
    """(n, m) index arrays for the flat coefficient ordering."""
    n = np.repeat(np.arange(order + 1), 2 * np.arange(order + 1) + 1)
    m = np.concatenate([np.arange(-k, k + 1) for k in range(order + 1)])
    return n, m


def sh_matrix(order, directions):
    """Rows of SH values at (colatitude, azimuth) rows, shape (D, 2).

    Returns a C-contiguous complex array of shape (D, (order+1)^2). One
    sph_harm_y_all call per block of SH_BLOCK_DIRECTIONS directions
    evaluates every degree at once (m < 0 at the end of its second axis,
    where the negative m index finds it) and is written straight into the
    result, so the (order+1, 2 order+1, directions) output of a single call
    never exists. sph_harm_y_all works elementwise, so the values are
    bitwise those of one sph_harm_y call per (n, m). scipy.special loads on
    the first call, so a process that never evaluates harmonics does not
    pay for its import.
    """
    from scipy import special

    if order < 0:
        raise ValueError("order must be >= 0")
    th, ph = np.asarray(directions, dtype=float).T
    n, m = sh_degrees(order)
    out = np.empty((th.size, n.size), dtype=complex)
    for start in range(0, th.size, SH_BLOCK_DIRECTIONS):
        block = slice(start, start + SH_BLOCK_DIRECTIONS)
        y = special.sph_harm_y_all(order, order, th[block], ph[block])
        out[block] = y[n, m].T
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
