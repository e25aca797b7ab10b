"""Per-bin binaural matching filters.

Given the array response V (M x L) to a set of candidate plane waves and
the ear responses h at the same directions, the rendered signal c^H x
should match h^H s for the modeled sources. The general solution weights
by source/noise covariances; the simplified one assumes uncorrelated
equal-power sources and white noise, leaving a single SNR knob:

    c = (V V^H + (1/SNR) I)^{-1} V h*

Above a configurable cutoff the magnitude-least-squares variant trades
phase accuracy for magnitude accuracy, which is the perceptually relevant
quantity at high frequencies. A bank builds A = V V^H + reg I for every
bin at once and solves every bin's LS filter A^{-1}(V h*) in one batched
solve per ear. A MagLS bin factors once, P = A^{-1} V, and then iterates
matrix-vector products c <- P (|h| z/|z|), z = V^H c, using
exp(i angle z) = z/|z| in place of a trig round trip per iteration.
"""

import numpy as np
from dataclasses import dataclass, field

from .sph import steering_tensor

COND_CEILING = 1e12
MAGLS_MAX_ITER = 50
MAGLS_PHASE_TOL = 1e-6


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    snr: float = np.inf  # linear power ratio sigma_s^2 / sigma_n^2
    magls_enabled: bool = False
    magls_cutoff_hz: float = 1500.0
    tikhonov_floor: float = 1e-12

    def __post_init__(self):
        if not self.snr > 0:
            raise ValueError("snr must be positive (may be inf)")
        if self.magls_enabled and not self.magls_cutoff_hz > 0:
            raise ValueError("magls_cutoff_hz must be positive when enabled")
        if self.tikhonov_floor < 0:
            raise ValueError("tikhonov_floor must be non-negative")

    def to_dict(self):
        return {"snr": float(self.snr), "magls_enabled": bool(self.magls_enabled),
                "magls_cutoff_hz": float(self.magls_cutoff_hz),
                "tikhonov_floor": float(self.tikhonov_floor)}


@dataclass(frozen=True)
class CovarianceModel:
    """Source (L x L) and noise (M x M) covariances, Hermitian PSD."""

    source_cov: np.ndarray = field(repr=False)
    noise_cov: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name, mat in (("source_cov", self.source_cov),
                          ("noise_cov", self.noise_cov)):
            mat = np.asarray(mat)
            scale = max(1.0, np.abs(mat).max())
            if np.abs(mat - mat.conj().T).max() > 1e-12 * scale:
                raise ValueError(f"{name} is not Hermitian")
            eig = np.linalg.eigvalsh(mat)
            if eig.min() < -1e-10 * max(eig.max(), 1e-300):
                raise ValueError(f"{name} is not positive semidefinite")


def _check_finite(**arrays):
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise SolverError(f"non-finite values in {name}")


def solve_general(v, cov, h):
    """Covariance-weighted solution (V R_s V^H + R_n)^{-1} V R_s h*."""
    v = np.asarray(v, dtype=complex)
    h = np.asarray(h, dtype=complex)
    _check_finite(v=v, h=h)
    vrs = v @ cov.source_cov
    a = vrs @ v.conj().T + cov.noise_cov
    eig = np.linalg.eigvalsh(a)  # a is Hermitian PSD: guard its conditioning
    cond = np.inf if eig[0] <= 0 else eig[-1] / eig[0]
    if cond > COND_CEILING:
        raise SolverError(f"system is ill-conditioned: condition estimate {cond:.3e}")
    return np.linalg.solve(a, vrs @ np.conj(h))


def _ls_system(v, snr, tikhonov_floor):
    """V V^H + reg I for one (M, L) system or a stack of them (..., M, L)."""
    m = v.shape[-2]
    a = v @ np.swapaxes(v.conj(), -1, -2)
    if np.isinf(snr):
        reg = tikhonov_floor * np.trace(a, axis1=-2, axis2=-1).real / m
    else:
        reg = np.asarray(1.0 / snr)
    return a + reg[..., None, None] * np.eye(m)


def solve_ls(v, h, snr, tikhonov_floor=1e-12):
    """Uncorrelated-sources solution (V V^H + (1/SNR) I)^{-1} V h*.

    snr=inf keeps a tiny trace-scaled Tikhonov term so the solve stays
    well posed; with M >= L and full column rank this reproduces h*
    exactly (push-through identity).
    """
    v = np.asarray(v, dtype=complex)
    h = np.asarray(h, dtype=complex)
    _check_finite(v=v, h=h)
    # the regularized system is invertible by construction, so no
    # conditioning gate here (unlike solve_general): rank-deficient VV^H
    # plus the floor is the intended overdetermined regime, not an error
    a = _ls_system(v, snr, tikhonov_floor)
    return np.linalg.solve(a, v @ np.conj(h))


def solve_magls(v, h, snr, phase_init=None, tikhonov_floor=1e-12):
    """Magnitude least squares via iterated phase substitution.

    Alternates between the phase of the current response V^H c and an LS
    solve against a target with that phase and the wanted magnitude |h|.
    Each solve targets |h| exp(+i phase) in the matched (conjugated)
    domain, which makes the iteration a descent on the magnitude error;
    seeding with the previous bin's filter keeps phases continuous along
    frequency. Deterministic: fixed iteration cap, early exit once the
    largest phase change drops below MAGLS_PHASE_TOL.
    """
    v = np.asarray(v, dtype=complex)
    h = np.asarray(h, dtype=complex)
    _check_finite(v=v, h=h)
    a = _ls_system(v, snr, tikhonov_floor)
    c = np.asarray(phase_init, dtype=complex) if phase_init is not None \
        else np.linalg.solve(a, v @ np.conj(h))
    return _magls_iterate(np.linalg.solve(a, v) * np.abs(h), v.conj().T, c)[0]


def _unit_phase(z):
    """exp(i np.angle(z)) as z/|z|; exactly zero entries keep np.angle's
    phase (0, or +-pi for a real part of -0.0)."""
    r = np.abs(z)
    if np.count_nonzero(r) < r.size:
        z = np.where(r == 0, np.exp(1j * np.angle(z)), z)
        r[r == 0] = 1.0
    return z / r


def _magls_iterate(pm, vh, c):
    """solve_magls from filter c, given pm = A^{-1} V diag|h| and V^H:
    (filter, whether it stopped at MAGLS_MAX_ITER). The phase step is
    tested as the chord |u_new - u| = 2 sin(step/2) of u = z/|z|."""
    chord_tol = 2.0 * np.sin(MAGLS_PHASE_TOL / 2.0)
    u = _unit_phase(np.dot(vh, c))
    for _ in range(MAGLS_MAX_ITER):
        c = np.dot(pm, u)
        u_new = _unit_phase(np.dot(vh, c))
        step = np.abs(u_new - u).max()
        u = u_new
        if step < chord_tol:
            return c, False
    return c, True


@dataclass(frozen=True)
class BsmFilterBank:
    """Filters per ear and bin, ears shape (2, bins, M) with the left ear
    first, plus design provenance.

    magls_capped counts the bins, over both ears, whose MagLS solve stopped
    at MAGLS_MAX_ITER without converging. It is a diagnostic of the design
    run and is not stored with the bank."""

    ears: np.ndarray = field(repr=False)
    tag: str
    config: SolverConfig
    sample_rate: float
    fft_size: int
    magls_capped: int = 0

    def __post_init__(self):
        if self.ears.ndim != 3 or self.ears.shape[0] != 2:
            raise ValueError("coefficients must have shape (2, bins, M)")
        if self.tag not in ("direct", "reverberant"):
            raise ValueError(f"unknown filter bank tag {self.tag!r}")
        if not np.all(np.isfinite(self.ears)):
            raise ValueError("non-finite filter coefficients")
        if self.num_bins != self.fft_size // 2 + 1:
            raise ValueError("bin count does not match fft_size")

    @property
    def num_bins(self):
        return self.ears.shape[1]

    @property
    def num_mics(self):
        return self.ears.shape[2]


def design_filterbank(geom, stft_cfg, hrtf_at_doas, config, tag):
    """Design one filter bank over every bin of `stft_cfg`, steered at the
    directions of hrtf_at_doas. Below the MagLS cutoff (and always at bin
    0) the plain LS solve is used; above it, MagLS seeded with the
    previous bin's filter. The bank's magls_capped counts the MagLS solves
    that hit the iteration cap.
    """
    if hrtf_at_doas.num_bins != stft_cfg.num_bins:
        raise ValueError("hrtf bin count does not match the STFT")
    freqs = stft_cfg.bin_frequencies()
    if config.magls_enabled and config.magls_cutoff_hz > freqs[-1]:
        raise ValueError("magls_cutoff_hz above Nyquist")
    vs = steering_tensor(stft_cfg, geom, hrtf_at_doas.directions)  # (bins, M, L)
    bad_v = ~np.isfinite(vs).all(axis=(1, 2))
    for ear, h in zip(("left", "right"), hrtf_at_doas.ears):
        bad = bad_v | ~np.isfinite(h).all(axis=0)
        if bad.any():
            b = bad.argmax()
            raise SolverError(f"{ear} ear, bin {b} ({freqs[b]:.1f} Hz): non-"
                              f"finite values in {'v' if bad_v[b] else 'h'}")
    # A for 64 bins at a time, so V's conjugate never exists in full
    a = np.concatenate([_ls_system(vs[lo:lo + 64], config.snr, config.tikhonov_floor)
                        for lo in range(0, stft_cfg.num_bins, 64)])  # (bins, M, M)
    ears, capped = np.empty((2, *vs.shape[:2]), dtype=complex), 0
    for coeffs, h in zip(ears, hrtf_at_doas.ears):
        # every bin's LS filter A^{-1}(V h*), its right-hand side formed first
        rhs = vs @ np.conj(h.T, order="C")[:, :, None]
        coeffs[...] = np.linalg.solve(a, rhs)[:, :, 0]
    magls_bins = np.flatnonzero(freqs >= config.magls_cutoff_hz)  # never 0 Hz
    for b in magls_bins if config.magls_enabled else ():
        # one P_b for both ears, each seeded with its filter of bin b-1
        p, vh = np.linalg.solve(a[b], vs[b]), vs[b].conj().T
        for coeffs, h in zip(ears, hrtf_at_doas.ears):
            coeffs[b], hit_cap = _magls_iterate(p * np.abs(h[:, b]), vh,
                                                coeffs[b - 1])
            capped += hit_cap
    return BsmFilterBank(ears=ears, tag=tag, config=config, magls_capped=capped,
                         sample_rate=stft_cfg.sample_rate, fft_size=stft_cfg.fft_size)
