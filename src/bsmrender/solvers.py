"""Per-bin binaural matching filters.

Given the array response V (M x L) to a set of candidate plane waves and
the ear responses h at the same directions, the rendered signal c^H x
should match h^H s for the modeled sources. The general solution weights
by source/noise covariances; the simplified one assumes uncorrelated
equal-power sources and white noise, leaving a single SNR knob:

    c = (V V^H + (1/SNR) I)^{-1} V h*

Above a cutoff, when one is set, the magnitude-least-squares variant
trades phase accuracy for magnitude accuracy, which is the perceptually
relevant quantity at high frequencies. A bank is its (2, bins, M)
filters, left ear first. design_filterbank takes V and h as the caller
built them, (bins, M, L) and (2, L, bins) arrays, builds
A = V V^H + reg I for every bin at once and solves every bin's LS
filters A^{-1}(V h*) of both ears in one batched solve. A MagLS bin
factors once, P = A^{-1} V, and then iterates matrix-vector products
c <- P (|h| z/|z|), z = V^H c, using exp(i angle z) = z/|z| in place of a
trig round trip per iteration.
"""

import numpy as np
from dataclasses import dataclass, field

COND_CEILING = 1e12
TIKHONOV_FLOOR = 1e-12
MAGLS_MAX_ITER = 50
MAGLS_PHASE_TOL = 1e-6


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    snr: float = np.inf  # linear power ratio sigma_s^2 / sigma_n^2
    magls_cutoff_hz: float = None  # None: plain LS at every bin

    def __post_init__(self):
        if not self.snr > 0:
            raise ValueError("snr must be positive (may be inf)")
        if self.magls_cutoff_hz is not None and not self.magls_cutoff_hz > 0:
            raise ValueError("magls_cutoff_hz must be positive or None")


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


def _ls_system(v, snr):
    """V V^H + reg I for one (M, L) system or a stack of them (..., M, L),
    reg = max(1/snr, TIKHONOV_FLOOR tr(V V^H)/M) per system."""
    m = v.shape[-2]
    a = v @ np.swapaxes(v.conj(), -1, -2)
    floor = TIKHONOV_FLOOR * np.trace(a, axis1=-2, axis2=-1).real / m
    return a + np.maximum(1.0 / snr, floor)[..., None, None] * np.eye(m)


def solve_ls(v, h, snr):
    """Uncorrelated-sources solution (V V^H + reg I)^{-1} V h*, reg = 1/SNR
    or the trace-scaled Tikhonov floor, whichever is larger.

    At snr=inf the floor keeps the solve well posed; with M >= L and full
    column rank this reproduces h* exactly (push-through identity).
    """
    v = np.asarray(v, dtype=complex)
    h = np.asarray(h, dtype=complex)
    _check_finite(v=v, h=h)
    # the regularized system is invertible by construction, so no
    # conditioning gate here (unlike solve_general): rank-deficient VV^H
    # plus the floor is the intended overdetermined regime, not an error
    a = _ls_system(v, snr)
    return np.linalg.solve(a, v @ np.conj(h))


def solve_magls(v, h, snr, phase_init=None):
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
    a = _ls_system(v, snr)
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


def design_filterbank(vs, responses, stft_cfg, config):
    """Design one filter bank over every bin of `stft_cfg` from the
    steering tensor vs (bins, M, L) and the ears' responses (2, L, bins).
    With no MagLS cutoff, and below a set one (and always at bin 0), the
    plain LS solve is used; above it, MagLS seeded with the previous bin's
    filter. Returns (ears, capped): the (2, bins, M) filters, left ear
    first, and the count of MagLS solves over both ears that stopped at
    MAGLS_MAX_ITER without converging, a diagnostic of the design run.
    """
    bins, _, doas = vs.shape
    if responses.shape != (2, doas, bins) or bins != stft_cfg.num_bins:
        raise ValueError(f"steering tensor {vs.shape} and responses "
                         f"{responses.shape} do not share L directions and "
                         f"the STFT's {stft_cfg.num_bins} bins")
    freqs = stft_cfg.bin_frequencies()
    cutoff = config.magls_cutoff_hz
    if cutoff is not None and cutoff > freqs[-1]:
        raise ValueError("magls_cutoff_hz above Nyquist")
    bad_v = ~np.isfinite(vs).all(axis=(1, 2))
    bad = bad_v | ~np.isfinite(responses).all(axis=1)  # (2, bins)
    if bad.any():
        ear, b = np.unravel_index(bad.argmax(), bad.shape)  # left ear first
        raise SolverError(f"{('left', 'right')[ear]} ear, bin {b} "
                          f"({freqs[b]:.1f} Hz): non-finite values in "
                          f"{'v' if bad_v[b] else 'h'}")
    # A for 64 bins at a time, so V's conjugate never exists in full
    a = np.concatenate([_ls_system(vs[lo:lo + 64], config.snr)
                        for lo in range(0, bins, 64)])  # (bins, M, M)
    # every bin's LS filters A^{-1}(V h*) of both ears in one (bins, M, 2)
    # solve, each ear's right-hand side formed first
    rhs = np.concatenate([vs @ np.conj(h.T, order="C")[:, :, None]
                          for h in responses], axis=2)
    ears, capped = np.moveaxis(np.linalg.solve(a, rhs), 2, 0).copy(), 0
    magls_bins = [] if cutoff is None else np.flatnonzero(freqs >= cutoff)
    for b in magls_bins:  # never bin 0: the cutoff is positive
        # one P_b for both ears, each seeded with its filter of bin b-1
        p, vh = np.linalg.solve(a[b], vs[b]), vs[b].conj().T
        for coeffs, h in zip(ears, responses):
            coeffs[b], hit_cap = _magls_iterate(p * np.abs(h[:, b]), vh,
                                                coeffs[b - 1])
            capped += hit_cap
    return ears, capped
