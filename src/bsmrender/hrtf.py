"""Head-related transfer functions: direction-indexed sets, analytic
models and SH-domain interpolation.

The head frame matches the room frame conventions used everywhere else:
the head faces +x and the interaural axis is +/-y, left ear on +y. The
measured-database path of the original experiment is replaced by a small
binary container (BSMH, read and written by `containers`) plus analytic
test models, which keeps the whole pipeline self-verifying.
"""

import math

import numpy as np
from dataclasses import dataclass, field

from .geometry import directions_to_arrays, wavenumbers
from .sph import num_coeffs, sh_matrix


@dataclass(frozen=True)
class HrtfSet:
    """Direction-indexed ear responses on a one-sided frequency grid.

    ears holds complex responses (2, directions, bins), left ear first.
    """

    directions: tuple
    ears: np.ndarray = field(repr=False)
    sample_rate: float

    def __post_init__(self):
        if len(self.directions) == 0:
            raise ValueError("direction list is empty")
        if self.ears.ndim != 3 or self.ears.shape[:2] != (2, self.num_directions):
            raise ValueError("responses must have shape (2, directions, bins)")
        if not np.all(np.isfinite(self.ears)):
            raise ValueError("non-finite HRTF responses")

    @property
    def num_directions(self):
        return len(self.directions)

    @property
    def num_bins(self):
        return self.ears.shape[2]


@dataclass(frozen=True)
class HrtfSHCoefficients:
    """Per-bin SH expansion of an HrtfSet, ears (2, C, bins), left first."""

    order: int
    ears: np.ndarray = field(repr=False)
    sample_rate: float

    def __post_init__(self):
        if self.ears.shape[:2] != (2, num_coeffs(self.order)):
            raise ValueError("coefficient count does not match order")


def point_receiver_hrtf(ear_offset, stft_cfg, directions):
    """Analytic test model: each ear is an omni point receiver at
    +/- ear_offset on the y axis.

    h(f, d) = exp(+i k r_ear . u(d)) per STFT bin, unit magnitude; the two
    ears are complex conjugates of each other since r_left = -r_right.
    """
    if ear_offset <= 0:
        raise ValueError("ear_offset must be positive")
    th, ph = directions_to_arrays(directions)
    uy = np.sin(th) * np.sin(ph)  # only the y component reaches the phase
    ks = wavenumbers(stft_cfg.bin_frequencies())
    phase = np.outer(uy, ks) * ear_offset
    ears = np.empty((2, *phase.shape), dtype=complex)
    np.exp(np.multiply(1j, phase, out=ears[0]), out=ears[0])
    np.conjugate(ears[0], out=ears[1])
    return HrtfSet(directions=tuple(directions), ears=ears,
                   sample_rate=stft_cfg.sample_rate)


def flat_hrtf(stft_cfg, directions):
    """Unit response at every STFT bin and direction, both ears."""
    ones = np.ones((2, len(directions), stft_cfg.num_bins), dtype=complex)
    return HrtfSet(directions=tuple(directions), ears=ones,
                   sample_rate=stft_cfg.sample_rate)


# a fit is refused when s_min/s_max <= RANK_RTOL (lambda_min/lambda_max
# <= 1e-10 on the Gram matrix), where the Gram route's rounding error,
# about kappa^2 eps, reaches 1e-6
RANK_RTOL = 1e-5
GRAM_BLOCKS = 8  # column blocks in which the Gram matrix is formed


def _refuse_rank_deficient(order, large):
    """ValueError unless every singular value is above the cutoff."""
    if not large.all():
        raise ValueError(
            f"SH fit of order {order} is rank deficient on this direction "
            f"grid: rank {int(large.sum())} of {large.size} coefficients")


def sh_fit_operator(order, directions, keep_order=None):
    """The least-squares fit operator pinv(Y), shape (rows, directions), of
    the SH matrix Y of `directions`, C = (order+1)^2: all C rows, or only
    the first (keep_order+1)^2 (never more than C).

    The full operator takes np.linalg.pinv's steps (the SVD of conj(Y), the
    reciprocal, the product), so it is bitwise pinv(Y), but conjugates Y in
    place and frees Y and U as soon as they are used. Leading rows come
    through the Gram matrix instead, within about kappa(Y)^2 eps of pinv's
    at about half the SVD's CPU time. The full operator keeps the SVD only
    because design's direct bank, an ill-conditioned solve, turns a
    rounding-level change in the fit into a 1e-3 change per bin; once that
    bank is solved in closed form (ROADMAP item 1), the SVD route is
    deleted and every fit takes the Gram route.

    An underdetermined fit (fewer than C directions) or one with
    s_min/s_max <= RANK_RTOL (rank counted at that cutoff) is an error
    rather than a regularized or least-norm guess.
    """
    c = num_coeffs(order)
    if len(directions) < c:
        raise ValueError(f"SH fit of order {order} needs >= {c} directions, "
                         f"got {len(directions)}")
    rows = num_coeffs(order if keep_order is None else min(keep_order, order))
    y = sh_matrix(order, directions)
    if rows < c:
        return _leading_rows(order, y, rows)
    u, s, vt = np.linalg.svd(np.conjugate(y, out=y), full_matrices=False)
    del y
    _refuse_rank_deficient(order, s > RANK_RTOL * s.max())
    s = np.divide(1, s, out=s)
    scaled = s[:, None] * u.T
    del u
    return vt.T @ scaled


def _leading_rows(order, y, rows):
    """The first `rows` rows (Y X)^H of pinv(Y), G X = I[:, :rows] with
    G = Y^H Y. conj(G) = Y^T conj(Y) is formed in column blocks, so Y
    exists once; W = conj(X) solves conj(G) W = I[:, :rows], so the rows
    are (conj(Y) W)^T, with Y conjugated in place."""
    c = y.shape[1]
    gram = np.empty((c, c), dtype=complex)
    width = -(-c // GRAM_BLOCKS)
    for start in range(0, c, width):
        cols = slice(start, start + width)
        gram[:, cols] = y.T @ y[:, cols].conj()
    lam = np.linalg.eigvalsh(gram)
    _refuse_rank_deficient(order, lam > RANK_RTOL ** 2 * lam[-1])
    w = np.linalg.solve(gram, np.eye(c, rows, dtype=complex))
    del gram
    return (np.conjugate(y, out=y) @ w).T


def apply_sh_fit(operator, hrtf_set):
    """Both ears' SH coefficients from sh_fit_operator's result for the
    set's directions, one product per ear in one matmul."""
    if operator.shape[1] != hrtf_set.num_directions:
        raise ValueError("fit operator does not match the direction count")
    return HrtfSHCoefficients(order=math.isqrt(operator.shape[0]) - 1,
                              ears=operator @ hrtf_set.ears,
                              sample_rate=hrtf_set.sample_rate)


def evaluate_sh(coeffs, targets):
    """Evaluate SH coefficients at target directions -> HrtfSet."""
    y = sh_matrix(coeffs.order, targets)
    return HrtfSet(directions=tuple(targets), ears=y @ coeffs.ears,
                   sample_rate=coeffs.sample_rate)
