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

from .geometry import directions_to_arrays
from .sph import num_coeffs, sh_matrix


@dataclass(frozen=True)
class HrtfSet:
    """Direction-indexed ear responses on a one-sided frequency grid.

    left/right hold complex responses of shape (directions, bins).
    """

    directions: tuple
    left: np.ndarray = field(repr=False)
    right: np.ndarray = field(repr=False)
    sample_rate: float

    def __post_init__(self):
        if len(self.directions) == 0:
            raise ValueError("direction list is empty")
        if self.left.shape != self.right.shape:
            raise ValueError("left/right response shapes differ")
        if self.left.shape[0] != len(self.directions):
            raise ValueError("response rows do not match direction count")
        if not (np.all(np.isfinite(self.left)) and np.all(np.isfinite(self.right))):
            raise ValueError("non-finite HRTF responses")

    @property
    def num_directions(self):
        return len(self.directions)

    @property
    def num_bins(self):
        return self.left.shape[1]

    def response(self, ear):
        if ear == "left":
            return self.left
        if ear == "right":
            return self.right
        raise ValueError(f"unknown ear {ear!r}")


@dataclass(frozen=True)
class HrtfSHCoefficients:
    """Per-bin SH expansion of an HrtfSet, coefficients shape (C, bins)."""

    order: int
    left: np.ndarray = field(repr=False)
    right: np.ndarray = field(repr=False)
    sample_rate: float

    def __post_init__(self):
        c = num_coeffs(self.order)
        if self.left.shape[0] != c or self.right.shape[0] != c:
            raise ValueError("coefficient count does not match order")

    def truncated(self, order):
        """Drop coefficients above `order` (no-op when order is higher).

        The kept rows are copies, so the full arrays can be freed.
        """
        if order >= self.order:
            return self
        c = num_coeffs(order)
        return HrtfSHCoefficients(order=order, left=self.left[:c].copy(),
                                  right=self.right[:c].copy(),
                                  sample_rate=self.sample_rate)


def point_receiver_hrtf(ear_offset, grid, directions):
    """Analytic test model: each ear is an omni point receiver at
    +/- ear_offset on the y axis.

    h(f, d) = exp(+i k r_ear . u(d)), unit magnitude everywhere; the two
    ears are complex conjugates of each other since r_left = -r_right.
    """
    if ear_offset <= 0:
        raise ValueError("ear_offset must be positive")
    th, ph = directions_to_arrays(directions)
    uy = np.sin(th) * np.sin(ph)  # only the y component reaches the phase
    ks = grid.wavenumbers()
    phase = np.outer(uy, ks) * ear_offset
    left = np.exp(1j * phase)
    return HrtfSet(directions=tuple(directions), left=left,
                   right=np.conj(left), sample_rate=grid.sample_rate)


def flat_hrtf(grid, directions):
    """Unit response at every bin and direction, both ears."""
    ones = np.ones((len(directions), grid.num_bins), dtype=complex)
    return HrtfSet(directions=tuple(directions), left=ones, right=ones.copy(),
                   sample_rate=grid.sample_rate)


def sh_fit_operator(order, directions, keep_order=None):
    """The least-squares fit operator pinv(Y), shape (rows, directions), of
    the SH matrix Y of `directions`, C = (order+1)^2: all C rows, or only
    the first (keep_order+1)^2 (never more than C).

    Takes np.linalg.pinv's steps (the SVD of conj(Y), the cutoff 1e-15
    sigma_max, the reciprocal, the product), so the result is bitwise
    pinv(Y), or its first rows, but conjugates Y in place, frees Y and U as
    soon as they are used and forms only the kept rows. An underdetermined
    fit (fewer than C directions) or a rank-deficient one (a singular value
    at or below the cutoff) is an error rather than a regularized or
    least-norm guess.
    """
    c = num_coeffs(order)
    if len(directions) < c:
        raise ValueError(f"SH fit of order {order} needs >= {c} directions, "
                         f"got {len(directions)}")
    y = sh_matrix(order, directions)
    u, s, vt = np.linalg.svd(np.conjugate(y, out=y), full_matrices=False)
    del y
    large = s > 1e-15 * s.max()
    if not large.all():
        raise ValueError(
            f"SH fit of order {order} is rank deficient on this direction "
            f"grid: rank {int(large.sum())} of {c} coefficients")
    s = np.divide(1, s, where=large, out=s)
    scaled = s[:, None] * u.T
    del u
    rows = num_coeffs(order if keep_order is None else min(keep_order, order))
    return vt.T[:rows] @ scaled


def apply_sh_fit(operator, hrtf_set):
    """Both ears' SH coefficients from sh_fit_operator's result for the
    set's directions."""
    if operator.shape[1] != hrtf_set.num_directions:
        raise ValueError("fit operator does not match the direction count")
    return HrtfSHCoefficients(order=math.isqrt(operator.shape[0]) - 1,
                              left=operator @ hrtf_set.left,
                              right=operator @ hrtf_set.right,
                              sample_rate=hrtf_set.sample_rate)


def sh_fit(hrtf_set, order):
    """Least-squares SH expansion per bin, both ears: the fit operator of
    the set's directions applied to its responses."""
    return apply_sh_fit(sh_fit_operator(order, hrtf_set.directions),
                        hrtf_set)


def evaluate_sh(coeffs, targets):
    """Evaluate SH coefficients at target directions -> HrtfSet."""
    y = sh_matrix(coeffs.order, targets)
    return HrtfSet(directions=tuple(targets), left=y @ coeffs.left,
                   right=y @ coeffs.right, sample_rate=coeffs.sample_rate)
