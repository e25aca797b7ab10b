"""Head-related transfer functions: analytic models and SH-domain
interpolation.

The head frame matches the room frame conventions used everywhere else:
the head faces +x and the interaural axis is +/-y, left ear on +y. The
measured-database path of the original experiment is replaced by a small
binary container (BSMH, read and written by `containers`) plus analytic
test models, which keeps the whole pipeline self-verifying.

Ear responses are plain (2, D, bins) arrays at D direction rows, and a
fit a plain (2, C, bins) array of SH coefficients, left ear first, whose
order is read from C = (order + 1)^2. Design fits every model from its
responses on a direction grid (`point_receiver_hrtf`, whose ears at the
center give the flat model, or a file's set) and evaluates the fit at
its DOAs (`evaluate_sh`). The simulated reference takes an HRTF as real
channels (`HrtfChannels`): the point model's zonal channels projected
from its own responses, with no fit, and any SH expansion, a file's
fitted set, by the complex-to-real harmonic map.
"""

import math

import numpy as np
from dataclasses import dataclass, field

from .geometry import wavenumbers
from .sph import _legendre, num_coeffs, sh_matrix


def point_receiver_hrtf(ear_offset, stft_cfg, directions):
    """Analytic test model: each ear is an omni point receiver at
    +/- ear_offset on the y axis; (2, D, bins) responses, left ear first.

    h(f, d) = exp(+i k r_ear . u(d)) per STFT bin, unit magnitude; the two
    ears are complex conjugates of each other since r_left = -r_right. At
    ear_offset 0 both ears sit at the center: the flat model, h = 1.
    """
    if ear_offset < 0:
        raise ValueError("ear_offset must not be negative")
    th, ph = np.asarray(directions, dtype=float).T
    uy = np.sin(th) * np.sin(ph)  # only the y component reaches the phase
    ks = wavenumbers(stft_cfg.bin_frequencies())
    phase = np.outer(uy, ks) * ear_offset
    ears = np.empty((2, *phase.shape), dtype=complex)
    np.exp(np.multiply(1j, phase, out=ears[0]), out=ears[0])
    np.conjugate(ears[0], out=ears[1])
    return ears


@dataclass(frozen=True)
class HrtfChannels:
    """An HRTF as K real angular functions a_k and a per-bin decode: both
    ears' response to a plane wave from u is sum_k decode[:, k] a_k(u),
    with decode of shape (2, K, bins), left ear first.

    Zonal channels are the order + 1 normalised Legendre functions P_n^0
    of the angle to +y, the left ear's axis. The others are all
    (order + 1)^2 real harmonics, m = 0..order in turn: P_n^0, then
    sqrt(2) P_n^m cos(m phi) and sqrt(2) P_n^m sin(m phi) for each n.
    """

    order: int
    decode: np.ndarray = field(repr=False)
    zonal: bool

    def angular(self, colatitudes, azimuths):
        """Yield each a_k at the directions, in the decode's order, from
        one Legendre chain at a time."""
        if self.zonal:
            yield from _legendre(self.order, 0, np.arccos(
                np.sin(colatitudes) * np.sin(azimuths)))
            return
        yield from _legendre(self.order, 0, colatitudes)
        for m in range(1, self.order + 1):
            c = math.sqrt(2) * np.cos(m * azimuths)
            s = math.sqrt(2) * np.sin(m * azimuths)
            for p in _legendre(self.order, m, colatitudes):
                yield p * c
                yield p * s


def point_receiver_channels(ear_offset, stft_cfg, order):
    """point_receiver_hrtf's channels up to `order`, projected on them:
    D_n(f) = 2 pi int h(f, t) P_n^0(t) dt over t = u . y, the cosine of
    the angle to +y, by Gauss-Legendre at Q = order + floor(k a) + 20
    nodes (k a at Nyquist), which integrates every bin to rounding. The
    weights are Christoffel's, 2 pi w_q = 1 / sum_(n < Q) P_n^0(t_q)^2,
    from the same Legendre chain; h is taken at (pi/2, arcsin t), whose
    u . y is t. No fit, so no aliasing from the orders above `order`.
    With its ears at the center the model is flat, h = 1, whose one
    channel is order 0."""
    if ear_offset < 0:
        raise ValueError("ear_offset must not be negative")
    order = order if ear_offset else 0
    ka = wavenumbers(stft_cfg.bin_frequencies()[-1]) * ear_offset
    t = np.polynomial.legendre.leggauss(order + int(ka) + 20)[0]
    chain = np.array(list(_legendre(t.size - 1, 0, np.arccos(t))))
    ears = point_receiver_hrtf(ear_offset, stft_cfg, np.column_stack(
        [np.full_like(t, np.pi / 2), np.arcsin(t)]))
    weights = chain[:order + 1] / (chain * chain).sum(axis=0)
    return HrtfChannels(order=order, decode=weights @ ears, zonal=True)


def sh_channels(h, order):
    """The real channels of a fit h up to min(order, h's order): H_n0 for
    m = 0, and for m > 0 (H_nm + (-1)^m H_n,-m) / sqrt(2) with the cosine
    and i (H_nm - (-1)^m H_n,-m) / sqrt(2) with the sine, so
    sum_k decode_k a_k(u) = sum_c H_c Y_c(u) exactly."""
    order = min(order, math.isqrt(h.shape[1]) - 1)
    rows = [h[:, n * n + n] for n in range(order + 1)]
    for m in range(1, order + 1):
        for n in range(m, order + 1):
            pos, neg = h[:, n * n + n + m], (-1) ** m * h[:, n * n + n - m]
            rows += [(pos + neg) / math.sqrt(2),
                     1j * (pos - neg) / math.sqrt(2)]
    return HrtfChannels(order=order, decode=np.stack(rows, axis=1),
                        zonal=False)


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
    at about half the SVD's CPU time (simulate asks for them for a file's
    set). The full operator keeps the SVD only
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
    are (conj(Y) W)^T, with Y conjugated in place. Each eigenvalue lies
    in a Gershgorin disc [d - r, d + r] (d: diagonal, r: the row's other
    |G|), so min(d - r) > RANK_RTOL^2 max(d + r) passes the grid; the
    discs' rounding, about C eps max|G|, cannot cross the 1e-10 cutoff.
    A grid they do not pass is judged, and refused, by eigvalsh."""
    c = y.shape[1]
    gram = np.empty((c, c), dtype=complex)
    width = -(-c // GRAM_BLOCKS)
    for start in range(0, c, width):
        cols = slice(start, start + width)
        gram[:, cols] = y.T @ y[:, cols].conj()
    d = gram.diagonal().real
    r = np.abs(gram).sum(axis=1) - np.abs(d)
    if not (d - r).min() > RANK_RTOL ** 2 * (d + r).max():
        lam = np.linalg.eigvalsh(gram)
        _refuse_rank_deficient(order, lam > RANK_RTOL ** 2 * lam[-1])
    w = np.linalg.solve(gram, np.eye(c, rows, dtype=complex))
    del gram
    return (np.conjugate(y, out=y) @ w).T


def evaluate_sh(coeffs, targets):
    """A fit's (2, D, bins) responses at (colatitude, azimuth) rows."""
    return sh_matrix(math.isqrt(coeffs.shape[1]) - 1, targets) @ coeffs
