"""Filter application.

The whole measurement x gives the standard estimate, and its direct and
reverberant parts x_d and x - x_d give the two components whose sum is the
decomposed estimate.
"""

import numpy as np

from .stft import stft

FRAME_BLOCK = 32  # frames transformed and filtered at once in render


def apply_filterbank(ears, spec):
    """z_e(n, k) = sum_m conj(c_e,m(k)) x_m(n, k) for both ears: the
    (2, frames, bins) estimate of the (M, frames, bins) spectra `spec`
    filtered by a bank's (2, bins, M) filters `ears`."""
    if spec.shape[2] != ears.shape[1]:
        raise ValueError("filter bank and spectrogram bin counts differ")
    if spec.shape[0] != ears.shape[2]:
        raise ValueError("filter bank M does not match the channel count")
    return np.einsum("mfb,ebm->efb", spec, np.conj(ears))


def render_estimates(full, direct, ears_d, ears_r, config):
    """The (2, frames, bins) estimates of the direct bank `ears_d` on x_d
    and the reverberant one `ears_r` on x - x_d and on x, in that order,
    from (samples, mics) signals x = `full` and x_d = `direct`,
    FRAME_BLOCK frames at a time: the whole signals' bits."""
    if full.shape != direct.shape:
        raise ValueError(f"mic signal shapes differ: {full.shape}, {direct.shape}")
    frames = config.num_frames(full.shape[0])
    out = [np.empty((2, frames, config.num_bins), complex) for _ in range(3)]
    for start in range(0, frames, FRAME_BLOCK):
        stop = min(start + FRAME_BLOCK, frames)
        x, x_d = (stft(sig, config, start, stop) for sig in (full, direct))
        for est, ears, spec in zip(out, (ears_d, ears_r, ears_r),
                                   (x_d, x - x_d, x)):
            est[:, start:stop] = apply_filterbank(ears, spec)
        del x, x_d, spec  # before the next block forms its own
    return tuple(out)
