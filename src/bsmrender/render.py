"""Filter application.

Filtering keeps the provenance algebra of stft.Spectrogram: the whole
measurement x gives the standard estimate, and its direct and reverberant
parts give the two components whose sum is the decomposed estimate.
"""

import numpy as np

from .stft import Spectrogram, stft

FRAME_BLOCK = 32  # frames transformed and filtered at once in render

_COMPONENT_TAG = {"x": "bsm-standard", "x_d": "component-direct",
                  "x_r": "component-reverb"}


def apply_filterbank(bank, spec):
    """z_e(n, k) = sum_m conj(c_e,m(k)) x_m(n, k) for both ears.

    Returns a two-channel (left, right) spectrogram whose tag follows the
    input's: filtering the whole measurement gives the standard estimate,
    filtering a component gives that component's estimate.
    """
    if spec.num_bins != bank.num_bins:
        raise ValueError("filter bank and spectrogram bin counts differ")
    if spec.num_channels != bank.num_mics:
        raise ValueError("filter bank M does not match the channel count")
    if spec.tag not in _COMPONENT_TAG:
        raise ValueError(f"cannot filter a spectrogram tagged {spec.tag!r}")
    ears = np.einsum("mfb,ebm->efb", spec.data, np.conj(bank.ears))
    return Spectrogram(data=ears, config=spec.config,
                       tag=_COMPONENT_TAG[spec.tag])


def render_estimates(full, direct, bank_d, bank_r, config):
    """The direct bank on x_d and the reverberant one on x - x_d and on x,
    keyed by tag, from (samples, mics) signals x = `full` and x_d =
    `direct`, FRAME_BLOCK frames at a time: the whole signals' bits."""
    if full.shape != direct.shape:
        raise ValueError(f"mic signal shapes differ: {full.shape}, {direct.shape}")
    frames = config.num_frames(full.shape[0])
    out = {tag: np.empty((2, frames, config.num_bins), complex)
           for tag in _COMPONENT_TAG.values()}
    for start in range(0, frames, FRAME_BLOCK):
        stop = min(start + FRAME_BLOCK, frames)
        x, x_d = (stft(sig, config, tag, start, stop)
                  for sig, tag in ((full, "x"), (direct, "x_d")))
        for bank, spec in ((bank_d, x_d), (bank_r, x - x_d), (bank_r, x)):
            est = apply_filterbank(bank, spec)
            out[est.tag][:, start:stop] = est.data
        del x, x_d, spec  # before the next block forms its own
    return {tag: Spectrogram(data, config, tag) for tag, data in out.items()}
