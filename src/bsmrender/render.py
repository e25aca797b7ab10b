"""Filter application.

Filtering keeps the provenance algebra of stft.Spectrogram: the whole
measurement x gives the standard estimate, and its direct and reverberant
parts give the two components whose sum is the decomposed estimate.
"""

import numpy as np

from .stft import Spectrogram


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
