"""Filtering, recombination and binaural reference decoding.

Provenance tags travel with every binaural spectrogram so that mixing
incompatible pipelines is an error instead of a silent bug: only
component-direct + component-reverb may be summed (yielding the decomposed
estimate) and only reference - reference-direct may be subtracted
(yielding the reverberant reference).
"""

import numpy as np
from dataclasses import dataclass

from .sph import sh_degrees
from .stft import Spectrogram

BINAURAL_TAGS = ("reference", "reference-direct", "reference-reverb",
                 "bsm-standard", "bsm-decomposed",
                 "component-direct", "component-reverb")


@dataclass(frozen=True)
class BinauralSpectrogram:
    left: Spectrogram
    right: Spectrogram
    tag: str

    def __post_init__(self):
        if self.tag not in BINAURAL_TAGS:
            raise ValueError(f"unknown binaural tag {self.tag!r}")
        if self.left.data.shape != self.right.data.shape:
            raise ValueError("left/right shapes differ")
        if self.left.num_channels != 1:
            raise ValueError("binaural sides must be single-channel")
        if self.left.config != self.right.config:
            raise ValueError("left/right configs differ")

    @property
    def num_frames(self):
        return self.left.num_frames

    @property
    def num_bins(self):
        return self.left.num_bins

    @property
    def config(self):
        return self.left.config

    def ear(self, which):
        """Frame x bin matrix for one ear."""
        side = self.left if which == "left" else self.right
        return side.data[0]

    def _combine(self, other, op, out_tag):
        if self.left.data.shape != other.left.data.shape:
            raise ValueError("operands have different shapes")
        data_l = op(self.left.data, other.left.data)
        data_r = op(self.right.data, other.right.data)
        origin = self.left.origin
        return BinauralSpectrogram(
            left=Spectrogram(data=data_l, config=self.config, origin=origin),
            right=Spectrogram(data=data_r, config=self.config, origin=origin),
            tag=out_tag)

    def __add__(self, other):
        tags = {self.tag, other.tag}
        if tags != {"component-direct", "component-reverb"}:
            raise ValueError(f"cannot sum tags {self.tag!r} + {other.tag!r}")
        return self._combine(other, np.add, "bsm-decomposed")

    def __sub__(self, other):
        if (self.tag, other.tag) != ("reference", "reference-direct"):
            raise ValueError(f"cannot subtract {other.tag!r} from {self.tag!r}")
        return self._combine(other, np.subtract, "reference-reverb")


_COMPONENT_TAG = {"x": "bsm-standard", "x_d": "component-direct",
              "x_r": "component-reverb"}


def apply_filterbank(bank, spec):
    """z_e(n, k) = sum_m conj(c_e,m(k)) x_m(n, k) for both ears.

    The output tag follows the spectrogram origin: filtering the whole
    measurement gives the standard estimate, filtering a component gives
    that component's estimate.
    """
    if spec.num_bins != bank.num_bins:
        raise ValueError("filter bank and spectrogram bin counts differ")
    if spec.num_channels != bank.num_mics:
        raise ValueError("filter bank M does not match the channel count")
    if spec.origin not in _COMPONENT_TAG:
        raise ValueError(f"cannot filter a spectrogram tagged {spec.origin!r}")
    sides = {}
    for ear in ("left", "right"):
        coeffs = bank.left if ear == "left" else bank.right
        z = np.einsum("mfb,bm->fb", spec.data, np.conj(coeffs))
        sides[ear] = Spectrogram(data=z[None], config=spec.config, origin="z")
    return BinauralSpectrogram(left=sides["left"], right=sides["right"],
                               tag=_COMPONENT_TAG[spec.origin])


def decompose_measurement(x, x_d):
    """Reverberant residual x_r = x - x_d, element-wise."""
    if x.data.shape != x_d.data.shape:
        raise ValueError("measurement and direct component shapes differ")
    if (x.origin, x_d.origin) != ("x", "x_d"):
        raise ValueError("decompose expects origins ('x', 'x_d')")
    return Spectrogram(data=x.data - x_d.data, config=x.config, origin="x_r")


def render_decomposed(x_d, x_r, bank_direct, bank_reverb):
    """Direct and reverberant components filtered by their own banks and
    summed (the tag algebra yields bsm-decomposed)."""
    return apply_filterbank(bank_direct, x_d) + apply_filterbank(bank_reverb, x_r)


def render_standard(x, bank):
    """Whole-field estimate: one bank applied to the raw measurement."""
    return apply_filterbank(bank, x)


def decode_matrix(hrtf_sh, order):
    """Per-ear decode vectors G with G_(n,m) = (-1)^m H_(n,-m).

    Contracting an SH-encoded plane wave with G reproduces the HRTF at the
    wave's arrival direction (up to SH truncation at `order`).
    """
    coeffs = hrtf_sh.truncated(order)
    n_idx, m_idx = sh_degrees(coeffs.order)
    flipped = (n_idx * n_idx + n_idx - m_idx).astype(int)  # index of (n, -m)
    sign = np.where(m_idx % 2 == 0, 1.0, -1.0)[:, None]
    return {"left": sign * coeffs.left[flipped],
            "right": sign * coeffs.right[flipped]}
