"""Short-time Fourier transform with plain overlap-add inversion.

Analysis uses a periodic Hamming window; synthesis divides by the summed
analysis windows (WOLA square-root splitting is deliberately not used).
The Hamming window never reaches zero, so the overlap-add denominator is
strictly positive everywhere and unmodified frames reconstruct exactly.

Every spectrogram carries a provenance tag, so that mixing incompatible
pipelines is an error instead of a silent bug. Microphone spectrograms are
the measurement x or its direct and reverberant parts; binaural ones have
two channels (left, right). The decomposition x = x_d + x_r and the
decomposed rendering are the only sums and differences allowed: x - x_d
gives x_r, reference - reference-direct gives reference-reverb and
component-direct + component-reverb gives bsm-decomposed.
"""

import numpy as np
from dataclasses import dataclass, field

MIC_TAGS = ("x", "x_d", "x_r")
BINAURAL_TAGS = ("reference", "reference-direct", "reference-reverb",
                 "bsm-standard", "bsm-decomposed",
                 "component-direct", "component-reverb")
_DIFFERENCES = {("x", "x_d"): "x_r",
                ("reference", "reference-direct"): "reference-reverb"}
_SUMS = {("component-direct", "component-reverb"): "bsm-decomposed",
         ("component-reverb", "component-direct"): "bsm-decomposed"}


@dataclass(frozen=True)
class StftConfig:
    sample_rate: int
    window_length: int
    hop: int
    fft_size: int = 0

    def __post_init__(self):
        if self.window_length <= 0 or self.hop <= 0:
            raise ValueError("window_length and hop must be positive")
        if self.window_length % self.hop != 0:
            raise ValueError("hop must divide window_length (overlap-add)")
        if self.window_length // self.hop < 2:
            raise ValueError("need at least 50% overlap")
        if self.fft_size == 0:  # the next power of two
            below = int(np.ceil(self.window_length)) - 1
            object.__setattr__(self, "fft_size", 1 << below.bit_length())
        if self.fft_size < self.window_length:
            raise ValueError("fft_size must cover the window")
        if self.fft_size & (self.fft_size - 1):
            raise ValueError("fft_size must be a power of two")

    @classmethod
    def default(cls, sample_rate=48000, window_ms=32.0, hop_ms=16.0):
        w = int(round(sample_rate * window_ms / 1000.0))
        h = int(round(sample_rate * hop_ms / 1000.0))
        return cls(sample_rate=int(sample_rate), window_length=w, hop=h)

    @property
    def num_bins(self):
        return self.fft_size // 2 + 1

    def bin_frequencies(self):
        return np.fft.rfftfreq(self.fft_size, 1.0 / self.sample_rate)

    def window(self):
        # periodic Hamming: 0.54 - 0.46 cos(2 pi n / N), n = 0..N-1
        n = np.arange(self.window_length)
        return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / self.window_length)

    def num_frames(self, num_samples):
        if num_samples <= self.window_length:
            return 1
        return 1 + int(np.ceil((num_samples - self.window_length) / self.hop))


@dataclass
class Spectrogram:
    """Complex STFT data, shape (channels, frames, bins), plus provenance.
    Binaural spectrograms hold channel 0 = left ear, channel 1 = right."""

    data: np.ndarray = field(repr=False)
    config: StftConfig
    tag: str = "x"

    def __post_init__(self):
        if self.data.ndim != 3:
            raise ValueError("data must be (channels, frames, bins)")
        if self.data.shape[2] != self.config.num_bins:
            raise ValueError("bin count does not match config")
        if self.tag not in MIC_TAGS + BINAURAL_TAGS:
            raise ValueError(f"unknown tag {self.tag!r}")
        if self.tag in BINAURAL_TAGS and self.num_channels != 2:
            raise ValueError(f"a {self.tag!r} spectrogram needs 2 channels")

    @property
    def num_channels(self):
        return self.data.shape[0]

    @property
    def num_frames(self):
        return self.data.shape[1]

    @property
    def num_bins(self):
        return self.data.shape[2]

    def _combine(self, other, rules, op):
        out_tag = rules.get((self.tag, other.tag))
        if out_tag is None:
            raise ValueError(f"cannot combine {self.tag!r} with {other.tag!r}")
        if self.data.shape != other.data.shape or self.config != other.config:
            raise ValueError("operands have different shapes or configs")
        return Spectrogram(data=op(self.data, other.data), config=self.config,
                           tag=out_tag)

    def __add__(self, other):
        return self._combine(other, _SUMS, np.add)

    def __sub__(self, other):
        return self._combine(other, _DIFFERENCES, np.subtract)


def stft(signal, config, tag="x", start=0, stop=None):
    """Forward transform of a real signal, (samples,) or (samples, channels),
    from frame `start` to `stop` (default: the last) with the whole's bits.
    Frames are windowed into a zeroed (channels, frames, fft_size) buffer
    whose zeros pad each FFT and the trailing frames: no padding copy."""
    sig = np.asarray(signal)
    if sig.size == 0:
        raise ValueError("empty signal")
    if np.iscomplexobj(sig):
        raise ValueError("stft takes real signals")
    if sig.ndim == 1:
        sig = sig[:, None]
    if stop is None:
        stop = config.num_frames(sig.shape[0])
    window = config.window()
    frames = np.zeros((sig.shape[1], stop - start, config.fft_size))
    for t in range(start, stop):
        seg = sig[t * config.hop : t * config.hop + window.size].T
        np.multiply(seg, window[: seg.shape[1]],
                    out=frames[:, t - start, : seg.shape[1]])
    return Spectrogram(data=np.fft.rfft(frames, axis=2), config=config,
                       tag=tag)


def istft(spec, num_samples=None):
    """Inverse transform via overlap-add with window-sum normalization.

    Returns (samples, channels) float64. With an unmodified spectrogram the
    interior reconstruction error is at rounding level; the zero-padded tail
    introduced by the forward transform is trimmed when num_samples is given.
    """
    cfg = spec.config
    win = cfg.window()
    frames = spec.num_frames
    total = (frames - 1) * cfg.hop + cfg.window_length
    segs = np.fft.irfft(np.moveaxis(spec.data, 0, 2), n=cfg.fft_size, axis=1)
    segs = segs[:, : cfg.window_length, :]
    out = np.zeros((total, spec.num_channels))
    den = np.zeros(total)
    for t in range(frames):
        s = t * cfg.hop
        out[s : s + cfg.window_length] += segs[t]
        den[s : s + cfg.window_length] += win
    out /= den[:, None]
    if num_samples is not None:
        out = out[:num_samples]
    return out
