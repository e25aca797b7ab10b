"""Short-time Fourier transform with plain overlap-add inversion.

Analysis uses a periodic Hamming window; synthesis divides by the summed
analysis windows (WOLA square-root splitting is deliberately not used).
The Hamming window never reaches zero, so the overlap-add denominator is
strictly positive everywhere and unmodified frames reconstruct exactly.

A spectrogram is a complex (channels, frames, bins) array on the run's
StftConfig: one channel per microphone, or two (left, right) for a
binaural one. The artifact that stores it names the signal it holds.
"""

import numpy as np
from dataclasses import dataclass


@dataclass(frozen=True)
class StftConfig:
    sample_rate: int
    window_length: int
    hop: int

    def __post_init__(self):
        if self.window_length <= 0 or self.hop <= 0:
            raise ValueError("window_length and hop must be positive")
        if self.window_length % self.hop != 0:
            raise ValueError("hop must divide window_length (overlap-add)")
        if self.window_length // self.hop < 2:
            raise ValueError("need at least 50% overlap")

    @classmethod
    def default(cls, sample_rate=48000, window_ms=32.0, hop_ms=16.0):
        w = int(round(sample_rate * window_ms / 1000.0))
        h = int(round(sample_rate * hop_ms / 1000.0))
        return cls(sample_rate=int(sample_rate), window_length=w, hop=h)

    @property
    def fft_size(self):
        """The least power of two at or above the window length."""
        return 1 << (self.window_length - 1).bit_length()

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


def stft(signal, config, start=0, stop=None):
    """Complex (channels, frames, bins) spectra of a real signal, (samples,)
    or (samples, channels), from frame `start` to `stop` (default: the
    last) with the whole's bits. Frames are windowed into a zeroed
    (channels, frames, fft_size) buffer whose zeros pad each FFT and the
    trailing frames: no padding copy."""
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
    return np.fft.rfft(frames, axis=2)


def istft(spec, config, num_samples=None):
    """Inverse transform of (channels, frames, bins) spectra `spec` on
    `config` via overlap-add with window-sum normalization.

    Returns (samples, channels) float64. With an unmodified spectrogram the
    interior reconstruction error is at rounding level; the zero-padded tail
    introduced by the forward transform is trimmed when num_samples is given.
    """
    win = config.window()
    channels, frames = spec.shape[:2]
    total = (frames - 1) * config.hop + config.window_length
    segs = np.fft.irfft(np.moveaxis(spec, 0, 2), n=config.fft_size, axis=1)
    segs = segs[:, : config.window_length, :]
    out = np.zeros((total, channels))
    den = np.zeros(total)
    for t in range(frames):
        s = t * config.hop
        out[s : s + config.window_length] += segs[t]
        den[s : s + config.window_length] += win
    out /= den[:, None]
    if num_samples is not None:
        out = out[:num_samples]
    return out
