"""Per-bin NMSE, band summaries and the share of improved bins.

The per-bin error is the frame-averaged squared deviation normalized by
the frame-averaged reference energy. Bins whose reference energy falls
below 1e-12 of the strongest bin lack energy, and their NMSE is NaN, the
only meaning a NaN has; an all-zero reference (the reverberant reference
of an anechoic room) leaves every bin NaN. Edge frames are excluded
because the analysis windows there see zero-padding.
"""

import numpy as np

ENERGY_FLOOR = 1e-12
FLAG_OK = ""
FLAG_LOW = "insufficient_energy"

EARS = ("left", "right")


def nmse(est, ref, frame_trim=2):
    """Per-bin, per-ear NMSE of finite (2, frames, bins) spectra and the
    reference's frame-mean energy |ref|^2, two (2, bins) arrays. The NMSE
    is NaN exactly at the bins whose reference lacks energy."""
    if est.shape != ref.shape:
        raise ValueError("estimate and reference dimensions differ")
    lo, hi = frame_trim, est.shape[1] - frame_trim
    if hi - lo < 1:
        raise ValueError("no frames left after edge trimming")
    if not (np.isfinite(est).all() and np.isfinite(ref).all()):
        raise ValueError("spectra must be finite")
    linear = np.full((len(EARS), ref.shape[2]), np.nan)
    energy = np.empty_like(linear)
    # one ear at a time, so only one ear's (frames, bins) temporaries live
    for i in range(len(EARS)):
        r = ref[i, lo:hi]
        energy[i] = np.mean(np.abs(r) ** 2, axis=0)
        num = np.mean(np.abs(est[i, lo:hi] - r) ** 2, axis=0)
        peak = energy[i].max()
        low = (energy[i] < ENERGY_FLOOR * peak) | (peak == 0.0)
        np.divide(num, energy[i], out=linear[i], where=~low)
    return linear, energy


def weighted_db(linear, energy, bins=slice(None)):
    """Each ear's `energy`-weighted mean of the `linear` NMSE over the
    `bins` that have one (not NaN), in dB, as a (2,) array; NaN for an ear
    with no such bin."""
    rows = zip(energy[:, bins], linear[:, bins], ~np.isnan(linear[:, bins]))
    with np.errstate(divide="ignore", invalid="ignore"):
        # usable bins alone: masked zeros would regroup the pairwise sum
        return 10.0 * np.log10([np.sum(w[ok] * v[ok]) / np.sum(w[ok])
                                for w, v, ok in rows])


def band_summary(linear, energy, frequencies, bands):
    """Energy-weighted mean NMSE per frequency band, in dB, of a (2, bins)
    NMSE on the bin grid `frequencies`.

    bands is a list of (lo_hz, hi_hz) pairs, each band [lo, hi). Returns a
    (2, bands) array. A band containing no usable bin is an error (nan
    would silently poison downstream comparisons).
    """
    check_bands(frequencies, bands)
    out = np.empty((len(EARS), len(bands)))
    for i, (lo, hi) in enumerate(bands):
        sel = band_bins(frequencies, (lo, hi))
        empty = np.isnan(linear[:, sel]).all(axis=1)
        if empty.any():
            raise ValueError(f"band ({lo}, {hi}) has no usable bins "
                             f"({EARS[empty.argmax()]})")
        out[:, i] = weighted_db(linear, energy, sel)
    return out


def band_bins(frequencies, band):
    """Mask of the bins in the band [lo, hi)."""
    lo, hi = band
    return (frequencies >= lo) & (frequencies < hi)


def check_bands(frequencies, bands):
    """ValueError for a band outside 0..Nyquist or one holding no bin."""
    for lo, hi in bands:
        if not (0 <= lo < hi) or lo > frequencies[-1]:
            raise ValueError(f"band ({lo}, {hi}) outside the analysis range")
        if not band_bins(frequencies, (lo, hi)).any():
            raise ValueError(f"band ({lo}, {hi}) contains no bins")


def octave_bands(upper_hz=24000.0, base_hz=125.0):
    """Octave bands [center/sqrt2, center*sqrt2) climbing from base_hz."""
    bands = []
    center = base_hz
    while center / np.sqrt(2.0) < upper_hz:
        lo = center / np.sqrt(2.0)
        hi = min(center * np.sqrt(2.0), upper_hz)
        bands.append((lo, hi))
        center *= 2.0
    return bands


def fraction_improved(nmse_a, nmse_b):
    """Each ear's share of the bins where both (2, bins) NMSE arrays have a
    dB figure and a's is below b's, as a (2,) array."""
    with np.errstate(divide="ignore", invalid="ignore"):
        per_bin = 10.0 * np.log10(nmse_b) - 10.0 * np.log10(nmse_a)
    return (per_bin > 0).sum(axis=1) / (~np.isnan(per_bin)).sum(axis=1)


# ---------------------------------------------------------------- reports

def _field(value):
    """A CSV field: text as it is, a float by repr, a nan left empty."""
    if isinstance(value, str):
        return value
    return repr(value) if value == value else ""


def write_report(path, linear, frequencies):
    """CSV rows (ear, freq_hz, nmse_linear, nmse_db, flag) of a (2, bins)
    NMSE on the bin grid `frequencies`, ear first; a NaN bin is flagged."""
    with np.errstate(divide="ignore", invalid="ignore"):
        columns = (linear, 10.0 * np.log10(linear),
                   np.where(np.isnan(linear), FLAG_LOW, FLAG_OK))
    lines = ["ear,freq_hz,nmse_linear,nmse_db,flag"]
    for ear, *ear_columns in zip(EARS, *(c.tolist() for c in columns)):
        for freq, *values in zip(frequencies.tolist(), *ear_columns,
                                 strict=True):
            lines.append(",".join((ear, _field(freq), *map(_field, values))))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
