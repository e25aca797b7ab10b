"""NMSE reports, band summaries and pipeline comparisons.

The per-bin error is the frame-averaged squared deviation normalized by
the frame-averaged reference energy. Bins whose reference energy falls
below 1e-12 of the strongest bin are flagged as lacking energy instead of
being divided, and an all-zero reference (the reverberant reference of an
anechoic room) flags every bin; edge frames are excluded because the
analysis windows there see zero-padding.
"""

import numpy as np
from dataclasses import dataclass, field

ENERGY_FLOOR = 1e-12
FLAG_OK = ""
FLAG_LOW = "insufficient_energy"

EARS = ("left", "right")


@dataclass(frozen=True)
class NmseReport:
    frequencies: np.ndarray = field(repr=False)
    linear: np.ndarray = field(repr=False)      # (2, bins), nan where flagged
    ref_energy: np.ndarray = field(repr=False)  # (2, bins) frame-mean |ref|^2
    flags: np.ndarray = field(repr=False)       # (2, bins), True = low energy

    def db(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 10.0 * np.log10(self.linear)


def nmse(est, ref, frequencies, frame_trim=2):
    """Per-bin, per-ear NMSE of (2, frames, bins) spectra at `frequencies`."""
    if est.shape != ref.shape or ref.shape[2] != len(frequencies):
        raise ValueError("estimate, reference and frequency dimensions differ")
    lo, hi = frame_trim, est.shape[1] - frame_trim
    if hi - lo < 1:
        raise ValueError("no frames left after edge trimming")
    linear = np.full((len(EARS), ref.shape[2]), np.nan)
    energy, flags = np.empty_like(linear), np.empty(linear.shape, bool)
    # one ear at a time, so only one ear's (frames, bins) temporaries live
    for i in range(len(EARS)):
        r = ref[i, lo:hi]
        energy[i] = np.mean(np.abs(r) ** 2, axis=0)
        num = np.mean(np.abs(est[i, lo:hi] - r) ** 2, axis=0)
        peak = energy[i].max()
        flags[i] = (energy[i] < ENERGY_FLOOR * peak) | (peak == 0.0)
        np.divide(num, energy[i], out=linear[i], where=~flags[i])
    return NmseReport(frequencies=frequencies, linear=linear,
                      ref_energy=energy, flags=flags)


def weighted_db(report, bins=slice(None)):
    """Each ear's energy-weighted mean linear NMSE over its unflagged
    `bins`, in dB, as a (2,) array; nan for an ear with no usable bin."""
    rows = zip(report.ref_energy[:, bins], report.linear[:, bins],
               ~report.flags[:, bins])
    with np.errstate(divide="ignore", invalid="ignore"):
        # usable bins alone: masked zeros would regroup the pairwise sum
        return 10.0 * np.log10([np.sum(w[ok] * v[ok]) / np.sum(w[ok])
                                for w, v, ok in rows])


def band_summary(report, bands):
    """Energy-weighted mean NMSE per frequency band, in dB.

    bands is a list of (lo_hz, hi_hz) pairs, each band [lo, hi). Returns a
    (2, bands) array. A band containing no usable bin is an error (nan
    would silently poison downstream comparisons).
    """
    check_bands(report.frequencies, bands)
    out = np.empty((len(EARS), len(bands)))
    for i, (lo, hi) in enumerate(bands):
        sel = band_bins(report.frequencies, (lo, hi))
        empty = ~(sel & ~report.flags).any(axis=1)
        if empty.any():
            raise ValueError(f"band ({lo}, {hi}) has no usable bins "
                             f"({EARS[empty.argmax()]})")
        out[:, i] = weighted_db(report, sel)
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


def compare(report_a, report_b):
    """(per_bin, improvement_db, fraction_improved) of pipeline a over b:
    a (2, bins) array, nan where either report flags the bin, and two (2,)
    arrays. Positive values mean a has the lower NMSE (b's dB minus a's
    dB, matching the sign convention 'halving the error is +3 dB')."""
    if not np.array_equal(report_a.frequencies, report_b.frequencies):
        raise ValueError("reports use different frequency grids")
    per_bin = report_b.db() - report_a.db()
    per_bin[report_a.flags | report_b.flags] = np.nan
    improved = (per_bin > 0).sum(axis=1) / (~np.isnan(per_bin)).sum(axis=1)
    return per_bin, weighted_db(report_b) - weighted_db(report_a), improved


# ---------------------------------------------------------------- reports

def _field(value):
    """A CSV field: text as it is, a float by repr, a nan left empty."""
    if isinstance(value, str):
        return value
    return repr(value) if value == value else ""


def write_report(path, report):
    """CSV rows (ear, freq_hz, nmse_linear, nmse_db, flag) of a report,
    ear first."""
    columns = (report.linear, report.db(),
               np.where(report.flags, FLAG_LOW, FLAG_OK))
    lines = ["ear,freq_hz,nmse_linear,nmse_db,flag"]
    for ear, *ear_columns in zip(EARS, *(c.tolist() for c in columns)):
        for freq, *values in zip(report.frequencies.tolist(), *ear_columns):
            lines.append(",".join((ear, _field(freq), *map(_field, values))))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
