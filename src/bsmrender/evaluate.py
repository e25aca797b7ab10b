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
    linear: dict = field(repr=False)      # ear -> (bins,) float, nan where flagged
    ref_energy: dict = field(repr=False)  # ear -> (bins,) frame-mean |ref|^2
    flags: dict = field(repr=False)       # ear -> (bins,) bool, True = low energy

    def db(self, ear):
        lin = self.linear[ear]
        with np.errstate(divide="ignore", invalid="ignore"):
            return 10.0 * np.log10(lin)

    @property
    def num_bins(self):
        return self.frequencies.size


def nmse(est, ref, frame_trim=2):
    """Per-bin, per-ear NMSE between two binaural spectrograms."""
    if est.data.shape != ref.data.shape:
        raise ValueError("estimate and reference dimensions differ")
    frames = est.num_frames
    lo, hi = frame_trim, frames - frame_trim
    if hi - lo < 1:
        raise ValueError("no frames left after edge trimming")
    freqs = ref.config.bin_frequencies()
    linear, energy, flags = {}, {}, {}
    for i, ear in enumerate(EARS):
        e = est.data[i, lo:hi]
        r = ref.data[i, lo:hi]
        den = np.mean(np.abs(r) ** 2, axis=0)
        num = np.mean(np.abs(e - r) ** 2, axis=0)
        peak = den.max()
        low = (den < ENERGY_FLOOR * peak) | (peak == 0.0)
        lin = np.full(den.shape, np.nan)
        lin[~low] = num[~low] / den[~low]
        linear[ear] = lin
        energy[ear] = den
        flags[ear] = low
    return NmseReport(frequencies=freqs, linear=linear, ref_energy=energy,
                      flags=flags)


def broadband(report, ear):
    """Energy-weighted mean linear NMSE over unflagged bins, in dB."""
    ok = ~report.flags[ear]
    w = report.ref_energy[ear][ok]
    v = report.linear[ear][ok]
    return 10.0 * np.log10(np.sum(w * v) / np.sum(w))


def band_summary(report, bands):
    """Energy-weighted mean NMSE per frequency band, in dB.

    bands is a list of (lo_hz, hi_hz) pairs, each band [lo, hi). Returns
    {ear: array of len(bands)}. A band containing no usable bin is an
    error (nan would silently poison downstream comparisons).
    """
    check_bands(report.frequencies, bands)
    out = {ear: np.empty(len(bands)) for ear in EARS}
    for i, (lo, hi) in enumerate(bands):
        sel = band_bins(report.frequencies, (lo, hi))
        for ear in EARS:
            ok = sel & ~report.flags[ear]
            if not ok.any():
                raise ValueError(f"band ({lo}, {hi}) has no usable bins ({ear})")
            w = report.ref_energy[ear][ok]
            v = report.linear[ear][ok]
            out[ear][i] = 10.0 * np.log10(np.sum(w * v) / np.sum(w))
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
    """Per-bin improvement of pipeline a over pipeline b.

    Positive values mean a has the lower NMSE (improvement_db is b's dB
    minus a's dB, matching the sign convention 'halving the error is
    +3 dB').
    """
    if not np.array_equal(report_a.frequencies, report_b.frequencies):
        raise ValueError("reports use different frequency grids")
    per_bin = {}
    summary = {"broadband_db": {}, "fraction_improved": {}}
    for ear in EARS:
        imp = report_b.db(ear) - report_a.db(ear)
        imp[report_a.flags[ear] | report_b.flags[ear]] = np.nan
        per_bin[ear] = imp
        summary["broadband_db"][ear] = float(
            broadband(report_b, ear) - broadband(report_a, ear))
        ok = ~np.isnan(imp)
        summary["fraction_improved"][ear] = float(np.mean(imp[ok] > 0))
    return {"per_bin_db": per_bin, "frequencies": report_a.frequencies,
            **summary}


# ---------------------------------------------------------------- reports

def _fmt(v):
    return repr(float(v))


def write_report(path, report):
    """CSV rows (ear, freq_hz, nmse_linear, nmse_db, flag), ear then bin
    ascending."""
    lines = ["ear,freq_hz,nmse_linear,nmse_db,flag"]
    for ear in EARS:
        lin = report.linear[ear]
        db = report.db(ear)
        for b in range(report.num_bins):
            if report.flags[ear][b]:
                fields = (ear, _fmt(report.frequencies[b]), "", "", FLAG_LOW)
            else:
                fields = (ear, _fmt(report.frequencies[b]), _fmt(lin[b]),
                          _fmt(db[b]), FLAG_OK)
            lines.append(",".join(fields))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_comparison(path, cmp_result):
    lines = ["ear,freq_hz,improvement_db"]
    freqs = cmp_result["frequencies"]
    for ear in EARS:
        imp = cmp_result["per_bin_db"][ear]
        for b in range(freqs.size):
            val = "" if np.isnan(imp[b]) else _fmt(imp[b])
            lines.append(f"{ear},{_fmt(freqs[b])},{val}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
