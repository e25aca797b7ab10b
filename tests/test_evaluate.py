"""NMSE per bin, band summaries, improved bins and the CSV format."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsmrender.evaluate import (
    FLAG_LOW,
    ENERGY_FLOOR,
    band_summary,
    fraction_improved,
    nmse,
    octave_bands,
    weighted_db,
    write_report,
)
from bsmrender.stft import StftConfig

CFG = StftConfig(48000, 256, 128)
BINS = CFG.num_bins
FREQS = CFG.bin_frequencies()
FRAMES = 12


def _binaural(left, right):
    return np.stack([left, right])


def _random_pair(rng, scale=1.0):
    shape = (FRAMES, BINS)
    ref = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    est = ref + scale * (rng.standard_normal(shape)
                         + 1j * rng.standard_normal(shape))
    return _binaural(est, est), _binaural(ref, ref)


def test_perfect_estimate_scores_zero():
    rng = np.random.default_rng(0)
    est, ref = _random_pair(rng, scale=0.0)
    linear, _ = nmse(est, ref)
    np.testing.assert_array_equal(linear, 0.0)


def test_zero_estimate_scores_unity():
    rng = np.random.default_rng(1)
    _, ref = _random_pair(rng)
    zero = _binaural(np.zeros((FRAMES, BINS), complex),
                     np.zeros((FRAMES, BINS), complex))
    linear, _ = nmse(zero, ref)
    np.testing.assert_allclose(linear[0], 1.0, rtol=1e-12)
    np.testing.assert_allclose(10 * np.log10(linear[0]), 0.0, atol=1e-10)


def test_doubled_estimate_scores_unity():
    # est = 2 ref leaves an error exactly equal to the reference
    rng = np.random.default_rng(2)
    _, ref = _random_pair(rng)
    left = ref[0]
    est = _binaural(2 * left, 2 * ref[1])
    linear, _ = nmse(est, ref)
    np.testing.assert_allclose(linear[0], 1.0, rtol=1e-12)
    np.testing.assert_allclose(linear[1], 1.0, rtol=1e-12)


def test_nmse_against_double_loop():
    rng = np.random.default_rng(3)
    est, ref = _random_pair(rng, scale=0.3)
    trim = 2
    linear, _ = nmse(est, ref, frame_trim=trim)
    e = est[0][trim : FRAMES - trim]
    r = ref[0][trim : FRAMES - trim]
    for b in range(0, BINS, 17):
        want = (np.abs(e[:, b] - r[:, b]) ** 2).mean() \
            / (np.abs(r[:, b]) ** 2).mean()
        np.testing.assert_allclose(linear[0][b], want, rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3))
def test_nmse_scale_invariance(alpha):
    # common gain on estimate and reference cancels out of the ratio
    rng = np.random.default_rng(4)
    est, ref = _random_pair(rng, scale=0.5)
    scaled, _ = nmse(_binaural(alpha * est[0], alpha * est[1]),
                     _binaural(alpha * ref[0], alpha * ref[1]))
    plain, _ = nmse(est, ref)
    np.testing.assert_allclose(scaled[0], plain[0], rtol=1e-9)


def test_frame_permutation_invariance():
    # the metric averages over frames, so their order is irrelevant
    rng = np.random.default_rng(5)
    est, ref = _random_pair(rng, scale=0.2)
    perm = rng.permutation(np.arange(2, FRAMES - 2))
    idx = np.concatenate([[0, 1], perm, [FRAMES - 2, FRAMES - 1]])
    est_p = _binaural(est[0][idx], est[1][idx])
    ref_p = _binaural(ref[0][idx], ref[1][idx])
    a, _ = nmse(est, ref)
    b, _ = nmse(est_p, ref_p)
    np.testing.assert_allclose(a[0], b[0], rtol=1e-12)


def test_low_energy_bins_get_flagged():
    # NaN exactly where a bin's reference energy is below ENERGY_FLOOR of
    # its ear's peak: the left ear's damped bins, and every bin of the
    # silent right ear, whose peak is 0
    rng = np.random.default_rng(6)
    ref_data = rng.standard_normal((FRAMES, BINS)) + 0j
    ref_data[:, 40:50] = 1e-9  # relatively negligible energy
    silent = np.zeros((FRAMES, BINS), complex)
    ref = _binaural(ref_data, silent)
    est = _binaural(ref_data * 1.1, ref_data)
    linear, energy = nmse(est, ref)
    want = energy < ENERGY_FLOOR * energy.max(axis=1, keepdims=True)
    want[1] = True
    np.testing.assert_array_equal(np.isnan(linear), want)
    assert want[0, 40:50].all() and not want[0, :40].any()
    np.testing.assert_array_equal(energy[1], 0.0)


def test_nmse_error_conditions():
    rng = np.random.default_rng(7)
    est, ref = _random_pair(rng)
    short = _binaural(est[0][:5], est[1][:5])
    with pytest.raises(ValueError, match="dimensions differ"):
        nmse(short, ref)
    with pytest.raises(ValueError):
        nmse(est, ref, frame_trim=6)  # nothing left
    # a NaN or inf in either spectrum would pass for a bin without energy
    for bad in (np.nan, np.inf):
        for spectra in (est, ref):
            spectra[1, 5, 7] = bad
            with pytest.raises(ValueError, match="spectra must be finite"):
                nmse(est, ref)
            spectra[1, 5, 7] = 0.0
    # an all-zero reference (anechoic reverberant field) flags every bin
    zeros = np.zeros((FRAMES, BINS), complex)
    linear, energy = nmse(est, _binaural(zeros, zeros))
    assert np.isnan(linear).all()
    np.testing.assert_array_equal(energy, 0.0)


def test_broadband_is_energy_weighted():
    rng = np.random.default_rng(8)
    est, ref = _random_pair(rng, scale=0.4)
    linear, energy = nmse(est, ref)
    w = energy[0]
    v = linear[0]
    want = 10 * np.log10(np.sum(w * v) / np.sum(w))
    np.testing.assert_allclose(weighted_db(linear, energy)[0], want,
                               rtol=1e-12)


def test_weighted_db_of_an_ear_without_usable_bins_is_nan():
    # a silent right-ear reference flags every right bin: that ear's mean
    # is nan without a warning, the left ear's is unaffected, and a band
    # summary names the ear it cannot summarize
    rng = np.random.default_rng(16)
    est, ref = _random_pair(rng, scale=0.4)
    ref = _binaural(ref[0], np.zeros((FRAMES, BINS), complex))
    report = nmse(est, ref)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = weighted_db(*report)
    assert np.isnan(got[1])
    np.testing.assert_array_equal(got[0], weighted_db(*nmse(est, _binaural(
        ref[0], ref[0])))[0])
    with pytest.raises(ValueError, match=r"no usable bins \(right\)$"):
        band_summary(*report, FREQS, [(0.0, 4000.0)])


def test_band_summary_flat_report():
    rng = np.random.default_rng(9)
    est, ref = _random_pair(rng, scale=0.0)
    # force a known flat linear NMSE of 0.25 (-6.02 dB)
    est = _binaural(ref[0] * 1.5, ref[1] * 1.5)
    out = band_summary(*nmse(est, ref), FREQS,
                       [(0.0, 4000.0), (4000.0, 24000.0)])
    np.testing.assert_allclose(out[0], 10 * np.log10(0.25), atol=1e-9)
    np.testing.assert_allclose(out[1], 10 * np.log10(0.25), atol=1e-9)


def test_band_summary_rejects_bad_bands():
    rng = np.random.default_rng(10)
    est, ref = _random_pair(rng)
    report = nmse(est, ref)
    with pytest.raises(ValueError):
        band_summary(*report, FREQS, [(25000.0, 30000.0)])  # beyond Nyquist
    with pytest.raises(ValueError):
        band_summary(*report, FREQS, [(5000.0, 5000.0)])  # empty
    with pytest.raises(ValueError):
        band_summary(*report, FREQS, [(12000.0, 2000.0)])


def test_octave_bands_structure():
    bands = octave_bands(upper_hz=24000.0)
    assert len(bands) == 9  # centers 125 Hz .. 32 kHz, last clipped at 24 kHz
    centers = 125.0 * 2.0 ** np.arange(9)
    for (lo, hi), c in zip(bands, centers):
        np.testing.assert_allclose(lo, c / np.sqrt(2), rtol=1e-12)
        np.testing.assert_allclose(hi, min(c * np.sqrt(2), 24000.0),
                                   rtol=1e-12)
    # contiguous until the final clip
    for (_, hi), (lo, _) in zip(bands[:-1], bands[1:]):
        np.testing.assert_allclose(hi, lo, rtol=1e-12)


def test_compare_sign_convention():
    # halving the error amplitude is +6 dB improvement of a over b: b's
    # broadband dB figure minus a's, and every bin improved
    rng = np.random.default_rng(11)
    shape = (FRAMES, BINS)
    ref_data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    err = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ref = _binaural(ref_data, ref_data)
    good = _binaural(ref_data + 0.5 * err, ref_data + 0.5 * err)
    bad = _binaural(ref_data + err, ref_data + err)
    rep_good = nmse(good, ref)
    rep_bad = nmse(bad, ref)
    improvement = weighted_db(*rep_bad) - weighted_db(*rep_good)
    np.testing.assert_allclose(improvement[0], 20 * np.log10(2.0), atol=1e-9)
    np.testing.assert_array_equal(
        fraction_improved(rep_good[0], rep_bad[0]), 1.0)
    # identical figures improve no bin
    np.testing.assert_array_equal(
        fraction_improved(rep_bad[0], rep_bad[0]), 0.0)


def test_fraction_improved_counts_bins_with_a_figure():
    # a NaN bin in either array has no dB figure and is not counted; a
    # bin whose NMSE is 0 in both arrays has none either (-inf - -inf)
    a = np.array([[0.5, np.nan, 0.5, 0.0], [0.5, 0.5, 2.0, 1.0]])
    b = np.array([[1.0, 1.0, np.nan, 0.0], [1.0, np.nan, 1.0, 1.0]])
    np.testing.assert_array_equal(fraction_improved(a, b), [1.0, 1 / 3])


def test_report_csv_schema(tmp_path):
    rng = np.random.default_rng(13)
    est, ref = _random_pair(rng, scale=0.1)
    path = tmp_path / "report.csv"
    write_report(path, nmse(est, ref)[0], FREQS)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "ear,freq_hz,nmse_linear,nmse_db,flag"
    assert len(lines) == 1 + 2 * BINS
    first = lines[1].split(",")
    assert first[0] == "left"
    assert float(first[1]) == 0.0
    float(first[2]), float(first[3])  # parse


def test_report_csv_flags_leave_blanks(tmp_path):
    # the flag column names exactly the NaN bins, whose values are blank
    rng = np.random.default_rng(14)
    ref_data = rng.standard_normal((FRAMES, BINS)) + 0j
    ref_data[:, 7] = 1e-10
    ref = _binaural(ref_data, np.zeros((FRAMES, BINS), complex))
    est = _binaural(ref_data, ref_data)
    linear, _ = nmse(est, ref)
    path = tmp_path / "report.csv"
    write_report(path, linear, FREQS)
    rows = [line.split(",")
            for line in path.read_text().strip().split("\n")[1:]]
    flagged = [row[4] == FLAG_LOW for row in rows]
    assert flagged == np.isnan(linear).ravel().tolist()
    assert sum(flagged) == 1 + BINS
    for row, flag in zip(rows, flagged):
        assert (row[2] == "" and row[3] == "") == flag
    with pytest.raises(ValueError):
        write_report(path, linear, FREQS[:-1])  # a grid of another length
