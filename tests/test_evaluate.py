"""NMSE reports, band summaries, comparisons and their file formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsmrender.evaluate import (
    EARS,
    FLAG_LOW,
    band_summary,
    broadband,
    compare,
    nmse,
    octave_bands,
    write_comparison,
    write_report,
)
from bsmrender.stft import Spectrogram, StftConfig

CFG = StftConfig(48000, 256, 128)
BINS = CFG.num_bins
FRAMES = 12


def _binaural(left, right, tag="reference"):
    return Spectrogram(data=np.stack([left, right]), config=CFG, tag=tag)


def _random_pair(rng, scale=1.0):
    shape = (FRAMES, BINS)
    ref = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    est = ref + scale * (rng.standard_normal(shape)
                         + 1j * rng.standard_normal(shape))
    return (_binaural(est, est, tag="bsm-decomposed"),
            _binaural(ref, ref, tag="reference"))


def test_perfect_estimate_scores_zero():
    rng = np.random.default_rng(0)
    est, ref = _random_pair(rng, scale=0.0)
    report = nmse(est, ref)
    for ear in EARS:
        np.testing.assert_array_equal(report.linear[ear], 0.0)
        assert not report.flags[ear].any()


def test_zero_estimate_scores_unity():
    rng = np.random.default_rng(1)
    _, ref = _random_pair(rng)
    zero = _binaural(np.zeros((FRAMES, BINS), complex),
                     np.zeros((FRAMES, BINS), complex), tag="bsm-standard")
    report = nmse(zero, ref)
    np.testing.assert_allclose(report.linear["left"], 1.0, rtol=1e-12)
    np.testing.assert_allclose(report.db("left"), 0.0, atol=1e-10)


def test_doubled_estimate_scores_unity():
    # est = 2 ref leaves an error exactly equal to the reference
    rng = np.random.default_rng(2)
    _, ref = _random_pair(rng)
    left = ref.data[0]
    est = _binaural(2 * left, 2 * ref.data[1], tag="bsm-standard")
    report = nmse(est, ref)
    np.testing.assert_allclose(report.linear["left"], 1.0, rtol=1e-12)
    np.testing.assert_allclose(report.linear["right"], 1.0, rtol=1e-12)


def test_nmse_against_double_loop():
    rng = np.random.default_rng(3)
    est, ref = _random_pair(rng, scale=0.3)
    trim = 2
    report = nmse(est, ref, frame_trim=trim)
    e = est.data[0][trim : FRAMES - trim]
    r = ref.data[0][trim : FRAMES - trim]
    for b in range(0, BINS, 17):
        want = (np.abs(e[:, b] - r[:, b]) ** 2).mean() \
            / (np.abs(r[:, b]) ** 2).mean()
        np.testing.assert_allclose(report.linear["left"][b], want, rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3))
def test_nmse_scale_invariance(alpha):
    # common gain on estimate and reference cancels out of the ratio
    rng = np.random.default_rng(4)
    est, ref = _random_pair(rng, scale=0.5)
    scaled = nmse(_binaural(alpha * est.data[0], alpha * est.data[1],
                            tag="bsm-standard"),
                  _binaural(alpha * ref.data[0], alpha * ref.data[1]))
    plain = nmse(est, ref)
    np.testing.assert_allclose(scaled.linear["left"], plain.linear["left"],
                               rtol=1e-9)


def test_frame_permutation_invariance():
    # the metric averages over frames, so their order is irrelevant
    rng = np.random.default_rng(5)
    est, ref = _random_pair(rng, scale=0.2)
    perm = rng.permutation(np.arange(2, FRAMES - 2))
    idx = np.concatenate([[0, 1], perm, [FRAMES - 2, FRAMES - 1]])
    est_p = _binaural(est.data[0][idx], est.data[1][idx],
                      tag="bsm-standard")
    ref_p = _binaural(ref.data[0][idx], ref.data[1][idx])
    a = nmse(est, ref)
    b = nmse(est_p, ref_p)
    np.testing.assert_allclose(a.linear["left"], b.linear["left"], rtol=1e-12)


def test_low_energy_bins_get_flagged():
    rng = np.random.default_rng(6)
    ref_data = rng.standard_normal((FRAMES, BINS)) + 0j
    ref_data[:, 40:50] = 1e-9  # relatively negligible energy
    ref = _binaural(ref_data, ref_data)
    est = _binaural(ref_data * 1.1, ref_data * 1.1, tag="bsm-standard")
    report = nmse(est, ref)
    assert report.flags["left"][40:50].all()
    assert not report.flags["left"][:40].any()
    assert np.isnan(report.linear["left"][45])


def test_nmse_error_conditions():
    rng = np.random.default_rng(7)
    est, ref = _random_pair(rng)
    short = _binaural(est.data[0][:5], est.data[1][:5],
                      tag="bsm-standard")
    with pytest.raises(ValueError):
        nmse(short, ref)
    with pytest.raises(ValueError):
        nmse(est, ref, frame_trim=6)  # nothing left
    # an all-zero reference (anechoic reverberant field) flags every bin
    zeros = np.zeros((FRAMES, BINS), complex)
    report = nmse(est, _binaural(zeros, zeros))
    for ear in EARS:
        assert report.flags[ear].all()
        assert np.isnan(report.linear[ear]).all()
        np.testing.assert_array_equal(report.ref_energy[ear], 0.0)


def test_broadband_is_energy_weighted():
    rng = np.random.default_rng(8)
    est, ref = _random_pair(rng, scale=0.4)
    report = nmse(est, ref)
    w = report.ref_energy["left"]
    v = report.linear["left"]
    want = 10 * np.log10(np.sum(w * v) / np.sum(w))
    np.testing.assert_allclose(broadband(report, "left"), want, rtol=1e-12)


def test_band_summary_flat_report():
    rng = np.random.default_rng(9)
    est, ref = _random_pair(rng, scale=0.0)
    # force a known flat linear NMSE of 0.25 (-6.02 dB)
    est = _binaural(ref.data[0] * 1.5, ref.data[1] * 1.5,
                    tag="bsm-standard")
    report = nmse(est, ref)
    out = band_summary(report, [(0.0, 4000.0), (4000.0, 24000.0)])
    np.testing.assert_allclose(out["left"], 10 * np.log10(0.25), atol=1e-9)
    np.testing.assert_allclose(out["right"], 10 * np.log10(0.25), atol=1e-9)


def test_band_summary_rejects_bad_bands():
    rng = np.random.default_rng(10)
    est, ref = _random_pair(rng)
    report = nmse(est, ref)
    with pytest.raises(ValueError):
        band_summary(report, [(25000.0, 30000.0)])  # beyond Nyquist
    with pytest.raises(ValueError):
        band_summary(report, [(5000.0, 5000.0)])  # empty
    with pytest.raises(ValueError):
        band_summary(report, [(12000.0, 2000.0)])


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
    # halving the error amplitude is +6 dB improvement of a over b
    rng = np.random.default_rng(11)
    shape = (FRAMES, BINS)
    ref_data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    err = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ref = _binaural(ref_data, ref_data)
    good = _binaural(ref_data + 0.5 * err, ref_data + 0.5 * err,
                     tag="bsm-decomposed")
    bad = _binaural(ref_data + err, ref_data + err, tag="bsm-standard")
    rep_good = nmse(good, ref)
    rep_bad = nmse(bad, ref)
    cmp_result = compare(rep_good, rep_bad)
    np.testing.assert_allclose(cmp_result["per_bin_db"]["left"],
                               20 * np.log10(2.0), atol=1e-9)
    np.testing.assert_allclose(cmp_result["broadband_db"]["left"],
                               20 * np.log10(2.0), atol=1e-9)
    assert cmp_result["fraction_improved"]["left"] == 1.0
    # identical reports compare to zero improvement
    same = compare(rep_bad, rep_bad)
    np.testing.assert_allclose(same["per_bin_db"]["left"], 0.0, atol=1e-12)
    assert same["fraction_improved"]["left"] == 0.0


def test_report_csv_schema(tmp_path):
    rng = np.random.default_rng(13)
    est, ref = _random_pair(rng, scale=0.1)
    report = nmse(est, ref)
    path = tmp_path / "report.csv"
    write_report(path, report)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "ear,freq_hz,nmse_linear,nmse_db,flag"
    assert len(lines) == 1 + 2 * BINS
    first = lines[1].split(",")
    assert first[0] == "left"
    assert float(first[1]) == 0.0
    float(first[2]), float(first[3])  # parse


def test_report_csv_flags_leave_blanks(tmp_path):
    rng = np.random.default_rng(14)
    ref_data = rng.standard_normal((FRAMES, BINS)) + 0j
    ref_data[:, 7] = 1e-10
    ref = _binaural(ref_data, ref_data)
    est = _binaural(ref_data, ref_data, tag="bsm-standard")
    report = nmse(est, ref)
    path = tmp_path / "report.csv"
    write_report(path, report)
    row = path.read_text().strip().split("\n")[1 + 7].split(",")
    assert row[2] == "" and row[3] == ""
    assert row[4] == FLAG_LOW


def test_comparison_csv(tmp_path):
    rng = np.random.default_rng(15)
    est, ref = _random_pair(rng, scale=0.2)
    rep = nmse(est, ref)
    cmp_result = compare(rep, rep)
    path = tmp_path / "comparison.csv"
    write_comparison(path, cmp_result)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "ear,freq_hz,improvement_db"
    assert len(lines) == 1 + 2 * BINS
