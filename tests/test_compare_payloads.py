"""The payload comparer that reports artifacts against the parent commit."""

import numpy as np

from bsmrender.containers import (read_binaural_spectrogram, save_filterbank,
                                  write_binaural_spectrogram, write_json,
                                  write_wav)
from bsmrender.solvers import SolverConfig
from bsmrender.stft import StftConfig

from compare_payloads import compare, relative_change


def _write_run(folder, digest, scale=1.0, snr=np.inf, gain=1.5):
    """One artifact of each kind under `digest`, its payload scaled, its
    bank designed at `snr` and its verdict's gain `gain`."""
    folder.mkdir()
    write_wav(folder / "mics.wav", scale * np.linspace(-1, 1, 12), 48000,
              digest)
    cfg = StftConfig(48000, 8, 4)
    ears = np.arange(2 * cfg.num_bins).reshape(2, 1, cfg.num_bins) * (1 + 1j)
    write_binaural_spectrogram(folder / "reference.bsmg", ears, cfg, digest)
    save_filterbank(folder / "bank_direct.bsmf",
                    np.ones((2, cfg.num_bins, 3), complex),
                    SolverConfig(snr=snr), cfg, digest)
    write_json(folder / "verdict.json", {"scene_digest": digest, "gain": gain})
    (folder / "nmse.csv").write_text("frequency_hz,left_db\n0,-20\n")
    write_json(folder / "manifest.json", {"digest": digest})


def test_digest_only_changes_are_told_apart(tmp_path):
    _write_run(tmp_path / "a", "0123456789abcdef")
    _write_run(tmp_path / "b", "0123456789abcdef")
    assert compare(tmp_path / "a", tmp_path / "b") == "identical"
    _write_run(tmp_path / "c", "fedcba9876543210")
    assert compare(tmp_path / "a", tmp_path / "c") == "digests only"


def test_payload_changes_are_named(tmp_path):
    _write_run(tmp_path / "a", "0123456789abcdef")
    _write_run(tmp_path / "b", "fedcba9876543210", scale=0.5)
    (tmp_path / "b" / "nmse.csv").write_text("frequency_hz,left_db\n0,-21\n")
    (tmp_path / "b" / "extra.wav").write_bytes(b"")
    assert compare(tmp_path / "a", tmp_path / "b") == (
        "in one directory only: extra.wav; payloads differ: mics.wav "
        "(samples 5e-1) nmse.csv; digests only in the other 3 files")


def test_bank_config_changes_are_named(tmp_path):
    # the banks' filters match and only their stored solver config
    # differs: it is read as the JSON the bank holds, so a bank of other
    # config keys than the reader's compares instead of being refused
    _write_run(tmp_path / "a", "0123456789abcdef")
    _write_run(tmp_path / "b", "fedcba9876543210", snr=100.0)
    assert compare(tmp_path / "a", tmp_path / "b") == (
        "payloads differ: bank_direct.bsmf (solver config); digests only in "
        "the other 3 files")
    # a bank as an earlier writer stored it, under four keys
    path = tmp_path / "a" / "bank_direct.bsmf"
    new, old = (b'{"magls_cutoff_hz": null, "snr": null}',
                b'{"magls_cutoff_hz": 1500.0, "magls_enabled": false, '
                b'"snr": Infinity, "tikhonov_floor": 1e-12}')
    blob = path.read_bytes()
    assert blob.count(new) == 1
    path.write_bytes(blob.replace(len(new).to_bytes(4, "little") + new,
                                  len(old).to_bytes(4, "little") + old))
    _write_run(tmp_path / "c", "0123456789abcdef")
    assert compare(tmp_path / "a", tmp_path / "c") == (
        "payloads differ: bank_direct.bsmf (solver config)")


def _write_report(path, db, flag=""):
    """An NMSE report CSV whose second row holds `db` and `flag`."""
    path.write_text("ear,freq_hz,nmse_linear,nmse_db,flag\n"
                    "left,0.0,,,insufficient_energy\n"
                    f"left,375.0,0.5,{float(db)!r},{flag}\n")


def test_numeric_changes_carry_their_size(tmp_path):
    # each numeric part that differs carries max |new - old| / max |old|,
    # one significant digit: the WAV's float32 samples by 1e-3 of their
    # peak, one spectrum bin by 2e-5 of the spectra's peak, the report's
    # dB field by one rounding step of 3.0 (1e-16 of the largest number)
    # and the verdict's one number by 2e-12 of itself
    _write_run(tmp_path / "a", "0123456789abcdef")
    _write_run(tmp_path / "b", "0123456789abcdef", scale=1.001,
               gain=1.5 * (1 + 2e-12))
    data, cfg, _ = read_binaural_spectrogram(
        tmp_path / "a" / "reference.bsmg")
    data[1, 0, -1] += 2e-5 * np.abs(data).max()
    write_binaural_spectrogram(tmp_path / "b" / "reference.bsmg", data, cfg,
                               "0123456789abcdef")
    _write_report(tmp_path / "a" / "nmse_reverb.csv", -3.0)
    _write_report(tmp_path / "b" / "nmse_reverb.csv", np.nextafter(-3.0, 0))
    assert compare(tmp_path / "a", tmp_path / "b") == (
        "payloads differ: mics.wav (samples 1e-3) nmse_reverb.csv "
        "(numbers 1e-16) reference.bsmg (spectra 2e-5) verdict.json "
        "(numbers 2e-12)")


def test_parts_that_do_not_line_up_carry_no_size(tmp_path):
    # other shapes, or JSON that differs in more than its numbers, have no
    # elementwise change to report; a bank's filters have one
    _write_run(tmp_path / "a", "0123456789abcdef")
    _write_run(tmp_path / "b", "0123456789abcdef")
    write_wav(tmp_path / "b" / "mics.wav", np.linspace(-1, 1, 13), 48000,
              "0123456789abcdef")
    write_json(tmp_path / "b" / "verdict.json",
               {"scene_digest": "0123456789abcdef", "gain": 1.5, "note": 1})
    cfg = StftConfig(48000, 8, 4)
    save_filterbank(tmp_path / "b" / "bank_direct.bsmf",
                    np.full((2, cfg.num_bins, 3), 1 - 1e-6, complex),
                    SolverConfig(snr=np.inf), cfg, "0123456789abcdef")
    # a report whose verdict on a bin moved, not only its numbers
    _write_report(tmp_path / "a" / "nmse_reverb.csv", -3.0)
    _write_report(tmp_path / "b" / "nmse_reverb.csv", -3.0,
                  "insufficient_energy")
    assert compare(tmp_path / "a", tmp_path / "b") == (
        "payloads differ: bank_direct.bsmf (filters 1e-6) mics.wav "
        "(samples) nmse_reverb.csv verdict.json")


def test_relative_change():
    assert relative_change(np.array([2.0, -4.0]), np.array([2.0, -3.0])) \
        == 0.25
    assert relative_change({"a": [1, 2.0], "b": None},
                           {"a": [1, 2.5], "b": None}) == 0.25
    # a number where a null was is not a change of a number
    assert relative_change({"a": None, "b": 1.0},
                           {"a": 1.0, "b": None}) is None
    assert relative_change({"a": True}, {"a": 1}) is None
    assert relative_change([1.0, {"b": 4.0}], [1.0, {"b": 3.0}]) == 0.25
    assert relative_change(np.zeros(2), np.ones(2)) == np.inf
