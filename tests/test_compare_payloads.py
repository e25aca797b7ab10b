"""The payload comparer that reports artifacts against the parent commit."""

import numpy as np

from bsmrender.containers import (save_filterbank, write_binaural_spectrogram,
                                  write_json, write_wav)
from bsmrender.solvers import BsmFilterBank, SolverConfig
from bsmrender.stft import Spectrogram, StftConfig

from compare_payloads import compare


def _write_run(folder, digest, scale=1.0, snr=np.inf):
    """One artifact of each kind under `digest`, its payload scaled and
    its bank designed at `snr`."""
    folder.mkdir()
    write_wav(folder / "mics.wav", scale * np.linspace(-1, 1, 12), 48000,
              digest)
    cfg = StftConfig(48000, 8, 4)
    ears = np.arange(2 * cfg.num_bins).reshape(2, 1, cfg.num_bins) * (1 + 1j)
    write_binaural_spectrogram(folder / "reference.bsmg",
                               Spectrogram(ears, cfg, "reference"), digest)
    bank = BsmFilterBank(ears=np.ones((2, cfg.num_bins, 3), complex),
                         tag="direct", config=SolverConfig(snr=snr))
    save_filterbank(folder / "bank.bsmf", bank, cfg, digest)
    write_json(folder / "verdict.json", {"scene_digest": digest, "gain": 1.5})
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
        "(samples) nmse.csv; digests only in the other 3 files")


def test_bank_config_changes_are_named(tmp_path):
    # the banks' filters match and only their stored solver config
    # differs: it is read as the JSON the bank holds, so a bank of other
    # config keys than the reader's compares instead of being refused
    _write_run(tmp_path / "a", "0123456789abcdef")
    _write_run(tmp_path / "b", "fedcba9876543210", snr=100.0)
    assert compare(tmp_path / "a", tmp_path / "b") == (
        "payloads differ: bank.bsmf (solver config); digests only in the "
        "other 3 files")
    # a bank as an earlier writer stored it, under four keys
    path = tmp_path / "a" / "bank.bsmf"
    new, old = (b'{"magls_cutoff_hz": null, "snr": null}',
                b'{"magls_cutoff_hz": 1500.0, "magls_enabled": false, '
                b'"snr": Infinity, "tikhonov_floor": 1e-12}')
    blob = path.read_bytes()
    assert blob.count(new) == 1
    path.write_bytes(blob.replace(len(new).to_bytes(4, "little") + new,
                                  len(old).to_bytes(4, "little") + old))
    _write_run(tmp_path / "c", "0123456789abcdef")
    assert compare(tmp_path / "a", tmp_path / "c") == (
        "payloads differ: bank.bsmf (solver config)")
