"""The payload comparer that reports artifacts against the parent commit."""

import numpy as np

from bsmrender.containers import (save_filterbank, write_binaural_spectrogram,
                                  write_json, write_wav)
from bsmrender.solvers import BsmFilterBank, SolverConfig
from bsmrender.stft import Spectrogram, StftConfig

from compare_payloads import compare


def _write_run(folder, digest, scale=1.0):
    """One artifact of each kind under `digest`, its payload scaled."""
    folder.mkdir()
    write_wav(folder / "mics.wav", scale * np.linspace(-1, 1, 12), 48000,
              digest)
    cfg = StftConfig(48000, 8, 4)
    ears = np.arange(2 * cfg.num_bins).reshape(2, 1, cfg.num_bins) * (1 + 1j)
    write_binaural_spectrogram(folder / "reference.bsmg",
                               Spectrogram(ears, cfg, "reference"), digest)
    bank = BsmFilterBank(ears=np.ones((2, cfg.num_bins, 3), complex),
                         tag="direct", config=SolverConfig(snr=np.inf),
                         sample_rate=48000, fft_size=cfg.fft_size)
    save_filterbank(folder / "bank.bsmf", bank, digest)
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
        "nmse.csv; digests only in the other 3 files")
