"""Artifact containers: WAV, spectrogram, filter bank and HRTF formats,
manifest."""

import hashlib
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bsmrender.containers import (
    ContainerError,
    StaleArtifactError,
    canonical_json,
    file_sha256,
    load_filterbank,
    load_hrtf,
    read_artifacts,
    read_binaural_spectrogram,
    read_wav,
    require_digest,
    save_filterbank,
    save_hrtf,
    scene_digest,
    update_manifest,
    verify_artifacts,
    write_binaural_spectrogram,
    write_json,
    write_wav,
)
from bsmrender.solvers import SolverConfig
from bsmrender.sph import spiral_grid
from bsmrender.stft import StftConfig, istft, stft

from oracles import write_binaural_spectrogram_v1

DIGEST = "0123456789abcdef"
# the run's STFT the sample files are read against: 5 bins of an 8-point FFT
SAMPLE_STFT = StftConfig(48000, 8, 4)


def test_wav_round_trip_with_digest(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((480, 2)).astype(np.float32)
    path = tmp_path / "sig.wav"
    write_wav(path, data, 48000, DIGEST)
    back, rate, digest = read_wav(path)
    assert rate == 48000
    assert digest == DIGEST
    np.testing.assert_array_equal(back, data)


def test_wav_mono_and_float64_input(tmp_path):
    x = np.linspace(-1, 1, 100)
    path = tmp_path / "mono.wav"
    write_wav(path, x, 48000)
    back, rate, digest = read_wav(path)
    assert back.shape == (100, 1)
    assert digest is None
    np.testing.assert_allclose(back[:, 0], x, atol=1e-7)  # float32 storage


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39, -3.5e38],
                         ids=["nan", "inf", "-inf", "overflow", "-overflow"])
def test_wav_refuses_a_sample_float32_cannot_hold(tmp_path, bad):
    # a non-finite sample, or a finite one beyond float32's range that the
    # cast alone makes infinite, fails the write before the file exists,
    # and the cast's overflow warning is not shown
    data = np.zeros((64, 3))
    data[17, 2] = bad
    path = tmp_path / "bad.wav"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContainerError,
                           match=f"^{re.escape(str(path))}: a sample is not "
                                 "finite as float32$"):
            write_wav(path, data, 48000, DIGEST)
    assert not path.exists()


def test_wav_rejects_garbage(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"not a riff file at all")
    with pytest.raises(ContainerError):
        read_wav(path)


def test_binaural_spectrogram_round_trip(tmp_path):
    cfg = StftConfig.default()
    rng = np.random.default_rng(2)
    # values that single precision holds exactly come back unchanged
    left = (rng.standard_normal((7, cfg.num_bins)) * (1 + 1j)).astype("<c8")
    right = (rng.standard_normal((7, cfg.num_bins)) * (1 - 2j)).astype("<c8")
    path = tmp_path / "out.bsmg"
    write_binaural_spectrogram(
        path, np.stack([left, right]).astype(complex), cfg, DIGEST)
    spec, config, digest = read_binaural_spectrogram(path)
    assert spec.shape == (2, 7, cfg.num_bins)
    assert spec.dtype == np.complex128
    np.testing.assert_array_equal(spec[0], left)
    np.testing.assert_array_equal(spec[1], right)
    # the payload is the left block followed by the right block
    tail = path.read_bytes()[-2 * left.size * 8:]
    assert tail == left.tobytes() + right.tobytes()
    with pytest.raises(ContainerError):  # only binaural spectrograms
        write_binaural_spectrogram(path, left[None], cfg, DIGEST)
    # the stored tag, after the 32-byte header, is the file's name
    assert path.read_bytes()[32:39] == b"\x03\x00\x00\x00out"
    assert digest == DIGEST
    assert config == cfg


def test_stored_spectrogram_is_listenable(tmp_path):
    # a run stores no WAV of a spectrogram: istft of the file read back is
    # the listenable signal, within single-precision rounding of istft of
    # the float64 spectrogram before it was written
    cfg = StftConfig.default()
    signal = np.random.default_rng(3).standard_normal((48000, 2))
    spec = stft(signal, cfg)
    path = tmp_path / "reference.bsmg"
    write_binaural_spectrogram(path, spec, cfg, DIGEST)
    want = istft(spec, cfg)
    got = istft(read_binaural_spectrogram(path)[0], cfg)
    rms = np.sqrt(np.mean((got - want) ** 2) / np.mean(want ** 2))
    assert rms < 1e-7, rms


@pytest.mark.parametrize("frames", [0, 1, 31, 32, 33, 70])
def test_spectrogram_payload_is_the_single_precision_cast(frames, tmp_path):
    # the blockwise cast writes the same bytes as a cast of the whole
    # array, whole blocks, a partial last block and none at all alike
    cfg = StftConfig(48000, 8, 4)
    rng = np.random.default_rng(frames)
    data = (rng.standard_normal((2, frames, cfg.num_bins))
            + 1j * rng.standard_normal((2, frames, cfg.num_bins)))
    path = tmp_path / "cast.bsmg"
    write_binaural_spectrogram(path, data, cfg, DIGEST)
    blob = path.read_bytes()
    assert blob[4:8] == (2).to_bytes(4, "little")
    assert blob[len(blob) - data.size * 8:] == data.astype("<c8").tobytes()
    spec = read_binaural_spectrogram(path)[0]
    np.testing.assert_array_equal(spec, data.astype(np.complex64))
    assert spec.flags.owndata  # not a view that keeps the file's bytes


def test_version_1_spectrogram_is_refused_by_name(tmp_path):
    # the double-precision layout this format replaced is never misread
    path = tmp_path / "reference.bsmg"  # the sample's tag, as pinned
    _write_sample_bsmg(path, writer=write_binaural_spectrogram_v1)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "c9915675de9128165a5e865c596d17cc89cf4646c6f4216a4a166bbe767db9ff")
    with pytest.raises(ContainerError, match="unsupported BSMG version 1"):
        read_binaural_spectrogram(path)


def test_spectrogram_fft_size_must_be_the_windows(tmp_path):
    # the FFT size follows the window and the bin count the FFT size, so a
    # header naming another size, or another bin count whose frames still
    # fit the payload, is refused by the file's name
    path = tmp_path / "padded.bsmg"
    # header field offset -> (stored value, the refusal)
    cases = [({20: 16}, "FFT size 16 is not the 8-sample window's 8"),
             ({24: 10, 28: 1}, "bin count 1 is not the 8-point FFT's 5")]
    for fields, problem in cases:
        _write_sample_bsmg(path)
        blob = bytearray(path.read_bytes())
        for offset, value in fields.items():
            blob[offset : offset + 4] = value.to_bytes(4, "little")
        path.write_bytes(blob)
        with pytest.raises(ContainerError, match=re.escape(
                f"{path}: invalid STFT parameters: {problem}")):
            read_binaural_spectrogram(path)


def test_spectrogram_tag_is_the_files_name(tmp_path):
    # the stored tag is the file's name, `_` read as `-`, so a file read
    # under another artifact's name is refused by name
    path = tmp_path / "reference_direct.bsmg"
    _write_sample_bsmg(path)
    assert b"reference-direct" in path.read_bytes()
    read_binaural_spectrogram(path)
    moved = path.rename(tmp_path / "bsm_standard.bsmg")
    with pytest.raises(ContainerError, match=re.escape(
            f"{moved}: stores the tag 'reference-direct', not "
            "'bsm-standard'")):
        read_binaural_spectrogram(moved)


def test_bank_keeps_an_infinite_snr_and_no_cutoff(tmp_path):
    # both are stored as JSON null, and the loader's solver config check
    # reads them back as inf and None, a valid config
    ears = np.ones((2, 5, 3), complex)
    path = tmp_path / "bank_direct.bsmf"
    save_filterbank(path, ears, SolverConfig(), SAMPLE_STFT, DIGEST)
    assert b'{"magls_cutoff_hz": null, "snr": null}' in path.read_bytes()
    back, digest = load_filterbank(path, SAMPLE_STFT)
    np.testing.assert_array_equal(back, ears)
    assert digest == DIGEST


def _write_sample_wav(path):
    write_wav(path, np.arange(12, dtype=float).reshape(6, 2), 48000, DIGEST)


def _write_sample_bsmg(path, writer=write_binaural_spectrogram):
    cfg = StftConfig(48000, 8, 4)
    data = np.arange(2 * cfg.num_bins).reshape(2, cfg.num_bins) * (1 + 1j)
    writer(path, np.stack([data, -data]), cfg, DIGEST)


def _write_sample_bsmf(path):
    coeffs = np.arange(10).reshape(5, 2) * (1 - 1j)
    save_filterbank(path, np.stack([coeffs, -coeffs]),
                    SolverConfig(snr=12.5, magls_cutoff_hz=9000.0),
                    SAMPLE_STFT, DIGEST)


def _write_sample_bsmh(path):
    ir = np.arange(12, dtype=float).reshape(3, 4)
    save_hrtf(path, spiral_grid(3), ir, -ir, 48000)


# kind -> (writer of a small valid file, its reader)
READERS = {"wav": (_write_sample_wav, read_wav),
           "bsmg": (_write_sample_bsmg, read_binaural_spectrogram),
           "bsmf": (_write_sample_bsmf,
                    lambda path: load_filterbank(path, SAMPLE_STFT)),
           "bsmh": (_write_sample_bsmh,
                    lambda path: load_hrtf(path, SAMPLE_STFT))}


# a BSMG file stores its name as its tag, and a BSMF file its name's role:
# the samples store "reference" and "reverberant"
SAMPLE_NAMES = {"bsmg": "reference.bsmg", "bsmf": "bank_reverb.bsmf"}


def _sample_path(folder, kind):
    return folder / SAMPLE_NAMES.get(kind, f"sample.{kind}")


# sha256 of each sample file: BSMG version 2 and the version 1 layouts of
# the others, pinned to the byte
SAMPLE_SHA256 = {
    "bsmf": "3c63eb749f9ea925d0c975fdee5c4e04af75aebf2dae79b3918384e870aa98cc",
    "bsmg": "6e2d2d086e48a58588190ebe36afed36e09333c7bb86b410c279489033df93f1",
    "bsmh": "de400c1d67af2c2cf2b0a2f54f993dfffe9a7251c01b3297f3adca459a14a138",
    "wav": "9bb5df03a45fed338a0ec2d1e513188003a112034120434fcc843058f189038c",
}


@pytest.mark.parametrize("kind", sorted(READERS))
def test_writers_keep_their_bytes(kind, tmp_path):
    path = _sample_path(tmp_path, kind)
    READERS[kind][0](path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAMPLE_SHA256[kind]


def test_wav_without_digest_keeps_its_bytes(tmp_path):
    path = tmp_path / "plain.wav"
    write_wav(path, np.linspace(-1, 1, 7), 16000)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "206d6307880dbf7beec5e23b74d94fe35e508331db6ab2fc5ec37f0b45fd8cdc")


def _big_spectrogram(folder):
    path = folder / "big.bsmg"
    data = np.ones((2, 256, 1025), dtype=complex)
    cfg = StftConfig(48000, 1536, 768)
    # the file holds the payload at single precision
    return path, data.size * 8, lambda: write_binaural_spectrogram(
        path, data, cfg, DIGEST)


def _big_bank(folder):
    path = folder / "bank_direct.bsmf"
    ears = np.ones((2, 1025, 64), dtype=complex)
    return path, ears.nbytes, lambda: save_filterbank(
        path, ears, SolverConfig(), StftConfig(48000, 2048, 1024), DIGEST)


def _big_wav(folder):
    path = folder / "big.wav"
    samples = np.ones((200000, 2), dtype=np.float32)
    return path, samples.nbytes, lambda: write_wav(path, samples, 48000,
                                                   DIGEST)


@pytest.mark.parametrize("make", [_big_spectrogram, _big_bank, _big_wav])
def test_writers_copy_no_payload(make, tmp_path):
    # an array already in its on-disk layout goes to the file from its own
    # buffer: a bytes copy of the payload would allocate its whole size
    path, payload, write = make(tmp_path)
    tracemalloc.start()
    try:
        write()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > payload
    assert peak < payload / 8, (peak, payload)


@pytest.mark.parametrize("kind", sorted(READERS))
def test_readers_reject_every_truncation(kind, tmp_path):
    path = _sample_path(tmp_path, kind)
    write, reader = READERS[kind]
    write(path)
    blob = path.read_bytes()
    reader(path)  # the intact file reads
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(ContainerError):
            reader(path)


@pytest.mark.parametrize("kind", sorted(READERS))
def test_readers_reject_trailing_bytes(kind, tmp_path):
    path = _sample_path(tmp_path, kind)
    write, reader = READERS[kind]
    write(path)
    path.write_bytes(path.read_bytes() + bytes(16))
    with pytest.raises(ContainerError, match="trailing"):
        reader(path)


@settings(max_examples=400,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(sorted(READERS)), data=st.data())
def test_readers_raise_only_container_errors(kind, data, tmp_path):
    # flipped bytes, possibly after a cut, either still parse or raise
    # ContainerError: never struct.error, IndexError or a reshape failure
    path = _sample_path(tmp_path, kind)
    write, reader = READERS[kind]
    write(path)
    blob = bytearray(path.read_bytes())
    cut = data.draw(st.integers(1, len(blob)), label="cut")
    blob = blob[:cut]
    for _ in range(data.draw(st.integers(1, 3), label="flips")):
        pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
        blob[pos] ^= data.draw(st.integers(1, 255), label="mask")
    path.write_bytes(bytes(blob))
    try:
        reader(path)
    except ContainerError:
        pass


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [1, 2], "c": {"y": 0.5, "x": None}})
    b = canonical_json({"c": {"x": None, "y": 0.5}, "a": [1, 2], "b": 1})
    assert a == b
    assert " " not in a and "\n" not in a


def test_scene_digest_sensitivity():
    base = {"scene": {"seed": 0}, "sample_rate": 48000}
    d0 = scene_digest(base)
    assert len(d0) == 16
    assert d0 == scene_digest({"sample_rate": 48000, "scene": {"seed": 0}})
    assert d0 != scene_digest({"scene": {"seed": 1}, "sample_rate": 48000})
    assert d0 != scene_digest(base, {"source_wav": "cafe"})


def test_write_json_formatting(tmp_path):
    path = tmp_path / "v.json"
    write_json(path, {"b": 1, "a": None})
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == {"a": None, "b": 1}
    assert text.index('"a"') < text.index('"b"')


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_write_json_refuses_non_standard_tokens(tmp_path, value):
    # json's NaN and Infinity tokens are not JSON; no file is left behind
    path = tmp_path / "v.json"
    with pytest.raises(ValueError):
        write_json(path, {"a": [1.0, value]})
    assert not path.exists()


def test_manifest_verify_cycle(tmp_path):
    f1 = tmp_path / "one.bin"
    f1.write_bytes(b"payload one")
    f2 = tmp_path / "two.bin"
    f2.write_bytes(b"payload two")
    update_manifest(tmp_path, ["one.bin"], DIGEST)
    update_manifest(tmp_path, ["two.bin"], DIGEST)  # merges, not replaces
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest["artifacts"]) == {"one.bin", "two.bin"}
    verify_artifacts(tmp_path, ("one.bin", "two.bin"), DIGEST, "render")


def test_verify_rejects_missing_entry(tmp_path):
    f1 = tmp_path / "one.bin"
    f1.write_bytes(b"payload")
    update_manifest(tmp_path, ["one.bin"], DIGEST)
    with pytest.raises(StaleArtifactError):
        verify_artifacts(tmp_path, ("one.bin", "absent.bin"), DIGEST, "render")


def test_verify_rejects_tampered_bytes(tmp_path):
    f1 = tmp_path / "one.bin"
    f1.write_bytes(b"payload")
    update_manifest(tmp_path, ["one.bin"], DIGEST)
    f1.write_bytes(b"tampered")
    with pytest.raises(StaleArtifactError):
        verify_artifacts(tmp_path, ("one.bin",), DIGEST, "render")


def test_verify_rejects_wrong_digest(tmp_path):
    f1 = tmp_path / "one.bin"
    f1.write_bytes(b"payload")
    update_manifest(tmp_path, ["one.bin"], DIGEST)
    with pytest.raises(StaleArtifactError):
        verify_artifacts(tmp_path, ("one.bin",), "f" * 16, "evaluate")


def test_verify_requires_manifest(tmp_path):
    with pytest.raises(StaleArtifactError):
        verify_artifacts(tmp_path, ("one.bin",), DIGEST, "render")


def test_require_digest_refuses_foreign_artifacts():
    require_digest("bank.bsmf", DIGEST, DIGEST)
    for embedded in ("f" * 16, None):
        with pytest.raises(StaleArtifactError, match="bank.bsmf"):
            require_digest("bank.bsmf", embedded, DIGEST)


def test_read_artifacts_holds_one_file_at_a_time(tmp_path):
    # each WAV is parsed and converted to float64 before the next file is
    # read, so only one file's float32 bytes are ever alive
    samples = np.random.default_rng(0).standard_normal((200_000, 2))
    names = ("a.wav", "b.wav")
    for name in names:
        write_wav(tmp_path / name, samples, 48000, DIGEST)
    update_manifest(tmp_path, names, DIGEST)
    tracemalloc.start()
    try:
        read = list(read_artifacts(tmp_path, names, DIGEST, "render",
                                   SAMPLE_STFT))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for data in read:
        assert data.dtype == np.float64
        np.testing.assert_array_equal(data, samples.astype(np.float32))
    # both float64 copies plus one file's float32 samples make 2.5 times
    # the samples' bytes; two files' float32 samples alive would make 3
    assert peak < 2.75 * samples.nbytes, (peak, samples.nbytes)


def test_file_sha256(tmp_path):
    f = tmp_path / "x"
    f.write_bytes(b"abc")
    assert file_sha256(f) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
