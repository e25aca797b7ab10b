"""Every on-disk format, and the artifact bookkeeping.

All layouts are little-endian and timestamp-free, so repeated runs with
the same config produce byte-identical trees. `digest` is the 16-hex-char
scene digest, `str` a u32 byte count and that many ASCII bytes, and each
BSM* file opens with its magic and u32 version: 2 for BSMG, 1 for BSMF and
BSMH. WAV has no version field and keeps its version 1 layout.

- WAV: RIFF/WAVE chunks `fmt ` (32-bit IEEE float), `fact` (frames), an
  optional `bsmd` (digest) and `data` (interleaved <f4); odd ones padded.
- BSMG version 2, binaural spectrogram: u32 sample rate, window, hop, FFT
  size (the window's), frames, bins (the FFT's), both of which the reader
  checks; str tag: the file's name, `_` read as `-`, which the reader
  checks; digest; the (2, frames, bins) <c8 ears block, left ear first.
  The spectra are stored at single precision and read back as
  complex128; version 1 stored the same header with a <c16 block and is
  refused.
- BSMF, filter bank: u32 mics, bins, sample rate, FFT size (the last
  three the run's StftConfig's); str tag: the role its name gives
  (BANK_TAGS), which the reader checks; digest;
  str solver config (standard JSON, sorted keys, default separators:
  `snr`, null for an infinite SNR, and `magls_cutoff_hz`, null for plain
  LS at every bin); the (2, bins, mics) <c16 ears block, left ear first.
- BSMH, HRTF set: u32 sample rate (the run's), directions D, taps T; the
  (D, 2) <f8 colatitude/azimuth table; the (2, D, T) <f4 IRs, left first.

manifest.json maps artifact names to content hashes so later stages can
refuse stale or corrupted inputs. Every binary reader parses through one
bounds-checked cursor: a truncated, damaged or over-long file raises
ContainerError naming the file, as does a manifest of another shape or a
file that read_artifacts, load_filterbank or load_hrtf finds sampled
otherwise than the run's StftConfig.
"""

import contextlib
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from .geometry import as_directions
from .solvers import SolverConfig
from .stft import StftConfig

DIGEST_LEN = 16  # hex chars of sha256, enough to catch staleness
VERSIONS = {b"BSMG": 2, b"BSMF": 1, b"BSMH": 1}


class ContainerError(ValueError):
    pass


class StaleArtifactError(RuntimeError):
    pass


# ---------------------------------------------------------------- digests

def canonical_json(obj):
    """Stable JSON encoding: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def scene_digest(config_dict, input_hashes=None):
    """Digest of the resolved run config plus any input file hashes."""
    payload = {"config": config_dict, "inputs": input_hashes or {}}
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:DIGEST_LEN]


def require_digest(path, embedded, expected):
    """Refuse an artifact whose embedded digest is not the current run's."""
    if embedded != expected:
        raise StaleArtifactError(f"{path}: embedded digest {embedded} does not "
                                 f"match the current config ({expected})")


# ---------------------------------------------------------------- byte io

def _digest_bytes(digest):
    if len(digest) != DIGEST_LEN:
        raise ContainerError(f"digest must be {DIGEST_LEN} hex chars")
    return digest.encode("ascii")


def _string(text):
    raw = text.encode("ascii")
    return struct.pack("<I", len(raw)) + raw


def _header(magic, fields, *values):
    return magic + struct.pack("<I" + fields, VERSIONS[magic], *values)


def _require_run(path, what, got, want):
    """Refuse a file whose sampling is not the run's."""
    if got != want:
        raise ContainerError(f"{path}: {what} is {got}, not the run's {want}")


class _Cursor:
    """Bounds-checked reads over the bytes of one file. Every failure is a
    ContainerError naming the file; slices are views, never copies."""

    def __init__(self, path, blob=None):
        self.path = path
        self.blob = memoryview(Path(path).read_bytes() if blob is None else blob)
        self.pos = 0

    def fail(self, problem):
        raise ContainerError(f"{self.path}: {problem}")

    @property
    def remaining(self):
        return len(self.blob) - self.pos

    def take(self, size, what):
        if not 0 <= size <= self.remaining:
            self.fail(f"truncated {what}")
        self.pos += size
        return self.blob[self.pos - size : self.pos]

    def sub(self, size, what):
        """A cursor over the next `size` bytes."""
        return _Cursor(self.path, self.take(size, what))

    def unpack(self, fields, what):
        return struct.unpack(fields, self.take(struct.calcsize(fields), what))

    def ascii(self, size, what):
        try:
            return bytes(self.take(size, what)).decode("ascii")
        except UnicodeDecodeError:
            self.fail(f"{what} is not ASCII")

    def string(self, what):
        return self.ascii(self.unpack("<I", what)[0], what)

    def array(self, dtype, shape, what):
        dtype = np.dtype(dtype)
        raw = self.take(math.prod(shape) * dtype.itemsize, what)
        return np.frombuffer(raw, dtype).reshape(shape)

    def header(self, magic, fields):
        """Check the magic and version; return the u32 fields after them."""
        if self.blob[: len(magic)] != magic:
            self.fail(f"not a {magic.decode()} file")
        self.pos = len(magic)
        version, *values = self.unpack("<I" + fields, "header")
        if version != VERSIONS[magic]:
            self.fail(f"unsupported {magic.decode()} version {version}")
        return values

    def end(self):
        if self.remaining:
            self.fail(f"{self.remaining} trailing bytes")

    @contextlib.contextmanager
    def checked(self, what):
        """Report parsed fields that fail validation as ContainerError."""
        try:
            yield
        except (KeyError, TypeError, ValueError) as err:
            raise ContainerError(f"{self.path}: invalid {what}: {err}") from None


# ---------------------------------------------------------------- WAV

def write_wav(path, data, sample_rate, digest=None):
    """float32 RIFF WAV, any channel count, optional digest chunk. A sample
    that is not finite as float32, a NaN or one beyond its range, is an
    error before the file is opened."""
    arr = np.asarray(data)
    if arr.ndim == 1:
        arr = arr[:, None]
    frames, channels = arr.shape
    # a float64 sum of finite float32 samples is finite, and it forms no
    # payload-sized mask; an overflow or inf - inf there is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        samples = np.ascontiguousarray(arr, dtype="<f4")
        finite = np.isfinite(samples.sum(dtype=np.float64))
    if not finite:
        raise ContainerError(f"{path}: a sample is not finite as float32")
    block_align = channels * 4
    chunks = [
        (b"fmt ", struct.pack("<HHIIHH", 3, channels, int(sample_rate),
                              int(sample_rate) * block_align, block_align, 32)),
        (b"fact", struct.pack("<I", frames)),
    ]
    if digest is not None:
        chunks.append((b"bsmd", _digest_bytes(digest)))
    head = b"WAVE" + b"".join(tag + struct.pack("<I", len(blob)) + blob
                              + b"\x00" * (len(blob) % 2)
                              for tag, blob in chunks)
    # the data chunk comes last; 4-byte samples never need its pad byte
    head += b"data" + struct.pack("<I", samples.nbytes)
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(head) + samples.nbytes)
                 + head)
        fh.write(samples)


def read_wav(path):
    """Returns (data float32 (frames, channels), sample_rate, digest or None)."""
    cur = _Cursor(path)
    magic, size, form = cur.unpack("<4sI4s", "RIFF header")
    if magic != b"RIFF" or form != b"WAVE":
        cur.fail("not a RIFF WAVE file")
    riff = cur.sub(size - 4, "RIFF chunk")
    cur.end()
    fmt = samples = digest = None
    while riff.remaining:
        tag, size = riff.unpack("<4sI", "chunk header")
        chunk = riff.sub(size, f"{tag!r} chunk")
        riff.take(size % 2, "chunk padding")
        if tag == b"fmt ":
            fmt = chunk.unpack("<HHIIHH", "fmt chunk")
        elif tag == b"data":
            samples = chunk
        elif tag == b"bsmd":
            digest = chunk.ascii(size, "digest")
    if fmt is None or samples is None:
        cur.fail("missing fmt or data chunk")
    audio_format, channels, rate, _, _, bits = fmt
    if audio_format != 3 or bits != 32:
        cur.fail("expected 32-bit float samples")
    if channels == 0 or samples.remaining % (4 * channels):
        cur.fail(f"data size does not fit {channels} channels")
    arr = samples.array("<f4", (samples.remaining // (4 * channels), channels),
                        "samples")
    return arr, rate, digest


# ---------------------------------------------------------------- BSMG

def _spectrogram_tag(path):
    """The tag a BSMG file stores: its name, `_` read as `-`."""
    return Path(path).stem.replace("_", "-")


def write_binaural_spectrogram(path, spec, cfg, digest):
    """Write (2, frames, bins) spectra `spec` on `cfg`, left ear first."""
    if spec.ndim != 3 or spec.shape[::2] != (2, cfg.num_bins):
        raise ContainerError(f"{path}: spectra of shape {spec.shape}, not "
                             f"(2, frames, {cfg.num_bins})")
    frames, bins = spec.shape[1:]
    with open(path, "wb") as fh:
        fh.write(_header(b"BSMG", "IIIIII", int(cfg.sample_rate),
                         cfg.window_length, cfg.hop, cfg.fft_size,
                         frames, bins)
                 + _string(_spectrogram_tag(path)) + _digest_bytes(digest))
        fh.write(np.ascontiguousarray(spec, dtype="<c8"))


def read_binaural_spectrogram(path):
    """Returns (spectra, StftConfig, embedded digest). The (2, frames, bins)
    spectra are upcast to complex128; the file's bytes are not kept."""
    cur = _Cursor(path)
    rate, window, hop, fft_size, frames, bins = cur.header(b"BSMG", "IIIIII")
    tag = cur.string("tag")
    digest = cur.ascii(DIGEST_LEN, "digest")
    ears = cur.array("<c8", (2, frames, bins), "spectra")
    cur.end()
    if tag != _spectrogram_tag(path):
        cur.fail(f"stores the tag {tag!r}, not {_spectrogram_tag(path)!r}")
    with cur.checked("STFT parameters"):
        config = StftConfig(rate, window, hop)
        if config.fft_size != fft_size:
            raise ValueError(f"FFT size {fft_size} is not the {window}-sample "
                             f"window's {config.fft_size}")
        if config.num_bins != bins:
            raise ValueError(f"bin count {bins} is not the {fft_size}-point "
                             f"FFT's {config.num_bins}")
    if not np.isfinite(ears).all():
        cur.fail("non-finite spectra")
    return ears.astype(complex), config, digest


# ---------------------------------------------------------------- BSMF

# a bank's role is its name: the writer stores the tag its name gives, and
# the reader refuses another
BANK_TAGS = {"bank_direct.bsmf": "direct", "bank_reverb.bsmf": "reverberant"}


def _bank_tag(path):
    """The tag a BSMF file stores: its name's role."""
    if Path(path).name not in BANK_TAGS:
        raise ContainerError(f"{path}: a filter bank is named "
                             f"{' or '.join(BANK_TAGS)}")
    return BANK_TAGS[Path(path).name]


def save_filterbank(path, ears, solver, stft_cfg, digest):
    """Write a bank's (2, bins, M) filters `ears`, left ear first, with its
    name's tag and the SolverConfig `solver` that designed it."""
    # the default JSON separators are part of the version 1 bytes, and an
    # unset cutoff or an infinite SNR is null, as standard JSON has no inf
    config = json.dumps({"magls_cutoff_hz": solver.magls_cutoff_hz,
                         "snr": None if np.isinf(solver.snr) else solver.snr},
                        sort_keys=True)
    tag = _bank_tag(path)
    _, bins, mics = ears.shape
    with open(path, "wb") as fh:
        fh.write(_header(b"BSMF", "IIII", mics, bins,
                         int(stft_cfg.sample_rate), stft_cfg.fft_size)
                 + _string(tag) + _digest_bytes(digest) + _string(config))
        fh.write(np.ascontiguousarray(ears, dtype="<c16"))


def load_filterbank(path, stft_cfg):
    """Returns the (2, bins, M) filters of a bank of the run's sampling and
    its embedded digest, after checking its tag and solver config."""
    want = _bank_tag(path)
    cur = _Cursor(path)
    mics, bins, rate, fft_size = cur.header(b"BSMF", "IIII")
    _require_run(path, "(sample rate, FFT size, bins)", (rate, fft_size, bins),
                 (stft_cfg.sample_rate, stft_cfg.fft_size, stft_cfg.num_bins))
    tag = cur.string("tag")
    digest = cur.ascii(DIGEST_LEN, "digest")
    config = cur.string("solver config")
    ears = cur.array("<c16", (2, bins, mics), "filters")
    cur.end()
    with cur.checked("filter bank"):
        if tag != want:
            raise ValueError(f"stores the tag {tag!r}, not {want!r}")
        solver = dict(json.loads(config))
        if solver.get("snr") is None:
            solver["snr"] = np.inf
        SolverConfig(**solver)
        if not np.isfinite(ears).all():
            raise ValueError("non-finite filter coefficients")
    return ears, digest


# ---------------------------------------------------------------- BSMH

def save_hrtf(path, directions, left_ir, right_ir, sample_rate):
    """Write a BSMH container from (D, 2) directions and (D, taps) IRs."""
    left_ir = np.ascontiguousarray(left_ir, dtype="<f4")
    right_ir = np.ascontiguousarray(right_ir, dtype="<f4")
    if left_ir.shape != right_ir.shape or left_ir.ndim != 2:
        raise ValueError("impulse responses must share a (directions, taps) shape")
    count, taps = left_ir.shape
    table = np.ascontiguousarray(directions, dtype="<f8")
    if table.shape != (count, 2):
        raise ValueError("need one (colatitude, azimuth) row per IR row")
    with open(path, "wb") as fh:
        fh.write(_header(b"BSMH", "III", int(sample_rate), count, taps))
        for block in (table, left_ir, right_ir):
            fh.write(block)


def _hrtf_header(cur, stft_cfg):
    """(directions, taps) of the BSMH header at `cur`, refused unless its
    sample rate is the run's and its IRs have 1 to the run's FFT size."""
    rate, count, taps = cur.header(b"BSMH", "III")
    _require_run(cur.path, "sample rate", rate, stft_cfg.sample_rate)
    if not 0 < taps <= stft_cfg.fft_size:
        cur.fail(f"{taps}-tap impulse responses: the run's FFT takes 1 to "
                 f"{stft_cfg.fft_size} taps")
    return count, taps


def read_hrtf_header(path, stft_cfg):
    """(directions, taps) from a BSMH file's 20-byte header, checked
    against the run's `stft_cfg` as load_hrtf checks it."""
    with open(path, "rb") as fh:
        return _hrtf_header(_Cursor(path, fh.read(20)), stft_cfg)


def load_hrtf(path, stft_cfg):
    """(D, 2) directions and (2, D, bins) ears of a BSMH set of the run's
    sample rate: each IR's rFFT, zero-padded to the run's FFT size."""
    cur = _Cursor(path)
    count, taps = _hrtf_header(cur, stft_cfg)
    if count == 0:
        cur.fail("empty HRTF set")
    table = cur.array("<f8", (count, 2), "direction table")
    irs = cur.array("<f4", (2, count, taps), "impulse responses")
    cur.end()
    with cur.checked("HRTF set"):
        directions = as_directions(table)
        if not np.isfinite(irs).all():
            raise ValueError("non-finite impulse responses")
    return directions, np.fft.rfft(irs, n=stft_cfg.fft_size, axis=2)


# ---------------------------------------------------------------- manifest

def write_json(path, obj):
    """Standard JSON only: a NaN or infinity raises ValueError, before the
    file is opened, instead of writing a token other readers refuse."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_manifest(path):
    """manifest.json as update_manifest writes it: {"artifacts": {name:
    {"sha256": str, "scene_digest": str}}}. Any other content raises
    ContainerError naming the file."""
    try:
        manifest = read_json(path)
        for entry in manifest["artifacts"].values():
            if not all(isinstance(entry[key], str)
                       for key in ("sha256", "scene_digest")):
                raise TypeError("a hash or digest is not a string")
    except (ValueError, LookupError, TypeError, AttributeError) as err:
        raise ContainerError(f"{path}: not a manifest: {err!r}") from None
    return manifest


def update_manifest(out_dir, names, digest):
    """Record the hashes of the named artifacts in out_dir."""
    path = out_dir / "manifest.json"
    manifest = _read_manifest(path) if path.exists() else {"artifacts": {}}
    for name in sorted(names):
        manifest["artifacts"][name] = {"sha256": file_sha256(out_dir / name),
                                       "scene_digest": digest}
    write_json(path, manifest)


def retract_manifest(out_dir, names):
    """Drop the named artifacts from out_dir's manifest, if it lists any,
    so that no later read takes them for current."""
    path = out_dir / "manifest.json"
    if path.exists():
        listed = _read_manifest(path)["artifacts"]
        kept = {n: entry for n, entry in listed.items() if n not in names}
        if len(kept) < len(listed):
            write_json(path, {"artifacts": kept})


def verify_artifacts(out_dir, names, expected_digest, stage):
    """Check that each named artifact exists, matches its recorded content
    hash, and was produced under the expected scene digest."""
    path = out_dir / "manifest.json"
    if not path.exists():
        raise StaleArtifactError(f"{stage}: no manifest in {out_dir}")
    manifest = _read_manifest(path)["artifacts"]
    for name in names:
        if name not in manifest:
            raise StaleArtifactError(f"{stage}: {name} missing from manifest")
        entry = manifest[name]
        target = out_dir / name
        if not target.exists():
            raise StaleArtifactError(f"{stage}: artifact {name} not found")
        if file_sha256(target) != entry["sha256"]:
            raise StaleArtifactError(f"{stage}: artifact {name} corrupted "
                                     "(content hash mismatch)")
        if entry["scene_digest"] != expected_digest:
            raise StaleArtifactError(f"{stage}: artifact {name} is stale "
                                     f"(scene digest {entry['scene_digest']} != "
                                     f"{expected_digest})")


def _read_checked(path, digest, stft_cfg):
    """One artifact of the run's digest and sampling: a WAV's float64
    samples, a filter bank or a binaural spectrogram."""
    if path.suffix == ".wav":
        samples, rate, embedded = read_wav(path)
        _require_run(path, "sample rate", rate, stft_cfg.sample_rate)
        content = np.asarray(samples, float)
    elif path.suffix == ".bsmf":
        content, embedded = load_filterbank(path, stft_cfg)
    else:
        content, config, embedded = read_binaural_spectrogram(path)
        _require_run(path, "STFT", config, stft_cfg)
    require_digest(path, embedded, digest)
    return content


def read_artifacts(out_dir, names, digest, stage, stft_cfg):
    """A stage's one checked read: every name against manifest.json first
    (listed, content hash, digest), then an iterator that parses one file
    per step, so no two files' stored bytes are alive at once."""
    verify_artifacts(out_dir, names, digest, stage)
    return (_read_checked(out_dir / name, digest, stft_cfg) for name in names)
