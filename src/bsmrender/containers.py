"""File formats and artifact bookkeeping.

Everything on disk is little-endian and timestamp-free so that repeated
runs with the same config produce byte-identical trees. WAV files carry a
private "bsmd" chunk holding the 16-hex-char scene digest; the BSMG
binaural spectrogram container embeds the same digest in its header.
manifest.json maps artifact names to content hashes so later stages can
refuse stale or corrupted inputs. The readers check every length before
they unpack, so a truncated or damaged file raises ContainerError.
"""

import hashlib
import json
import struct

import numpy as np

DIGEST_LEN = 16  # hex chars of sha256, enough to catch staleness


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


def _check_digest(digest):
    if len(digest) != DIGEST_LEN:
        raise ContainerError(f"digest must be {DIGEST_LEN} hex chars")
    return digest.encode("ascii")


# ---------------------------------------------------------------- WAV

def write_wav(path, data, sample_rate, digest=None):
    """float32 RIFF WAV, any channel count, optional digest chunk."""
    arr = np.asarray(data)
    if arr.ndim == 1:
        arr = arr[:, None]
    frames, channels = arr.shape
    payload = np.ascontiguousarray(arr, dtype="<f4").tobytes()
    block_align = channels * 4
    chunks = [
        (b"fmt ", struct.pack("<HHIIHH", 3, channels, int(sample_rate),
                              int(sample_rate) * block_align, block_align, 32)),
        (b"fact", struct.pack("<I", frames)),
    ]
    if digest is not None:
        chunks.append((b"bsmd", _check_digest(digest)))
    chunks.append((b"data", payload))
    body = b"WAVE"
    for tag, blob in chunks:
        body += tag + struct.pack("<I", len(blob)) + blob
        if len(blob) % 2:
            body += b"\x00"
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(body)) + body)


def _ascii(raw, path, what):
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError:
        raise ContainerError(f"{path}: {what} is not ASCII") from None


def read_wav(path):
    """Returns (data float32 (frames, channels), sample_rate, digest or None)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise ContainerError(f"{path}: not a RIFF WAVE file")
    pos, end = 12, 8 + struct.unpack("<I", blob[4:8])[0]
    if end > len(blob):
        raise ContainerError(f"{path}: truncated file")
    fmt = None
    data = None
    digest = None
    while pos + 8 <= end:
        tag = blob[pos : pos + 4]
        size = struct.unpack("<I", blob[pos + 4 : pos + 8])[0]
        if pos + 8 + size > end:
            raise ContainerError(f"{path}: chunk {tag!r} overruns the file")
        body = blob[pos + 8 : pos + 8 + size]
        if tag == b"fmt ":
            if size < 16:
                raise ContainerError(f"{path}: short fmt chunk")
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif tag == b"data":
            data = body
        elif tag == b"bsmd":
            digest = _ascii(body, path, "digest")
        pos += 8 + size + (size % 2)
    if fmt is None or data is None:
        raise ContainerError(f"{path}: missing fmt or data chunk")
    audio_format, channels, rate, _, _, bits = fmt
    if audio_format != 3 or bits != 32:
        raise ContainerError(f"{path}: expected 32-bit float samples")
    if channels == 0 or len(data) % (4 * channels):
        raise ContainerError(f"{path}: data size does not fit {channels} channels")
    arr = np.frombuffer(data, dtype="<f4").reshape(-1, channels)
    return arr, rate, digest


# ---------------------------------------------------------------- BSMG

def write_binaural_spectrogram(path, ears, config, tag, digest):
    """Binaural STFT archive: header, then the (2, frames, bins) complex128
    block of the left and right ears."""
    if ears.ndim != 3 or ears.shape[0] != 2:
        raise ContainerError("ears must be a (2, frames, bins) block")
    tag_b = tag.encode("ascii")
    header = (b"BSMG" + struct.pack("<IIIIIII", 1, int(config.sample_rate),
                                    config.window_length, config.hop,
                                    config.fft_size, ears.shape[1], ears.shape[2])
              + struct.pack("<I", len(tag_b)) + tag_b + _check_digest(digest))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(ears, dtype="<c16").tobytes())


def read_binaural_spectrogram(path):
    """Returns (ears complex128 (2, frames, bins), header metadata)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"BSMG":
        raise ContainerError(f"{path}: bad magic")
    if len(blob) < 36:
        raise ContainerError(f"{path}: truncated header")
    (version, rate, window, hop, fft_size,
     frames, bins) = struct.unpack("<IIIIIII", blob[4:32])
    if version != 1:
        raise ContainerError(f"{path}: unsupported version {version}")
    tag_len = struct.unpack("<I", blob[32:36])[0]
    pos = 36 + tag_len
    if pos + DIGEST_LEN > len(blob):
        raise ContainerError(f"{path}: truncated header")
    tag = _ascii(blob[36:pos], path, "tag")
    digest = _ascii(blob[pos : pos + DIGEST_LEN], path, "digest")
    pos += DIGEST_LEN
    if len(blob) - pos != 2 * frames * bins * 16:
        raise ContainerError(f"{path}: payload size does not match "
                             f"{frames} x {bins} bins")
    ears = np.frombuffer(blob[pos:], dtype="<c16").reshape(2, frames, bins)
    meta = {"sample_rate": rate, "window_length": window, "hop": hop,
            "fft_size": fft_size, "tag": tag, "digest": digest}
    return ears, meta


# ---------------------------------------------------------------- manifest

def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def update_manifest(out_dir, entries, digest):
    """Record artifact hashes. entries maps file name -> path."""
    path = out_dir / "manifest.json"
    manifest = read_json(path) if path.exists() else {"artifacts": {}}
    for name, p in sorted(entries.items()):
        manifest["artifacts"][name] = {"sha256": file_sha256(p),
                                       "scene_digest": digest}
    write_json(path, manifest)


def verify_artifacts(out_dir, names, expected_digest, stage):
    """Check that each named artifact exists, matches its recorded content
    hash, and was produced under the expected scene digest."""
    path = out_dir / "manifest.json"
    if not path.exists():
        raise StaleArtifactError(f"{stage}: no manifest in {out_dir}")
    manifest = read_json(path)["artifacts"]
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
