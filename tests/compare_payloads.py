"""Compare two artifact directories by payload instead of by bytes.

Every artifact embeds the run digest, a hash of the resolved config, so a
change to the config's keys alone changes the bytes of every file. This
compares what the stages and readers take from each file:

- WAV: the samples and the sample rate
- BSMG: the spectra, the tag and the STFT parameters
- BSMF: the filters, the tag, the solver config, sample rate and FFT size,
  read from the file's layout with the solver config as the JSON it
  stores, so that banks whose config keys differ still compare
- JSON: the content without its scene_digest
- CSV and any other file: the bytes

manifest.json holds only content hashes and digests and is skipped. The
one printed line is "identical" when every other file's bytes match,
"digests only" when the bytes differ but no payload does, or else names
each file whose payload differs, a container file with the parts that
differ (for example "bank_direct.bsmf (solver config)"), and each file
that one directory lacks.

Usage: PYTHONPATH=src python tests/compare_payloads.py OLD_DIR NEW_DIR
"""

import json
import struct
import sys
from pathlib import Path

from bsmrender.containers import (DIGEST_LEN, read_binaural_spectrogram,
                                  read_wav)


def bank_parts(path):
    """The parts of a BSMF bank as stored; the solver config is the JSON
    string the bank holds."""
    blob = path.read_bytes()
    if blob[:4] != b"BSMF":
        raise ValueError(f"{path}: not a BSMF file")
    mics, bins, rate, fft_size = struct.unpack_from("<4I", blob, 8)
    pos = 28 + struct.unpack_from("<I", blob, 24)[0]
    tag = blob[28:pos].decode("ascii")
    pos += DIGEST_LEN + 4
    config = blob[pos:pos + struct.unpack_from("<I", blob, pos - 4)[0]]
    return {"filters": ((2, bins, mics), blob[pos + len(config):]),
            "tag": tag, "solver config": config.decode("ascii"),
            "sample rate": rate, "FFT size": fft_size}


def payload(path):
    """The named parts of one artifact's content, without its digest."""
    if path.suffix == ".wav":
        samples, rate, _ = read_wav(path)
        return {"samples": (samples.shape, samples.tobytes()),
                "sample rate": rate}
    if path.suffix == ".bsmg":
        spec, _ = read_binaural_spectrogram(path)
        return {"spectra": (spec.data.shape, spec.data.tobytes()),
                "tag": spec.tag, "STFT parameters": spec.config}
    if path.suffix == ".bsmf":
        parts = bank_parts(path)
        parts["solver config"] = json.loads(parts["solver config"])
        return parts
    if path.suffix == ".json":
        content = json.loads(path.read_text())
        content.pop("scene_digest", None)
        return {"content": content}
    return {"bytes": path.read_bytes()}


def compare(old_dir, new_dir):
    """The summary line for new_dir against old_dir."""
    old_dir, new_dir = Path(old_dir), Path(new_dir)
    names = sorted({path.name for folder in (old_dir, new_dir)
                    for path in folder.iterdir()} - {"manifest.json"})
    lacking, changed, digests = [], [], 0
    for name in names:
        old, new = old_dir / name, new_dir / name
        if not (old.exists() and new.exists()):
            lacking.append(name)
        elif old.read_bytes() != new.read_bytes():
            try:
                old_parts, new_parts = payload(old), payload(new)
            except (ValueError, struct.error):  # a file the readers refuse
                changed.append(name)
                continue
            parts = [part for part in old_parts
                     if old_parts[part] != new_parts[part]]
            if not parts:
                digests += 1
            elif len(old_parts) > 1:
                changed.append(f"{name} ({', '.join(parts)})")
            else:
                changed.append(name)
    parts = []
    if lacking:
        parts.append("in one directory only: " + " ".join(lacking))
    if changed:
        parts.append("payloads differ: " + " ".join(changed))
    if digests:
        parts.append(f"digests only in the other {digests} files" if parts
                     else "digests only")
    return "; ".join(parts) or "identical"


if __name__ == "__main__":
    print(compare(*sys.argv[1:3]))
