"""Compare two artifact directories by payload instead of by bytes.

Every artifact embeds the run digest, a hash of the resolved config, so a
change to the config's keys alone changes the bytes of every file. This
compares what the stages and readers take from each file:

- WAV: the samples and the sample rate
- BSMG: the spectra and the STFT parameters; the reader checks that the
  stored tag is the file's name
- BSMF: the filters, the tag, the solver config, sample rate and FFT size,
  read from the file's layout with the solver config as the JSON it
  stores, so that banks whose config keys differ still compare
- JSON: the content without its scene_digest
- CSV: the rows, the fields of the `nmse_linear` and `nmse_db` columns as
  numbers (an empty field as null) and every other field as text
- any other file: the bytes

manifest.json holds only content hashes and digests and is skipped. The
one printed line is "identical" when every other file's bytes match,
"digests only" when the bytes differ but no payload does, or else names
each file whose payload differs, a container file with the parts that
differ (for example "bank_direct.bsmf (solver config)"), and each file
that one directory lacks. A numeric part that differs (WAV samples, BSMG
spectra, BSMF filters, JSON and CSV numbers) carries its largest absolute
change relative to the old part's largest magnitude, so "reference.bsmg
(spectra 3e-8)" reads as a rounding-level change; JSON or CSV whose
numbers alone differ shows as "verdict.json (numbers 2e-12)" or
"nmse_reverb.csv (numbers 2e-16)". Arrays of another shape, or JSON or
CSV that differs in more than its numbers, carry no figure.

Usage: PYTHONPATH=src python tests/compare_payloads.py OLD_DIR NEW_DIR
"""

import json
import struct
import sys
from pathlib import Path

import numpy as np

from bsmrender.containers import (DIGEST_LEN, read_binaural_spectrogram,
                                  read_wav)

NUMERIC_COLUMNS = ("nmse_linear", "nmse_db")  # of evaluate's report CSVs


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
    filters = np.frombuffer(blob[pos + len(config):], "<c16")
    return {"filters": filters.reshape(2, bins, mics),
            "tag": tag, "solver config": config.decode("ascii"),
            "sample rate": rate, "FFT size": fft_size}


def payload(path):
    """The named parts of one artifact's content, without its digest."""
    if path.suffix == ".wav":
        samples, rate, _ = read_wav(path)
        return {"samples": samples, "sample rate": rate}
    if path.suffix == ".bsmg":
        spectra, config, _ = read_binaural_spectrogram(path)
        return {"spectra": spectra, "STFT parameters": config}
    if path.suffix == ".bsmf":
        parts = bank_parts(path)
        parts["solver config"] = json.loads(parts["solver config"])
        return parts
    if path.suffix == ".json":
        content = json.loads(path.read_text())
        content.pop("scene_digest", None)
        return {"content": content}
    if path.suffix == ".csv":
        lines = path.read_text().splitlines() or [""]
        header, *rows = (line.split(",") for line in lines)
        numeric = {i for i, name in enumerate(header)
                   if name in NUMERIC_COLUMNS}
        return {"content": [header] + [
            [(float(field) if field else None) if i in numeric else field
             for i, field in enumerate(row)] for row in rows]}
    return {"bytes": path.read_bytes()}


def _same(old, new):
    """Bitwise equality of two parts, arrays by shape and bytes."""
    if isinstance(old, np.ndarray):
        return old.shape == new.shape and old.tobytes() == new.tobytes()
    return old == new


_NUMBER = object()  # stands in for each number of a JSON document


def _numbers(value, found):
    """`value` with each JSON number moved to the list `found`."""
    if isinstance(value, dict):
        return {key: _numbers(item, found) for key, item in value.items()}
    if isinstance(value, list):
        return [_numbers(item, found) for item in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        found.append(value)
        return _NUMBER
    return value


def relative_change(old, new):
    """max |new - old| / max |old| over a numeric part, or None when the
    two do not line up: arrays of other shapes, or JSON documents that
    differ in more than their numbers."""
    if not isinstance(old, np.ndarray):  # a JSON document
        old_numbers, new_numbers = [], []
        if _numbers(old, old_numbers) != _numbers(new, new_numbers):
            return None
        old, new = old_numbers, new_numbers
    old, new = np.asarray(old), np.asarray(new)
    if old.shape != new.shape:
        return None
    wide = np.promote_types(old.dtype, np.float64)
    change = np.abs(new.astype(wide) - old.astype(wide)).max(initial=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(change / np.abs(old.astype(wide)).max(initial=0.0))


def _figure(x):
    """One significant digit without exponent padding: 3e-8, not 3e-08."""
    return f"{x:.0e}".replace("e-0", "e-").replace("e+0", "e+")


def _part_text(part, old, new):
    """A differing part's name, with its relative change if numeric."""
    if isinstance(old, np.ndarray) or part == "content":
        change = relative_change(old, new)
        if change is not None:
            return f"{'numbers' if part == 'content' else part} " \
                   f"{_figure(change)}"
    return part


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
                     if not _same(old_parts[part], new_parts[part])]
            texts = [_part_text(part, old_parts[part], new_parts[part])
                     for part in parts]
            if not parts:
                digests += 1
            elif len(old_parts) > 1 or texts != parts:
                changed.append(f"{name} ({', '.join(texts)})")
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
