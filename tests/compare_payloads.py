"""Compare two artifact directories by payload instead of by bytes.

Every artifact embeds the run digest, a hash of the resolved config, so a
change to the config's keys alone changes the bytes of every file. This
compares what the stages and readers take from each file:

- WAV: the samples and the sample rate
- BSMG: the spectra, the tag and the STFT parameters
- BSMF: the filters, the tag, the solver config, sample rate and FFT size
- JSON: the content without its scene_digest
- CSV and any other file: the bytes

manifest.json holds only content hashes and digests and is skipped. The
one printed line is "identical" when every other file's bytes match,
"digests only" when the bytes differ but no payload does, or else names
each file whose payload differs or that one directory lacks.

Usage: PYTHONPATH=src python tests/compare_payloads.py OLD_DIR NEW_DIR
"""

import json
import sys
from pathlib import Path

from bsmrender.containers import (load_filterbank, read_binaural_spectrogram,
                                  read_wav)


def payload(path):
    """The content of one artifact, without its embedded digest."""
    if path.suffix == ".wav":
        samples, rate, _ = read_wav(path)
        return samples.shape, samples.tobytes(), rate
    if path.suffix == ".bsmg":
        spec, _ = read_binaural_spectrogram(path)
        return spec.data.shape, spec.data.tobytes(), spec.tag, spec.config
    if path.suffix == ".bsmf":
        bank, _ = load_filterbank(path)
        return (bank.ears.shape, bank.ears.tobytes(), bank.tag, bank.config,
                bank.sample_rate, bank.fft_size)
    if path.suffix == ".json":
        content = json.loads(path.read_text())
        content.pop("scene_digest", None)
        return content
    return path.read_bytes()


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
                same = payload(old) == payload(new)
            except ValueError:  # a file the readers refuse
                same = False
            if same:
                digests += 1
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
