"""Workload plans and output checks shared by run.py and inproc.py.

A workload is the list of CLI calls one pass makes. ``desk`` and ``paper``
run the four stages in order against one artifact directory; ``design_sweep``
runs only the ``design`` stage, once for each (MagLS cutoff, reverberant
SNR) variant, each in its own artifact directory. Every call gets the
workload seed as ``--seed``.

The checks compare a finished pass against values recorded from the program
in ``expected.json``: scene statistics and filter-bank summaries do not
depend on the seed, verdicts do and are recorded per seed.
"""

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

STAGES = ("simulate", "design", "render", "evaluate")
# the paper's cutoff and SNR trends: two cutoffs either side of the profile
# default (1500 Hz) crossed with two regularisation levels either side of
# the default 20 dB
SWEEP = tuple((cutoff, snr) for cutoff in (1000.0, 3000.0) for snr in (10.0, 30.0))
WORKLOADS = ("desk", "paper", "design_sweep")

# A verdict is deterministic for a seed; 0.02 dB leaves room for rewrites
# that move results by rounding only (the SH-reference and batched-solve
# items in ROADMAP.md expect up to 1e-6 relative) and catches a real change.
NMSE_TOL_DB = 0.02
# For a seed without a recorded verdict the improvement must stay within
# this distance of the range recorded over the other seeds.
UNRECORDED_MARGIN_DB = 1.0
# Bank summaries: a batched solve may move banks by about 1e-10.
BANK_RTOL = 1e-6
STATS_ABS_TOL = 1e-6
STAT_KEYS = ("image_count", "drr_db", "t60_s")

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a pass: stage name, argv after the program,
    the artifact directory it writes and, in a sweep, its variant."""

    stage: str
    argv: list
    out_dir: Path
    variant: str = None

    def dry_run_argv(self):
        return self.argv + ["--dry-run"]


def plan(workload, seed, pass_dir):
    """The calls of one pass, in order. Writes the variant config files of
    ``design_sweep`` into ``pass_dir`` (outside every artifact directory)."""
    pass_dir.mkdir(parents=True, exist_ok=True)
    if workload in ("desk", "paper"):
        out = pass_dir / "artifacts"
        return [Call(stage, [stage, "--profile", workload, "--seed", str(seed),
                             "--out", str(out)], out)
                for stage in STAGES]
    if workload == "design_sweep":
        calls = []
        for cutoff, snr in SWEEP:
            name = f"cutoff{cutoff:g}_snr{snr:g}"
            cfg = pass_dir / f"{name}.yaml"
            # JSON is valid YAML, so no YAML writer is needed here
            cfg.write_text(json.dumps({"design": {"magls_cutoff_hz": cutoff,
                                                  "reverb_snr_db": snr}}))
            out = pass_dir / name
            calls.append(Call("design", ["design", "--profile", "desk",
                                         "--config", str(cfg), "--seed", str(seed),
                                         "--out", str(out)], out, variant=name))
        return calls
    raise ValueError(f"unknown workload {workload!r}")


def tree_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


# ------------------------------------------------------------------ checks

def bank_summary(path):
    """Per ear: Frobenius norm, magnitude of the coefficient sum (phase
    sensitive) and the energy-weighted mean bin index of a BSMF v1 bank,
    plus the digest embedded in its header."""
    import numpy as np  # not at module level: inproc.py times the first numpy import

    blob = Path(path).read_bytes()
    if blob[:4] != b"BSMF":
        raise ValueError(f"{path.name}: not a BSMF container")
    version, mics, bins, _, _ = struct.unpack("<IIIII", blob[4:24])
    if version != 1:
        raise ValueError(f"{path.name}: unknown BSMF version {version}")
    pos = 28 + struct.unpack("<I", blob[24:28])[0]
    digest = blob[pos : pos + 16].decode("ascii")
    pos += 16
    pos += 4 + struct.unpack("<I", blob[pos : pos + 4])[0]
    flat = np.frombuffer(blob[pos:], dtype="<c16")
    if flat.size != 2 * bins * mics:
        raise ValueError(f"{path.name}: truncated coefficients")
    summary = {}
    for ear, coeffs in zip(("left", "right"), flat.reshape(2, bins, mics)):
        energy = np.sum(np.abs(coeffs) ** 2, axis=1)
        summary[ear] = [float(np.sqrt(energy.sum())), float(abs(coeffs.sum())),
                        float(np.dot(np.arange(bins), energy) / energy.sum())]
    return summary, digest


def _close(a, b, rtol=0.0, atol=0.0):
    return a is not None and b is not None and math.isfinite(a) and \
        abs(a - b) <= atol + rtol * abs(b)


def check_call(workload, seed, call, digest):
    """Errors found in the outputs of one finished call (empty list = ok).
    Returns (errors, observed) where observed holds what was compared."""
    exp = EXPECTED[workload]
    out = call.out_dir
    errors, observed = [], {}
    try:
        if call.stage == "simulate":
            stats = json.loads((out / "scene_stats.json").read_text())
            observed = {k: stats[k] for k in STAT_KEYS}
            if stats.get("scene_digest") != digest:
                errors.append("scene_stats.json digest differs from the dry run")
            for key in STAT_KEYS:
                if not _close(stats[key], exp["scene"][key], atol=STATS_ABS_TOL):
                    errors.append(f"{key} {stats[key]} != {exp['scene'][key]}")
        elif call.stage == "design":
            banks = exp["banks"][call.variant] if call.variant else exp["banks"]
            for name, want in banks.items():
                got, bank_digest = bank_summary(out / name)
                observed[name] = got
                if bank_digest != digest:
                    errors.append(f"{name} digest differs from the dry run")
                for ear in want:
                    if not all(_close(g, w, rtol=BANK_RTOL)
                               for g, w in zip(got[ear], want[ear])):
                        errors.append(f"{name} {ear} summary {got[ear]} != {want[ear]}")
        elif call.stage == "evaluate":
            verdict = json.loads((out / "verdict.json").read_text())
            observed = {k: verdict[k] for k in ("broadband_nmse_db", "improvement_db")}
            if verdict.get("scene_digest") != digest:
                errors.append("verdict.json digest differs from the dry run")
            errors += _check_verdict(exp["verdicts"], str(seed), observed)
    except (OSError, ValueError, KeyError, TypeError) as err:
        errors.append(f"{call.stage}: unreadable output ({type(err).__name__}: {err})")
    return errors, observed


def _check_verdict(recorded, seed, got):
    errors = []
    if seed in recorded:
        flat_got = _flatten(got)
        for key, value in _flatten(recorded[seed]).items():
            if not _close(flat_got.get(key), value, atol=NMSE_TOL_DB):
                errors.append(f"{key} {flat_got.get(key)} != recorded {value}")
        return errors
    # no record for this seed: finite results, the paper's verdict holds,
    # and the improvement lies near the range of the recorded seeds
    for key, value in _flatten(got["broadband_nmse_db"]).items():
        if value is None or not math.isfinite(value):
            errors.append(f"broadband_nmse_db.{key} is {value}")
    for ear, value in got["improvement_db"].items():
        seen = [v["improvement_db"][ear] for v in recorded.values()]
        lo, hi = min(seen) - UNRECORDED_MARGIN_DB, max(seen) + UNRECORDED_MARGIN_DB
        if not (value > 0.0 and lo <= value <= hi):
            errors.append(f"improvement_db.{ear} {value} outside (0, [{lo:.2f}, {hi:.2f}])")
    return errors


def _flatten(tree, prefix=""):
    flat = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat
