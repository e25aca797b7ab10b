"""Command line wiring: stage orchestration, artifacts, digests, exits."""

import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from bsmrender import cli, containers, render, simulate, solvers
from bsmrender import config as cfgmod
from bsmrender.cli import (
    BANK_ARTIFACTS,
    EXIT_CODES,
    REPORT_ARTIFACTS,
    SIM_ARTIFACTS,
    SPECTRO_ARTIFACTS,
    main,
    near_ear,
)
from bsmrender.containers import (read_binaural_spectrogram, read_wav,
                                  save_filterbank, save_hrtf,
                                  update_manifest, verify_artifacts,
                                  write_binaural_spectrogram, write_wav)
from bsmrender.evaluate import octave_bands
from bsmrender.sph import num_coeffs, spiral_grid
from bsmrender.stft import StftConfig

from compare_payloads import bank_parts
from oracles import assert_bits_equal, write_binaural_spectrogram_v1

# anechoic single-mic scene: one image, sub-second stages, and the direct
# path is the whole field so full and direct recordings must coincide
MINI_YAML = """\
scene:
  room_dimensions: [6.0, 5.0, 4.0]
  target_t60_s: null
  reflection_coefficients: [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
  source_position: [4.0, 2.5, 2.0]
  source_duration_s: 0.3
  array_center: [2.0, 2.5, 2.0]
  array_mics: [[0.01, {half_pi}, 0.0]]
  rir_seconds: 0.05
  max_reflection_order: 0
design:
  direct_doa: [{half_pi}, 0.0]
  reverb_grid_size: 24
  hrtf_grid_size: 64
  hrtf_sh_order: 5
  reference_order: 2
""".format(half_pi=repr(math.pi / 2))
# the same scene on two mics: one DOA leaves the direct bank's V V^H rank one
TWO_MIC_YAML = MINI_YAML.replace("array_mics: [[",
                                 "array_mics: [[0.01, 1.0, 1.0], [")
# the same scene with walls: a handful of reverberant images
ECHO_YAML = (MINI_YAML.replace("[0.0, 0.0, 0.0, 0.0, 0.0, 0.0]",
                               "[0.5, 0.5, 0.5, 0.5, 0.5, 0.5]")
             .replace("max_reflection_order: 0", "max_reflection_order: 2"))


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("mini")
    config_path = root / "mini.yaml"
    config_path.write_text(MINI_YAML)
    out = root / "run"
    rc = main(["pipeline", "--out", str(out), "--config", str(config_path)])
    assert rc == 0
    cfg = cfgmod.resolve("desk", config_path)
    return cfg, config_path, out


def _src_env():
    """The environment of a fresh interpreter that imports this checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def test_cli_import_leaves_out_scipy_signal_and_stats(tmp_path):
    # every stage is its own process: scipy.signal (and scipy.stats, which
    # it imports) would cost each call most of a second before any work,
    # and the package now loads no scipy module at all; numpy.polynomial
    # (about 4 ms) is left to the point model's projection, which looks
    # up leggauss when it runs
    probe = ("import json, sys\n"
             "import bsmrender.cli\n"
             "loaded = {'import': sorted(sys.modules)}\n"
             "bsmrender.cli.main(['design', '--out', sys.argv[1], '--dry-run'])\n"
             "loaded['dry-run'] = sorted(sys.modules)\n"
             "print(json.dumps(loaded))\n")
    run = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "out")],
                         env=_src_env(), capture_output=True, text=True,
                         check=True)
    loaded = json.loads(run.stdout.splitlines()[-1])
    assert "bsmrender.cli" in loaded["import"]
    for step, modules in loaded.items():
        for banned in ("scipy.signal", "scipy.stats", "numpy.polynomial"):
            assert banned not in modules, (step, banned)
        assert not [m for m in modules if m.partition(".")[0] == "scipy"], \
            step


def test_each_stage_loads_only_the_scipy_it_uses(tmp_path):
    # every stage is its own process, and the package needs numpy and
    # PyYAML alone, so the scipy each stage uses is none: a dry run and
    # each stage load no scipy module (importing scipy.sparse cost each
    # simulate call about 0.3 s), and no module of the package imports scipy
    config_path = tmp_path / "mini.yaml"
    config_path.write_text(MINI_YAML)
    probe = """\
import json, sys
import bsmrender.cli
rc = bsmrender.cli.main(sys.argv[1:])
scipy = [m for m in sys.modules if m.partition(".")[0] == "scipy"]
print(json.dumps([rc, sorted(scipy)]))
"""
    steps = (["pipeline", "--dry-run"], ["simulate"], ["design"], ["render"],
             ["evaluate"])
    for step in steps:
        run = subprocess.run(
            [sys.executable, "-c", probe, *step,
             "--out", str(tmp_path / "o"), "--config", str(config_path)],
            env=_src_env(), capture_output=True, text=True, check=True)
        rc, loaded = json.loads(run.stdout.splitlines()[-1])
        assert rc == 0, (step, run.stderr)
        assert loaded == [], (step, loaded)
    imported = set()
    for path in Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
    assert not {n for n in imported if n.partition(".")[0] == "scipy"}, \
        imported


def test_dry_run_prints_config_without_side_effects(tmp_path, capsys):
    out = tmp_path / "never"
    rc = main(["simulate", "--out", str(out), "--dry-run"])
    assert rc == 0
    assert not out.exists()
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "simulate"
    assert payload["digest"] == cfgmod.run_digest(cfgmod.resolve("desk"))
    assert payload["config"]["scene"]["room_dimensions"] == [4.0, 3.0, 2.5]


def test_config_errors_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("scene:\n  no_such_knob: 3\n")
    rc = main(["simulate", "--out", str(tmp_path / "o"), "--config", str(bad)])
    assert rc == EXIT_CODES["config"]
    assert "error [config]" in capsys.readouterr().err
    rc = main(["design", "--out", str(tmp_path / "o"),
               "--config", str(tmp_path / "missing.yaml")])
    assert rc == EXIT_CODES["config"]


@pytest.mark.parametrize("text, problem", [
    ("scene: [unclosed\n",
     "expected ',' or ']', but got '<stream end>' at line 2, column 1"),
    ("scene:\n\trir_seconds: 0.1\n",
     "found character '\\t' that cannot start any token at line 2, "
     "column 1"),
], ids=["unclosed", "tab"])
def test_malformed_yaml_fails_config(tmp_path, text, problem):
    # yaml's parser and scanner errors once escaped main as a traceback;
    # the CLI runs as users start it, so stderr is what they would see
    config_path = tmp_path / "bad.yaml"
    config_path.write_text(text)
    run = subprocess.run(
        [sys.executable, "-m", "bsmrender.cli", "simulate", "--dry-run",
         "--out", str(tmp_path / "o"), "--config", str(config_path)],
        env=_src_env(), capture_output=True, text=True, timeout=60)
    assert run.returncode == EXIT_CODES["config"]
    assert "Traceback" not in run.stderr
    assert run.stderr == f"error [config]: {config_path}: {problem}\n"


def test_out_naming_a_file_fails_config(tmp_path):
    # the output directory's mkdir once ran outside every handler, so a
    # file in its place escaped main as a FileExistsError traceback
    out = tmp_path / "taken"
    out.write_text("")
    run = subprocess.run(
        [sys.executable, "-m", "bsmrender.cli", "simulate", "--out", str(out)],
        env=_src_env(), capture_output=True, text=True, timeout=60)
    assert run.returncode == EXIT_CODES["config"]
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("error [config]: ")
    assert str(out) in run.stderr


@pytest.mark.parametrize("stage, manifest", [
    ("render", "{}"),
    ("simulate", "[1]"),
    ("render", '{"artifacts": {"mics_full.wav": {"scene_digest": "0"}}}'),
    ("render", "{"),
], ids=["no-artifacts", "list", "no-sha256", "not-json"])
def test_malformed_manifest_fails_its_stage(tmp_path, stage, manifest):
    # valid JSON of another shape once escaped main as a KeyError or
    # TypeError traceback; every stage reads the manifest first, to drop
    # its own and later stages' outputs from it
    config_path = tmp_path / "mini.yaml"
    config_path.write_text(MINI_YAML)
    out = tmp_path / "o"
    out.mkdir()
    (out / "manifest.json").write_text(manifest)
    run = subprocess.run(
        [sys.executable, "-m", "bsmrender.cli", stage, "--out", str(out),
         "--config", str(config_path)],
        env=_src_env(), capture_output=True, text=True, timeout=120)
    assert run.returncode == EXIT_CODES[stage]
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith(
        f"error [{stage}]: {out / 'manifest.json'}: "), run.stderr


@pytest.mark.parametrize("argv", [["pipeline", "--dry-run"], ["pipeline"],
                                  ["design"]])
def test_bad_stft_parameters_fail_config(tmp_path, capsys, argv):
    # the overlap-add rules are checked when the config resolves, before
    # any stage runs
    config_path = tmp_path / "stft.yaml"
    config_path.write_text("stft: {window_ms: 2, hop_ms: 16}\n")
    rc = main(argv + ["--out", str(tmp_path / "o"),
                      "--config", str(config_path)])
    assert rc == EXIT_CODES["config"]
    assert capsys.readouterr().err == (
        "error [config]: stft.window_ms 2 with stft.hop_ms 16: hop must "
        "divide window_length (overlap-add)\n")
    assert not (tmp_path / "o").exists()


def test_empty_explicit_band_fails_config(tmp_path, capsys):
    # desk's bins lie 23.4 Hz apart: none falls in [100, 110)
    config_path = tmp_path / "bands.yaml"
    config_path.write_text("evaluation: {bands: [[100.0, 110.0]]}\n")
    rc = main(["pipeline", "--dry-run", "--out", str(tmp_path / "o"),
               "--config", str(config_path)])
    assert rc == EXIT_CODES["config"]
    assert capsys.readouterr().err == (
        "error [config]: evaluation.bands: band (100.0, 110.0) contains no "
        "bins\n")


# a direct DOA off the sphere, a microphone at a negative radius, a source
# outside the room, and an array center outside it with its three mics
# inside: each once passed --dry-run, then failed in design or simulate,
# or, the last two, wrote both banks
BAD_ROWS = {
    "direct_doa": ("design: {direct_doa: [4.0, 0.5]}\n",
                   "design.direct_doa: colatitude 4.0 outside [0, pi]"),
    "array_mics": ("scene: {array_mics: [[-0.05, 1.5, 0.0]]}\n",
                   "scene.array_mics: microphone radius must be positive "
                   "and finite"),
    "source_position": ("scene: {source_position: [9, 1, 1]}\n",
                        "scene.source_position [9, 1, 1] is not strictly "
                        "inside the 4 x 3 x 2.5 m room"),
    "array_center": ("scene: {array_center: [1.1, -0.1, 1.2], array_mics: "
                     f"{[[0.2, math.pi / 2, math.pi / 2]] * 3}}}\n",
                     "scene.array_center [1.1, -0.1, 1.2] is not strictly "
                     "inside the 4 x 3 x 2.5 m room"),
}


@pytest.mark.parametrize("argv", [["simulate", "--dry-run"],
                                  ["design", "--dry-run"], ["simulate"],
                                  ["design"], ["pipeline"]])
@pytest.mark.parametrize("key", sorted(BAD_ROWS))
def test_bad_direction_rows_fail_config(tmp_path, capsys, argv, key):
    text, message = BAD_ROWS[key]
    config_path = tmp_path / "rows.yaml"
    config_path.write_text(text)
    rc = main(argv + ["--out", str(tmp_path / "o"),
                      "--config", str(config_path)])
    assert rc == EXIT_CODES["config"]
    assert capsys.readouterr().err == f"error [config]: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["pipeline", "--dry-run"], ["pipeline"]])
def test_frame_trim_leaving_no_frame_fails_config(tmp_path, capsys, argv):
    # 0.02 s of source through a 0.02 s RIR is 1919 samples, two 32 ms
    # frames: a trim of 3 from each end leaves none, and no stage runs
    config_path = tmp_path / "trim.yaml"
    config_path.write_text("scene: {source_duration_s: 0.02, "
                           "rir_seconds: 0.02}\nevaluation: {frame_trim: 3}\n")
    rc = main(argv + ["--out", str(tmp_path / "o"),
                      "--config", str(config_path)])
    assert rc == EXIT_CODES["config"]
    assert capsys.readouterr().err == (
        "error [config]: evaluation.frame_trim 3 leaves no frame: the run has "
        "2 STFT frames and the trim drops 3 from each end\n")
    assert not (tmp_path / "o").exists()


def test_frame_trim_counts_a_wav_source_from_its_file(tmp_path, capsys):
    source = tmp_path / "source.wav"
    write_wav(source, np.full(960, 0.1), 48000)  # a silent one is refused
    scene = (f"scene: {{source_wav: {str(source)!r}, "
             "rir_seconds: 0.02}\n")
    config_path = tmp_path / "wav.yaml"
    config_path.write_text(scene + "evaluation: {frame_trim: 1}\n")
    argv = ["pipeline", "--dry-run", "--out", str(tmp_path / "o"),
            "--config", str(config_path)]
    assert main(argv) == EXIT_CODES["config"]
    assert capsys.readouterr().err == (
        "error [config]: evaluation.frame_trim 1 leaves no frame: the run has "
        "2 STFT frames and the trim drops 1 from each end\n")
    # untrimmed, the same two frames are evaluated
    config_path.write_text(scene + "evaluation: {frame_trim: 0}\n")
    assert main(argv) == 0


@pytest.mark.parametrize("argv", [["simulate", "--dry-run"], ["simulate"]])
def test_wav_source_at_another_rate_fails_config(tmp_path, capsys, argv):
    # the rate is read with the file's frame count at config time, so a
    # dry run refuses the file that simulate would refuse
    source = tmp_path / "source.wav"
    write_wav(source, np.zeros(1600), 16000)
    config_path = tmp_path / "wav.yaml"
    config_path.write_text(f"scene: {{source_wav: {str(source)!r}}}\n")
    rc = main(argv + ["--out", str(tmp_path / "o"),
                      "--config", str(config_path)])
    assert rc == EXIT_CODES["config"]
    assert capsys.readouterr().err == (
        "error [config]: source wav sample rate 16000 != 48000\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("duration, shown, samples",
                         [("1.0e-5", "1e-05", 0), ("3.0e-5", "3e-05", 1)])
@pytest.mark.parametrize("stage", ["simulate", "evaluate"])
def test_source_too_short_to_shape_fails_config(tmp_path, capsys, stage,
                                                duration, shown, samples):
    # a synthetic source of 0 samples ended simulate in a ZeroDivisionError
    # traceback and one of 1 sample, all DC, in a "non-finite sample"
    # report, while the later stages accepted the config: every stage
    # refuses it by its key, and no stage runs
    config_path = tmp_path / "short.yaml"
    config_path.write_text(f"scene: {{source_duration_s: {duration}}}\n")
    rc = main([stage, "--out", str(tmp_path / "o"),
               "--config", str(config_path)])
    assert rc == EXIT_CODES["config"]
    assert capsys.readouterr().err == (
        "error [config]: scene.source_duration_s: the synthetic source needs "
        f"at least 2 samples, and {shown} s at 48000 Hz gives {samples}\n")
    assert not (tmp_path / "o").exists()


def test_short_window_evaluates_the_octaves_holding_bins(tmp_path):
    # a 2 ms window has 375 Hz bins: the 125 and 250 Hz octaves hold none
    # and are left out instead of failing evaluate after every other stage
    config_path = tmp_path / "short.yaml"
    config_path.write_text(MINI_YAML + "stft: {window_ms: 2, hop_ms: 1}\n")
    assert main(["pipeline", "--out", str(tmp_path / "o"),
                 "--config", str(config_path)]) == 0
    verdict = json.loads((tmp_path / "o" / "verdict.json").read_text())
    octaves = [[lo, hi] for lo, hi in octave_bands(upper_hz=24000.0)]
    assert verdict["bands_hz"] == octaves[2:]
    assert len(verdict["band_improvement_db"]["left"]) == len(octaves) - 2


def test_pipeline_writes_every_artifact(mini_run):
    # each result is stored once: no listenable WAV, which is the istft of
    # a stored spectrogram, and no comparison.csv, which is the difference
    # of two reports' nmse_db columns
    cfg, _, out = mini_run
    names = {*SIM_ARTIFACTS, *BANK_ARTIFACTS, *SPECTRO_ARTIFACTS,
             *REPORT_ARTIFACTS, "scene_stats.json"}
    assert len(names) == 15
    assert sorted(p.name for p in out.iterdir()) == sorted(
        names | {"manifest.json"})
    assert sorted(p.name for p in out.glob("*.wav")) == [
        "mics_direct.wav", "mics_full.wav"]
    # the manifest lists exactly them, under the run digest
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["artifacts"]) == names
    verify_artifacts(out, sorted(names), cfgmod.run_digest(cfg), "test")


def test_anechoic_full_equals_direct(mini_run):
    _, _, out = mini_run
    full, _, _ = read_wav(out / "mics_full.wav")
    direct, _, _ = read_wav(out / "mics_direct.wav")
    np.testing.assert_array_equal(full, direct)


def test_scene_stats_and_verdict(mini_run):
    cfg, _, out = mini_run
    stats = json.loads((out / "scene_stats.json").read_text())
    assert stats["image_count"] == 1
    assert stats["t60_s"] is None and stats["drr_db"] is None
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["scene_digest"] == cfgmod.run_digest(cfg)
    assert verdict["near_ear"] == "left"
    # the direct DOA points along the array center's x axis at the source
    assert verdict["direct_doa_offset_deg"] < 1e-12
    # no reverberant field -> that report is fully flagged
    assert verdict["broadband_nmse_db"]["reverb"]["left"] is None
    assert verdict["broadband_nmse_db"]["direct"]["left"] is not None
    for report in ("nmse_direct.csv", "nmse_standard.csv"):
        header = (out / report).read_text().split("\n", 1)[0]
        assert header == "ear,freq_hz,nmse_linear,nmse_db,flag"


def test_reference_valid_band_on_the_profiles():
    # kr <= N at the ear offset a = 0.0875 m with N = min(14, 30): both
    # profiles' reference holds the point model's ears up to 8.73 kHz
    for profile in ("desk", "paper"):
        valid = cli.reference_valid_hz(cfgmod.resolve(profile))
        assert valid == pytest.approx(8734.42, abs=0.01)


@pytest.mark.parametrize("hrtf", ["point", "flat", "file"])
def test_verdict_states_the_reference_valid_band(tmp_path, hrtf):
    # the point model's order-2 reference (min(reference_order 2,
    # hrtf_sh_order 5)) holds its ears up to 2 c / (2 pi a); the flat
    # model's order-0 reference holds them at every bin up to Nyquist, so
    # no band lies above it; a file's set gets no stated band
    text = MINI_YAML
    if hrtf == "flat":
        text += "  hrtf_ear_offset: 0.0\n"
    elif hrtf == "file":
        ir = np.zeros((64, 16))
        ir[:, 0] = 1.0
        save_hrtf(tmp_path / "ears.bsmh", spiral_grid(64), ir, ir, 48000)
        text += f"  hrtf_file: {str(tmp_path / 'ears.bsmh')!r}\n"
    config_path = tmp_path / "mini.yaml"
    config_path.write_text(text)
    out = tmp_path / "run"
    assert main(["pipeline", "--out", str(out), "--config",
                 str(config_path)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    valid = verdict["reference_valid_hz"]
    above = verdict["bands_above_reference_valid_hz"]
    if hrtf == "file":
        assert valid is None and above is None
        return
    want = {"point": 2 * 343.0 / (2 * math.pi * 0.0875), "flat": 24000.0}
    assert valid == pytest.approx(want[hrtf], rel=1e-12)
    assert above == [band for band in verdict["bands_hz"] if band[1] > valid]
    assert len(above) == (6 if hrtf == "point" else 0)


def test_anechoic_decomposed_matches_standard(mini_run):
    # with x_r = 0 the decomposed path reduces to the direct bank only,
    # and both pipelines see the same field
    _, _, out = mini_run
    verdict = json.loads((out / "verdict.json").read_text())
    direct = verdict["broadband_nmse_db"]["direct"]
    decomposed = verdict["broadband_nmse_db"]["decomposed"]
    for ear in ("left", "right"):
        np.testing.assert_allclose(decomposed[ear], direct[ear], atol=1e-6)


def test_corrupt_bank_fails_render_stage(mini_run, tmp_path, capsys):
    cfg, config_path, out = mini_run
    import shutil

    work = tmp_path / "copy"
    shutil.copytree(out, work)
    path = work / "bank_direct.bsmf"
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    rc = main(["render", "--out", str(work), "--config", str(config_path)])
    assert rc == EXIT_CODES["render"]
    assert "error [render]" in capsys.readouterr().err


@pytest.mark.parametrize("written, bad_filter, snr, problem", [
    ("bank_direct.bsmf", False, 100.0,
     "stores the tag 'direct', not 'reverberant'"),
    ("bank_reverb.bsmf", True, 100.0, "non-finite filter coefficients"),
    ("bank_reverb.bsmf", False, 0, "snr must be positive (may be inf)"),
    ("bank_reverb.bsmf", False, -1, "snr must be positive (may be inf)"),
], ids=["tag", "nan", "snr-0", "snr-negative"])
def test_invalid_bank_fails_render_stage(mini_run, tmp_path, capsys, written,
                                         bad_filter, snr, problem):
    # a bank the manifest vouches for, written under another name and so
    # of another tag, with a NaN filter or with a stored solver config
    # SolverConfig refuses, is refused by load_filterbank by the file's
    # name
    cfg, config_path, out = mini_run
    import shutil

    work = tmp_path / "bank"
    shutil.copytree(out, work)
    path, digest = work / "bank_reverb.bsmf", cfgmod.run_digest(cfg)
    filters = bank_parts(path)["filters"].copy()
    if bad_filter:
        filters[1, 7, 0] = np.nan
    save_filterbank(tmp_path / written, filters,
                    SimpleNamespace(snr=snr, magls_cutoff_hz=1500.0),
                    StftConfig.default(), digest)
    shutil.copyfile(tmp_path / written, path)
    update_manifest(work, [path.name], digest)
    rc = main(["render", "--out", str(work), "--config", str(config_path)])
    assert rc == EXIT_CODES["render"]
    assert capsys.readouterr().err == (
        f"error [render]: {path}: invalid filter bank: {problem}\n")


def test_swapped_banks_fail_render_stage(mini_run, tmp_path, capsys):
    # a bank's role is its name: bank_direct.bsmf and bank_reverb.bsmf
    # swapped and vouched for by the manifest were once rendered and
    # scored without a word, with the verdict's sign flipped; render
    # refuses the first one it reads by its name. The refused render
    # leaves the estimates of the earlier render unvouched, so evaluate,
    # which once scored them with exit 0, refuses them too
    cfg, config_path, out = mini_run
    import shutil

    work = tmp_path / "swapped"
    shutil.copytree(out, work)
    direct, reverb = work / "bank_direct.bsmf", work / "bank_reverb.bsmf"
    direct.replace(work / "swap")
    reverb.replace(direct)
    (work / "swap").replace(reverb)
    update_manifest(work, BANK_ARTIFACTS, cfgmod.run_digest(cfg))
    rc = main(["render", "--out", str(work), "--config", str(config_path)])
    assert rc == EXIT_CODES["render"]
    assert capsys.readouterr().err == (
        f"error [render]: {direct}: invalid filter bank: stores the tag "
        "'reverberant', not 'direct'\n")
    assert all((work / name).exists() for name in cli.ESTIMATE_ARTIFACTS)
    rc = main(["evaluate", "--out", str(work), "--config", str(config_path)])
    assert rc == EXIT_CODES["evaluate"]
    assert capsys.readouterr().err == (
        "error [evaluate]: evaluate: component_direct.bsmg missing from "
        "manifest\n")


def test_rerun_design_unvouches_later_stages(mini_run, tmp_path, capsys):
    # a dry run leaves the manifest as it is; a design run drops render's
    # and evaluate's outputs from it before it starts, and what it records
    # is what simulate and design alone would have left
    cfg, config_path, out = mini_run
    import shutil

    work = tmp_path / "rerun"
    shutil.copytree(out, work)
    manifest = work / "manifest.json"
    before = manifest.read_bytes()
    argv = ["design", "--out", str(work), "--config", str(config_path)]
    assert main(argv + ["--dry-run"]) == 0
    assert manifest.read_bytes() == before
    assert main(argv) == 0
    kept = cli.STAGE_OUTPUTS["simulate"] + cli.STAGE_OUTPUTS["design"]
    assert json.loads(manifest.read_text()) == {"artifacts": {
        name: entry for name, entry in json.loads(before)["artifacts"].items()
        if name in kept}}
    capsys.readouterr()
    rc = main(["evaluate", "--out", str(work), "--config", str(config_path)])
    assert rc == EXIT_CODES["evaluate"]
    assert capsys.readouterr().err == (
        "error [evaluate]: evaluate: component_direct.bsmg missing from "
        "manifest\n")


def test_spectrogram_under_another_name_fails_evaluate_stage(mini_run,
                                                             tmp_path,
                                                             capsys):
    # a BSMG file stores its name as its tag: bsm_standard.bsmg holding
    # the tag "reference", vouched for by the manifest, was once scored
    # without a word; it is refused by its name
    cfg, config_path, out = mini_run
    import shutil

    work = tmp_path / "renamed"
    shutil.copytree(out, work)
    path = work / "bsm_standard.bsmg"
    spec, stft_cfg, digest = read_binaural_spectrogram(path)
    write_binaural_spectrogram(tmp_path / "reference.bsmg", spec, stft_cfg,
                               digest)
    shutil.copyfile(tmp_path / "reference.bsmg", path)
    update_manifest(work, [path.name], digest)
    rc = main(["evaluate", "--out", str(work), "--config", str(config_path)])
    assert rc == EXIT_CODES["evaluate"]
    assert capsys.readouterr().err == (
        f"error [evaluate]: {path}: stores the tag 'reference', not "
        "'bsm-standard'\n")


def test_perfect_estimate_fails_evaluate_stage(tmp_path, capsys):
    # desk's reference stored as the standard estimate scores NMSE 0 in
    # every bin, and its bins below 170 Hz alone in the lowest octave
    # band; neither has a dB figure: the stage names the report, the band
    # and the ear and writes no report, verdict or manifest entry
    out = tmp_path / "perfect"
    assert main(["simulate", "--out", str(out)]) == 0
    digest = cfgmod.run_digest(cfgmod.resolve("desk"))
    ref, stft_cfg, _ = read_binaural_spectrogram(out / "reference.bsmg")
    ref_d = read_binaural_spectrogram(out / "reference_direct.bsmg")[0]
    low = stft_cfg.bin_frequencies() < 170.0
    for standard, band in ((ref, "broadband"),
                           (np.where(low, ref, 0.5 * ref),
                            "88.3883-176.777 Hz band")):
        # halves of the two components: every other report has an error
        for name, spec in (("component_direct.bsmg", 0.5 * ref_d),
                           ("component_reverb.bsmg", 0.5 * (ref - ref_d)),
                           ("bsm_standard.bsmg", standard)):
            write_binaural_spectrogram(out / name, spec, stft_cfg, digest)
        update_manifest(out, cli.ESTIMATE_ARTIFACTS, digest)
        manifest = (out / "manifest.json").read_bytes()
        capsys.readouterr()
        assert main(["evaluate", "--out", str(out)]) == EXIT_CODES["evaluate"]
        assert capsys.readouterr().err == (
            f"error [evaluate]: the standard report's {band} NMSE is 0 in the "
            "left ear: an estimate equal to its reference there has no dB "
            "figure\n")
        assert not any((out / name).exists() for name in REPORT_ARTIFACTS)
        assert (out / "manifest.json").read_bytes() == manifest


def test_non_finite_spectrogram_fails_evaluate_stage(mini_run, tmp_path,
                                                    capsys):
    # a NaN in a spectrogram the manifest vouches for would read as a bin
    # without energy; it is refused by the file's name
    _, config_path, out = mini_run
    import shutil

    work = tmp_path / "nan"
    shutil.copytree(out, work)
    path = work / "bsm_standard.bsmg"
    spec, stft_cfg, digest = read_binaural_spectrogram(path)
    spec[1, 3, 5] = np.nan
    write_binaural_spectrogram(path, spec, stft_cfg, digest)
    update_manifest(work, [path.name], digest)
    verdict = (work / "verdict.json").read_bytes()
    rc = main(["evaluate", "--out", str(work), "--config", str(config_path)])
    assert rc == EXIT_CODES["evaluate"]
    assert capsys.readouterr().err == (
        f"error [evaluate]: {path}: non-finite spectra\n")
    assert (work / "verdict.json").read_bytes() == verdict


@pytest.mark.parametrize("reshape", [lambda d, r: (d[:-1], r),
                                     lambda d, r: (np.hstack([d, d]), r),
                                     lambda d, r: (d, r // 2)])
def test_mismatched_direct_wav_fails_render_stage(mini_run, tmp_path, capsys,
                                                  reshape):
    # a well-formed mics_direct.wav of the run's digest, but with a sample
    # fewer or a channel more than mics_full.wav, is refused instead of
    # padded with zeros one block at a time, and one at another sample
    # rate is refused by name instead of filtered at the run's rate
    _, config_path, out = mini_run
    import shutil

    work = tmp_path / "short"
    shutil.copytree(out, work)
    path = work / "mics_direct.wav"
    data, rate, digest = read_wav(path)
    data, new_rate = reshape(data, rate)
    write_wav(path, data, new_rate, digest)
    update_manifest(work, ["mics_direct.wav"], digest)
    rc = main(["render", "--out", str(work), "--config", str(config_path)])
    assert rc == EXIT_CODES["render"]
    err = capsys.readouterr().err
    if new_rate == rate:
        assert "error [render]: mic signal shapes differ" in err
    else:
        assert err == (f"error [render]: {path}: sample rate is {new_rate}, "
                       f"not the run's {rate}\n")


def test_evaluate_refuses_foreign_artifacts(mini_run, tmp_path, capsys):
    _, _, out = mini_run
    import shutil

    work = tmp_path / "foreign"
    shutil.copytree(out, work)
    # same artifacts, different config -> different digest
    rc = main(["evaluate", "--out", str(work), "--seed", "123"])
    assert rc == EXIT_CODES["evaluate"]
    assert "error [evaluate]" in capsys.readouterr().err


def test_version_1_spectrogram_fails_evaluate_stage(mini_run, tmp_path,
                                                   capsys):
    # a double-precision reference left by an older run, even one the
    # manifest vouches for, is refused by name instead of misread
    _, config_path, out = mini_run
    import shutil

    work = tmp_path / "stale"
    shutil.copytree(out, work)
    path = work / "reference.bsmg"
    spec, stft_cfg, digest = read_binaural_spectrogram(path)
    write_binaural_spectrogram_v1(path, spec, stft_cfg, digest)
    update_manifest(work, ["reference.bsmg"], digest)
    rc = main(["evaluate", "--out", str(work), "--config", str(config_path)])
    assert rc == EXIT_CODES["evaluate"]
    assert capsys.readouterr().err == (
        f"error [evaluate]: {path}: unsupported BSMG version 1\n")


def test_other_stft_parameters_fail_evaluate_stage(mini_run, tmp_path,
                                                  capsys):
    # a spectrogram of the run's digest, vouched for by the manifest, but
    # framed with half the configured hop is refused by name instead of
    # compared bin by bin with frames of another length
    _, config_path, out = mini_run
    import shutil

    work = tmp_path / "hop"
    shutil.copytree(out, work)
    path = work / "reference_direct.bsmg"
    spec, c, digest = read_binaural_spectrogram(path)
    other = StftConfig(c.sample_rate, c.window_length, c.hop // 2)
    write_binaural_spectrogram(path, spec, other, digest)
    update_manifest(work, ["reference_direct.bsmg"], digest)
    rc = main(["evaluate", "--out", str(work), "--config", str(config_path)])
    assert rc == EXIT_CODES["evaluate"]
    assert capsys.readouterr().err == (
        f"error [evaluate]: {path}: STFT is {other}, not the run's {c}\n")


# the mini run's window, hop, FFT size and bins at another sample rate
OTHER_RATE = StftConfig(44100, 1536, 768)


def _wav_at_other_rate(path, digest):
    write_wav(path, read_wav(path)[0], OTHER_RATE.sample_rate, digest)
    return "sample rate is 44100, not the run's 48000"


def _resave_bank(path, stft_cfg, digest):
    """Write the bank at `path` again for `stft_cfg` under `digest`, its
    filters and solver config kept."""
    parts = bank_parts(path)
    solver = json.loads(parts["solver config"])
    if solver["snr"] is None:
        solver["snr"] = np.inf
    save_filterbank(path, parts["filters"], solvers.SolverConfig(**solver),
                    stft_cfg, digest)


def _bank_at_other_rate(path, digest):
    _resave_bank(path, OTHER_RATE, digest)
    return ("(sample rate, FFT size, bins) is (44100, 2048, 1025), not the "
            "run's (48000, 2048, 1025)")


def _spectrogram_at_other_rate(path, digest):
    spec = read_binaural_spectrogram(path)[0]
    write_binaural_spectrogram(path, spec, OTHER_RATE, digest)
    return f"STFT is {OTHER_RATE}, not the run's {StftConfig.default()}"


def _hrtf_at_other_rate(path, digest):
    ir = np.zeros((64, 16))
    ir[:, 0] = 1.0
    save_hrtf(path, spiral_grid(64), ir, ir, OTHER_RATE.sample_rate)
    return "sample rate is 44100, not the run's 48000"


@pytest.mark.parametrize("stage, name, rewrite, refused_by", [
    ("render", "mics_full.wav", _wav_at_other_rate, "render"),
    ("evaluate", "reference.bsmg", _spectrogram_at_other_rate, "evaluate"),
    ("render", "bank_reverb.bsmf", _bank_at_other_rate, "render"),
    ("design", "ears.bsmh", _hrtf_at_other_rate, "config"),
], ids=["wav", "bsmg", "bsmf", "bsmh"])
def test_file_of_another_sampling_fails_its_stage(mini_run, tmp_path, capsys,
                                                  stage, name, rewrite,
                                                  refused_by):
    # every file is read against the run's StftConfig: one recorded at
    # 44.1 kHz, vouched for by the manifest under the run's digest, is
    # refused by name with its stage's exit code instead of being read as
    # 48 kHz data; a BSMH named by the config is refused, in the same
    # words, when the config resolves, before any stage
    cfg, config_path, out = mini_run
    import shutil

    work = tmp_path / "other"
    shutil.copytree(out, work)
    path, digest = work / name, cfgmod.run_digest(cfg)
    problem = rewrite(path, digest)
    if name.endswith(".bsmh"):
        config_path = tmp_path / "file.yaml"
        config_path.write_text(MINI_YAML + f"  hrtf_file: {str(path)!r}\n")
    else:
        update_manifest(work, [name], digest)
    rc = main([stage, "--out", str(work), "--config", str(config_path)])
    assert rc == EXIT_CODES[refused_by]
    assert capsys.readouterr().err == (f"error [{refused_by}]: {path}: "
                                       f"{problem}\n")


def _rewrite_wav(path, digest):
    data, rate, _ = read_wav(path)
    write_wav(path, data, rate, digest)


def _rewrite_bank(path, digest):
    _resave_bank(path, StftConfig.default(), digest)  # the mini run's STFT


def _rewrite_spectrogram(path, digest):
    write_binaural_spectrogram(path, *read_binaural_spectrogram(path)[:2],
                               digest)


@pytest.mark.parametrize("stage, name, rewrite", [
    ("render", "mics_direct.wav", _rewrite_wav),
    ("render", "bank_reverb.bsmf", _rewrite_bank),
    ("evaluate", "reference_direct.bsmg", _rewrite_spectrogram),
], ids=["wav", "bank", "spectrogram"])
def test_embedded_digest_fails_its_stage(mini_run, tmp_path, capsys, stage,
                                         name, rewrite):
    # the manifest vouches for the file under the run's digest, but the
    # file itself embeds another one: the stage's read refuses it by name
    cfg, config_path, out = mini_run
    import shutil

    work = tmp_path / "embedded"
    shutil.copytree(out, work)
    rewrite(work / name, "f" * 16)
    update_manifest(work, [name], cfgmod.run_digest(cfg))
    rc = main([stage, "--out", str(work), "--config", str(config_path)])
    assert rc == EXIT_CODES[stage]
    err = capsys.readouterr().err
    assert err.startswith(f"error [{stage}]: {work / name}: embedded digest "
                          f"{'f' * 16} "), err


@pytest.mark.parametrize("argv", [["pipeline"], ["pipeline", "--dry-run"]],
                         ids=["pipeline", "dry-run"])
def test_run_digest_is_computed_once_per_process(tmp_path, monkeypatch,
                                                 argv):
    config_path = tmp_path / "mini.yaml"
    config_path.write_text(MINI_YAML)
    # main computes the digest once and hands it to every stage it runs
    calls, digest = [], cfgmod.run_digest

    def counted(cfg):
        calls.append(cfg)
        return digest(cfg)

    monkeypatch.setattr(cfgmod, "run_digest", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv + ["--out", str(tmp_path / "o"),
                          "--config", str(config_path)])
    assert rc == 0
    assert len(calls) == 1


def test_truncated_source_wav_fails_config(tmp_path, capsys):
    # resolve reads the source to count its frames: a file that does not
    # parse is refused there, naming it, as --dry-run and as every stage,
    # with no directory made, where it once passed --dry-run and ended
    # simulate with exit 2
    source = tmp_path / "source.wav"
    write_wav(source, np.zeros(480), 48000)
    source.write_bytes(source.read_bytes()[:30])  # cut inside the fmt chunk
    config_path = tmp_path / "wav.yaml"
    config_path.write_text(f"scene:\n  source_wav: {str(source)!r}\n")
    for argv in (["simulate", "--dry-run"], ["simulate"], ["design"]):
        rc = main(argv + ["--out", str(tmp_path / "o"),
                          "--config", str(config_path)])
        assert (rc, capsys.readouterr().err) == (EXIT_CODES["config"], (
            f"error [config]: {source}: truncated RIFF chunk\n"))
    assert not (tmp_path / "o").exists()


def test_truncated_hrtf_file_fails_design_stage(tmp_path, capsys):
    hrtf = tmp_path / "ears.bsmh"
    ir = np.zeros((4, 16))
    save_hrtf(hrtf, spiral_grid(4), ir, ir, 48000)
    hrtf.write_bytes(hrtf.read_bytes()[:50])  # cut inside the direction table
    config_path = tmp_path / "hrtf.yaml"
    # order 1 fits the header's 4 directions, so resolve passes the file
    config_path.write_text(f"design:\n  hrtf_file: {str(hrtf)!r}\n"
                           "  hrtf_sh_order: 1\n")
    rc = main(["design", "--out", str(tmp_path / "o"),
               "--config", str(config_path)])
    assert rc == EXIT_CODES["design"]
    err = capsys.readouterr().err
    assert "error [design]" in err and "truncated" in err


def test_two_direction_hrtf_grid_designs(tmp_path, capsys):
    # a fit on two directions once read them as one (theta, phi) pair and
    # ended in a TypeError traceback
    config_path = tmp_path / "two.yaml"
    config_path.write_text("design:\n  hrtf_grid_size: 2\n"
                           "  hrtf_sh_order: 0\n")
    rc = main(["design", "--out", str(tmp_path / "o"),
               "--config", str(config_path)])
    err = capsys.readouterr().err
    assert rc == 0 or (rc == EXIT_CODES["design"] and "error [design]" in err)


def test_design_reports_capped_magls_bins(tmp_path, capsys, monkeypatch):
    # with no iterations allowed every MagLS bin is capped: the 961 bins
    # at or above the 1.5 kHz cutoff, for both ears of the reverberant bank
    config_path = tmp_path / "mini.yaml"
    config_path.write_text(MINI_YAML)
    monkeypatch.setattr(solvers, "MAGLS_MAX_ITER", 0)
    rc = main(["design", "--out", str(tmp_path / "o"),
               "--config", str(config_path)])
    out = capsys.readouterr().out
    assert rc == 0  # a warning, not a stage failure
    assert out.rstrip().endswith(
        "warning: 1922 MagLS bins stopped at the iteration cap")


def _design_banks(tmp_path, text):
    """The direct and reverberant banks of a design run on config `text`,
    each as compare_payloads.bank_parts reads it."""
    out = tmp_path / f"run{len(list(tmp_path.glob('run*.yaml')))}"
    config_path = out.with_suffix(".yaml")
    config_path.write_text(text)
    assert main(["design", "--out", str(out), "--config",
                 str(config_path)]) == 0
    return [bank_parts(out / name) for name in BANK_ARTIFACTS]


def test_null_cutoff_designs_plain_ls(tmp_path, capsys, monkeypatch):
    # MagLS is on exactly when a cutoff is set: with none, no bin iterates,
    # so none stops at a cap of 0, and every bin below a Nyquist cutoff's
    # one MagLS bin is that design's LS filter
    monkeypatch.setattr(solvers, "MAGLS_MAX_ITER", 0)
    ls = _design_banks(tmp_path, MINI_YAML + "  magls_cutoff_hz: null\n")[1]
    assert "warning" not in capsys.readouterr().out
    assert json.loads(ls["solver config"]) \
        == {"magls_cutoff_hz": None, "snr": 100.0}
    top = _design_banks(tmp_path, MINI_YAML + "  magls_cutoff_hz: 24000\n")[1]
    assert capsys.readouterr().out.rstrip().endswith(
        "warning: 2 MagLS bins stopped at the iteration cap")
    assert_bits_equal(ls["filters"][:, :-1], top["filters"][:, :-1])


@pytest.mark.parametrize("db", [200, 3000])
def test_snr_beyond_the_floor_designs_as_null(db, tmp_path):
    # 1/SNR under the Tikhonov floor once stood alone and, from 160 dB,
    # left the direct bank's 0 Hz system v v^H + I/SNR exactly singular
    # (exit 3); the floor applies at every SNR, so these design as null
    null = _design_banks(tmp_path, TWO_MIC_YAML)[0]
    high = _design_banks(tmp_path, TWO_MIC_YAML + f"  direct_snr_db: {db}\n")
    assert_bits_equal(high[0]["filters"], null["filters"])


def test_bank_configs_are_standard_json(mini_run):
    # RFC 8259 has no Infinity or NaN token: the direct bank's infinite SNR
    # and unset cutoff are null, the reverberant bank's are as configured
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    out = mini_run[2]
    assert [json.loads(bank_parts(out / name)["solver config"],
                       parse_constant=refuse) for name in BANK_ARTIFACTS] \
        == [{"magls_cutoff_hz": None, "snr": None},
            {"magls_cutoff_hz": 1500.0, "snr": 100.0}]


def test_rank_deficient_hrtf_file_fails_design_stage(tmp_path, capsys):
    # 16 equator directions pass the direction-count check of order 2, but
    # the harmonics odd in z vanish on them
    hrtf = tmp_path / "equator.bsmh"
    ir = np.zeros((16, 16))
    ir[:, 0] = 1.0
    save_hrtf(hrtf, [(math.pi / 2, 2 * math.pi * k / 16) for k in range(16)],
              ir, ir, 48000)
    config_path = tmp_path / "equator.yaml"
    config_path.write_text(f"design:\n  hrtf_file: {str(hrtf)!r}\n"
                           f"  hrtf_sh_order: 2\n")
    rc = main(["design", "--out", str(tmp_path / "o"),
               "--config", str(config_path)])
    assert rc == EXIT_CODES["design"]
    assert ("error [design]: SH fit of order 2 is rank deficient on this "
            "direction grid: rank 5 of 9 coefficients") \
        in capsys.readouterr().err


def _flat_hrtf_file_config(tmp_path, directions, **design):
    """A config whose HRTF is a flat BSMH file on `directions`, with the
    given design keys."""
    hrtf = tmp_path / "grid.bsmh"
    ir = np.zeros((len(directions), 16))
    ir[:, 0] = 1.0
    save_hrtf(hrtf, directions, ir, ir, 48000)
    config_path = tmp_path / "grid.yaml"
    config_path.write_text(
        f"design:\n  hrtf_file: {str(hrtf)!r}\n"
        + "".join(f"  {key}: {value}\n" for key, value in design.items()))
    return config_path


@pytest.mark.parametrize("reference_order", [1, 2])
def test_rank_deficient_hrtf_file_fails_simulate_stage(tmp_path, capsys,
                                                       reference_order):
    # the reference's fit: its leading rows through the Gram matrix (order
    # 1 of 2) or the whole operator through the SVD (order 2) refuse the
    # equator grid with design's message
    equator = [(math.pi / 2, 2 * math.pi * k / 16) for k in range(16)]
    config_path = _flat_hrtf_file_config(tmp_path, equator, hrtf_sh_order=2,
                                         reference_order=reference_order)
    rc = main(["simulate", "--out", str(tmp_path / "o"),
               "--config", str(config_path)])
    assert rc == EXIT_CODES["simulate"]
    assert ("error [simulate]: SH fit of order 2 is rank deficient on this "
            "direction grid: rank 5 of 9 coefficients") \
        in capsys.readouterr().err


def test_refused_simulate_fit_leaves_no_artifact(tmp_path, capsys):
    # a file HRTF is fitted before the room is built: the equator grid's
    # refusal reaches the caller while the out directory is still empty
    equator = [(math.pi / 2, 2 * math.pi * k / 16) for k in range(16)]
    config_path = _flat_hrtf_file_config(tmp_path, equator, hrtf_sh_order=2,
                                         reference_order=1)
    out = tmp_path / "o"
    rc = main(["simulate", "--out", str(out), "--config", str(config_path)])
    assert rc == EXIT_CODES["simulate"]
    assert "rank 5 of 9 coefficients" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# a small echoic scene with an order-16 HRTF on 400 directions: large
# enough that threaded OpenBLAS splits a fit's products, so a fit in
# simulate would write different reference bytes at 1 and 2 threads
BLAS_YAML = (ECHO_YAML.replace("max_reflection_order: 2",
                               "max_reflection_order: 1")
             .replace("source_duration_s: 0.3", "source_duration_s: 0.1")
             .replace("hrtf_grid_size: 64", "hrtf_grid_size: 400")
             .replace("hrtf_sh_order: 5", "hrtf_sh_order: 16")
             .replace("reference_order: 2", "reference_order: 8"))


def test_simulate_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the point model's channels need no fit, so simulate makes no BLAS
    # call whose rounding follows the thread count: one and two
    # OpenBLAS threads write the same files, the manifest included
    config_path = tmp_path / "blas.yaml"
    config_path.write_text(BLAS_YAML)
    trees = []
    for threads in ("1", "2"):
        env = _src_env()
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        out = tmp_path / f"threads-{threads}"
        run = subprocess.run(
            [sys.executable, "-m", "bsmrender.cli", "simulate", "--out",
             str(out), "--config", str(config_path)],
            env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        trees.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(trees[0]) == sorted(SIM_ARTIFACTS + (
        "scene_stats.json", "manifest.json"))
    for name in trees[0]:
        assert trees[0][name] == trees[1][name], name


def test_failed_room_leaves_no_thread_running(tmp_path, capsys,
                                               monkeypatch):
    # a room failure ends in the stage's error, and no thread simulate
    # started is left running when main returns
    def boom(*args):
        raise ValueError("boom")

    config_path = tmp_path / "mini.yaml"
    config_path.write_text(MINI_YAML)
    monkeypatch.setattr(cli, "scene_statistics", boom)
    before = threading.active_count()
    rc = main(["simulate", "--out", str(tmp_path / "o"),
               "--config", str(config_path)])
    assert rc == EXIT_CODES["simulate"]
    assert "error [simulate]: boom" in capsys.readouterr().err
    assert threading.active_count() == before


def test_unstorable_noise_fails_simulate_stage(tmp_path):
    # noise 3000 dB above the signal passes config, but its samples
    # overflow float32: the WAV write refuses them, so the run ends at
    # simulate rather than at evaluate, with no warning from the cast
    config_path = tmp_path / "loud.yaml"
    config_path.write_text(MINI_YAML.replace(
        "scene:\n", "scene:\n  noise_snr_db: -3000\n"))
    out = tmp_path / "o"
    run = subprocess.run(
        [sys.executable, "-m", "bsmrender.cli", "simulate", "--out", str(out),
         "--config", str(config_path)],
        env=_src_env(), capture_output=True, text=True, timeout=120)
    assert run.returncode == EXIT_CODES["simulate"]
    assert "Traceback" not in run.stderr
    assert "RuntimeWarning" not in run.stderr
    assert run.stderr == (f"error [simulate]: {out / 'mics_full.wav'}: a "
                          "sample is not finite as float32\n")
    assert not (out / "mics_full.wav").exists()


def test_silent_source_fails_simulate_stage(tmp_path, capsys):
    # an all-zero source would pass simulate, design and render, and then
    # fail evaluate with no band holding energy; it once failed simulate,
    # and is now refused with the config, before any directory is made
    source = tmp_path / "silent.wav"
    write_wav(source, np.zeros(14400), 48000)
    config_path = tmp_path / "silent.yaml"
    config_path.write_text(ECHO_YAML.replace(
        "scene:\n", f"scene:\n  source_wav: {str(source)!r}\n"))
    out = tmp_path / "o"
    for argv in (["simulate", "--dry-run"], ["pipeline"]):
        rc = main(argv + ["--out", str(out), "--config", str(config_path)])
        assert rc == EXIT_CODES["config"]
        assert capsys.readouterr().err == (
            f"error [config]: scene.source_wav {source}: the source has no "
            "nonzero sample\n")
    assert not out.exists()


def test_empty_source_wav_fails_config(tmp_path, capsys):
    # a WAV with no sample has none that is nonzero: it once failed
    # simulate, with exit 2, after the output directory was made
    source = tmp_path / "empty.wav"
    write_wav(source, np.zeros(0), 48000)
    config_path = tmp_path / "empty.yaml"
    config_path.write_text(f"scene: {{source_wav: {str(source)!r}}}\n")
    out = tmp_path / "o"
    rc = main(["pipeline", "--out", str(out), "--config", str(config_path)])
    assert rc == EXIT_CODES["config"]
    assert capsys.readouterr().err == (
        f"error [config]: scene.source_wav {source}: the source has no "
        "nonzero sample\n")
    assert not out.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("argv", [["simulate", "--dry-run"], ["pipeline"]])
def test_non_finite_source_wav_fails_config(tmp_path, capsys, bad, argv):
    # a NaN or infinite sample once passed every stage and ended in a NaN
    # verdict with exit 0
    # write_wav refuses the sample, so it goes into the file's last chunk,
    # the data, afterwards
    samples = simulate.synth_speech_noise(14400, 48000, 0)
    source = tmp_path / "bad.wav"
    write_wav(source, samples, 48000)
    blob = bytearray(source.read_bytes())
    at = len(blob) - 4 * (samples.size - 100)
    blob[at : at + 4] = np.float32(bad).tobytes()
    source.write_bytes(bytes(blob))
    config_path = tmp_path / "bad.yaml"
    config_path.write_text(ECHO_YAML.replace(
        "scene:\n", f"scene:\n  source_wav: {str(source)!r}\n"))
    out = tmp_path / "o"
    rc = main(argv + ["--out", str(out), "--config", str(config_path)])
    assert rc == EXIT_CODES["config"]
    assert capsys.readouterr().err == (
        f"error [config]: source wav sample 100 is {bad}, not a finite "
        "number\n")
    assert not out.exists()


@pytest.mark.parametrize("stage", ["simulate", "design"])
def test_ill_conditioned_hrtf_file_fails_both_fits(tmp_path, capsys, stage):
    # full rank, but s_min/s_max = 3e-7 at order 1: at or below the 1e-5
    # cutoff, which simulate's Gram route (reference order 0) and design's
    # SVD route share
    ring = [(math.pi / 2, 2 * math.pi * k / 16) for k in range(16)]
    config_path = _flat_hrtf_file_config(
        tmp_path, [*ring, (math.pi / 2 - 1e-6, 0.3)],
        hrtf_sh_order=1, reference_order=0)
    rc = main([stage, "--out", str(tmp_path / "o"),
               "--config", str(config_path)])
    assert rc == EXIT_CODES[stage]
    assert (f"error [{stage}]: SH fit of order 1 is rank deficient on this "
            "direction grid: rank 3 of 4 coefficients") \
        in capsys.readouterr().err


@pytest.mark.parametrize("message, shown", [("", "out of memory"),
                                            ("cannot allocate 2 GiB",
                                             "cannot allocate 2 GiB")])
def test_memory_error_maps_to_stage_exit(tmp_path, capsys, monkeypatch,
                                         message, shown):
    def exhausted(cfg, out_dir, digest):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run_design", exhausted)
    rc = main(["design", "--out", str(tmp_path / "o")])
    assert rc == EXIT_CODES["design"]
    assert capsys.readouterr().err == f"error [design]: {shown}\n"


def test_hrtf_fit_peak_memory():
    # the operator is built before the responses exist, so the fit's SVD
    # and its copies of the SH matrix never meet the responses: the traced
    # peak is operator + responses + coefficients, give or take
    cfg = cfgmod.resolve("desk")
    cfg["design"].update(hrtf_sh_order=12, hrtf_grid_size=400)
    stft_cfg = StftConfig(cfg["sample_rate"], 512, 256)
    c, d, bins = num_coeffs(12), 400, stft_cfg.num_bins
    item = np.dtype(complex).itemsize
    live = (c * d + 2 * d * bins + 2 * c * bins) * item
    tracemalloc.start()
    try:
        coeffs = cli._hrtf_coeffs(cfg, stft_cfg, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert coeffs.shape == (2, c, bins)
    assert peak <= 1.1 * live, (peak, live)


def test_render_peak_memory(tmp_path):
    # the mic spectrograms exist one block of frames at a time: the traced
    # peak is the float64 mic samples, the three (2, frames, bins) outputs
    # and one block (a frame buffer, x, x_d and x_r, one estimate)
    cfg = cfgmod.resolve("desk")
    digest = cfgmod.run_digest(cfg)
    stft_cfg = cfgmod.build_stft_config(cfg)
    fs, mics, samples = cfg["sample_rate"], 6, 96_000
    rng = np.random.default_rng(0)
    for name in cli.MIC_ARTIFACTS:
        write_wav(tmp_path / name, rng.standard_normal((samples, mics)), fs,
                  digest)
    for name in BANK_ARTIFACTS:
        ears = rng.standard_normal((2, stft_cfg.num_bins, mics)) + 0j
        save_filterbank(tmp_path / name, ears, solvers.SolverConfig(),
                        stft_cfg, digest)
    update_manifest(tmp_path, cli.MIC_ARTIFACTS + BANK_ARTIFACTS, digest)
    frames, bins = stft_cfg.num_frames(samples), stft_cfg.num_bins
    block = render.FRAME_BLOCK * (mics * (stft_cfg.fft_size * 8 + 3 * bins * 16)
                                  + 2 * bins * 16)
    live = 2 * samples * mics * 8 + 3 * 2 * frames * bins * 16 + block
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            results = cli.run_render(cfg, tmp_path, digest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert results["bsm_standard.bsmg"].shape[1] == frames
    assert peak <= 1.1 * live, (peak, live)


def _write_spectrograms(out_dir, frames):
    """Random desk-STFT spectrograms, frames by bins, for every file
    evaluate reads, recorded in the manifest; returns (cfg, digest)."""
    cfg = cfgmod.resolve("desk")
    digest = cfgmod.run_digest(cfg)
    stft_cfg = cfgmod.build_stft_config(cfg)
    shape = (2, frames, stft_cfg.num_bins)
    rng = np.random.default_rng(0)
    for name in SPECTRO_ARTIFACTS:
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        write_binaural_spectrogram(out_dir / name, data, stft_cfg, digest)
    update_manifest(out_dir, SPECTRO_ARTIFACTS, digest)
    return cfg, digest


def test_evaluate_peak_memory(tmp_path):
    # the spectrograms are read in turn and each dropped after its last
    # report: at most four complex128 (2, frames, bins) spectrograms are
    # alive (the decomposed sum with its two parts and the reference),
    # plus nmse's temporaries of one ear, a complex difference and two
    # float arrays of (frames, bins); all five at once would be 5 or more
    frames = 146  # a desk run's spectrograms
    cfg, digest = _write_spectrograms(tmp_path, frames)
    bins = cfgmod.build_stft_config(cfg).num_bins
    live = 4 * 2 * frames * bins * 16 + frames * bins * (16 + 2 * 8)
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            verdict = cli.run_evaluate(cfg, tmp_path, digest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict["scene_digest"] == digest
    assert peak <= 1.1 * live, (peak, live)


def test_evaluate_reads_spectrograms_in_turn(tmp_path, monkeypatch):
    # every file is checked against the manifest before the first is
    # parsed; then each is parsed when a report first needs it, and the
    # ones whose reports are all made are gone by the next read
    cfg, digest = _write_spectrograms(tmp_path, 8)
    events, parsed = [], {}
    verify = containers.verify_artifacts
    read = containers.read_binaural_spectrogram

    def verify_spy(out_dir, names, *args):
        events.append(("verify", sorted(names)))
        return verify(out_dir, names, *args)

    def read_spy(path):
        spec, config, embedded = read(path)
        events.append((path.name, sorted(
            name for name, ref in parsed.items() if ref() is not None)))
        parsed[path.name] = weakref.ref(spec)
        return spec, config, embedded

    monkeypatch.setattr(containers, "verify_artifacts", verify_spy)
    monkeypatch.setattr(containers, "read_binaural_spectrogram", read_spy)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run_evaluate(cfg, tmp_path, digest)
    assert events == [
        ("verify", sorted(SPECTRO_ARTIFACTS)),
        ("reference_direct.bsmg", []),
        ("component_direct.bsmg", ["reference_direct.bsmg"]),
        ("reference.bsmg", ["component_direct.bsmg",
                            "reference_direct.bsmg"]),
        ("component_reverb.bsmg", ["component_direct.bsmg",
                                   "reference.bsmg"]),
        ("bsm_standard.bsmg", ["reference.bsmg"]),
    ]


def test_reference_gets_its_own_order_only(tmp_path, monkeypatch):
    # the point model's channels are projected at the reference
    # order, before the first artifact is written: simulate applies no
    # fit, no order-5 expansion ever exists, and the reference gets the
    # three zonal channels of order 2, with a decode that owns its data
    seen, events = [], []

    def spy(images, source, channels, *args):
        events.append(("reference", None))
        seen.append(channels)
        return simulate.binaural_references(images, source, channels, *args)

    def projection_spy(ear_offset, stft_cfg, order):
        events.append(("projection", order))
        return projection(ear_offset, stft_cfg, order)

    def fit_spy(*args):
        events.append(("fit", None))
        return fit_operator(*args)

    def write_spy(writer):
        def spy(path, *args):
            events.append(("write", path.name))
            return writer(path, *args)
        return spy

    projection, fit_operator = cli.point_receiver_channels, cli.sh_fit_operator
    config_path = tmp_path / "mini.yaml"
    config_path.write_text(MINI_YAML)
    monkeypatch.setattr(cli, "binaural_references", spy)
    monkeypatch.setattr(cli, "point_receiver_channels", projection_spy)
    monkeypatch.setattr(cli, "sh_fit_operator", fit_spy)
    monkeypatch.setattr(cli, "write_json", write_spy(cli.write_json))
    monkeypatch.setattr(cli, "write_wav", write_spy(cli.write_wav))
    assert main(["simulate", "--out", str(tmp_path / "o"),
                 "--config", str(config_path)]) == 0
    assert events[0] == ("projection", 2)
    assert ("fit", None) not in events
    assert ("reference", None) in events
    assert ("write", "scene_stats.json") in events
    (channels,) = seen
    assert channels.order == 2 and channels.zonal
    assert channels.decode.shape[:2] == (2, 3)
    assert channels.decode.base is None


@pytest.mark.parametrize("offset", [0.0875, 0.0], ids=["point", "flat"])
@pytest.mark.parametrize("reference_order, hrtf_sh_order, want",
                         [(2, 5, 2), (5, 2, 2), (3, 3, 3)])
def test_closed_form_takes_the_fit_order_rule(offset, reference_order,
                                              hrtf_sh_order, want):
    # the point model's projection is built at min(reference_order,
    # hrtf_sh_order), the order the fit gave, so the reference truncates
    # as before; with its ears at the center (the flat model) its unit
    # response is its one order-0 channel, which point_receiver_channels
    # returns whatever order is asked
    cfg = cfgmod.resolve("desk")
    cfg["design"].update(hrtf_ear_offset=offset,
                         reference_order=reference_order,
                         hrtf_sh_order=hrtf_sh_order)
    stft_cfg = StftConfig(48000, 512, 256)
    channels = cli._reference_channels(cfg, stft_cfg, reference_order)
    if offset == 0.0:
        want = 0
    assert channels.order == want and channels.zonal
    assert channels.decode.shape == (2, want + 1, stft_cfg.num_bins)


def test_simulate_at_the_largest_ear_offset(tmp_path):
    # 0.99 m, just inside the schema's bound, projects the point model on
    # 2 + floor(k a) + 20 = 457 nodes at the mini scene's 24 kHz Nyquist
    config_path = tmp_path / "mini.yaml"
    config_path.write_text(MINI_YAML + "  hrtf_ear_offset: 0.99\n")
    assert main(["simulate", "--out", str(tmp_path / "o"),
                 "--config", str(config_path)]) == 0
    spec = read_binaural_spectrogram(tmp_path / "o" / "reference.bsmg")[0]
    assert np.isfinite(spec).all()


def test_file_hrtf_is_fitted_at_any_ear_offset(tmp_path):
    # the ear offset belongs to the point model: with a file set, an offset
    # of 0 does not cut the reference to the flat model's one channel
    config_path = _flat_hrtf_file_config(tmp_path, spiral_grid(16),
                                         hrtf_sh_order=2, hrtf_ear_offset=0.0)
    cfg = cfgmod.resolve("desk", config_path)
    channels = cli._reference_channels(cfg, StftConfig(48000, 512, 256), 2)
    assert channels.order == 2 and not channels.zonal


def test_reference_gets_the_center_images_alone(tmp_path, monkeypatch):
    # once the mic signals exist only the array center's images are
    # needed: the per-mic arrays are gone by the time the reference runs
    mic_lists, seen = [], []

    def images_spy(*args):
        center, mics = simulate.scene_images(*args)
        mic_lists.extend(weakref.ref(imgs) for imgs in mics)
        return center, mics

    def reference_spy(images, *args):
        seen.append((images, [ref() for ref in mic_lists]))
        return simulate.binaural_references(images, *args)

    config_path = tmp_path / "echo.yaml"
    config_path.write_text(ECHO_YAML)
    monkeypatch.setattr(cli, "scene_images", images_spy)
    monkeypatch.setattr(cli, "binaural_references", reference_spy)
    assert main(["simulate", "--out", str(tmp_path / "o"),
                 "--config", str(config_path)]) == 0
    ((images, alive),) = seen
    assert images.shape[0] == 4 and images.shape[1] > 1
    cfg = cfgmod.resolve("desk", config_path)
    center, _ = simulate.scene_images(cfgmod.build_scene(cfg), 2,
                                      cfg["scene"]["rir_seconds"])
    np.testing.assert_array_equal(images, center)
    assert len(alive) == 1 and alive == [None]


def test_rir_shorter_than_direct_path_fails_config(tmp_path, capsys):
    # no image source fits a 1 ms RIR on desk: resolve names the farthest
    # receiver's need, as --dry-run and as every stage, with no directory
    # made, where it once passed --dry-run and ended simulate with exit 2
    # after the directory was made
    config_path = tmp_path / "short.yaml"
    config_path.write_text("scene: {rir_seconds: 0.001}\n")
    for argv in (["simulate", "--dry-run"], ["simulate"], ["design"],
                 ["pipeline"]):
        rc = main(argv + ["--out", str(tmp_path / "o"),
                          "--config", str(config_path)])
        assert (rc, capsys.readouterr().err) == (EXIT_CODES["config"], (
            "error [config]: scene.rir_seconds 0.001 is shorter than the "
            "direct path to a receiver 0.711 m from the source; with its "
            "sinc taps it needs scene.rir_seconds >= 0.0024375\n"))
    assert not (tmp_path / "o").exists()
    # the length it names resolves, one sample less does not: resolve
    # applies the rule scene_images applies, to the bit
    config_path.write_text("scene: {rir_seconds: 0.0024375}\n")
    cfg = cfgmod.resolve("desk", config_path)
    simulate.scene_images(cfgmod.build_scene(cfg), 0, 0.0024375)
    less = 0.0024375 - 1 / 48000
    config_path.write_text(f"scene: {{rir_seconds: {less!r}}}\n")
    with pytest.raises(cfgmod.ConfigError, match="shorter than the direct"):
        cfgmod.resolve("desk", config_path)


def test_rir_too_short_is_refused_before_the_fit(tmp_path, capsys,
                                                monkeypatch):
    # the RIR length needs only the geometry, so resolve refuses a
    # too-short RIR before any stage, and so before a file HRTF's fit, the
    # one fit simulate still runs
    fits = []
    monkeypatch.setattr(cli, "_hrtf_coeffs", lambda *args: fits.append(args))
    config_path = _flat_hrtf_file_config(tmp_path, spiral_grid(16),
                                         hrtf_sh_order=2)
    with open(config_path, "a") as config:
        config.write("scene: {rir_seconds: 0.001}\n")
    rc = main(["simulate", "--out", str(tmp_path / "o"),
               "--config", str(config_path)])
    assert rc == EXIT_CODES["config"]
    assert capsys.readouterr().err.startswith(
        "error [config]: scene.rir_seconds 0.001 is shorter than the direct "
        "path")
    assert fits == []
    assert not (tmp_path / "o").exists()


@st.composite
def _small_configs(draw):
    """Small valid configs: every key within its schema, from a tiny room
    with a short source up to a few reflections and a 50-direction grid."""
    dims = [draw(st.floats(1.5, 5.0)) for _ in range(3)]

    def inside():
        return [draw(st.floats(0.1, 0.9)) * side for side in dims]

    config = {
        "scene": {
            "room_dimensions": dims,
            "source_position": inside(),
            "array_center": inside(),
            "array_num_mics": draw(st.integers(1, 6)),
            "array_radius": 0.05,
            "source_duration_s": draw(st.floats(0.01, 0.2)),
            "rir_seconds": draw(st.floats(0.01, 0.08)),
            "max_reflection_order": draw(st.integers(0, 3)),
        },
        "design": {
            "reverb_grid_size": draw(st.integers(1, 50)),
            "hrtf_grid_size": draw(st.integers(1, 50)),
            "hrtf_sh_order": draw(st.integers(0, 4)),
            "reference_order": draw(st.integers(0, 4)),
            "hrtf_ear_offset": draw(st.sampled_from([0.0875, 0.0])),
        },
        "stft": {"window_ms": draw(st.sampled_from([2, 8, 32])),
                 "hop_ms": draw(st.sampled_from([1, 4, 16]))},
        "evaluation": {"frame_trim": draw(st.integers(0, 3))},
    }
    # half the examples trim at the edge of the drawn frame count, leaving
    # one or two frames or none
    frames = _frame_count(config)
    if frames is not None and draw(st.booleans()):
        config["evaluation"]["frame_trim"] = draw(
            st.integers((frames - 1) // 2, (frames + 1) // 2))
    return config


def _frame_count(config):
    """STFT frames of a drawn config's spectrograms (a 48 kHz source
    convolved with its RIR), or None when its STFT parameters are refused."""
    scene, stft_cfg = config["scene"], config["stft"]
    samples = (round(scene["source_duration_s"] * 48000)
               + round(scene["rir_seconds"] * 48000) - 1)
    try:
        return StftConfig.default(48000, stft_cfg["window_ms"],
                                  stft_cfg["hop_ms"]).num_frames(samples)
    except ValueError:
        return None


@settings(max_examples=25)
@given(_small_configs())
def test_pipeline_ends_in_success_or_a_named_stage_error(config):
    # every failure is the failing stage's exit code and one error line,
    # never a traceback
    with tempfile.TemporaryDirectory() as root:
        config_path = Path(root) / "fuzz.yaml"
        config_path.write_text(yaml.safe_dump(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = main(["pipeline", "--out", str(Path(root) / "o"),
                       "--config", str(config_path)])
    if rc != 0:
        stage = {code: name for name, code in EXIT_CODES.items()}[rc]
        assert err.getvalue().startswith(f"error [{stage}]: "), err.getvalue()
    # what the config fixes is refused before any stage: bad overlap-add
    # parameters end in config, and no band is left without bins
    stft_cfg = config["stft"]
    try:
        StftConfig.default(48000, stft_cfg["window_ms"], stft_cfg["hop_ms"])
    except ValueError as stft_err:
        assert rc == EXIT_CODES["config"], err.getvalue()
        assert str(stft_err) in err.getvalue()
    else:
        # a trim that leaves no frame to judge is refused before any stage
        if _frame_count(config) <= 2 * config["evaluation"]["frame_trim"]:
            assert rc == EXIT_CODES["config"], err.getvalue()
            assert "leaves no frame" in err.getvalue()
    assert "contains no bins" not in err.getvalue()
    assert "no frames left" not in err.getvalue()


def test_staged_calls_write_the_pipeline_tree(mini_run, tmp_path):
    # a stage frees what it no longer needs; what it writes must not
    # depend on whether it runs alone or inside the pipeline
    _, config_path, out = mini_run
    staged = tmp_path / "staged"
    for stage in ("simulate", "design", "render", "evaluate"):
        assert main([stage, "--out", str(staged),
                     "--config", str(config_path)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in staged.iterdir())
    for name in names:
        assert (staged / name).read_bytes() == (out / name).read_bytes(), name


def test_near_ear_follows_azimuth_sign():
    cfg = {"design": {"direct_doa": [math.pi / 2, 0.5]}}
    assert near_ear(cfg) == "left"
    cfg["design"]["direct_doa"][1] = -0.5
    assert near_ear(cfg) == "right"
    cfg["design"]["direct_doa"][1] = 0.0
    assert near_ear(cfg) == "left"


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()
