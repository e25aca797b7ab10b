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

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from bsmrender import cli, render, simulate, solvers
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
from bsmrender.containers import (load_filterbank, read_binaural_spectrogram,
                                  read_wav, save_filterbank, save_hrtf,
                                  update_manifest, verify_artifacts,
                                  write_binaural_spectrogram, write_wav)
from bsmrender.evaluate import octave_bands
from bsmrender.sph import num_coeffs, spiral_grid
from bsmrender.stft import StftConfig

from oracles import write_binaural_spectrogram_v1

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
  array_kind: explicit
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
    # it imports) would cost each call most of a second before any work
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
        for banned in ("scipy.signal", "scipy.stats"):
            assert banned not in modules, (step, banned)


def test_each_stage_loads_only_the_scipy_it_uses(tmp_path):
    # scipy is imported inside the kernels that use it: a dry run, design,
    # render and evaluate compute nothing with it (the harmonics, j_n and
    # the FFTs are numpy's), and simulate imports sparse alone, so it
    # loads exactly what importing scipy.sparse loads
    config_path = tmp_path / "mini.yaml"
    config_path.write_text(MINI_YAML)
    probe = """\
import json, sys
{}
scipy = [m for m in sys.modules if m.partition(".")[0] == "scipy"]
print(json.dumps([rc, sorted(scipy)]))
"""
    run_cli = "import bsmrender.cli\nrc = bsmrender.cli.main(sys.argv[1:])"
    steps = (["pipeline", "--dry-run"], ["simulate"], ["design"], ["render"],
             ["evaluate"])
    loaded = {}
    for step in steps:
        run = subprocess.run(
            [sys.executable, "-c", probe.format(run_cli), *step,
             "--out", str(tmp_path / "o"), "--config", str(config_path)],
            env=_src_env(), capture_output=True, text=True, check=True)
        rc, loaded[step[-1]] = json.loads(run.stdout.splitlines()[-1])
        assert rc == 0, (step, run.stderr)
    for step in ("--dry-run", "design", "render", "evaluate"):
        assert loaded[step] == [], step
    run = subprocess.run(
        [sys.executable, "-c", probe.format("import scipy.sparse\nrc = 0")],
        env=_src_env(), capture_output=True, text=True, check=True)
    assert loaded["simulate"] == json.loads(run.stdout.splitlines()[-1])[1]
    for step, modules in loaded.items():
        for banned in ("scipy.signal", "scipy.stats"):
            assert banned not in modules, (step, banned)
    # and the package's own imports of scipy name sparse alone
    imported = set()
    for path in Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "scipy":
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = ([node.module] if isinstance(node, ast.ImportFrom)
                         else [alias.name for alias in node.names])
                imported.update(n.split(".")[1] for n in names
                                if n and n.startswith("scipy."))
    assert imported == {"sparse"}, imported


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
    # TypeError traceback; simulate reads the manifest when it records
    # its files, render before it reads any
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


# a direct DOA off the sphere and a microphone at a negative radius: each
# once passed --dry-run, then failed in design or simulate
BAD_ROWS = {
    "direct_doa": ("design: {direct_doa: [4.0, 0.5]}\n",
                   "design.direct_doa: colatitude 4.0 outside [0, pi]"),
    "array_mics": ("scene: {array_kind: explicit, "
                   "array_mics: [[-0.05, 1.5, 0.0]]}\n",
                   "scene.array_mics: microphone radius must be positive "
                   "and finite"),
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
    write_wav(source, np.zeros(960), 48000)
    scene = (f"scene: {{source_kind: wav, source_wav: {str(source)!r}, "
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
    config_path.write_text(f"scene: {{source_kind: wav, source_wav: "
                           f"{str(source)!r}}}\n")
    rc = main(argv + ["--out", str(tmp_path / "o"),
                      "--config", str(config_path)])
    assert rc == EXIT_CODES["config"]
    assert capsys.readouterr().err == (
        "error [config]: source wav sample rate 16000 != 48000\n")
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
    cfg, _, out = mini_run
    names = (SIM_ARTIFACTS + BANK_ARTIFACTS + SPECTRO_ARTIFACTS
             + REPORT_ARTIFACTS
             + ("scene_stats.json", "render_standard.wav",
                "render_decomposed.wav", "reference.wav",
                "reference_direct.wav"))
    for name in names:
        assert (out / name).exists(), name
    assert not list(out.glob("*.bsma"))
    # evaluate sums the two component files itself
    assert not (out / "bsm_decomposed.bsmg").exists()
    # the manifest covers them all under the run digest
    verify_artifacts(out, names, cfgmod.run_digest(cfg), "test")


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
    # no reverberant field -> that report is fully flagged
    assert verdict["broadband_nmse_db"]["reverb"]["left"] is None
    assert verdict["broadband_nmse_db"]["direct"]["left"] is not None
    for report in ("nmse_direct.csv", "nmse_standard.csv"):
        header = (out / report).read_text().split("\n", 1)[0]
        assert header == "ear,freq_hz,nmse_linear,nmse_db,flag"


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


@pytest.mark.parametrize("reshape", [lambda d: d[:-1],
                                     lambda d: np.hstack([d, d])])
def test_mismatched_direct_wav_fails_render_stage(mini_run, tmp_path, capsys,
                                                  reshape):
    # a well-formed mics_direct.wav of the run's digest, but with a sample
    # fewer or a channel more than mics_full.wav, is refused instead of
    # padded with zeros one block at a time
    _, config_path, out = mini_run
    import shutil

    work = tmp_path / "short"
    shutil.copytree(out, work)
    path = work / "mics_direct.wav"
    data, rate, digest = read_wav(path)
    write_wav(path, reshape(data), rate, digest)
    update_manifest(work, ["mics_direct.wav"], digest)
    rc = main(["render", "--out", str(work), "--config", str(config_path)])
    assert rc == EXIT_CODES["render"]
    assert "error [render]: mic signal shapes differ" in capsys.readouterr().err


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
    spec, digest = read_binaural_spectrogram(path)
    write_binaural_spectrogram_v1(path, spec, digest)
    update_manifest(work, ["reference.bsmg"], digest)
    rc = main(["evaluate", "--out", str(work), "--config", str(config_path)])
    assert rc == EXIT_CODES["evaluate"]
    assert capsys.readouterr().err == (
        f"error [evaluate]: {path}: unsupported BSMG version 1\n")


def _rewrite_wav(path, digest):
    data, rate, _ = read_wav(path)
    write_wav(path, data, rate, digest)


def _rewrite_bank(path, digest):
    save_filterbank(path, load_filterbank(path)[0], digest)


def _rewrite_spectrogram(path, digest):
    write_binaural_spectrogram(path, read_binaural_spectrogram(path)[0], digest)


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


def test_truncated_source_wav_fails_simulate_stage(tmp_path, capsys):
    source = tmp_path / "source.wav"
    write_wav(source, np.zeros(480), 48000)
    source.write_bytes(source.read_bytes()[:30])  # cut inside the fmt chunk
    config_path = tmp_path / "wav.yaml"
    config_path.write_text(f"scene:\n  source_kind: wav\n"
                           f"  source_wav: {str(source)!r}\n")
    rc = main(["simulate", "--out", str(tmp_path / "o"),
               "--config", str(config_path)])
    assert rc == EXIT_CODES["simulate"]
    assert "error [simulate]" in capsys.readouterr().err


def test_truncated_hrtf_file_fails_design_stage(tmp_path, capsys):
    hrtf = tmp_path / "ears.bsmh"
    ir = np.zeros((4, 16))
    save_hrtf(hrtf, spiral_grid(4), ir, ir, 48000)
    hrtf.write_bytes(hrtf.read_bytes()[:50])  # cut inside the direction table
    config_path = tmp_path / "hrtf.yaml"
    config_path.write_text(f"design:\n  hrtf_kind: file\n"
                           f"  hrtf_file: {str(hrtf)!r}\n")
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


def test_rank_deficient_hrtf_file_fails_design_stage(tmp_path, capsys):
    # 16 equator directions pass the direction-count check of order 2, but
    # the harmonics odd in z vanish on them
    hrtf = tmp_path / "equator.bsmh"
    ir = np.zeros((16, 16))
    ir[:, 0] = 1.0
    save_hrtf(hrtf, [(math.pi / 2, 2 * math.pi * k / 16) for k in range(16)],
              ir, ir, 48000)
    config_path = tmp_path / "equator.yaml"
    config_path.write_text(f"design:\n  hrtf_kind: file\n"
                           f"  hrtf_file: {str(hrtf)!r}\n"
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
        f"design:\n  hrtf_kind: file\n  hrtf_file: {str(hrtf)!r}\n"
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
    # the point model's coefficients come in closed form, so simulate makes
    # no BLAS call whose rounding follows the thread count: one and two
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
    # fail evaluate with no band holding energy
    source = tmp_path / "silent.wav"
    write_wav(source, np.zeros(14400), 48000)
    config_path = tmp_path / "silent.yaml"
    config_path.write_text(ECHO_YAML.replace(
        "scene:\n", f"scene:\n  source_kind: wav\n"
                    f"  source_wav: {str(source)!r}\n"))
    out = tmp_path / "o"
    rc = main(["pipeline", "--out", str(out), "--config", str(config_path)])
    assert rc == EXIT_CODES["simulate"]
    assert capsys.readouterr().err == (
        "error [simulate]: source signal has no nonzero sample\n")
    assert list(out.iterdir()) == []


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
        "scene:\n", f"scene:\n  source_kind: wav\n"
                    f"  source_wav: {str(source)!r}\n"))
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
    cfg["design"].update(hrtf_kind="point", hrtf_sh_order=12,
                         hrtf_grid_size=400)
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
    assert coeffs.ears.shape == (2, c, bins)
    assert peak <= 1.1 * live, (peak, live)


def test_render_peak_memory(tmp_path):
    # the mic spectrograms exist one block of frames at a time: the traced
    # peak is the float64 mic samples, the three (2, frames, bins) outputs
    # and one block (a frame buffer, x, x_d and x_r, one estimate), and the
    # samples are freed before the WAV writes' inverse transforms
    cfg = cfgmod.resolve("desk")
    digest = cfgmod.run_digest(cfg)
    stft_cfg = cfgmod.build_stft_config(cfg)
    fs, mics, samples = cfg["sample_rate"], 6, 96_000
    rng = np.random.default_rng(0)
    for name in cli.MIC_ARTIFACTS:
        write_wav(tmp_path / name, rng.standard_normal((samples, mics)), fs,
                  digest)
    for name, tag in zip(BANK_ARTIFACTS, ("direct", "reverberant")):
        ears = rng.standard_normal((2, stft_cfg.num_bins, mics)) + 0j
        save_filterbank(tmp_path / name, solvers.BsmFilterBank(
            ears=ears, tag=tag, config=solvers.SolverConfig(), sample_rate=fs,
            fft_size=stft_cfg.fft_size), digest)
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
    assert results["bsm_standard.bsmg"].num_frames == frames
    assert peak <= 1.1 * live, (peak, live)


def test_reference_gets_its_own_order_only(tmp_path, monkeypatch):
    # the point model's channels come in closed form at the reference
    # order, before the first artifact is written: simulate applies no
    # fit, no order-5 expansion ever exists, and the reference gets the
    # three zonal channels of order 2, with a decode that owns its data
    seen, events = [], []

    def spy(images, source, channels, *args):
        events.append(("reference", None))
        seen.append(channels)
        return simulate.binaural_references(images, source, channels, *args)

    def closed_spy(ear_offset, stft_cfg, order):
        events.append(("closed form", order))
        return closed_form(ear_offset, stft_cfg, order)

    def fit_spy(*args):
        events.append(("fit", None))
        return apply_fit(*args)

    def write_spy(writer):
        def spy(path, *args):
            events.append(("write", path.name))
            return writer(path, *args)
        return spy

    closed_form, apply_fit = cli.point_receiver_channels, cli.apply_sh_fit
    config_path = tmp_path / "mini.yaml"
    config_path.write_text(MINI_YAML)
    monkeypatch.setattr(cli, "binaural_references", spy)
    monkeypatch.setattr(cli, "point_receiver_channels", closed_spy)
    monkeypatch.setattr(cli, "apply_sh_fit", fit_spy)
    monkeypatch.setattr(cli, "write_json", write_spy(cli.write_json))
    monkeypatch.setattr(cli, "write_wav", write_spy(cli.write_wav))
    assert main(["simulate", "--out", str(tmp_path / "o"),
                 "--config", str(config_path)]) == 0
    assert events[0] == ("closed form", 2)
    assert ("fit", None) not in events
    assert ("reference", None) in events
    assert ("write", "scene_stats.json") in events
    (channels,) = seen
    assert channels.order == 2 and channels.zonal
    assert channels.decode.shape[:2] == (2, 3)
    assert channels.decode.base is None


@pytest.mark.parametrize("kind", ["point", "flat"])
@pytest.mark.parametrize("reference_order, hrtf_sh_order, want",
                         [(2, 5, 2), (5, 2, 2), (3, 3, 3)])
def test_closed_form_takes_the_fit_order_rule(kind, reference_order,
                                              hrtf_sh_order, want):
    # the point model's closed form is built at min(reference_order,
    # hrtf_sh_order), the order the fit gave, so the reference truncates
    # as before; the flat model's unit response is its one order-0 channel
    cfg = cfgmod.resolve("desk")
    cfg["design"].update(hrtf_kind=kind, reference_order=reference_order,
                         hrtf_sh_order=hrtf_sh_order)
    stft_cfg = StftConfig(48000, 512, 256)
    channels = cli._reference_channels(cfg, stft_cfg, reference_order)
    if kind == "flat":
        want = 0
    assert channels.order == want and channels.zonal
    assert channels.decode.shape == (2, want + 1, stft_cfg.num_bins)


def test_reference_gets_the_center_images_alone(tmp_path, monkeypatch):
    # once the mic signals exist only the array-center list is needed: the
    # per-mic lists are gone by the time the reference runs
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
    assert isinstance(images, simulate.ImageSourceList) and images.count > 1
    cfg = cfgmod.resolve("desk", config_path)
    center, _ = simulate.scene_images(cfgmod.build_scene(cfg), 2,
                                      cfg["scene"]["rir_seconds"])
    np.testing.assert_array_equal(images.delays, center.delays)
    assert len(alive) == 1 and alive == [None]


def test_rir_shorter_than_direct_path_fails_simulate_stage(tmp_path, capsys):
    # no image source fits a 1 ms RIR on desk: a named error instead of an
    # IndexError from the empty image lists
    config_path = tmp_path / "short.yaml"
    config_path.write_text("scene: {rir_seconds: 0.001}\n")
    rc = main(["simulate", "--out", str(tmp_path / "o"),
               "--config", str(config_path)])
    assert rc == EXIT_CODES["simulate"]
    assert capsys.readouterr().err == (
        "error [simulate]: rir_seconds 0.001 is shorter than the direct path "
        "to a receiver 0.711 m from the source; with its sinc taps it needs "
        "rir_seconds >= 0.0024375\n")


def test_rir_too_short_is_refused_before_the_fit(tmp_path, capsys,
                                                monkeypatch):
    # the RIR length check needs only the geometry, so a too-short RIR
    # fails before a file HRTF's fit, the one fit simulate still runs,
    # rather than after it
    fits = []
    monkeypatch.setattr(cli, "_hrtf_coeffs", lambda *args: fits.append(args))
    config_path = _flat_hrtf_file_config(tmp_path, spiral_grid(16),
                                         hrtf_sh_order=2)
    with open(config_path, "a") as config:
        config.write("scene: {rir_seconds: 0.001}\n")
    rc = main(["simulate", "--out", str(tmp_path / "o"),
               "--config", str(config_path)])
    assert rc == EXIT_CODES["simulate"]
    assert "shorter than the direct path" in capsys.readouterr().err
    assert fits == []


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
            "hrtf_kind": draw(st.sampled_from(["point", "flat"])),
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
