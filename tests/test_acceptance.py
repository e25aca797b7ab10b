"""Acceptance suite: one test per shipped guarantee.

Each test asserts the guarantee at its stated tolerance and prints a
single line with the measured margin (visible with pytest -s; pytest -v
shows the per-guarantee pass/fail either way). The heavier checks share
one desk-profile pipeline run via a module fixture.
"""

import json
import math

import numpy as np
import pytest

from bsmrender import config as cfgmod
from bsmrender.cli import main
from bsmrender.config import build_scene, resolve
from bsmrender.geometry import SPEED_OF_SOUND, semicircle_array
from bsmrender.simulate import render_mic_signals, scene_images, \
    scene_statistics
from bsmrender.solvers import CovarianceModel, solve_general, solve_ls, solve_magls
from bsmrender.sph import spiral_grid, steering_tensor
from bsmrender.stft import StftConfig, istft, stft

from oracles import steering_matrix


def _read_nmse_csv(path):
    """Unflagged rows -> {ear: (freqs, db)} arrays."""
    out = {"left": [[], []], "right": [[], []]}
    for row in path.read_text().strip().split("\n")[1:]:
        ear, freq, _, db, flag = row.split(",")
        if flag == "":
            out[ear][0].append(float(freq))
            out[ear][1].append(float(db))
    return {ear: (np.array(f), np.array(d)) for ear, (f, d) in out.items()}


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk") / "run"
    rc = main(["pipeline", "--out", str(out)])
    assert rc == 0
    return out


def test_01_covariance_solver_matches_uncorrelated_form():
    # scaled-identity covariances reduce the general solver to the
    # uncorrelated-sources form with snr = sigma_s^2 / sigma_n^2
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 9))
        l_count = int(rng.integers(1, 13))
        v = rng.standard_normal((m, l_count)) \
            + 1j * rng.standard_normal((m, l_count))
        h = rng.standard_normal(l_count) + 1j * rng.standard_normal(l_count)
        sig_s = float(rng.uniform(0.2, 4.0))
        sig_n = float(rng.uniform(0.2, 4.0))
        cov = CovarianceModel(source_cov=sig_s * np.eye(l_count, dtype=complex),
                              noise_cov=sig_n * np.eye(m, dtype=complex))
        c_gen = solve_general(v, cov, h)
        c_ls = solve_ls(v, h, snr=sig_s / sig_n)
        scale = np.linalg.norm(c_ls)
        worst = max(worst, np.linalg.norm(c_gen - c_ls) / scale)
    assert worst < 1e-12
    print(f"PASS [01 solver identity] worst relative deviation "
          f"{worst:.3e} < 1e-12 over 200 instances")


def test_02_overdetermined_design_reproduces_targets():
    # more mics than plane waves and no noise: the filters reproduce the
    # target responses at the array output
    geom = semicircle_array(6, 0.07)
    stft_cfg = StftConfig(48000, 2048, 1024)
    worst = 0.0
    for l_count in (1, 2, 3):
        doas = spiral_grid(l_count)
        tensor = steering_tensor(stft_cfg, geom, doas)
        rng = np.random.default_rng(l_count)
        h = rng.standard_normal((l_count, stft_cfg.num_bins)) \
            + 1j * rng.standard_normal((l_count, stft_cfg.num_bins))
        # DC is excluded: every mic sees gain 1 there, so the steering
        # matrix is rank one and distinct targets cannot be matched
        for b in range(1, stft_cfg.num_bins - 1):
            c = solve_ls(tensor[b], h[:, b], snr=np.inf)
            err = np.linalg.norm(tensor[b].conj().T @ c - np.conj(h[:, b]))
            worst = max(worst, err / np.linalg.norm(h[:, b]))
    assert worst < 1e-6
    print(f"PASS [02 exact matching] worst relative error {worst:.3e} "
          f"< 1e-6 for 6 mics, 1-3 waves, bins 1..1023")


def test_03_magls_magnitude_wins():
    # underdetermined regime (240 directions, 6 mics): trading phase for
    # magnitude must pay off at and above typical cutoff frequencies
    geom = semicircle_array(6, 0.07)
    doas = spiral_grid(240)
    rng = np.random.default_rng(1234)
    counts = {}
    for f in (2000.0, 4000.0, 8000.0):
        v = steering_matrix(f, geom, doas)
        wins = 0
        for _ in range(100):
            h = rng.standard_normal(240) + 1j * rng.standard_normal(240)
            c_ls = solve_ls(v, h, snr=100.0)
            c_mag = solve_magls(v, h, snr=100.0)
            err_ls = np.linalg.norm(np.abs(v.conj().T @ c_ls) - np.abs(h))
            err_mag = np.linalg.norm(np.abs(v.conj().T @ c_mag) - np.abs(h))
            wins += err_mag <= err_ls
        counts[f] = wins
        assert wins >= 95
    summary = ", ".join(f"{f / 1000:g} kHz {n}/100" for f, n in counts.items())
    print(f"PASS [03 magnitude fit] wins {summary} (need >= 95)")


def test_04_stft_round_trip():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(48000)
    cfg = StftConfig.default(48000, 32.0, 16.0)
    y = istft(stft(x, cfg), cfg, num_samples=48000)[:, 0]
    w = cfg.window_length
    rel = np.linalg.norm(y[w:-w] - x[w:-w]) / np.linalg.norm(x[w:-w])
    assert rel < 1e-10
    print(f"PASS [04 stft round trip] interior relative error {rel:.3e} "
          f"< 1e-10")


def test_05_desk_room_oracles():
    cfg = resolve("desk")
    scene = build_scene(cfg)
    order = cfg["scene"]["max_reflection_order"]
    rir_s = cfg["scene"]["rir_seconds"]
    images = scene_images(scene, order, rir_s)
    stats = scene_statistics(scene, images, rir_s)

    ratio = stats["t60_s"] / stats["t60_eyring_s"]
    assert abs(ratio - 1.0) < 0.25

    src = np.asarray(cfg["scene"]["source_position"])
    center = np.asarray(cfg["scene"]["array_center"])
    expected = np.linalg.norm(src - center) / SPEED_OF_SOUND \
        * scene.sample_rate
    delay_err = abs(stats["direct_delay_samples"] - expected)
    assert delay_err <= 1.0

    x, x_d, x_r = render_mic_signals(scene, images, rir_s)
    np.testing.assert_array_equal(x, x_d + x_r)
    print(f"PASS [05 simulator oracles] t60/eyring {ratio:.3f} (within 25%), "
          f"delay error {delay_err:.4f} samples, split exact")


def test_06_paper_scale_statistics():
    cfg = resolve("paper")
    scene = build_scene(cfg)
    rir_s = cfg["scene"]["rir_seconds"]
    stats = scene_statistics(scene, scene_images(
        scene, cfg["scene"]["max_reflection_order"], rir_s), rir_s)
    assert 2.5 <= stats["drr_db"] <= 6.5
    assert 0.51 <= stats["t60_s"] <= 0.85
    print(f"PASS [06 full-size statistics] drr {stats['drr_db']:.2f} dB in "
          f"[2.5, 6.5], t60 {stats['t60_s']:.3f} s in [0.51, 0.85]")


def test_07_direct_component_low_band_accuracy(desk_run):
    report = _read_nmse_csv(desk_run / "nmse_direct.csv")
    worst = {}
    for ear, (freqs, db) in report.items():
        low = db[freqs < 4000.0]
        worst[ear] = low.max()
        assert (low < -15.0).all()
    print(f"PASS [07 direct accuracy] worst bin below 4 kHz: "
          f"left {worst['left']:.2f} dB, right {worst['right']:.2f} dB "
          f"(< -15 dB)")


def test_08_reverb_component_frequency_trend(desk_run):
    report = _read_nmse_csv(desk_run / "nmse_reverb.csv")
    gaps = {}
    for ear, (freqs, db) in report.items():
        high = db[freqs > 4000.0].mean()
        low = db[freqs < 1000.0].mean()
        gaps[ear] = high - low
        assert high > low
    verdict = json.loads((desk_run / "verdict.json").read_text())
    bb = verdict["broadband_nmse_db"]["reverb"]
    assert bb["left"] <= bb["right"]
    print(f"PASS [08 reverb trend] high-low gap left {gaps['left']:+.2f} dB, "
          f"right {gaps['right']:+.2f} dB; broadband left {bb['left']:+.2f} "
          f"<= right {bb['right']:+.2f}")


def test_09_decomposed_beats_standard(desk_run):
    verdict = json.loads((desk_run / "verdict.json").read_text())
    imp = verdict["improvement_db"]
    assert imp["left"] > 0.0 and imp["right"] > 0.0
    num_bands = len(verdict["bands_hz"])
    improved = verdict["near_ear_bands_improved_1db"]
    assert improved >= num_bands / 2
    print(f"PASS [09 decomposition gain] broadband {imp['left']:+.2f} dB "
          f"left, {imp['right']:+.2f} dB right; {improved}/{num_bands} "
          f"near-ear bands improved by >= 1 dB")


def test_10_single_mic_at_ear_oracle(tmp_path):
    # anechoic field sampled exactly at the left-ear position: the single
    # direct filter must reproduce the reference up to numerical error
    half_pi = repr(math.pi / 2)
    config_path = tmp_path / "ear.yaml"
    config_path.write_text(
        "scene:\n"
        "  room_dimensions: [50.0, 10.0, 6.0]\n"
        "  target_t60_s: null\n"
        "  reflection_coefficients: [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]\n"
        "  source_position: [25.0, 5.0, 3.0]\n"
        "  array_center: [5.0, 5.0, 3.0]\n"
        f"  array_mics: [[0.01, {half_pi}, {half_pi}]]\n"
        "  rir_seconds: 0.1\n"
        "  max_reflection_order: 0\n"
        "design:\n"
        f"  direct_doa: [{half_pi}, 0.0]\n"
        "  hrtf_ear_offset: 0.01\n")
    out = tmp_path / "run"
    rc = main(["pipeline", "--out", str(out), "--config", str(config_path)])
    assert rc == 0
    freqs, db = _read_nmse_csv(out / "nmse_decomposed.csv")["left"]
    assert freqs.size > 0
    assert (db < -40.0).all()
    print(f"PASS [10 coincident-mic oracle] worst left-ear bin "
          f"{db.max():.1f} dB (< -40 dB) over {freqs.size} bins with energy")


def test_11_pipeline_determinism(desk_run, tmp_path):
    out = tmp_path / "again"
    rc = main(["pipeline", "--out", str(out)])
    assert rc == 0
    first = {p.name: p for p in sorted(desk_run.iterdir())}
    second = {p.name: p for p in sorted(out.iterdir())}
    assert first.keys() == second.keys()
    for name in first:
        assert first[name].read_bytes() == second[name].read_bytes(), name
    print(f"PASS [11 determinism] {len(first)} artifacts byte-identical "
          f"across independent runs")
