"""Profiles, YAML overrides, validation and the config-driven builders."""

import math

import numpy as np
import pytest

from bsmrender.cli import direct_doa_offset_deg, main
from bsmrender.config import (
    _SCHEMA,
    ConfigError,
    build_array,
    build_room,
    build_scene,
    build_source,
    build_stft_config,
    eval_bands,
    resolve,
    run_digest,
    snr_linear,
)
from bsmrender.containers import (file_sha256, read_wav, save_hrtf,
                                  scene_digest, write_wav)
from bsmrender.geometry import semicircle_array, sph_to_cart
from bsmrender.simulate import reflection_for_t60
from bsmrender.sph import spiral_grid
from oracles import assert_bits_equal


def _write(tmp_path, text, name="override.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _leaf_yaml(key, value):
    """YAML that sets the dotted `key` to `value`."""
    *sections, leaf = key.split(".")
    lines = [f"{'  ' * depth}{name}:" for depth, name in enumerate(sections)]
    lines.append(f"{'  ' * len(sections)}{leaf}: {value}")
    return "\n".join(lines) + "\n"


def test_profiles_resolve_clean():
    desk = resolve("desk")
    paper = resolve("paper")
    assert desk["scene"]["room_dimensions"] == [4.0, 3.0, 2.5]
    assert desk["scene"]["target_t60_s"] == 0.3
    assert desk["design"]["magls_cutoff_hz"] == 1500.0
    assert paper["scene"]["room_dimensions"] == [8.0, 5.0, 3.0]
    assert paper["scene"]["target_t60_s"] == 0.68
    assert paper["scene"]["array_radius"] == 0.1
    # paper profile keeps the desk design block
    assert paper["design"] == desk["design"]


def test_unknown_profile():
    with pytest.raises(ConfigError):
        resolve("bench")


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown config key: extra"):
        resolve("desk", _write(tmp_path, "extra: 1\n"))
    with pytest.raises(ConfigError, match="scene.typo"):
        resolve("desk", _write(tmp_path, "scene:\n  typo: 2\n"))
    # the merge only merges, and the schema check judges what it made
    for text, message in (("extra: {a: 1}\n", "unknown config key: extra"),
                          ("design: 5\n", "section design must be a mapping"),
                          ("design:\n", "section design must be a mapping")):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            resolve("desk", _write(tmp_path, text))


# the switches that once stood beside the key they switch: one naming
# each input, and MagLS's beside its cutoff
REMOVED_KEYS = {"scene.source_kind": "wav", "scene.array_kind": "explicit",
                "design.hrtf_kind": "flat", "design.magls_enabled": "false"}


@pytest.mark.parametrize("key", sorted(REMOVED_KEYS))
def test_removed_kind_keys_are_unknown(key, tmp_path, capsys):
    # each input is selected by whether its own key is set, and MagLS is on
    # exactly when design.magls_cutoff_hz is set, so a switch is a typo
    # like any other and no set value is ignored
    assert _dry_run(tmp_path, capsys, _leaf_yaml(key, REMOVED_KEYS[key])) \
        == (1, f"error [config]: unknown config key: {key}\n")


def test_set_inputs_are_used(tmp_path):
    # a source WAV, an HRTF file and a microphone list each select
    # themselves: the digest hashes the files and the builders use them
    source, hrtf = tmp_path / "source.wav", tmp_path / "ears.bsmh"
    write_wav(source, np.linspace(-0.5, 0.5, 9600), 48000)
    ir = np.zeros((4, 16))
    save_hrtf(hrtf, spiral_grid(4), ir, ir, 48000)
    text = (f"scene:\n  source_wav: {str(source)!r}\n"
            "  array_mics: [[0.02, 1.5, 0.5], [0.03, 1.0, 2.0]]\n"
            f"design:\n  hrtf_file: {str(hrtf)!r}\n  hrtf_sh_order: 1\n")
    cfg = resolve("desk", _write(tmp_path, text))
    assert run_digest(cfg) == scene_digest(cfg, {
        "source_wav": file_sha256(source), "hrtf_file": file_sha256(hrtf)})
    np.testing.assert_array_equal(build_source(cfg),
                                  read_wav(source)[0][:, 0])
    np.testing.assert_array_equal(
        build_array(cfg), sph_to_cart([[0.02, 1.5, 0.5], [0.03, 1.0, 2.0]]))
    # a file's content moves the digest with the config unchanged
    before = run_digest(cfg)
    save_hrtf(hrtf, spiral_grid(4), ir + 1.0, ir, 48000)
    assert run_digest(cfg) != before


@pytest.mark.parametrize("key, value, message", [
    ("scene.array_num_mics", "100000000000000000000",
     "scene.array_num_mics: Maximum allowed size exceeded"),
    ("stft.window_ms", "1.0e+300",
     "stft.window_ms 1e+300 with stft.hop_ms 16.0: Maximum allowed size "
     "exceeded"),
    # arrays larger than a 47-bit address space: numpy's MemoryError, at
    # once, however the host overcommits memory
    ("scene.array_num_mics", "100000000000000",
     "scene.array_num_mics: Unable to allocate 728. TiB"),
    ("stft.window_ms", "1.0e+12",
     "stft.window_ms 1000000000000.0 with stft.hop_ms 16.0: Unable to "
     "allocate 256. TiB")],
    ids=["array_num_mics", "window_ms", "array_num_mics-memory",
         "window_ms-memory"])
def test_sizes_beyond_memory_name_their_key(key, value, message, tmp_path,
                                            capsys):
    # each once ended in a config error that named no key, or a traceback
    code, err = _dry_run(tmp_path, capsys, _leaf_yaml(key, value))
    assert code == 1
    assert err.startswith(f"error [config]: {message}"), err


@pytest.mark.parametrize("value", ["1.0", "1.0e+300"])
def test_ear_offset_beyond_a_head_is_a_config_error(value, tmp_path, capsys):
    # the point model's ears sit within 1 m of the center: offsets of 1 m
    # and 1e300 m once resolved, and the projection's node count grows
    # with the offset (about 470 nodes at 0.99 m and 48 kHz)
    code, err = _dry_run(tmp_path, capsys,
                         _leaf_yaml("design.hrtf_ear_offset", value))
    assert code == 1
    assert err.startswith(
        "error [config]: bad value for design.hrtf_ear_offset: "), err
    assert err.endswith("(expected number in [0, 1) m)\n"), err


def test_bad_values_rejected(tmp_path):
    with pytest.raises(ConfigError, match="rir_seconds"):
        resolve("desk", _write(tmp_path, "scene:\n  rir_seconds: -0.1\n"))
    # reflection coefficients live in [0, 1); a lossless wall never decays
    text = ("scene:\n  target_t60_s: null\n"
            "  reflection_coefficients: [1.0, 0.5, 0.5, 0.5, 0.5, 0.5]\n")
    with pytest.raises(ConfigError, match="reflection_coefficients"):
        resolve("desk", _write(tmp_path, text))
    # a semicircle needs a microphone
    with pytest.raises(ConfigError,
                       match="bad value for scene.array_num_mics"):
        resolve("desk", _write(tmp_path, "scene:\n  array_num_mics: 0\n"))


def test_numbers_are_finite_and_not_bools(tmp_path):
    # YAML's true/false are Python ints and .inf/.nan are floats; none of
    # them is a number of the schema
    for section, key, value in (("design", "hrtf_sh_order", "true"),
                                ("scene", "array_radius", "true"),
                                ("scene", "max_reflection_order", "false"),
                                ("scene", "noise_snr_db", ".nan"),
                                ("scene", "rir_seconds", ".inf"),
                                ("scene", "source_position", "[1, .nan, 1]"),
                                ("stft", "window_ms", ".inf"),
                                ("scene", "array_mics", "5")):
        text = f"{section}:\n  {key}: {value}\n"
        with pytest.raises(ConfigError, match=f"bad value for {section}.{key}"):
            resolve("desk", _write(tmp_path, text))


def test_override_merges_into_profile(tmp_path):
    text = ("scene:\n  array_radius: 0.05\n"
            "design:\n  reverb_snr_db: 10.0\n")
    cfg = resolve("desk", _write(tmp_path, text))
    assert cfg["scene"]["array_radius"] == 0.05
    assert cfg["design"]["reverb_snr_db"] == 10.0
    # untouched keys keep their profile defaults
    assert cfg["scene"]["array_num_mics"] == 6
    assert cfg["design"]["magls_cutoff_hz"] == 1500.0


def test_seed_parameter_wins(tmp_path):
    cfg = resolve("desk", seed=7)
    assert cfg["scene"]["seed"] == 7
    path = _write(tmp_path, "scene:\n  seed: 3\n")
    assert resolve("desk", path)["scene"]["seed"] == 3
    assert resolve("desk", path, seed=9)["scene"]["seed"] == 9
    # a scene that is not a mapping takes no seed: it is refused by name
    path = _write(tmp_path, "scene: 5\n")
    for seed in (None, 3):
        with pytest.raises(ConfigError, match="^section scene must be a "
                                              "mapping$"):
            resolve("desk", path, seed=seed)


def test_exactly_one_decay_control(tmp_path):
    with pytest.raises(ConfigError, match="exactly one"):
        resolve("desk", _write(tmp_path, "scene:\n  target_t60_s: null\n"))
    text = ("scene:\n"
            "  reflection_coefficients: [0.5, 0.5, 0.5, 0.5, 0.5, 0.5]\n")
    with pytest.raises(ConfigError, match="exactly one"):
        resolve("desk", _write(tmp_path, text))


def _dry_run(tmp_path, capsys, text):
    """Exit code and stderr of a desk `simulate --dry-run` with `text`."""
    code = main(["simulate", "--out", str(tmp_path / "out"), "--config",
                 _write(tmp_path, text), "--dry-run"])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("offset", [0.0875, 0.0], ids=["point", "flat"])
def test_hrtf_order_beyond_its_grid_is_a_config_error(offset, tmp_path,
                                                      capsys):
    # order 40 has 1681 coefficients and desk's analytic grid 1600
    # directions: refused before any stage, not by simulate (exit 2) or
    # design (exit 3)
    text = f"design:\n  hrtf_ear_offset: {offset}\n  hrtf_sh_order: 40\n"
    assert _dry_run(tmp_path, capsys, text) == (1, (
        "error [config]: design.hrtf_sh_order 40 needs "
        "design.hrtf_grid_size >= 1681, got 1600\n"))
    # an exactly determined fit resolves
    resolve("desk", _write(tmp_path, text.replace("order: 40", "order: 39")))


def test_hrtf_file_order_is_left_to_the_stage(tmp_path):
    # set.bsmh does not exist, so resolve has no header to count: the
    # stage that reads the file refuses it
    text = ("design:\n  hrtf_file: set.bsmh\n"
            "  hrtf_grid_size: 1\n  hrtf_sh_order: 40\n")
    assert resolve("desk", _write(tmp_path, text))["design"]["hrtf_sh_order"] == 40


def _hrtf_file_yaml(tmp_path, count, rate):
    """A desk override whose design.hrtf_file holds `count` directions
    sampled at `rate`."""
    path = tmp_path / "ears.bsmh"
    ir = np.zeros((count, 16))
    save_hrtf(path, spiral_grid(count), ir, ir, rate)
    return f"design:\n  hrtf_file: {str(path)!r}\n"


def test_hrtf_file_of_another_rate_is_a_config_error(tmp_path, capsys):
    # read from the header at --dry-run, as a source WAV's rate is, not by
    # simulate (exit 2) or design (exit 3)
    text = _hrtf_file_yaml(tmp_path, 1000, 44100)
    assert _dry_run(tmp_path, capsys, text) == (1, (
        f"error [config]: {tmp_path / 'ears.bsmh'}: sample rate is 44100, "
        "not the run's 48000\n"))


def test_hrtf_file_too_small_for_its_fit_is_a_config_error(tmp_path, capsys):
    # desk's order-30 fit has 961 coefficients: a 500-direction file is
    # refused with the message an analytic grid gets, and 961 resolve
    text = _hrtf_file_yaml(tmp_path, 500, 48000)
    assert _dry_run(tmp_path, capsys, text) == (1, (
        "error [config]: design.hrtf_sh_order 30 needs design.hrtf_file's "
        "direction count >= 961, got 500\n"))
    resolve("desk", _write(tmp_path, _hrtf_file_yaml(tmp_path, 961, 48000)))


def test_hrtf_file_that_does_not_parse_is_left_to_the_stage(tmp_path,
                                                            capsys):
    # a damaged header is simulate's to refuse, as a damaged source WAV is
    text = _hrtf_file_yaml(tmp_path, 500, 48000)
    (tmp_path / "ears.bsmh").write_bytes(b"BSMH")
    assert _dry_run(tmp_path, capsys, text)[0] == 0
    assert main(["simulate", "--out", str(tmp_path / "out"), "--config",
                 _write(tmp_path, text)]) == 2
    assert capsys.readouterr().err == (
        f"error [simulate]: {tmp_path / 'ears.bsmh'}: truncated header\n")


def test_magls_cutoff_above_nyquist_is_a_config_error(tmp_path, capsys):
    text = "design:\n  magls_cutoff_hz: 30000\n"
    assert _dry_run(tmp_path, capsys, text) == (1, (
        "error [config]: design.magls_cutoff_hz 30000 is above the Nyquist "
        "frequency 24000 Hz\n"))
    # Nyquist is the last bin, and a null cutoff has no bin to check
    resolve("desk", _write(tmp_path, "design:\n  magls_cutoff_hz: 24000\n"))
    cfg = resolve("desk", _write(tmp_path, "design:\n  magls_cutoff_hz: null\n"))
    assert cfg["design"]["magls_cutoff_hz"] is None


@pytest.mark.parametrize("section, key", [
    ("scene", "noise_snr_db"), ("design", "direct_snr_db"),
    ("design", "reverb_snr_db")])
@pytest.mark.parametrize("db", [4000, -4000, -3200])
def test_snr_out_of_range_is_a_config_error(section, key, db, tmp_path,
                                            capsys):
    # 10^(dB/10) overflows (a traceback in the stage once), underflows to
    # 0 or is subnormal, so that the solvers' and the noise's 1/ratio is
    # inf: each is refused at --dry-run, not by simulate or design
    text = f"{section}:\n  {key}: {db}\n"
    code, err = _dry_run(tmp_path, capsys, text)
    assert code == 1
    assert err.startswith(f"error [config]: bad value for {section}.{key}: "
                          f"{db} (expected dB or null"), err
    assert err.endswith("10^(dB/10) and its inverse finite)\n"), err
    # the ends of the range resolve
    for edge in (3000, -3000):
        resolve("desk", _write(tmp_path, f"{section}:\n  {key}: {edge}\n"))


@pytest.mark.parametrize("profile", ["desk", "paper"])
def test_direct_doa_points_at_the_source(profile):
    # design.direct_doa is set apart from the scene's positions: the
    # direct bank of each profile must still steer at its own source.
    # Desk's source lies on its DOA, and atan2 keeps that at rounding
    # level where arccos would read about 1e-6 degrees; paper steers at
    # 30 degrees at a source that lies at 29.88
    offset = direct_doa_offset_deg(resolve(profile))
    if profile == "desk":
        assert offset < 1e-12
    else:
        assert offset == pytest.approx(0.124, abs=1e-3)


def test_direct_doa_offset_follows_a_moved_source():
    # a scene override that turns the source 10 degrees in azimuth about
    # the array center leaves the direct bank steering the old way; the
    # verdict's direct_doa_offset_deg says by how much
    cfg = resolve("desk")
    scene = cfg["scene"]
    center = np.array(scene["array_center"])
    turn = math.radians(10.0)
    rot = np.array([[math.cos(turn), -math.sin(turn), 0.0],
                    [math.sin(turn), math.cos(turn), 0.0], [0.0, 0.0, 1.0]])
    source = center + rot @ (np.array(scene["source_position"]) - center)
    scene["source_position"] = source.tolist()
    assert direct_doa_offset_deg(cfg) == pytest.approx(10.0, rel=1e-12)


def test_snr_linear():
    assert snr_linear(None) == np.inf
    np.testing.assert_allclose(snr_linear(20.0), 100.0, rtol=1e-12)
    np.testing.assert_allclose(snr_linear(0.0), 1.0, rtol=1e-12)
    np.testing.assert_allclose(snr_linear(-10.0), 0.1, rtol=1e-12)


def test_build_array_semicircle():
    # mic positions relative to the center, which the scene keeps apart
    cfg = resolve("desk")
    assert_bits_equal(build_array(cfg), semicircle_array(6, 0.07))
    np.testing.assert_array_equal(build_scene(cfg).array_center,
                                  [1.1, 1.05, 1.2])


def test_build_array_explicit(tmp_path):
    text = "scene:\n  array_mics: [[0.01, 1.5707963, 1.5707963]]\n"
    positions = build_array(resolve("desk", _write(tmp_path, text)))
    assert_bits_equal(positions,
                      sph_to_cart([[0.01, 1.5707963, 1.5707963]]))


def test_build_room_from_t60():
    cfg = resolve("desk")
    dims, refl = build_room(cfg)
    beta = reflection_for_t60([4.0, 3.0, 2.5], 0.3)
    np.testing.assert_array_equal(dims, [4.0, 3.0, 2.5])
    np.testing.assert_array_equal(refl, [beta] * 6)


def test_build_room_explicit_coefficients(tmp_path):
    text = ("scene:\n  target_t60_s: null\n"
            "  reflection_coefficients: [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]\n")
    _, refl = build_room(resolve("desk", _write(tmp_path, text)))
    np.testing.assert_array_equal(refl, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])


def test_build_stft_config():
    stft_cfg = build_stft_config(resolve("desk"))
    assert stft_cfg.window_length == 1536
    assert stft_cfg.hop == 768
    assert stft_cfg.fft_size == 2048


def test_build_source_speech_noise():
    cfg = resolve("desk")
    src = build_source(cfg)
    assert src.shape == (96000,)
    np.testing.assert_array_equal(src, build_source(cfg))
    cfg2 = resolve("desk", seed=1)
    assert not np.array_equal(src, build_source(cfg2))


@pytest.mark.parametrize("text, message", [
    ("design: {direct_doa: [4.0, 0.5]}",
     r"design\.direct_doa: colatitude 4\.0 outside \[0, pi\]"),
    ("design: {direct_doa: [-0.1, 0.5]}",
     r"design\.direct_doa: colatitude -0\.1 outside"),
    ("scene: {array_mics: [[-0.05, 1.5, 0.0]]}",
     r"scene\.array_mics: microphone radius must be positive"),
    ("scene: {array_mics: [[0.05, 1.5, 0.0], [0.0, 1.5, 0.0]]}",
     r"scene\.array_mics: microphone radius must be positive"),
    ("scene: {array_mics: [[0.05, 1.5, 0.0], "
     "[0.05, 3.5, 0.0]]}",
     r"scene\.array_mics: colatitude 3\.5 outside \[0, pi\]"),
    ("scene: {array_mics: []}",
     r"scene\.array_mics: array needs one or more"),
], ids=["doa-above-pi", "doa-below-zero", "mic-radius", "mic-radius-zero",
        "mic-colatitude", "no-mics"])
def test_resolve_refuses_bad_direction_rows(tmp_path, text, message):
    # the rows go through the one direction check when the config resolves
    with pytest.raises(ConfigError, match=message):
        resolve("desk", _write(tmp_path, text + "\n"))


def test_resolve_leaves_azimuths_as_written(tmp_path):
    # an azimuth outside [0, 2 pi) is a direction; the config and its digest
    # keep the value as written, and the stages take it mod 2 pi
    text = ("design: {direct_doa: [1.0, -0.5]}\n"
            "scene: {array_mics: [[0.05, 1.5, 7.0]]}\n")
    cfg = resolve("desk", _write(tmp_path, text))
    assert cfg["design"]["direct_doa"] == [1.0, -0.5]
    assert cfg["scene"]["array_mics"] == [[0.05, 1.5, 7.0]]
    np.testing.assert_allclose(build_array(cfg),
                               sph_to_cart([[0.05, 1.5, 7.0 - 2 * math.pi]]))


# a semicircle's and a listed microphone through a wall, and a source on
# the array center and on a microphone, whose direct path would have no
# direction and no finite gain
HALF_PI = repr(math.pi / 2)
BAD_POSITIONS = {
    "semicircle-mic": (
        "scene: {array_center: [0.2, 1.0, 1.0], array_radius: 0.5}",
        "microphone 0 of scene.array_radius [-0.3, 1, 1] is not strictly "
        "inside the 4 x 3 x 2.5 m room"),
    "listed-mic": (
        "scene: {array_center: [1.0, 0.1, 1.0], array_mics: "
        f"[[0.05, {HALF_PI}, 0.0], [0.2, {HALF_PI}, {repr(1.5 * math.pi)}]]}}",
        "microphone 1 of scene.array_mics [1, -0.1, 1] is not strictly "
        "inside the 4 x 3 x 2.5 m room"),
    "source-on-center": (
        "scene: {source_position: [1.1, 1.05, 1.2]}",
        "scene.source_position [1.1, 1.05, 1.2] must not sit on the array "
        "center or a microphone: it is scene.array_center"),
    "source-on-mic": (
        "scene: {source_position: [1.6, 1.05, 1.2], array_mics: "
        f"[[0.25, {HALF_PI}, 1.0], [0.5, {HALF_PI}, 0.0]]}}",
        "scene.source_position [1.6, 1.05, 1.2] must not sit on the array "
        "center or a microphone: it is microphone 1 of scene.array_mics"),
}


@pytest.mark.parametrize("key", sorted(BAD_POSITIONS))
def test_resolve_refuses_positions_that_break_the_scene(key, tmp_path,
                                                        capsys):
    text, message = BAD_POSITIONS[key]
    assert _dry_run(tmp_path, capsys, text + "\n") \
        == (1, f"error [config]: {message}\n")


def test_eval_bands(tmp_path):
    cfg = resolve("desk")
    bands = eval_bands(cfg)
    assert len(bands) == 9
    np.testing.assert_allclose(bands[0][0], 125.0 / math.sqrt(2), rtol=1e-12)
    text = "evaluation:\n  bands: [[100.0, 200.0], [200.0, 400.0]]\n"
    explicit = eval_bands(resolve("desk", _write(tmp_path, text)))
    assert explicit == [(100.0, 200.0), (200.0, 400.0)]


def test_run_digest_sensitivity():
    a = run_digest(resolve("desk"))
    assert len(a) == 16
    assert a == run_digest(resolve("desk"))
    assert a != run_digest(resolve("desk", seed=5))
    assert a != run_digest(resolve("paper"))


def _leaf_keys(schema, path=()):
    for key, rule in schema.items():
        if isinstance(rule, dict):
            yield from _leaf_keys(rule, path + (key,))
        else:
            yield path + (key,)


@pytest.mark.parametrize("profile, digest", [("desk", "0300d830349c448a"),
                                             ("paper", "f0887d55f835ccc1")])
def test_profile_digests_are_pinned(profile, digest):
    # every default and the digest's encoding feed this value: a change
    # to either is deliberate, re-pins it and is stated as such
    assert run_digest(resolve(profile)) == digest


@pytest.mark.parametrize("profile", ["desk", "paper"])
def test_profiles_resolve_to_the_tables_leaves(profile):
    # each leaf is declared once, with its default: a profile holds
    # exactly the table's leaves, so no stage meets a missing key
    assert sorted(_leaf_keys(resolve(profile))) == sorted(_leaf_keys(_SCHEMA))


# YAML scalars and containers of the wrong kind: a bool, the float
# specials, a string, an int, and empty containers
FUZZ_VALUES = ("true", ".inf", "-.inf", ".nan", '"x"', "5", "[]", "{}",
               "1.0e+308")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("key", [".".join(k) for k in _leaf_keys(_SCHEMA)])
def test_schema_fuzz_ends_in_config_error(key, tmp_path, capsys):
    # every leaf value either resolves or is refused as a config error;
    # none ends in a traceback
    for value in FUZZ_VALUES:
        code, err = _dry_run(tmp_path, capsys, _leaf_yaml(key, value))
        assert code in (0, 1), (value, code)
        assert (code == 0) == (err == ""), (value, err)
        if code:
            assert err.startswith("error [config]: "), (value, err)


@pytest.mark.parametrize("key", ["scene.source_duration_s",
                                 "scene.rir_seconds", "stft.window_ms",
                                 "stft.hop_ms"])
def test_duration_too_long_to_count_is_a_config_error(key, tmp_path, capsys):
    # 1e308 s (or ms) at 48 kHz is more samples than a float holds: its
    # count once ended --dry-run and every stage in an OverflowError
    # traceback, and is now refused naming the key, before any directory
    path = _write(tmp_path, _leaf_yaml(key, "1.0e+308"))
    for dry_run in (["--dry-run"], []):
        code = main(["pipeline", "--out", str(tmp_path / "out"), "--config",
                     path, *dry_run])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error [config]: {key} 1e+308 "), err
        assert err.endswith(" is too long to count in samples\n"), err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, message", [
    ("scene: {source_duration_s: 3.0e+303, rir_seconds: 3.0e+303}\n"
     "stft: {window_ms: 0.041666666666666664, "
     "hop_ms: 0.020833333333333332}\n",
     "scene.source_duration_s 3e+303 plus scene.rir_seconds 3e+303 at "
     "48000 Hz is too long to count in samples"),
    ("scene: {array_radius: 1.0e+308}\n",
     "microphone 0 of scene.array_radius [-1e+308, 1.22465e+292, "
     "6.12323e+291] is not strictly inside the 4 x 3 x 2.5 m room")],
    ids=["signal-length", "position"])
def test_overflow_ends_in_one_config_error(text, message, tmp_path, capsys):
    # two durations that each count, with a 2-sample window and a 1-sample
    # hop, once ended in an OverflowError traceback from the frame count,
    # and a microphone at -1e308 m was printed at -inf after numpy's
    # overflow warning
    path = _write(tmp_path, text)
    for dry_run in (["--dry-run"], []):
        code = main(["pipeline", "--out", str(tmp_path / "out"), "--config",
                     path, *dry_run])
        assert (code, capsys.readouterr().err) \
            == (1, f"error [config]: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", [".".join(k) for k in _leaf_keys(_SCHEMA)])
def test_number_beyond_float_range_ends_in_config_error(key, tmp_path,
                                                        capsys):
    # a YAML int that no float holds once passed the schema and ended in
    # an OverflowError traceback; no leaf takes it
    code, err = _dry_run(tmp_path, capsys, _leaf_yaml(key, 10 ** 400))
    assert code == 1
    assert err.startswith(f"error [config]: bad value for {key}: "), err
