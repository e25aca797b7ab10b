"""Profiles, YAML overrides, validation and the config-driven builders."""

import math

import numpy as np
import pytest

from bsmrender.cli import main
from bsmrender.config import (
    _SCHEMA,
    ConfigError,
    build_array,
    build_room,
    build_source,
    build_stft_config,
    direct_direction,
    eval_bands,
    resolve,
    run_digest,
    snr_linear,
)
from bsmrender.simulate import reflection_for_t60


def _write(tmp_path, text, name="override.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_profiles_resolve_clean():
    desk = resolve("desk")
    paper = resolve("paper")
    assert desk["scene"]["room_dimensions"] == [4.0, 3.0, 2.5]
    assert desk["scene"]["target_t60_s"] == 0.3
    assert desk["design"]["magls_enabled"] is True
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


def test_bad_values_rejected(tmp_path):
    with pytest.raises(ConfigError, match="rir_seconds"):
        resolve("desk", _write(tmp_path, "scene:\n  rir_seconds: -0.1\n"))
    # reflection coefficients live in [0, 1); a lossless wall never decays
    text = ("scene:\n  target_t60_s: null\n"
            "  reflection_coefficients: [1.0, 0.5, 0.5, 0.5, 0.5, 0.5]\n")
    with pytest.raises(ConfigError, match="reflection_coefficients"):
        resolve("desk", _write(tmp_path, text))


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


def test_exactly_one_decay_control(tmp_path):
    with pytest.raises(ConfigError, match="exactly one"):
        resolve("desk", _write(tmp_path, "scene:\n  target_t60_s: null\n"))
    text = ("scene:\n"
            "  reflection_coefficients: [0.5, 0.5, 0.5, 0.5, 0.5, 0.5]\n")
    with pytest.raises(ConfigError, match="exactly one"):
        resolve("desk", _write(tmp_path, text))


def test_conditional_requirements(tmp_path):
    with pytest.raises(ConfigError, match="source_wav"):
        resolve("desk", _write(tmp_path, "scene:\n  source_kind: wav\n"))
    with pytest.raises(ConfigError, match="hrtf_file"):
        resolve("desk", _write(tmp_path, "design:\n  hrtf_kind: file\n"))


def _dry_run(tmp_path, capsys, text):
    """Exit code and stderr of a desk `simulate --dry-run` with `text`."""
    code = main(["simulate", "--out", str(tmp_path / "out"), "--config",
                 _write(tmp_path, text), "--dry-run"])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("kind", ["point", "flat"])
def test_hrtf_order_beyond_its_grid_is_a_config_error(kind, tmp_path,
                                                      capsys):
    # order 40 has 1681 coefficients and desk's analytic grid 1600
    # directions: refused before any stage, not by simulate (exit 2) or
    # design (exit 3)
    text = f"design:\n  hrtf_kind: {kind}\n  hrtf_sh_order: 40\n"
    assert _dry_run(tmp_path, capsys, text) == (1, (
        "error [config]: design.hrtf_sh_order 40 needs "
        "design.hrtf_grid_size >= 1681, got 1600\n"))
    # an exactly determined fit resolves
    resolve("desk", _write(tmp_path, f"design:\n  hrtf_kind: {kind}\n"
                                     "  hrtf_sh_order: 39\n"))


def test_hrtf_file_order_is_left_to_the_stage(tmp_path):
    # a file set's direction count is in its header, which design reads
    text = ("design:\n  hrtf_kind: file\n  hrtf_file: set.bsmh\n"
            "  hrtf_grid_size: 1\n  hrtf_sh_order: 40\n")
    assert resolve("desk", _write(tmp_path, text))["design"]["hrtf_sh_order"] == 40


def test_magls_cutoff_above_nyquist_is_a_config_error(tmp_path, capsys):
    text = "design:\n  magls_cutoff_hz: 30000\n"
    assert _dry_run(tmp_path, capsys, text) == (1, (
        "error [config]: design.magls_cutoff_hz 30000 is above the Nyquist "
        "frequency 24000 Hz\n"))
    # Nyquist is the last bin, and a disabled MagLS ignores its cutoff
    resolve("desk", _write(tmp_path, "design:\n  magls_cutoff_hz: 24000\n"))
    resolve("desk", _write(tmp_path, "design:\n  magls_enabled: false\n"
                                     "  magls_cutoff_hz: 30000\n"))


def test_snr_linear():
    assert snr_linear(None) == np.inf
    np.testing.assert_allclose(snr_linear(20.0), 100.0, rtol=1e-12)
    np.testing.assert_allclose(snr_linear(0.0), 1.0, rtol=1e-12)
    np.testing.assert_allclose(snr_linear(-10.0), 0.1, rtol=1e-12)


def test_build_array_semicircle():
    array = build_array(resolve("desk"))
    assert len(array.mics) == 6
    for radius, _ in array.mics:
        assert radius == 0.07
    assert array.center_position == (1.1, 1.05, 1.2)


def test_build_array_explicit(tmp_path):
    text = ("scene:\n  array_kind: explicit\n"
            "  array_mics: [[0.01, 1.5707963, 1.5707963]]\n")
    array = build_array(resolve("desk", _write(tmp_path, text)))
    assert len(array.mics) == 1
    radius, direction = array.mics[0]
    assert radius == 0.01
    np.testing.assert_allclose(direction.azimuth, 1.5707963)
    with pytest.raises(ConfigError, match="array_mics"):
        build_array(resolve("desk",
                            _write(tmp_path, "scene:\n  array_kind: explicit\n",
                                   name="bare.yaml")))


def test_build_room_from_t60():
    cfg = resolve("desk")
    room = build_room(cfg)
    beta = reflection_for_t60([4.0, 3.0, 2.5], 0.3)
    assert room.reflection_coefficients == (beta,) * 6


def test_build_room_explicit_coefficients(tmp_path):
    text = ("scene:\n  target_t60_s: null\n"
            "  reflection_coefficients: [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]\n")
    room = build_room(resolve("desk", _write(tmp_path, text)))
    assert room.reflection_coefficients == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)


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


def test_direct_direction():
    d = direct_direction(resolve("desk"))
    np.testing.assert_allclose(d.colatitude, math.pi / 2)
    np.testing.assert_allclose(d.azimuth, math.pi / 6)


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


# YAML scalars and containers of the wrong kind: a bool, the float
# specials, a string, an int, and empty containers
FUZZ_VALUES = ("true", ".inf", "-.inf", ".nan", '"x"', "5", "[]", "{}")


@pytest.mark.parametrize("key", [".".join(k) for k in _leaf_keys(_SCHEMA)])
def test_schema_fuzz_ends_in_config_error(key, tmp_path, capsys):
    # every leaf value either resolves or is refused as a config error;
    # none ends in a traceback
    *sections, leaf = key.split(".")
    for value in FUZZ_VALUES:
        lines = [f"{'  ' * depth}{name}:" for depth, name in
                 enumerate(sections)]
        lines.append(f"{'  ' * len(sections)}{leaf}: {value}")
        path = _write(tmp_path, "\n".join(lines) + "\n")
        code = main(["simulate", "--out", str(tmp_path / "out"), "--config",
                     path, "--dry-run"])
        err = capsys.readouterr().err
        assert code in (0, 1), (value, code)
        assert (code == 0) == (err == ""), (value, err)
        if code:
            assert err.startswith("error [config]: "), (value, err)
