"""Run configuration: profiles, YAML overrides and strict validation.

A run is fully described by one nested mapping. Profiles provide complete
defaults (desk: small room, short source, fast enough for routine runs;
paper: the full-size experiment geometry); a user config file overrides
individual keys. Unknown keys are rejected so typos cannot silently
change an experiment.
"""

import copy
import math

import numpy as np
import yaml

from .containers import ContainerError, file_sha256, read_wav, scene_digest
from .evaluate import band_bins, check_bands, octave_bands
from .geometry import ArrayGeometry, Direction, semicircle_array, sph_to_cart
from .simulate import (RoomSpec, Scene, reflection_for_t60, signal_length,
                       synth_speech_noise)
from .sph import num_coeffs
from .stft import StftConfig


class ConfigError(ValueError):
    pass


# leaf validators: (predicate, description)
_SCHEMA = {
    "sample_rate": (lambda v: _int(v, 1), "positive int"),
    "scene": {
        "room_dimensions": (lambda v: _vec(v, 3, positive=True), "3 positive numbers"),
        "target_t60_s": (lambda v: v is None or _pos(v), "positive number or null"),
        "reflection_coefficients": (
            lambda v: v is None or _vec(v, 6, lo=0.0, hi=1.0),
            "6 numbers in [0, 1) or null"),
        "source_position": (lambda v: _vec(v, 3), "3 numbers"),
        "source_kind": (lambda v: v in ("speech_noise", "wav"), "speech_noise|wav"),
        "source_duration_s": (lambda v: _pos(v), "positive number"),
        "source_wav": (lambda v: v is None or isinstance(v, str), "path or null"),
        "array_center": (lambda v: _vec(v, 3), "3 numbers"),
        "array_kind": (lambda v: v in ("semicircle", "explicit"),
                       "semicircle|explicit"),
        "array_num_mics": (lambda v: _int(v, 1), "int >= 1"),
        "array_radius": (lambda v: _pos(v), "positive number"),
        "array_mics": (lambda v: v is None or (isinstance(v, list)
                       and all(_vec(m, 3) for m in v)),
                       "list of [radius, colat, azim] or null"),
        "noise_snr_db": (lambda v: v is None or _num(v), "number or null"),
        "rir_seconds": (lambda v: _pos(v), "positive number"),
        "max_reflection_order": (lambda v: _int(v, 0), "int >= 0"),
        "seed": (lambda v: _int(v, 0), "unsigned int"),
    },
    "design": {
        "direct_doa": (lambda v: _vec(v, 2), "[colatitude, azimuth]"),
        "reverb_grid_size": (lambda v: _int(v, 1), "int >= 1"),
        "direct_snr_db": (lambda v: v is None or _num(v),
                          "number or null (null = no regularization)"),
        "reverb_snr_db": (lambda v: v is None or _num(v), "number or null"),
        "magls_enabled": (lambda v: isinstance(v, bool), "bool"),
        "magls_cutoff_hz": (lambda v: _pos(v), "positive number"),
        "hrtf_kind": (lambda v: v in ("point", "flat", "file"),
                      "point|flat|file"),
        "hrtf_ear_offset": (lambda v: _pos(v), "positive number"),
        "hrtf_grid_size": (lambda v: _int(v, 1), "int >= 1"),
        "hrtf_sh_order": (lambda v: _int(v, 0), "int >= 0"),
        "hrtf_file": (lambda v: v is None or isinstance(v, str), "path or null"),
        "reference_order": (lambda v: _int(v, 0), "int >= 0"),
    },
    "stft": {
        "window_ms": (lambda v: _pos(v), "positive number"),
        "hop_ms": (lambda v: _pos(v), "positive number"),
    },
    "evaluation": {
        "bands": (lambda v: v == "octave" or (isinstance(v, list)
                  and all(_vec(b, 2) for b in v)), "octave or [[lo, hi], ...]"),
        "frame_trim": (lambda v: _int(v, 0), "int >= 0"),
    },
}


def _num(v):
    """A finite int or float; YAML's true and false are ints, not numbers."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and (isinstance(v, int) or math.isfinite(v)))


def _int(v, lo):
    return _num(v) and isinstance(v, int) and v >= lo


def _pos(v):
    return _num(v) and v > 0


def _vec(v, n, positive=False, lo=None, hi=None):
    if not (isinstance(v, (list, tuple)) and len(v) == n):
        return False
    for x in v:
        if not _num(x):
            return False
        if positive and x <= 0:
            return False
        if lo is not None and x < lo:
            return False
        if hi is not None and x >= hi:
            return False
    return True


def desk_profile():
    """Small-room default: 2 s source, sub-minute simulation."""
    center = (1.1, 1.05, 1.2)
    doa = (math.pi / 2, math.pi / 6)
    dist = 0.65
    u = sph_to_cart(1.0, Direction(*doa))
    return {
        "sample_rate": 48000,
        "scene": {
            "room_dimensions": [4.0, 3.0, 2.5],
            "target_t60_s": 0.3,
            "reflection_coefficients": None,
            "source_position": [c + dist * ui for c, ui in zip(center, u)],
            "source_kind": "speech_noise",
            "source_duration_s": 2.0,
            "source_wav": None,
            "array_center": list(center),
            "array_kind": "semicircle",
            "array_num_mics": 6,
            "array_radius": 0.07,
            "array_mics": None,
            "noise_snr_db": None,
            "rir_seconds": 0.35,
            # order cap doubles as the late-tail control: pure specular
            # image models decay slower than Eyring predicts, and capping
            # the lattice keeps the measured T60 near the target
            "max_reflection_order": 24,
            "seed": 0,
        },
        "design": {
            "direct_doa": list(doa),
            "reverb_grid_size": 240,
            "direct_snr_db": None,
            "reverb_snr_db": 20.0,
            "magls_enabled": True,
            "magls_cutoff_hz": 1500.0,
            "hrtf_kind": "point",
            "hrtf_ear_offset": 0.0875,
            "hrtf_grid_size": 1600,
            "hrtf_sh_order": 30,
            "hrtf_file": None,
            "reference_order": 14,
        },
        "stft": {"window_ms": 32.0, "hop_ms": 16.0},
        "evaluation": {"bands": "octave", "frame_trim": 2},
    }


def paper_profile():
    """Full-size experiment geometry: 8x5x3 room, T60 0.68 s, 5 s source,
    source 0.54 m from the array center, array radius 0.1 m."""
    cfg = desk_profile()
    cfg["scene"].update({
        "room_dimensions": [8.0, 5.0, 3.0],
        "target_t60_s": 0.68,
        "source_position": [2.47, 2.27, 1.7],
        "source_duration_s": 5.0,
        "array_center": [2.0, 2.0, 1.7],
        "array_radius": 0.1,
        "rir_seconds": 0.8,
        "max_reflection_order": 28,
    })
    return cfg


PROFILES = {"desk": desk_profile, "paper": paper_profile}


def _validate(node, schema, path=""):
    if not isinstance(node, dict):
        raise ConfigError(f"section {path or '<root>'} must be a mapping")
    for key, value in node.items():
        where = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown config key: {where}")
        rule = schema[key]
        if isinstance(rule, dict):
            _validate(value, rule, where)
        else:
            check, expect = rule
            if not check(value):
                raise ConfigError(f"bad value for {where}: {value!r} "
                                  f"(expected {expect})")


def _merge(base, override, path=""):
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"section {where} must be a mapping")
            _merge(base[key], value, where)
        else:
            base[key] = value


def resolve(profile="desk", config_path=None, seed=None):
    """Profile defaults + optional YAML overrides -> validated config dict."""
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}")
    cfg = copy.deepcopy(PROFILES[profile]())
    if config_path is not None:
        with open(config_path) as fh:
            overrides = yaml.safe_load(fh) or {}
        if not isinstance(overrides, dict):
            raise ConfigError("config file must contain a mapping")
        _merge(cfg, overrides)
    if seed is not None:
        cfg["scene"]["seed"] = int(seed)
    _validate(cfg, _SCHEMA)
    scene = cfg["scene"]
    if (scene["target_t60_s"] is None) == (scene["reflection_coefficients"] is None):
        raise ConfigError("set exactly one of scene.target_t60_s and "
                          "scene.reflection_coefficients")
    if scene["source_kind"] == "wav" and not scene["source_wav"]:
        raise ConfigError("scene.source_wav required when source_kind is wav")
    if cfg["design"]["hrtf_kind"] == "file" and not cfg["design"]["hrtf_file"]:
        raise ConfigError("design.hrtf_file required when hrtf_kind is file")
    # the overlap-add rules, the bands' bins, the frames left after the
    # edge trim and the design's fit and cutoff fail here, not in a stage
    nyquist = build_stft_config(cfg).bin_frequencies()[-1]
    eval_bands(cfg)
    _check_frame_trim(cfg)
    design = cfg["design"]
    order, size = design["hrtf_sh_order"], design["hrtf_grid_size"]
    # a file set's direction count is in its header, so design checks its fit
    if design["hrtf_kind"] != "file" and num_coeffs(order) > size:
        raise ConfigError(f"design.hrtf_sh_order {order} needs design."
                          f"hrtf_grid_size >= {num_coeffs(order)}, got {size}")
    if design["magls_enabled"] and design["magls_cutoff_hz"] > nyquist:
        raise ConfigError(f"design.magls_cutoff_hz {design['magls_cutoff_hz']:g}"
                          f" is above the Nyquist frequency {nyquist:g} Hz")
    return cfg


def _check_frame_trim(cfg):
    """Refuse an evaluation.frame_trim that leaves none of the frames of
    the run's spectrograms, counted from the source and RIR lengths as the
    simulator renders them. A wav source is counted from its file, and
    refused here if its sample rate is not the run's; one that does not
    parse is left for simulate, which reads it, to refuse."""
    scene = cfg["scene"]
    if scene["source_kind"] == "wav":
        try:
            data, rate, _ = read_wav(scene["source_wav"])
        except ContainerError:
            return
        if rate != cfg["sample_rate"]:
            raise ConfigError(f"source wav sample rate {rate} != "
                              f"{cfg['sample_rate']}")
        source = data.shape[0]
    else:
        source = _noise_samples(cfg)
    frames = build_stft_config(cfg).num_frames(
        signal_length(source, scene["rir_seconds"], cfg["sample_rate"]))
    trim = cfg["evaluation"]["frame_trim"]
    if frames - 2 * trim < 1:
        raise ConfigError(f"evaluation.frame_trim {trim} leaves no frame: "
                          f"the run has {frames} STFT frames and the trim "
                          f"drops {trim} from each end")


def snr_linear(db_value):
    """dB (or None meaning unregularized) -> linear power ratio."""
    if db_value is None:
        return np.inf
    return 10.0 ** (db_value / 10.0)


def input_hashes(cfg):
    """Content hashes of files the run depends on (source, HRTF)."""
    hashes = {}
    if cfg["scene"]["source_kind"] == "wav":
        hashes["source_wav"] = file_sha256(cfg["scene"]["source_wav"])
    if cfg["design"]["hrtf_kind"] == "file":
        hashes["hrtf_file"] = file_sha256(cfg["design"]["hrtf_file"])
    return hashes


def run_digest(cfg):
    return scene_digest(cfg, input_hashes(cfg))


# ---------------------------------------------------------------- builders

def build_stft_config(cfg):
    window_ms, hop_ms = cfg["stft"]["window_ms"], cfg["stft"]["hop_ms"]
    try:
        return StftConfig.default(cfg["sample_rate"], window_ms, hop_ms)
    except ValueError as err:
        raise ConfigError(f"stft.window_ms {window_ms} with stft.hop_ms "
                          f"{hop_ms}: {err}") from None


def build_room(cfg):
    scene = cfg["scene"]
    if scene["reflection_coefficients"] is not None:
        refl = tuple(scene["reflection_coefficients"])
    else:
        beta = reflection_for_t60(scene["room_dimensions"], scene["target_t60_s"])
        refl = (beta,) * 6
    return RoomSpec(dimensions=tuple(scene["room_dimensions"]),
                    reflection_coefficients=refl)


def build_array(cfg):
    scene = cfg["scene"]
    if scene["array_kind"] == "semicircle":
        return semicircle_array(scene["array_num_mics"], scene["array_radius"],
                                tuple(scene["array_center"]))
    if not scene["array_mics"]:
        raise ConfigError("scene.array_mics required for an explicit array")
    mics = tuple((r, Direction(th, ph)) for r, th, ph in scene["array_mics"])
    return ArrayGeometry(mics=mics, center_position=tuple(scene["array_center"]))


def build_source(cfg):
    scene = cfg["scene"]
    if scene["source_kind"] == "wav":
        # resolve has refused a rate other than the run's
        return np.asarray(read_wav(scene["source_wav"])[0][:, 0], dtype=float)
    return synth_speech_noise(_noise_samples(cfg), cfg["sample_rate"],
                              scene["seed"])


def _noise_samples(cfg):
    """Length of the synthetic speech-shaped noise source."""
    return int(round(cfg["scene"]["source_duration_s"] * cfg["sample_rate"]))


def build_scene(cfg):
    scene = cfg["scene"]
    return Scene(room=build_room(cfg),
                 source_position=tuple(scene["source_position"]),
                 source_signal=build_source(cfg),
                 sample_rate=cfg["sample_rate"],
                 array=build_array(cfg),
                 noise_snr=snr_linear(scene["noise_snr_db"]),
                 seed=scene["seed"])


def direct_direction(cfg):
    th, ph = cfg["design"]["direct_doa"]
    return Direction(th, ph)


def eval_bands(cfg):
    """The evaluation bands on the run's STFT bins: the octave bands that
    hold a bin (a short window's coarse bins miss the lowest ones), or the
    configured bands, each of which must hold one."""
    freqs = build_stft_config(cfg).bin_frequencies()
    bands = cfg["evaluation"]["bands"]
    if bands == "octave":
        return [band for band in octave_bands(upper_hz=cfg["sample_rate"] / 2)
                if band_bins(freqs, band).any()]
    bands = [tuple(b) for b in bands]
    try:
        check_bands(freqs, bands)
    except ValueError as err:
        raise ConfigError(f"evaluation.bands: {err}") from None
    return bands
