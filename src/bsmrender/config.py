"""Run configuration: profiles, YAML overrides and strict validation.

A run is fully described by one nested mapping. Profiles provide complete
defaults (desk: small room, short source, fast enough for routine runs;
paper: the full-size experiment geometry); a user config file overrides
individual keys. Unknown keys are rejected so typos cannot silently
change an experiment.
"""

import copy
import math
import sys

import numpy as np
import yaml

from .containers import (file_sha256, read_hrtf_header, read_wav,
                         scene_digest)
from .evaluate import band_bins, check_bands, octave_bands
from .geometry import as_directions, semicircle_array, sph_to_cart
from .simulate import (Scene, check_positions, max_arrival_delay,
                       reflection_for_t60, signal_length, synth_speech_noise)
from .sph import num_coeffs
from .stft import StftConfig


class ConfigError(ValueError):
    pass


def _num(v):
    """An int or float that converts to a finite float; YAML's true and
    false are ints, not numbers."""
    try:
        return (isinstance(v, (int, float)) and not isinstance(v, bool)
                and math.isfinite(v))
    except OverflowError:  # an int beyond float range
        return False


def _int(v, lo):
    return _num(v) and isinstance(v, int) and v >= lo


def _pos(v):
    return _num(v) and v > 0


def _snr_db(v):
    """dB whose power ratio is finite and positive and, as the solvers and
    the noise divide by it, not so small that its inverse is inf."""
    try:
        return _num(v) and math.isfinite(1.0 / snr_linear(v))
    except (OverflowError, ZeroDivisionError):
        return False


def _path(v):
    return v is None or (isinstance(v, str) and v != "")


def _vec(v, n, positive=False, lo=None, hi=None):
    """n numbers, each positive and in [lo, hi) when those are given."""
    return (isinstance(v, (list, tuple)) and len(v) == n
            and all(_num(x) and not (positive and x <= 0)
                    and (lo is None or x >= lo) and (hi is None or x < hi)
                    for x in v))


# the desk source sits 0.65 m from the array center at the direct DOA
_DESK_CENTER = (1.1, 1.05, 1.2)
_DESK_DOA = (math.pi / 2, math.pi / 6)

# every config leaf, declared once: (desk default, check, what the check
# wants); desk_profile reads its defaults off this table, and _validate
# its checks
_SCHEMA = {
    "sample_rate": (48000, lambda v: _int(v, 1), "positive int"),
    "scene": {
        "room_dimensions": ([4.0, 3.0, 2.5],
                            lambda v: _vec(v, 3, positive=True),
                            "3 positive numbers"),
        "target_t60_s": (0.3, lambda v: v is None or _pos(v),
                         "positive number or null"),
        "reflection_coefficients": (
            None, lambda v: v is None or _vec(v, 6, lo=0.0, hi=1.0),
            "6 numbers in [0, 1) or null"),
        "source_position": (
            [c + 0.65 * u for c, u in
             zip(_DESK_CENTER, sph_to_cart((1.0, *_DESK_DOA)))],
            lambda v: _vec(v, 3), "3 numbers"),
        "source_duration_s": (2.0, _pos, "positive number"),
        "source_wav": (None, _path, "non-empty path or null"),
        "array_center": (list(_DESK_CENTER), lambda v: _vec(v, 3),
                         "3 numbers"),
        "array_num_mics": (6, lambda v: _int(v, 1), "int >= 1"),
        "array_radius": (0.07, _pos, "positive number"),
        "array_mics": (None, lambda v: v is None or (
                           isinstance(v, list) and all(_vec(m, 3) for m in v)),
                       "list of [radius, colat, azim] or null"),
        "noise_snr_db": (None, lambda v: v is None or _snr_db(v),
                         "dB or null, 10^(dB/10) and its inverse finite"),
        "rir_seconds": (0.35, _pos, "positive number"),
        # order cap doubles as the late-tail control: pure specular
        # image models decay slower than Eyring predicts, and capping
        # the lattice keeps the measured T60 near the target
        "max_reflection_order": (24, lambda v: _int(v, 0), "int >= 0"),
        "seed": (0, lambda v: _int(v, 0), "unsigned int"),
    },
    "design": {
        "direct_doa": (list(_DESK_DOA), lambda v: _vec(v, 2),
                       "[colatitude, azimuth]"),
        "reverb_grid_size": (240, lambda v: _int(v, 1), "int >= 1"),
        "direct_snr_db": (None, lambda v: v is None or _snr_db(v),
                          "dB or null (null = the Tikhonov floor alone), "
                          "10^(dB/10) and its inverse finite"),
        "reverb_snr_db": (20.0, lambda v: v is None or _snr_db(v),
                          "dB or null, 10^(dB/10) and its inverse finite"),
        "magls_cutoff_hz": (1500.0, lambda v: v is None or _pos(v),
                            "positive number or null (null = no MagLS)"),
        "hrtf_ear_offset": (0.0875, lambda v: _num(v) and 0 <= v < 1,
                            "number in [0, 1) m"),
        "hrtf_grid_size": (1600, lambda v: _int(v, 1), "int >= 1"),
        "hrtf_sh_order": (30, lambda v: _int(v, 0), "int >= 0"),
        "hrtf_file": (None, _path, "non-empty path or null"),
        "reference_order": (14, lambda v: _int(v, 0), "int >= 0"),
    },
    "stft": {
        "window_ms": (32.0, _pos, "positive number"),
        "hop_ms": (16.0, _pos, "positive number"),
    },
    "evaluation": {
        "bands": ("octave", lambda v: v == "octave" or (
                      isinstance(v, list) and all(_vec(b, 2) for b in v)),
                  "octave or [[lo, hi], ...]"),
        "frame_trim": (2, lambda v: _int(v, 0), "int >= 0"),
    },
}


def _defaults(schema):
    return {key: _defaults(rule) if isinstance(rule, dict)
            else copy.deepcopy(rule[0]) for key, rule in schema.items()}


def desk_profile():
    """Small-room default: 2 s source, sub-minute simulation."""
    return _defaults(_SCHEMA)


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
            _, check, expect = rule
            if not check(value):
                raise ConfigError(f"bad value for {where}: {value!r} "
                                  f"(expected {expect})")


def _merge(base, override):
    """A mapping merges into a mapping, any other value replaces the old."""
    for key, value in override.items():
        if isinstance(base.get(key), dict) and isinstance(value, dict):
            _merge(base[key], value)
        else:
            base[key] = value


def resolve(profile="desk", config_path=None, seed=None):
    """Profile defaults + optional YAML overrides -> validated config dict."""
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}")
    cfg = PROFILES[profile]()
    if config_path is not None:
        with open(config_path) as fh:
            try:
                overrides = yaml.safe_load(fh) or {}
            except yaml.YAMLError as err:
                raise ConfigError(f"{config_path}: {_yaml_problem(err)}") \
                    from None
        if not isinstance(overrides, dict):
            raise ConfigError("config file must contain a mapping")
        _merge(cfg, overrides)
    if seed is not None and isinstance(cfg["scene"], dict):
        cfg["scene"]["seed"] = int(seed)
    _validate(cfg, _SCHEMA)
    scene = cfg["scene"]
    if (scene["target_t60_s"] is None) == (scene["reflection_coefficients"] is None):
        raise ConfigError("set exactly one of scene.target_t60_s and "
                          "scene.reflection_coefficients")
    # a duration the run reads whose sample count overflows a float has no
    # count: refused before build_stft_config or signal_length rounds it
    rate = cfg["sample_rate"]
    source = () if scene["source_wav"] else (("scene", "source_duration_s"),)
    for section, leaf in source + (("scene", "rir_seconds"),
                                   ("stft", "window_ms"), ("stft", "hop_ms")):
        if math.isinf(cfg[section][leaf] * rate):
            raise ConfigError(f"{section}.{leaf} {cfg[section][leaf]:g} at "
                              f"{rate} Hz is too long to count in samples")
    # the overlap-add rules, the bands' bins, the frames left after the
    # edge trim, the direct DOA, the microphone rows, the positions in the
    # room, the RIR's reach, the HRTF set's rate, taps and fit and the
    # design's cutoff fail here, not in a stage
    nyquist = build_stft_config(cfg).bin_frequencies()[-1]
    eval_bands(cfg)
    _check_frame_trim(cfg)
    design = cfg["design"]
    try:
        as_directions(design["direct_doa"])
    except ValueError as err:
        raise ConfigError(f"design.direct_doa: {err}") from None
    try:  # the positions need the walls, not what they reflect
        mics = build_array(cfg)
        check_positions(scene["room_dimensions"], scene["source_position"],
                        scene["array_center"], mics,
                        "scene.array_mics" if scene["array_mics"] is not None
                        else "scene.array_radius")
        max_arrival_delay(scene["source_position"], scene["array_center"],
                          mics, rate, scene["rir_seconds"])
    except ValueError as err:  # build_array's ConfigError passes as it is
        raise ConfigError(str(err)) from None
    # a file's header is read_hrtf_header's to refuse, its body the stage's
    order, size = design["hrtf_sh_order"], design["hrtf_grid_size"]
    where, path = "design.hrtf_grid_size", design["hrtf_file"]
    if path is not None:
        size, _ = read_hrtf_header(path, build_stft_config(cfg))
        where = "design.hrtf_file's direction count"
    if num_coeffs(order) > size:
        raise ConfigError(f"design.hrtf_sh_order {order} needs {where} >= "
                          f"{num_coeffs(order)}, got {size}")
    cutoff = design["magls_cutoff_hz"]
    if cutoff is not None and cutoff > nyquist:
        raise ConfigError(f"design.magls_cutoff_hz {cutoff:g} is above the "
                          f"Nyquist frequency {nyquist:g} Hz")
    return cfg


def _yaml_problem(err):
    """yaml's problem and where it found it, 1-based, on one line."""
    mark = getattr(err, "problem_mark", None)
    if mark is None:
        return " ".join(str(err).split())
    return f"{err.problem} at line {mark.line + 1}, column {mark.column + 1}"


def _check_frame_trim(cfg):
    """Refuse an evaluation.frame_trim that leaves none of the frames of
    the run's spectrograms, counted from the source and RIR lengths as the
    simulator renders them, a signal too long to count them, and a
    synthetic source of under 2 samples, which has no band but DC to
    shape. A wav source is counted from its file, and refused here if it
    does not parse (read_wav's ContainerError), its sample rate is not the
    run's, or the channel the run reads has a sample that is not finite or
    none that is nonzero, which would leave evaluate no band with
    energy."""
    scene = cfg["scene"]
    if scene["source_wav"] is not None:
        data, rate, _ = read_wav(scene["source_wav"])
        if rate != cfg["sample_rate"]:
            raise ConfigError(f"source wav sample rate {rate} != "
                              f"{cfg['sample_rate']}")
        bad = np.flatnonzero(~np.isfinite(data[:, 0]))
        if bad.size:
            raise ConfigError(f"source wav sample {bad[0]} is "
                              f"{data[bad[0], 0]}, not a finite number")
        if not np.any(data[:, 0]):
            raise ConfigError(f"scene.source_wav {scene['source_wav']}: the "
                              "source has no nonzero sample")
        source = data.shape[0]
    else:
        source = _noise_samples(cfg)
        if source < 2:
            raise ConfigError(
                "scene.source_duration_s: the synthetic source needs at least "
                f"2 samples, and {scene['source_duration_s']:g} s at "
                f"{cfg['sample_rate']} Hz gives {source}")
    samples = signal_length(source, scene["rir_seconds"], cfg["sample_rate"])
    if samples > sys.float_info.max:  # num_frames divides it as a float
        raise ConfigError(
            f"scene.source_duration_s {scene['source_duration_s']:g} plus "
            f"scene.rir_seconds {scene['rir_seconds']:g} at "
            f"{cfg['sample_rate']} Hz is too long to count in samples")
    frames = build_stft_config(cfg).num_frames(samples)
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
    return {key: file_sha256(cfg[section][key]) for section, key in
            (("scene", "source_wav"), ("design", "hrtf_file"))
            if cfg[section][key] is not None}


def run_digest(cfg):
    return scene_digest(cfg, input_hashes(cfg))


# ---------------------------------------------------------------- builders

def build_stft_config(cfg):
    window_ms, hop_ms = cfg["stft"]["window_ms"], cfg["stft"]["hop_ms"]
    try:
        stft_cfg = StftConfig.default(cfg["sample_rate"], window_ms, hop_ms)
        stft_cfg.bin_frequencies()  # a window whose bins no array can hold
        return stft_cfg
    except (ValueError, MemoryError) as err:
        raise ConfigError(f"stft.window_ms {window_ms} with stft.hop_ms "
                          f"{hop_ms}: {err}") from None


def build_room(cfg):
    """The room: its (3,) dimensions and (6,) reflection coefficients."""
    scene = cfg["scene"]
    dims = np.array(scene["room_dimensions"], float)
    refl = scene["reflection_coefficients"]
    if refl is None:
        refl = [reflection_for_t60(dims, scene["target_t60_s"])] * 6
    return dims, np.array(refl, float)


def build_array(cfg):
    """The (M, 3) mic positions relative to scene.array_center: the
    semicircle's, or sph_to_cart of the scene.array_mics rows, each radius
    positive and each colatitude in [0, pi], azimuths taken mod 2 pi."""
    scene = cfg["scene"]
    mics = scene["array_mics"]
    try:
        if mics is None:
            return semicircle_array(scene["array_num_mics"],
                                    scene["array_radius"])
        rows = np.array(mics, dtype=float, ndmin=2)
        if rows.size == 0:
            raise ValueError("array needs one or more (radius, colatitude, "
                             "azimuth) rows")
        if not np.all(rows[:, 0] > 0):  # the schema holds each one finite
            raise ValueError("microphone radius must be positive and finite")
        rows[:, 1:] = as_directions(rows[:, 1:])
        return sph_to_cart(rows)
    except (ValueError, MemoryError) as err:
        key = "array_mics" if mics is not None else "array_num_mics"
        raise ConfigError(f"scene.{key}: {err}") from None


def build_source(cfg):
    scene = cfg["scene"]
    if scene["source_wav"] is not None:
        # resolve has refused a rate other than the run's
        return np.asarray(read_wav(scene["source_wav"])[0][:, 0], dtype=float)
    return synth_speech_noise(_noise_samples(cfg), cfg["sample_rate"],
                              scene["seed"])


def _noise_samples(cfg):
    """Length of the synthetic speech-shaped noise source."""
    return int(round(cfg["scene"]["source_duration_s"] * cfg["sample_rate"]))


def build_scene(cfg):
    scene = cfg["scene"]
    return Scene(*build_room(cfg),
                 source_position=np.array(scene["source_position"], float),
                 source_signal=build_source(cfg),
                 array_center=np.array(scene["array_center"], float),
                 mic_positions=build_array(cfg),
                 sample_rate=cfg["sample_rate"])


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
