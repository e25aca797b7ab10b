"""Command line front end: simulate, design, render, evaluate, pipeline.

Each stage reads, computes and writes in one output directory. Artifacts
carry the run digest (a hash of the resolved config plus any input files,
computed once by main) embedded and in manifest.json, so a stage's read,
containers.read_artifacts, refuses artifacts of another configuration.
Before it reads anything, a stage drops its own outputs and every later
stage's from the manifest, so none of them outlives a failed or re-run
stage as current.

Stage failures exit with a stage-specific code: 1 config, 2 simulate,
3 design, 4 render, 5 evaluate.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .containers import (BANK_TAGS, canonical_json, load_hrtf,
                         read_artifacts, retract_manifest, save_filterbank,
                         update_manifest, write_binaural_spectrogram,
                         write_json, write_wav)
from .evaluate import (EARS, band_summary, fraction_improved, nmse,
                       weighted_db, write_report)
from .geometry import SPEED_OF_SOUND, as_directions, sph_to_cart
from .hrtf import (evaluate_sh, point_receiver_channels, point_receiver_hrtf,
                   sh_channels, sh_fit_operator)
from .render import render_estimates
from .simulate import add_noise, binaural_references, render_mic_signals, \
    scene_images, scene_statistics
from .solvers import SolverConfig, design_filterbank
from .sph import spiral_grid, steering_tensor

EXIT_CODES = {"config": 1, "simulate": 2, "design": 3, "render": 4, "evaluate": 5}

MIC_ARTIFACTS = ("mics_full.wav", "mics_direct.wav")
SIM_ARTIFACTS = MIC_ARTIFACTS + ("reference.bsmg", "reference_direct.bsmg")
BANK_ARTIFACTS = tuple(BANK_TAGS)  # direct, then reverberant
ESTIMATE_ARTIFACTS = ("component_direct.bsmg", "component_reverb.bsmg",
                      "bsm_standard.bsmg")  # as render_estimates orders them
# in the order evaluate reads them
SPECTRO_ARTIFACTS = ("reference_direct.bsmg", "component_direct.bsmg",
                     "reference.bsmg", "component_reverb.bsmg",
                     "bsm_standard.bsmg")
REPORT_ARTIFACTS = ("nmse_direct.csv", "nmse_reverb.csv", "nmse_standard.csv",
                    "nmse_decomposed.csv", "verdict.json")
# what each stage records in the manifest, in stage order
STAGE_OUTPUTS = {"simulate": SIM_ARTIFACTS + ("scene_stats.json",),
                 "design": BANK_ARTIFACTS, "render": ESTIMATE_ARTIFACTS,
                 "evaluate": REPORT_ARTIFACTS}


def _hrtf_coeffs(cfg, stft_cfg, keep_order):
    """SH expansion of the configured HRTF up to `keep_order` at the STFT's
    bins; only those rows of the fit operator are formed and applied.

    The point model's responses are formed after the fit operator, so the
    fit's SVD never meets them; a file's directions define the operator.
    """
    design = cfg["design"]
    path = design["hrtf_file"]
    measured_on, ears = load_hrtf(path, stft_cfg) if path is not None \
        else (spiral_grid(design["hrtf_grid_size"]), None)
    operator = sh_fit_operator(design["hrtf_sh_order"], measured_on,
                               keep_order)
    if ears is None:
        ears = point_receiver_hrtf(design["hrtf_ear_offset"], stft_cfg,
                                   measured_on)
    return operator @ ears


def _reference_channels(cfg, stft_cfg, order):
    """The reference's HRTF channels at min(order, hrtf_sh_order), the
    order a fit would give: a file's set is fitted, and the point model,
    which needs no fit, is projected on its zonal channels."""
    design = cfg["design"]
    order = min(order, design["hrtf_sh_order"])
    if design["hrtf_file"] is not None:
        return sh_channels(_hrtf_coeffs(cfg, stft_cfg, order), order)
    return point_receiver_channels(design["hrtf_ear_offset"], stft_cfg, order)


def run_simulate(cfg, out_dir, digest):
    scene_cfg = cfg["scene"]
    scene = cfgmod.build_scene(cfg)
    rir_s = scene_cfg["rir_seconds"]
    stft_cfg = cfgmod.build_stft_config(cfg)

    # a refused fit fails before the first write
    images = scene_images(scene, scene_cfg["max_reflection_order"], rir_s)
    channels = _reference_channels(cfg, stft_cfg,
                                   cfg["design"]["reference_order"])
    stats = scene_statistics(scene, images, rir_s)
    x, x_d = render_mic_signals(scene, images, rir_s)[:2]
    stats["scene_digest"] = digest
    write_json(out_dir / "scene_stats.json", stats)
    # sensor noise belongs to the measurement; the oracle direct component
    # stays clean
    x = add_noise(x, cfgmod.snr_linear(scene_cfg["noise_snr_db"]),
                  seed=scene_cfg["seed"] + 1)
    write_wav(out_dir / "mics_full.wav", x, stft_cfg.sample_rate, digest)
    write_wav(out_dir / "mics_direct.wav", x_d, stft_cfg.sample_rate, digest)
    # written; the reference needs neither them nor the per-mic images
    center = images[0]
    del x, x_d, images

    references = binaural_references(
        center, scene.source_signal, channels, stft_cfg, rir_s)
    for name, spec in zip(SIM_ARTIFACTS[2:], references):
        write_binaural_spectrogram(out_dir / name, spec, stft_cfg, digest)
    update_manifest(out_dir, STAGE_OUTPUTS["simulate"], digest)
    t60, drr = stats["t60_s"], stats["drr_db"]
    t60_text = f"{t60:.3f} s" if t60 is not None else "n/a"
    drr_text = f"{drr:+.2f} dB" if drr is not None else "anechoic"
    print(f"simulate: {stats['image_count']} images, "
          f"drr {drr_text}, t60 {t60_text}")
    return stats


def run_design(cfg, out_dir, digest):
    design = cfg["design"]
    stft_cfg = cfgmod.build_stft_config(cfg)
    positions = cfgmod.build_array(cfg)
    coeffs = _hrtf_coeffs(cfg, stft_cfg, design["hrtf_sh_order"])

    direct_doas = as_directions(design["direct_doa"])
    reverb_doas = spiral_grid(design["reverb_grid_size"])
    # the full-order fit is dead once both DOA sets are evaluated
    hrtf_d, hrtf_r = (evaluate_sh(coeffs, d) for d in (direct_doas, reverb_doas))
    del coeffs

    # the direct bank serves a single known DOA where the plain LS solve is
    # already phase-exact, so MagLS is reserved for the reverberant bank
    direct_cfg = SolverConfig(snr=cfgmod.snr_linear(design["direct_snr_db"]))
    reverb_cfg = SolverConfig(snr=cfgmod.snr_linear(design["reverb_snr_db"]),
                              magls_cutoff_hz=design["magls_cutoff_hz"])

    # each bank's steering tensor, built from its DOAs, lives for its design
    ears_d, capped_d = design_filterbank(
        steering_tensor(stft_cfg, positions, direct_doas), hrtf_d, stft_cfg,
        direct_cfg)
    ears_r, capped_r = design_filterbank(
        steering_tensor(stft_cfg, positions, reverb_doas), hrtf_r, stft_cfg,
        reverb_cfg)
    save_filterbank(out_dir / "bank_direct.bsmf", ears_d, direct_cfg,
                    stft_cfg, digest)
    save_filterbank(out_dir / "bank_reverb.bsmf", ears_r, reverb_cfg,
                    stft_cfg, digest)
    update_manifest(out_dir, STAGE_OUTPUTS["design"], digest)
    capped = capped_d + capped_r
    # a capped solve still returns its last iterate, a usable filter, so
    # the cap is reported but does not fail the stage
    cap_text = (f", warning: {capped} MagLS bins stopped at the iteration "
                "cap" if capped else "")
    print(f"design: {len(positions)} mics, {stft_cfg.num_bins} bins, "
          f"{len(reverb_doas)} coverage directions{cap_text}")


def run_render(cfg, out_dir, digest):
    stft_cfg = cfgmod.build_stft_config(cfg)
    estimates = render_estimates(*read_artifacts(
        out_dir, MIC_ARTIFACTS + BANK_ARTIFACTS, digest, "render", stft_cfg),
        stft_cfg)
    for name, spec in zip(ESTIMATE_ARTIFACTS, estimates):
        write_binaural_spectrogram(out_dir / name, spec, stft_cfg, digest)
    update_manifest(out_dir, STAGE_OUTPUTS["render"], digest)
    print(f"render: {len(estimates)} artifacts, {spec.shape[1]} frames")
    return dict(zip(ESTIMATE_ARTIFACTS, estimates))


def near_ear(cfg):
    """Which ear faces the direct source (ears sit on the +/- y axis)."""
    return "left" if np.sin(cfg["design"]["direct_doa"][1]) >= 0 else "right"


def direct_doa_offset_deg(cfg):
    """Degrees from design.direct_doa to the source seen from the array
    center: atan2(|s x u|, s . u), which keeps a match at rounding level."""
    scene = cfg["scene"]
    s = np.subtract(scene["source_position"], scene["array_center"])
    u = sph_to_cart((1.0, *cfg["design"]["direct_doa"]))
    return float(np.degrees(np.arctan2(np.linalg.norm(np.cross(s, u)), s @ u)))


def reference_valid_hz(cfg):
    """Where the reference stops holding the point model's ears: kr <= N
    at the ear offset a gives N c / (2 pi a), N = min(reference_order,
    hrtf_sh_order), at most Nyquist, which the flat model (a = 0) holds at
    order 0. None for a file's set, for which the rule says nothing."""
    design = cfg["design"]
    if design["hrtf_file"] is not None:
        return None
    nyquist = cfg["sample_rate"] / 2
    offset = design["hrtf_ear_offset"]
    if offset == 0:
        return nyquist
    order = min(design["reference_order"], design["hrtf_sh_order"])
    return min(order * SPEED_OF_SOUND / (2 * np.pi * offset), nyquist)


def run_evaluate(cfg, out_dir, digest):
    stft_cfg = cfgmod.build_stft_config(cfg)
    trim = cfg["evaluation"]["frame_trim"]

    # all checked first, then each parsed when first needed, dropped after;
    # a report is nmse's (NMSE, reference energy) pair
    spectra = read_artifacts(out_dir, SPECTRO_ARTIFACTS, digest, "evaluate",
                             stft_cfg)
    ref_d, comp_d = next(spectra), next(spectra)
    reports = {"direct": nmse(comp_d, ref_d, trim)}
    ref = next(spectra)
    ref_r = ref - ref_d
    del ref_d
    comp_r = next(spectra)
    # all bins NaN when the room is anechoic (no reverberant field)
    reports["reverb"] = nmse(comp_r, ref_r, trim)
    del ref_r
    reports["decomposed"] = nmse(comp_d + comp_r, ref, trim)
    del comp_d, comp_r
    reports["standard"] = nmse(next(spectra), ref, trim)

    freqs = stft_cfg.bin_frequencies()
    bands = cfgmod.eval_bands(cfg)
    broadband = {name: weighted_db(*rep) for name, rep in reports.items()}
    band_db = {name: band_summary(*reports[name], freqs, bands)
               for name in ("standard", "decomposed")}
    figures = {(name, "broadband"): db for name, db in broadband.items()}
    figures.update(((name, f"{lo:g}-{hi:g} Hz band"), db)
                   for name, rows in band_db.items()
                   for (lo, hi), db in zip(bands, rows.T))
    for (name, band), db in figures.items():
        if np.isneginf(db).any():
            raise ValueError(
                f"the {name} report's {band} NMSE is 0 in the "
                f"{EARS[np.isneginf(db).argmax()]} ear: an estimate equal to "
                "its reference there has no dB figure")
    gain = broadband["standard"] - broadband["decomposed"]
    band_gain = band_db["standard"] - band_db["decomposed"]
    ear_near = near_ear(cfg)
    valid_hz = reference_valid_hz(cfg)
    verdict = {
        "scene_digest": digest,
        "broadband_nmse_db": {
            name: dict(zip(EARS, np.where(np.isnan(db), None, db).tolist()))
            for name, db in broadband.items()},
        "improvement_db": dict(zip(EARS, gain.tolist())),
        "fraction_improved": dict(zip(EARS, fraction_improved(
            reports["decomposed"][0], reports["standard"][0]).tolist())),
        "decomposed_beats_standard": bool(np.all(gain > 0.0)),
        "bands_hz": [[float(lo), float(hi)] for lo, hi in bands],
        "band_improvement_db": dict(zip(EARS, band_gain.tolist())),
        "near_ear": ear_near,
        "direct_doa_offset_deg": direct_doa_offset_deg(cfg),
        "near_ear_bands_improved_1db": int(
            np.sum(band_gain[EARS.index(ear_near)] >= 1.0)),
        "reference_valid_hz": valid_hz,
        "bands_above_reference_valid_hz": None if valid_hz is None else [
            [float(lo), float(hi)] for lo, hi in bands if hi > valid_hz],
    }
    # the verdict first: write_json refuses a figure that is not finite
    # before any file is opened
    write_json(out_dir / "verdict.json", verdict)
    for name, (linear, _) in reports.items():
        write_report(out_dir / f"nmse_{name}.csv", linear, freqs)
    update_manifest(out_dir, STAGE_OUTPUTS["evaluate"], digest)

    print(f"evaluate: decomposed vs standard {gain[0]:+.2f} dB left, "
          f"{gain[1]:+.2f} dB right")
    return verdict


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="bsmrender",
        description="Binaural rendering from a microphone array, with "
                    "direct/reverberant decomposition and NMSE evaluation.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="YAML file overriding profile defaults")
    common.add_argument("--out", type=Path, required=True,
                        help="artifact directory")
    common.add_argument("--profile", choices=sorted(cfgmod.PROFILES),
                        default="desk", help="base parameter set")
    common.add_argument("--seed", type=int, default=None,
                        help="override scene.seed")
    common.add_argument("--dry-run", action="store_true",
                        help="print the resolved config and exit")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "simulate": "room simulation: mic recordings and binaural references",
        "design": "solve the direct and reverberant filter banks",
        "render": "apply the filter banks to the recordings",
        "evaluate": "NMSE reports and the decomposed-vs-standard verdict",
        "pipeline": "all four stages in order",
    }
    for name, text in helps.items():
        sub.add_parser(name, parents=[common], help=text)
    args = parser.parse_args(argv)

    try:
        cfg = cfgmod.resolve(args.profile, args.config, args.seed)
        digest = cfgmod.run_digest(cfg)
        if not args.dry_run:
            args.out.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as err:
        print(f"error [config]: {err}", file=sys.stderr)
        return EXIT_CODES["config"]

    if args.dry_run:
        print(canonical_json({"command": args.command, "digest": digest,
                              "config": cfg}))
        return 0

    runners = {"simulate": run_simulate, "design": run_design,
               "render": run_render, "evaluate": run_evaluate}
    stages = list(runners)
    for stage in stages if args.command == "pipeline" else [args.command]:
        try:
            # its own and every later stage's outputs are no longer current
            retract_manifest(args.out, sum(
                (STAGE_OUTPUTS[s] for s in stages[stages.index(stage):]), ()))
            runners[stage](cfg, args.out, digest)
        except (ValueError, RuntimeError, OSError, MemoryError) as err:
            if isinstance(err, MemoryError) and not str(err):
                err = "out of memory"
            print(f"error [{stage}]: {err}", file=sys.stderr)
            return EXIT_CODES[stage]
    return 0


if __name__ == "__main__":
    sys.exit(main())
