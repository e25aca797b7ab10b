"""Command line front end: simulate, design, render, evaluate, pipeline.

Each stage reads, computes and writes in one output directory. Artifacts
carry the run digest (a hash of the resolved config plus any input files,
computed once by main) embedded and in manifest.json, so a stage's read,
containers.read_artifacts, refuses artifacts of another configuration.

Stage failures exit with a stage-specific code: 1 config, 2 simulate,
3 design, 4 render, 5 evaluate.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .containers import (canonical_json, load_hrtf, read_artifacts,
                         save_filterbank, update_manifest,
                         write_binaural_spectrogram, write_json, write_wav)
from .evaluate import (EARS, band_summary, broadband, compare, nmse,
                       write_comparison, write_report)
from .geometry import as_directions
from .hrtf import (apply_sh_fit, evaluate_sh, flat_hrtf,
                   point_receiver_channels, point_receiver_hrtf, sh_channels,
                   sh_fit_operator)
from .render import render_estimates
from .simulate import add_noise, binaural_references, max_arrival_delay, \
    render_mic_signals, scene_images, scene_statistics
from .solvers import SolverConfig, design_filterbank
from .sph import spiral_grid
from .stft import istft

EXIT_CODES = {"config": 1, "simulate": 2, "design": 3, "render": 4, "evaluate": 5}

MIC_ARTIFACTS = ("mics_full.wav", "mics_direct.wav")
SIM_ARTIFACTS = MIC_ARTIFACTS + ("reference.bsmg", "reference_direct.bsmg",
                                 "reference.wav", "reference_direct.wav")
BANK_ARTIFACTS = ("bank_direct.bsmf", "bank_reverb.bsmf")
SPECTRO_ARTIFACTS = ("bsm_standard.bsmg", "component_direct.bsmg",
                     "component_reverb.bsmg", "reference.bsmg",
                     "reference_direct.bsmg")
REPORT_ARTIFACTS = ("nmse_direct.csv", "nmse_reverb.csv", "nmse_standard.csv",
                    "nmse_decomposed.csv", "comparison.csv", "verdict.json")


def _hrtf_coeffs(cfg, stft_cfg, keep_order):
    """SH expansion of the configured HRTF model up to `keep_order` at the
    STFT's bins; only those rows of the fit operator are formed and applied.

    For the analytic models the fit operator is built before the responses
    exist, so the fit's SVD and the responses are never held at once; a
    file's directions define the operator, so its set is loaded first.
    """
    design = cfg["design"]
    kind = design["hrtf_kind"]
    if kind == "file":
        base = load_hrtf(design["hrtf_file"], fft_size=stft_cfg.fft_size)
        if int(base.sample_rate) != cfg["sample_rate"]:
            raise ValueError(f"HRTF sample rate {base.sample_rate} does not "
                             f"match the run sample rate {cfg['sample_rate']}")
        measured_on = base.directions
    else:
        measured_on = spiral_grid(design["hrtf_grid_size"])
    operator = sh_fit_operator(design["hrtf_sh_order"], measured_on,
                               keep_order)
    if kind == "flat":
        base = flat_hrtf(stft_cfg, measured_on)
    elif kind == "point":
        base = point_receiver_hrtf(design["hrtf_ear_offset"], stft_cfg,
                                   measured_on)
    return apply_sh_fit(operator, base)


def _reference_channels(cfg, stft_cfg, order):
    """The reference's HRTF channels at min(order, hrtf_sh_order), the
    order a fit would give: in closed form for the analytic models, which
    need no fit, the flat model being the point model with its ears at the
    center, at order 0; a file's set is fitted."""
    design = cfg["design"]
    order = min(order, design["hrtf_sh_order"])
    if design["hrtf_kind"] == "point":
        return point_receiver_channels(design["hrtf_ear_offset"], stft_cfg,
                                       order)
    if design["hrtf_kind"] == "flat":
        return point_receiver_channels(0.0, stft_cfg, 0)
    return sh_channels(_hrtf_coeffs(cfg, stft_cfg, order), order)


def run_simulate(cfg, out_dir, digest):
    scene_cfg = cfg["scene"]
    scene = cfgmod.build_scene(cfg)
    max_order = scene_cfg["max_reflection_order"]
    rir_s = scene_cfg["rir_seconds"]
    fs = cfg["sample_rate"]
    stft_cfg = cfgmod.build_stft_config(cfg)

    # a too-short RIR fails before a file HRTF's fit, and a refused fit
    # before the first write
    max_arrival_delay(scene, rir_s)
    channels = _reference_channels(cfg, stft_cfg,
                                   cfg["design"]["reference_order"])
    images = scene_images(scene, max_order, rir_s)
    stats = scene_statistics(scene, images, rir_s)
    x, x_d = render_mic_signals(scene, images, rir_s)[:2]
    stats["scene_digest"] = digest
    write_json(out_dir / "scene_stats.json", stats)
    # sensor noise belongs to the measurement; the oracle direct component
    # stays clean
    x = add_noise(x, scene.noise_snr, seed=scene.seed + 1)
    write_wav(out_dir / "mics_full.wav", x, fs, digest)
    write_wav(out_dir / "mics_direct.wav", x_d, fs, digest)
    # written; the reference needs neither them nor the per-mic images
    center = images[0]
    del x, x_d, images

    references = binaural_references(
        center, scene.source_signal, channels, stft_cfg, rir_s)
    for name, spec in zip(("reference", "reference_direct"), references):
        write_binaural_spectrogram(out_dir / f"{name}.bsmg", spec, digest)
        write_wav(out_dir / f"{name}.wav", istft(spec), fs, digest)
    update_manifest(out_dir, SIM_ARTIFACTS + ("scene_stats.json",), digest)
    t60 = stats["t60_s"]
    t60_text = f"{t60:.3f} s" if t60 is not None else "n/a"
    drr = stats["drr_db"]
    drr_text = f"{drr:+.2f} dB" if drr is not None else "anechoic"
    print(f"simulate: {stats['image_count']} images, "
          f"drr {drr_text}, t60 {t60_text}")
    return stats


def run_design(cfg, out_dir, digest):
    design = cfg["design"]
    stft_cfg = cfgmod.build_stft_config(cfg)
    geom = cfgmod.build_array(cfg)
    coeffs = _hrtf_coeffs(cfg, stft_cfg, design["hrtf_sh_order"])

    direct_doas = as_directions(design["direct_doa"])
    reverb_doas = spiral_grid(design["reverb_grid_size"])
    # the full-order fit is dead once both DOA sets are evaluated
    hrtf_d, hrtf_r = (evaluate_sh(coeffs, d) for d in (direct_doas, reverb_doas))
    del coeffs

    # the direct bank serves a single known DOA where the plain LS solve is
    # already phase-exact, so MagLS is reserved for the reverberant bank
    direct_cfg = SolverConfig(snr=cfgmod.snr_linear(design["direct_snr_db"]),
                              magls_enabled=False)
    reverb_cfg = SolverConfig(snr=cfgmod.snr_linear(design["reverb_snr_db"]),
                              magls_enabled=design["magls_enabled"],
                              magls_cutoff_hz=design["magls_cutoff_hz"])

    bank_d = design_filterbank(geom, stft_cfg, hrtf_d, direct_cfg, tag="direct")
    bank_r = design_filterbank(geom, stft_cfg, hrtf_r, reverb_cfg,
                               tag="reverberant")
    save_filterbank(out_dir / "bank_direct.bsmf", bank_d, digest)
    save_filterbank(out_dir / "bank_reverb.bsmf", bank_r, digest)
    update_manifest(out_dir, BANK_ARTIFACTS, digest)
    capped = bank_d.magls_capped + bank_r.magls_capped
    # a capped solve still returns its last iterate, a usable filter, so
    # the cap is reported but does not fail the stage
    cap_text = (f", warning: {capped} MagLS bins stopped at the iteration "
                "cap" if capped else "")
    print(f"design: {geom.num_mics} mics, {stft_cfg.num_bins} bins, "
          f"{len(reverb_doas)} coverage directions{cap_text}")
    return bank_d, bank_r


def run_render(cfg, out_dir, digest):
    fs = cfg["sample_rate"]
    stft_cfg = cfgmod.build_stft_config(cfg)
    (full, rate), (direct, rate_d), bank_d, bank_r = read_artifacts(
        out_dir, MIC_ARTIFACTS + BANK_ARTIFACTS, digest, "render")
    for name, r in zip(MIC_ARTIFACTS, (rate, rate_d)):
        if r != fs:
            raise ValueError(f"{name}: sample rate {r} is not {fs}")
    # the estimates' files are named by tag: bsm-standard, bsm_standard.bsmg
    results = {f"{tag.replace('-', '_')}.bsmg": spec for tag, spec in
               render_estimates(full, direct, bank_d, bank_r, stft_cfg).items()}
    del full, direct  # dead once filtered, freed before the WAVs' istft
    for name, spec in results.items():
        write_binaural_spectrogram(out_dir / name, spec, digest)
    write_wav(out_dir / "render_standard.wav",
              istft(results["bsm_standard.bsmg"]), fs, digest)
    # evaluate forms the same sum from the two component files
    write_wav(out_dir / "render_decomposed.wav",
              istft(results["component_direct.bsmg"]
                    + results["component_reverb.bsmg"]), fs, digest)
    names = [*results, "render_standard.wav", "render_decomposed.wav"]
    update_manifest(out_dir, names, digest)
    print(f"render: {len(names)} artifacts, "
          f"{results['bsm_standard.bsmg'].num_frames} frames")
    return results


def near_ear(cfg):
    """Which ear faces the direct source (ears sit on the +/- y axis)."""
    return "left" if np.sin(cfg["design"]["direct_doa"][1]) >= 0 else "right"


def run_evaluate(cfg, out_dir, digest):
    stft_cfg = cfgmod.build_stft_config(cfg)
    trim = cfg["evaluation"]["frame_trim"]

    standard, comp_d, comp_r, ref, ref_d = specs = tuple(read_artifacts(
        out_dir, SPECTRO_ARTIFACTS, digest, "evaluate"))
    for name, spec in zip(SPECTRO_ARTIFACTS, specs):
        if spec.config != stft_cfg:
            raise ValueError(f"{name}: STFT parameters differ from the config")
    # ref - ref_d and the decomposed sum each live for one report only
    reports = {
        "direct": nmse(comp_d, ref_d, trim),
        # all bins flagged when the room is anechoic (no reverberant field)
        "reverb": nmse(comp_r, ref - ref_d, trim),
        "standard": nmse(standard, ref, trim),
        "decomposed": nmse(comp_d + comp_r, ref, trim),
    }
    for name, report in reports.items():
        write_report(out_dir / f"nmse_{name}.csv", report)

    cmp_result = compare(reports["decomposed"], reports["standard"])
    write_comparison(out_dir / "comparison.csv", cmp_result)

    bands = cfgmod.eval_bands(cfg)
    band_dec = band_summary(reports["decomposed"], bands)
    band_std = band_summary(reports["standard"], bands)
    ear_near = near_ear(cfg)
    band_gain = {ear: (band_std[ear] - band_dec[ear]).tolist() for ear in EARS}
    verdict = {
        "scene_digest": digest,
        "broadband_nmse_db": {
            name: {ear: (None if rep.flags[ear].all()
                         else float(broadband(rep, ear))) for ear in EARS}
            for name, rep in reports.items()},
        "improvement_db": cmp_result["broadband_db"],
        "fraction_improved": cmp_result["fraction_improved"],
        "decomposed_beats_standard": bool(
            all(cmp_result["broadband_db"][ear] > 0.0 for ear in EARS)),
        "bands_hz": [[float(lo), float(hi)] for lo, hi in bands],
        "band_improvement_db": band_gain,
        "near_ear": ear_near,
        "near_ear_bands_improved_1db": int(
            sum(1 for g in band_gain[ear_near] if g >= 1.0)),
    }
    write_json(out_dir / "verdict.json", verdict)
    update_manifest(out_dir, REPORT_ARTIFACTS, digest)

    imp = cmp_result["broadband_db"]
    print(f"evaluate: decomposed vs standard {imp['left']:+.2f} dB left, "
          f"{imp['right']:+.2f} dB right")
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
    for stage in runners if args.command == "pipeline" else [args.command]:
        try:
            runners[stage](cfg, args.out, digest)
        except (ValueError, RuntimeError, OSError, MemoryError) as err:
            if isinstance(err, MemoryError) and not str(err):
                err = "out of memory"
            print(f"error [{stage}]: {err}", file=sys.stderr)
            return EXIT_CODES[stage]
    return 0


if __name__ == "__main__":
    sys.exit(main())
