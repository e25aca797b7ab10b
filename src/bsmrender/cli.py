"""Command line front end: simulate, design, render, evaluate, pipeline.

Each stage reads and writes one output directory. Artifacts carry the run
digest (a hash of the resolved config plus any input files) both embedded
and in manifest.json, so a stage refuses to consume artifacts left over
from a different configuration instead of producing quietly wrong output.

Stage failures exit with a stage-specific code: 1 config, 2 simulate,
3 design, 4 render, 5 evaluate.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .containers import (canonical_json, load_filterbank, load_hrtf,
                         read_binaural_spectrogram, read_wav, require_digest,
                         save_filterbank, update_manifest, verify_artifacts,
                         write_binaural_spectrogram, write_json, write_wav)
from .evaluate import (EARS, band_summary, broadband, compare, nmse,
                       write_comparison, write_report)
from .hrtf import (apply_sh_fit, evaluate_sh, flat_hrtf, point_receiver_hrtf,
                   sh_fit_operator)
from .render import apply_filterbank
from .simulate import add_noise, binaural_references, max_arrival_delay, \
    render_mic_signals, scene_images, scene_statistics
from .solvers import SolverConfig, design_filterbank
from .sph import spiral_grid
from .stft import istft, stft

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


def _write_binaural(out_dir, spectra, wavs, fs, digest):
    """Write each binaural spectrogram (file name -> spectrogram) and each
    listenable two-channel WAV (WAV name -> spectrogram). Returns the
    manifest entries."""
    entries = {}
    for name, spec in spectra.items():
        write_binaural_spectrogram(out_dir / name, spec, digest)
        entries[name] = out_dir / name
    for name, spec in wavs.items():
        write_wav(out_dir / name, istft(spec), fs, digest)
        entries[name] = out_dir / name
    return entries


def run_simulate(cfg, out_dir):
    scene_cfg = cfg["scene"]
    digest = cfgmod.run_digest(cfg)
    scene = cfgmod.build_scene(cfg)
    max_order = scene_cfg["max_reflection_order"]
    rir_s = scene_cfg["rir_seconds"]
    fs = cfg["sample_rate"]
    stft_cfg = cfgmod.build_stft_config(cfg)

    # the fit, simulate's peak, runs before the room's arrays exist and
    # forms only the reference's rows; a too-short RIR fails before it
    max_arrival_delay(scene, rir_s)
    ref_order = cfg["design"]["reference_order"]
    hrtf_sh = _hrtf_coeffs(cfg, stft_cfg, ref_order)

    images = scene_images(scene, max_order, rir_s)
    stats = scene_statistics(scene, max_order, rir_s, images)
    stats["scene_digest"] = digest
    write_json(out_dir / "scene_stats.json", stats)

    x, x_d = render_mic_signals(scene, max_order, rir_s, images)[:2]
    # sensor noise belongs to the measurement; the oracle direct component
    # stays clean
    x = add_noise(x, scene.noise_snr, seed=scene.seed + 1)
    write_wav(out_dir / "mics_full.wav", x, fs, digest)
    write_wav(out_dir / "mics_direct.wav", x_d, fs, digest)
    # written; the reference needs neither them nor the per-mic images
    center = images[0]
    del x, x_d, images

    ref, ref_direct = binaural_references(
        center, scene.source_signal, hrtf_sh, stft_cfg, ref_order, rir_s)
    entries = _write_binaural(
        out_dir, {"reference.bsmg": ref, "reference_direct.bsmg": ref_direct},
        {"reference.wav": ref, "reference_direct.wav": ref_direct}, fs, digest)
    entries.update({n: out_dir / n for n in
                    MIC_ARTIFACTS + ("scene_stats.json",)})
    update_manifest(out_dir, entries, digest)
    t60 = stats["t60_s"]
    t60_text = f"{t60:.3f} s" if t60 is not None else "n/a"
    drr = stats["drr_db"]
    drr_text = f"{drr:+.2f} dB" if drr is not None else "anechoic"
    print(f"simulate: {stats['image_count']} images, "
          f"drr {drr_text}, t60 {t60_text}")
    return stats


def run_design(cfg, out_dir):
    digest = cfgmod.run_digest(cfg)
    design = cfg["design"]
    stft_cfg = cfgmod.build_stft_config(cfg)
    geom = cfgmod.build_array(cfg)
    coeffs = _hrtf_coeffs(cfg, stft_cfg, design["hrtf_sh_order"])

    direct_doas = [cfgmod.direct_direction(cfg)]
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
    update_manifest(out_dir, {n: out_dir / n for n in BANK_ARTIFACTS}, digest)
    capped = bank_d.magls_capped + bank_r.magls_capped
    # a capped solve still returns its last iterate, a usable filter, so
    # the cap is reported but does not fail the stage
    cap_text = (f", warning: {capped} MagLS bins stopped at the iteration "
                "cap" if capped else "")
    print(f"design: {geom.num_mics} mics, {stft_cfg.num_bins} bins, "
          f"{len(reverb_doas)} coverage directions{cap_text}")
    return bank_d, bank_r


def _read_current(reader, path, expected_digest):
    """Read a BSMF or BSMG artifact, refusing one from another config."""
    content, embedded = reader(path)
    require_digest(path, embedded, expected_digest)
    return content


def run_render(cfg, out_dir):
    digest = cfgmod.run_digest(cfg)
    verify_artifacts(out_dir, MIC_ARTIFACTS + BANK_ARTIFACTS, digest, "render")
    fs = cfg["sample_rate"]
    stft_cfg = cfgmod.build_stft_config(cfg)

    def load_mics(name, tag):
        data, rate, embedded = read_wav(out_dir / name)
        require_digest(out_dir / name, embedded, digest)
        if rate != fs:
            raise ValueError(f"{name}: sample rate {rate} is not {fs}")
        return stft(np.asarray(data, float), stft_cfg, tag=tag)

    x = load_mics("mics_full.wav", "x")
    x_d = load_mics("mics_direct.wav", "x_d")
    x_r = x - x_d

    bank_d, bank_r = (_read_current(load_filterbank, out_dir / name, digest)
                      for name in BANK_ARTIFACTS)

    results = {
        "component_direct.bsmg": apply_filterbank(bank_d, x_d),
        "component_reverb.bsmg": apply_filterbank(bank_r, x_r),
        "bsm_standard.bsmg": apply_filterbank(bank_r, x),
    }
    # evaluate forms the same sum from the two component files
    decomposed = (results["component_direct.bsmg"]
                  + results["component_reverb.bsmg"])

    entries = _write_binaural(
        out_dir, results, {"render_standard.wav": results["bsm_standard.bsmg"],
                           "render_decomposed.wav": decomposed}, fs, digest)
    update_manifest(out_dir, entries, digest)
    print(f"render: {len(entries)} artifacts, "
          f"{results['bsm_standard.bsmg'].num_frames} frames")
    return results


def near_ear(cfg):
    """Which ear faces the direct source (ears sit on the +/- y axis)."""
    return "left" if np.sin(cfg["design"]["direct_doa"][1]) >= 0 else "right"


def run_evaluate(cfg, out_dir):
    digest = cfgmod.run_digest(cfg)
    verify_artifacts(out_dir, SPECTRO_ARTIFACTS, digest, "evaluate")
    stft_cfg = cfgmod.build_stft_config(cfg)
    trim = cfg["evaluation"]["frame_trim"]

    spec = {name: _read_current(read_binaural_spectrogram, out_dir / name,
                                digest) for name in SPECTRO_ARTIFACTS}
    for name, s in spec.items():
        if s.config != stft_cfg:
            raise ValueError(f"{name}: STFT parameters differ from the config")
    ref = spec["reference.bsmg"]
    ref_direct = spec["reference_direct.bsmg"]
    ref_reverb = ref - ref_direct

    meta = {"scene_digest": digest}
    decomposed = spec["component_direct.bsmg"] + spec["component_reverb.bsmg"]
    reports = {
        "direct": nmse(spec["component_direct.bsmg"], ref_direct, trim, meta),
        # all bins flagged when the room is anechoic (no reverberant field)
        "reverb": nmse(spec["component_reverb.bsmg"], ref_reverb, trim, meta),
        "standard": nmse(spec["bsm_standard.bsmg"], ref, trim, meta),
        "decomposed": nmse(decomposed, ref, trim, meta),
    }
    entries = {}
    for name, report in reports.items():
        fname = f"nmse_{name}.csv"
        write_report(out_dir / fname, report)
        entries[fname] = out_dir / fname

    cmp_result = compare(reports["decomposed"], reports["standard"])
    write_comparison(out_dir / "comparison.csv", cmp_result)
    entries["comparison.csv"] = out_dir / "comparison.csv"

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
    entries["verdict.json"] = out_dir / "verdict.json"
    update_manifest(out_dir, entries, digest)

    imp = cmp_result["broadband_db"]
    print(f"evaluate: decomposed vs standard {imp['left']:+.2f} dB left, "
          f"{imp['right']:+.2f} dB right")
    return verdict


def _stage_plan(command):
    if command == "pipeline":
        return ("simulate", "design", "render", "evaluate")
    return (command,)


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
    except (ValueError, OSError) as err:
        print(f"error [config]: {err}", file=sys.stderr)
        return EXIT_CODES["config"]

    if args.dry_run:
        print(canonical_json({"command": args.command, "digest": digest,
                              "config": cfg}))
        return 0

    args.out.mkdir(parents=True, exist_ok=True)
    runners = {
        "simulate": lambda: run_simulate(cfg, args.out),
        "design": lambda: run_design(cfg, args.out),
        "render": lambda: run_render(cfg, args.out),
        "evaluate": lambda: run_evaluate(cfg, args.out),
    }
    for stage in _stage_plan(args.command):
        try:
            runners[stage]()
        except (ValueError, RuntimeError, OSError, MemoryError) as err:
            if isinstance(err, MemoryError) and not str(err):
                err = "out of memory"
            print(f"error [{stage}]: {err}", file=sys.stderr)
            return EXIT_CODES[stage]
    return 0


if __name__ == "__main__":
    sys.exit(main())
