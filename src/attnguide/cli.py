"""Command-line entry point wiring parsing, generation, checking, ablation."""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .boxes import (
    detect_and_parse,
    rasterize_masks,
    serialize_boxes,
    static_two_box_prior,
    validate_trajectories,
)
from .config import key_values, parse_value, read_text
from .denoiser import ToyDenoiser, ToyModelConfig
from .errors import AttnGuideError, DegenerateAttentionError, InputError, NumericError
from .gradcheck import gradcheck_suites
from .guidance import GuidanceConfig, GuidanceError, run_guided_sampling
from .metrics import (
    DEFAULT_ABLATION_AXES,
    MetricsReport,
    render_heatmap,
    run_ablation,
    summarize_run,
)
from .syntax import extract_pairs, tokenize

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4
EXIT_GRADCHECK = 5


def _fail(code, kind, message):
    print(f"ERROR kind={kind} reason={message}")
    return code


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(out_dir, config, seed, inputs, started, complete=True, extra=None):
    manifest = {
        "version": __version__,
        "config": config,
        "seed": seed,
        "input_digests": {str(p): _digest(p) for p in inputs},
        "started_at": started,
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "complete": complete,
    }
    if extra:
        manifest.update(extra)
    (Path(out_dir) / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _model_from_args(args):
    cfg = ToyModelConfig.from_file(args.model_config) if getattr(args, "model_config", None) \
        else ToyModelConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return ToyDenoiser(cfg)


def _guidance_config(args, total_steps=None):
    cfg = GuidanceConfig.from_file(args.config) if getattr(args, "config", None) \
        else GuidanceConfig()
    if total_steps is not None and cfg.total_steps != total_steps:
        cfg = replace(cfg, total_steps=total_steps)
    return cfg


# -- subcommands ---------------------------------------------------------------


def cmd_parse_prompt(args):
    tokens = tokenize(args.prompt)
    pairs = extract_pairs(tokens)
    for i, tok in enumerate(tokens):
        print(f"token index={i} text={tok.text}")
    for pair in pairs.pairs:
        noun, verb = pair
        negs = ",".join(str(u) for u in sorted(pairs.negatives_for(pair)))
        print(f"pair noun={noun}:{tokens[noun].text} verb={verb}:{tokens[verb].text} "
              f"negatives={negs}")
    return EXIT_OK


def cmd_parse_boxes(args):
    prior = detect_and_parse(read_text(args.file))
    print(f"frames={prior.frame_count} trajectories={len(prior.trajectories)} "
          f"frame_size={prior.frame_width_px}x{prior.frame_height_px} "
          f"background={prior.background_keyword}")
    for w in prior.load_warnings:
        print(f"warning: {w}")
    sys.stdout.write(serialize_boxes(prior))
    return EXIT_OK


def cmd_validate_boxes(args):
    prior = detect_and_parse(read_text(args.file))
    violations = validate_trajectories(prior, max_step_px=args.max_step_px,
                                       allow_offscreen=args.allow_offscreen)
    for v in violations:
        print(f"violation kind={v.kind} subject={v.subject_id} frame={v.frame} {v.message}")
    print(f"violations={len(violations)}")
    return EXIT_OK


def cmd_rasterize(args):
    try:
        grid_h, grid_w = (int(v) for v in args.grid.lower().split("x"))
    except ValueError:
        raise InputError(f"--grid wants HxW, got {args.grid!r}")
    prior = detect_and_parse(read_text(args.file))
    masks = rasterize_masks(prior, grid_h, grid_w)
    for w in masks.warnings:
        print(f"warning: {w}")
    if args.out:
        np.savez(args.out, **{f"s{k}_f{f}": m for (k, f), m in masks.masks.items()})
        print(f"wrote {args.out}")
    else:
        for (sid, f), m in sorted(masks.masks.items()):
            print(f"subject={sid} frame={f}")
            for row in m.astype(int):
                print("".join(str(v) for v in row))
    return EXIT_OK


def cmd_generate(args):
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    prior = detect_and_parse(read_text(args.boxes))
    violations = validate_trajectories(prior, max_step_px=args.max_step_px)
    if violations and not args.force:
        for v in violations:
            print(f"violation kind={v.kind} subject={v.subject_id} frame={v.frame} {v.message}")
        return _fail(EXIT_PARSE, "validation",
                     f"{len(violations)} box violations (use --force to proceed)")

    model = _model_from_args(args)
    config = _guidance_config(args, total_steps=model.config.total_steps)
    seed = args.seed if args.seed is not None else 0
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    result = run_guided_sampling(args.prompt, prior, config, model, seed)

    (out_dir / "trace.jsonl").write_text(result.trace.to_jsonl())
    report = MetricsReport(config_echo={"guidance": asdict(config),
                                        "model": _jsonable(asdict(model.config))})
    row = {"seed": seed, "prompt": args.prompt}
    row.update(summarize_run(result))
    report.add_row(**row)
    (out_dir / "metrics.jsonl").write_text(report.to_jsonl())
    (out_dir / "metrics.txt").write_text(report.table())

    summary = {
        "final_latent_norm": float(np.sqrt((result.final_state.z ** 2).sum())),
        "per_step_latent_norm": [float(np.sqrt((z ** 2).sum())) for z in result.z_trajectory],
        "guidance_records": len(result.trace.records),
    }
    (out_dir / "latent_summary.json").write_text(json.dumps(summary, indent=2) + "\n")

    np.savez(out_dir / "ca_records.npz",
             **{f"step{s}": v for s, v in result.ca_records.items()},
             grid=np.array([model.config.capture_grid, model.config.capture_grid]))

    heat_dir = out_dir / "heatmaps"
    heat_dir.mkdir(exist_ok=True)
    for step, values in sorted(result.ca_records.items()):
        for noun, verb in result.column_pairs.pairs:
            for tok in (noun, verb):
                render_heatmap(values, tok, 0, heat_dir / f"step{step}_tok{tok}.pgm",
                               upscale=args.upscale)

    unguided = config.lambda_sp == 0 and config.lambda_syt == 0
    _write_manifest(out_dir, {"guidance": asdict(config), "model": _jsonable(asdict(model.config))},
                    seed, [args.boxes] + ([args.config] if args.config else []),
                    started, extra={"unguided": unguided, "prompt": args.prompt})
    print(f"ok records={len(result.trace.records)} out={out_dir}")
    return EXIT_OK


def _jsonable(d):
    return {k: (list(map(list, v)) if isinstance(v, tuple) and v and isinstance(v[0], tuple)
                else v) for k, v in d.items()}


def cmd_gradcheck(args):
    failures = []
    for name, err, tol in gradcheck_suites(args.component, args.seed or 0,
                                            corrupt=args.corrupt_gradient):
        status = "ok" if err <= tol else "FAIL"
        print(f"gradcheck {name}: worst_rel_err={err:.3e} tol={tol:.0e} {status}")
        if err > tol:
            failures.append(name)
    if failures:
        return _fail(EXIT_GRADCHECK, "gradcheck", f"failed: {','.join(failures)}")
    return EXIT_OK


def _parse_grid_file(path):
    """Read `axis = v1, v2, ...` lines; values take the type of the axis's config field."""
    axes = {}
    for line_no, key, vals in key_values(path):
        if key not in DEFAULT_ABLATION_AXES:
            raise InputError(f"grid line {line_no}: unknown axis {key!r}")
        cls = ToyModelConfig if key == "ca_capture" else GuidanceConfig
        axes[key] = [parse_value(cls, key, v.strip(), line_no) for v in vals.split(",")]
    return axes


def cmd_ablate(args):
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    axes = _parse_grid_file(args.grid) if args.grid else {}
    seeds = [int(s) for s in args.seeds.split(",")]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = _guidance_config(args)

    mcfg = ToyModelConfig.from_file(args.model_config) if args.model_config \
        else ToyModelConfig(frames=2, latent_h=8, latent_w=8,
                            levels=(("down", 4), ("mid", 2), ("up", 4)),
                            token_budget=16, embed_dim=16)

    def model_factory(ca_capture):
        cfg = mcfg if ca_capture is None else replace(mcfg, ca_capture=ca_capture)
        return ToyDenoiser(cfg)

    prior = detect_and_parse(read_text(args.boxes)) if args.boxes \
        else static_two_box_prior(max(mcfg.frames, 2))

    complete = True
    try:
        report = run_ablation(axes, base, seeds, args.prompt, prior, model_factory,
                              one_at_a_time=not args.cartesian, log=print)
    except KeyboardInterrupt:
        complete = False
        report = MetricsReport()
    (out_dir / "ablation.jsonl").write_text(report.to_jsonl())
    (out_dir / "ablation.txt").write_text(report.table())
    _write_manifest(out_dir, {"axes": {k: [str(v) for v in vs] for k, vs in axes.items()}},
                    seeds, [p for p in (args.grid, args.boxes, args.config) if p],
                    started, complete=complete)
    print(f"ok rows={len(report.rows)} out={out_dir}")
    return EXIT_OK


def cmd_render(args):
    data = np.load(args.run_dir + "/ca_records.npz")
    key = f"step{args.step}"
    if key not in data:
        raise InputError(f"no CA snapshot for step {args.step} in {args.run_dir}")
    render_heatmap(data[key], args.token, args.frame, args.out, upscale=args.upscale)
    print(f"wrote {args.out}")
    return EXIT_OK


# -- argument wiring -----------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(prog="attnguide",
                                     description="Cross-attention guidance toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", default=None, help="guidance config (key = value)")
        p.add_argument("--model-config", default=None, help="model config (key = value)")

    p = sub.add_parser("parse-prompt", help="tokenize and extract noun/verb pairs")
    p.add_argument("prompt")
    p.set_defaults(func=cmd_parse_prompt)

    p = sub.add_parser("parse-boxes", help="parse a box-prior file")
    p.add_argument("file")
    p.set_defaults(func=cmd_parse_boxes)

    p = sub.add_parser("validate-boxes", help="diagnose box trajectories")
    p.add_argument("file")
    p.add_argument("--max-step-px", type=int, default=60)
    p.add_argument("--allow-offscreen", action="store_true")
    p.set_defaults(func=cmd_validate_boxes)

    p = sub.add_parser("rasterize", help="rasterize boxes to attention-grid masks")
    p.add_argument("file")
    p.add_argument("--grid", required=True, help="HxW")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rasterize)

    p = sub.add_parser("generate", help="run guided sampling end to end")
    p.add_argument("prompt")
    p.add_argument("boxes")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--max-step-px", type=int, default=60)
    p.add_argument("--upscale", type=int, default=8)
    common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    p.add_argument("component", choices=["stub", "model", "losses", "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupt-gradient", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="run a config sweep")
    p.add_argument("--grid", default=None, help="grid file (axis = v1, v2, ...)")
    p.add_argument("--seeds", default="0,1")
    p.add_argument("--out", required=True)
    p.add_argument("--cartesian", action="store_true")
    p.add_argument("--prompt", default="a man is walking and a dog is running")
    p.add_argument("--boxes", default=None)
    common(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("render", help="render a CA heatmap from a run directory")
    p.add_argument("run_dir")
    p.add_argument("--token", type=int, required=True)
    p.add_argument("--frame", type=int, default=0)
    p.add_argument("--step", type=int, required=True)
    p.add_argument("--upscale", type=int, default=8)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NumericError, DegenerateAttentionError, GuidanceError) as exc:
        return _fail(EXIT_NUMERIC, "numeric", str(exc))
    except AttnGuideError as exc:
        return _fail(EXIT_PARSE, "parse", str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, "io", str(exc))


if __name__ == "__main__":
    sys.exit(main())
