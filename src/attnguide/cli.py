"""Command-line entry point wiring parsing, generation, checking, ablation."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import zipfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .boxes import (
    FRAME_H,
    FRAME_W,
    parse_llm_boxes,
    rasterize_masks,
    serialize_boxes,
    static_two_box_prior,
    validate_trajectories,
)
from .config import key_values, parse_value, read_text
from .denoiser import MODEL_CAPS, ToyDenoiser, ToyModelConfig
from .errors import AttnGuideError, DegenerateAttentionError, InputError, NumericError
from .gradcheck import gradcheck_suites
from .guidance import GuidanceConfig, GuidanceError, run_guided_sampling
from .metrics import (
    DEFAULT_ABLATION_AXES,
    AblationInterrupted,
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

# No model level grid exceeds the latent's sides, so no mask grid needs to.
MAX_GRID_SIDE = min(MODEL_CAPS["latent_h"], MODEL_CAPS["latent_w"])


def _fail(code, kind, message):
    print(f"ERROR kind={kind} reason={message}")
    return code


def _print_violations(violations):
    for v in violations:
        print(f"violation kind={v.kind} subject={v.subject_id} frame={v.frame} {v.message}")


def _digest(path):
    import hashlib  # it loads OpenSSL, which only the manifests of generate and ablate need
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _now():
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _fresh_out(path):
    """`--out` as a path, refused unless missing or an empty directory: one run per directory."""
    out = Path(path)
    if out.exists() and not (out.is_dir() and not any(out.iterdir())):
        raise InputError(f"--out {path} exists and is not an empty directory")
    base = next(p for p in out.parents if p.exists())  # under a file: fail before the run
    if not base.is_dir():
        raise NotADirectoryError(f"--out {path} lies under {base}, which is not a directory")
    return out


def _write_manifest(args, started, **fields):
    """`args.out`'s manifest.json: the run's prompt, `fields`, and the digests of the file
    options given, keyed by option name so its bytes do not depend on where the files sit."""
    digests = {k: _digest(getattr(args, k)) for k in ("boxes", "config", "model_config", "grid")
               if getattr(args, k, None)}
    manifest = {"version": __version__, "prompt": args.prompt, "input_digests": digests,
                "started_at": started, "finished_at": _now(), **fields}
    (Path(args.out) / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _configs(args, model):
    """The model and guidance configs of `--model-config` and `--config`; `model` without one."""
    if args.model_config:
        model = ToyModelConfig.from_file(args.model_config)
    return model, GuidanceConfig.from_file(args.config) if args.config else GuidanceConfig()


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
    prior = parse_llm_boxes(read_text(args.file))
    print(f"frames={prior.frame_count} trajectories={len(prior.trajectories)} "
          f"frame_size={FRAME_W}x{FRAME_H} background={prior.background_keyword}")
    for w in prior.load_warnings:
        print(f"warning: {w}")
    sys.stdout.write(serialize_boxes(prior))
    return EXIT_OK


def cmd_validate_boxes(args):
    prior = parse_llm_boxes(read_text(args.file))
    for w in prior.load_warnings:
        print(f"warning: {w}")
    violations = validate_trajectories(prior)
    _print_violations(violations)
    print(f"violations={len(violations)}")
    return EXIT_OK


def cmd_rasterize(args):
    try:
        grid_h, grid_w = (int(v) for v in args.grid.lower().split("x"))
    except ValueError:
        raise InputError(f"--grid wants HxW, got {args.grid!r}")
    if max(grid_h, grid_w) > MAX_GRID_SIDE:
        raise InputError(f"--grid {grid_h}x{grid_w} has a side over {MAX_GRID_SIDE}, "
                         "the largest attention grid")
    prior = parse_llm_boxes(read_text(args.file))
    masks, warnings = rasterize_masks(prior, grid_h, grid_w)
    for w in prior.load_warnings + warnings:
        print(f"warning: {w}")
    if args.out:
        with open(args.out, "wb") as fh:  # a path would gain `.npz`; a handle writes `--out` itself
            np.savez(fh, **{f"s{k}_f{f}": m for k, stack in masks.items()
                            for f, m in enumerate(stack)})
        print(f"wrote {args.out}")
    else:
        for sid in sorted(masks):
            for f, m in enumerate(masks[sid]):
                print(f"subject={sid} frame={f}")
                for row in m.astype(int):
                    print("".join(str(v) for v in row))
    return EXIT_OK


def cmd_generate(args):
    started, out_dir = _now(), _fresh_out(args.out)
    prior = parse_llm_boxes(read_text(args.boxes))
    violations = validate_trajectories(prior)
    if violations and not args.force:
        _print_violations(violations)
        return _fail(EXIT_PARSE, "validation",
                     f"{len(violations)} box violations (use --force to proceed)")

    model_config, config = _configs(args, ToyModelConfig())
    seed = args.seed if args.seed is not None else 0
    model = ToyDenoiser(model_config if args.seed is None else replace(model_config, seed=seed))
    result = run_guided_sampling(args.prompt, prior, config, model, seed)
    configs = {"guidance": asdict(config), "model": asdict(model.config)}
    norms = result.latent_norms  # inf where a latent grew past float range
    if not np.isfinite(norms).all():
        raise NumericError(f"latent norm past float range at step {np.isfinite(norms).argmin() + 1}")
    out_dir.mkdir(parents=True, exist_ok=True)

    (out_dir / "trace.jsonl").write_text(result.trace.to_jsonl())
    (out_dir / "metrics.jsonl").write_text(MetricsReport([summarize_run(result)]).to_jsonl())

    (out_dir / "latent_summary.json").write_text(
        json.dumps({"per_step_latent_norm": norms}, indent=2) + "\n")

    np.savez(out_dir / "ca_records.npz", **{f"step{s}": v for s, v in result.ca_records.items()})

    _write_manifest(args, started, config=configs, seed=seed, complete=True,
                    warnings=result.warnings)
    for w in result.warnings:
        print(f"warning: {w}")
    print(f"ok records={len(result.trace.records)} out={out_dir}")
    return EXIT_OK


def cmd_gradcheck(args):
    failures = []
    for name, err, tol, passed in gradcheck_suites(args.component, args.seed):
        print(f"gradcheck {name}: worst_rel_err={err:.3e} tol={tol:.0e} "
              f"{'ok' if passed else 'FAIL'}")
        if not passed:
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
    started, out_dir = _now(), _fresh_out(args.out)
    axes = _parse_grid_file(args.grid) if args.grid else {}
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        raise InputError(f"--seeds wants comma-separated integers, got {args.seeds!r}")
    if min(seeds) < 0:
        raise InputError(f"--seeds must be non-negative, got {args.seeds!r}")
    if len(set(seeds)) != len(seeds):
        raise InputError(f"--seeds must not repeat a seed, got {args.seeds!r}")
    mcfg, base = _configs(args, ToyModelConfig(frames=2, latent_h=8, latent_w=8,
                                               levels=(("down", 4), ("mid", 2), ("up", 4)),
                                               token_budget=16, embed_dim=16))

    def model_factory(ca_capture):
        cfg = mcfg if ca_capture is None else replace(mcfg, ca_capture=ca_capture)
        return ToyDenoiser(cfg)

    prior = parse_llm_boxes(read_text(args.boxes)) if args.boxes \
        else static_two_box_prior(mcfg.frames)

    complete = True
    try:
        report = run_ablation(axes, base, seeds, args.prompt, prior, model_factory, log=print)
    except AblationInterrupted as exc:
        complete, report = False, exc.report
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "ablation.jsonl").write_text(report.to_jsonl())
    (out_dir / "ablation.txt").write_text(report.table())
    _write_manifest(args, started, seed=seeds, complete=complete, warnings=report.warnings,
                    config={"guidance": asdict(base), "model": asdict(mcfg),
                            "axes": {k: [str(v) for v in vals] for k, vals in axes.items()}})
    print(f"ok rows={len(report.rows)} out={out_dir}")
    return EXIT_OK


def cmd_render(args):
    path = Path(args.run_dir) / "ca_records.npz"
    try:
        with open(path, "rb") as fh, np.load(fh) as data:  # fh closes if np.load rejects it
            values = data.get(f"step{args.step}")
    except (ValueError, TypeError, EOFError, zipfile.BadZipFile) as exc:  # TypeError: lone .npy
        raise InputError(f"{path} is not an npz archive: {exc}") from None
    if values is None:
        raise InputError(f"no CA snapshot for step {args.step} in {args.run_dir}")
    if values.dtype.kind != "f" or values.ndim != 3 or not np.isfinite(values).all():
        raise InputError(f"step{args.step} in {path} is not a finite float [F, N, L] array: "
                         f"{values.dtype} {values.shape}")
    render_heatmap(values, args.token, args.frame, args.out, args.upscale)
    print(f"wrote {args.out}")
    return EXIT_OK


# -- argument wiring -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors: one ERROR line, exit 2."""

    def error(self, message):
        raise InputError(message)


def build_parser():
    parser = _Parser(prog="attnguide", description="Cross-attention guidance toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
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
    p.add_argument("--seed", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    p.add_argument("component", choices=["stub", "model", "losses", "all"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    # no abbreviations, so `--seed` is not taken for `--seeds`
    p = sub.add_parser("ablate", help="run a config sweep", allow_abbrev=False)
    p.add_argument("--grid", default=None, help="grid file (axis = v1, v2, ...)")
    p.add_argument("--seeds", default="0,1")
    p.add_argument("--out", required=True)
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
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not as Python exits
        return code
    except BrokenPipeError:  # stdout is closed, so no ERROR line can be printed either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except (NumericError, DegenerateAttentionError, GuidanceError) as exc:
        return _fail(EXIT_NUMERIC, "numeric", str(exc))
    except AttnGuideError as exc:
        return _fail(EXIT_PARSE, "parse", str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, "io", str(exc))


if __name__ == "__main__":
    sys.exit(main())
