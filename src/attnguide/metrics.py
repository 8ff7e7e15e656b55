"""Attention-level proxy metrics, heatmap rendering, and the ablation runner.

These stand in for video-level scoring: in-box attention mass, connected
high-attention components (a measurable proxy for subject count), and
noun/verb map alignment.  Heatmaps are written as binary PGM so golden
files stay byte-exact without an image dependency.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import Tensor
from .errors import ContractError, InputError
from .guidance import (
    KL_SYM,
    GuidanceConfig,
    GuidanceError,
    in_box_ratios,
    loss_pos,
    prepare_inputs,
    run_guided_sampling,
)


def _square_map(ca, token_index, frame):
    """One token/frame column of [F, N, L] values as its side x side grid."""
    F, _, L = ca.shape
    if not (0 <= token_index < L and 0 <= frame < F):
        raise ContractError(f"token {token_index} frame {frame} outside the "
                            f"{L} columns and {F} frames of the CA maps")
    col = ca[frame, :, token_index]
    side = math.isqrt(col.size)
    if side == 0 or side * side != col.size:
        raise ContractError(f"{col.size} pixels do not form a square grid")
    return col.reshape(side, side)


def count_components(ca, token_index, frame):
    """Count 4-connected components of the map binarized at half its max."""
    grid = _square_map(ca, token_index, frame)
    rows, cols = np.nonzero(grid >= 0.5 * grid.max())
    unseen = set(zip(rows.tolist(), cols.tolist()))
    n = 0
    while unseen:  # flood-fill one component per pass
        n += 1
        stack = [unseen.pop()]
        while stack:
            r, c = stack.pop()
            for cell in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if cell in unseen:  # cells off the grid are never in the set
                    unseen.remove(cell)
                    stack.append(cell)
    return n


def verb_noun_alignment(ca, pair):
    """Frame-mean symmetric KL between a pair's noun and verb maps (lower is better)."""
    # spelled out, so the metric does not follow changes to GuidanceConfig's default
    return loss_pos(Tensor(ca), pair, GuidanceConfig(distance=KL_SYM)).item()


def render_heatmap(ca, token_index, frame, out_path, upscale):
    """Write one token/frame map as an 8-bit binary PGM (P5), min-max scaled.

    A constant map renders as all zeros by convention.  Output bytes are
    deterministic for fixed inputs.
    """
    if upscale < 1:
        raise ContractError("upscale must be >= 1")
    grid = _square_map(ca, token_index, frame)
    side = grid.shape[0] * upscale
    if side > 65535:
        raise InputError(f"upscale {upscale} makes a heatmap side over 65535 px")
    lo, hi = grid.min(), grid.max()
    if not math.isfinite(float(hi) - float(lo)):  # a range past the float range: halve it all
        grid, lo, hi = grid / 2, lo / 2, hi / 2
    if hi > lo:
        img = np.rint((grid - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        img = np.zeros_like(grid, dtype=np.uint8)
    try:
        with open(out_path, "wb") as fh:
            fh.write(f"P5\n{side} {side}\n255\n".encode("ascii"))
            for row in img:  # one upscaled row held at a time: the image can be gigabytes
                fh.writelines([np.repeat(row, upscale).tobytes()] * upscale)
    except OSError as exc:
        raise IOError(f"cannot write heatmap to {out_path}: {exc}") from exc
    return out_path


@dataclass
class MetricsReport:
    rows: list  # list of flat dicts; the run's configuration is in its manifest.json
    warnings: list = field(default_factory=list, init=False)  # a sweep's; to_jsonl omits them

    def to_jsonl(self):
        """One JSON object per row."""
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in self.rows)

    @classmethod
    def from_jsonl(cls, text):
        return cls([json.loads(ln) for ln in text.splitlines() if ln.strip()])

    def table(self):
        """Human-readable aligned-column rendering of the rows."""
        if not self.rows:
            return "(no rows)\n"
        keys = sorted({k for r in self.rows for k in r})
        cells = [[_fmt(r.get(k, "")) for k in keys] for r in self.rows]
        widths = [max(len(k), *(len(c[i]) for c in cells)) for i, k in enumerate(keys)]
        lines = ["  ".join(k.ljust(w) for k, w in zip(keys, widths))]
        for c in cells:
            lines.append("  ".join(v.ljust(w) for v, w in zip(c, widths)))
        return "\n".join(lines) + "\n"


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def summarize_run(result):
    """Per-run proxy metrics from a SamplingResult's CA snapshots."""
    cfg = result.config
    nouns = [noun for noun, _ in result.column_pairs.pairs]
    out = {}
    for label, step in (("t1", cfg.t1), ("t2", cfg.t2), ("final", cfg.total_steps)):
        values = result.ca_records.get(step)
        if values is None:
            continue
        ratios = in_box_ratios(values, result.masks, nouns)
        aligns = [verb_noun_alignment(values, pair) for pair in result.column_pairs.pairs]
        comps = [count_components(values, noun, 0) for noun in nouns]
        out[f"mean_in_box_ratio_{label}"] = float(np.mean(ratios))
        out[f"mean_alignment_{label}"] = float(np.mean(aligns))
        out[f"mean_components_{label}"] = float(np.mean(comps))
    return out


DEFAULT_ABLATION_AXES = {
    "t1": [1, 3, 5, 7],
    "iters_spatial_per_step": [5, 10, 15],
    "lambda_sp": [10.0, 20.0, 30.0, 40.0],
    "t2": [15, 25, 35],
    "iters_syntax_per_step": [1, 2, 3],
    "lambda_syt": [10.0, 20.0, 30.0],
    "distance": ["COSINE", "KL_SYM"],
    "contrastive_form": ["RATIO", "SUM"],
    "ca_capture": ["down", "up", "mid", "down+up"],
}


def _variants(axes):
    """(axis, value) for each variant: one axis set to one value at a time."""
    if not axes:
        yield "base", "base"
    for axis, values in axes.items():
        for v in values:
            yield axis, v


class AblationInterrupted(KeyboardInterrupt):
    """An interrupted sweep; ``report`` holds the rows finished before it."""

    def __init__(self, report):
        super().__init__()
        self.report = report


def run_ablation(axes, base_config, seeds, prompt, priors, model_factory, log=None):
    """Sweep guidance-config axes one at a time, one run per (variant, seed).

    ``ca_capture`` is a model axis, so ``model_factory(ca_capture)`` builds
    the denoiser per variant.  Invalid variants are skipped with a
    logged reason, and a run whose guidance fails is a logged row with its
    ``error``; rows come out sorted by (axis, value, seed).  Each variant's
    input warnings (``prepare_inputs``') are logged before its first run, each
    distinct one once, and kept in the report's ``warnings``.  An interrupt
    raises ``AblationInterrupted`` with the rows finished so far.
    """
    log = log or (lambda message: None)
    report = MetricsReport([])
    try:
        for axis, value in _variants(axes):
            try:
                cfg = (base_config if axis in ("base", "ca_capture")
                       else replace(base_config, **{axis: value}))
                model = model_factory(value if axis == "ca_capture" else None)
            except (InputError, TypeError, ValueError) as exc:
                log(f"skipping {axis}={value}: {exc}")
                continue
            for w in prepare_inputs(prompt, priors, model)[3]:
                if w not in report.warnings:
                    report.warnings.append(w)
                    log(f"warning: {w}")
            for seed in seeds:
                row = {"axis": axis, "value": str(value), "seed": seed}
                try:
                    row.update(summarize_run(run_guided_sampling(prompt, priors, cfg, model, seed)))
                except GuidanceError as exc:
                    log(f"failed {axis}={value} seed={seed}: {exc}")
                    row["error"] = str(exc)
                report.rows.append(row)
    except KeyboardInterrupt:
        raise AblationInterrupted(report) from None
    finally:
        report.rows.sort(key=lambda r: (r["axis"], r["value"], r["seed"]))
    return report
