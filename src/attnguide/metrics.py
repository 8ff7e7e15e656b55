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
from scipy import ndimage

from .errors import ContractError, InputError
from .guidance import KL_SYM, dist, in_box_ratio, in_box_ratios, run_guided_sampling  # noqa: F401


def _square_map(ca, token_index, frame):
    """One token/frame column of [F, N, L] values as its side x side grid."""
    col = ca[frame, :, token_index]
    side = math.isqrt(col.size)
    if side * side != col.size:
        raise ContractError(f"{col.size} pixels do not form a square grid")
    return col.reshape(side, side)


def count_components(ca, token_index, frame, rel_threshold=0.5):
    """Count 4-connected components of the map binarized at rel_threshold*max."""
    if not 0 < rel_threshold < 1:
        raise ContractError("rel_threshold must lie in (0, 1)")
    grid = _square_map(ca, token_index, frame)
    binary = grid >= rel_threshold * grid.max()
    _, n = ndimage.label(binary)  # default structure is 4-connectivity
    return int(n)


def verb_noun_alignment(ca, pair, kind=KL_SYM):
    """Frame-mean distance between a pair's noun and verb maps (lower is better)."""
    i, j = pair
    return float(dist(ca[:, :, i], ca[:, :, j], kind).mean().item())


def render_heatmap(ca, token_index, frame, out_path, upscale=1):
    """Write one token/frame map as an 8-bit binary PGM (P5), min-max scaled.

    A constant map renders as all zeros by convention.  Output bytes are
    deterministic for fixed inputs.
    """
    if upscale < 1:
        raise ContractError("upscale must be >= 1")
    grid = _square_map(ca, token_index, frame)
    lo, hi = grid.min(), grid.max()
    if hi > lo:
        img = np.rint((grid - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        img = np.zeros_like(grid, dtype=np.uint8)
    img = np.repeat(np.repeat(img, upscale, axis=0), upscale, axis=1)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    try:
        with open(out_path, "wb") as fh:
            fh.write(header + img.tobytes())
    except OSError as exc:
        raise IOError(f"cannot write heatmap to {out_path}: {exc}") from exc
    return out_path


@dataclass
class MetricsReport:
    rows: list = field(default_factory=list)  # list of flat dicts
    config_echo: dict = field(default_factory=dict)

    def add_row(self, **kv):
        self.rows.append(dict(kv))

    def to_jsonl(self):
        head = json.dumps({"config_echo": self.config_echo}, sort_keys=True)
        body = "\n".join(json.dumps(r, sort_keys=True) for r in self.rows)
        return head + ("\n" + body if body else "") + "\n"

    @classmethod
    def from_jsonl(cls, text):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise InputError("empty metrics report")
        head = json.loads(lines[0])
        return cls(rows=[json.loads(ln) for ln in lines[1:]],
                   config_echo=head.get("config_echo", {}))

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
    out = {}

    def snapshot_stats(step):
        values = result.ca_records.get(step)
        if values is None:
            return None
        ratios, aligns, comps = [], [], []
        for pair in result.column_pairs.pairs:
            noun, _ = pair
            ratios.extend(in_box_ratios(values, result.mask_set, noun))
            aligns.append(verb_noun_alignment(values, pair))
            comps.append(count_components(values, noun, 0))
        return {
            "mean_in_box_ratio": float(np.mean(ratios)),
            "mean_alignment": float(np.mean(aligns)),
            "mean_components": float(np.mean(comps)),
        }

    for label, step in (("t1", cfg.t1), ("t2", cfg.t2), ("final", cfg.total_steps)):
        stats = snapshot_stats(step)
        if stats:
            for k, v in stats.items():
                out[f"{k}_{label}"] = v
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


def _variants(axes, base_config, one_at_a_time):
    if not axes:
        yield "base", "base", base_config, None
        return
    if one_at_a_time:
        for axis, values in axes.items():
            for v in values:
                yield axis, v, base_config, {axis: v}
    else:
        import itertools

        names = list(axes)
        for combo in itertools.product(*(axes[n] for n in names)):
            yield "+".join(names), str(combo), base_config, dict(zip(names, combo))


def run_ablation(axes, base_config, seeds, prompt, priors, model_factory,
                 one_at_a_time=True, log=None):
    """Sweep guidance-config axes, one run per (variant, seed).

    ``ca_capture`` is a model axis, so ``model_factory(ca_capture)`` builds
    the denoiser per variant.  Invalid combinations are skipped with a
    logged reason; rows come out sorted by (axis, value, seed).
    """
    rows = []
    for axis, value, base, override in _variants(axes, base_config, one_at_a_time):
        capture = None
        cfg = base
        if override:
            capture = override.pop("ca_capture", None)
            try:
                cfg = replace(base, **override)
            except (InputError, TypeError, ValueError) as exc:
                if log:
                    log(f"skipping {axis}={value}: {exc}")
                continue
        try:
            model = model_factory(capture)
        except InputError as exc:
            if log:
                log(f"skipping {axis}={value}: {exc}")
            continue
        for seed in seeds:
            result = run_guided_sampling(prompt, priors, cfg, model, seed)
            row = {"axis": axis, "value": str(value), "seed": seed}
            row.update(summarize_run(result))
            rows.append(row)
    rows.sort(key=lambda r: (r["axis"], r["value"], r["seed"]))
    report = MetricsReport(rows=rows)
    report.config_echo = {"axes": {k: [str(v) for v in vals] for k, vals in axes.items()},
                          "seeds": list(seeds),
                          "one_at_a_time": one_at_a_time}
    return report
