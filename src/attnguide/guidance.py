"""Attention-guidance losses and the scheduled latent-update loop.

Spatial constraints push each tracked token's cross-attention mass inside
its box mask during the earliest denoising steps; the syntax contrastive
constraint then pulls each verb's map toward its noun's and away from the
remaining tokens.  Both act on the noisy latent through single gradient
steps between scheduler updates.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, sum_grad, trapped
from .boxes import rasterize_masks, resample_frames
from .config import read_config
from .denoiser import DDIMSchedule, LatentState, ddim_step
from .errors import (
    AttnGuideError,
    ContractError,
    DegenerateAttentionError,
    DimensionError,
    InputError,
    NumericError,
)
from .syntax import SyntaxPairs, extract_pairs, tokenize

KL_SYM = "KL_SYM"
COSINE = "COSINE"
RATIO = "RATIO"
SUM = "SUM"


class GuidanceError(AttnGuideError):
    """An inner guidance update failed; message carries (step, iteration)."""


@dataclass
class GuidanceConfig:
    total_steps: int = 50
    t1: int = 5
    t2: int = 25
    iters_spatial_per_step: int = 10
    iters_syntax_per_step: int = 1
    lambda_sp: float = 30.0
    lambda_syt: float = 20.0
    distance: str = KL_SYM
    contrastive_form: str = RATIO
    eps: float = 1e-8
    apply_spatial_to_verbs: bool = True

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.lambda_sp, self.lambda_syt, self.eps)):
            raise InputError("loss weights and eps must be finite")
        if not (0 <= self.t1 <= self.t2 <= self.total_steps and self.total_steps >= 1):
            raise InputError(
                f"need 0 <= t1 <= t2 <= total_steps and total_steps >= 1, got {self.t1}, "
                f"{self.t2}, {self.total_steps}"
            )
        if min(self.lambda_sp, self.lambda_syt,
               self.iters_spatial_per_step, self.iters_syntax_per_step) < 0:
            raise InputError("loss weights and iteration counts must be nonnegative")
        if self.eps <= 0:
            raise InputError("eps must be positive")
        if self.distance not in (KL_SYM, COSINE):
            raise InputError(f"unknown distance kind {self.distance!r}")
        if self.contrastive_form not in (RATIO, SUM):
            raise InputError(f"unknown contrastive form {self.contrastive_form!r}")

    @classmethod
    def from_file(cls, path):
        return read_config(cls, path)


@dataclass
class TraceRecord:
    step: int
    iteration: int
    loss_name: str
    loss_value: float
    grad_norm: float
    in_box_ratios: dict


@dataclass
class GuidanceTrace:
    records: list = field(default_factory=list)

    def add(self, record):
        if self.records:
            last = self.records[-1]
            if (record.step, record.iteration) < (last.step, last.iteration):
                raise ContractError("trace records must arrive in (step, iteration) order")
        self.records.append(record)

    def by_loss(self, name):
        return [r for r in self.records if r.loss_name == name]

    def to_jsonl(self):
        return "\n".join(
            json.dumps({
                "step": r.step, "iteration": r.iteration, "loss": r.loss_name,
                "value": r.loss_value, "grad_norm": r.grad_norm,
                "in_box_ratios": {str(k): v for k, v in r.in_box_ratios.items()},
            }, sort_keys=True)
            for r in self.records
        ) + ("\n" if self.records else "")


# -- distance functions -----------------------------------------------------


def _check_maps(values, axis=-1):
    """Reject maps (slices along the pixel `axis`) that are negative somewhere or all zero."""
    if np.any(values < 0):
        raise DegenerateAttentionError("attention map has negative entries")
    if np.any(values.sum(axis=axis) <= 0):
        raise DegenerateAttentionError("attention map slice is all zero")


def _check_columns(A, columns):
    """`_check_maps` over the CA columns [F, N] of the given tokens, in one pass."""
    _check_maps(A.data[..., sorted(columns)], axis=-2)


@trapped
def dist(p_map, q_map, kind=KL_SYM, eps=1e-8):
    """Distance between attention maps along the last (pixel) axis.

    KL_SYM smooths with eps and normalizes to distributions first; cosine
    works on the raw maps (and is therefore scale invariant).
    """
    p, q = Tensor._wrap(p_map), Tensor._wrap(q_map)
    _check_maps(p.data)
    _check_maps(q.data)
    if p.shape != q.shape:
        raise DimensionError(f"maps of shapes {p.shape} and {q.shape} differ")
    out, backward, swap = _distances((p.data, q.data), kind, eps)(0, 1)
    return Tensor.node(out, (q, p) if swap else (p, q), backward)


def _distances(maps, kind, eps):
    """`dist` of the arrays maps[a] and maps[b] as a function of (a, b): (value, backward, swap).

    ``backward(g)`` gives the gradients of (maps[a], maps[b]), or of the two
    swapped if ``swap``: the composite's parent order, which fixes the sums
    upstream.  For KL_SYM each map is normalized, and its log taken, once.
    """
    @functools.cache
    def log_normalized(c):
        n, saved = _normalized(maps[c], eps)
        return n, saved, np.log(n)

    def distance(a, b):
        if kind == COSINE:
            return _cosine(maps[a], maps[b]) + (False,)
        if kind != KL_SYM:
            raise InputError(f"unknown distance kind {kind!r}")
        return _kl(log_normalized(a), log_normalized(b)) + (True,)

    return distance


_ONE = np.asarray(1.0)
_HALF = np.asarray(0.5)


def _normalized(x, eps):
    """Each last-axis slice of `x + eps` scaled to sum 1: (result, saved values).

    Above one dimension the slice axis is rotated to the front, scaled by the
    reciprocal sums and rotated back; these views decide the memory layout
    of every later product and sum.
    """
    te = x + eps
    s = te.sum(axis=-1)
    if te.ndim <= 1:
        return te / s, (te, s)
    perm, inv = _slice_axis_first(te.ndim)
    r = _ONE / s
    return (te.transpose(perm) * r).transpose(inv), (te, s, r)


def _slice_axis_first(ndim):
    """Axis orders that move the last axis to the front, and back."""
    return (ndim - 1,) + tuple(range(ndim - 1)), tuple(range(1, ndim)) + (0,)


def _normalized_grad(g, saved):
    """Gradient through `_normalized` for the gradient `g` of its result."""
    if len(saved) == 2:
        te, s = saved
        g_te = g / s
        g_s = (-g * te / (s * s)).sum(axis=0)
    else:
        te, s, r = saved
        perm, inv = _slice_axis_first(te.ndim)
        g_m = g.transpose(perm)
        g_te = (g_m * r).transpose(inv)
        g_r = (g_m * te.transpose(perm)).sum(axis=0)
        g_s = -g_r * _ONE / (s * s)
    return g_te + sum_grad(g_s, -1, te.shape)


def _kl(p, q):
    """Symmetric KL of two maps given as (normalized, saved values, log), which
    calls share and none writes to; the backward gives (g_q, g_p)."""
    (pn, p_saved, lp), (qn, q_saved, lq) = p, q
    d1 = lp + -lq  # Tensor subtraction is `a + (-b)`
    p1 = pn * d1
    kl_pq = p1.sum(axis=-1)
    d2 = lq + -lp
    p2 = qn * d2
    total = kl_pq + p2.sum(axis=-1)

    def backward(g):
        # pn and qn feed three ops each; their gradients are added as the
        # composite added them: (first two) + the third.
        g = g * _HALF
        g_p1 = sum_grad(g, -1, p1.shape)
        g_d1 = g_p1 * pn
        g_p2 = sum_grad(g, -1, p2.shape)
        g_d2 = g_p2 * qn
        g_qn = -g_d1 / qn + g_p2 * d2 + g_d2 / qn
        g_pn = g_p1 * d1 + g_d1 / pn + -g_d2 / pn
        return _normalized_grad(g_qn, q_saved), _normalized_grad(g_pn, p_saved)

    return total * _HALF, backward


def _cosine(x, y):
    xy = x * y
    dot = xy.sum(axis=-1)
    xx, yy = x ** 2, y ** 2
    sx, sy = xx.sum(axis=-1), yy.sum(axis=-1)
    nx, ny = np.sqrt(sx), np.sqrt(sy)
    norm = nx * ny
    ratio = dot / norm
    out = _ONE + -ratio

    def backward(g):
        g_ratio = -g
        g_xy = sum_grad(g_ratio / norm, -1, xy.shape)
        g_norm = -g_ratio * dot / (norm * norm)
        g_sx = g_norm * ny * 0.5 / nx
        g_sy = g_norm * nx * 0.5 / ny
        g_p = g_xy * y + 2.0 * x * sum_grad(g_sx, -1, xx.shape)
        g_q = g_xy * x + 2.0 * y * sum_grad(g_sy, -1, yy.shape)
        return g_p, g_q

    return out, backward


# -- losses on CA columns -----------------------------------------------------
#
# Each loss is one graph node on A, built from parts: (value, backward) pairs
# whose backward(g) lists (column, gradient) pairs in the order
# `Tensor.backward` reached the replaced chain's column takes.


def _column_grad(visits, shape):
    """A's gradient from (column, gradient) pairs, summed as the chain's takes summed them.

    Each take added a full array, +0 outside its column: with two or more
    columns a zero sum ends as +0.
    """
    sums = {}
    for c, g in visits:
        sums[c] = sums[c] + g if c in sums else g
    full = np.zeros(shape)
    for c, g in sums.items():
        full[..., c] = g + 0.0 if len(sums) > 1 else g
    return full


def _column_node(value, backward, A):
    return Tensor.node(value, (A,), lambda g: (_column_grad(backward(g), A.shape),))


def _sum(parts):
    """The left-fold sum of (value, backward) parts."""
    value = sum((v for v, _ in parts[1:]), parts[0][0])
    return value, lambda g: [visit for _, grad in parts for visit in grad(g)]


def _mean_dist(distance, a, b):
    """Frame-mean `distance` (`_distances` of A's columns) between columns a and b, as a part."""
    out, grad, swap = distance(a, b)
    inv = 1.0 / out.size
    cols = (b, a) if swap else (a, b)
    return out.sum() * inv, lambda g: list(zip(cols, grad(sum_grad(g * inv, None, out.shape))))


# -- spatial constraints ------------------------------------------------------


def in_box_ratios(ca, masks, token_index):
    """Fraction of a token's attention mass inside its mask, per frame: [F] in [0, 1].

    ``ca`` holds CA map values [F, N, L]; ``masks`` is keyed by token index.
    """
    cols = np.ascontiguousarray(ca[:, :, token_index])      # [F, N]
    totals = cols.sum(axis=1)
    low = np.flatnonzero(totals <= 0)
    if low.size:
        raise DegenerateAttentionError(
            f"token {token_index} frame {int(low[0])}: zero total attention mass"
        )
    return (cols * _frame_masks(masks, token_index, cols.shape)).sum(axis=1) / totals


def _frame_masks(masks, key, shape):
    """The masks of `key` as [F, N] for CA columns of `shape`; any other shape is an error."""
    M = masks.stacked(key)
    if M.shape != shape:
        raise DimensionError(f"masks of shape {M.shape} for a CA column of shape {shape}")
    return M


def _tracked(pairs, include_verbs):
    """(token, noun) for each pair's noun and, with `include_verbs`, its verb after it."""
    return [(t, pair[0]) for pair in pairs.pairs for t in pair[:2 if include_verbs else 1]]


def _mass_terms(Ad, masks, pairs, include_verbs, eps, outside):
    """Frame-mean of the tracked tokens' mass terms, as a part."""
    value, grad = _sum([
        _mass_term(Ad[..., token], _frame_masks(masks, noun, Ad.shape[:-1]), token, eps, outside)
        for token, noun in _tracked(pairs, include_verbs)
    ])
    inv = 1.0 / Ad.shape[0]
    return value * inv, lambda g: grad(g * inv)


def _mass_term(c, M, token, eps, outside):
    """One token's squared mass ratio summed over frames, as a part.

    ``c`` is the token's CA column [F, N] and ``M`` its masks [F, N].  The
    fg term is (1 - in/total)^2 and the bg term (out/total)^2, with the bg
    weight in the literal (1 - M) form, which equals the fg deficit for
    binary masks.  Runs the numpy operations of the composite form and
    replays its backward, so values and gradients are bit-identical.
    """
    total = c.sum(axis=1)
    low = np.flatnonzero(total <= eps)
    if low.size:
        raise DegenerateAttentionError(
            f"token {token} frame {int(low[0])}: total attention mass <= {eps}"
        )
    weight = 1.0 - M if outside else M
    weighted = c * weight
    mass = weighted.sum(axis=1)
    ratio = mass / total
    base = ratio if outside else _ONE + -ratio
    sq = base ** 2

    def backward(g):
        g_base = 2.0 * base * sum_grad(g, None, sq.shape)
        g_ratio = g_base if outside else -g_base
        g_total = -g_ratio * mass / (total * total)
        return [(token, sum_grad(g_ratio / total, 1, c.shape) * weight
                 + sum_grad(g_total, 1, c.shape))]

    return sq.sum(), backward


@trapped
def loss_fg(A, masks, pairs, include_verbs=True, eps=1e-8):
    """Squared deficit of in-box attention mass, frame-averaged."""
    if not pairs.pairs:
        return Tensor(0.0)
    return _column_node(*_mass_terms(A.data, masks, pairs, include_verbs, eps, False), A)


@trapped
def loss_bg(A, masks, pairs, include_verbs=True, eps=1e-8):
    """Squared out-of-box attention mass ratio, frame-averaged."""
    if not pairs.pairs:
        return Tensor(0.0)
    return _column_node(*_mass_terms(A.data, masks, pairs, include_verbs, eps, True), A)


@trapped
def loss_sp(A, masks, pairs, config):
    """The spatial constraint: fg + bg."""
    if not pairs.pairs:
        return Tensor(0.0)
    fg, fg_grad = _mass_terms(A.data, masks, pairs, config.apply_spatial_to_verbs,
                              config.eps, False)
    bg, bg_grad = _mass_terms(A.data, masks, pairs, config.apply_spatial_to_verbs,
                              config.eps, True)
    return _column_node(fg + bg, lambda g: fg_grad(g) + bg_grad(g), A)


# -- syntax contrastive constraint --------------------------------------------


@trapped
def loss_pos(A, pair, kind=KL_SYM, eps=1e-8):
    """Frame-mean distance between a pair's noun map and verb map."""
    _check_columns(A, pair)
    return _column_node(*_mean_dist(_distances(np.moveaxis(A.data, -1, 0), kind, eps), *pair), A)


@trapped
def loss_neg(A, pair, negatives, kind=KL_SYM, eps=1e-8):
    """Summed frame-mean distance from the noun map to each negative map."""
    if negatives:
        _check_columns(A, {pair[0], *negatives})
    distance = _distances(np.moveaxis(A.data, -1, 0), kind, eps)
    value, backward = _neg(distance, pair[0], negatives)
    return _column_node(value, backward, A) if negatives else Tensor(value)


def _neg(distance, noun, negatives):
    if not negatives:
        warnings.warn("empty negative set; loss_neg is 0", stacklevel=4)
        return 0.0, lambda g: []
    return _sum([_mean_dist(distance, noun, u) for u in sorted(negatives)])


def _contrastive(pair, pos, neg, config):
    """A pair's pos / (pos + neg), or pos + neg in SUM form, from its two parts."""
    (pos, pos_grad), (neg, neg_grad) = pos, neg
    denom = pos + neg
    if config.contrastive_form == SUM:
        return denom, lambda g: pos_grad(g) + neg_grad(g)
    if denom <= config.eps:
        raise DegenerateAttentionError(f"pair {pair}: contrastive denominator <= {config.eps}")

    def backward(g):
        g_neg = -g * pos / (denom * denom)
        return pos_grad(g / denom + g_neg) + neg_grad(g_neg)

    return pos / denom, backward


@trapped
def loss_syt(A, pairs, config):
    """Contrastive ratio summed over pairs (or plain sum in SUM form)."""
    if not pairs.pairs:
        raise ContractError("loss_syt needs at least one noun/verb pair")
    _check_columns(A, {c for pair in pairs.pairs for c in (*pair, *pairs.negatives_for(pair))})
    distance, terms = _distances(np.moveaxis(A.data, -1, 0), config.distance, config.eps), []
    for pair in pairs.pairs:
        pos = _mean_dist(distance, *pair)
        neg = _neg(distance, pair[0], pairs.negatives_for(pair))
        terms.append(_contrastive(pair, pos, neg, config))
    return _column_node(*_sum(terms), A)


# -- latent updates -----------------------------------------------------------


@trapped
def guide_latent(state, leaf, loss, lam):
    """One gradient step of size ``lam`` on the latent; returns (new state, gradient norm)."""
    if loss.size != 1:
        raise ContractError(f"guidance loss must be scalar, got shape {loss.shape}")
    loss.backward()
    grad = leaf.grad if leaf.grad is not None else np.zeros_like(state.z)
    if not np.all(np.isfinite(grad)):
        raise NumericError("non-finite guidance gradient")
    z_new = state.z - lam * grad
    return LatentState(z_new, state.timestep_index), float(np.sqrt((grad ** 2).sum()))


@dataclass
class SamplingResult:
    final_state: LatentState
    z_trajectory: list          # per-step latent after the scheduler update
    trace: GuidanceTrace
    ca_records: dict            # step -> CA map values [F, N, L]
    column_pairs: SyntaxPairs   # CA-column pairs
    mask_set: object
    config: GuidanceConfig


def _pairs_to_columns(pairs, columns):
    mapped = SyntaxPairs()
    for noun, verb in pairs.pairs:
        cp = (columns[noun], columns[verb])
        mapped.pairs.append(cp)
        mapped.negatives[cp] = frozenset(
            columns[u] for u in pairs.negatives_for((noun, verb))
        )
    return mapped


def prepare_inputs(prompt, priors, config, model):
    """Tokenize, pair, resample (warning first), rasterize, and bind masks to noun columns."""
    tokens = tokenize(prompt)
    pairs = extract_pairs(tokens)
    text = model.encode_text(tokens)
    column_pairs = _pairs_to_columns(pairs, text.columns)
    frames, resampled = model.config.frames, []
    if priors.frame_count != frames:
        resampled.append(f"resampled {priors.frame_count} box frames to {frames} model frames")
        priors = resample_frames(priors, frames)
    grid = model.config.capture_grid
    raw_masks = rasterize_masks(priors, grid, grid)
    raw_masks.warnings[:0] = resampled
    if len(priors.trajectories) != len(column_pairs.pairs):
        raise InputError(
            f"{len(priors.trajectories)} box trajectories for "
            f"{len(column_pairs.pairs)} noun/verb pairs"
        )
    binding = {
        traj.subject_id: noun
        for traj, (noun, _) in zip(priors.trajectories, column_pairs.pairs)
    }
    return column_pairs, text, raw_masks.rebind(binding)


def run_guided_sampling(prompt, priors, config, model, seed):
    """Full guided DDIM run per the two-phase schedule.

    Steps 1..t1 apply the spatial loss ``iters_spatial_per_step`` times,
    steps t1+1..t2 apply the syntax loss ``iters_syntax_per_step`` times,
    later steps denoise freely.  Zero loss weights skip guidance entirely,
    reproducing the unguided trajectory bit-exactly.  The CA maps of steps
    1, t1, t2 and the last are kept in ``ca_records``.
    """
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    column_pairs, text, masks = prepare_inputs(prompt, priors, config, model)
    cfg_m = model.config
    schedule = DDIMSchedule(config.total_steps)
    snapshot_steps = {1, config.t1, config.t2, config.total_steps} - {0}

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1A7E]))
    z0 = rng.normal(size=(cfg_m.frames, cfg_m.latent_channels, cfg_m.latent_h, cfg_m.latent_w))
    state = LatentState(z0, config.total_steps - 1)
    trace = GuidanceTrace()
    ca_records, z_trajectory = {}, []

    for step in range(1, config.total_steps + 1):
        tau = schedule.t_for_step(step) / config.total_steps
        if step <= config.t1 and config.lambda_sp > 0:
            phase = ("spatial", config.iters_spatial_per_step, config.lambda_sp)
        elif config.t1 < step <= config.t2 and config.lambda_syt > 0:
            phase = ("syntax", config.iters_syntax_per_step, config.lambda_syt)
        else:
            phase = None

        if phase is not None:
            loss_name, iters, lam = phase
            for it in range(1, iters + 1):
                try:
                    leaf = Tensor(state.z, requires_grad=True)
                    _, A, _ = model.denoise_step(leaf, tau, text)
                    if loss_name == "spatial":
                        loss = loss_sp(A, masks, column_pairs, config)
                    else:
                        loss = loss_syt(A, column_pairs, config)
                    value = loss.item()
                    state, gnorm = guide_latent(state, leaf, loss, lam)
                    ratios = {noun: float(in_box_ratios(A.data, masks, noun).mean())
                              for noun, _ in column_pairs.pairs}
                except AttnGuideError as exc:
                    raise GuidanceError(f"step {step} iteration {it}: {exc}") from exc
                trace.add(TraceRecord(step, it, loss_name, value, gnorm, ratios))

        eps_pred, A, _ = model.denoise_step(Tensor(state.z), tau, text)
        if step in snapshot_steps:
            ca_records[step] = A.data.copy()
        state = ddim_step(state, eps_pred, step, schedule)
        z_trajectory.append(state.z.copy())

    return SamplingResult(
        final_state=state,
        z_trajectory=z_trajectory,
        trace=trace,
        ca_records=ca_records,
        column_pairs=column_pairs,
        mask_set=masks,
        config=config,
    )
