"""Attention-guidance losses and the scheduled latent-update loop.

Spatial constraints push each tracked token's cross-attention mass inside
its box mask during the earliest denoising steps; the syntax contrastive
constraint then pulls each verb's map toward its noun's and away from the
remaining tokens.  Both act on the noisy latent through single gradient
steps between scheduler updates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import Tensor
from .boxes import rasterize_masks, resample_frames
from .config import read_config
from .denoiser import DDIMSchedule, LatentState, ddim_step
from .errors import (
    AttnGuideError,
    ContractError,
    DegenerateAttentionError,
    InputError,
    NumericError,
)
from .syntax import SyntaxPairs, extract_pairs, tokenize

KL_SYM = "KL_SYM"
KL_FWD = "KL_FWD"
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
    lambda_fg: float = 1.0
    lambda_bg: float = 1.0
    lambda_sp: float = 30.0
    lambda_syt: float = 20.0
    alpha: float = 1.0
    distance: str = KL_SYM
    contrastive_form: str = RATIO
    eps: float = 1e-8
    apply_spatial_to_verbs: bool = True
    neg_includes_verb: bool = False
    negatives_exclude_other_pairs: bool = False

    def __post_init__(self):
        reals = (self.lambda_fg, self.lambda_bg, self.lambda_sp, self.lambda_syt,
                 self.alpha, self.eps)
        if not all(math.isfinite(v) for v in reals):
            raise InputError("loss weights, alpha and eps must be finite")
        if not 0 <= self.t1 <= self.t2 <= self.total_steps:
            raise InputError(
                f"need 0 <= t1 <= t2 <= total_steps, got {self.t1}, {self.t2}, "
                f"{self.total_steps}"
            )
        if min(self.lambda_fg, self.lambda_bg, self.lambda_sp, self.lambda_syt) < 0:
            raise InputError("loss weights must be nonnegative")
        if self.alpha <= 0 or self.eps <= 0:
            raise InputError("alpha and eps must be positive")
        if self.distance not in (KL_SYM, KL_FWD, COSINE):
            raise InputError(f"unknown distance kind {self.distance!r}")
        if self.contrastive_form not in (RATIO, SUM):
            raise InputError(f"unknown contrastive form {self.contrastive_form!r}")

    @classmethod
    def from_file(cls, path):
        return read_config(cls, path)

    def with_overrides(self, **overrides):
        return replace(self, **{k: v for k, v in overrides.items() if v is not None})


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


def _normalize_lastdim(t, eps):
    """Scale last-dim slices to sum to 1 (after eps smoothing).

    The tensor engine only broadcasts trailing dims, so the slice axis is
    rotated to the front, scaled, and rotated back.
    """
    te = t + eps
    s = te.sum(axis=-1)
    if te.data.ndim <= 1:
        return te / s
    ndim = te.data.ndim
    perm = (ndim - 1,) + tuple(range(ndim - 1))
    inv = tuple(range(1, ndim)) + (0,)
    return (te.transpose(perm) * (1.0 / s)).transpose(inv)


def dist(p_map, q_map, kind=KL_SYM, eps=1e-8):
    """Distance between attention maps along the last (pixel) axis.

    KL kinds smooth with eps and normalize to distributions first; cosine
    works on the raw maps (and is therefore scale invariant).
    """
    p, q = Tensor._wrap(p_map), Tensor._wrap(q_map)
    for m in (p.data, q.data):
        if np.any(m < 0):
            raise DegenerateAttentionError("attention map has negative entries")
        if np.any(m.sum(axis=-1) <= 0):
            raise DegenerateAttentionError("attention map slice is all zero")
    if kind == COSINE:
        dot = (p * q).sum(axis=-1)
        norm = (p.square().sum(axis=-1)).sqrt() * (q.square().sum(axis=-1)).sqrt()
        return 1.0 - dot / norm
    pn = _normalize_lastdim(p, eps)
    qn = _normalize_lastdim(q, eps)
    kl_pq = (pn * (pn.log() - qn.log())).sum(axis=-1)
    if kind == KL_FWD:
        return kl_pq
    if kind == KL_SYM:
        kl_qp = (qn * (qn.log() - pn.log())).sum(axis=-1)
        return (kl_pq + kl_qp) * 0.5
    raise InputError(f"unknown distance kind {kind!r}")


# -- spatial constraints ------------------------------------------------------


def in_box_ratio(ca, masks, token_index, frame):
    """Fraction of a token's attention mass inside its mask, in [0, 1].

    ``ca`` holds CA map values [F, N, L]; ``masks`` is keyed by token index.
    """
    col = ca[frame, :, token_index]
    total = col.sum()
    if total <= 0:
        raise DegenerateAttentionError(
            f"token {token_index} frame {frame}: zero total attention mass"
        )
    m = masks.mask(token_index, frame).reshape(-1)
    return float((col * m).sum() / total)


def _mask_array(masks, noun, frames):
    rows = [masks.mask(noun, f).reshape(-1) for f in range(frames)]
    return np.stack(rows)


def _tracked(pairs, include_verbs):
    tracked = []
    for noun, verb in pairs.pairs:
        tracked.append((noun, noun))
        if include_verbs:
            tracked.append((verb, noun))
    return tracked


def _mass_terms(ca, masks, pairs, include_verbs, eps, outside):
    A = ca.A
    F = A.shape[0]
    acc = None
    for token, noun in _tracked(pairs, include_verbs):
        col = A.take_lastdim(token)                     # [F, N]
        M = _mask_array(masks, noun, F)
        total = col.sum(axis=1)                         # [F]
        low = np.flatnonzero(total.data <= eps)
        if low.size:
            raise DegenerateAttentionError(
                f"token {token} frame {int(low[0])}: total attention mass <= {eps}"
            )
        if outside:
            # literal (1 - M) form; equals the fg deficit for binary masks
            term = ((col * (1.0 - M)).sum(axis=1) / total).square()
        else:
            term = (1.0 - (col * M).sum(axis=1) / total).square()
        total_term = term.sum()
        acc = total_term if acc is None else acc + total_term
    if acc is None:
        return Tensor(0.0)
    return acc * (1.0 / F)


def loss_fg(ca, masks, pairs, include_verbs=True, eps=1e-8):
    """Squared deficit of in-box attention mass, frame-averaged."""
    return _mass_terms(ca, masks, pairs, include_verbs, eps, outside=False)


def loss_bg(ca, masks, pairs, include_verbs=True, eps=1e-8):
    """Squared out-of-box attention mass ratio, frame-averaged."""
    return _mass_terms(ca, masks, pairs, include_verbs, eps, outside=True)


def loss_sp(ca, masks, pairs, config):
    """Weighted spatial constraint: lambda_fg * fg + lambda_bg * bg."""
    fg = loss_fg(ca, masks, pairs, config.apply_spatial_to_verbs, config.eps)
    bg = loss_bg(ca, masks, pairs, config.apply_spatial_to_verbs, config.eps)
    return fg * config.lambda_fg + bg * config.lambda_bg


# -- syntax contrastive constraint --------------------------------------------


def loss_pos(ca, pair, kind=KL_SYM, eps=1e-8):
    """Frame-mean distance between a pair's noun map and verb map."""
    i, j = pair
    p = ca.A.take_lastdim(i)
    q = ca.A.take_lastdim(j)
    return dist(p, q, kind, eps).mean()


def loss_neg(ca, pair, negatives, kind=KL_SYM, eps=1e-8, include_verb=False):
    """Summed frame-mean distance from the noun map to each negative map."""
    if not negatives:
        import warnings

        warnings.warn("empty negative set; loss_neg is 0", stacklevel=2)
        return Tensor(0.0)
    i, j = pair
    anchors = [i, j] if include_verb else [i]
    acc = None
    for u in sorted(negatives):
        for a in anchors:
            d = dist(ca.A.take_lastdim(a), ca.A.take_lastdim(u), kind, eps).mean()
            acc = d if acc is None else acc + d
    return acc


def loss_syt(ca, pairs, config):
    """Contrastive ratio summed over pairs (or plain sum in SUM form)."""
    if not pairs.pairs:
        raise ContractError("loss_syt needs at least one noun/verb pair")
    acc = None
    for pair in pairs.pairs:
        pos = loss_pos(ca, pair, config.distance, config.eps)
        neg = loss_neg(
            ca, pair, pairs.negatives_for(pair), config.distance, config.eps,
            include_verb=config.neg_includes_verb,
        )
        denom = pos + neg
        if config.contrastive_form == SUM:
            term = denom
        else:
            if denom.item() <= config.eps:
                raise DegenerateAttentionError(
                    f"pair {pair}: contrastive denominator <= {config.eps}"
                )
            term = pos / denom
        acc = term if acc is None else acc + term
    return acc


# -- latent updates -----------------------------------------------------------


def guide_latent(state, leaf, loss, lam, alpha):
    """One gradient step on the latent; returns (new state, gradient norm)."""
    if loss.size != 1:
        raise ContractError(f"guidance loss must be scalar, got shape {loss.shape}")
    loss.backward()
    grad = leaf.grad if leaf.grad is not None else np.zeros_like(state.z)
    if not np.all(np.isfinite(grad)):
        raise NumericError("non-finite guidance gradient")
    z_new = state.z - alpha * lam * grad
    return LatentState(z_new, state.timestep_index), float(np.sqrt((grad ** 2).sum()))


@dataclass
class SamplingResult:
    final_state: LatentState
    z_trajectory: list          # per-step latent after the scheduler update
    trace: GuidanceTrace
    ca_records: dict            # step -> CA map values [F, N, L]
    pairs: SyntaxPairs          # prompt-index pairs
    column_pairs: SyntaxPairs   # CA-column pairs
    mask_set: object
    text: object
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
    """Tokenize, pair, resample, rasterize, and bind masks to noun columns."""
    tokens = tokenize(prompt)
    pairs = extract_pairs(tokens, config.negatives_exclude_other_pairs)
    text = model.encode_text(tokens)
    column_pairs = _pairs_to_columns(pairs, text.columns)
    if priors.frame_count != model.config.frames:
        priors = resample_frames(priors, model.config.frames)
    grid = model.config.capture_grid
    raw_masks = rasterize_masks(priors, grid, grid)
    if len(priors.trajectories) != len(column_pairs.pairs):
        raise InputError(
            f"{len(priors.trajectories)} box trajectories for "
            f"{len(column_pairs.pairs)} noun/verb pairs"
        )
    binding = {
        traj.subject_id: noun
        for traj, (noun, _) in zip(priors.trajectories, column_pairs.pairs)
    }
    masks = raw_masks.rebind(binding)
    return tokens, pairs, column_pairs, text, masks


def run_guided_sampling(prompt, priors, config, model, seed, snapshot_steps=None):
    """Full guided DDIM run per the two-phase schedule.

    Steps 1..t1 apply the spatial loss ``iters_spatial_per_step`` times,
    steps t1+1..t2 apply the syntax loss ``iters_syntax_per_step`` times,
    later steps denoise freely.  Zero loss weights skip guidance entirely,
    reproducing the unguided trajectory bit-exactly.
    """
    tokens, pairs, column_pairs, text, masks = prepare_inputs(prompt, priors, config, model)
    cfg_m = model.config
    if config.total_steps != cfg_m.total_steps:
        raise InputError(
            f"guidance schedule has {config.total_steps} steps, "
            f"model has {cfg_m.total_steps}"
        )
    schedule = DDIMSchedule(config.total_steps)
    if snapshot_steps is None:
        snapshot_steps = {1, config.t1, config.t2, config.total_steps} - {0}

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1A7E]))
    z0 = rng.normal(size=(cfg_m.frames, cfg_m.latent_channels, cfg_m.latent_h, cfg_m.latent_w))
    state = LatentState(z0, config.total_steps - 1)
    trace = GuidanceTrace()
    ca_records, z_trajectory = {}, []

    for step in range(1, config.total_steps + 1):
        t = schedule.t_for_step(step)
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
                    _, ca, _ = model.denoise_step(leaf, t, text)
                    if loss_name == "spatial":
                        loss = loss_sp(ca, masks, column_pairs, config)
                    else:
                        loss = loss_syt(ca, column_pairs, config)
                    value = loss.item()
                    state, gnorm = guide_latent(state, leaf, loss, lam, config.alpha)
                    values = ca.A.data
                    ratios = {
                        noun: float(np.mean([in_box_ratio(values, masks, noun, f)
                                             for f in range(values.shape[0])]))
                        for noun, _ in column_pairs.pairs
                    }
                except AttnGuideError as exc:
                    raise GuidanceError(f"step {step} iteration {it}: {exc}") from exc
                trace.add(TraceRecord(step, it, loss_name, value, gnorm, ratios))

        eps_pred, ca, _ = model.denoise_step(Tensor(state.z), t, text)
        if step in snapshot_steps:
            ca_records[step] = ca.A.data.copy()
        state = ddim_step(state, eps_pred, step, schedule)
        z_trajectory.append(state.z.copy())

    return SamplingResult(
        final_state=state,
        z_trajectory=z_trajectory,
        trace=trace,
        ca_records=ca_records,
        pairs=pairs,
        column_pairs=column_pairs,
        mask_set=masks,
        text=text,
        config=config,
    )
