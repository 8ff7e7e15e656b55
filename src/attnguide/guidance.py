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
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, trapped
from .boxes import rasterize_masks, resample_frames
from .config import read_config
from .denoiser import LATENT_CHANNELS, LatentState, ddim_schedule, ddim_step
from .errors import (
    AttnGuideError,
    ContractError,
    DegenerateAttentionError,
    DimensionError,
    InputError,
    NumericError,
)
from .syntax import SyntaxPairs, extract_pairs, tokenize, words

KL_SYM = "KL_SYM"
COSINE = "COSINE"
RATIO = "RATIO"
SUM = "SUM"

# The longest schedule accepted: DDPM's 1000 training timesteps.
MAX_TOTAL_STEPS = 1000

# The most guidance iterations of either phase per sampler step.
MAX_ITERS_PER_STEP = 100

# Added to each map before a KL normalization; a total mass or contrastive
# denominator at or below it is degenerate.
EPS = 1e-8


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

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.lambda_sp, self.lambda_syt)):
            raise InputError("loss weights must be finite")
        if self.total_steps > MAX_TOTAL_STEPS:
            raise InputError(f"total_steps must be at most {MAX_TOTAL_STEPS}, "
                             f"got {self.total_steps}")
        if max(self.iters_spatial_per_step, self.iters_syntax_per_step) > MAX_ITERS_PER_STEP:
            raise InputError(f"iters_spatial_per_step and iters_syntax_per_step must be at "
                             f"most {MAX_ITERS_PER_STEP}, got {self.iters_spatial_per_step} "
                             f"and {self.iters_syntax_per_step}")
        if not (0 <= self.t1 <= self.t2 <= self.total_steps and self.total_steps >= 1):
            raise InputError(
                f"need 0 <= t1 <= t2 <= total_steps and total_steps >= 1, got {self.t1}, "
                f"{self.t2}, {self.total_steps}"
            )
        if min(self.lambda_sp, self.lambda_syt,
               self.iters_spatial_per_step, self.iters_syntax_per_step) < 0:
            raise InputError("loss weights and iteration counts must be nonnegative")
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
    records: list = field(default_factory=list, init=False)  # filled by add

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
#
# The losses gather the CA columns they read once, as a C-contiguous
# token-major stack [K, F, N], so that every sum over pixels runs along a
# contiguous row in numpy's pairwise order, as the replaced per-column chains
# summed them.  Elementwise work on the stack gives the chains' bytes.


def _columns(A, cols):
    """The columns `cols` of A [F, N, L] as a C-contiguous stack [K, F, N], and their totals [K, F].

    The one rule for a degenerate map: a column with a negative entry, or a total
    at or below EPS, in some frame.  The first such (column, frame) is named.
    """
    X = A.transpose(2, 0, 1)[list(cols)]
    total = X.sum(axis=-1)
    negative = (X < 0).any(axis=-1)
    bad = np.argwhere(negative | (total <= EPS))
    if bad.size:
        k, f = bad[0]
        raise DegenerateAttentionError(f"token {cols[k]} frame {f}: " + (
            "negative attention" if negative[k, f] else f"total attention mass <= {EPS}"))
    return X, total


# The two distance kernels, `_kl` and `_cosine`, measure the maps X[a] and X[b]
# of a stack X [K, ..., N].  Each returns ([D, ...] values, backward), where
# `backward(g)` gives the gradients [D, ..., N] of (X[a], X[b]).  Work on one
# map (KL's normalization and log, the cosine's norm) runs once per map of X.


def _normalized(x):
    """Each last-axis slice of `x + EPS` scaled by its reciprocal sum, as the composite
    computed it: (result, saved values)."""
    te = x + EPS
    s = te.sum(axis=-1)
    r = 1.0 / s
    return te * r[..., None], (te, s, r)


def _normalized_grad(g, saved, idx):
    """Gradient through `_normalized` of the slices `idx` for the gradient `g` of their results."""
    te, s, r = (v[idx] for v in saved)
    g_s = -(g * te).sum(axis=-1) / (s * s)
    return g * r[..., None] + g_s[..., None]


def _kl(X, a, b):
    """Symmetric KL between the maps X[a] and X[b]; the backward gives (g_a, g_b)."""
    n, saved = _normalized(X)
    logn = np.log(n)
    pn, qn, lp, lq = n[a], n[b], logn[a], logn[b]
    d1, d2 = lp - lq, lq - lp
    total = (pn * d1).sum(axis=-1) + (qn * d2).sum(axis=-1)

    def backward(g):
        # pn and qn feed three ops each; their gradients are added as the
        # composite added them: (first two) + the third.
        g = (g * 0.5)[..., None]
        g_d1, g_d2 = g * pn, g * qn
        g_qn = -g_d1 / qn + g * d2 + g_d2 / qn
        g_pn = g * d1 + g_d1 / pn - g_d2 / pn
        return _normalized_grad(g_pn, saved, a), _normalized_grad(g_qn, saved, b)

    return total * 0.5, backward


def _cosine(X, a, b):
    """One minus the cosine of the raw maps X[a] and X[b]; the backward gives (g_a, g_b)."""
    x, y = X[a], X[b]
    dot = (x * y).sum(axis=-1)
    norms = np.sqrt((X ** 2).sum(axis=-1))
    nx, ny = norms[a], norms[b]
    norm = nx * ny

    def backward(g):
        g_xy = (-g / norm)[..., None]
        g_norm = g * dot / (norm * norm)
        g_sx = (g_norm * ny * 0.5 / nx)[..., None]
        g_sy = (g_norm * nx * 0.5 / ny)[..., None]
        return g_xy * y + 2.0 * x * g_sx, g_xy * x + 2.0 * y * g_sy

    return 1.0 - dot / norm, backward


# -- losses on CA columns -----------------------------------------------------
#
# Each loss is one graph node on A.  Its backward hands `_column_grad` the
# gradient of each column take of the replaced chain, in the order
# `Tensor.backward` reached the takes, and values are summed left to right in
# the chain's order: per-distance frame means, negatives, pairs and tokens.


def _column_grad(takes, shape):
    """A's gradient from the (column, gradient) takes, added onto zeros in visit order."""
    full = np.zeros(shape)
    for c, g in takes:
        full[..., c] += g
    return full


def _mean_distances(A, dpairs, config):
    """Frame-mean `config.distance` between the CA columns of each pair in `dpairs`: ([D], grad).

    ``grad(gd)`` turns the gradients [D] of the means into A's gradient.
    """
    cols = sorted({c for pair in dpairs for c in pair})
    X, _ = _columns(A.data, cols)
    a, b = ([cols.index(pair[i]) for pair in dpairs] for i in (0, 1))
    out, backward = (_cosine if config.distance == COSINE else _kl)(X, a, b)  # [D, F]
    inv = 1.0 / out.shape[1]
    visits = [c for pair in dpairs for c in pair]

    def grad(gd):
        firsts, seconds = backward((np.asarray(gd) * inv)[:, None])
        return _column_grad(zip(visits, (g for pair in zip(firsts, seconds) for g in pair)),
                            A.shape)

    return out.sum(axis=-1) * inv, grad


# -- spatial constraints ------------------------------------------------------


def in_box_ratios(ca, masks, tokens):
    """Fraction of each token's attention mass inside its mask, per frame: [T, F] in [0, 1].

    ``ca`` holds CA map values [F, N, L]; ``masks`` maps a token index to its
    [F, grid_h, grid_w] masks.
    """
    M = np.stack([_frame_masks(masks, t, ca.shape[:2]) for t in tokens])
    X, totals = _columns(ca, tokens)
    return (X * M).sum(axis=-1) / totals


def _frame_masks(masks, key, shape):
    """The masks of `key` as [F, N] for CA columns of `shape`; any other shape is an error."""
    M = masks[key]
    M = M.reshape(M.shape[0], -1)
    if M.shape != shape:
        raise DimensionError(f"masks of shape {M.shape} for a CA column of shape {shape}")
    return M


def _tracked(pairs):
    """(token, noun) for each pair's noun and then its verb: both track the noun's mask."""
    return [(t, pair[0]) for pair in pairs.pairs for t in pair]


def _mass_terms(X, total, M, halves):
    """Squared mass ratios of the token columns X [T, F, N], summed over frames: ([H, T], backward).

    ``total`` [T, F] holds the columns' totals and ``M`` [T, F, N] each token's
    masks.  Each half is fg (False): (1 - in/total)^2, or bg (True):
    (out/total)^2, with the bg weight in the literal (1 - M) form, which equals
    the fg deficit for binary masks.
    ``backward(g)`` gives X's gradient per half, [H, T, F, N].
    """
    W = np.stack([1.0 - M if outside else M for outside in halves])
    mass = (X * W).sum(axis=-1)
    ratio = mass / total
    fg = [h for h, outside in enumerate(halves) if not outside]
    base = ratio.copy()
    base[fg] = 1.0 - ratio[fg]

    def backward(g):
        g_ratio = 2.0 * base * g
        g_ratio[fg] = -g_ratio[fg]
        g_total = -g_ratio * mass / (total * total)
        return (g_ratio / total)[..., None] * W + g_total[..., None]

    return (base ** 2).sum(axis=-1), backward


def _mass_node(A, masks, pairs, halves):
    """Frame-mean mass terms of the tracked tokens, the halves added, as one node on A."""
    tracked = _tracked(pairs)
    tokens = [t for t, _ in tracked]
    # every token's masks are checked before any token's attention mass
    M = np.stack([_frame_masks(masks, noun, A.shape[:2]) for _, noun in tracked])
    X, total = _columns(A.data, tokens)
    terms, backward = _mass_terms(X, total, M, halves)
    inv = 1.0 / X.shape[1]
    return Tensor.node(sum(sum(row) * inv for row in terms), (A,), lambda g: (_column_grad(
        zip(tokens * len(halves), backward(g * inv).reshape(-1, *X.shape[1:])), A.shape),))


@trapped
def loss_fg(A, masks, pairs, config):
    """Squared deficit of in-box attention mass, frame-averaged."""
    return _mass_node(A, masks, pairs, (False,))


@trapped
def loss_bg(A, masks, pairs, config):
    """Squared out-of-box attention mass ratio, frame-averaged."""
    return _mass_node(A, masks, pairs, (True,))


@trapped
def loss_sp(A, masks, pairs, config):
    """The spatial constraint: fg + bg of each pair's noun and verb in the noun's masks."""
    return _mass_node(A, masks, pairs, (False, True))


# -- syntax contrastive constraint --------------------------------------------


@trapped
def loss_pos(A, pair, config):
    """Frame-mean distance between a pair's noun map and verb map."""
    means, grad = _mean_distances(A, [tuple(pair)], config)
    return Tensor.node(means[0], (A,), lambda g: (grad([g]),))


@trapped
def loss_neg(A, pair, negatives, config):
    """Summed frame-mean distance from the noun map to each negative map; 0 for none."""
    if not negatives:
        return Tensor(0.0)
    means, grad = _mean_distances(A, [(pair[0], u) for u in sorted(negatives)], config)
    return Tensor.node(sum(means), (A,), lambda g: (grad([g] * len(means)),))


@trapped
def loss_syt(A, pairs, config):
    """Contrastive ratio summed over pairs (or plain sum in SUM form)."""
    negatives = [sorted(pairs.negatives_for(pair)) for pair in pairs.pairs]
    means, grad = _mean_distances(A, [d for pair, negs in zip(pairs.pairs, negatives)
                                      for d in [pair, *((pair[0], u) for u in negs)]], config)
    ratio, terms, i = config.contrastive_form == RATIO, [], 0
    for pair, negs in zip(pairs.pairs, negatives):
        pos, denom = means[i], means[i] + sum(means[i + 1:i + 1 + len(negs)])
        i += 1 + len(negs)
        if ratio and denom <= EPS:
            raise DegenerateAttentionError(f"pair {pair}: contrastive denominator <= {EPS}")
        terms.append((pos, denom, len(negs)))

    def backward(g):
        gd = []
        for pos, denom, k in terms:
            g_neg = -g * pos / (denom * denom) if ratio else g
            gd += [g / denom + g_neg if ratio else g] + [g_neg] * k
        return (grad(gd),)

    return Tensor.node(sum(pos / denom if ratio else denom for pos, denom, _ in terms), (A,),
                       backward)


# -- latent updates -----------------------------------------------------------


@trapped
def guide_latent(state, leaf, loss, lam):
    """One gradient step of size ``lam`` on the latent; returns (new state, gradient norm)."""
    loss.backward()
    grad = leaf.grad if leaf.grad is not None else np.zeros_like(state.z)
    if not np.all(np.isfinite(grad)):
        raise NumericError("non-finite guidance gradient")
    z_new = state.z - lam * grad
    return LatentState(z_new, state.timestep_index), float(np.sqrt((grad ** 2).sum()))


@dataclass
class SamplingResult:
    final_state: LatentState
    latent_norms: list          # per-step L2 norm of the latent after the scheduler update
    trace: GuidanceTrace
    ca_records: dict            # step -> CA map values [F, N, L]
    column_pairs: SyntaxPairs   # CA-column pairs
    masks: dict                 # noun column -> [F, grid_h, grid_w] masks
    warnings: list              # the run's one warning list, as `prepare_inputs` returns it
    config: GuidanceConfig


def _pairs_to_columns(pairs):
    """`pairs` of token indices as CA columns: column 0 is the begin marker, so token i is i + 1."""
    return SyntaxPairs([(n + 1, v + 1) for n, v in pairs.pairs],
                       frozenset(t + 1 for t in pairs.tokens))


def prepare_inputs(prompt, priors, model):
    """Tokenize, pair, resample, rasterize, and bind masks to noun columns.

    Boxes bind to the prompt nouns their names hold when each name holds exactly one, one
    to one.  Names that all hold prompt nouns but contradict their positional nouns are an
    `InputError`; otherwise the k-th box binds to the k-th pair, with a warning per box.
    Returns ``(column_pairs, text, masks, warnings)``, the warnings in this order: the
    prior's ``load_warnings``, a resampling of the boxes to the model's frame count, the
    all-zero masks, the boxes bound by position, then the pairs with no negative tokens.
    """
    tokens = tokenize(prompt)
    pairs = extract_pairs(tokens)
    text = model.encode_text(tokens)
    column_pairs = _pairs_to_columns(pairs)
    frames, notes = model.config.frames, list(priors.load_warnings)
    if priors.frame_count != frames:
        notes.append(f"resampled {priors.frame_count} box frames to {frames} model frames")
        priors = resample_frames(priors, frames)
    grid = model.config.capture_grid
    raw_masks, empty = rasterize_masks(priors, grid, grid)
    notes += empty
    if len(priors.trajectories) != len(column_pairs.pairs):
        raise InputError(
            f"{len(priors.trajectories)} box trajectories for "
            f"{len(column_pairs.pairs)} noun/verb pairs"
        )
    nouns = [tokens[noun].text for noun, _ in pairs.pairs]
    named = [[n for n in nouns if n in words(traj.name)] for traj in priors.trajectories]
    if all(len(held) == 1 for held in named) and len({h[0] for h in named}) == len(named):
        order = [nouns.index(held[0]) for held in named]
    elif all(named) and any(set(held) - {nouns[k]} for k, held in enumerate(named)):
        raise InputError(f"box names {[t.name for t in priors.trajectories]} do not match "
                         f"the prompt's subjects {nouns} one to one")
    else:
        order = range(len(nouns))
        notes += [f"box {traj.name!r} of subject {traj.subject_id} bound by "
                  f"position to the noun {noun!r}"
                  for traj, noun in zip(priors.trajectories, nouns)]
    notes += [f"pair {tokens[n].text}/{tokens[v].text} has no negative tokens"
              for n, v in pairs.pairs if not pairs.negatives_for((n, v))]
    binding = {traj.subject_id: column_pairs.pairs[k][0]
               for traj, k in zip(priors.trajectories, order)}
    return column_pairs, text, {binding[k]: m for k, m in raw_masks.items()}, notes


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
    column_pairs, text, masks, notes = prepare_inputs(prompt, priors, model)
    cfg_m = model.config
    schedule = ddim_schedule(config.total_steps)
    snapshot_steps = {1, config.t1, config.t2, config.total_steps} - {0}
    nouns = [noun for noun, _ in column_pairs.pairs]

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1A7E]))
    z0 = rng.normal(size=(cfg_m.frames, LATENT_CHANNELS, cfg_m.latent_h, cfg_m.latent_w))
    state = LatentState(z0, config.total_steps - 1)
    trace = GuidanceTrace()
    ca_records, latent_norms = {}, []

    for step in range(1, config.total_steps + 1):
        tau = state.timestep_index / config.total_steps
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
                    _, A = model.denoise_step(leaf, tau, text)
                    if loss_name == "spatial":
                        loss = loss_sp(A, masks, column_pairs, config)
                    else:
                        loss = loss_syt(A, column_pairs, config)
                    value = loss.item()
                    state, gnorm = guide_latent(state, leaf, loss, lam)
                    ratios = {noun: float(r.mean())
                              for noun, r in zip(nouns, in_box_ratios(A.data, masks, nouns))}
                except AttnGuideError as exc:
                    raise GuidanceError(f"step {step} iteration {it}: {exc}") from exc
                trace.add(TraceRecord(step, it, loss_name, value, gnorm, ratios))

        eps_pred, A = model.denoise_step(Tensor(state.z), tau, text)
        if step in snapshot_steps:
            ca_records[step] = A.data
        state = ddim_step(state, eps_pred, schedule)
        with np.errstate(over="ignore"):  # a norm past float range is inf; `generate` rejects it
            latent_norms.append(float(np.sqrt((state.z ** 2).sum())))

    return SamplingResult(
        final_state=state,
        latent_norms=latent_norms,
        trace=trace,
        ca_records=ca_records,
        column_pairs=column_pairs,
        masks=masks,
        warnings=notes,
        config=config,
    )
