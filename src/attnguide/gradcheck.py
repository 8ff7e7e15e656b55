"""Finite-difference gradient checks, and suites of them for the guidance losses.

Each suite checks the six losses on a tiny one-subject scene, through the
closed-form attention stub ("stub"), the full denoiser ("model"), or
directly on random attention values ("losses").
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .boxes import static_two_box_prior
from .denoiser import LATENT_CHANNELS, LinearAttentionStub, ToyDenoiser, ToyModelConfig
from .errors import ContractError
from .guidance import (
    GuidanceConfig,
    loss_bg,
    loss_fg,
    loss_neg,
    loss_pos,
    loss_sp,
    loss_syt,
    prepare_inputs,
)


def gradcheck_suites(component, seed):
    """Yield (name, worst_relative_error, tolerance, passed) per suite.

    A suite passes when every coordinate meets |a - n| <= tol*|n| +
    tol*max|n| for the analytic gradient a and the numeric one n: the
    relative error alone fails correct code on coordinates near zero, where
    finite-difference rounding dominates.

    ``component`` is "stub", "model", "losses" or "all".
    """
    cfg = ToyModelConfig(frames=2, latent_h=4, latent_w=4,
                         levels=(("down", 4), ("mid", 2), ("up", 4)),
                         token_budget=8, embed_dim=8, seed=seed)
    model = ToyDenoiser(cfg)
    prior = static_two_box_prior(cfg.frames)
    prior.trajectories = prior.trajectories[:1]
    gcfg = GuidanceConfig()
    col_pairs, text, masks, _ = prepare_inputs("a cat is sitting", prior, model)

    rng = np.random.default_rng(seed)
    z0 = rng.normal(size=(cfg.frames, LATENT_CHANNELS, cfg.latent_h, cfg.latent_w))
    A0 = rng.uniform(0.05, 1.0, size=(cfg.frames, cfg.capture_grid ** 2, cfg.token_budget))
    suites = {  # name -> (input -> CA maps A, input, tolerance)
        "stub": (LinearAttentionStub(cfg, seed=seed).ca_from_latent, z0, 1e-6),
        "model": (lambda zt: model.denoise_step(zt, 10 / gcfg.total_steps, text)[1], z0, 1e-4),
        "losses": (lambda at: at, A0, 1e-5),
    }
    for suite, (ca_of, x0, tol) in suites.items():
        if component in (suite, "all"):
            for name, fn in _loss_probes(masks, col_pairs, gcfg):
                a, n = fd_gradients(lambda x, fn=fn: fn(ca_of(x)), x0, 3e-5)
                passed = bool(np.all(np.abs(a - n) <= tol * np.abs(n) + tol * np.abs(n).max()))
                yield f"{suite}/{name}", relative_error(a, n), tol, passed


def relative_error(analytic, numeric):
    """Max over coordinates of |analytic - numeric| / max(|analytic|, |numeric|, 1e-8)."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def fd_gradients(f, x0, step):
    """The analytic and central-difference gradients of ``f`` at the array ``x0``, flattened.

    ``f`` maps a Tensor to a scalar Tensor.  Every Tensor is scanned for
    non-finite values as it is made, so each probe's value is finite.
    """
    if step <= 0:
        raise ContractError("step must be positive")
    base = np.asarray(x0, dtype=np.float64)
    leaf = Tensor(base, requires_grad=True)
    f(leaf).backward()
    analytic = leaf.grad.reshape(-1)

    flat = base.reshape(-1)
    numeric = np.empty_like(flat)
    for k in range(flat.size):
        plus, minus = flat.copy(), flat.copy()
        plus[k] += step
        minus[k] -= step
        fp = f(Tensor(plus.reshape(base.shape))).item()
        fm = f(Tensor(minus.reshape(base.shape))).item()
        numeric[k] = (fp - fm) / (2.0 * step)
    return analytic, numeric


def _loss_probes(masks, col_pairs, gcfg):
    pair = col_pairs.pairs[0]
    negs = col_pairs.negatives_for(pair)
    return [
        ("L_fg", lambda A: loss_fg(A, masks, col_pairs, gcfg)),
        ("L_bg", lambda A: loss_bg(A, masks, col_pairs, gcfg)),
        ("L_sp", lambda A: loss_sp(A, masks, col_pairs, gcfg)),
        ("L_pos", lambda A: loss_pos(A, pair, gcfg)),
        ("L_neg", lambda A: loss_neg(A, pair, negs, gcfg)),
        ("L_syt", lambda A: loss_syt(A, col_pairs, gcfg)),
    ]
