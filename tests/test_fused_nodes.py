"""The fused autodiff nodes against the composite Tensor chains they replace.

Each fused node (the map distance, the per-token spatial mass term and the
denoiser's cross-attention) must give the composite chain's value and
leaf gradient byte for byte, because the guided dynamics amplify any
rounding change.  The composites below are built from primitive Tensor
ops exactly as the package built them before fusion.
"""

import numpy as np
import pytest

from attnguide import guidance
from attnguide.autodiff import Tensor
from attnguide.boxes import MaskSet
from attnguide.denoiser import TextEncoding, ToyDenoiser
from attnguide.errors import DegenerateAttentionError, NumericError
from attnguide.guidance import (
    COSINE,
    KL_FWD,
    KL_SYM,
    RATIO,
    SUM,
    GuidanceConfig,
    _dist,
    loss_bg,
    loss_fg,
    loss_sp,
    loss_syt,
)
from attnguide.syntax import SyntaxPairs

from conftest import tiny_model_config

SEEDS = range(25)


# -- composite references -----------------------------------------------------


def composite_normalize_lastdim(t, eps):
    te = t + eps
    s = te.sum(axis=-1)
    if te.data.ndim <= 1:
        return te / s
    ndim = te.data.ndim
    perm = (ndim - 1,) + tuple(range(ndim - 1))
    inv = tuple(range(1, ndim)) + (0,)
    return (te.transpose(perm) * (1.0 / s)).transpose(inv)


def composite_dist(p, q, kind, eps):
    if kind == COSINE:
        dot = (p * q).sum(axis=-1)
        norm = (p.square().sum(axis=-1)).sqrt() * (q.square().sum(axis=-1)).sqrt()
        return 1.0 - dot / norm
    pn = composite_normalize_lastdim(p, eps)
    qn = composite_normalize_lastdim(q, eps)
    kl_pq = (pn * (pn.log() - qn.log())).sum(axis=-1)
    if kind == KL_FWD:
        return kl_pq
    kl_qp = (qn * (qn.log() - pn.log())).sum(axis=-1)
    return (kl_pq + kl_qp) * 0.5


def composite_mass_term(col, M, token, eps, outside):
    total = col.sum(axis=1)
    low = np.flatnonzero(total.data <= eps)
    if low.size:
        raise DegenerateAttentionError(
            f"token {token} frame {int(low[0])}: total attention mass <= {eps}"
        )
    if outside:
        term = ((col * (1.0 - M)).sum(axis=1) / total).square()
    else:
        term = (1.0 - (col * M).sum(axis=1) / total).square()
    return term.sum()


def composite_cross_attention(model, x, keys, tag):
    w = model._weights[tag]
    scale = 1.0 / np.sqrt(model._dh)
    maps = []
    for wq, k in zip(w["wq"], keys):
        q = x @ wq
        maps.append((q @ k) * scale)
    A = maps[0].softmax_lastdim()
    for m in maps[1:]:
        A = A + m.softmax_lastdim()
    return A * (1.0 / len(maps))


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# -- inputs ---------------------------------------------------------------------


def attention_values(rng, shape, zeros=0.1):
    """Positive maps with some exact zeros and a wide spread of magnitudes."""
    vals = rng.uniform(0.0, 1.0, shape) ** 3 * 10.0 ** rng.uniform(-3, 3)
    vals[rng.random(shape) < zeros] = 0.0
    vals[..., 0, :] = rng.uniform(0.1, 1.0, vals[..., 0, :].shape)  # no all-zero map
    return vals


def mask_set(rng, keys, frames, grid, fractional):
    masks = {}
    for key in keys:
        stack = []
        for f in range(frames):
            m = rng.uniform(0.0, 1.0, (grid, grid))
            stack.append(m if fractional else (m < 0.5).astype(np.float64))
        masks[key] = np.stack(stack)
    return MaskSet(masks)


# -- distance -------------------------------------------------------------------


COLUMN_PAIRS = [(0, 1), (0, 2), (2, 0), (1, 3), (0, 3), (3, 1)]


def distance_loss(dist_fn, vals, kind):
    """Frame-mean distances between columns of one leaf, sharing columns as loss_syt does."""
    X = Tensor(vals, requires_grad=True)
    loss, values = None, []
    for a, b in COLUMN_PAIRS:
        d = dist_fn(X.take_lastdim(a), X.take_lastdim(b), kind, 1e-8)
        values.append(d.data)
        term = d.mean()
        loss = term if loss is None else loss + term
    loss.backward()
    return values, loss.data, X.grad


@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize("kind", [KL_SYM, KL_FWD, COSINE])
def test_dist_matches_composite(kind, ndim):
    for seed in SEEDS:
        rng = np.random.default_rng([seed, ndim])
        lead = tuple(int(n) for n in rng.integers(1, 5, size=ndim - 1))
        vals = attention_values(rng, lead + (int(rng.integers(2, 20)), 4))
        fused = distance_loss(_dist, vals, kind)
        composite = distance_loss(composite_dist, vals, kind)
        assert all(same_bytes(a, b) for a, b in zip(fused[0], composite[0]))
        assert same_bytes(fused[1], composite[1])
        assert same_bytes(fused[2], composite[2])


def loss_syt_run(vals, pairs, config):
    A = Tensor(vals, requires_grad=True)
    loss = loss_syt(A, pairs, config)
    loss.backward()
    return loss.data, A.grad


@pytest.mark.parametrize("kind", [KL_SYM, KL_FWD, COSINE])
@pytest.mark.parametrize("form,include_verb", [(RATIO, False), (SUM, False), (RATIO, True)])
def test_loss_syt_matches_composite(monkeypatch, kind, form, include_verb):
    pairs = SyntaxPairs(
        pairs=[(1, 2), (4, 5)],
        negatives={(1, 2): frozenset({3, 4, 5, 6}), (4, 5): frozenset({1, 2, 3, 6})},
    )
    config = GuidanceConfig(distance=kind, contrastive_form=form, neg_includes_verb=include_verb)
    for seed in range(10):
        vals = attention_values(np.random.default_rng(seed), (3, 16, 8), zeros=0.0)
        fused = loss_syt_run(vals, pairs, config)
        with monkeypatch.context() as patch:
            patch.setattr(guidance, "_dist", composite_dist)
            composite = loss_syt_run(vals, pairs, config)
        assert same_bytes(fused[0], composite[0])
        assert same_bytes(fused[1], composite[1])


# -- spatial mass term ------------------------------------------------------------


def mass_run(loss_fn, vals, masks, pairs):
    A = Tensor(vals, requires_grad=True)
    loss = loss_fn(A, masks, pairs)
    loss.backward()
    return loss.data, A.grad


@pytest.mark.parametrize("fractional", [False, True])
@pytest.mark.parametrize("loss_fn", [loss_fg, loss_bg,
                                     lambda ca, m, p: loss_sp(ca, m, p, GuidanceConfig())],
                         ids=["fg", "bg", "sp"])
def test_mass_term_matches_composite(monkeypatch, loss_fn, fractional):
    pairs = SyntaxPairs(pairs=[(1, 2), (4, 5)], negatives={})
    for seed in SEEDS:
        rng = np.random.default_rng([seed, fractional])
        frames, grid = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        vals = attention_values(rng, (frames, grid * grid, 7))
        masks = mask_set(rng, (1, 4), frames, grid, fractional)
        fused = mass_run(loss_fn, vals, masks, pairs)
        with monkeypatch.context() as patch:
            patch.setattr(guidance, "_mass_term", composite_mass_term)
            composite = mass_run(loss_fn, vals, masks, pairs)
        assert same_bytes(fused[0], composite[0])
        assert same_bytes(fused[1], composite[1])


# -- cross-attention --------------------------------------------------------------


def cross_attention_run(fn, model, x_vals, weights, keys, tag):
    x = Tensor(x_vals, requires_grad=True)
    A = fn(model, x, keys, tag)
    (A * weights).sum().backward()
    return A.data, x.grad


@pytest.mark.parametrize("heads", [1, 2, 3, 4])
def test_cross_attention_matches_composite(heads):
    model = ToyDenoiser(tiny_model_config(heads=heads))
    cfg = model.config
    for seed in SEEDS:
        rng = np.random.default_rng([seed, heads])
        kv = model._keys_values(Tensor(rng.normal(size=(cfg.token_budget, cfg.embed_dim))))
        for tag, g in cfg.levels:
            x_vals = rng.normal(0.0, 2.0, (cfg.frames, g * g, cfg.latent_channels))
            weights = rng.normal(size=(cfg.frames, g * g, cfg.token_budget))
            keys = kv[tag][0]
            fused = cross_attention_run(ToyDenoiser._cross_attention, model, x_vals, weights,
                                        keys, tag)
            composite = cross_attention_run(composite_cross_attention, model, x_vals, weights,
                                            keys, tag)
            assert same_bytes(fused[0], composite[0])
            assert same_bytes(fused[1], composite[1])


@pytest.mark.parametrize("heads", [1, 3])
def test_denoise_step_gradient_matches_composite(monkeypatch, heads):
    model = ToyDenoiser(tiny_model_config(heads=heads))
    cfg = model.config
    emb = Tensor(np.random.default_rng(0).normal(size=(cfg.token_budget, cfg.embed_dim)))
    text = TextEncoding(emb, model._keys_values(emb), columns={})

    def run(z_vals, weights):
        z = Tensor(z_vals, requires_grad=True)
        eps, ca, _ = model.denoise_step(z, 20 / 50, text)
        ((eps * weights).sum() + ca.square().sum()).backward()
        return eps.data, ca.data, z.grad

    for seed in range(10):
        rng = np.random.default_rng(seed)
        z_vals = rng.normal(size=(cfg.frames, cfg.latent_channels, cfg.latent_h, cfg.latent_w))
        weights = rng.normal(size=z_vals.shape)
        fused = run(z_vals, weights)
        with monkeypatch.context() as patch:
            patch.setattr(ToyDenoiser, "_cross_attention", composite_cross_attention)
            composite = run(z_vals, weights)
        assert all(same_bytes(a, b) for a, b in zip(fused, composite))


# -- error paths --------------------------------------------------------------------


@pytest.mark.parametrize("kind", [KL_SYM, KL_FWD, COSINE])
@pytest.mark.parametrize("shape", [(3,), (2, 3)])
def test_dist_non_finite_intermediate_raises(kind, shape):
    p = Tensor(np.full(shape, 1e200 if kind == COSINE else 1e308), requires_grad=True)
    q = Tensor(np.ones(shape), requires_grad=True)
    for fn in (_dist, composite_dist):
        with np.errstate(all="ignore"), pytest.raises(NumericError):
            fn(p, q, kind, 1e-8)


@pytest.mark.parametrize("outside", [False, True])
@pytest.mark.parametrize("value", [1e308, -1e308])
def test_mass_term_non_finite_intermediate_raises(outside, value):
    col = Tensor(np.full((2, 4), value), requires_grad=True)
    M = np.array([[1.0, 1.0, 0.0, 0.0]] * 2)
    for fn in (guidance._mass_term, composite_mass_term):
        with np.errstate(all="ignore"), pytest.raises(NumericError):
            fn(col, M, 0, 1e-8, outside)


@pytest.mark.parametrize("outside", [False, True])
def test_mass_term_low_mass_is_degenerate(outside):
    col = Tensor(np.array([[0.5, 0.5], [0.0, 0.0]]), requires_grad=True)
    for fn in (guidance._mass_term, composite_mass_term):
        with pytest.raises(DegenerateAttentionError, match="token 3 frame 1"):
            fn(col, np.ones((2, 2)), 3, 1e-8, outside)


@pytest.mark.parametrize("heads", [1, 3])
def test_cross_attention_non_finite_intermediate_raises(heads):
    model = ToyDenoiser(tiny_model_config(heads=heads))
    cfg = model.config
    keys, _ = model._keys_values(Tensor(np.full((cfg.token_budget, cfg.embed_dim), 100.0)))["down"]
    x = Tensor(np.full((cfg.frames, 16, cfg.latent_channels), 1e307), requires_grad=True)
    for fn in (ToyDenoiser._cross_attention, composite_cross_attention):
        with np.errstate(all="ignore"), pytest.raises(NumericError):
            fn(model, x, keys, "down")
