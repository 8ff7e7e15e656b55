"""Reference composites for the tests: the Tensor chains the fused nodes replace.

The package runs `denoise_step`, `loss_sp` and `loss_syt` (and the public
`loss_fg`, `loss_bg`, `loss_pos`, `loss_neg`) as single graph nodes, which
must give the values and leaf gradients of the chains below byte for byte.
Each chain is built exactly as the package built it before fusion: a graph
node per take, sum, product and mean, around the fused distance, mass-term
and cross-attention nodes (the defaults) or around the primitive-op forms of
those (`composite_dist`, `composite_mass_term`, `composite_cross_attention`).

The chains are built from `RefTensor` (`reftensor.py`), the Tensor with the
array ops the package no longer has.  The ops without an operator or method
there live here as functions built with `RefTensor.node`, as does
`in_box_ratio`, the one-frame reference for `in_box_ratios`.  `pool_matrix` is
the per-pixel loop that built the denoiser's pooling matrices.
"""

import numpy as np

from attnguide import guidance
from attnguide.autodiff import Tensor, trapped
from attnguide.denoiser import LATENT_CHANNELS, MIX
from attnguide.errors import ContractError, DegenerateAttentionError, DimensionError
from attnguide.guidance import COSINE, KL_SYM, SUM, GuidanceConfig

from reftensor import RefTensor, ref

# -- ops without an operator or method ---------------------------------------------


def square(x):
    return RefTensor.node(x.data ** 2, (x,), lambda g: (2.0 * x.data * g,))


def log(x):
    return RefTensor.node(np.log(x.data), (x,), lambda g: (g / x.data,))


def exp(x):
    out = np.exp(x.data)
    return RefTensor.node(out, (x,), lambda g: (g * out,))


def sqrt(x):
    out = np.sqrt(x.data)
    return RefTensor.node(out, (x,), lambda g: (g * 0.5 / out,))


def tanh(x):
    out = np.tanh(x.data)
    return RefTensor.node(out, (x,), lambda g: (g * (1.0 - out * out),))


def mean(x, axis=None, keepdims=False):
    n = x.size if axis is None else x.shape[axis]
    return ref(x).sum(axis=axis, keepdims=keepdims) * (1.0 / n)


def take_lastdim(x, index):
    """Select one slice along the last dimension (gradient scatters back)."""
    if not 0 <= index < x.shape[-1]:
        raise DimensionError(f"index {index} out of range for shape {x.shape}")
    src_shape = x.shape

    def backward(g):
        full = np.zeros(src_shape)
        full[..., index] = g
        return (full,)

    return RefTensor.node(x.data[..., index], (x,), backward)


def in_box_ratio(ca, masks, token_index, frame):
    """Fraction of a token's attention mass inside its mask in one frame, in [0, 1]."""
    col = ca[frame, :, token_index]
    total = col.sum()
    if total <= 0:
        raise DegenerateAttentionError(
            f"token {token_index} frame {frame}: zero total attention mass"
        )
    m = masks[token_index][frame].reshape(-1)
    return float((col * m).sum() / total)


def frame_distances(p, q, kind):
    """`kind` distance between the maps p and q [F, N], one frame at a time: the package's
    `loss_pos` on each frame's two-column A [1, N, 2]."""
    config = GuidanceConfig(distance=kind)
    frames = zip(np.atleast_2d(p), np.atleast_2d(q))
    return np.array([guidance.loss_pos(Tensor(np.stack(pq, axis=-1)[None]), (0, 1), config).item()
                     for pq in frames])


def kl_sym_oracle(p, q, eps=1e-8):
    """Independent plain-numpy evaluation of the smoothed symmetric KL."""
    pn = (p + eps) / (p + eps).sum(axis=-1, keepdims=True)
    qn = (q + eps) / (q + eps).sum(axis=-1, keepdims=True)
    fwd = (pn * (np.log(pn) - np.log(qn))).sum(axis=-1)
    rev = (qn * (np.log(qn) - np.log(pn))).sum(axis=-1)
    return 0.5 * (fwd + rev)


# -- the fused pieces as nodes, and their primitive-op forms ----------------------
#
# The nodes call private helpers of the package, so they run them under the
# floating-point trap the public entry points run under.


def check_kind(kind):
    """Reject a distance kind other than KL_SYM and COSINE, such as a config passed as one."""
    if kind not in (KL_SYM, COSINE):
        raise ContractError(f"unknown distance kind {kind!r}")


@trapped
def dist_node(p, q, kind, eps):
    assert eps == guidance.EPS, "the package's distance kernels read guidance.EPS"
    check_kind(kind)
    kernel = guidance._cosine if kind == COSINE else guidance._kl
    out, backward = kernel(np.stack((p.data, q.data)), [0], [1])
    return RefTensor.node(out[0], (p, q), lambda g: [grad[0] for grad in backward(g[None])])


def check_mass(total, token, eps):
    """Reject a token column [F, N] whose totals [F] are at or below `eps` in some frame."""
    low = np.flatnonzero(total <= eps)
    if low.size:
        raise DegenerateAttentionError(
            f"token {token} frame {int(low[0])}: total attention mass <= {eps}"
        )


@trapped
def mass_term_node(col, M, token, eps, outside):
    X = col.data[None]
    total = X.sum(axis=-1)
    check_mass(total[0], token, eps)
    terms, backward = guidance._mass_terms(X, total, M[None], (outside,))
    return RefTensor.node(terms[0, 0], (col,), lambda g: (backward(g)[0, 0],))


def check_columns(A, columns):
    """Reject CA columns [F, N] of the given tokens by the package's one rule: name the
    first (column, frame) with a negative entry or a total at or below EPS."""
    for c in sorted(columns):
        for f, col in enumerate(A.data[..., c]):
            negative = np.any(col < 0)
            if negative or col.sum() <= guidance.EPS:
                raise DegenerateAttentionError(f"token {c} frame {f}: " + (
                    "negative attention" if negative
                    else f"total attention mass <= {guidance.EPS}"))


@trapped
def cross_attention_node(model, x, keys_values, tag):
    _, A, backward = model._cross_attention(x.data, keys_values, tag)
    return RefTensor.node(A, (x,), lambda g: (backward(None, g),))


def composite_normalize_lastdim(t, eps):
    te = t + eps
    s = te.sum(axis=-1)
    ndim = te.data.ndim
    perm = (ndim - 1,) + tuple(range(ndim - 1))
    inv = tuple(range(1, ndim)) + (0,)
    return (te.transpose(perm) * (1.0 / s)).transpose(inv)


def composite_dist(p, q, kind, eps):
    check_kind(kind)
    if kind == COSINE:
        dot = (p * q).sum(axis=-1)
        norm = sqrt(square(p).sum(axis=-1)) * sqrt(square(q).sum(axis=-1))
        return 1.0 - dot / norm
    pn = composite_normalize_lastdim(p, eps)
    qn = composite_normalize_lastdim(q, eps)
    kl_pq = (pn * (log(pn) - log(qn))).sum(axis=-1)
    kl_qp = (qn * (log(qn) - log(pn))).sum(axis=-1)
    return (kl_pq + kl_qp) * 0.5


def composite_mass_term(col, M, token, eps, outside):
    total = col.sum(axis=1)
    check_mass(total.data, token, eps)
    if outside:
        term = square((col * (1.0 - M)).sum(axis=1) / total)
    else:
        term = square(1.0 - (col * M).sum(axis=1) / total)
    return term.sum()


def composite_cross_attention(model, x, keys_values, tag):
    """The heads one by one: each head's [1, C, dh] query weights and [1, dh, L] keys
    of the stacked arrays, as [C, dh] and [dh, L]."""
    w = model._weights[tag]
    scale = 1.0 / np.sqrt(model._dh)
    maps = []
    for wq, k in zip(w["wq"][:, 0], keys_values[0][:, 0]):
        q = x @ wq
        maps.append((q @ k) * scale)
    A = maps[0].softmax_lastdim()
    for m in maps[1:]:
        A = A + m.softmax_lastdim()
    return A * (1.0 / len(maps))


# -- the spatial losses ---------------------------------------------------------------


def _mass_terms(A, masks, pairs, eps, outside, mass_term):
    F = A.shape[0]
    acc = None
    for token, noun in guidance._tracked(pairs):
        col = take_lastdim(A, token)
        term = mass_term(col, guidance._frame_masks(masks, noun, col.shape), token, eps, outside)
        acc = term if acc is None else acc + term
    if acc is None:
        return RefTensor(0.0)
    return acc * (1.0 / F)


def loss_fg(A, masks, pairs, eps=1e-8, mass_term=mass_term_node):
    return _mass_terms(A, masks, pairs, eps, False, mass_term)


def loss_bg(A, masks, pairs, eps=1e-8, mass_term=mass_term_node):
    return _mass_terms(A, masks, pairs, eps, True, mass_term)


def loss_sp(A, masks, pairs, config, mass_term=mass_term_node):
    fg = loss_fg(A, masks, pairs, guidance.EPS, mass_term)
    bg = loss_bg(A, masks, pairs, guidance.EPS, mass_term)
    return fg + bg


# -- the syntax losses ----------------------------------------------------------------


def loss_pos(A, pair, kind=KL_SYM, eps=1e-8, dist=dist_node):
    check_columns(A, pair)
    return _pos(A, pair, kind, eps, dist)


def _pos(A, pair, kind, eps, dist):
    i, j = pair
    return mean(dist(take_lastdim(A, i), take_lastdim(A, j), kind, eps))


def loss_neg(A, pair, negatives, kind=KL_SYM, eps=1e-8, dist=dist_node):
    if negatives:
        check_columns(A, {pair[0], *negatives})
    return _neg(A, pair[0], negatives, kind, eps, dist)


def _neg(A, noun, negatives, kind, eps, dist):
    if not negatives:
        return RefTensor(0.0)
    acc = None
    for u in sorted(negatives):
        d = mean(dist(take_lastdim(A, noun), take_lastdim(A, u), kind, eps))
        acc = d if acc is None else acc + d
    return acc


def loss_syt(A, pairs, config, dist=dist_node):
    if not pairs.pairs:
        raise ContractError("loss_syt needs at least one noun/verb pair")
    check_columns(
        A, {c for pair in pairs.pairs for c in (*pair, *pairs.negatives_for(pair))})
    acc = None
    for pair in pairs.pairs:
        pos = _pos(A, pair, config.distance, guidance.EPS, dist)
        neg = _neg(A, pair[0], pairs.negatives_for(pair), config.distance, guidance.EPS, dist)
        denom = pos + neg
        if config.contrastive_form == SUM:
            term = denom
        else:
            if denom.item() <= guidance.EPS:
                raise DegenerateAttentionError(
                    f"pair {pair}: contrastive denominator <= {guidance.EPS}"
                )
            term = pos / denom
        acc = term if acc is None else acc + term
    return acc


# -- the denoiser -----------------------------------------------------------------------


def pool_matrix(grid, latent_h, latent_w):
    """Block-average pooling from the latent grid down to grid x grid, pixel by pixel."""
    P = np.zeros((grid * grid, latent_h * latent_w))
    for r in range(latent_h):
        for c in range(latent_w):
            cell = (r * grid // latent_h) * grid + (c * grid // latent_w)
            P[cell, r * latent_w + c] = 1.0
    P /= P.sum(axis=1, keepdims=True)
    return P


def denoise_step(model, z, tau, text, cross_attention=cross_attention_node):
    """`ToyDenoiser.denoise_step` as the chain of graph nodes it was."""
    cfg = model.config
    if not 0 <= tau < 1:
        raise ContractError(f"schedule progress {tau} outside [0, 1)")
    z = RefTensor._wrap(z)
    F, C = cfg.frames, LATENT_CHANNELS
    HW = cfg.latent_h * cfg.latent_w
    h = z.reshape(F, C, HW).transpose(0, 2, 1)   # [F, HW, C]
    captured = {}
    for tag, g in cfg.levels:
        P, U = RefTensor(model._pool[g]), RefTensor(model._unpool[g])
        x = P @ h                                 # [F, g*g, C]
        A = cross_attention(model, x, text[tag], tag)
        captured[tag] = A
        out = A @ text[tag][1]
        h = tanh(h + (U @ out) * MIX + model._weights[tag]["tau_bias"] * tau)
        if tag == "mid":
            h = _temporal_block(model, h, P, U)

    eps = (h @ model._out).transpose(0, 2, 1).reshape(*z.shape)
    wanted = cfg.capture_tags
    A_cap = captured[wanted[0]]
    for wname in wanted[1:]:
        A_cap = A_cap + captured[wname]
    return eps, A_cap * (1.0 / len(wanted))


def _temporal_block(model, h, P, U):
    w = model._temporal
    x = P @ h                                     # [F, N, C]
    y = x.transpose(1, 0, 2)                      # [N, F, C]
    logits = (y @ w["wq"]) @ (y @ w["wk"]).transpose(0, 2, 1) * w["scale"]
    T_attn = logits.softmax_lastdim()             # [N, F, F]
    out = (T_attn @ (y @ w["wv"])).transpose(1, 0, 2)
    return tanh(h + (U @ out) * MIX)
