"""The fast forms of the hottest numpy calls against the forms they replace.

A max, a copy and a gather whose every output is one product give the same
value whatever the order of the work, so each fast form must match the form
it replaced byte for byte: the guided dynamics amplify any rounding change.
"""

import numpy as np
import pytest

from attnguide import guidance
from attnguide.autodiff import Tensor, softmax
from attnguide.denoiser import LATENT_CHANNELS, LinearAttentionStub, ToyDenoiser, ToyModelConfig
from attnguide.guidance import GuidanceConfig, loss_syt
from attnguide.syntax import extract_pairs, tokenize

import composites
from conftest import TEMPLATE_PROMPT, tiny_model_config
from reftensor import sum_grad


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def reference_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


SIGNED_ZEROS = np.array([[-0.0, 0.0, -1.0], [0.0, -0.0, -2.0], [-0.0, -0.0, -0.0]])


@pytest.mark.parametrize("case", ["contiguous", "transposed", "1d", "last_axis_1",
                                  "last_axis_17", "signed_zeros"])
def test_softmax_matches_last_axis_max(rng, case):
    x = {
        "contiguous": lambda: rng.normal(size=(8, 64, 16)),
        "transposed": lambda: rng.normal(size=(16, 64, 8)).transpose(2, 1, 0),
        "1d": lambda: rng.normal(size=7),
        "last_axis_1": lambda: rng.normal(size=(5, 1)),
        "last_axis_17": lambda: rng.normal(size=(3, 4, 17)) * 30.0,
        "signed_zeros": lambda: SIGNED_ZEROS,
    }[case]()
    same_bytes(softmax(x), reference_softmax(x))


def test_softmax_propagates_nan(rng):
    x = rng.normal(size=(4, 6))
    x[2, 3] = np.nan
    out = softmax(x)
    assert np.isnan(out[2]).all()
    same_bytes(np.delete(out, 2, axis=0), reference_softmax(np.delete(x, 2, axis=0)))


@pytest.mark.parametrize("shape,axis,g_shape", [
    ((3, 4, 5), None, ()),
    ((3, 4, 5), None, (3, 4, 1)),    # a keepdims sum
    ((3, 4, 5), 0, (4, 5)),
    ((3, 4, 5), 1, (3, 5)),
    ((3, 4, 5), -1, (3, 4)),
    ((3, 4, 5), (0, 2), (4,)),
    ((5,), 0, ()),
])
def test_sum_grad_matches_broadcast_copy(rng, shape, axis, g_shape):
    g = rng.normal(size=g_shape)
    ref = np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape).copy()
    out = sum_grad(g, axis, shape)
    same_bytes(out, ref)
    assert out.flags.writeable and not np.shares_memory(out, g)


# The `ablate` and `gradcheck` CLI models, and grids whose cells differ in size.
ABLATE_MODEL = dict(frames=2, latent_h=8, latent_w=8,
                    levels=(("down", 4), ("mid", 2), ("up", 4)), embed_dim=16)
GRADCHECK_MODEL = dict(frames=2, latent_h=4, latent_w=4,
                       levels=(("down", 4), ("mid", 2), ("up", 4)), token_budget=8, embed_dim=8)
UNEVEN_MODEL = dict(levels=(("down", 5), ("mid", 3), ("up", 5)))
MODELS = [pytest.param(overrides, id=name) for name, overrides in [
    ("default", {}), ("ablate", ABLATE_MODEL), ("gradcheck", GRADCHECK_MODEL),
    ("uneven", UNEVEN_MODEL)]]


@pytest.mark.parametrize("overrides", MODELS)
def test_pool_matrices_match_the_loop(overrides):
    """P, each pixel's cell and its pooling weight, against P built pixel by pixel."""
    model = ToyDenoiser(ToyModelConfig(**overrides))
    cfg = model.config
    for g, (cell, pw) in model._cells.items():
        P = composites.pool_matrix(g, cfg.latent_h, cfg.latent_w)
        same_bytes(model._pool[g], P)
        same_bytes(cell, P.argmax(0))
        same_bytes(pw, P.max(0)[:, None])
    stub = LinearAttentionStub(cfg)
    same_bytes(stub._P, composites.pool_matrix(cfg.capture_grid, cfg.latent_h, cfg.latent_w))


@pytest.mark.parametrize("overrides", MODELS)
def test_unpool_gathers_match_matmuls(rng, overrides):
    model = ToyDenoiser(ToyModelConfig(**overrides))
    cfg = model.config
    assert set(model._cells) == {g for _, g in cfg.levels}
    for g, (cell, pw) in model._cells.items():
        P, U = model._pool[g], model._unpool[g]
        out = rng.normal(size=(cfg.frames, g * g, LATENT_CHANNELS))
        out[0, 0] = 0.0
        same_bytes(np.take(out, cell, axis=-2), U @ out)
        same_bytes(np.take(out, cell, axis=-2) * pw, P.T @ out)


@pytest.mark.parametrize("pixels", [1, 7, 8, 9, 16, 64, 127, 128, 129, 256, 300])
def test_stack_sums_match_strided_column_sums(rng, pixels):
    """The losses sum the C-contiguous column stack along its rows; the replaced chains
    summed the strided columns of A.  A numpy that sums the two in different orders
    fails here rather than by a moved digest."""
    A = rng.uniform(size=(5, pixels, 11)) * 10.0 ** rng.uniform(-3, 3, size=(5, pixels, 11))
    cols = [7, 2, 9, 2, 0]
    X, sums = guidance._columns(A, cols)
    assert X.flags.c_contiguous and X.shape == (5, 5, pixels)
    same_bytes(sums, X.sum(axis=-1))
    for k, c in enumerate(cols):
        same_bytes(sums[k], A[..., c].sum(axis=-1))
        for f in range(A.shape[0]):
            same_bytes(sums[k, f], A[f, :, c].sum())   # a frame mean's 1-D sum
    same_bytes(sums.T.copy().sum(axis=-1)[1], sums[:, 1].sum())


def test_loss_syt_gathers_each_column_once(monkeypatch, rng):
    """Template prompt: 2 pairs x (verb + 7 negatives) = 16 distances over 9 columns,
    gathered into one stack and measured in one kernel call."""
    model = ToyDenoiser(tiny_model_config())
    tokens = tokenize(TEMPLATE_PROMPT)
    text = model.encode_text(tokens)
    pairs = guidance._pairs_to_columns(extract_pairs(tokens), text.columns)
    cfg = model.config
    z = Tensor(rng.normal(size=(cfg.frames, LATENT_CHANNELS, cfg.latent_h, cfg.latent_w)),
               requires_grad=True)
    _, A = model.denoise_step(z, 0.5, text)
    gathers, kernels = [], []
    columns, distances = guidance._columns, guidance._distances
    monkeypatch.setattr(guidance, "_columns",
                        lambda A, cols: gathers.append(list(cols)) or columns(A, cols))
    monkeypatch.setattr(guidance, "_distances", lambda X, a, b, *rest: (
        kernels.append((X.shape[0], len(a), len(b))) or distances(X, a, b, *rest)))
    loss_syt(A, pairs, GuidanceConfig()).backward()
    assert sum(1 + len(pairs.negatives_for(pair)) for pair in pairs.pairs) == 16
    assert len(gathers) == 1 and len(gathers[0]) == len(set(gathers[0])) == 9
    assert kernels == [(9, 16, 16)]
