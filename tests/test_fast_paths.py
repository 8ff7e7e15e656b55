"""The fast forms of the hottest numpy calls against the forms they replace.

A max, a copy and a gather whose every output is one product give the same
value whatever the order of the work, so each fast form must match the form
it replaced byte for byte: the guided dynamics amplify any rounding change.
"""

import numpy as np
import pytest

from attnguide import guidance
from attnguide.autodiff import Tensor, softmax, softmax_grad
from attnguide.denoiser import LATENT_CHANNELS, LinearAttentionStub, ToyDenoiser, ToyModelConfig
from attnguide.guidance import GuidanceConfig, loss_syt
from attnguide.syntax import extract_pairs, tokenize

import composites
from conftest import (
    ABLATE_MODEL,
    GRADCHECK_MODEL,
    TEMPLATE_PROMPT,
    same_bytes,
    tiny_model_config,
)
from reftensor import sum_grad


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
    assert same_bytes(softmax(x), reference_softmax(x))


def test_softmax_propagates_nan(rng):
    x = rng.normal(size=(4, 6))
    x[2, 3] = np.nan
    out = softmax(x)
    assert np.isnan(out[2]).all()
    assert same_bytes(np.delete(out, 2, axis=0), reference_softmax(np.delete(x, 2, axis=0)))


def reference_softmax_grad(out, g):
    return out * (g - (g * out).sum(axis=-1, keepdims=True))


def frozen(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("case", ["same_shape", "broadcast_heads", "transposed", "read_only"])
def test_softmax_grad_matches_out_of_place(rng, case):
    """The in-place gradient against the out-of-place form it replaced, byte for byte,
    with both inputs left as they were.  `RefTensor` calls the same function, so the
    fused-vs-composite pins cannot see a change in it.  `broadcast_heads` is
    `_cross_attention`'s `[F, N, L]` gradient against its `[H, F, N, L]` maps."""
    out, g = {
        "same_shape": lambda: (softmax(rng.normal(size=(8, 64, 16))), rng.normal(size=(8, 64, 16))),
        "broadcast_heads": lambda: (softmax(rng.normal(size=(2, 8, 64, 16))),
                                    rng.normal(size=(8, 64, 16)) * 0.5),
        "transposed": lambda: (softmax(rng.normal(size=(16, 64, 8)).transpose(2, 1, 0)),
                               rng.normal(size=(16, 64, 8)).transpose(2, 1, 0)),
        "read_only": lambda: (frozen(softmax(rng.normal(size=(2, 4, 9, 5)))),
                              frozen(rng.normal(size=(4, 9, 5)))),
    }[case]()
    before = out.tobytes(), g.tobytes()
    assert same_bytes(softmax_grad(out, g), reference_softmax_grad(out, g))
    assert (out.tobytes(), g.tobytes()) == before


@pytest.mark.parametrize("writeable", [True, False])
def test_softmax_leaves_its_input(rng, writeable):
    x = rng.normal(size=(3, 8, 5))
    x.flags.writeable = writeable
    before = x.tobytes()
    assert same_bytes(softmax(x), reference_softmax(x))
    assert x.tobytes() == before


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
    assert same_bytes(out, ref)
    assert out.flags.writeable and not np.shares_memory(out, g)


# Grids whose cells differ in size.
UNEVEN_MODEL = dict(levels=(("down", 5), ("mid", 3), ("up", 5)))
MODELS = [pytest.param(overrides, id=name) for name, overrides in [
    ("default", {}), ("ablate", ABLATE_MODEL), ("gradcheck", GRADCHECK_MODEL),
    ("uneven", UNEVEN_MODEL)]]


@pytest.mark.parametrize("overrides", MODELS)
def test_pool_matrices_match_the_loop(overrides):
    """P, each pixel's cell and each cell's pooling weight per channel, against P built
    pixel by pixel."""
    model = ToyDenoiser(ToyModelConfig(**overrides))
    cfg = model.config
    for g, (cell, pw) in model._cells.items():
        P = composites.pool_matrix(g, cfg.latent_h, cfg.latent_w)
        assert same_bytes(model._pool[g], P)
        assert same_bytes(cell, P.argmax(0))
        assert same_bytes(pw, np.repeat(P.max(1)[:, None], LATENT_CHANNELS, axis=1))
    stub = LinearAttentionStub(cfg)
    assert same_bytes(stub._P, composites.pool_matrix(cfg.capture_grid, cfg.latent_h, cfg.latent_w))


@pytest.mark.parametrize("overrides", MODELS)
def test_unpool_gathers_match_matmuls(rng, overrides):
    model = ToyDenoiser(ToyModelConfig(**overrides))
    cfg = model.config
    assert set(model._cells) == {g for _, g in cfg.levels}
    for g, (cell, pw) in model._cells.items():
        P, U = model._pool[g], model._unpool[g]
        out = rng.normal(size=(cfg.frames, g * g, LATENT_CHANNELS))
        out[0, 0] = 0.0
        assert same_bytes(np.take(out, cell, axis=-2), U @ out)
        assert same_bytes(np.take(out * pw, cell, axis=-2), P.T @ out)


@pytest.mark.parametrize("pixels", [1, 7, 8, 9, 16, 64, 127, 128, 129, 256, 300])
def test_stack_sums_match_strided_column_sums(rng, pixels):
    """The losses sum the C-contiguous column stack along its rows; the replaced chains
    summed the strided columns of A.  A numpy that sums the two in different orders
    fails here rather than by a moved digest."""
    A = rng.uniform(size=(5, pixels, 11)) * 10.0 ** rng.uniform(-3, 3, size=(5, pixels, 11))
    cols = [7, 2, 9, 2, 0]
    X, sums = guidance._columns(A, cols)
    assert X.flags.c_contiguous and X.shape == (5, 5, pixels)
    assert same_bytes(sums, X.sum(axis=-1))
    for k, c in enumerate(cols):
        assert same_bytes(sums[k], A[..., c].sum(axis=-1))
        for f in range(A.shape[0]):
            assert same_bytes(sums[k, f], A[f, :, c].sum())   # a frame mean's 1-D sum
    assert same_bytes(sums.T.copy().sum(axis=-1)[1], sums[:, 1].sum())


def test_loss_syt_gathers_each_column_once(monkeypatch, rng):
    """Template prompt: 2 pairs x (verb + 7 negatives) = 16 distances over 9 columns,
    gathered into one stack and measured in one kernel call."""
    model = ToyDenoiser(tiny_model_config())
    tokens = tokenize(TEMPLATE_PROMPT)
    text = model.encode_text(tokens)
    pairs = guidance._pairs_to_columns(extract_pairs(tokens))
    cfg = model.config
    z = Tensor(rng.normal(size=(cfg.frames, LATENT_CHANNELS, cfg.latent_h, cfg.latent_w)),
               requires_grad=True)
    _, A = model.denoise_step(z, 0.5, text)
    gathers, kernels = [], []
    columns = guidance._columns
    monkeypatch.setattr(guidance, "_columns",
                        lambda A, cols: gathers.append(list(cols)) or columns(A, cols))
    for name in ("_kl", "_cosine"):
        monkeypatch.setattr(guidance, name, lambda X, a, b, kernel=getattr(guidance, name): (
            kernels.append((X.shape[0], len(a), len(b))) or kernel(X, a, b)))
    loss_syt(A, pairs, GuidanceConfig()).backward()
    assert sum(1 + len(pairs.negatives_for(pair)) for pair in pairs.pairs) == 16
    assert len(gathers) == 1 and len(gathers[0]) == len(set(gathers[0])) == 9
    assert kernels == [(9, 16, 16)]
