"""The fused autodiff nodes against the composite Tensor chains they replace.

Each fused node (the map distance, the per-token spatial mass term, the
denoiser's cross-attention, and the whole `denoise_step`, `loss_sp`,
`loss_syt` and their public parts) must give the composite chain's values
and leaf gradient byte for byte, because the guided dynamics amplify any
rounding change.  The composites in `composites.py` are built from the ops
of `RefTensor` (`reftensor.py`), the ops the package built them from before
fusion.
"""

import numpy as np
import pytest

import composites
from attnguide.autodiff import Tensor
from attnguide.denoiser import (
    HEADS,
    LATENT_CHANNELS,
    LatentState,
    ToyDenoiser,
    ToyModelConfig,
)
from attnguide.errors import ContractError, DegenerateAttentionError, NumericError
from attnguide.guidance import (
    COSINE,
    KL_SYM,
    RATIO,
    SUM,
    GuidanceConfig,
    guide_latent,
    loss_bg,
    loss_fg,
    loss_neg,
    loss_pos,
    loss_sp,
    loss_syt,
)
from attnguide.syntax import SyntaxPairs

from composites import (
    composite_cross_attention,
    composite_dist,
    composite_mass_term,
    cross_attention_node,
    dist_node,
    mass_term_node,
    mean,
    square,
    take_lastdim,
)
from conftest import (
    ABLATE_MODEL,
    GRADCHECK_MODEL,
    attention_values,
    random_masks,
    same_bytes,
    tiny_model_config,
)
from reftensor import RefTensor, ref

SEEDS = range(25)


# -- distance -------------------------------------------------------------------


COLUMN_PAIRS = [(0, 1), (0, 2), (2, 0), (1, 3), (0, 3), (3, 1)]


def distance_loss(dist_fn, vals, kind):
    """Frame-mean distances between columns of one leaf, sharing columns as loss_syt does."""
    X = Tensor(vals, requires_grad=True)
    loss, values = None, []
    for a, b in COLUMN_PAIRS:
        d = dist_fn(take_lastdim(X, a), take_lastdim(X, b), kind, 1e-8)
        values.append(d.data)
        term = mean(d)
        loss = term if loss is None else loss + term
    loss.backward()
    return values, loss.data, X.grad


# No package path measures KL between 1-D maps, so KL_SYM has no ndim 1 case.
@pytest.mark.parametrize("kind,ndim", [(KL_SYM, 2), (KL_SYM, 3),
                                       (COSINE, 1), (COSINE, 2), (COSINE, 3)])
def test_dist_matches_composite(kind, ndim):
    for seed in SEEDS:
        rng = np.random.default_rng([seed, ndim])
        lead = tuple(int(n) for n in rng.integers(1, 5, size=ndim - 1))
        vals = attention_values(rng, lead + (int(rng.integers(2, 20)), 4))
        fused = distance_loss(dist_node, vals, kind)
        composite = distance_loss(composite_dist, vals, kind)
        assert all(same_bytes(a, b) for a, b in zip(fused[0], composite[0]))
        assert same_bytes(fused[1], composite[1])
        assert same_bytes(fused[2], composite[2])


def loss_syt_run(vals, pairs, config, loss_fn=loss_syt):
    A = Tensor(vals, requires_grad=True)
    loss = loss_fn(A, pairs, config)
    loss.backward()
    return loss.data, A.grad


@pytest.mark.parametrize("kind", [KL_SYM, COSINE])
@pytest.mark.parametrize("form", [RATIO, SUM])
def test_loss_syt_matches_composite(kind, form):
    pairs = SyntaxPairs([(1, 2), (4, 5)], frozenset(range(1, 7)))
    config = GuidanceConfig(distance=kind, contrastive_form=form)
    for seed in range(10):
        vals = attention_values(np.random.default_rng(seed), (3, 16, 8), zeros=0.0)
        fused = loss_syt_run(vals, pairs, config)
        composite = loss_syt_run(vals, pairs, config,
                                 lambda A, p, c: composites.loss_syt(A, p, c, composite_dist))
        assert same_bytes(fused[0], composite[0])
        assert same_bytes(fused[1], composite[1])


# -- spatial mass term ------------------------------------------------------------


def mass_run(loss_fn, vals, masks, pairs):
    A = Tensor(vals, requires_grad=True)
    loss = loss_fn(A, masks, pairs)
    loss.backward()
    return loss.data, A.grad


MASS_LOSSES = {  # name -> (fused loss, composite loss around the primitive mass term)
    "fg": (lambda ca, m, p: loss_fg(ca, m, p),
           lambda ca, m, p: composites.loss_fg(ca, m, p, mass_term=composite_mass_term)),
    "bg": (lambda ca, m, p: loss_bg(ca, m, p),
           lambda ca, m, p: composites.loss_bg(ca, m, p, mass_term=composite_mass_term)),
    "sp": (lambda ca, m, p: loss_sp(ca, m, p),
           lambda ca, m, p: composites.loss_sp(ca, m, p, composite_mass_term)),
}


@pytest.mark.parametrize("fractional", [False, True])
@pytest.mark.parametrize("loss_fn", list(MASS_LOSSES), ids=list(MASS_LOSSES))
def test_mass_term_matches_composite(loss_fn, fractional):
    fused_fn, composite_fn = MASS_LOSSES[loss_fn]
    pairs = SyntaxPairs([(1, 2), (4, 5)], frozenset({1, 2, 4, 5}))
    for seed in SEEDS:
        rng = np.random.default_rng([seed, fractional])
        frames, grid = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        vals = attention_values(rng, (frames, grid * grid, 7))
        masks = random_masks(rng, (1, 4), frames, grid, fractional)
        fused = mass_run(fused_fn, vals, masks, pairs)
        composite = mass_run(composite_fn, vals, masks, pairs)
        assert same_bytes(fused[0], composite[0])
        assert same_bytes(fused[1], composite[1])


# -- cross-attention --------------------------------------------------------------


def cross_attention_run(fn, model, x_vals, weights, keys_values, tag):
    x = RefTensor(x_vals, requires_grad=True)
    A = fn(model, x, keys_values, tag)
    (A * weights).sum().backward()
    return A.data, x.grad


MODEL_SHAPES = [("default", {}), ("ablate", ABLATE_MODEL), ("gradcheck", GRADCHECK_MODEL)]


@pytest.mark.parametrize("config", [
    pytest.param(tiny_model_config(), id=str(HEADS)),
    *(pytest.param(ToyModelConfig(**shape), id=f"{name}-{HEADS}") for name, shape in MODEL_SHAPES),
])
def test_cross_attention_matches_composite(config):
    """The stacked-head kernel against the per-head chain: a BLAS that runs a stacked
    matmul other than as one product per slice fails here."""
    model = ToyDenoiser(config)
    cfg = model.config
    for seed in SEEDS:
        rng = np.random.default_rng([seed, HEADS])
        kv = model._keys_values(rng.normal(size=(cfg.token_budget, cfg.embed_dim)))
        for tag, g in cfg.levels:
            x_vals = rng.normal(0.0, 2.0, (cfg.frames, g * g, LATENT_CHANNELS))
            weights = rng.normal(size=(cfg.frames, g * g, cfg.token_budget))
            fused = cross_attention_run(cross_attention_node, model, x_vals, weights,
                                        kv[tag], tag)
            composite = cross_attention_run(composite_cross_attention, model, x_vals, weights,
                                            kv[tag], tag)
            assert same_bytes(fused[0], composite[0])
            assert same_bytes(fused[1], composite[1])


def test_denoise_step_gradient_matches_composite():
    model = ToyDenoiser(tiny_model_config())
    cfg = model.config
    text = random_text(model)

    def run(step, z_vals, weights):
        z = Tensor(z_vals, requires_grad=True)
        _, ca = step(z, 20 / 50, text)
        ca = ref(ca)
        ((ca * weights).sum() + square(ca).sum()).backward()
        return ca.data, z.grad

    for seed in range(10):
        rng = np.random.default_rng(seed)
        z_vals = rng.normal(size=(cfg.frames, LATENT_CHANNELS, cfg.latent_h, cfg.latent_w))
        weights = rng.normal(size=(cfg.frames, cfg.capture_grid ** 2, cfg.token_budget))
        fused = run(model.denoise_step, z_vals, weights)
        composite = run(lambda *a: composites.denoise_step(
            model, *a, cross_attention=composite_cross_attention), z_vals, weights)
        assert all(same_bytes(a, b) for a, b in zip(fused, composite))


# -- error paths --------------------------------------------------------------------


@pytest.mark.parametrize("kind", [KL_SYM, COSINE])
@pytest.mark.parametrize("shape", [(3,), (2, 3)])
def test_dist_non_finite_intermediate_raises(kind, shape):
    p = RefTensor(np.full(shape, 1e200 if kind == COSINE else 1e308), requires_grad=True)
    q = RefTensor(np.ones(shape), requires_grad=True)
    for fn in (dist_node, composite_dist):
        with np.errstate(all="ignore"), pytest.raises(NumericError):
            fn(p, q, kind, 1e-8)


@pytest.mark.parametrize("outside", [False, True])
@pytest.mark.parametrize("value", [1e308, -1e308])
def test_mass_term_non_finite_intermediate_raises(outside, value):
    col = RefTensor(np.full((2, 4), value), requires_grad=True)
    M = np.array([[1.0, 1.0, 0.0, 0.0]] * 2)
    for fn in (mass_term_node, composite_mass_term):
        with np.errstate(all="ignore"), pytest.raises(NumericError):
            fn(col, M, 0, 1e-8, outside)


@pytest.mark.parametrize("outside", [False, True])
def test_mass_term_low_mass_is_degenerate(outside):
    col = RefTensor(np.array([[0.5, 0.5], [0.0, 0.0]]), requires_grad=True)
    for fn in (mass_term_node, composite_mass_term):
        with pytest.raises(DegenerateAttentionError, match="token 3 frame 1"):
            fn(col, np.ones((2, 2)), 3, 1e-8, outside)


def test_cross_attention_non_finite_intermediate_raises():
    model = ToyDenoiser(tiny_model_config())
    cfg = model.config
    kv = model._keys_values(np.full((cfg.token_budget, cfg.embed_dim), 100.0))["down"]
    x = RefTensor(np.full((cfg.frames, 16, LATENT_CHANNELS), 1e307), requires_grad=True)
    for fn in (cross_attention_node, composite_cross_attention):
        with np.errstate(all="ignore"), pytest.raises(NumericError):
            fn(model, x, kv, "down")


# -- whole-step and whole-loss nodes --------------------------------------------------


def random_text(model, seed=0):
    """Text keys and values, as `encode_text` returns them, of normal embedding rows."""
    cfg = model.config
    emb = np.random.default_rng(seed).normal(size=(cfg.token_budget, cfg.embed_dim))
    return model._keys_values(emb)


def denoise_run(step, z_vals, weights, reads):
    """Values (eps, A) of `step`, a loss on the outputs named in `reads` and the
    latent's gradient for it.

    The loss is A + eps over weighted sums of the outputs as `step` returns
    them, so only A's term can carry a gradient when eps is a plain array.
    """
    z = Tensor(z_vals, requires_grad=True)
    outputs = dict(zip(("eps", "A"), step(z)))
    loss = (ref(outputs["A"]) * weights["A"]).sum()
    if "eps" in reads:
        loss = loss + (outputs["eps"] * weights["eps"]).sum()
    loss.backward()
    values = [o.data if isinstance(o, Tensor) else o for o in outputs.values()]
    return values, loss.data, z.grad


def composite_step(model, text):
    """The composite chain with eps taken as an array, as `denoise_step` gives it."""
    def step(z):
        eps, A = composites.denoise_step(model, z, 0.4, text)
        return eps.data, A
    return step


@pytest.mark.parametrize("reads", [("A", "eps"), ("A",)], ids=["eps", "A"])
@pytest.mark.parametrize("capture", ["down", "mid", "up", "down+up"])
@pytest.mark.parametrize("heads", [HEADS])
def test_denoise_step_matches_composite(heads, capture, reads):
    """Values, loss and latent gradient byte for byte; a loss that also reads eps
    gets A's gradient alone, since eps is not differentiable.  eps depends on the
    temporal block, so its bytes pin that block too."""
    model = ToyDenoiser(tiny_model_config(ca_capture=capture))
    cfg = model.config
    text = random_text(model, heads)
    for seed in range(3):
        rng = np.random.default_rng([seed, heads])
        z_vals = rng.normal(size=(cfg.frames, LATENT_CHANNELS, cfg.latent_h, cfg.latent_w))
        shapes = {"eps": z_vals.shape,
                  "A": (cfg.frames, cfg.capture_grid ** 2, cfg.token_budget)}
        weights = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        fused = denoise_run(lambda z: model.denoise_step(z, 0.4, text), z_vals, weights, reads)
        composite = denoise_run(composite_step(model, text), z_vals, weights, reads)
        assert all(same_bytes(a, b) and a.strides == b.strides
                   for a, b in zip(fused[0], composite[0]))
        assert same_bytes(fused[1], composite[1])
        assert same_bytes(fused[2], composite[2])
        assert fused[2].strides == composite[2].strides  # the layout fixes later sums


def test_denoise_step_without_grad_matches_with_grad():
    model = ToyDenoiser(tiny_model_config())
    cfg = model.config
    text = random_text(model)
    z_vals = np.random.default_rng(0).normal(
        size=(cfg.frames, LATENT_CHANNELS, cfg.latent_h, cfg.latent_w))
    free = model.denoise_step(Tensor(z_vals), 0.3, text)
    graph = model.denoise_step(Tensor(z_vals, requires_grad=True), 0.3, text)
    assert not free[1].requires_grad and graph[1].requires_grad
    for a, b in zip((free[0], free[1].data), (graph[0], graph[1].data)):
        assert same_bytes(a, b) and a.strides == b.strides


@pytest.mark.parametrize("grad", [False, True], ids=["nograd", "grad"])
def test_denoise_step_returns_eps_and_t_attn_as_arrays(grad):
    model = ToyDenoiser(tiny_model_config())
    cfg = model.config
    z_vals = np.zeros((cfg.frames, LATENT_CHANNELS, cfg.latent_h, cfg.latent_w))
    outputs = model.denoise_step(Tensor(z_vals, requires_grad=grad), 0.3, random_text(model))
    assert len(outputs) == 2  # (eps, A): the temporal attention stays inside the step
    eps, A = outputs
    assert isinstance(A, Tensor) and A.requires_grad == grad
    assert type(eps) is np.ndarray


def leaf_run(loss_fn, vals):
    A = Tensor(vals, requires_grad=True)
    loss = loss_fn(A)
    loss.backward()
    return loss.data, A.grad


# columns shared across pairs, as nouns, verbs and negatives
SHARED_PAIRS = SyntaxPairs([(1, 2), (4, 5)], frozenset(range(1, 7)))


@pytest.mark.parametrize("form", [RATIO, SUM])
@pytest.mark.parametrize("kind", [KL_SYM, COSINE])
def test_loss_syt_node_matches_chain(kind, form):
    config = GuidanceConfig(distance=kind, contrastive_form=form)
    for seed in range(5):
        vals = attention_values(np.random.default_rng([seed, 7]), (3, 16, 8), zeros=0.0)
        fused = loss_syt_run(vals, SHARED_PAIRS, config)
        composite = loss_syt_run(vals, SHARED_PAIRS, config, composites.loss_syt)
        assert same_bytes(fused[0], composite[0])
        assert same_bytes(fused[1], composite[1])


@pytest.mark.parametrize("kind", [KL_SYM, COSINE])
def test_loss_pos_and_neg_match_chain(kind):
    pair, negatives, config = (1, 2), frozenset({3, 5, 6}), GuidanceConfig(distance=kind)
    cases = [
        (lambda A: loss_pos(A, pair, config), lambda A: composites.loss_pos(A, pair, kind)),
        (lambda A: loss_neg(A, pair, negatives, config),
         lambda A: composites.loss_neg(A, pair, negatives, kind)),
    ]
    for seed in range(5):
        vals = attention_values(np.random.default_rng([seed, 8]), (3, 16, 8), zeros=0.0)
        for fused_fn, composite_fn in cases:
            fused, composite = leaf_run(fused_fn, vals), leaf_run(composite_fn, vals)
            assert same_bytes(fused[0], composite[0])
            assert same_bytes(fused[1], composite[1])


@pytest.mark.parametrize("dist", [dist_node, composite_dist])
def test_reference_chain_rejects_a_config_for_a_kind(dist):
    """The package's losses take the config last and the chains a distance kind: a config
    passed to a chain is an error, not a silent KL."""
    vals = attention_values(np.random.default_rng(8), (2, 9, 4), zeros=0.0)
    with pytest.raises(ContractError, match="unknown distance kind"):
        composites.loss_pos(Tensor(vals), (1, 2), GuidanceConfig(), dist=dist)


def test_loss_syt_empty_negatives_matches_chain():
    pairs = SyntaxPairs([(1, 2)], frozenset({1, 2}))  # a prompt of one noun and one verb
    vals = attention_values(np.random.default_rng(3), (2, 9, 6), zeros=0.0)
    for form in (RATIO, SUM):
        config = GuidanceConfig(contrastive_form=form)
        fused = loss_syt_run(vals, pairs, config)
        composite = loss_syt_run(vals, pairs, config, composites.loss_syt)
        assert same_bytes(fused[0], composite[0])
        assert same_bytes(fused[1], composite[1])


@pytest.mark.parametrize("fractional", [False, True], ids=["binary", "fractional"])
@pytest.mark.parametrize("n_pairs", [1, 2])
def test_loss_sp_node_matches_chain(n_pairs, fractional):
    pairs = SyntaxPairs([(1, 2), (4, 5)][:n_pairs], frozenset({1, 2, 4, 5}))
    for seed in range(10):
        rng = np.random.default_rng([seed, fractional, 9])
        frames, grid = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        vals = attention_values(rng, (frames, grid * grid, 7))
        masks = random_masks(rng, (1, 4), frames, grid, fractional)
        fused = leaf_run(lambda A: loss_sp(A, masks, pairs), vals)
        composite = leaf_run(lambda A: composites.loss_sp(A, masks, pairs), vals)
        assert same_bytes(fused[0], composite[0])
        assert same_bytes(fused[1], composite[1])


def test_column_gradient_signed_zeros_match_chain():
    """A -0 column gradient ends as +0, as in the chain.

    Each take of the chain adds a full array, +0 outside its column, into
    A's gradient, so the verb's column turns the noun's -0 sum into +0.
    """
    pairs = SyntaxPairs([(0, 1)], frozenset({0, 1}))
    vals = np.array([[[0.0, 1.0, 1.0], [2.0, 1.0, 1.0]]])   # one frame, 1x2 grid, 3 columns
    masks = {0: np.array([[[-0.0, 1.0]]])}
    grads = [leaf_run(lambda A: ref(fn(A)) * -1.0, vals)[1]
             for fn in (lambda A: loss_fg(A, masks, pairs),
                        lambda A: composites.loss_fg(A, masks, pairs))]
    assert same_bytes(*grads)
    assert grads[0][0, 0, 0] == 0.0 and not np.signbit(grads[0][0, 0, 0])


# -- the floating-point trap ------------------------------------------------------------


def assert_trapped(call, name=None):
    """`call` returns (``name`` None) or raises the trap's NumericError naming ``name``.

    Either way it runs under a caller's ``np.errstate(all="ignore")``, which
    must neither switch the trap off nor change after the call.
    """
    with np.errstate(all="ignore"):
        before = np.geterr()
        if name is None:
            call()
        else:
            with pytest.raises(NumericError, match=f"^{name}: overflow"):
                call()
        assert np.geterr() == before


@pytest.fixture
def default_scene():
    from attnguide.boxes import parse_llm_boxes
    from attnguide.guidance import prepare_inputs

    from conftest import MAN_DOG_BOXES, TEMPLATE_PROMPT

    model, config = ToyDenoiser(ToyModelConfig()), GuidanceConfig()
    pairs, text, masks, _ = prepare_inputs(TEMPLATE_PROMPT, parse_llm_boxes(MAN_DOG_BOXES),
                                           model)
    cfg = model.config
    z = np.random.default_rng(5).normal(
        size=(cfg.frames, LATENT_CHANNELS, cfg.latent_h, cfg.latent_w))
    A = model.denoise_step(Tensor(z), 45 / 50, text)[1].data
    return model, config, pairs, text, masks, z, A


@pytest.mark.parametrize("grad", [False, True], ids=["nograd", "grad"])
def test_denoise_step_traps(default_scene, grad):
    model, _, _, text, _, z, _ = default_scene
    assert_trapped(lambda: model.denoise_step(Tensor(z, requires_grad=grad), 0.9, text))
    assert_trapped(lambda: model.denoise_step(Tensor(np.full_like(z, 1e308), requires_grad=grad),
                                              0.9, text), "ToyDenoiser.denoise_step")


def test_losses_trap(default_scene):
    _, config, pairs, _, masks, _, A = default_scene
    huge = Tensor(np.full_like(A, 1e308), requires_grad=True)
    for loss, args in ((loss_sp, (masks, pairs)), (loss_syt, (pairs, config))):
        assert_trapped(lambda: loss(Tensor(A, requires_grad=True), *args))
        assert_trapped(lambda: loss(huge, *args), loss.__name__)


def test_guide_latent_traps_the_backward():
    z = np.ones((1, 1, 2, 2))
    leaf = Tensor(z, requires_grad=True)
    loss = Tensor.node(np.asarray(1.0), (leaf,), lambda g: (np.full(z.shape, 1e308) * (g + 1.0),))
    assert_trapped(lambda: guide_latent(LatentState(z, 0), leaf, loss, 1.0), "guide_latent")


@pytest.mark.parametrize("loss", [loss_fg, loss_sp])
def test_nan_mask_fails_the_exit_check(default_scene, loss):
    """A NaN operand propagates without a trap; the loss node's own scan catches it."""
    _, _, pairs, _, masks, _, A = default_scene
    noun = pairs.pairs[0][0]
    nan_mask = masks[noun].astype(np.float64)
    nan_mask[0, 0, 0] = np.nan
    nan_masks = {**masks, noun: nan_mask}
    with pytest.raises(NumericError, match="non-finite"):
        loss(Tensor(A, requires_grad=True), nan_masks, pairs)


@pytest.mark.parametrize("grad", [False, True], ids=["nograd", "grad"])
def test_denoise_step_non_finite_intermediate_raises(grad):
    model = ToyDenoiser(tiny_model_config())
    cfg = model.config
    text = random_text(model)
    z = Tensor(np.full((cfg.frames, LATENT_CHANNELS, cfg.latent_h, cfg.latent_w), 1e308),
               requires_grad=grad)
    for step in (model.denoise_step, lambda *a: composites.denoise_step(model, *a)):
        with np.errstate(all="ignore"), pytest.raises(NumericError):
            step(z, 0.5, text)


@pytest.mark.parametrize("kind", [KL_SYM, COSINE])
def test_loss_syt_non_finite_intermediate_raises(kind):
    A = Tensor(np.full((2, 3, 8), 1e308 if kind != COSINE else 1e200), requires_grad=True)
    config = GuidanceConfig(distance=kind)
    for fn in (loss_syt, composites.loss_syt):
        with np.errstate(all="ignore"), pytest.raises(NumericError):
            fn(A, SHARED_PAIRS, config)
