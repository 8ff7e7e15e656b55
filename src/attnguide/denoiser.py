"""Desk-scale latent video denoiser with inspectable attention maps.

Per frame, a shared encoder-bottleneck-decoder runs cross-attention
against the text embedding at every resolution level, with one temporal
attention block at the bottleneck.  Weights are seeded random constants
(the guidance operates on a frozen model); only the latent is
differentiable.  The returned cross-attention maps A [F, N, L] are the
head-averaged maps of the captured levels, averaged over those levels.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import partial

import numpy as np

from .autodiff import Tensor, check_finite, softmax, softmax_grad, trapped
from .config import read_config
from .errors import ContractError, DimensionError, InputError

BEGIN, END, PAD = "<begin>", "<end>", "<pad>"

# Attention heads per cross-attention level and channels of the latent.  The
# guidance reads head-averaged maps and depends on neither.
HEADS = LATENT_CHANNELS = 2
MIX = 0.5  # the weight of each block's attention update

# The largest model sizes accepted (a level grid is capped by the latent's
# sides).  They bound each size, not their product: a model at every cap at
# once is far past desk scale.
MODEL_CAPS = {"frames": 64, "latent_h": 64, "latent_w": 64, "token_budget": 128,
              "embed_dim": 1024}


@dataclass
class ToyModelConfig:
    frames: int = 8
    latent_h: int = 16
    latent_w: int = 16
    levels: tuple = (("down", 8), ("mid", 4), ("up", 8))
    ca_capture: str = "down+up"  # down | up | mid | down+up
    token_budget: int = 16
    embed_dim: int = 32
    seed: int = 0

    def __post_init__(self):
        for name, cap in MODEL_CAPS.items():
            if not 1 <= getattr(self, name) <= cap:
                raise InputError(f"{name} must be in 1..{cap}, got {getattr(self, name)}")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")
        if any(g < 1 for _, g in self.levels):
            raise InputError(f"levels grid sizes must be positive, got {self.levels}")
        if any(g > min(self.latent_h, self.latent_w) for _, g in self.levels):
            raise InputError(f"levels grids {self.levels} exceed the "
                             f"{self.latent_h}x{self.latent_w} latent")
        tags = [tag for tag, _ in self.levels]
        if len(set(tags)) != len(tags):
            raise InputError(f"levels tags must be distinct, got {tags}")
        wanted = self.capture_tags
        if len(set(wanted)) != len(wanted):
            raise InputError(f"ca_capture tags must be distinct, got {self.ca_capture!r}")
        for w in wanted:
            if w not in tags:
                raise InputError(f"ca_capture level '{w}' not in levels {tags}")
        if len(wanted) > 1:
            grids = {g for tag, g in self.levels if tag in wanted}
            if len(grids) != 1:
                raise InputError("combined ca_capture levels must share a grid size")

    @property
    def capture_tags(self):
        """The level tags named by ``ca_capture``, in order."""
        return tuple(self.ca_capture.split("+"))

    @property
    def capture_grid(self):
        return dict(self.levels)[self.capture_tags[0]]

    @classmethod
    def from_file(cls, path):
        return read_config(cls, path)


@dataclass
class LatentState:
    z: np.ndarray  # [F, LATENT_CHANNELS, h, w]
    timestep_index: int


def _token_embedding(text, dim, seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(text.encode())]))
    return rng.normal(0.0, 1.0, size=dim)


def _check_latent(z, cfg):
    """A `DimensionError` unless the latent `z` has the shape the model `cfg` expects."""
    expected = (cfg.frames, LATENT_CHANNELS, cfg.latent_h, cfg.latent_w)
    if z.shape != expected:
        raise DimensionError(f"latent shape {z.shape}, model expects {expected}")


def _pool_matrix(grid, latent_h, latent_w):
    """Block-average pooling from the latent grid down to grid x grid: (P, each pixel's cell)."""
    rows = np.arange(latent_h) * grid // latent_h
    cols = np.arange(latent_w) * grid // latent_w
    cell = (rows[:, None] * grid + cols).reshape(-1)
    P = np.zeros((grid * grid, cell.size))
    P[cell, np.arange(cell.size)] = 1.0
    P /= P.sum(axis=1, keepdims=True)
    return P, cell


def ddim_schedule(total_steps):
    """The cumulative alphas of the linear-beta schedule (1e-4 to 0.02), one per timestep."""
    return np.cumprod(1.0 - np.linspace(1e-4, 0.02, total_steps))


@trapped
def ddim_step(state, eps, schedule):
    """One deterministic (eta = 0) DDIM step from ``state.timestep_index`` on ``eps``."""
    t = state.timestep_index
    if not 0 <= t < len(schedule):
        raise ContractError(f"timestep {t} outside 0..{len(schedule) - 1}")
    abar_t = schedule[t]
    abar_prev = schedule[t - 1] if t >= 1 else 1.0
    x0 = (state.z - np.sqrt(1.0 - abar_t) * eps) / np.sqrt(abar_t)
    z_next = np.sqrt(abar_prev) * x0 + np.sqrt(1.0 - abar_prev) * eps
    return LatentState(z_next, t - 1)


class ToyDenoiser:
    """Frozen random-weight denoiser; differentiable w.r.t. the latent."""

    def __init__(self, config):
        self.config = cfg = config
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xD0DE]))
        C, d = LATENT_CHANNELS, cfg.embed_dim
        dh = max(d // HEADS, 1)
        self._dh = dh
        self._pool, self._cells = {}, {}
        for _, g in cfg.levels:
            # Each pixel's cell and each cell's weight per channel: U @ out and P.T @ g as gathers.
            P, cell = _pool_matrix(g, cfg.latent_h, cfg.latent_w)
            self._pool[g], self._cells[g] = P, (cell, np.tile(P.max(axis=1)[:, None], (1, C)))
        self._unpool = {g: (P > 0).astype(np.float64).T for g, P in self._pool.items()}
        self._weights = {}
        for tag, g in cfg.levels:
            self._weights[tag] = {
                "wq": rng.normal(0, 1.0, (HEADS, 1, C, dh)),
                "wk": rng.normal(0, 1.0, (HEADS, 1, d, dh)),
                "wv": rng.normal(0, 1.0 / np.sqrt(d), (d, C)),
                "tau_bias": np.tile(rng.normal(0, 0.1, (C,)), (cfg.latent_h * cfg.latent_w, 1)),
            }
        self._temporal = {
            "wq": rng.normal(0, 1.0, (C, C)),
            "wk": rng.normal(0, 1.0, (C, C)),
            "wv": rng.normal(0, 1.0 / np.sqrt(C), (C, C)),
            "scale": 1.0 / np.sqrt(C),
        }
        self._out = rng.normal(0, 1.0 / np.sqrt(C), (C, C))

    # -- text ---------------------------------------------------------------

    def encode_text(self, words):
        """Per level tag, the text keys [H, 1, dh, L] and values [L, C] of a prompt's words.

        The L rows embed the begin marker, the words, the end marker and pads up to the
        budget, so word i is CA column i + 1.
        """
        cfg = self.config
        if len(words) + 2 > cfg.token_budget:
            raise InputError(
                f"prompt has {len(words)} tokens; budget {cfg.token_budget} "
                "minus begin/end specials exceeded"
            )
        rows = [_token_embedding(w, cfg.embed_dim, cfg.seed) for w in (BEGIN, *words, END)]
        rows += [_token_embedding(PAD, cfg.embed_dim, cfg.seed)] * (cfg.token_budget - len(rows))
        return self._keys_values(np.stack(rows))

    # -- forward ------------------------------------------------------------

    def _keys_values(self, emb):
        """Per level: the stacked text keys [H, 1, dh, L] and the values [L, C], all finite."""
        kv = {tag: (np.swapaxes(emb @ w["wk"], -1, -2), emb @ w["wv"])
              for tag, w in self._weights.items()}
        check_finite(*(a for pair in kv.values() for a in pair))
        return kv

    def _cross_attention(self, x, keys_values, tag):
        """`_block`'s attention at a level: (A @ values, A, backward(g_out, g_A)).

        A is the head mean of softmax((x @ wq) @ keys * scale), one softmax over
        the stacked heads [HEADS, F, N, L].  The heads add as a left fold in head
        order, forward and backward, which keeps the per-head chain's bytes.
        """
        keys, values = keys_values
        wq = self._weights[tag]["wq"]
        scale = np.asarray(1.0 / np.sqrt(self._dh))
        mean = np.asarray(1.0 / HEADS)
        logits = (x @ wq) @ keys
        logits *= scale
        maps = softmax(logits)
        A = sum(maps[1:], maps[0])  # a fresh array: HEADS > 1
        A *= mean

        def backward(g_out, g_A):
            if g_out is not None:
                g_Av = g_out @ values.T
                g_A = g_Av if g_A is None else g_A + g_Av
            g_logits = softmax_grad(maps, g_A * mean)
            g_logits *= scale
            g_q = g_logits @ np.swapaxes(keys, -1, -2)
            g_x = g_q @ np.swapaxes(wq, -1, -2)
            return sum(g_x[1:], g_x[0])

        return A @ values, A, backward

    @trapped
    def denoise_step(self, z, tau, text):
        """One UNet-ish evaluation of the latent Tensor `z` for the `encode_text` dict `text`.

        ``tau`` in [0, 1) is the schedule progress: timestep index over the
        schedule length, as the sampler computes it.  Returns (noise
        prediction array, CA maps A [F, N, L]).  Guidance differentiates the
        latent only through A, so A alone is a graph node, bit-identical to the
        chain of Tensor ops it replaces.
        """
        cfg = self.config
        if not 0 <= tau < 1:
            raise ContractError(f"schedule progress {tau} outside [0, 1)")
        _check_latent(z, cfg)

        h = z.data.reshape(cfg.frames, LATENT_CHANNELS, -1).transpose(0, 2, 1)   # [F, HW, C]
        # Each block's backward closure holds its maps: a forward without a
        # gradient keeps none, so each is freed once the next block runs.
        grads, captured = [], {}
        for tag, g in cfg.levels:
            w = self._weights[tag]
            attention = partial(self._cross_attention, keys_values=text[tag], tag=tag)
            h, captured[tag], grad = self._block(h, g, attention, w["tau_bias"] * tau)
            if z.requires_grad:
                grads.append((tag, grad))
            if tag == "mid":
                h, _, grad = self._block(h, g, self._temporal_attention, None)
                if z.requires_grad:
                    grads.append((None, grad))

        eps = (h @ self._out).transpose(0, 2, 1).reshape(z.shape)
        wanted = cfg.capture_tags
        A_cap = sum((captured[tag] for tag in wanted[1:]), captured[wanted[0]])
        inv = 1.0 / len(wanted)
        # The blocks after the last capture get no gradient.
        while grads and grads[-1][0] not in wanted:
            grads.pop()

        def backward(g_A):
            # Single use: each block's closure is popped as it runs, so its saved
            # maps are freed once their gradient is taken.
            if not grads:
                raise ContractError("denoise_step's graph was already walked by a backward")
            g_h, g_cap = None, g_A * inv
            while grads:
                tag, grad = grads.pop()
                g_h = grad(g_h, g_cap if tag in wanted else None)
            return (g_h.transpose(0, 2, 1).reshape(z.shape),)

        return eps, Tensor.node(A_cap * inv, (z,), backward)

    def _block(self, h, grid, attention, bias):
        """tanh(h + (U @ out) * MIX [+ bias]) for (out, maps, _) = attention(P @ h).

        Returns (h, maps, backward(g_h, g_maps)), ``g_h`` None at the last captured
        level; the gradient at the input adds the update's part first, as the chain did.
        """
        P, U, (cell, pw) = self._pool[grid], self._unpool[grid], self._cells[grid]
        out, maps, attention_grad = attention(P @ h)
        s = h + np.take(out * MIX, cell, axis=-2)
        if bias is not None:
            s += bias
        h_out = np.tanh(s, out=s)

        def backward(g_h, g_maps):
            g_in = g_out = None
            if g_h is not None:
                g_in = g_h * (1.0 - h_out * h_out)
                g_out = U.T @ (g_in * MIX)
            g_x = np.take(attention_grad(g_out, g_maps) * pw, cell, axis=-2)
            return g_x if g_in is None else g_in + g_x

        return h_out, maps, backward

    def _temporal_attention(self, x):
        """`_block`'s attention of each pixel over the frames: (out, T_attn, backward)."""
        w = self._temporal
        y = x.transpose(1, 0, 2)                      # [N, F, C]
        q = y @ w["wq"]
        kt = (y @ w["wk"]).transpose(0, 2, 1)
        T_attn = softmax(q @ kt * w["scale"])         # [N, F, F]
        v = y @ w["wv"]
        tv = T_attn @ v

        def backward(g_out, _):
            # T_attn carries no gradient of its own.  y's three gradients add as
            # (q + k) + v, the chain's order.
            g_tv = g_out.transpose(1, 0, 2)
            g_qk = softmax_grad(T_attn, g_tv @ np.swapaxes(v, -1, -2)) * w["scale"]
            g_yv = (np.swapaxes(T_attn, -1, -2) @ g_tv) @ w["wv"].T
            g_y = ((g_qk @ np.swapaxes(kt, -1, -2)) @ w["wq"].T
                   + (np.swapaxes(q, -1, -2) @ g_qk).transpose(0, 2, 1) @ w["wk"].T)
            return (g_y + g_yv).transpose(1, 0, 2)

        return tv.transpose(1, 0, 2), T_attn, backward


class LinearAttentionStub:
    """Closed-form attention oracle: softmax of a linear map of the pooled latent.

    Keeps guidance math checkable independently of the UNet; the weights
    [LATENT_CHANNELS, token_budget] are a normal draw seeded by the config's seed.
    """

    def __init__(self, config):
        self.config = config
        self._P, _ = _pool_matrix(config.capture_grid, config.latent_h, config.latent_w)
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x57AB]))
        self.weights = rng.normal(0, 1.0, (LATENT_CHANNELS, config.token_budget))

    def ca_from_latent(self, z):
        """CA maps [F, N, L]: the softmax of linear logits of the pooled latent Tensor, one node."""
        cfg = self.config
        _check_latent(z, cfg)
        h = z.data.reshape(cfg.frames, LATENT_CHANNELS, -1)
        out = softmax((self._P @ h.transpose(0, 2, 1)) @ self.weights)

        def backward(g):
            g_h = self._P.T @ (softmax_grad(out, g) @ self.weights.T)
            return (g_h.transpose(0, 2, 1).reshape(z.shape),)

        return Tensor.node(out, (z,), backward)
