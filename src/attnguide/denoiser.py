"""Desk-scale latent video denoiser with inspectable attention maps.

Per frame, a shared encoder-bottleneck-decoder runs cross-attention
against the text embedding at every resolution level, with one temporal
attention block at the bottleneck.  Weights are seeded random constants
(the guidance operates on a frozen model); only the latent is
differentiable.  The returned cross-attention stack is the head-averaged
mean of the lowest-resolution down-path and up-path maps.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .config import read_config
from .errors import ContractError, DimensionError, InputError

BEGIN, END, PAD = "<begin>", "<end>", "<pad>"


@dataclass
class ToyModelConfig:
    frames: int = 8
    latent_h: int = 16
    latent_w: int = 16
    latent_channels: int = 2
    levels: tuple = (("down", 8), ("mid", 4), ("up", 8))
    ca_capture: str = "down+up"  # down | up | mid | down+up
    token_budget: int = 16
    embed_dim: int = 32
    heads: int = 2
    total_steps: int = 50
    seed: int = 0

    def __post_init__(self):
        for name in ("frames", "latent_h", "latent_w", "latent_channels", "token_budget",
                     "embed_dim", "heads", "total_steps"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be positive, got {getattr(self, name)}")
        if any(g < 1 for _, g in self.levels):
            raise InputError(f"levels grid sizes must be positive, got {self.levels}")
        if any(g > min(self.latent_h, self.latent_w) for _, g in self.levels):
            raise InputError(f"levels grids {self.levels} exceed the "
                             f"{self.latent_h}x{self.latent_w} latent")
        tags = [tag for tag, _ in self.levels]
        wanted = self.ca_capture.split("+")
        for w in wanted:
            if w not in tags:
                raise InputError(f"ca_capture level '{w}' not in levels {tags}")
        if len(wanted) > 1:
            grids = {g for tag, g in self.levels if tag in wanted}
            if len(grids) != 1:
                raise InputError("combined ca_capture levels must share a grid size")

    @property
    def capture_grid(self):
        wanted = self.ca_capture.split("+")[0]
        return dict((t, g) for t, g in self.levels)[wanted]

    @classmethod
    def from_file(cls, path):
        return read_config(cls, path)


@dataclass
class LatentState:
    z: np.ndarray  # [F, C, h, w]
    timestep_index: int


@dataclass
class CAMapStack:
    A: Tensor  # [F, N, L]
    grid_h: int
    grid_w: int
    layer_tag: str = ""


@dataclass
class TAMap:
    T_attn: Tensor  # [N, F, F]


@dataclass
class TextEncoding:
    emb: Tensor  # [token_budget, embed_dim]
    columns: dict  # prompt token index -> CA column
    special_columns: tuple
    token_count: int


def _token_embedding(text, dim, seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(text.encode())]))
    return rng.normal(0.0, 1.0, size=dim)


def _pool_matrix(grid, latent_h, latent_w):
    """Block-average pooling from the latent grid down to grid x grid."""
    P = np.zeros((grid * grid, latent_h * latent_w))
    for r in range(latent_h):
        for c in range(latent_w):
            cell = (r * grid // latent_h) * grid + (c * grid // latent_w)
            P[cell, r * latent_w + c] = 1.0
    P /= P.sum(axis=1, keepdims=True)
    return P


class DDIMSchedule:
    """Linear-beta schedule with the deterministic (eta = 0) DDIM update."""

    def __init__(self, total_steps=50, beta_start=1e-4, beta_end=0.02):
        self.total_steps = total_steps
        self.betas = np.linspace(beta_start, beta_end, total_steps)
        self.alphas_cumprod = np.cumprod(1.0 - self.betas)

    def t_for_step(self, step):
        """Timestep index for sampler step `step`, counted 1..T from noisiest."""
        if not 1 <= step <= self.total_steps:
            raise ContractError(f"step {step} outside 1..{self.total_steps}")
        return self.total_steps - step


def ddim_step(state, noise_pred, step, schedule):
    """Advance one deterministic DDIM step; decrements the timestep index."""
    t = schedule.t_for_step(step)
    if state.timestep_index != t:
        raise ContractError(
            f"state at timestep {state.timestep_index}, step {step} expects {t}"
        )
    eps = noise_pred.data if isinstance(noise_pred, Tensor) else np.asarray(noise_pred)
    abar_t = schedule.alphas_cumprod[t]
    abar_prev = schedule.alphas_cumprod[t - 1] if t >= 1 else 1.0
    x0 = (state.z - np.sqrt(1.0 - abar_t) * eps) / np.sqrt(abar_t)
    z_next = np.sqrt(abar_prev) * x0 + np.sqrt(1.0 - abar_prev) * eps
    return LatentState(z_next, t - 1)


class ToyDenoiser:
    """Frozen random-weight denoiser; differentiable w.r.t. the latent."""

    def __init__(self, config=None):
        self.config = config or ToyModelConfig()
        cfg = self.config
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xD0DE]))
        C, d, heads = cfg.latent_channels, cfg.embed_dim, cfg.heads
        dh = max(d // heads, 1)
        self._dh = dh
        self._pool = {
            g: Tensor(_pool_matrix(g, cfg.latent_h, cfg.latent_w))
            for g in {g for _, g in cfg.levels}
        }
        self._unpool = {g: Tensor((P.data > 0).astype(np.float64).T) for g, P in self._pool.items()}
        self._weights = {}
        for tag, g in cfg.levels:
            self._weights[tag] = {
                "wq": [Tensor(rng.normal(0, 1.0, (C, dh))) for _ in range(heads)],
                "wk": [Tensor(rng.normal(0, 1.0, (d, dh))) for _ in range(heads)],
                "wv": Tensor(rng.normal(0, 1.0 / np.sqrt(d), (d, C))),
                "mix": 0.5,
                "tau_bias": Tensor(rng.normal(0, 0.1, (C,))),
            }
        dt = max(C, 2)
        self._temporal = {
            "wq": Tensor(rng.normal(0, 1.0, (C, dt))),
            "wk": Tensor(rng.normal(0, 1.0, (C, dt))),
            "wv": Tensor(rng.normal(0, 1.0 / np.sqrt(C), (C, C))),
            "scale": 1.0 / np.sqrt(dt),
        }
        self._out = Tensor(rng.normal(0, 1.0 / np.sqrt(C), (C, C)))
        self._text_emb = None
        self._text_kv = {}

    # -- text ---------------------------------------------------------------

    def encode_text(self, tokens, seed=None):
        """Deterministic per-word embedding table lookup, padded to budget."""
        cfg = self.config
        seed = cfg.seed if seed is None else seed
        words = [t.text for t in tokens]
        if len(words) + 2 > cfg.token_budget:
            raise InputError(
                f"prompt has {len(words)} tokens; budget {cfg.token_budget} "
                "minus begin/end specials exceeded"
            )
        rows, columns = [], {}
        rows.append(_token_embedding(BEGIN, cfg.embed_dim, seed))
        for i, w in enumerate(words):
            columns[i] = len(rows)
            rows.append(_token_embedding(w, cfg.embed_dim, seed))
        end_col = len(rows)
        rows.append(_token_embedding(END, cfg.embed_dim, seed))
        pad = _token_embedding(PAD, cfg.embed_dim, seed)
        special = [0, end_col]
        while len(rows) < cfg.token_budget:
            special.append(len(rows))
            rows.append(pad)
        return TextEncoding(
            emb=Tensor(np.stack(rows)),
            columns=columns,
            special_columns=tuple(special),
            token_count=len(words),
        )

    # -- forward ------------------------------------------------------------

    def _keys_values(self, emb):
        """Per level: the text keys [dh, L] of each head and the values [L, C].

        They depend only on the text, so they are computed once per embedding
        and reused while the same `emb` Tensor comes back (Tensors are
        immutable, and holding `emb` keeps its identity from being reused).
        """
        if emb is not self._text_emb:
            self._text_kv = {
                tag: ([(emb @ wk).transpose(1, 0) for wk in w["wk"]], emb @ w["wv"])
                for tag, w in self._weights.items()
            }
            self._text_emb = emb
        return self._text_kv

    def _cross_attention(self, x, keys, tag):
        w = self._weights[tag]
        scale = 1.0 / np.sqrt(self._dh)
        maps = []
        for wq, k in zip(w["wq"], keys):
            q = x @ wq                               # [F, N, dh]
            maps.append((q @ k) * scale)
        A = maps[0].softmax_lastdim()
        for m in maps[1:]:
            A = A + m.softmax_lastdim()
        A = A * (1.0 / len(maps))
        return A

    def denoise_step(self, z, t, text):
        """One UNet-ish evaluation: (noise_pred, CA stack, TA map)."""
        cfg = self.config
        if not 0 <= t < cfg.total_steps:
            raise ContractError(f"timestep {t} outside [0, {cfg.total_steps})")
        z = Tensor._wrap(z)
        expected = (cfg.frames, cfg.latent_channels, cfg.latent_h, cfg.latent_w)
        if z.shape != expected:
            raise DimensionError(f"latent shape {z.shape}, model expects {expected}")
        emb = text.emb if isinstance(text, TextEncoding) else Tensor._wrap(text)
        text_kv = self._keys_values(emb)
        tau = t / cfg.total_steps

        F, C = cfg.frames, cfg.latent_channels
        HW = cfg.latent_h * cfg.latent_w
        h = z.reshape(F, C, HW).transpose(0, 2, 1)   # [F, HW, C]
        captured, ta = {}, None
        for tag, g in cfg.levels:
            P, U = self._pool[g], self._unpool[g]
            x = P @ h                                 # [F, g*g, C]
            keys, values = text_kv[tag]
            A = self._cross_attention(x, keys, tag)
            captured[tag] = (A, g)
            out = A @ values
            h = (h + (U @ out) * self._weights[tag]["mix"]
                 + self._weights[tag]["tau_bias"] * tau).tanh()
            if tag == "mid":
                h, ta = self._temporal_block(h, P, U, g)

        eps = (h @ self._out).transpose(0, 2, 1).reshape(*z.shape)
        wanted = cfg.ca_capture.split("+")
        A_cap = captured[wanted[0]][0]
        for wname in wanted[1:]:
            A_cap = A_cap + captured[wname][0]
        A_cap = A_cap * (1.0 / len(wanted))
        grid = captured[wanted[0]][1]
        ca = CAMapStack(A=A_cap, grid_h=grid, grid_w=grid, layer_tag=cfg.ca_capture)
        return eps, ca, ta

    def _temporal_block(self, h, P, U, g):
        w = self._temporal
        x = P @ h                                     # [F, N, C]
        y = x.transpose(1, 0, 2)                      # [N, F, C]
        logits = (y @ w["wq"]) @ (y @ w["wk"]).transpose(0, 2, 1) * w["scale"]
        T_attn = logits.softmax_lastdim()             # [N, F, F]
        out = (T_attn @ (y @ w["wv"])).transpose(1, 0, 2)
        h = (h + (U @ out) * 0.5).tanh()
        return h, TAMap(T_attn=T_attn)


class LinearAttentionStub:
    """Closed-form attention oracle: softmax of an affine map of the latent.

    Keeps guidance math checkable independently of the UNet; with zero
    weights the attention is uniform everywhere.
    """

    def __init__(self, config=None, weights=None, bias=None, seed=1):
        self.config = config or ToyModelConfig()
        cfg = self.config
        g = cfg.capture_grid
        self.grid = g
        self._P = Tensor(_pool_matrix(g, cfg.latent_h, cfg.latent_w))
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x57AB]))
        if weights is None:
            weights = rng.normal(0, 1.0, (cfg.latent_channels, cfg.token_budget))
        if bias is None:
            bias = np.zeros(cfg.token_budget)
        self.weights = Tensor(weights)
        self.bias = Tensor(bias)

    def ca_from_latent(self, z):
        z = Tensor._wrap(z)
        cfg = self.config
        F, C = cfg.frames, cfg.latent_channels
        h = z.reshape(F, C, cfg.latent_h * cfg.latent_w).transpose(0, 2, 1)
        logits = (self._P @ h) @ self.weights + self.bias     # [F, N, L]
        A = logits.softmax_lastdim()
        return CAMapStack(A=A, grid_h=self.grid, grid_w=self.grid, layer_tag="stub")

    def logits_from_latent(self, z):
        z = Tensor._wrap(z)
        cfg = self.config
        h = z.reshape(cfg.frames, cfg.latent_channels, cfg.latent_h * cfg.latent_w)
        return (self._P @ h.transpose(0, 2, 1)) @ self.weights + self.bias
