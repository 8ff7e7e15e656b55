import numpy as np
import pytest

from attnguide.autodiff import Tensor, finite_diff_check
from attnguide.denoiser import (
    DDIMSchedule,
    LatentState,
    LinearAttentionStub,
    ToyDenoiser,
    ToyModelConfig,
    ddim_step,
)
from attnguide.errors import ContractError, DimensionError, InputError
from attnguide.syntax import tokenize

from conftest import tiny_model_config


@pytest.fixture
def model():
    return ToyDenoiser(tiny_model_config())


def _latent(cfg, rng):
    return rng.normal(size=(cfg.frames, cfg.latent_channels, cfg.latent_h, cfg.latent_w))


class TestEncodeText:
    def test_deterministic(self, model):
        toks = tokenize("a cat is sitting")
        a = model.encode_text(toks)
        b = model.encode_text(toks)
        assert a.emb.data.tobytes() == b.emb.data.tobytes()
        assert a.columns == b.columns == {0: 1, 1: 2, 2: 3, 3: 4}

    def test_word_locality(self, model):
        """Changing one word changes only that word's embedding row."""
        a = model.encode_text(tokenize("a cat is sitting"))
        b = model.encode_text(tokenize("a dog is sitting"))
        diff = np.abs(a.emb.data - b.emb.data).sum(axis=1)
        assert diff[a.columns[1]] > 0
        mask = np.ones(len(diff), dtype=bool)
        mask[a.columns[1]] = False
        assert np.all(diff[mask] == 0)

    def test_specials_and_pads(self, model):
        enc = model.encode_text(tokenize("a cat is sitting"))
        budget = model.config.token_budget
        assert enc.emb.shape == (budget, model.config.embed_dim)
        assert enc.special_columns[0] == 0
        assert enc.special_columns[1] == 5  # end marker right after the prompt
        assert len(enc.special_columns) == budget - enc.token_count
        pads = enc.emb.data[6:]
        assert all(row.tobytes() == pads[0].tobytes() for row in pads)

    def test_budget_overflow(self, model):
        words = " ".join(["cat"] * (model.config.token_budget - 1))
        with pytest.raises(InputError, match="budget"):
            model.encode_text(tokenize(words))


class TestDenoiseStep:
    def test_attention_rows_sum_to_one(self, model, rng):
        enc = model.encode_text(tokenize("a cat is sitting"))
        _, ca, ta = model.denoise_step(_latent(model.config, rng), t=1, text=enc)
        cfg = model.config
        g = cfg.capture_grid
        assert ca.A.shape == (cfg.frames, g * g, cfg.token_budget)
        assert np.max(np.abs(ca.A.data.sum(axis=-1) - 1.0)) <= 1e-12
        assert np.all(ca.A.data >= 0)
        assert np.max(np.abs(ta.T_attn.data.sum(axis=-1) - 1.0)) <= 1e-12

    def test_deterministic_across_instances(self, rng):
        z = _latent(tiny_model_config(), rng)
        outs = []
        for _ in range(2):
            m = ToyDenoiser(tiny_model_config())
            enc = m.encode_text(tokenize("a cat is sitting"))
            eps, ca, _ = m.denoise_step(z, t=3, text=enc)
            outs.append((eps.data.tobytes(), ca.A.data.tobytes()))
        assert outs[0] == outs[1]

    def test_reused_model_matches_fresh_model_per_prompt(self, model, rng):
        """Text keys/values cached for one prompt must not leak into the next."""
        z = _latent(model.config, rng)
        prompts = ("a cat is sitting", "a dog is running", "a cat is sitting")
        for prompt in prompts:
            fresh = ToyDenoiser(tiny_model_config())
            outs = []
            for m in (model, fresh):
                enc = m.encode_text(tokenize(prompt))
                for leaf in (Tensor(z), Tensor(z, requires_grad=True)):
                    eps, ca, ta = m.denoise_step(leaf, t=2, text=enc)
                    outs.append((eps.data.tobytes(), ca.A.data.tobytes(),
                                 ta.T_attn.data.tobytes()))
            assert outs[:2] == outs[2:]

    def test_latent_sensitivity(self, model, rng):
        enc = model.encode_text(tokenize("a cat is sitting"))
        z = _latent(model.config, rng)
        _, ca_a, _ = model.denoise_step(z, t=1, text=enc)
        _, ca_b, _ = model.denoise_step(z + 0.5, t=1, text=enc)
        assert np.abs(ca_a.A.data - ca_b.A.data).max() > 0

    def test_timestep_sensitivity(self, model, rng):
        enc = model.encode_text(tokenize("a cat is sitting"))
        z = _latent(model.config, rng)
        eps_a, _, _ = model.denoise_step(z, t=1, text=enc)
        eps_b, _, _ = model.denoise_step(z, t=40, text=enc)
        assert np.abs(eps_a.data - eps_b.data).max() > 0

    def test_shape_and_range_contracts(self, model, rng):
        enc = model.encode_text(tokenize("a cat is sitting"))
        with pytest.raises(DimensionError):
            model.denoise_step(np.zeros((1, 1, 2, 2)), t=1, text=enc)
        with pytest.raises(ContractError):
            model.denoise_step(_latent(model.config, rng), t=50, text=enc)

    def test_capture_variants_share_grid_shape(self, rng):
        z = _latent(tiny_model_config(), rng)
        maps = {}
        for cap in ("down", "up", "down+up"):
            m = ToyDenoiser(tiny_model_config(ca_capture=cap))
            enc = m.encode_text(tokenize("a cat is sitting"))
            _, ca, _ = m.denoise_step(z, t=1, text=enc)
            maps[cap] = ca.A.data
        assert maps["down"].shape == maps["up"].shape
        assert np.allclose(maps["down+up"], 0.5 * (maps["down"] + maps["up"]))

    def test_gradient_flows_to_latent(self, model, rng):
        enc = model.encode_text(tokenize("a cat is sitting"))
        base = _latent(model.config, rng)

        def f(z):
            eps, ca, _ = model.denoise_step(z, t=1, text=enc)
            return ca.A.square().sum() + eps.square().sum() * 0.01

        assert finite_diff_check(f, Tensor(base), step=1e-4) <= 1e-5


class TestDDIM:
    def test_t_for_step(self):
        sched = DDIMSchedule(total_steps=50)
        assert sched.t_for_step(1) == 49
        assert sched.t_for_step(50) == 0
        with pytest.raises(ContractError):
            sched.t_for_step(0)
        with pytest.raises(ContractError):
            sched.t_for_step(51)

    def test_zero_noise_closed_form(self, rng):
        """With eps = 0 the update is pure rescaling by sqrt(abar ratio)."""
        sched = DDIMSchedule(total_steps=50)
        z = rng.normal(size=(2, 2, 4, 4))
        state = LatentState(z.copy(), timestep_index=49)
        out = ddim_step(state, np.zeros_like(z), step=1, schedule=sched)
        ratio = np.sqrt(sched.alphas_cumprod[48] / sched.alphas_cumprod[49])
        assert np.allclose(out.z, z * ratio, atol=1e-14)
        assert out.timestep_index == 48

    def test_x0_consistency(self, rng):
        """Implied x0 estimate is preserved exactly across one step."""
        sched = DDIMSchedule(total_steps=50)
        z = rng.normal(size=(2, 2, 4, 4))
        eps = rng.normal(size=z.shape)
        t = 30
        out = ddim_step(LatentState(z, t), eps, step=sched.total_steps - t, schedule=sched)
        x0_before = (z - np.sqrt(1 - sched.alphas_cumprod[t]) * eps) / np.sqrt(
            sched.alphas_cumprod[t]
        )
        x0_after = (out.z - np.sqrt(1 - sched.alphas_cumprod[t - 1]) * eps) / np.sqrt(
            sched.alphas_cumprod[t - 1]
        )
        assert np.allclose(x0_before, x0_after, atol=1e-12)

    def test_final_step_reaches_x0(self, rng):
        sched = DDIMSchedule(total_steps=50)
        z = rng.normal(size=(1, 1, 2, 2))
        eps = rng.normal(size=z.shape)
        out = ddim_step(LatentState(z, 0), eps, step=50, schedule=sched)
        x0 = (z - np.sqrt(1 - sched.alphas_cumprod[0]) * eps) / np.sqrt(
            sched.alphas_cumprod[0]
        )
        assert np.allclose(out.z, x0, atol=1e-12)
        assert out.timestep_index == -1

    def test_mismatched_state_rejected(self, rng):
        sched = DDIMSchedule(total_steps=50)
        z = rng.normal(size=(1, 1, 2, 2))
        with pytest.raises(ContractError):
            ddim_step(LatentState(z, 10), np.zeros_like(z), step=1, schedule=sched)


class TestStub:
    def test_zero_weights_give_uniform(self, rng):
        cfg = tiny_model_config()
        stub = LinearAttentionStub(
            cfg,
            weights=np.zeros((cfg.latent_channels, cfg.token_budget)),
            bias=np.zeros(cfg.token_budget),
        )
        ca = stub.ca_from_latent(_latent(cfg, rng))
        assert np.allclose(ca.A.data, 1.0 / cfg.token_budget, atol=1e-15)

    def test_logits_linear_in_latent(self, rng):
        cfg = tiny_model_config()
        stub = LinearAttentionStub(cfg, seed=7)
        z1, z2 = _latent(cfg, rng), _latent(cfg, rng)
        l1 = stub.logits_from_latent(z1).data - stub.bias.data
        l2 = stub.logits_from_latent(z2).data - stub.bias.data
        l12 = stub.logits_from_latent(2.0 * z1 + 3.0 * z2).data - stub.bias.data
        assert np.allclose(l12, 2.0 * l1 + 3.0 * l2, atol=1e-10)

    def test_ca_gradient(self, rng):
        cfg = tiny_model_config()
        stub = LinearAttentionStub(cfg, seed=3)
        base = _latent(cfg, rng)
        err = finite_diff_check(
            lambda z: stub.ca_from_latent(z).A.square().sum(), Tensor(base), step=1e-4
        )
        assert err <= 1e-6


class TestConfig:
    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text(
            "frames = 2\n"
            "latent_h = 4\n"
            "latent_w = 4\n"
            "levels = down:4, mid:2, up:4\n"
            "ca_capture = mid\n"
            "embed_dim = 8  # trailing comment\n"
        )
        cfg = ToyModelConfig.from_file(path)
        assert cfg.frames == 2
        assert cfg.levels == (("down", 4), ("mid", 2), ("up", 4))
        assert cfg.ca_capture == "mid"
        assert cfg.capture_grid == 2

    def test_invalid_capture(self):
        with pytest.raises(InputError):
            tiny_model_config(ca_capture="bottom")

    def test_mixed_grid_capture_rejected(self):
        with pytest.raises(InputError):
            tiny_model_config(ca_capture="down+mid")

    def test_bad_config_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("frames 2\n")
        with pytest.raises(InputError):
            ToyModelConfig.from_file(path)
