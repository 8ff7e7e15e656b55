import gc
import tracemalloc

import numpy as np
import pytest

from attnguide import denoiser
from attnguide.autodiff import Tensor
from attnguide.denoiser import (
    BEGIN,
    END,
    LATENT_CHANNELS,
    MODEL_CAPS,
    PAD,
    LatentState,
    LinearAttentionStub,
    ToyDenoiser,
    ToyModelConfig,
    _token_embedding,
    ddim_schedule,
    ddim_step,
)
from attnguide.errors import ContractError, DimensionError, InputError, NumericError
from attnguide.gradcheck import fd_gradients, relative_error
from attnguide.guidance import GuidanceConfig, run_guided_sampling
from attnguide.syntax import tokenize

from composites import square
from conftest import TEMPLATE_PROMPT, static_two_box_prior, tiny_model_config
from reftensor import ref


@pytest.fixture
def model():
    return ToyDenoiser(tiny_model_config())


def _latent(cfg, rng):
    return rng.normal(size=(cfg.frames, LATENT_CHANNELS, cfg.latent_h, cfg.latent_w))


def _arrays(text):
    """The arrays of an `encode_text` dict, level by level: keys, then values."""
    return [a for tag in sorted(text) for a in text[tag]]


class TestEncodeText:
    def test_deterministic(self, model):
        toks = tokenize("a cat is sitting")
        a, b = model.encode_text(toks), model.encode_text(toks)
        assert sorted(a) == sorted(b) == sorted(tag for tag, _ in model.config.levels)
        assert [x.tobytes() for x in _arrays(a)] == [x.tobytes() for x in _arrays(b)]

    def test_word_locality(self, model):
        """Changing one word changes only its column: key column and value row 2 (token 1)."""
        a = model.encode_text(tokenize("a cat is sitting"))
        b = model.encode_text(tokenize("a dog is sitting"))
        for tag in a:
            (ka, va), (kb, vb) = a[tag], b[tag]
            keys = np.abs(ka - kb).sum(axis=(0, 1, 2))
            values = np.abs(va - vb).sum(axis=1)
            for diff in (keys, values):
                assert diff.shape == (model.config.token_budget,)
                assert diff[2] > 0 and np.all(np.delete(diff, 2) == 0)

    def test_specials_and_pads(self, model):
        """Begin marker, words, end marker, pads: the columns of `_keys_values` on those rows."""
        cfg = model.config
        words = ["a", "cat", "is", "sitting"]

        def row(word):
            return _token_embedding(word, cfg.embed_dim, cfg.seed)

        rows = [row(BEGIN), *map(row, words), row(END)]
        rows += [row(PAD)] * (cfg.token_budget - len(rows))
        expected = model._keys_values(np.stack(rows))
        enc = model.encode_text(tokenize(" ".join(words)))
        specials = [0, 5, *range(6, cfg.token_budget)]  # the end marker right after the words
        assert len(specials) == cfg.token_budget - len(words)
        for tag, (keys, values) in enc.items():
            assert keys.shape[-1] == values.shape[0] == cfg.token_budget
            assert keys[..., specials].tobytes() == expected[tag][0][..., specials].tobytes()
            assert values[specials].tobytes() == expected[tag][1][specials].tobytes()

    def test_values_are_plain_arrays(self, model):
        enc = model.encode_text(tokenize("a cat is sitting"))
        values = [*_arrays(enc), model._out, *model._pool.values(), *model._unpool.values()]
        for w in (*model._weights.values(), model._temporal):
            values += [v for v in w.values() if not isinstance(v, float)]
        assert all(type(v) is np.ndarray for v in values)

    def test_non_finite_keys_values_rejected(self, model):
        emb = np.full((model.config.token_budget, model.config.embed_dim), 1e308)
        with np.errstate(all="ignore"), pytest.raises(NumericError):
            model._keys_values(emb)

    def test_budget_overflow(self, model):
        words = " ".join(["cat"] * (model.config.token_budget - 1))
        with pytest.raises(InputError, match="budget"):
            model.encode_text(tokenize(words))


class TestDenoiseStep:
    def test_attention_rows_sum_to_one(self, model, rng):
        enc = model.encode_text(tokenize("a cat is sitting"))
        _, ca = model.denoise_step(Tensor(_latent(model.config, rng)), tau=1 / 50, text=enc)
        cfg = model.config
        g = cfg.capture_grid
        assert ca.shape == (cfg.frames, g * g, cfg.token_budget)
        assert np.max(np.abs(ca.data.sum(axis=-1) - 1.0)) <= 1e-12
        assert np.all(ca.data >= 0)
        mid = dict(cfg.levels)["mid"]
        _, ta, _ = model._temporal_attention(rng.normal(size=(cfg.frames, mid * mid,
                                                              LATENT_CHANNELS)))
        assert ta.shape == (mid * mid, cfg.frames, cfg.frames)
        assert np.max(np.abs(ta.sum(axis=-1) - 1.0)) <= 1e-12

    def test_deterministic_across_instances(self, rng):
        z = Tensor(_latent(tiny_model_config(), rng))
        outs = []
        for _ in range(2):
            m = ToyDenoiser(tiny_model_config())
            enc = m.encode_text(tokenize("a cat is sitting"))
            eps, ca = m.denoise_step(z, tau=3 / 50, text=enc)
            outs.append((eps.tobytes(), ca.data.tobytes()))
        assert outs[0] == outs[1]

    def test_reused_model_matches_fresh_model_per_prompt(self, model, rng):
        """A model run on other prompts first gives the bytes of a fresh model."""
        z = _latent(model.config, rng)
        prompts = ("a cat is sitting", "a dog is running", "a cat is sitting")
        for prompt in prompts:
            fresh = ToyDenoiser(tiny_model_config())
            outs = []
            for m in (model, fresh):
                enc = m.encode_text(tokenize(prompt))
                for leaf in (Tensor(z), Tensor(z, requires_grad=True)):
                    eps, ca = m.denoise_step(leaf, tau=2 / 50, text=enc)
                    outs.append((eps.tobytes(), ca.data.tobytes()))
            assert outs[:2] == outs[2:]

    def test_model_state_unchanged_by_use(self, model, rng):
        """Encoding and denoising, with and without grad, leave the model as built."""
        before = {k: id(v) for k, v in vars(model).items()}
        z = _latent(model.config, rng)
        for prompt in ("a cat is sitting", "a dog is running"):
            enc = model.encode_text(tokenize(prompt))
            for leaf in (Tensor(z), Tensor(z, requires_grad=True)):
                _, ca = model.denoise_step(leaf, tau=2 / 50, text=enc)
            ref(ca).sum().backward()
        assert {k: id(v) for k, v in vars(model).items()} == before

    def test_second_backward_is_a_contract_error(self, model, rng):
        """The backward frees each block's saved maps as it walks them: a graph is walked once."""
        enc = model.encode_text(tokenize("a cat is sitting"))
        leaf = Tensor(_latent(model.config, rng), requires_grad=True)
        _, ca = model.denoise_step(leaf, tau=2 / 50, text=enc)
        loss = ref(ca).sum()
        loss.backward()
        assert leaf.grad is not None
        with pytest.raises(ContractError, match="already walked"):
            loss.backward()

    def test_forward_without_gradient_holds_no_graph(self, rng):
        """A default forward without a gradient keeps no block's backward, so its traced
        peak stays well below that of a forward with one.  tracemalloc keeps one peak over
        all domains; numpy's array buffers make nearly all of it."""
        model = ToyDenoiser(ToyModelConfig())
        enc = model.encode_text(tokenize("a cat is sitting"))
        z = _latent(model.config, rng)

        def peak(requires_grad):
            leaf = Tensor(z, requires_grad=requires_grad)
            gc.collect()
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                model.denoise_step(leaf, tau=2 / 50, text=enc)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        for requires_grad in (False, True):  # warm numpy's caches
            peak(requires_grad)
        assert peak(False) < 0.75 * peak(True)

    def test_latent_sensitivity(self, model, rng):
        enc = model.encode_text(tokenize("a cat is sitting"))
        z = _latent(model.config, rng)
        _, ca_a = model.denoise_step(Tensor(z), tau=1 / 50, text=enc)
        _, ca_b = model.denoise_step(Tensor(z + 0.5), tau=1 / 50, text=enc)
        assert np.abs(ca_a.data - ca_b.data).max() > 0

    def test_timestep_sensitivity(self, model, rng):
        enc = model.encode_text(tokenize("a cat is sitting"))
        z = _latent(model.config, rng)
        eps_a, _ = model.denoise_step(Tensor(z), tau=1 / 50, text=enc)
        eps_b, _ = model.denoise_step(Tensor(z), tau=40 / 50, text=enc)
        assert np.abs(eps_a - eps_b).max() > 0

    def test_shape_and_range_contracts(self, model, rng):
        enc = model.encode_text(tokenize("a cat is sitting"))
        with pytest.raises(DimensionError):
            model.denoise_step(Tensor(np.zeros((1, 1, 2, 2))), tau=1 / 50, text=enc)
        for tau in (1.0, -0.02, float("nan")):
            with pytest.raises(ContractError):
                model.denoise_step(Tensor(_latent(model.config, rng)), tau=tau, text=enc)

    def test_capture_variants_share_grid_shape(self, rng):
        z = Tensor(_latent(tiny_model_config(), rng))
        maps = {}
        for cap in ("down", "up", "down+up"):
            m = ToyDenoiser(tiny_model_config(ca_capture=cap))
            enc = m.encode_text(tokenize("a cat is sitting"))
            _, ca = m.denoise_step(z, tau=1 / 50, text=enc)
            maps[cap] = ca.data
        assert maps["down"].shape == maps["up"].shape
        assert np.allclose(maps["down+up"], 0.5 * (maps["down"] + maps["up"]))

    def test_gradient_flows_to_latent(self, model, rng):
        enc = model.encode_text(tokenize("a cat is sitting"))
        base = _latent(model.config, rng)

        def f(z):
            _, ca = model.denoise_step(z, tau=1 / 50, text=enc)
            return square(ca).sum()

        assert relative_error(*fd_gradients(f, base, 1e-4)) <= 1e-5

    @pytest.mark.parametrize("guided,calls", [(True, (480, 280)), (False, (200, 0))])
    def test_softmax_calls_per_default_run(self, monkeypatch, guided, calls):
        """One softmax per level over its stacked heads, and one for the temporal block:
        4 per forward.  The default guided run makes 120 forwards (70 with a backward),
        the unguided one 50."""
        counts = {"softmax": 0, "softmax_grad": 0}
        for name in counts:
            fn = getattr(denoiser, name)
            monkeypatch.setattr(denoiser, name, lambda *a, name=name, fn=fn: (
                counts.__setitem__(name, counts[name] + 1) or fn(*a)))
        config = GuidanceConfig() if guided else GuidanceConfig(lambda_sp=0.0, lambda_syt=0.0)
        run_guided_sampling(TEMPLATE_PROMPT, static_two_box_prior(8), config, ToyDenoiser(ToyModelConfig()),
                            seed=0)
        assert (counts["softmax"], counts["softmax_grad"]) == calls


class TestDDIM:
    def test_zero_noise_closed_form(self, rng):
        """With eps = 0 the update is pure rescaling by sqrt(abar ratio)."""
        sched = ddim_schedule(50)
        z = rng.normal(size=(2, 2, 4, 4))
        state = LatentState(z.copy(), timestep_index=49)
        out = ddim_step(state, np.zeros_like(z), schedule=sched)
        ratio = np.sqrt(sched[48] / sched[49])
        assert np.allclose(out.z, z * ratio, atol=1e-14)
        assert out.timestep_index == 48

    def test_x0_consistency(self, rng):
        """Implied x0 estimate is preserved exactly across one step."""
        sched = ddim_schedule(50)
        z = rng.normal(size=(2, 2, 4, 4))
        eps = rng.normal(size=z.shape)
        t = 30
        out = ddim_step(LatentState(z, t), eps, schedule=sched)
        x0_before = (z - np.sqrt(1 - sched[t]) * eps) / np.sqrt(sched[t])
        x0_after = (out.z - np.sqrt(1 - sched[t - 1]) * eps) / np.sqrt(sched[t - 1])
        assert np.allclose(x0_before, x0_after, atol=1e-12)

    def test_final_step_reaches_x0(self, rng):
        sched = ddim_schedule(50)
        z = rng.normal(size=(1, 1, 2, 2))
        eps = rng.normal(size=z.shape)
        out = ddim_step(LatentState(z, 0), eps, schedule=sched)
        x0 = (z - np.sqrt(1 - sched[0]) * eps) / np.sqrt(sched[0])
        assert np.allclose(out.z, x0, atol=1e-12)
        assert out.timestep_index == -1

    def test_timestep_outside_schedule_rejected(self, rng):
        sched = ddim_schedule(50)
        z = rng.normal(size=(1, 1, 2, 2))
        for t in (-1, 50):
            with pytest.raises(ContractError, match=f"timestep {t} outside 0..49"):
                ddim_step(LatentState(z, t), np.zeros_like(z), schedule=sched)


class TestStub:
    def test_zero_weights_give_uniform(self, rng):
        cfg = tiny_model_config()
        stub = LinearAttentionStub(cfg)
        stub.weights[:] = 0.0
        ca = stub.ca_from_latent(Tensor(_latent(cfg, rng)))
        assert np.allclose(ca.data, 1.0 / cfg.token_budget, atol=1e-15)

    def test_logits_linear_in_latent(self, rng):
        """log A[..., j] - log A[..., 0] is the logits' difference: linear in the latent."""
        cfg = tiny_model_config(seed=7)
        stub = LinearAttentionStub(cfg)

        def log_odds(z):
            log_a = np.log(stub.ca_from_latent(Tensor(z)).data)
            return log_a - log_a[..., :1]

        z1, z2 = _latent(cfg, rng), _latent(cfg, rng)
        at_zero = log_odds(np.zeros_like(z1))
        l1, l2 = log_odds(z1) - at_zero, log_odds(z2) - at_zero
        l12 = log_odds(2.0 * z1 + 3.0 * z2) - at_zero
        assert np.allclose(l12, 2.0 * l1 + 3.0 * l2, atol=1e-10)

    @pytest.mark.parametrize("shape", [(1, 2, 8, 4), (2, 2, 2, 8), (4, 2, 4, 4)])
    def test_wrong_latent_shape_rejected(self, shape):
        """Latents of the right size but the wrong shape, and one of the wrong size."""
        stub = LinearAttentionStub(tiny_model_config())
        with pytest.raises(DimensionError, match="model expects"):
            stub.ca_from_latent(Tensor(np.zeros(shape)))

    def test_ca_gradient(self, rng):
        cfg = tiny_model_config(seed=3)
        stub = LinearAttentionStub(cfg)
        base = _latent(cfg, rng)
        err = relative_error(*fd_gradients(
            lambda z: square(stub.ca_from_latent(z)).sum(), base, 1e-4))
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

    @pytest.mark.parametrize("name", sorted(MODEL_CAPS))
    def test_sizes_capped(self, tmp_path, name):
        """Each size is read up to its cap and rejected past it; no model is built."""
        path = tmp_path / "model.cfg"
        cap = MODEL_CAPS[name]
        path.write_text(f"{name} = {cap}\n")
        assert getattr(ToyModelConfig.from_file(path), name) == cap
        for value in (cap + 1, 10 ** 20):
            path.write_text(f"{name} = {value}\n")
            with pytest.raises(InputError, match=f"{name} must be in 1..{cap}, got {value}"):
                ToyModelConfig.from_file(path)
