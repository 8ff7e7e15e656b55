import numpy as np
import pytest

from attnguide.autodiff import Tensor, finite_diff_check
from attnguide.boxes import MaskSet
from attnguide.denoiser import CAMapStack, DDIMSchedule, LatentState, LinearAttentionStub, ToyDenoiser, ddim_step
from attnguide.errors import (
    ContractError,
    DegenerateAttentionError,
    InputError,
    NumericError,
)
from attnguide.guidance import (
    COSINE,
    KL_FWD,
    KL_SYM,
    RATIO,
    SUM,
    GuidanceConfig,
    GuidanceTrace,
    TraceRecord,
    dist,
    guide_latent,
    loss_bg,
    loss_fg,
    loss_neg,
    loss_pos,
    loss_sp,
    loss_syt,
    prepare_inputs,
    run_guided_sampling,
)
from attnguide.syntax import SyntaxPairs

from conftest import TEMPLATE_PROMPT, static_two_box_prior, tiny_model_config


def ca_stack(A):
    A = np.asarray(A, dtype=float)
    grid = int(np.sqrt(A.shape[1]))
    return CAMapStack(A=Tensor(A), grid_h=grid, grid_w=grid)


def single_pair(negatives=(2,)):
    return SyntaxPairs(pairs=[(0, 1)], negatives={(0, 1): frozenset(negatives)})


def mask_set(mask, frames, key=0):
    mask = np.asarray(mask, dtype=float)
    return MaskSet(mask.shape[0], mask.shape[1], {(key, f): mask for f in range(frames)})


def uniform_ca(frames=2, pixels=4, tokens=3):
    return ca_stack(np.full((frames, pixels, tokens), 1.0 / tokens))


class TestSpatialLosses:
    def test_uniform_half_mask_oracle(self):
        """Half the mass lands inside a half-frame mask: fg = bg = 0.25."""
        ca = uniform_ca()
        masks = mask_set([[1.0, 1.0], [0.0, 0.0]], frames=2)
        pairs = single_pair()
        fg = loss_fg(ca, masks, pairs, include_verbs=False)
        bg = loss_bg(ca, masks, pairs, include_verbs=False)
        assert abs(fg.item() - 0.25) <= 1e-12
        assert abs(bg.item() - 0.25) <= 1e-12
        # the verb reuses the noun mask, doubling the tracked-token sum
        assert abs(loss_fg(ca, masks, pairs).item() - 0.5) <= 1e-12

    def test_all_ones_mask_is_zero(self):
        ca = uniform_ca()
        masks = mask_set(np.ones((2, 2)), frames=2)
        assert loss_fg(ca, masks, single_pair()).item() == 0.0
        assert loss_bg(ca, masks, single_pair()).item() == 0.0

    def test_all_zeros_mask_is_one_per_token(self):
        ca = uniform_ca()
        masks = mask_set(np.zeros((2, 2)), frames=2)
        assert abs(loss_fg(ca, masks, single_pair(), include_verbs=False).item() - 1.0) <= 1e-12
        assert abs(loss_fg(ca, masks, single_pair()).item() - 2.0) <= 1e-12

    def test_fg_equals_bg_for_binary_masks(self, rng):
        for _ in range(100):
            A = rng.uniform(0.01, 1.0, size=(2, 4, 3))
            ca = ca_stack(A)
            masks = mask_set(rng.integers(0, 2, size=(2, 2)).astype(float), frames=2)
            fg = loss_fg(ca, masks, single_pair()).item()
            bg = loss_bg(ca, masks, single_pair()).item()
            assert abs(fg - bg) <= 1e-12

    def test_loss_sp_weights(self):
        ca = uniform_ca()
        masks = mask_set([[1.0, 1.0], [0.0, 0.0]], frames=2)
        cfg = GuidanceConfig(lambda_fg=2.0, lambda_bg=3.0, apply_spatial_to_verbs=False)
        assert abs(loss_sp(ca, masks, single_pair(), cfg).item() - 0.25 * 5.0) <= 1e-12

    def test_zero_attention_column_degenerate(self):
        A = np.full((1, 4, 3), 0.25)
        A[0, :, 0] = 0.0
        masks = mask_set(np.ones((2, 2)), frames=1)
        with pytest.raises(DegenerateAttentionError, match="token 0"):
            loss_fg(ca_stack(A), masks, single_pair())

    def test_gradient_against_finite_differences(self, rng):
        masks = mask_set(rng.integers(0, 2, size=(2, 2)).astype(float) * 0 + np.eye(2), frames=2)
        base = rng.uniform(0.05, 1.0, size=(2, 4, 3))

        def f(a):
            return loss_fg(CAMapStack(A=a, grid_h=2, grid_w=2), masks, single_pair())

        assert finite_diff_check(f, Tensor(base), step=1e-5) <= 1e-6


class TestDist:
    def test_self_distance_zero(self, rng):
        p = rng.uniform(0.1, 1.0, size=(3, 8))
        for kind in (KL_SYM, KL_FWD, COSINE):
            assert np.max(np.abs(dist(p, p, kind).data)) <= 1e-12

    def test_symmetry(self, rng):
        p = rng.uniform(0.1, 1.0, size=(3, 8))
        q = rng.uniform(0.1, 1.0, size=(3, 8))
        for kind in (KL_SYM, COSINE):
            assert np.allclose(dist(p, q, kind).data, dist(q, p, kind).data, atol=1e-12)

    def test_forward_kl_asymmetric(self):
        p = np.array([0.6, 0.3, 0.1])
        q = np.array([1 / 3, 1 / 3, 1 / 3])
        assert abs(dist(p, q, KL_FWD).item() - dist(q, p, KL_FWD).item()) > 1e-6

    def test_kl_closed_form(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        kl_pq = 0.5 * np.log(0.5 / 0.25) + 0.5 * np.log(0.5 / 0.75)
        kl_qp = 0.25 * np.log(0.25 / 0.5) + 0.75 * np.log(0.75 / 0.5)
        assert abs(dist(p, q, KL_FWD).item() - kl_pq) <= 1e-6
        assert abs(dist(p, q, KL_SYM).item() - 0.5 * (kl_pq + kl_qp)) <= 1e-6

    def test_cosine_scale_invariant(self, rng):
        p = rng.uniform(0.1, 1.0, size=8)
        q = rng.uniform(0.1, 1.0, size=8)
        a = dist(p, q, COSINE).item()
        b = dist(7.5 * p, q * 0.01, COSINE).item()
        assert abs(a - b) <= 1e-12

    def test_kl_not_scale_invariant_before_normalization(self, rng):
        """KL normalizes internally, so scaling both maps changes nothing."""
        p = rng.uniform(0.1, 1.0, size=8)
        q = rng.uniform(0.1, 1.0, size=8)
        assert abs(dist(p, q, KL_SYM).item() - dist(3 * p, 5 * q, KL_SYM).item()) <= 1e-7

    def test_negative_entries_rejected(self):
        with pytest.raises(DegenerateAttentionError):
            dist(np.array([0.5, -0.1]), np.array([0.5, 0.5]))

    def test_all_zero_slice_rejected(self):
        with pytest.raises(DegenerateAttentionError):
            dist(np.zeros(4), np.ones(4))

    def test_nonnegative(self, rng):
        for kind in (KL_SYM, KL_FWD, COSINE):
            for _ in range(20):
                p = rng.uniform(0.01, 1.0, size=(2, 6))
                q = rng.uniform(0.01, 1.0, size=(2, 6))
                assert np.all(dist(p, q, kind).data >= -1e-12)


class TestSyntaxLosses:
    def test_identical_noun_verb_maps_zero(self):
        A = np.zeros((2, 4, 3))
        A[..., 0] = A[..., 1] = 0.4
        A[..., 2] = 0.2
        assert abs(loss_pos(ca_stack(A), (0, 1)).item()) <= 1e-12

    def test_loss_neg_sums_over_negatives(self, rng):
        A = rng.uniform(0.05, 1.0, size=(2, 4, 4))
        ca = ca_stack(A)
        d2 = dist(A[..., 0], A[..., 2], KL_SYM).data.mean()
        d3 = dist(A[..., 0], A[..., 3], KL_SYM).data.mean()
        got = loss_neg(ca, (0, 1), frozenset({2, 3})).item()
        assert abs(got - (d2 + d3)) <= 1e-9

    def test_loss_neg_empty_warns_and_returns_zero(self):
        with pytest.warns(UserWarning, match="empty negative"):
            out = loss_neg(uniform_ca(), (0, 1), frozenset())
        assert out.item() == 0.0

    def test_ratio_half_when_negative_mirrors_verb(self, rng):
        """Negative column identical to the verb column gives pos/(pos+pos)."""
        A = rng.uniform(0.05, 1.0, size=(2, 4, 3))
        A[..., 2] = A[..., 1]
        cfg = GuidanceConfig()
        assert abs(loss_syt(ca_stack(A), single_pair(), cfg).item() - 0.5) <= 1e-9

    def test_ratio_one_tenth_with_nine_mirrored_negatives(self, rng):
        A = rng.uniform(0.05, 1.0, size=(2, 4, 11))
        for u in range(2, 11):
            A[..., u] = A[..., 1]
        pairs = SyntaxPairs(pairs=[(0, 1)], negatives={(0, 1): frozenset(range(2, 11))})
        got = loss_syt(ca_stack(A), pairs, GuidanceConfig()).item()
        assert abs(got - 0.1) <= 1e-9

    def test_sum_form_is_pos_plus_neg(self, rng):
        A = rng.uniform(0.05, 1.0, size=(2, 4, 3))
        ca = ca_stack(A)
        cfg = GuidanceConfig(contrastive_form=SUM)
        expected = loss_pos(ca, (0, 1)).item() + loss_neg(ca, (0, 1), frozenset({2})).item()
        assert abs(loss_syt(ca, single_pair(), cfg).item() - expected) <= 1e-12

    def test_ratio_bounded_by_pair_count(self, rng):
        pairs = SyntaxPairs(
            pairs=[(0, 1), (2, 3)],
            negatives={(0, 1): frozenset({2, 3}), (2, 3): frozenset({0, 1})},
        )
        cfg = GuidanceConfig()
        for _ in range(50):
            A = rng.uniform(0.01, 1.0, size=(2, 4, 4))
            v = loss_syt(ca_stack(A), pairs, cfg).item()
            assert 0.0 <= v <= 2.0

    def test_no_pairs_rejected(self):
        with pytest.raises(ContractError):
            loss_syt(uniform_ca(), SyntaxPairs(), GuidanceConfig())

    @pytest.mark.parametrize("column", [0, 1, 2])  # noun, verb, negative
    @pytest.mark.parametrize("defect", ["negative", "all_zero"])
    def test_degenerate_used_column_rejected(self, rng, column, defect):
        A = rng.uniform(0.05, 1.0, size=(2, 4, 4))
        if defect == "negative":
            A[1, 2, column] = -0.1
        else:
            A[1, :, column] = 0.0
        with pytest.raises(DegenerateAttentionError):
            loss_syt(ca_stack(A), single_pair(), GuidanceConfig())

    def test_gradient_against_finite_differences(self, rng):
        base = rng.uniform(0.05, 1.0, size=(2, 4, 3))
        cfg = GuidanceConfig()

        def f(a):
            return loss_syt(CAMapStack(A=a, grid_h=2, grid_w=2), single_pair(), cfg)

        assert finite_diff_check(f, Tensor(base), step=1e-5) <= 1e-6


class TestGuideLatent:
    def test_quadratic_lands_on_target(self, rng):
        """loss = 0.5||z - c||^2 with alpha*lam = 1 jumps exactly to c."""
        c = rng.normal(size=(2, 2, 4, 4))
        z = rng.normal(size=c.shape)
        state = LatentState(z.copy(), 10)
        leaf = Tensor(z, requires_grad=True)
        loss = (leaf - Tensor(c)).square().sum() * 0.5
        new_state, gnorm = guide_latent(state, leaf, loss, lam=1.0, alpha=1.0)
        assert np.allclose(new_state.z, c, atol=1e-12)
        assert abs(gnorm - np.sqrt(((z - c) ** 2).sum())) <= 1e-9
        assert new_state.timestep_index == 10

    def test_non_scalar_loss_rejected(self, rng):
        z = rng.normal(size=(1, 1, 2, 2))
        leaf = Tensor(z, requires_grad=True)
        with pytest.raises(ContractError):
            guide_latent(LatentState(z, 0), leaf, leaf * 2.0, 1.0, 1.0)

    def test_descends_stub_spatial_loss(self, rng):
        cfg_m = tiny_model_config()
        stub = LinearAttentionStub(cfg_m, seed=5)
        masks = mask_set(np.eye(cfg_m.capture_grid), frames=cfg_m.frames)
        pairs = single_pair()
        gcfg = GuidanceConfig()

        def value(z):
            return loss_sp(stub.ca_from_latent(Tensor(z)), masks, pairs, gcfg).item()

        z = rng.normal(size=(cfg_m.frames, cfg_m.latent_channels, cfg_m.latent_h, cfg_m.latent_w))
        before = value(z)
        leaf = Tensor(z, requires_grad=True)
        loss = loss_sp(stub.ca_from_latent(leaf), masks, pairs, gcfg)
        new_state, _ = guide_latent(LatentState(z, 0), leaf, loss, lam=1.0, alpha=0.05)
        assert value(new_state.z) < before


class TestConfig:
    def test_defaults(self):
        cfg = GuidanceConfig()
        assert (cfg.total_steps, cfg.t1, cfg.t2) == (50, 5, 25)
        assert (cfg.iters_spatial_per_step, cfg.iters_syntax_per_step) == (10, 1)
        assert (cfg.lambda_sp, cfg.lambda_syt, cfg.alpha) == (30.0, 20.0, 1.0)
        assert cfg.distance == KL_SYM and cfg.contrastive_form == RATIO

    def test_validation(self):
        with pytest.raises(InputError):
            GuidanceConfig(t1=10, t2=5)
        with pytest.raises(InputError):
            GuidanceConfig(lambda_sp=-1.0)
        with pytest.raises(InputError):
            GuidanceConfig(alpha=0.0)
        with pytest.raises(InputError):
            GuidanceConfig(distance="manhattan")
        with pytest.raises(InputError):
            GuidanceConfig(contrastive_form="product")

    def test_from_file_and_overrides(self, tmp_path):
        path = tmp_path / "guide.cfg"
        path.write_text(
            "t1 = 3\nlambda_syt = 12.5\ndistance = COSINE\n"
            "apply_spatial_to_verbs = false\n# comment\n"
        )
        cfg = GuidanceConfig.from_file(path)
        assert cfg.t1 == 3 and cfg.lambda_syt == 12.5
        assert cfg.distance == COSINE and cfg.apply_spatial_to_verbs is False
        cfg2 = cfg.with_overrides(t1=4, lambda_syt=None)
        assert cfg2.t1 == 4 and cfg2.lambda_syt == 12.5

    def test_from_file_unknown_key(self, tmp_path):
        path = tmp_path / "guide.cfg"
        path.write_text("momentum = 0.9\n")
        with pytest.raises(InputError, match="momentum"):
            GuidanceConfig.from_file(path)


class TestTrace:
    def test_order_enforced(self):
        trace = GuidanceTrace()
        trace.add(TraceRecord(2, 1, "spatial", 0.5, 1.0, {}))
        with pytest.raises(ContractError):
            trace.add(TraceRecord(1, 1, "spatial", 0.5, 1.0, {}))

    def test_jsonl_round_trip_fields(self):
        trace = GuidanceTrace()
        trace.add(TraceRecord(1, 1, "spatial", 0.5, 1.0, {2: 0.7}))
        import json

        row = json.loads(trace.to_jsonl().splitlines()[0])
        assert row == {
            "step": 1, "iteration": 1, "loss": "spatial", "value": 0.5,
            "grad_norm": 1.0, "in_box_ratios": {"2": 0.7},
        }


class TestRunGuidedSampling:
    def _run(self, guidance_overrides=None, model_overrides=None, seed=0):
        model = ToyDenoiser(tiny_model_config(total_steps=12, **(model_overrides or {})))
        cfg = GuidanceConfig(
            total_steps=12, t1=2, t2=5, iters_spatial_per_step=2,
            iters_syntax_per_step=1, **(guidance_overrides or {})
        )
        prior = static_two_box_prior(2)
        return run_guided_sampling(TEMPLATE_PROMPT, prior, cfg, model, seed=seed)

    def test_schedule_conformance(self):
        res = self._run()
        spatial = res.trace.by_loss("spatial")
        syntax = res.trace.by_loss("syntax")
        assert len(spatial) == 2 * 2  # t1 steps x iters
        assert len(syntax) == (5 - 2) * 1
        assert {r.step for r in spatial} == {1, 2}
        assert {r.step for r in syntax} == {3, 4, 5}
        assert all(r.iteration in (1, 2) for r in spatial)
        assert len(res.z_trajectory) == 12
        assert res.final_state.timestep_index == -1
        assert set(res.ca_records) == {1, 2, 5, 12}

    def test_trace_reports_in_box_ratios_for_nouns(self):
        res = self._run()
        noun_cols = [noun for noun, _ in res.column_pairs.pairs]
        for record in res.trace.records:
            assert sorted(record.in_box_ratios) == sorted(noun_cols)
            for v in record.in_box_ratios.values():
                assert 0.0 <= v <= 1.0

    def test_deterministic(self):
        a = self._run(seed=7)
        b = self._run(seed=7)
        assert a.final_state.z.tobytes() == b.final_state.z.tobytes()
        assert a.trace.to_jsonl() == b.trace.to_jsonl()

    def test_seed_changes_output(self):
        a = self._run(seed=7)
        b = self._run(seed=8)
        assert a.final_state.z.tobytes() != b.final_state.z.tobytes()

    def test_zero_weights_match_unguided_loop(self):
        res = self._run(guidance_overrides=dict(lambda_sp=0.0, lambda_syt=0.0), seed=3)
        assert res.trace.records == []

        model = ToyDenoiser(tiny_model_config(total_steps=12))
        cfg_m = model.config
        from attnguide.syntax import tokenize

        text = model.encode_text(tokenize(TEMPLATE_PROMPT))
        schedule = DDIMSchedule(12)
        rng = np.random.default_rng(np.random.SeedSequence([3, 0x1A7E]))
        z0 = rng.normal(size=(cfg_m.frames, cfg_m.latent_channels, cfg_m.latent_h, cfg_m.latent_w))
        state = LatentState(z0, 11)
        for step in range(1, 13):
            eps, _, _ = model.denoise_step(Tensor(state.z), schedule.t_for_step(step), text)
            state = ddim_step(state, eps, step, schedule)
        assert res.final_state.z.tobytes() == state.z.tobytes()

    def test_reused_model_matches_fresh_model_per_prompt(self):
        cfg = GuidanceConfig(total_steps=12, t1=2, t2=5, iters_spatial_per_step=2)
        prior = static_two_box_prior(2)
        shared = ToyDenoiser(tiny_model_config(total_steps=12))
        for prompt in (TEMPLATE_PROMPT, "a cat is sitting and a woman is jumping"):
            fresh = ToyDenoiser(tiny_model_config(total_steps=12))
            a, b = (run_guided_sampling(prompt, prior, cfg, m, seed=4) for m in (shared, fresh))
            assert a.final_state.z.tobytes() == b.final_state.z.tobytes()
            assert a.trace.to_jsonl() == b.trace.to_jsonl()

    def test_guidance_changes_trajectory(self):
        guided = self._run(seed=3)
        free = self._run(guidance_overrides=dict(lambda_sp=0.0, lambda_syt=0.0), seed=3)
        assert guided.final_state.z.tobytes() != free.final_state.z.tobytes()

    def test_total_steps_mismatch_rejected(self):
        model = ToyDenoiser(tiny_model_config(total_steps=12))
        cfg = GuidanceConfig(total_steps=50)
        with pytest.raises(InputError, match="steps"):
            run_guided_sampling(TEMPLATE_PROMPT, static_two_box_prior(2), cfg, model, seed=0)


class TestPrepareInputs:
    def test_binds_trajectories_in_order(self):
        model = ToyDenoiser(tiny_model_config())
        cfg = GuidanceConfig()
        tokens, pairs, column_pairs, text, masks = prepare_inputs(
            TEMPLATE_PROMPT, static_two_box_prior(2), cfg, model
        )
        assert pairs.pairs == [(1, 3), (6, 8)]
        assert column_pairs.pairs == [(2, 4), (7, 9)]
        g = model.config.capture_grid
        left = masks.mask(2, 0).reshape(g, g)
        right = masks.mask(7, 0).reshape(g, g) if masks.mask(7, 0).ndim == 1 else masks.mask(7, 0)
        assert left[:, : g // 2].all() and not left[:, g // 2:].any()
        assert right[:, g // 2:].all() and not right[:, : g // 2].any()

    def test_resamples_prior_frames(self):
        model = ToyDenoiser(tiny_model_config())  # 2 frames
        out = prepare_inputs(TEMPLATE_PROMPT, static_two_box_prior(8), GuidanceConfig(), model)
        masks = out[4]
        assert (2, 1) in masks.masks  # second frame exists after resampling

    def test_pair_trajectory_count_mismatch(self):
        model = ToyDenoiser(tiny_model_config())
        with pytest.raises(InputError, match="trajectories"):
            prepare_inputs("a cat is sitting", static_two_box_prior(2), GuidanceConfig(), model)
