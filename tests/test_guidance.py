import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from attnguide.autodiff import Tensor
from attnguide.boxes import parse_llm_boxes
from attnguide.denoiser import (
    LATENT_CHANNELS,
    LatentState,
    LinearAttentionStub,
    ToyDenoiser,
    ToyModelConfig,
    ddim_schedule,
    ddim_step,
)
from attnguide.errors import (
    ContractError,
    DegenerateAttentionError,
    DimensionError,
    GuidanceError,
    InputError,
    NumericError,
)
from attnguide.gradcheck import fd_gradients, relative_error
from attnguide.guidance import (
    COSINE,
    KL_SYM,
    MAX_ITERS_PER_STEP,
    MAX_TOTAL_STEPS,
    RATIO,
    SUM,
    GuidanceConfig,
    GuidanceTrace,
    TraceRecord,
    guide_latent,
    in_box_ratios,
    loss_bg,
    loss_fg,
    loss_neg,
    loss_pos,
    loss_sp,
    loss_syt,
    prepare_inputs,
    run_guided_sampling,
)
from attnguide.syntax import SyntaxPairs, extract_pairs, tokenize

from composites import frame_distances, square
from conftest import (
    DEFAULTS,
    MAN_DOG_BOXES,
    TEMPLATE_PROMPT,
    WOMAN_MAN_BOXES,
    ca_stack,
    mask_set,
    single_pair,
    static_two_box_prior,
    tiny_model_config,
)
from reftensor import ref


def uniform_ca(frames=2, pixels=4, tokens=3):
    return ca_stack(np.full((frames, pixels, tokens), 1.0 / tokens))


class TestSpatialLosses:
    def test_uniform_half_mask_oracle(self):
        """Half the mass lands inside a half-frame mask: 0.25 per tracked token for fg and bg."""
        ca = uniform_ca()
        masks = mask_set([[1.0, 1.0], [0.0, 0.0]], frames=2)
        # the noun and its verb, both against the noun's mask
        for loss in (loss_fg, loss_bg):
            assert abs(loss(ca, masks, single_pair()).item() - 0.5) <= 1e-12

    def test_all_ones_mask_is_zero(self):
        ca = uniform_ca()
        masks = mask_set(np.ones((2, 2)), frames=2)
        assert loss_fg(ca, masks, single_pair()).item() == 0.0
        assert loss_bg(ca, masks, single_pair()).item() == 0.0

    def test_all_zeros_mask_is_one_per_token(self):
        ca = uniform_ca()
        masks = mask_set(np.zeros((2, 2)), frames=2)
        assert abs(loss_fg(ca, masks, single_pair()).item() - 2.0) <= 1e-12

    def test_fg_equals_bg_for_binary_masks(self, rng):
        for _ in range(100):
            A = rng.uniform(0.01, 1.0, size=(2, 4, 3))
            ca = ca_stack(A)
            masks = mask_set(rng.integers(0, 2, size=(2, 2)).astype(float), frames=2)
            fg = loss_fg(ca, masks, single_pair()).item()
            bg = loss_bg(ca, masks, single_pair()).item()
            assert abs(fg - bg) <= 1e-12

    def test_zero_attention_column_degenerate(self):
        A = np.full((1, 4, 3), 0.25)
        A[0, :, 0] = 0.0
        masks = mask_set(np.ones((2, 2)), frames=1)
        with pytest.raises(DegenerateAttentionError, match="token 0"):
            loss_fg(ca_stack(A), masks, single_pair())

    def test_negative_entry_degenerate(self):
        """One rule for every CA column read: a negative entry, named with its frame."""
        A = np.full((2, 4, 3), 0.25)
        A[1, 2, 0] = -0.1
        masks = mask_set(np.ones((2, 2)), frames=2)
        with pytest.raises(DegenerateAttentionError, match="token 0 frame 1: negative"):
            loss_sp(ca_stack(A), masks, single_pair())
        with pytest.raises(DegenerateAttentionError, match="token 0 frame 1: negative"):
            in_box_ratios(A, masks, [0])

    @pytest.mark.parametrize("mask_frames", [1, 3])
    def test_frame_count_mismatch_rejected(self, mask_frames):
        A = np.full((2, 4, 3), 1.0 / 3)
        masks = mask_set(np.ones((2, 2)), frames=mask_frames)
        with pytest.raises(DimensionError, match="masks of shape"):
            in_box_ratios(A, masks, [0])
        with pytest.raises(DimensionError, match="masks of shape"):
            loss_fg(ca_stack(A), masks, single_pair())

    def test_masks_checked_before_masses(self):
        """A wrong-shaped mask is reported before the zero mass of an earlier token."""
        A = np.full((2, 4, 6), 0.25)
        A[0, :, 1] = 0.0  # noun 1: no attention mass at frame 0
        masks = {1: np.ones((2, 2, 2)), 3: np.ones((2, 3, 3))}  # noun 3: 3x3 on a 2x2 grid
        pairs = SyntaxPairs([(1, 2), (3, 4)], frozenset(range(6)))
        with pytest.raises(DimensionError, match=r"masks of shape \(2, 9\)"):
            loss_sp(ca_stack(A), masks, pairs)
        masks[3] = np.ones((2, 2, 2))
        with pytest.raises(DegenerateAttentionError, match="token 1 frame 0"):
            loss_sp(ca_stack(A), masks, pairs)

    def test_gradient_against_finite_differences(self, rng):
        masks = mask_set(rng.integers(0, 2, size=(2, 2)).astype(float) * 0 + np.eye(2), frames=2)
        base = rng.uniform(0.05, 1.0, size=(2, 4, 3))

        def f(a):
            return loss_fg(a, masks, single_pair())

        assert relative_error(*fd_gradients(f, base, 1e-5)) <= 1e-6


class TestDist:
    def test_self_distance_zero(self, rng):
        p = rng.uniform(0.1, 1.0, size=(3, 8))
        for kind in (KL_SYM, COSINE):
            assert np.max(np.abs(frame_distances(p, p, kind))) <= 1e-12

    def test_symmetry(self, rng):
        p = rng.uniform(0.1, 1.0, size=(3, 8))
        q = rng.uniform(0.1, 1.0, size=(3, 8))
        for kind in (KL_SYM, COSINE):
            assert np.allclose(frame_distances(p, q, kind), frame_distances(q, p, kind),
                               atol=1e-12)

    def test_kl_closed_form(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        kl_pq = 0.5 * np.log(0.5 / 0.25) + 0.5 * np.log(0.5 / 0.75)
        kl_qp = 0.25 * np.log(0.25 / 0.5) + 0.75 * np.log(0.75 / 0.5)
        assert abs(frame_distances(p, q, KL_SYM)[0] - 0.5 * (kl_pq + kl_qp)) <= 1e-6

    def test_cosine_scale_invariant(self, rng):
        p = rng.uniform(0.1, 1.0, size=8)
        q = rng.uniform(0.1, 1.0, size=8)
        a = frame_distances(p, q, COSINE)[0]
        b = frame_distances(7.5 * p, q * 0.01, COSINE)[0]
        assert abs(a - b) <= 1e-12

    def test_kl_not_scale_invariant_before_normalization(self, rng):
        """KL normalizes internally, so scaling both maps changes nothing."""
        p = rng.uniform(0.1, 1.0, size=8)
        q = rng.uniform(0.1, 1.0, size=8)
        assert abs(frame_distances(p, q, KL_SYM)[0]
                   - frame_distances(3 * p, 5 * q, KL_SYM)[0]) <= 1e-7

    def test_negative_entries_rejected(self):
        with pytest.raises(DegenerateAttentionError):
            frame_distances(np.array([0.5, -0.1]), np.array([0.5, 0.5]), KL_SYM)

    def test_all_zero_slice_rejected(self):
        with pytest.raises(DegenerateAttentionError):
            frame_distances(np.zeros(4), np.ones(4), KL_SYM)

    def test_nonnegative(self, rng):
        for kind in (KL_SYM, COSINE):
            for _ in range(20):
                p = rng.uniform(0.01, 1.0, size=(2, 6))
                q = rng.uniform(0.01, 1.0, size=(2, 6))
                assert np.all(frame_distances(p, q, kind) >= -1e-12)


class TestSyntaxLosses:
    def test_identical_noun_verb_maps_zero(self):
        A = np.zeros((2, 4, 3))
        A[..., 0] = A[..., 1] = 0.4
        A[..., 2] = 0.2
        assert abs(loss_pos(ca_stack(A), (0, 1), DEFAULTS).item()) <= 1e-12

    def test_loss_neg_sums_over_negatives(self, rng):
        A = rng.uniform(0.05, 1.0, size=(2, 4, 4))
        ca = ca_stack(A)
        d2 = loss_pos(ca, (0, 2), DEFAULTS).item()
        d3 = loss_pos(ca, (0, 3), DEFAULTS).item()
        got = loss_neg(ca, (0, 1), frozenset({2, 3}), DEFAULTS).item()
        assert abs(got - (d2 + d3)) <= 1e-9

    def test_tiny_mass_column_degenerate(self):
        """A total in (0, EPS] is as degenerate for a distance as for a mass ratio."""
        A = np.full((2, 4, 3), 0.25)
        A[1, :, 1] = 1e-9 / 4
        with pytest.raises(DegenerateAttentionError,
                           match=r"token 1 frame 1: total attention mass <= 1e-08"):
            loss_pos(ca_stack(A), (0, 1), DEFAULTS)

    def test_loss_neg_empty_is_zero(self):
        """No Python warning: a run lists a pair without negatives in its warnings."""
        assert loss_neg(uniform_ca(), (0, 1), frozenset(), DEFAULTS).item() == 0.0

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
        pairs = SyntaxPairs([(0, 1)], frozenset(range(11)))
        got = loss_syt(ca_stack(A), pairs, GuidanceConfig()).item()
        assert abs(got - 0.1) <= 1e-9

    def test_sum_form_is_pos_plus_neg(self, rng):
        A = rng.uniform(0.05, 1.0, size=(2, 4, 3))
        ca = ca_stack(A)
        cfg = GuidanceConfig(contrastive_form=SUM)
        expected = (loss_pos(ca, (0, 1), cfg).item()
                    + loss_neg(ca, (0, 1), frozenset({2}), cfg).item())
        assert abs(loss_syt(ca, single_pair(), cfg).item() - expected) <= 1e-12

    def test_ratio_bounded_by_pair_count(self, rng):
        pairs = SyntaxPairs([(0, 1), (2, 3)], frozenset(range(4)))
        cfg = GuidanceConfig()
        for _ in range(50):
            A = rng.uniform(0.01, 1.0, size=(2, 4, 4))
            v = loss_syt(ca_stack(A), pairs, cfg).item()
            assert 0.0 <= v <= 2.0

    def test_no_pairs_rejected(self):
        with pytest.raises(ContractError):
            loss_syt(uniform_ca(), SyntaxPairs([], frozenset()), GuidanceConfig())

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
            return loss_syt(a, single_pair(), cfg)

        assert relative_error(*fd_gradients(f, base, 1e-5)) <= 1e-6


class TestGuideLatent:
    def test_quadratic_lands_on_target(self, rng):
        """loss = 0.5||z - c||^2 with lam = 1 jumps exactly to c."""
        c = rng.normal(size=(2, 2, 4, 4))
        z = rng.normal(size=c.shape)
        state = LatentState(z.copy(), 10)
        leaf = Tensor(z, requires_grad=True)
        loss = square(ref(leaf) - c).sum() * 0.5
        new_state, gnorm = guide_latent(state, leaf, loss, lam=1.0)
        assert np.allclose(new_state.z, c, atol=1e-12)
        assert abs(gnorm - np.sqrt(((z - c) ** 2).sum())) <= 1e-9
        assert new_state.timestep_index == 10

    def test_non_scalar_loss_rejected(self, rng):
        z = rng.normal(size=(1, 1, 2, 2))
        leaf = Tensor(z, requires_grad=True)
        with pytest.raises(ContractError):
            guide_latent(LatentState(z, 0), leaf, ref(leaf) * 2.0, 1.0)

    def test_non_finite_gradient_rejected(self):
        z = np.ones((1, 1, 2, 2))
        leaf = Tensor(z, requires_grad=True)
        loss = Tensor.node(np.asarray(1.0), (leaf,), lambda g: (np.full(z.shape, np.nan),))
        with pytest.raises(NumericError, match="non-finite guidance gradient"):
            guide_latent(LatentState(z, 0), leaf, loss, 1.0)

    def test_descends_stub_spatial_loss(self, rng):
        cfg_m = tiny_model_config(seed=5)
        stub = LinearAttentionStub(cfg_m)
        masks = mask_set(np.eye(cfg_m.capture_grid), frames=cfg_m.frames)
        pairs = single_pair()

        def value(z):
            return loss_sp(stub.ca_from_latent(Tensor(z)), masks, pairs).item()

        z = rng.normal(size=(cfg_m.frames, LATENT_CHANNELS, cfg_m.latent_h, cfg_m.latent_w))
        before = value(z)
        leaf = Tensor(z, requires_grad=True)
        loss = loss_sp(stub.ca_from_latent(leaf), masks, pairs)
        new_state, _ = guide_latent(LatentState(z, 0), leaf, loss, lam=0.05)
        assert value(new_state.z) < before


class TestConfig:
    def test_defaults(self):
        cfg = GuidanceConfig()
        assert (cfg.total_steps, cfg.t1, cfg.t2) == (50, 5, 25)
        assert (cfg.iters_spatial_per_step, cfg.iters_syntax_per_step) == (10, 1)
        assert (cfg.lambda_sp, cfg.lambda_syt) == (30.0, 20.0)
        assert cfg.distance == KL_SYM and cfg.contrastive_form == RATIO

    def test_validation(self):
        with pytest.raises(InputError):
            GuidanceConfig(t1=10, t2=5)
        with pytest.raises(InputError):
            GuidanceConfig(lambda_sp=-1.0)
        with pytest.raises(InputError):
            GuidanceConfig(distance="manhattan")
        with pytest.raises(InputError):
            GuidanceConfig(contrastive_form="product")
        with pytest.raises(InputError, match="total_steps"):
            GuidanceConfig(total_steps=0, t1=0, t2=0)
        with pytest.raises(InputError, match="iteration counts"):
            GuidanceConfig(iters_spatial_per_step=-3)
        with pytest.raises(InputError, match="iteration counts"):
            GuidanceConfig(iters_syntax_per_step=-1)
        GuidanceConfig(iters_spatial_per_step=0, iters_syntax_per_step=0)

    def test_total_steps_capped(self, tmp_path):
        """The schedule is read up to its cap and rejected past it, before any allocation."""
        path = tmp_path / "guide.cfg"
        path.write_text(f"total_steps = {MAX_TOTAL_STEPS}\n")
        assert GuidanceConfig.from_file(path).total_steps == MAX_TOTAL_STEPS
        for value in (MAX_TOTAL_STEPS + 1, 99999999999999999999):
            path.write_text(f"total_steps = {value}\n")
            with pytest.raises(InputError, match=f"at most {MAX_TOTAL_STEPS}, got {value}"):
                GuidanceConfig.from_file(path)

    @pytest.mark.parametrize("name", ["iters_spatial_per_step", "iters_syntax_per_step"])
    def test_iteration_counts_capped(self, tmp_path, name):
        """Each phase's iterations per step are read up to the cap and rejected past it."""
        path = tmp_path / "guide.cfg"
        path.write_text(f"{name} = {MAX_ITERS_PER_STEP}\n")
        assert getattr(GuidanceConfig.from_file(path), name) == MAX_ITERS_PER_STEP
        for value in (MAX_ITERS_PER_STEP + 1, 1000000000):
            path.write_text(f"{name} = {value}\n")
            with pytest.raises(InputError, match=f"at most {MAX_ITERS_PER_STEP}, got .*{value}"):
                GuidanceConfig.from_file(path)

    def test_from_file_and_overrides(self, tmp_path):
        path = tmp_path / "guide.cfg"
        path.write_text(
            "t1 = 3\nlambda_syt = 12.5\ndistance = COSINE\n# comment\n"
        )
        cfg = GuidanceConfig.from_file(path)
        assert cfg.t1 == 3 and cfg.lambda_syt == 12.5
        assert cfg.distance == COSINE

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
        model = ToyDenoiser(tiny_model_config(**(model_overrides or {})))
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
        assert len(res.latent_norms) == 12
        assert res.final_state.timestep_index == -1
        assert set(res.ca_records) == {1, 2, 5, 12}

    def test_retained_result_does_not_grow_with_steps(self):
        """The arrays an unguided result holds take the same bytes at 12 steps as at 48: it
        keeps each step's latent norm, a Python float, not the latent.  Only numpy's buffer
        domain is counted, since the whole traced heap varies by kilobytes from process to
        process with what numpy's caches hold."""
        model, prior = ToyDenoiser(tiny_model_config()), static_two_box_prior(2)
        buffers = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)

        def held(steps):
            cfg = GuidanceConfig(total_steps=steps, t1=2, t2=5, lambda_sp=0.0, lambda_syt=0.0)
            tracemalloc.start()
            try:
                result = run_guided_sampling(TEMPLATE_PROMPT, prior, cfg, model, 0)
                gc.collect()
                snapshot = tracemalloc.take_snapshot().filter_traces([buffers])
            finally:
                tracemalloc.stop()
            del result  # alive until the snapshot
            return sum(trace.size for trace in snapshot.traces)

        assert held(48) == held(12)

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

        model = ToyDenoiser(tiny_model_config())
        cfg_m = model.config
        text = model.encode_text(tokenize(TEMPLATE_PROMPT))
        schedule = ddim_schedule(12)
        rng = np.random.default_rng(np.random.SeedSequence([3, 0x1A7E]))
        z0 = rng.normal(size=(cfg_m.frames, LATENT_CHANNELS, cfg_m.latent_h, cfg_m.latent_w))
        state = LatentState(z0, 11)
        for _ in range(12):
            eps, _ = model.denoise_step(Tensor(state.z), state.timestep_index / 12, text)
            state = ddim_step(state, eps, schedule)
        assert res.final_state.z.tobytes() == state.z.tobytes()

    def test_reused_model_matches_fresh_model_per_prompt(self):
        """Sampling with a model used on another prompt first gives a fresh model's bytes."""
        cfg = GuidanceConfig(total_steps=12, t1=2, t2=5, iters_spatial_per_step=2)
        prior = static_two_box_prior(2)
        shared = ToyDenoiser(tiny_model_config())
        for prompt in (TEMPLATE_PROMPT, "a cat is sitting and a woman is jumping"):
            fresh = ToyDenoiser(tiny_model_config())
            a, b = (run_guided_sampling(prompt, prior, cfg, m, seed=4) for m in (shared, fresh))
            assert a.final_state.z.tobytes() == b.final_state.z.tobytes()
            assert a.trace.to_jsonl() == b.trace.to_jsonl()

    def test_guidance_changes_trajectory(self):
        guided = self._run(seed=3)
        free = self._run(guidance_overrides=dict(lambda_sp=0.0, lambda_syt=0.0), seed=3)
        assert guided.final_state.z.tobytes() != free.final_state.z.tobytes()

    def test_negative_seed_rejected(self):
        with pytest.raises(InputError, match="seed"):
            self._run(seed=-1)

    @pytest.mark.parametrize("lam, reason", [
        (1e306, "step 1: latent norm past float range"),
        (1e307, "step 1: ddim_step: overflow encountered in divide"),
        (1e308, "step 1: ToyDenoiser.denoise_step: overflow encountered in matmul"),
    ], ids=["norm", "ddim", "forward"])
    def test_failed_step_is_one_guidance_error(self, lam, reason):
        """One guidance step of size `lam` fails the step's norm check, DDIM update or free
        forward: each is a `GuidanceError` naming the step, with no Python warning."""
        cfg = GuidanceConfig(total_steps=1000, t1=1, t2=1, iters_spatial_per_step=1,
                             lambda_sp=lam)
        with pytest.raises(GuidanceError, match=f"^{reason}$") as exc:
            run_guided_sampling(TEMPLATE_PROMPT, static_two_box_prior(2), cfg,
                                ToyDenoiser(tiny_model_config()), 0)
        assert isinstance(exc.value, NumericError)


class TestPrepareInputs:
    def test_binds_trajectories_in_order(self):
        model = ToyDenoiser(tiny_model_config())
        column_pairs, text, masks, _ = prepare_inputs(TEMPLATE_PROMPT, static_two_box_prior(2),
                                                      model)
        tokens = tokenize(TEMPLATE_PROMPT)
        assert extract_pairs(tokens).pairs == [(1, 3), (6, 8)]
        assert column_pairs.pairs == [(2, 4), (7, 9)]  # token i is CA column i + 1
        for i in (1, 3, 6, 8):  # and that column holds the word's values
            alone = model.encode_text(tokens[i:i + 1])
            for tag, (_, values) in text.items():
                assert values[i + 1].tobytes() == alone[tag][1][1].tobytes()
        g = model.config.capture_grid
        left, right = masks[2][0], masks[7][0]
        assert left[:, : g // 2].all() and not left[:, g // 2:].any()
        assert right[:, g // 2:].all() and not right[:, : g // 2].any()

    @staticmethod
    def _named_prior(*names):
        prior = static_two_box_prior(2)  # the first box on the left half, the second right
        for traj, name in zip(prior.trajectories, names):
            traj.name = name
        return prior

    def test_binds_trajectories_by_name(self):
        """Boxes listed as `walking man`, then `running dog`, bind to the man and the dog."""
        model = ToyDenoiser(tiny_model_config())
        prior = self._named_prior("walking man", "running dog")
        column_pairs, _, masks, _ = prepare_inputs("a dog is running and a man is walking", prior,
                                                   model)
        (dog, _), (man, _) = column_pairs.pairs
        g = model.config.capture_grid
        assert masks[man][0][:, : g // 2].all() and not masks[man][0][:, g // 2:].any()
        assert masks[dog][0][:, g // 2:].all() and not masks[dog][0][:, : g // 2].any()

    def test_partly_named_boxes_bind_in_order(self):
        """`woman` is no prompt noun, so the boxes bind by position, as before names counted."""
        model = ToyDenoiser(tiny_model_config())
        by_order = prepare_inputs(TEMPLATE_PROMPT, static_two_box_prior(2), model)[2]
        partly = prepare_inputs(TEMPLATE_PROMPT, self._named_prior("walking woman", "jumping man"),
                                model)[2]
        assert partly.keys() == by_order.keys()
        assert all((partly[k] == by_order[k]).all() for k in by_order)

    def test_positional_binding_warns_per_box(self):
        """The woman/man boxes on the man/dog prompt: `walking woman` names no prompt noun,
        so both boxes bind by position, `jumping man` to the dog, and each says so."""
        column_pairs, _, masks, warnings = prepare_inputs(
            TEMPLATE_PROMPT, parse_llm_boxes(WOMAN_MAN_BOXES), ToyDenoiser(ToyModelConfig()))
        assert sorted(masks) == [noun for noun, _ in column_pairs.pairs] == [2, 7]
        assert warnings == [
            "box 'walking woman' of subject 0 bound by position to the noun 'man'",
            "box 'jumping man' of subject 1 bound by position to the noun 'dog'",
        ]

    def test_duplicate_nouns_bind_by_position_with_warnings(self):
        """Two men: every name holds `man` but none names one pair, so the boxes bind by
        position, `running man` to the walking man, and each box says so."""
        model = ToyDenoiser(tiny_model_config())
        prompt = "a man is walking and a man is running"
        by_order = prepare_inputs(prompt, static_two_box_prior(2), model)[2]
        _, _, masks, warnings = prepare_inputs(
            prompt, self._named_prior("running man", "walking man"), model)
        assert all((masks[k] == by_order[k]).all() for k in by_order)
        assert warnings == [
            "box 'running man' of subject 0 bound by position to the noun 'man'",
            "box 'walking man' of subject 1 bound by position to the noun 'man'",
        ]

    @pytest.mark.parametrize("names", [("walking man", "running man"),
                                       ("man and dog", "running dog")])
    def test_names_contradicting_order_rejected(self, names):
        with pytest.raises(InputError, match="do not match the prompt's subjects"):
            prepare_inputs("a dog is running and a man is walking", self._named_prior(*names),
                           ToyDenoiser(tiny_model_config()))

    def test_resamples_prior_frames(self):
        model = ToyDenoiser(tiny_model_config())  # 2 frames
        prior = static_two_box_prior(8)
        prior.load_warnings.append("clipped box of subject 0 frame 3: ...")
        _, _, masks, warnings = prepare_inputs(TEMPLATE_PROMPT, prior, model)
        assert masks[2].shape[0] == 2  # second frame exists after resampling
        assert warnings == [
            "clipped box of subject 0 frame 3: ...",  # the loading warnings come first
            "resampled 8 box frames to 2 model frames",
            "box 'left subject' of subject 0 bound by position to the noun 'man'",
            "box 'right subject' of subject 1 bound by position to the noun 'dog'",
        ]

    def test_matching_frames_warn_nothing(self):
        """Two frames for a 2-frame model, and boxes bound by name."""
        model = ToyDenoiser(tiny_model_config())
        prior = self._named_prior("walking man", "running dog")
        assert prepare_inputs(TEMPLATE_PROMPT, prior, model)[3] == []

    def test_pair_trajectory_count_mismatch(self):
        model = ToyDenoiser(tiny_model_config())
        with pytest.raises(InputError, match="trajectories"):
            prepare_inputs("a cat is sitting", static_two_box_prior(2), model)


class TestBitExactness:
    """Pins of the guided run's bytes and of the graph's size.

    The guided dynamics amplify a rounding change in any op (a 1e-15 nudge
    of the latent moves the final latent by 4e-2), so a changed summation
    order anywhere shows up as a changed digest.  The digests were recorded
    with the composite, unfused graph (numpy 2 with OpenBLAS, x86-64); a
    different BLAS build or matmul kernel may round matmuls differently, so the
    digests are `kernel_bound`.
    """

    @staticmethod
    def _digest(res):
        h = hashlib.sha256(res.final_state.z.tobytes())
        h.update(res.trace.to_jsonl().encode())
        return h.hexdigest()

    @pytest.mark.kernel_bound
    def test_default_run_digest(self):
        res = run_guided_sampling(TEMPLATE_PROMPT, parse_llm_boxes(MAN_DOG_BOXES),
                                  GuidanceConfig(), ToyDenoiser(ToyModelConfig()), seed=0)
        assert self._digest(res) == (
            "ac2cd5484e7a8a94fea640f741b6fe012cfa169e03382f491634b6bf002bb807")

    @pytest.mark.parametrize("guidance_overrides,model_overrides,digest", [
        (dict(distance=COSINE, contrastive_form=SUM), dict(ca_capture="mid"),
         "9f36b4f6778b537dcb3451190ee38b195c6a6de5fc9a20df504d77f0e0de68f5"),
        (dict(), dict(ca_capture="up"),
         "5412db8fa3b33abf9d8f90286cf6da3b36b5ee50b990b06874a1a8918a32c4a1"),
        (dict(), dict(ca_capture="down"),
         "7728904f23f800ae6a8748db18037d4eb27e7ef730d72c721da29b5772be8cfc"),
    ])
    @pytest.mark.kernel_bound
    def test_variant_run_digest(self, guidance_overrides, model_overrides, digest):
        cfg = GuidanceConfig(total_steps=12, t1=2, t2=6, iters_spatial_per_step=3,
                             **guidance_overrides)
        model = ToyDenoiser(tiny_model_config(**model_overrides))
        res = run_guided_sampling(TEMPLATE_PROMPT, static_two_box_prior(2), cfg, model, seed=5)
        assert self._digest(res) == digest

    @staticmethod
    def _graph_nodes(loss):
        """Nodes `Tensor.backward` visits from `loss`."""
        seen, stack = {loss}, [loss]
        while stack:
            for parent in stack.pop()._parents:
                if parent.requires_grad and parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        return len(seen)

    def test_graph_nodes_per_iteration(self, rng):
        model, config = ToyDenoiser(ToyModelConfig()), GuidanceConfig()
        pairs, text, masks, _ = prepare_inputs(TEMPLATE_PROMPT, parse_llm_boxes(MAN_DOG_BOXES),
                                               model)
        cfg = model.config
        z = rng.normal(size=(cfg.frames, LATENT_CHANNELS, cfg.latent_h, cfg.latent_w))
        _, ca = model.denoise_step(Tensor(z, requires_grad=True), 45 / 50, text)
        # the loss node, the denoiser's A node and the latent
        assert self._graph_nodes(loss_sp(ca, masks, pairs)) == 3
        assert self._graph_nodes(loss_syt(ca, pairs, config)) == 3
