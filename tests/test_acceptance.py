"""End-to-end acceptance suite: eight property-based criteria, one per test.

Each test prints a single "criterion N: PASS/FAIL" line in addition to its
assertions, so a -s run gives a compact scoreboard.
"""

import numpy as np
import pytest

from attnguide.boxes import parse_llm_boxes, serialize_boxes, validate_trajectories
from attnguide import guidance
from attnguide.gradcheck import gradcheck_suites
from attnguide.denoiser import ToyDenoiser, ToyModelConfig, ddim_step
from attnguide.guidance import (
    KL_SYM,
    GuidanceConfig,
    loss_bg,
    loss_fg,
    loss_pos,
    loss_sp,
    loss_syt,
    run_guided_sampling,
)
from attnguide.metrics import (
    DEFAULT_ABLATION_AXES,
    run_ablation,
    verb_noun_alignment,
)
from attnguide.syntax import SyntaxPairs

from composites import frame_distances, in_box_ratio, kl_sym_oracle
from conftest import (
    DEFAULTS,
    DOG_CAT_BOXES,
    TEMPLATE_PROMPT,
    WOMAN_MAN_BOXES,
    ca_stack,
    mask_set,
    single_pair,
    small_model_config,
    static_two_box_prior,
    tiny_model_config,
)

SEEDS = range(10)


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_equation_identities():
    rng = np.random.default_rng(0)
    worst_gap = 0.0
    for _ in range(100):
        A = rng.uniform(0.01, 1.0, size=(2, 4, 3))
        masks = mask_set(rng.integers(0, 2, size=(2, 2)).astype(float), frames=2)
        fg = loss_fg(ca_stack(A), masks, single_pair(), DEFAULTS).item()
        bg = loss_bg(ca_stack(A), masks, single_pair(), DEFAULTS).item()
        worst_gap = max(worst_gap, abs(fg - bg))

    errs = [worst_gap if worst_gap > 1e-12 else 0.0]

    # fg/bg: uniform attention, half-covering mask -> 0.25 for each tracked token, the
    # noun and its verb
    uniform = np.full((2, 4, 3), 1.0 / 3)
    half = mask_set([[1.0, 1.0], [0.0, 0.0]], frames=2)
    errs.append(abs(loss_fg(ca_stack(uniform), half, single_pair(), DEFAULTS).item() - 0.5))
    errs.append(abs(loss_bg(ca_stack(uniform), half, single_pair(), DEFAULTS).item() - 0.5))

    # weighted spatial loss: default unit weights -> 1.0
    errs.append(abs(loss_sp(ca_stack(uniform), half, single_pair(), DEFAULTS).item() - 1.0))

    # distances match the independent smoothed-KL formula
    p = rng.uniform(0.05, 1.0, size=(2, 4))
    q = rng.uniform(0.05, 1.0, size=(2, 4))
    errs.append(float(np.max(np.abs(frame_distances(p, q, KL_SYM) - kl_sym_oracle(p, q)))))
    A = rng.uniform(0.05, 1.0, size=(2, 4, 3))
    pos_oracle = kl_sym_oracle(A[..., 0], A[..., 1]).mean()
    errs.append(abs(loss_pos(ca_stack(A), (0, 1), DEFAULTS).item() - pos_oracle))

    # contrastive: mirrored negative -> exactly 0.5; four mirrors -> 1/5; the
    # two-pair value is the sum of independently computed per-pair ratios.
    A = rng.uniform(0.05, 1.0, size=(2, 4, 3))
    A[..., 2] = A[..., 1]
    errs.append(abs(loss_syt(ca_stack(A), single_pair(), GuidanceConfig()).item() - 0.5))
    A = rng.uniform(0.05, 1.0, size=(2, 4, 6))
    for u in range(2, 6):
        A[..., u] = A[..., 1]
    five = SyntaxPairs([(0, 1)], frozenset(range(6)))
    errs.append(abs(loss_syt(ca_stack(A), five, GuidanceConfig()).item() - 0.2))
    A = rng.uniform(0.05, 1.0, size=(2, 4, 4))
    two = SyntaxPairs([(0, 1), (2, 3)], frozenset(range(4)))
    expected = 0.0
    for i, j in two.pairs:
        pos = kl_sym_oracle(A[..., i], A[..., j]).mean()
        neg = sum(kl_sym_oracle(A[..., i], A[..., u]).mean()
                  for u in sorted(two.negatives_for((i, j))))
        expected += pos / (pos + neg)
    errs.append(abs(loss_syt(ca_stack(A), two, GuidanceConfig()).item() - expected))

    worst = max(errs)
    _report(1, worst_gap <= 1e-12 and worst <= 1e-9,
            f"fg/bg gap {worst_gap:.2e}, worst oracle error {worst:.2e}")


@pytest.mark.slow
def test_criterion_2_gradient_oracle():
    worst = {"stub": 0.0, "model": 0.0}
    names = set()
    ok = True
    for component, tol in (("stub", 1e-6), ("model", 1e-4)):
        for seed in SEEDS:
            for name, err, _, _ in gradcheck_suites(component, seed):
                names.add(name.split("/")[1])
                worst[component] = max(worst[component], err)
                ok = ok and err <= tol
    ok = ok and names == {"L_fg", "L_bg", "L_sp", "L_pos", "L_neg", "L_syt"}
    _report(2, ok, f"worst stub {worst['stub']:.2e} (tol 1e-6), "
                   f"worst model {worst['model']:.2e} (tol 1e-4), 10 seeds")


def test_criterion_3_schedule_conformance():
    model = ToyDenoiser(ToyModelConfig())
    result = run_guided_sampling(TEMPLATE_PROMPT, static_two_box_prior(8),
                                 GuidanceConfig(), model, seed=0)
    spatial = result.trace.by_loss("spatial")
    syntax = result.trace.by_loss("syntax")
    ok = (len(spatial) == 50 and len(syntax) == 20
          and {r.step for r in spatial} == set(range(1, 6))
          and {r.step for r in syntax} == set(range(6, 26)))
    _report(3, ok, f"{len(spatial)} spatial records in steps "
                   f"{sorted({r.step for r in spatial})}, {len(syntax)} syntax in "
                   f"{min(r.step for r in syntax)}..{max(r.step for r in syntax)}")


@pytest.fixture(scope="module")
def efficacy_runs():
    """Guided vs unguided runs over 10 seeds on the two-subject fixture."""
    model = ToyDenoiser(small_model_config())
    guided_cfg = GuidanceConfig(lambda_syt=120.0)
    free_cfg = GuidanceConfig(lambda_sp=0.0, lambda_syt=0.0)
    prior = static_two_box_prior(model.config.frames)
    runs = []
    for seed in SEEDS:
        guided = run_guided_sampling(TEMPLATE_PROMPT, prior, guided_cfg, model, seed)
        free = run_guided_sampling(TEMPLATE_PROMPT, prior, free_cfg, model, seed)
        runs.append((guided, free))
    return runs


def _mean_in_box(result, step):
    values = result.ca_records[step]
    ratios = [
        in_box_ratio(values, result.masks, noun, f)
        for noun, _ in result.column_pairs.pairs
        for f in range(values.shape[0])
    ]
    return float(np.mean(ratios))


def _mean_alignment(result, step):
    values = result.ca_records[step]
    return float(np.mean([
        verb_noun_alignment(values, pair) for pair in result.column_pairs.pairs
    ]))


@pytest.mark.slow
def test_criterion_4_spatial_efficacy(efficacy_runs):
    ratio_wins, descent_wins = 0, 0
    for guided, free in efficacy_runs:
        if _mean_in_box(guided, 5) > _mean_in_box(free, 5):
            ratio_wins += 1
        spatial = guided.trace.by_loss("spatial")
        if spatial[-1].loss_value < spatial[0].loss_value:
            descent_wins += 1
    ok = ratio_wins >= 8 and descent_wins >= 8
    _report(4, ok, f"in-box wins {ratio_wins}/10, L_sp descent {descent_wins}/10")


@pytest.mark.slow
def test_criterion_5_binding_efficacy(efficacy_runs):
    wins = sum(
        _mean_alignment(guided, 25) < _mean_alignment(free, 25)
        for guided, free in efficacy_runs
    )
    _report(5, wins >= 8, f"alignment wins {wins}/10 at step 25")


def test_criterion_6_parser_fixtures():
    woman_man = parse_llm_boxes(WOMAN_MAN_BOXES)
    dog_cat = parse_llm_boxes(DOG_CAT_BOXES)
    woman_x = [b[0] for b in woman_man.trajectories[0].boxes]
    cat_boxes = dog_cat.trajectories[1].boxes
    velocity = [v for v in validate_trajectories(dog_cat) if v.kind == "VELOCITY"]
    ok = (woman_x == [0, 35, 70, 105, 140, 175, 210, 245]
          and all(b == [350, 200, 80, 60] for b in cat_boxes)
          and woman_man.background_keyword == "room"
          and dog_cat.background_keyword == "garden"
          and parse_llm_boxes(serialize_boxes(woman_man)) == woman_man
          and parse_llm_boxes(serialize_boxes(dog_cat)) == dog_cat
          and len(velocity) == 1 and velocity[0].subject_id == 0
          and velocity[0].frame == 7)
    _report(6, ok, "reference box fixtures parse, round-trip, and flag the dog jump")


def test_criterion_7_noop_and_determinism(monkeypatch):
    latents = []  # the bytes of every step's latent, run after run

    def tap(state, eps, schedule):
        new = ddim_step(state, eps, schedule)
        latents.append(new.z.tobytes())
        return new

    monkeypatch.setattr(guidance, "ddim_step", tap)
    model = ToyDenoiser(tiny_model_config())
    free_cfg = GuidanceConfig(total_steps=12, t1=2, t2=4, lambda_sp=0.0, lambda_syt=0.0)
    prior = static_two_box_prior(2)
    a = run_guided_sampling(TEMPLATE_PROMPT, prior, free_cfg, model, seed=0)
    run_guided_sampling(TEMPLATE_PROMPT, prior, free_cfg, model, seed=0)
    noop_exact = (len(latents) == 24 and latents[:12] == latents[12:]
                  and not a.trace.records)

    guided_cfg = GuidanceConfig(total_steps=12, t1=2, t2=4, iters_spatial_per_step=2)
    g1 = run_guided_sampling(TEMPLATE_PROMPT, prior, guided_cfg, model, seed=0)
    g2 = run_guided_sampling(TEMPLATE_PROMPT, prior, guided_cfg, model, seed=0)
    repro = (g1.final_state.z.tobytes() == g2.final_state.z.tobytes()
             and g1.trace.to_jsonl() == g2.trace.to_jsonl())
    _report(7, noop_exact and repro,
            f"zero-weight runs bit-exact: {noop_exact}, guided reruns byte-equal: {repro}")


@pytest.mark.slow
def test_criterion_8_ablation_harness():
    base = GuidanceConfig()
    mcfg = tiny_model_config(frames=2, latent_h=8, latent_w=8, embed_dim=16)

    def model_factory(capture):
        cfg = mcfg if capture is None else tiny_model_config(
            frames=2, latent_h=8, latent_w=8, embed_dim=16, ca_capture=capture)
        return ToyDenoiser(cfg)

    report = run_ablation(DEFAULT_ABLATION_AXES, base, [0, 1], TEMPLATE_PROMPT,
                          static_two_box_prior(2), model_factory)
    expected_rows = 2 * sum(len(v) for v in DEFAULT_ABLATION_AXES.values())
    by_distance = {
        (r["value"], r["seed"]): r["mean_alignment_t2"]
        for r in report.rows if r["axis"] == "distance"
    }
    kl_wins = sum(
        by_distance[("KL_SYM", s)] <= by_distance[("COSINE", s)] for s in (0, 1)
    )
    ok = len(report.rows) == expected_rows and kl_wins * 2 > 2
    _report(8, ok, f"{len(report.rows)}/{expected_rows} rows, "
                   f"KL_SYM <= COSINE alignment in {kl_wins}/2 seeds")
