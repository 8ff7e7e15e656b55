"""Property tests: box text and JSON forms agree, and config files round-trip."""

import json
import string
from dataclasses import fields

from hypothesis import example, given, settings
from hypothesis import strategies as st

from attnguide.boxes import (
    DEFAULT_FRAME_H,
    DEFAULT_FRAME_W,
    BoxTrajectory,
    SpatialPriorSet,
    load_structured_boxes,
    parse_llm_boxes,
    serialize_boxes,
)
from attnguide.denoiser import ToyModelConfig
from attnguide.guidance import COSINE, KL_FWD, KL_SYM, RATIO, SUM, GuidanceConfig

backgrounds = st.text(alphabet=string.ascii_letters + " ", min_size=1).map(str.strip).filter(bool)


@st.composite
def in_frame_box(draw):
    x = draw(st.integers(0, DEFAULT_FRAME_W))
    y = draw(st.integers(0, DEFAULT_FRAME_H))
    w, h = draw(st.integers(0, DEFAULT_FRAME_W - x)), draw(st.integers(0, DEFAULT_FRAME_H - y))
    return [x, y, w, h]


any_box = st.lists(st.integers(-1000, 1000), min_size=4, max_size=4)


@st.composite
def priors(draw, names=st.text(max_size=12), box=in_frame_box()):
    frames = draw(st.integers(1, 4))
    ids = draw(st.lists(st.integers(0, 99), min_size=1, max_size=3, unique=True))
    return SpatialPriorSet(
        frame_count=frames,
        trajectories=[
            BoxTrajectory(sid, draw(names), [draw(box) for _ in range(frames)]) for sid in ids
        ],
        background_keyword=draw(backgrounds),
    )


@settings(deadline=None)
@given(priors(), st.text(max_size=12))
@example(SpatialPriorSet(frame_count=1, trajectories=[BoxTrajectory(0, "x", [[0, 0, 9, 9]])],
                         background_keyword="room"), "man's dog")
@example(SpatialPriorSet(frame_count=1, trajectories=[BoxTrajectory(0, "x", [[0, 0, 9, 9]])],
                         background_keyword="room"), "a\\b")
def test_text_round_trip_any_name(prior, name):
    prior.trajectories[0].name = name
    parsed = parse_llm_boxes(serialize_boxes(prior))
    assert parsed == prior
    assert parse_llm_boxes(serialize_boxes(parsed)) == parsed


@settings(deadline=None)
@given(priors(box=any_box))
def test_json_load_equals_text_load(prior):
    structured = json.dumps({
        "frame_size": [DEFAULT_FRAME_W, DEFAULT_FRAME_H],
        "frames": [
            [{"id": t.subject_id, "name": t.name, "box": t.boxes[f]} for t in prior.trajectories]
            for f in range(prior.frame_count)
        ],
        "background": prior.background_keyword,
    })
    assert load_structured_boxes(structured) == parse_llm_boxes(serialize_boxes(prior))


def _config_text(cfg):
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ", ".join(f"{tag}:{grid}" for tag, grid in value)
        text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


@st.composite
def model_configs(draw):
    positive = st.integers(1, 10**6)
    tags = draw(st.lists(st.text(string.ascii_lowercase, min_size=1, max_size=5),
                         min_size=1, max_size=4, unique=True))
    levels = tuple((tag, draw(st.integers(1, 64))) for tag in tags)
    latent = st.integers(max(g for _, g in levels), 10**6)  # no grid exceeds the latent
    return ToyModelConfig(
        frames=draw(positive), latent_h=draw(latent), latent_w=draw(latent),
        latent_channels=draw(positive),
        levels=levels,
        ca_capture=draw(st.sampled_from(tags)), token_budget=draw(positive),
        embed_dim=draw(positive), heads=draw(positive), total_steps=draw(positive),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@st.composite
def guidance_configs(draw):
    total = draw(st.integers(0, 1000))
    t2 = draw(st.integers(0, total))
    weight = st.floats(0.0, 1e6)
    positive = st.floats(0.0, 1e6, exclude_min=True)
    return GuidanceConfig(
        total_steps=total, t1=draw(st.integers(0, t2)), t2=t2,
        iters_spatial_per_step=draw(st.integers(0, 100)),
        iters_syntax_per_step=draw(st.integers(0, 100)),
        lambda_fg=draw(weight), lambda_bg=draw(weight), lambda_sp=draw(weight),
        lambda_syt=draw(weight), alpha=draw(positive), eps=draw(positive),
        distance=draw(st.sampled_from([KL_SYM, KL_FWD, COSINE])),
        contrastive_form=draw(st.sampled_from([RATIO, SUM])),
        apply_spatial_to_verbs=draw(st.booleans()), neg_includes_verb=draw(st.booleans()),
        negatives_exclude_other_pairs=draw(st.booleans()),
    )


@settings(deadline=None)
@given(st.one_of(model_configs(), guidance_configs()))
def test_config_file_round_trip(tmp_path_factory, cfg):
    path = tmp_path_factory.mktemp("cfg") / "config.txt"
    path.write_text(_config_text(cfg))
    assert type(cfg).from_file(path) == cfg
