"""Property tests: every box file that loads round-trips, the box commands, and `generate`
and `ablate` with drawn config files, end in exit 0 or one ERROR line, config files
round-trip, the component count agrees with scipy's labeller, and the batched losses give
the composite chains' bytes."""

import contextlib
import io
import string
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import composites
from attnguide import guidance, syntax
from attnguide.autodiff import Tensor
from attnguide.boxes import (
    FRAME_H,
    FRAME_W,
    BoxTrajectory,
    SpatialPriorSet,
    parse_llm_boxes,
    serialize_boxes,
)
from attnguide.cli import main
from attnguide.denoiser import MODEL_CAPS, ToyModelConfig
from attnguide.errors import AttnGuideError, BoxParseError, InputError
from attnguide.guidance import (
    COSINE,
    KL_SYM,
    MAX_ITERS_PER_STEP,
    MAX_TOTAL_STEPS,
    RATIO,
    SUM,
    GuidanceConfig,
)
from attnguide.metrics import count_components
from attnguide.syntax import SyntaxPairs, extract_pairs, tokenize

from conftest import (
    TEMPLATE_PROMPT,
    WOMAN_MAN_BOXES,
    attention_values,
    random_masks,
    same_bytes,
)

backgrounds = st.text(alphabet=string.ascii_letters + " ", min_size=1).map(str.strip).filter(bool)


@st.composite
def in_frame_box(draw):
    x = draw(st.integers(0, FRAME_W))
    y = draw(st.integers(0, FRAME_H))
    w, h = draw(st.integers(0, FRAME_W - x)), draw(st.integers(0, FRAME_H - y))
    return [x, y, w, h]


# Four integers that may put a box partly or wholly outside the frame.
any_box = st.lists(st.integers(-100, FRAME_W + 100), min_size=4, max_size=4)


@st.composite
def priors(draw, names=st.text(max_size=12), boxes=in_frame_box()):
    frames = draw(st.integers(1, 4))
    ids = draw(st.lists(st.integers(0, 99), min_size=1, max_size=3, unique=True))
    return SpatialPriorSet(
        frame_count=frames,
        trajectories=[
            BoxTrajectory(sid, draw(names), [draw(boxes) for _ in range(frames)])
            for sid in ids
        ],
        background_keyword=draw(backgrounds),
    )


@pytest.mark.slow
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


@given(priors(names=st.just("s"), boxes=any_box))
def test_code_built_prior_round_trips(prior):
    """A prior made in code holds its boxes clipped, so the text it writes reads back to it."""
    assert parse_llm_boxes(serialize_boxes(prior)).trajectories == prior.trajectories


# A box-file number as Python-literal text.  The odd ones are huge and many-digit
# integers (past the 4,300 digits int() converts), integral and non-finite floats,
# booleans, strings and None.
MANY_DIGITS = "1" * 5000
plain_numbers = st.integers(-50, 700).map(str)
odd_numbers = st.sampled_from([str(10**400), str(-2**64), MANY_DIGITS, "320.0", "1e3", "1e400",
                               "nan", "True", "False", "'5'", "None"])


@st.composite
def box_files(draw):
    """A box file with the same subject ids in every frame, where a drawn share of the
    numbers is odd, of the keys left out, of the later frames' subject names changed, of
    the backgrounds empty or holding a line break, and of the frame indices repeated,
    skipped or many digits long."""
    rare = draw(st.sampled_from([0, 5, 30]))  # percent

    def odd():
        return draw(st.integers(0, 99)) < rare

    def number():
        return draw(odd_numbers if odd() else plain_numbers)

    def record(sid, name):
        fields = {"id": sid, "name": repr(name),
                  "box": "[" + ", ".join(number() for _ in range(4)) + "]"}
        return "{" + ", ".join(f"{k!r}: {v}" for k, v in fields.items() if not odd()) + "}"

    subjects = [(number(), draw(st.text(alphabet="ab '\"\\", max_size=6)))
                for _ in range(draw(st.integers(1, 2)))]
    frames = ["[" + ", ".join(record(sid, name + "b" if k and odd() else name)
                              for sid, name in subjects) + "]"
              for k in range(draw(st.integers(1, 3)))]
    background = draw(st.sampled_from(["", " ", "a\nb", "a\rb", "a\x1cb"])) if odd() \
        else "garden"
    index = st.one_of(st.integers(0, 4).map(str), st.sampled_from([str(10**400), MANY_DIGITS]))
    lines = [f"Frame {draw(index) if odd() else k}: {frame}"
             for k, frame in enumerate(frames, start=1)]
    return "\n".join(lines + [f"Background keyword: {background}"] * (not odd())) + "\n"


@pytest.mark.slow
@settings(deadline=None, max_examples=150)
@given(box_files())
def test_box_commands_exit_0_or_one_error_line(tmp_path_factory, text):
    """parse-boxes, validate-boxes and rasterize end in exit 0, or exit 2 and one ERROR line."""
    path = tmp_path_factory.mktemp("boxes") / "boxes.txt"
    path.write_text(text)
    for argv in (["parse-boxes", path], ["validate-boxes", path],
                 ["rasterize", path, "--grid", "4x4"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([str(a) for a in argv])
        errors = [ln for ln in out.getvalue().splitlines() if ln.startswith("ERROR")]
        assert (code, len(errors)) in ((0, 0), (2, 1)), (argv[0], code, errors)


@settings(deadline=None, max_examples=150)
@given(box_files())
@example("Frame 1: [{'id': 0, 'name': 'a', 'box': [600, 100, 300, 300]}]\n"
         "Background keyword: garden\n")
def test_box_files_that_load_round_trip(text):
    """A box file that loads prints as text that loads back to the same prior, with no load
    warning: its boxes already lie in the one frame."""
    try:
        prior = parse_llm_boxes(text)
    except BoxParseError:
        return
    assert parse_llm_boxes(serialize_boxes(prior)) == replace(prior)  # no load warnings


PROMPT_WORDS = sorted(syntax._SUBJECTS | syntax._ACTIONS | syntax._ARTICLES | syntax._COPULAS) \
    + ["and", "tall", "with", "hat", "quickly", "xyzzy", ",", "--"]


@st.composite
def prompts(draw):
    """Lexicon subjects and actions, articles, copulas, "and", punctuation and a few words
    outside the lexicon, each word perhaps with punctuation attached."""
    marks = st.sampled_from(["", "", "", ",", ".", "!", "'s"])
    return " ".join(draw(st.sampled_from(PROMPT_WORDS)) + draw(marks)
                    for _ in range(draw(st.integers(0, 12))))


@settings(deadline=None, max_examples=300)
@given(prompts())
@example("a man is")  # clauses that end at their copula
@example("a man is walking and a dog is")
def test_prompts_give_pairs_or_one_parse_error(prompt):
    """extract_pairs raises only InputErrors; parse-prompt exits 0 with no ERROR line, or
    exits 2 with one `ERROR kind=parse` line and nothing else."""
    with contextlib.suppress(InputError):
        extract_pairs(tokenize(prompt))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["parse-prompt", prompt])
    lines = out.getvalue().splitlines()
    if code == 0:
        assert not any(ln.startswith("ERROR") for ln in lines)
    else:
        assert code == 2 and len(lines) == 1 and lines[0].startswith("ERROR kind=parse "), lines


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(st.sampled_from(sorted(syntax._SUBJECTS)),
                          st.sampled_from(sorted(syntax._ACTIONS))), min_size=1, max_size=4),
       st.lists(st.sampled_from([", ", " and ", ". "]), min_size=3, max_size=3))
@example([("man", "walking"), ("dog", "running"), ("bird", "flying")], [", ", " and ", ". "])
def test_joined_template_clauses_give_one_pair_each(clauses, separators):
    """k template clauses joined by ", ", " and " or ". " give k pairs, the k-th of them the
    k-th clause's subject and action (no lexicon subject reads as an action)."""
    prompt = "".join(("" if k == 0 else separators[k - 1])
                     + f"{'an' if subject[0] in 'aeiou' else 'a'} {subject} is {action}"
                     for k, (subject, action) in enumerate(clauses))
    tokens = tokenize(prompt)
    assert [(tokens[n], tokens[v]) for n, v in extract_pairs(tokens).pairs] == clauses


MALFORMED = ["abc", "nan", "inf", "", MANY_DIGITS]


@st.composite
def config_files(draw):
    """A guidance and a model config file that set every field, where a drawn share of
    the values is out of range (0, -1, cap + 1, 10**20) or malformed text, and of the
    files repeats a key or adds an unknown one.

    The valid values keep the model at 1 or 2 frames of 4x4 latents, `total_steps` at
    most 6 and the iteration counts at most 2, which bounds each run."""
    rare = draw(st.sampled_from([0, 5, 30]))  # percent

    def odd():
        return draw(st.integers(0, 99)) < rare

    def value(valid, cap=None):
        if not odd():
            return str(valid)
        numbers = [0, -1] + ([] if cap is None else [cap + 1]) + [10**20]
        return str(draw(st.sampled_from(numbers))) if draw(st.booleans()) \
            else draw(st.sampled_from(MALFORMED))

    total = draw(st.integers(1, 6))
    t2 = draw(st.integers(0, total))
    count = st.integers(0, 2)
    guide = {
        "total_steps": value(total, MAX_TOTAL_STEPS), "t1": value(draw(st.integers(0, t2))),
        "t2": value(t2),
        "iters_spatial_per_step": value(draw(count), MAX_ITERS_PER_STEP),
        "iters_syntax_per_step": value(draw(count), MAX_ITERS_PER_STEP),
        "lambda_sp": value(draw(st.sampled_from([0.0, 1.0, 30.0]))),
        "lambda_syt": value(draw(st.sampled_from([0.0, 1.0, 20.0]))),
        "distance": value(draw(st.sampled_from([KL_SYM, COSINE]))),
        "contrastive_form": value(draw(st.sampled_from([RATIO, SUM]))),
    }
    levels, capture = draw(st.sampled_from([("down:4, mid:2, up:4", "down+up"),
                                            ("down:4, mid:2, up:4", "mid"),
                                            ("down:2, up:2", "up"), ("mid:1", "mid")]))
    model = {
        "frames": value(draw(st.integers(1, 2)), MODEL_CAPS["frames"]),
        "latent_h": value(4, MODEL_CAPS["latent_h"]), "latent_w": value(4, MODEL_CAPS["latent_w"]),
        "levels": levels if not odd() else f"down:{value(4, MODEL_CAPS['latent_h'])}",
        "ca_capture": value(capture),
        "token_budget": value(draw(st.integers(11, 16)), MODEL_CAPS["token_budget"]),
        "embed_dim": value(draw(st.integers(1, 8)), MODEL_CAPS["embed_dim"]),
        "seed": value(draw(st.integers(0, 3))),
    }

    def text(settings):
        lines = [f"{key} = {v}" for key, v in settings.items()]
        if odd():
            lines.append(draw(st.sampled_from(lines)))
        if odd():
            lines.append("lambda_fg = 1.0")
        return "\n".join(draw(st.permutations(lines))) + "\n"

    return text(guide), text(model)


def _run_with_config_files(tmp, files, argv, codes=(0, 2, 3)):
    """`main(argv + the config options)` with the drawn files written to `tmp`: exit 0, or
    an error exit of `codes` with one ERROR line and no `tmp / "out"`.  No warning filter:
    a Python warning that escapes the run's own warning list is an error."""
    for name, text in zip(("guide.cfg", "model.cfg"), files):
        (tmp / name).write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--out", str(tmp / "out"), "--config", str(tmp / "guide.cfg"),
                            "--model-config", str(tmp / "model.cfg")])
    errors = [ln for ln in out.getvalue().splitlines() if ln.startswith("ERROR")]
    assert code in codes and len(errors) == (code != 0), (code, errors)
    assert code == 0 or not (tmp / "out").exists()


@pytest.mark.slow
@settings(deadline=None, max_examples=100)
@given(config_files())
def test_generate_config_files_exit_0_or_one_error_line(tmp_path_factory, files):
    """`generate` with drawn config files ends in exit 0, or in exit 2 or 3 with one ERROR
    line and no --out."""
    tmp = tmp_path_factory.mktemp("configs")
    (tmp / "boxes.txt").write_text(WOMAN_MAN_BOXES)
    _run_with_config_files(tmp, files, ["generate", TEMPLATE_PROMPT, str(tmp / "boxes.txt")])


@pytest.mark.slow
@settings(deadline=None, max_examples=100)
@given(config_files())
def test_ablate_config_files_exit_0_or_one_error_line(tmp_path_factory, files):
    """`ablate --seeds 0` with drawn config files ends in exit 0, or in exit 2 with one ERROR
    line and no --out: a run's numeric failure is a row, not the sweep's end."""
    _run_with_config_files(tmp_path_factory.mktemp("configs"), files,
                           ["ablate", "--seeds", "0"], codes=(0, 2))


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
    def size(name, low=1):  # any accepted size
        return draw(st.integers(low, MODEL_CAPS[name]))

    tags = draw(st.lists(st.text(string.ascii_lowercase, min_size=1, max_size=5),
                         min_size=1, max_size=4, unique=True))
    levels = tuple((tag, draw(st.integers(1, 64))) for tag in tags)
    grid = max(g for _, g in levels)  # no grid exceeds the latent
    return ToyModelConfig(
        frames=size("frames"), latent_h=size("latent_h", grid), latent_w=size("latent_w", grid),
        levels=levels,
        ca_capture=draw(st.sampled_from(tags)), token_budget=size("token_budget"),
        embed_dim=size("embed_dim"),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@st.composite
def guidance_configs(draw):
    total = draw(st.integers(1, MAX_TOTAL_STEPS))
    t2 = draw(st.integers(0, total))
    weight = st.floats(0.0, 1e6)
    return GuidanceConfig(
        total_steps=total, t1=draw(st.integers(0, t2)), t2=t2,
        iters_spatial_per_step=draw(st.integers(0, MAX_ITERS_PER_STEP)),
        iters_syntax_per_step=draw(st.integers(0, MAX_ITERS_PER_STEP)),
        lambda_sp=draw(weight), lambda_syt=draw(weight),
        distance=draw(st.sampled_from([KL_SYM, COSINE])),
        contrastive_form=draw(st.sampled_from([RATIO, SUM])),
    )


@settings(deadline=None)
@given(st.one_of(model_configs(), guidance_configs()))
def test_config_file_round_trip(tmp_path_factory, cfg):
    path = tmp_path_factory.mktemp("cfg") / "config.txt"
    path.write_text(_config_text(cfg))
    assert type(cfg).from_file(path) == cfg


@pytest.fixture(scope="module")
def ndimage():
    return pytest.importorskip("scipy.ndimage")


@st.composite
def square_maps(draw):
    """Maps of side 1-16, either of a few levels or of floats in [0, 1].

    Levels are multiples of one scale, so a level of half the max ties with the
    threshold exactly, and a single level makes a constant map.
    """
    side = draw(st.integers(1, 16))
    if draw(st.booleans()):
        low, levels = draw(st.integers(0, 2)), draw(st.integers(1, 4))
        scale = draw(st.sampled_from([1.0, 0.1, 3e-5, 7.0]))
        steps = draw(arrays(np.int64, (side, side), elements=st.integers(low, low + levels - 1)))
        return steps * scale
    return draw(arrays(np.float64, (side, side), elements=st.floats(0.0, 1.0)))


@settings(deadline=None, max_examples=300)
@given(square_maps())
@example(np.full((5, 5), 0.7))
@example(np.zeros((1, 1)))
@example(np.array([[1.0, 0.5], [0.5, 0.25]]))
def test_count_components_matches_scipy_label(ndimage, grid):
    """4-connected components of the map at or above half its max, as scipy labels them."""
    _, expected = ndimage.label(grid >= 0.5 * grid.max())
    assert count_components(grid.reshape(1, grid.size, 1), 0, 0) == expected


@st.composite
def loss_scenes(draw):
    """CA values [F, N, L] with masks for 1-3 pairs over a drawn set of token columns, so
    that a pair's negatives hold the other pairs' nouns and verbs, or nothing at all."""
    frames, grid = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    columns = draw(st.integers(3, 9))
    order = draw(st.permutations(range(columns)))
    n_pairs = draw(st.integers(1, columns // 2 if columns < 7 else 3))
    pairs = [(order[2 * k], order[2 * k + 1]) for k in range(n_pairs)]
    tokens = frozenset(draw(st.sets(st.sampled_from(range(columns)))) | {*sum(pairs, ())})
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = attention_values(rng, (frames, grid * grid, columns),
                            zeros=draw(st.sampled_from([0.0, 0.2])))
    masks = random_masks(rng, [noun for noun, _ in pairs], frames, grid, draw(st.booleans()))
    config = GuidanceConfig(distance=draw(st.sampled_from([KL_SYM, COSINE])),
                            contrastive_form=draw(st.sampled_from([RATIO, SUM])))
    return vals, SyntaxPairs(pairs, tokens), masks, config


def _value_and_grad(loss_fn, vals):
    """(value, A's gradient) of a loss, or the type and message of the error it raises."""
    A = Tensor(vals, requires_grad=True)
    try:
        loss = loss_fn(A)
        loss.backward()
    except AttnGuideError as exc:
        return type(exc), str(exc)
    return loss.data, A.grad


@pytest.mark.slow
@settings(deadline=None, max_examples=150)
@given(loss_scenes())
def test_batched_losses_match_composite_chains(scene):
    """All six losses against the chains of primitive ops, byte for byte in value and gradient."""
    vals, pairs, masks, config = scene
    pair = pairs.pairs[0]
    negs = pairs.negatives_for(pair)
    kind, eps, dist, mass = config.distance, guidance.EPS, composites.composite_dist, \
        composites.composite_mass_term
    cases = [
        (lambda A: guidance.loss_fg(A, masks, pairs),
         lambda A: composites.loss_fg(A, masks, pairs, mass_term=mass)),
        (lambda A: guidance.loss_bg(A, masks, pairs),
         lambda A: composites.loss_bg(A, masks, pairs, mass_term=mass)),
        (lambda A: guidance.loss_sp(A, masks, pairs),
         lambda A: composites.loss_sp(A, masks, pairs, mass)),
        (lambda A: guidance.loss_pos(A, pair, config),
         lambda A: composites.loss_pos(A, pair, kind, eps, dist)),
        (lambda A: guidance.loss_neg(A, pair, negs, config),
         lambda A: composites.loss_neg(A, pair, negs, kind, eps, dist)),
        (lambda A: guidance.loss_syt(A, pairs, config),
         lambda A: composites.loss_syt(A, pairs, config, dist)),
    ]
    for fused_fn, composite_fn in cases:
        fused, composite = _value_and_grad(fused_fn, vals), _value_and_grad(composite_fn, vals)
        if isinstance(composite[0], type):
            assert fused == composite
        else:
            assert same_bytes(fused[0], composite[0]) and same_bytes(fused[1], composite[1])
