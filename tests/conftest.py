import numpy as np
import pytest

from attnguide.autodiff import Tensor
from attnguide.boxes import static_two_box_prior  # noqa: F401  (shared by the tests)
from attnguide.denoiser import ToyModelConfig
from attnguide.guidance import GuidanceConfig
from attnguide.syntax import SyntaxPairs

# First in-context example of the box-generator prompt (woman/man, 8 frames).
WOMAN_MAN_BOXES = """\
Caption: A woman walking from the left to the right and a man jumping on the right in a room
Reasoning: A woman is walking from the left to the right so her x-coordinate should increase.
Frame 1: [{'id': 0, 'name': 'walking woman', 'box': [0, 70, 120, 200]}, {'id': 1, 'name': 'jumping man', 'box': [380, 120, 120, 180]}]
Frame 2: [{'id': 0, 'name': 'walking woman', 'box': [35, 70, 120, 200]}, {'id': 1, 'name': 'jumping man', 'box': [380, 70, 120, 200]}]
Frame 3: [{'id': 0, 'name': 'walking woman', 'box': [70, 70, 120, 200]}, {'id': 1, 'name': 'jumping man', 'box': [380, 30, 120, 200]}]
Frame 4: [{'id': 0, 'name': 'walking woman', 'box': [105, 70, 120, 200]}, {'id': 1, 'name': 'jumping man', 'box': [380, 5, 120, 200]}]
Frame 5: [{'id': 0, 'name': 'walking woman', 'box': [140, 70, 120, 200]}, {'id': 1, 'name': 'jumping man', 'box': [380, 5, 120, 200]}]
Frame 6: [{'id': 0, 'name': 'walking woman', 'box': [175, 70, 120, 200]}, {'id': 1, 'name': 'jumping man', 'box': [380, 30, 120, 200]}]
Frame 7: [{'id': 0, 'name': 'walking woman', 'box': [210, 70, 120, 200]}, {'id': 1, 'name': 'jumping man', 'box': [380, 70, 120, 200]}]
Frame 8: [{'id': 0, 'name': 'walking woman', 'box': [245, 70, 120, 200]}, {'id': 1, 'name': 'jumping man', 'box': [380, 120, 120, 180]}]
Background keyword: room
"""

# Second in-context example (running dog / sitting cat, 8 frames).
DOG_CAT_BOXES = """\
Caption: A dog is running and a cat is sitting
Reasoning: The dog is running, so its position should change across frames.
Frame 1: [{'id': 0, 'name': 'running dog', 'box': [50, 80, 120, 100]}, {'id': 1, 'name': 'sitting cat', 'box': [350, 200, 80, 60]}]
Frame 2: [{'id': 0, 'name': 'running dog', 'box': [85, 80, 120, 100]}, {'id': 1, 'name': 'sitting cat', 'box': [350, 200, 80, 60]}]
Frame 3: [{'id': 0, 'name': 'running dog', 'box': [120, 80, 120, 100]}, {'id': 1, 'name': 'sitting cat', 'box': [350, 200, 80, 60]}]
Frame 4: [{'id': 0, 'name': 'running dog', 'box': [155, 80, 120, 100]}, {'id': 1, 'name': 'sitting cat', 'box': [350, 200, 80, 60]}]
Frame 5: [{'id': 0, 'name': 'running dog', 'box': [190, 80, 120, 100]}, {'id': 1, 'name': 'sitting cat', 'box': [350, 200, 80, 60]}]
Frame 6: [{'id': 0, 'name': 'running dog', 'box': [225, 80, 120, 100]}, {'id': 1, 'name': 'sitting cat', 'box': [350, 200, 80, 60]}]
Frame 7: [{'id': 0, 'name': 'running dog', 'box': [260, 80, 120, 100]}, {'id': 1, 'name': 'sitting cat', 'box': [350, 200, 80, 60]}]
Frame 8: [{'id': 0, 'name': 'running dog', 'box': [385, 80, 120, 100]}, {'id': 1, 'name': 'sitting cat', 'box': [350, 200, 80, 60]}]
Background keyword: garden
"""

TEMPLATE_PROMPT = "a man is walking and a dog is running"

# The woman/man coordinates with boxes named for TEMPLATE_PROMPT's subjects, which bind by
# name to the columns that positional binding gives WOMAN_MAN_BOXES.
MAN_DOG_BOXES = WOMAN_MAN_BOXES.replace("walking woman", "walking man").replace(
    "jumping man", "running dog")


# The `ablate` and `gradcheck` CLI models.
ABLATE_MODEL = dict(frames=2, latent_h=8, latent_w=8,
                    levels=(("down", 4), ("mid", 2), ("up", 4)), embed_dim=16)
GRADCHECK_MODEL = dict(frames=2, latent_h=4, latent_w=4,
                       levels=(("down", 4), ("mid", 2), ("up", 4)), token_budget=8, embed_dim=8)


def tiny_model_config(**overrides):
    kwargs = dict(
        frames=2, latent_h=4, latent_w=4,
        levels=(("down", 4), ("mid", 2), ("up", 4)),
        token_budget=16, embed_dim=8, seed=0,
    )
    kwargs.update(overrides)
    return ToyModelConfig(**kwargs)


def small_model_config(**overrides):
    kwargs = dict(
        frames=4, latent_h=8, latent_w=8,
        levels=(("down", 4), ("mid", 2), ("up", 4)),
        token_budget=16, embed_dim=16, seed=0,
    )
    kwargs.update(overrides)
    return ToyModelConfig(**kwargs)


DEFAULTS = GuidanceConfig()


def ca_stack(A):
    """CA values [F, N, L] as a graph leaf."""
    return Tensor(np.asarray(A, dtype=float))


def single_pair():
    """Token 0 is a noun, 1 its verb, 2 a negative."""
    return SyntaxPairs([(0, 1)], frozenset({0, 1, 2}))


def mask_set(mask, frames, key=0):
    """One [grid_h, grid_w] mask repeated over `frames`, under `key`."""
    mask = np.asarray(mask, dtype=float)
    return {key: np.stack([mask] * frames)}


def same_bytes(a, b):
    """Whether two arrays have one shape, one dtype and the same bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def attention_values(rng, shape, zeros=0.1):
    """Positive maps with some exact zeros and a wide spread of magnitudes."""
    vals = rng.uniform(0.0, 1.0, shape) ** 3 * 10.0 ** rng.uniform(-3, 3)
    vals[rng.random(shape) < zeros] = 0.0
    vals[..., 0, :] = rng.uniform(0.1, 1.0, vals[..., 0, :].shape)  # no all-zero map
    return vals


def random_masks(rng, keys, frames, grid, fractional):
    """Per key, [frames, grid, grid] masks: uniform draws, or those draws below 0.5 as 0/1."""
    masks = {}
    for key in keys:
        stack = []
        for f in range(frames):
            m = rng.uniform(0.0, 1.0, (grid, grid))
            stack.append(m if fractional else (m < 0.5).astype(np.float64))
        masks[key] = np.stack(stack)
    return masks


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
