"""Seeded benchmark inputs: template prompts and LVD-style box priors.

Prompts follow the two-subject template "a <subject> is <action> and a
<subject> is <action>", with words drawn from the lexicon the package ships.
Box priors are moving 8-frame trajectories in the LVD text form, kept inside
the frame and under the default per-frame step limit of
``validate_trajectories``, so ``attnguide generate`` accepts them without
``--force``.  The same ``random.Random`` state always gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

FRAME_W, FRAME_H = 576, 320   # pixel frame of the box format
FRAMES = 8
BACKGROUNDS = ("garden", "room", "street", "beach", "field", "park")

# Box sizes keep every box over at least one cell centre of a 4x4 grid
# (cells are 144x80 px), so no mask comes out empty on the ablation model.
BOX_W = (150, 240)
BOX_H = (100, 200)
# Per-frame motion; the centre moves at most hypot(32, 12) ~ 34 px < 60 px.
MAX_VX, MAX_VY = 32, 12


@dataclass(frozen=True)
class Scene:
    prompt: str
    boxes_text: str
    sampling_seed: int


def lexicon():
    """(singular subjects, actions) from the shipped lexicon, sorted."""
    text = resources.files("attnguide.data").joinpath("lexicon.txt").read_text()
    section, words = None, {"subjects": set(), "actions": set()}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line.strip("[]")
        elif line and section in words:
            words[section].add(line)
    subjects = words["subjects"]
    plural = {w for w in subjects
              if (w.endswith("s") and w[:-1] in subjects)
              or (w.endswith("men") and w[:-3] + "man" in subjects)}
    return sorted(subjects - plural), sorted(words["actions"])


def _article(word):
    return "an" if word[0] in "aeiou" else "a"


def _trajectory(rng):
    w, h = rng.randint(*BOX_W), rng.randint(*BOX_H)
    vx, vy = rng.randint(-MAX_VX, MAX_VX), rng.randint(-MAX_VY, MAX_VY)
    last = FRAMES - 1
    x0 = rng.randint(max(0, -last * vx), min(FRAME_W - w, FRAME_W - w - last * vx))
    y0 = rng.randint(max(0, -last * vy), min(FRAME_H - h, FRAME_H - h - last * vy))
    return [[x0 + f * vx, y0 + f * vy, w, h] for f in range(FRAMES)]


def make_scene(rng, subjects, actions):
    nouns = rng.sample(subjects, 2)
    verbs = rng.sample(actions, 2)
    prompt = " and ".join(f"{_article(n)} {n} is {v}" for n, v in zip(nouns, verbs))
    trajectories = [_trajectory(rng) for _ in nouns]
    lines = []
    for f in range(FRAMES):
        records = ", ".join(
            "{'id': %d, 'name': '%s %s', 'box': %s}" % (k, verbs[k], nouns[k], traj[f])
            for k, traj in enumerate(trajectories)
        )
        lines.append(f"Frame {f + 1}: [{records}]")
    lines.append(f"Background keyword: {rng.choice(BACKGROUNDS)}")
    return Scene(prompt, "\n".join(lines) + "\n", rng.randrange(1_000_000))
