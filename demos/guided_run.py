"""Walkthrough: one guided sampling run end to end.

A two-clause prompt is parsed into noun/verb pairs, static left/right boxes
become attention masks, and the sampler alternates gradient steps on the
latent with DDIM updates: a spatial phase (steps 1..t1) pulls each noun's
attention into its box, then a syntax phase (steps t1+1..t2) pulls each
verb's map toward its noun's.

Run with:  python3 demos/guided_run.py
"""

from dataclasses import replace

import numpy as np

from attnguide import (
    BoxTrajectory,
    GuidanceConfig,
    SpatialPriorSet,
    ToyDenoiser,
    ToyModelConfig,
    run_guided_sampling,
)
from attnguide.metrics import summarize_run
from attnguide.syntax import extract_pairs, tokenize

PROMPT = "a man is walking and a dog is running"


def main():
    tokens = tokenize(PROMPT)
    pairs = extract_pairs(tokens)
    print(f"prompt: {PROMPT!r}")
    for noun, verb in pairs.pairs:
        print(f"  pair: {tokens[noun]} / {tokens[verb]} "
              f"(negatives: {sorted(pairs.negatives_for((noun, verb)))})")

    # A small model keeps the demo quick; the defaults mirror a 16x16 latent.
    model = ToyDenoiser(ToyModelConfig(
        frames=4, latent_h=8, latent_w=8,
        levels=(("down", 4), ("mid", 2), ("up", 4)), embed_dim=16,
    ))
    frames = model.config.frames
    prior = SpatialPriorSet(
        frame_count=frames,
        trajectories=[
            BoxTrajectory(0, "man", [[0, 0, 288, 320]] * frames),
            BoxTrajectory(1, "dog", [[288, 0, 288, 320]] * frames),
        ],
        background_keyword="plain",
    )

    # Spatial steps 1-5 (x10 iterations), syntax steps 6-25 (x1).  The syntax
    # weight is raised above its default: this tiny random-weight model needs
    # a stronger pull than a trained UNet for the alignment gain to show.
    config = GuidanceConfig(lambda_syt=120.0)
    guided = run_guided_sampling(PROMPT, prior, config, model, seed=0)
    free = run_guided_sampling(
        PROMPT, prior, replace(config, lambda_sp=0.0, lambda_syt=0.0),
        model, seed=0,
    )

    print(f"\nguidance records: {len(guided.trace.records)} "
          f"(spatial {len(guided.trace.by_loss('spatial'))}, "
          f"syntax {len(guided.trace.by_loss('syntax'))})")
    first, last = guided.trace.by_loss("spatial")[0], guided.trace.by_loss("spatial")[-1]
    print(f"L_sp: {first.loss_value:.4f} (step 1, iter 1) -> "
          f"{last.loss_value:.4f} (step 5, iter {last.iteration})")

    print("\nproxy metrics (guided vs unguided):")
    g, f = summarize_run(guided), summarize_run(free)
    for key in sorted(set(g) & set(f)):
        print(f"  {key:28s} {g[key]:8.4f} vs {f[key]:8.4f}")

    drift = float(np.sqrt(((guided.final_state.z - free.final_state.z) ** 2).sum()))
    print(f"\nfinal-latent L2 distance guided vs unguided: {drift:.3f}")


if __name__ == "__main__":
    main()
