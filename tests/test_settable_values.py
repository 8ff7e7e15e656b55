"""The number of settable values: every choice the package hands its users.

Counted as ROADMAP counts them: the fields of the two configs, the options of
every CLI subcommand, and the parameters with defaults of the other callables
in `attnguide.__all__`.  A new knob must move these pins on purpose, and so must
a new config field or public name.  Each kind is pinned by name, so a knob that
comes back while another goes fails too.
"""

import argparse
import dataclasses
import inspect

import attnguide
from attnguide.cli import build_parser

CONFIGS = (attnguide.GuidanceConfig, attnguide.ToyModelConfig)


def config_fields():
    return [f"{cls.__name__}.{f.name}" for cls in CONFIGS for f in dataclasses.fields(cls)]


def cli_options():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [f"{name} {action.option_strings[-1]}"
            for name, sub in commands.choices.items() for action in sub._actions
            if action.option_strings and not isinstance(action, argparse._HelpAction)]


def defaulted_parameters():
    return [f"{name}({param.name})"
            for name in attnguide.__all__ if getattr(attnguide, name) not in CONFIGS
            for param in inspect.signature(getattr(attnguide, name)).parameters.values()
            if param.default is not inspect.Parameter.empty]


def test_settable_value_count():
    counts = len(config_fields()), len(cli_options()), len(defaulted_parameters())
    assert counts == (17, 20, 2), (config_fields(), cli_options(), defaulted_parameters())
    assert sum(counts) == 39


def test_config_fields():
    assert config_fields() == [
        "GuidanceConfig.total_steps", "GuidanceConfig.t1", "GuidanceConfig.t2",
        "GuidanceConfig.iters_spatial_per_step", "GuidanceConfig.iters_syntax_per_step",
        "GuidanceConfig.lambda_sp", "GuidanceConfig.lambda_syt", "GuidanceConfig.distance",
        "GuidanceConfig.contrastive_form",
        "ToyModelConfig.frames", "ToyModelConfig.latent_h", "ToyModelConfig.latent_w",
        "ToyModelConfig.levels", "ToyModelConfig.ca_capture", "ToyModelConfig.token_budget",
        "ToyModelConfig.embed_dim", "ToyModelConfig.seed",
    ]


def test_cli_options():
    assert cli_options() == [
        "rasterize --grid", "rasterize --out",
        "generate --out", "generate --force", "generate --seed",
        "generate --config", "generate --model-config", "gradcheck --seed",
        "ablate --grid", "ablate --seeds", "ablate --out", "ablate --prompt", "ablate --boxes",
        "ablate --config", "ablate --model-config",
        "render --token", "render --frame", "render --step", "render --upscale", "render --out",
    ]


def test_defaulted_parameters():
    assert defaulted_parameters() == [
        "Tensor(requires_grad)", "run_ablation(log)",
    ]


def test_losses_take_the_config():
    """The syntax losses read their choices from GuidanceConfig and the mass losses read
    none; no loss has a default of its own."""
    expected = {
        "loss_fg": ["A", "masks", "pairs"],
        "loss_bg": ["A", "masks", "pairs"],
        "loss_sp": ["A", "masks", "pairs"],
        "loss_pos": ["A", "pair", "config"],
        "loss_neg": ["A", "pair", "negatives", "config"],
        "loss_syt": ["A", "pairs", "config"],
    }
    for name, names in expected.items():
        params = list(inspect.signature(getattr(attnguide, name)).parameters.values())
        assert [p.name for p in params] == names
        assert all(p.default is inspect.Parameter.empty for p in params)


def test_public_names():
    assert sorted(attnguide.__all__) == [
        "BoxTrajectory", "GuidanceConfig", "GuidanceTrace", "LatentState",
        "LinearAttentionStub", "MetricsReport", "SpatialPriorSet", "SyntaxPairs", "Tensor",
        "ToyDenoiser", "ToyModelConfig", "count_components", "ddim_schedule", "ddim_step",
        "extract_pairs", "guide_latent", "loss_bg", "loss_fg", "loss_neg",
        "loss_pos", "loss_sp", "loss_syt", "parse_llm_boxes", "rasterize_masks",
        "render_heatmap", "resample_frames", "run_ablation", "run_guided_sampling",
        "serialize_boxes", "tokenize", "validate_trajectories", "verb_noun_alignment",
    ]
