"""attnguide: inference-time cross-attention guidance on a toy video denoiser."""

__version__ = "0.1.0"

from .autodiff import Tensor
from .boxes import (
    BoxTrajectory,
    SpatialPriorSet,
    parse_llm_boxes,
    rasterize_masks,
    resample_frames,
    serialize_boxes,
    validate_trajectories,
)
from .denoiser import (
    LatentState,
    LinearAttentionStub,
    ToyDenoiser,
    ToyModelConfig,
    ddim_schedule,
    ddim_step,
)
from .guidance import (
    GuidanceConfig,
    GuidanceTrace,
    guide_latent,
    loss_bg,
    loss_fg,
    loss_neg,
    loss_pos,
    loss_sp,
    loss_syt,
    run_guided_sampling,
)
from .metrics import (
    MetricsReport,
    count_components,
    render_heatmap,
    run_ablation,
    verb_noun_alignment,
)
from .syntax import SyntaxPairs, Token, extract_pairs, tokenize

__all__ = [
    "Tensor",
    "BoxTrajectory", "SpatialPriorSet", "parse_llm_boxes", "rasterize_masks",
    "resample_frames", "serialize_boxes", "validate_trajectories",
    "LatentState", "LinearAttentionStub",
    "ToyDenoiser", "ToyModelConfig", "ddim_schedule", "ddim_step",
    "GuidanceConfig", "GuidanceTrace", "guide_latent",
    "loss_bg", "loss_fg", "loss_neg", "loss_pos", "loss_sp", "loss_syt",
    "run_guided_sampling",
    "MetricsReport", "count_components", "render_heatmap",
    "run_ablation", "verb_noun_alignment",
    "SyntaxPairs", "Token", "extract_pairs", "tokenize",
]
