"""The benchmark tracer's hold on the package, checked on one tiny guided run.

`benchmarks/tracer.py` rebinds package functions and `Tensor.__init__` /
`Tensor.backward`, and walks a loss's `_parents`.  A refactor that renames or
moves any of these leaves `--trace 1` blind, so the tracer runs here as the
benchmark loads it: from its path, unedited.
"""

import importlib.util
from pathlib import Path

import attnguide.guidance
from attnguide.denoiser import ToyDenoiser
from attnguide.guidance import GuidanceConfig

from conftest import TEMPLATE_PROMPT, static_two_box_prior, tiny_model_config

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_layer_and_three_node_graphs():
    bench = load_tracer()
    model = ToyDenoiser(tiny_model_config())
    config = GuidanceConfig(total_steps=6, t1=2, t2=4, iters_spatial_per_step=2)
    original = attnguide.guidance.loss_sp
    tracer = bench.Tracer()
    tracer.install()
    try:
        tracer.item = 0
        # Through the module, whose attribute the tracer rebinds.
        attnguide.guidance.run_guided_sampling(TEMPLATE_PROMPT, static_two_box_prior(2), config,
                                               model, 0)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    metrics = bench.layer_metrics(tracer, 1)
    assert metrics["autodiff.graph_nodes.spatial"] == 3.0
    assert metrics["autodiff.graph_nodes.syntax"] == 3.0
    assert metrics["guidance.loss_sp.calls"] == 4 and metrics["guidance.loss_syt.calls"] == 2
    assert metrics["autodiff.backward.calls"] == 6 and metrics["autodiff.tensors"] > 0
    assert all(metrics[f"{layer}.errors"] == 0 for layer in bench.LAYERS)
    assert attnguide.guidance.loss_sp is original
