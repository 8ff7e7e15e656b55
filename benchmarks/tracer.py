"""Span tracing around the calls into each attnguide layer, from outside the package.

The package itself carries no instrumentation.  ``Tracer.install`` rebinds
the public functions and methods listed in ``FUNCTIONS`` and ``METHODS`` to
wrappers that record one span per call (name, parent span, start, end, item)
in memory; ``uninstall`` puts the originals back, so untraced passes run the
unmodified program.  ``layer_metrics`` turns the recorded spans into per-item
counts, inclusive times and self times.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (span name, module, public function)
FUNCTIONS = [
    ("boxes.detect_and_parse", "attnguide.boxes", "detect_and_parse"),
    ("boxes.validate_trajectories", "attnguide.boxes", "validate_trajectories"),
    ("boxes.resample_frames", "attnguide.boxes", "resample_frames"),
    ("boxes.rasterize_masks", "attnguide.boxes", "rasterize_masks"),
    ("syntax.tokenize", "attnguide.syntax", "tokenize"),
    ("syntax.extract_pairs", "attnguide.syntax", "extract_pairs"),
    ("denoiser.ddim_step", "attnguide.denoiser", "ddim_step"),
    ("guidance.prepare_inputs", "attnguide.guidance", "prepare_inputs"),
    ("guidance.loss_sp", "attnguide.guidance", "loss_sp"),
    ("guidance.loss_syt", "attnguide.guidance", "loss_syt"),
    ("guidance.guide_latent", "attnguide.guidance", "guide_latent"),
    ("guidance.run_guided_sampling", "attnguide.guidance", "run_guided_sampling"),
    ("metrics.summarize_run", "attnguide.metrics", "summarize_run"),
    ("metrics.run_ablation", "attnguide.metrics", "run_ablation"),
]
# (span name, module, class, method); denoise_step spans split by whether the
# latent requires a gradient.
METHODS = [
    ("denoiser.build", "attnguide.denoiser", "ToyDenoiser", "__init__"),
    ("denoiser.denoise_step", "attnguide.denoiser", "ToyDenoiser", "denoise_step"),
    ("autodiff.backward", "attnguide.autodiff", "Tensor", "backward"),
]
LAYERS = ("autodiff", "denoiser", "guidance", "metrics", "boxes", "syntax", "cli")
GUIDED = "guidance.run_guided_sampling"
ITERATION_LOSSES = {"guidance.loss_sp": "spatial", "guidance.loss_syt": "syntax"}
WALK = "bench.walk"


def rebind(original, replacement):
    """Point every binding of ``original`` in the attnguide modules at ``replacement``.

    Returns the undo list for ``restore``.  Rebinding by identity covers the
    re-exports in ``attnguide/__init__`` and names imported into other
    modules, wherever a refactor moves the call sites.
    """
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "attnguide" or name.startswith("attnguide.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def restore(undo):
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


def graph_nodes(loss):
    """Differentiable nodes reachable from ``loss``: the nodes backward visits.

    Follows the engine's ``_parents`` links, the only graph structure a
    Tensor exposes.
    """
    seen, stack = {id(loss)}, [loss]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent index, start, end, item]
        self.errors = Counter()  # layer -> exceptions that escaped its calls
        self.tensors = 0
        self.nodes = Counter()   # iteration kind -> graph nodes summed
        self.item = -1
        self.enabled = False
        self.missing = []
        self._stack = []
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None, self.item])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def _parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    @contextlib.contextmanager
    def span(self, name):
        """Span around a call the benchmark makes itself (no-op while disabled)."""
        if not self.enabled:
            yield
            return
        index = self._open(name)
        try:
            yield
        except Exception:
            self.errors[name.split(".")[0]] += 1
            raise
        finally:
            self._close(index)

    def _wrap(self, name, fn, name_of=None, after=None):
        layer = name.split(".")[0]

        def wrapper(*args, **kwargs):
            index = self._open(name_of(args, kwargs) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                self._close(index)
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- counters ------------------------------------------------------------

    def _count_graph(self, kind):
        def after(loss):
            if self._parent_name() != GUIDED or not loss.requires_grad:
                return
            index = self._open(WALK)
            self.nodes[kind] += graph_nodes(loss)
            self._close(index)
        return after

    # -- install / uninstall -------------------------------------------------

    def install(self):
        for name, module_name, attr in FUNCTIONS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            after = self._count_graph(ITERATION_LOSSES[name]) if name in ITERATION_LOSSES else None
            self._undo += rebind(getattr(module, attr), self._wrap(name, fn, after=after))
        for name, module_name, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            fn = cls.__dict__.get(attr) if cls is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            name_of = None
            if name == "denoiser.denoise_step":
                def name_of(args, kwargs, base=name):
                    z = args[1] if len(args) > 1 else kwargs.get("z")
                    return base + (".grad" if getattr(z, "requires_grad", False) else ".nograd")
            setattr(cls, attr, self._wrap(name, fn, name_of=name_of))
            self._undo.append((cls, attr, fn))
        tensor = importlib.import_module("attnguide.autodiff").Tensor
        init = tensor.__dict__["__init__"]

        def counting_init(obj, *args, **kwargs):
            self.tensors += 1
            init(obj, *args, **kwargs)

        tensor.__init__ = counting_init
        self._undo.append((tensor, "__init__", init))
        self.enabled = True

    def uninstall(self):
        restore(self._undo)
        self._undo = []
        self.enabled = False

    def write(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for index, (name, parent, start, end, item) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "parent": parent, "name": name,
                                     "start": start, "end": end, "item": item}) + "\n")


def layer_metrics(tracer, items):
    """Per-item layer counts and times from the recorded spans.

    ``<name>.s`` is inclusive time per item, ``<name>.self_s`` excludes the
    time of child spans, ``<name>.calls`` counts calls per item.  Iteration
    times run from the gradient-carrying ``denoise_step`` of a guidance
    iteration to the end of its ``guide_latent``, less the graph walk.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, total, self_time = Counter(), defaultdict(float), defaultdict(float)
    for index, (name, _, start, end, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child[index]

    iterations = defaultdict(list)
    open_start, kind, walked = None, None, 0.0
    for name, parent, start, end, _ in spans:
        if parent < 0 or spans[parent][0] != GUIDED:
            continue
        if name == "denoiser.denoise_step.grad":
            open_start, kind, walked = start, None, 0.0
        elif name in ITERATION_LOSSES:
            kind = ITERATION_LOSSES[name]
        elif name == WALK:
            walked += end - start
        elif name == "guidance.guide_latent" and open_start is not None and kind:
            iterations[kind].append(end - open_start - walked)
            open_start = None

    per_item = max(items, 1)
    out = {
        "autodiff.tensors": tracer.tensors / per_item,
    }
    for kind in ("spatial", "syntax"):
        n = len(iterations[kind])
        out[f"autodiff.graph_nodes.{kind}"] = tracer.nodes[kind] / n if n else 0.0
        out[f"guidance.iter.{kind}_s"] = sum(iterations[kind]) / n if n else 0.0
    for name in ("autodiff.backward", "denoiser.denoise_step.grad",
                 "denoiser.denoise_step.nograd", "guidance.loss_sp", "guidance.loss_syt",
                 "metrics.summarize_run"):
        out[f"{name}.calls"] = calls[name] / per_item
    for name in ("autodiff.backward", "denoiser.denoise_step.grad",
                 "denoiser.denoise_step.nograd", "denoiser.ddim_step", "denoiser.build",
                 "guidance.loss_sp", "guidance.loss_syt", "guidance.prepare_inputs",
                 "metrics.summarize_run", "boxes.detect_and_parse",
                 "boxes.validate_trajectories", "boxes.resample_frames", "boxes.rasterize_masks",
                 "syntax.tokenize", "syntax.extract_pairs"):
        out[f"{name}.s"] = total[name] / per_item
    for name in ("guidance.guide_latent", "guidance.run_guided_sampling", "metrics.run_ablation",
                 "cli.generate"):
        out[f"{name}.self_s"] = self_time[name] / per_item
    for layer in LAYERS:
        out[f"{layer}.errors"] = float(tracer.errors[layer])
    return out
