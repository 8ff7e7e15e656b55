"""The benchmark workloads: seeded inputs, the timed call into attnguide, output checks.

Each workload is a closed loop: one client in one process makes one call at
a time.  ``units()`` lists the calls of one pass; ``run`` is the only timed
code; ``check`` verifies the outputs afterwards.  On the reference seed the
outputs are compared with the recorded references in ``reference/``; on any
other seed invariants are checked instead, and repeats of a unit are compared
with its first run to report bit-exactness.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

import attnguide
import attnguide.boxes
import attnguide.cli
import inputs
from tracer import rebind, restore

REFERENCE_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# A change of summation order moves the final latent by far less than this;
# any change of the method moves it by far more.
LATENT_ATOL = 1e-6
VALUE_RTOL = 1e-6

# The model `attnguide ablate` builds when no model config is given.
ABLATE_MODEL = dict(frames=2, latent_h=8, latent_w=8, levels=(("down", 4), ("mid", 2), ("up", 4)),
                    token_budget=16, embed_dim=16)
ABLATION_AXES = (
    ("distance", ("COSINE", "KL_SYM")),
    ("contrastive_form", ("RATIO", "SUM")),
    ("ca_capture", ("down", "mid", "up", "down+up")),
    ("iters_syntax_per_step", (1, 3)),
    ("t1", (1, 7)),
)


def _sha(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def expected_schedule(config):
    """(step, iteration, loss) of every guidance iteration the config asks for."""
    rows = []
    for step in range(1, config.total_steps + 1):
        if step <= config.t1 and config.lambda_sp > 0:
            rows += [(step, it, "spatial") for it in range(1, config.iters_spatial_per_step + 1)]
        elif config.t1 < step <= config.t2 and config.lambda_syt > 0:
            rows += [(step, it, "syntax") for it in range(1, config.iters_syntax_per_step + 1)]
    return rows


def parse_scene(scene):
    """Parse and validate a generated scene; the inputs must need no --force."""
    prior = attnguide.boxes.detect_and_parse(scene.boxes_text)
    violations = attnguide.validate_trajectories(prior)
    if violations:
        raise ValueError(f"generated boxes violate limits: {violations[0].message}")
    pairs = attnguide.extract_pairs(attnguide.tokenize(scene.prompt))
    if len(pairs.pairs) != len(prior.trajectories):
        raise ValueError(f"{scene.prompt!r}: {len(pairs.pairs)} pairs for "
                         f"{len(prior.trajectories)} trajectories")
    return prior


class SamplingTap:
    """Keeps the result of every run_guided_sampling call, for the output checks."""

    def __init__(self):
        original = attnguide.guidance.run_guided_sampling
        self.results = []

        def tapped(*args, **kwargs):
            result = original(*args, **kwargs)
            self.results.append(result)
            return result

        self._undo = rebind(original, tapped)

    def close(self):
        restore(self._undo)


class Workload:
    name = ""
    items_per_unit = 1

    def __init__(self, seed, workdir, tracer, recording=False):
        self.seed, self.workdir, self.tracer = seed, Path(workdir), tracer
        self.rng = random.Random(f"{self.name}/{seed}")
        self.recording = recording
        self.record = {}
        self.reference = None
        self.first_runs = {}
        self.bitexact = []       # per item: digests equal the reference
        self.max_dev = 0.0       # largest |final latent - reference|
        self.quality = []        # per item: (in-box ratio at t1, alignment at t2)
        self.bytes_written = []  # per item
        self.tap = SamplingTap()

    def close(self):
        self.tap.close()

    def prepare(self, unit):
        self.tap.results.clear()

    def compare(self, key, digest, latent=None, values=None):
        """Check one unit against its reference; returns the problems found."""
        if self.recording:
            self.record[f"{key}.digest"] = np.array(digest)
            if latent is not None:
                self.record[f"{key}.latent"] = latent
            if values is not None:
                self.record[f"{key}.values"] = values
            return []
        strict = self.seed == REFERENCE_SEED
        if strict:
            if self.reference is None:
                with np.load(REFERENCE_DIR / f"{self.name}.npz") as ref:
                    self.reference = dict(ref)
            ref = self.reference
            ref_digest = str(ref[f"{key}.digest"])
            ref_latent, ref_values = ref.get(f"{key}.latent"), ref.get(f"{key}.values")
        else:
            ref_digest, ref_latent, ref_values = self.first_runs.setdefault(
                key, (digest, latent, values))
        self.bitexact += [digest == ref_digest] * self.items_per_unit
        problems = []
        if latent is not None:
            if ref_latent is None or ref_latent.shape != latent.shape:
                return [f"{key}: final latent shape {latent.shape} differs from the reference"]
            dev = float(np.max(np.abs(latent - ref_latent)))
            self.max_dev = max(self.max_dev, dev)
            if strict and dev > LATENT_ATOL:
                problems.append(f"{key}: final latent deviates by {dev:.3e} > {LATENT_ATOL}")
        if values is not None and strict:
            if ref_values is None or ref_values.shape != values.shape or not np.allclose(
                    values, ref_values, rtol=VALUE_RTOL, atol=1e-12):
                problems.append(f"{key}: trace or metric values differ from the reference")
        return problems

    def check_sampling(self, result, config):
        """Invariants of one guided run: schedule of the trace, finite outputs."""
        problems = []
        got = [(r.step, r.iteration, r.loss_name) for r in result.trace.records]
        if got != expected_schedule(config):
            problems.append(f"trace has {len(got)} rows off the schedule "
                            f"({len(expected_schedule(config))} expected)")
        if not np.all(np.isfinite(result.final_state.z)):
            problems.append("final latent is not finite")
        return problems


class GuidedDefault(Workload):
    """One in-process `attnguide generate` on the default model and guidance config."""

    name = "guided_default"
    slots = 4

    def setup(self):
        subjects, actions = inputs.lexicon()
        self.scenes = [inputs.make_scene(self.rng, subjects, actions) for _ in range(self.slots)]
        self.box_files = []
        for k, scene in enumerate(self.scenes):
            parse_scene(scene)
            path = self.workdir / f"boxes{k}.txt"
            path.write_text(scene.boxes_text)
            self.box_files.append(path)
        self.config = attnguide.GuidanceConfig()
        self.extra_args = []
        attnguide.ToyDenoiser(attnguide.ToyModelConfig())

    def units(self):
        return list(range(self.slots))

    def _out(self, k):
        return self.workdir / f"out{k}"

    def prepare(self, k):
        super().prepare(k)
        shutil.rmtree(self._out(k), ignore_errors=True)

    def run(self, k):
        scene = self.scenes[k]
        argv = ["generate", scene.prompt, str(self.box_files[k]), "--out", str(self._out(k)),
                "--seed", str(scene.sampling_seed)] + self.extra_args
        buf = io.StringIO()
        with self.tracer.span("cli.generate"), contextlib.redirect_stdout(buf):
            code = attnguide.cli.main(argv)
        return code, buf.getvalue()

    def check(self, k, out):
        code, stdout = out
        if code != 0:
            self.tracer.errors["cli"] += 1
            return [f"generate exited {code}: {stdout.strip().splitlines()[-1:]}"]
        if len(self.tap.results) != 1:
            return [f"generate made {len(self.tap.results)} sampling runs, expected 1"]
        result = self.tap.results[0]
        problems = self.check_sampling(result, self.config)
        out_dir = self._out(k)
        trace_bytes = (out_dir / "trace.jsonl").read_bytes()
        rows = [json.loads(line) for line in trace_bytes.decode().splitlines()]
        if [(r["step"], r["iteration"], r["loss"]) for r in rows] != expected_schedule(self.config):
            problems.append("trace.jsonl rows are off the schedule")
        report = attnguide.MetricsReport.from_jsonl((out_dir / "metrics.jsonl").read_text())
        row = report.rows[0]
        quality = (row["mean_in_box_ratio_t1"], row["mean_alignment_t2"])
        values = [v for r in rows for v in
                  (r["value"], r["grad_norm"], *(r["in_box_ratios"][key]
                                                 for key in sorted(r["in_box_ratios"])))]
        values = np.array(values + list(quality))
        if not np.all(np.isfinite(values)):
            problems.append("trace or metrics hold non-finite values")
        self.quality.append(quality)
        self.bytes_written.append(sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()))
        z = result.final_state.z
        return problems + self.compare(f"slot{k}", _sha(z.tobytes(), trace_bytes), z, values)


class UnguidedDefault(GuidedDefault):
    """The unguided twin of guided_default: `generate` with both loss weights at 0."""

    name = "unguided_default"

    def setup(self):
        super().setup()
        config_file = self.workdir / "unguided.cfg"
        config_file.write_text("lambda_sp = 0\nlambda_syt = 0\n")
        self.config = attnguide.GuidanceConfig.from_file(config_file)
        self.extra_args = ["--config", str(config_file)]


class AblationSlice(Workload):
    """`run_ablation`, one variant at a time with two seeds, on the `ablate` model."""

    name = "ablation_slice"
    items_per_unit = 2  # one item is one row: one variant on one seed

    def setup(self):
        subjects, actions = inputs.lexicon()
        scene = inputs.make_scene(self.rng, subjects, actions)
        self.prompt, self.prior = scene.prompt, parse_scene(scene)
        self.seeds = sorted(self.rng.sample(range(1_000_000), self.items_per_unit))
        self.base = attnguide.GuidanceConfig()
        attnguide.ToyDenoiser(attnguide.ToyModelConfig(**ABLATE_MODEL))

    def units(self):
        return [(axis, value) for axis, values in ABLATION_AXES for value in values]

    @staticmethod
    def model_factory(ca_capture):
        extra = {} if ca_capture is None else {"ca_capture": ca_capture}
        return attnguide.ToyDenoiser(attnguide.ToyModelConfig(**ABLATE_MODEL, **extra))

    def run(self, unit):
        axis, value = unit
        return attnguide.run_ablation({axis: [value]}, self.base, self.seeds, self.prompt,
                                      self.prior, self.model_factory)

    def check(self, unit, report):
        axis, value = unit
        rows = report.rows
        keys = sorted((r["axis"], r["value"], r["seed"]) for r in rows)
        if keys != [(axis, str(value), s) for s in self.seeds]:
            return [f"{axis}={value}: rows {keys}, expected one per seed {self.seeds}"]
        if len(self.tap.results) != len(self.seeds):
            return [f"{axis}={value}: {len(self.tap.results)} sampling runs for "
                    f"{len(self.seeds)} seeds"]
        config = self.base if axis == "ca_capture" else replace(self.base, **{axis: value})
        problems, digest_parts, values = [], [], []
        for result in self.tap.results:
            problems += self.check_sampling(result, config)
            digest_parts += [result.final_state.z.tobytes(), result.trace.to_jsonl().encode()]
            values += [v for r in result.trace.records for v in (r.loss_value, r.grad_norm)]
        rows = sorted(rows, key=lambda r: r["seed"])
        for row in rows:
            self.quality.append((row["mean_in_box_ratio_t1"], row["mean_alignment_t2"]))
            values += [row[k] for k in sorted(row) if k not in ("axis", "value", "seed")]
        values = np.array(values)
        if not np.all(np.isfinite(values)):
            problems.append(f"{axis}={value}: non-finite trace or metric values")
        latent = np.stack([r.final_state.z for r in self.tap.results])
        return problems + self.compare(f"{axis}={value}", _sha(*digest_parts), latent, values)


WORKLOADS = {w.name: w for w in (GuidedDefault, UnguidedDefault, AblationSlice)}
