import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import attnguide
from attnguide import gradcheck
from attnguide.autodiff import Tensor
from attnguide.boxes import parse_llm_boxes, serialize_boxes, static_two_box_prior
from attnguide.cli import _parse_grid_file, main
from attnguide.config import read_text
from attnguide.denoiser import ToyDenoiser, ToyModelConfig
from attnguide.guidance import GuidanceConfig
from attnguide.metrics import MetricsReport

from conftest import DOG_CAT_BOXES, TEMPLATE_PROMPT, WOMAN_MAN_BOXES

MODEL_CFG = (
    "frames = 2\n"
    "latent_h = 4\n"
    "latent_w = 4\n"
    "levels = down:4, mid:2, up:4\n"
    "embed_dim = 8\n"
)
# The default `ablate` scene: the man/dog prompt on the unnamed left/right boxes.
POSITION_WARNINGS = [
    "warning: box 'left subject' of subject 0 bound by position to the noun 'man'",
    "warning: box 'right subject' of subject 1 bound by position to the noun 'dog'",
]
GUIDE_CFG = (
    "total_steps = 12\n"
    "t1 = 2\n"
    "t2 = 4\n"
    "iters_spatial_per_step = 2\n"
    "iters_syntax_per_step = 1\n"
)


def _subprocess_env():
    """The environment of a fresh Python process that imports this checkout's package."""
    src = str(Path(attnguide.__file__).parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.fixture
def boxes_file(tmp_path):
    path = tmp_path / "boxes.txt"
    path.write_text(WOMAN_MAN_BOXES)
    return str(path)


@pytest.fixture
def small_run_args(tmp_path, boxes_file):
    (tmp_path / "model.cfg").write_text(MODEL_CFG)
    (tmp_path / "guide.cfg").write_text(GUIDE_CFG)

    def make(out_name, *extra):
        return [
            "generate", TEMPLATE_PROMPT, boxes_file,
            "--out", str(tmp_path / out_name),
            "--model-config", str(tmp_path / "model.cfg"),
            "--config", str(tmp_path / "guide.cfg"),
            "--seed", "0", *extra,
        ]

    return make


class TestParseCommands:
    def test_parse_prompt(self, capsys):
        assert main(["parse-prompt", TEMPLATE_PROMPT]) == 0
        out = capsys.readouterr().out
        assert "pair noun=1:man verb=3:walking" in out
        assert "pair noun=6:dog verb=8:running" in out

    def test_parse_prompt_unresolvable(self, capsys):
        assert main(["parse-prompt", "the sky"]) == 2
        assert capsys.readouterr().out.strip().splitlines()[-1].startswith("ERROR kind=")

    def test_parse_boxes_round_trip(self, boxes_file, capsys):
        assert main(["parse-boxes", boxes_file]) == 0
        out = capsys.readouterr().out
        assert "frames=8 trajectories=2" in out
        assert "Frame 8:" in out

    def test_parse_boxes_malformed_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("Frame 1: [{'id': 0, 'nam\nBackground keyword: x\n")
        assert main(["parse-boxes", str(path)]) == 2
        err_line = capsys.readouterr().out.strip().splitlines()[-1]
        assert err_line.startswith("ERROR kind=parse")
        assert "line 1" in err_line

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main(["parse-boxes", str(tmp_path / "nope.txt")]) == 4
        assert "ERROR kind=io" in capsys.readouterr().out

    def test_validate_boxes(self, tmp_path, capsys):
        """Frames count from 0 after loading, in the text as in `frame=`: the dog's jump
        from the file's `Frame 7:` to its `Frame 8:`."""
        path = tmp_path / "dogcat.txt"
        path.write_text(DOG_CAT_BOXES)
        assert main(["validate-boxes", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "violation kind=VELOCITY subject=0 frame=7 center moved 125.0px "
            "between frames 6 and 7 (limit 60)",
            "violations=1",
        ]

    def test_validate_boxes_reports_clipping(self, tmp_path, capsys):
        path = tmp_path / "offscreen.txt"
        offscreen = [{"id": 0, "name": "man", "box": [-40, 0, 100, 320]}]
        path.write_text(_text_boxes(offscreen, offscreen))
        assert main(["validate-boxes", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == ("warning: clipped box of subject 0 frame 0: "
                          "[-40, 0, 100, 320] -> [0, 0, 60, 320]")
        assert out[-1] == "violations=0"

    def test_rasterize_stdout(self, boxes_file, capsys):
        assert main(["rasterize", boxes_file, "--grid", "4x4"]) == 0
        out = capsys.readouterr().out
        assert "subject=0 frame=0" in out
        assert any(set(line) <= {"0", "1"} and line for line in out.splitlines())

    def test_rasterize_npz(self, boxes_file, tmp_path, capsys):
        """`--out masks` writes an npz archive to `masks` itself, not to `masks.npz`; a
        directory is one io error."""
        out = tmp_path / "masks"
        assert main(["rasterize", boxes_file, "--grid", "4x4", "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"wrote {out}"
        with np.load(out) as data:
            assert "s0_f0" in data and data["s0_f0"].shape == (4, 4)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["boxes.txt", "masks"]
        assert main(["rasterize", boxes_file, "--grid", "4x4", "--out", str(tmp_path)]) == 4
        errors = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("ERROR")]
        assert len(errors) == 1 and errors[0].startswith("ERROR kind=io ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["boxes.txt", "masks"]

    def test_rasterize_output_pinned(self, boxes_file, tmp_path, capsys):
        """Stdout (warnings and mask rows) and the npz arrays, keys in order, byte for byte."""
        assert main(["rasterize", boxes_file, "--grid", "4x4"]) == 0
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == (
            "094af1a9927d1b35a8402d2cd886b2d5168361863dcbb8742b5fc960d8add591")
        out = tmp_path / "masks.npz"
        assert main(["rasterize", boxes_file, "--grid", "4x4", "--out", str(out)]) == 0
        data = np.load(out)
        h = hashlib.sha256()
        for key in data.files:
            a = data[key]
            for part in (key, str(a.dtype), str(a.shape)):
                h.update(part.encode())
            h.update(a.tobytes())
        assert h.hexdigest() == (
            "3bbc462bbbe352eaf0fdbf421b34c77adcf0768583063692d66463aef574a5c6")

    def test_rasterize_prints_loading_warnings(self, tmp_path, capsys):
        path = tmp_path / "clipped.txt"
        path.write_text(_text_boxes([{"id": 0, "name": "man", "box": [-20, 0, 288, 320]},
                                     {"id": 1, "name": "dog", "box": [10, 0, 600, 320]}]))
        assert main(["rasterize", str(path), "--grid", "2x4"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "warning: clipped box of subject 0 frame 0: [-20, 0, 288, 320] -> [0, 0, 268, 320]",
            "warning: clipped box of subject 1 frame 0: [10, 0, 600, 320] -> [10, 0, 566, 320]",
            "subject=0 frame=0", "1100", "1100", "subject=1 frame=0", "1111", "1111"]

    def test_rasterize_prints_loading_warnings_before_mask_warnings(self, tmp_path, capsys):
        """The order `generate` uses: the file's clipped boxes, then the all-zero masks."""
        path = tmp_path / "clipped.txt"
        path.write_text(_text_boxes([{"id": 0, "name": "man", "box": [-20, 0, 288, 320]},
                                     {"id": 1, "name": "dog", "box": [560, 0, 100, 320]}]))
        assert main(["rasterize", str(path), "--grid", "2x4"]) == 0
        assert capsys.readouterr().out.splitlines()[:3] == [
            "warning: clipped box of subject 0 frame 0: [-20, 0, 288, 320] -> [0, 0, 268, 320]",
            "warning: clipped box of subject 1 frame 0: [560, 0, 100, 320] -> [560, 0, 16, 320]",
            "warning: all-zero mask for subject 1 frame 0 (box [560, 0, 16, 320] at 2x4)"]

    def test_rasterize_bad_grid(self, boxes_file, capsys):
        assert main(["rasterize", boxes_file, "--grid", "4by4"]) == 2


class TestGenerate:
    def test_imports_no_scipy(self, small_run_args):
        """A fresh process that imports the package and generates loads no scipy module."""
        script = ("import json, sys\n"
                  "import attnguide\n"
                  "from attnguide.cli import main\n"
                  "assert main(json.loads(sys.argv[1])) == 0\n"
                  "print(json.dumps(sorted(m for m in sys.modules\n"
                  "                        if m == 'scipy' or m.startswith('scipy.'))))\n")
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(small_run_args("run"))],
                              capture_output=True, text=True, env=_subprocess_env(), check=True)
        assert json.loads(proc.stdout.splitlines()[-1]) == []

    def test_end_to_end_outputs(self, tmp_path, boxes_file, small_run_args, capsys):
        assert main(small_run_args("run")) == 0
        out_dir = tmp_path / "run"
        assert "ok records=6" in capsys.readouterr().out

        trace = [json.loads(ln) for ln in (out_dir / "trace.jsonl").read_text().splitlines()]
        assert len(trace) == 6  # t1*iters_spatial + (t2-t1)*iters_syntax
        assert {r["loss"] for r in trace} == {"spatial", "syntax"}

        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["complete"] is True
        assert manifest["seed"] == 0
        assert manifest["input_digests"] == {  # keyed by option name, every file given
            name: hashlib.sha256(Path(path).read_bytes()).hexdigest() for name, path in (
                ("boxes", boxes_file), ("config", tmp_path / "guide.cfg"),
                ("model_config", tmp_path / "model.cfg"))}

        data = np.load(out_dir / "ca_records.npz")
        assert set(data.files) == {"step1", "step2", "step4", "step12"}

        metrics = (out_dir / "metrics.jsonl").read_text()
        assert "mean_in_box_ratio_final" in metrics

    def test_run_directory_layout(self, tmp_path, small_run_args):
        """A run directory stores each value once: its exact files and keys, so that no
        derived copy (a final norm, a record count, a seed or prompt per row, a heatmap that
        `render` draws, a table of the metrics row) comes back."""
        assert main(small_run_args("run")) == 0
        out_dir = tmp_path / "run"
        assert {str(p.relative_to(out_dir)) for p in out_dir.rglob("*")} == {
            "ca_records.npz", "latent_summary.json", "manifest.json", "metrics.jsonl",
            "trace.jsonl"}
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert sorted(manifest) == ["complete", "config", "finished_at", "input_digests",
                                    "prompt", "seed", "started_at", "version", "warnings"]
        summary = json.loads((out_dir / "latent_summary.json").read_text())
        assert sorted(summary) == ["per_step_latent_norm"]
        assert len(summary["per_step_latent_norm"]) == 12
        rows = MetricsReport.from_jsonl((out_dir / "metrics.jsonl").read_text()).rows
        assert [sorted(row) for row in rows] == [[
            f"mean_{name}_{at}" for name in ("alignment", "components", "in_box_ratio")
            for at in ("final", "t1", "t2")]]

    def test_byte_reproducible(self, tmp_path, small_run_args):
        assert main(small_run_args("a")) == 0
        assert main(small_run_args("b")) == 0
        for name in ("trace.jsonl", "metrics.jsonl", "latent_summary.json", "ca_records.npz"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_velocity_violation_blocks_without_force(self, tmp_path, capsys):
        boxes = tmp_path / "dogcat.txt"
        boxes.write_text(DOG_CAT_BOXES)
        (tmp_path / "model.cfg").write_text(MODEL_CFG)
        (tmp_path / "guide.cfg").write_text(GUIDE_CFG)
        argv = ["generate", TEMPLATE_PROMPT, str(boxes), "--out", str(tmp_path / "run"),
                "--model-config", str(tmp_path / "model.cfg"),
                "--config", str(tmp_path / "guide.cfg")]
        assert main(argv) == 2
        violation = "violation kind=VELOCITY subject=0 frame=7 center moved 125.0px between " \
                    "frames 6 and 7 (limit 60)"
        assert capsys.readouterr().out.splitlines() == [
            violation, "ERROR kind=validation reason=1 box violations (use --force to proceed)"]
        assert main(argv + ["--force"]) == 0
        # the forced run records the violation it overrode, first among its warnings
        assert f"warning: {violation}" == capsys.readouterr().out.splitlines()[0]
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["warnings"][0] == violation

    def test_negative_box_size_blocks_without_force(self, tmp_path, small_run_args, capsys):
        boxes = tmp_path / "negative.txt"
        boxes.write_text(WOMAN_MAN_BOXES.replace("[0, 70, 120, 200]", "[300, 10, -50, 100]"))
        assert main(["validate-boxes", str(boxes)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert ("violation kind=DEGENERATE subject=0 frame=0 box [300, 10, -50, 100] has no area"
                in out)
        argv = small_run_args("run")
        argv[2] = str(boxes)
        assert main(argv) == 2
        assert "ERROR kind=validation" in capsys.readouterr().out
        assert not (tmp_path / "run").exists()

    def test_unguided_flagged_in_manifest(self, tmp_path, boxes_file):
        """A run is unguided when both loss weights in the manifest's guidance config are 0."""
        (tmp_path / "model.cfg").write_text(MODEL_CFG)
        (tmp_path / "guide.cfg").write_text(GUIDE_CFG + "lambda_sp = 0\nlambda_syt = 0\n")
        assert main(["generate", TEMPLATE_PROMPT, boxes_file,
                     "--out", str(tmp_path / "run"),
                     "--model-config", str(tmp_path / "model.cfg"),
                     "--config", str(tmp_path / "guide.cfg")]) == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        guidance = manifest["config"]["guidance"]
        assert (guidance["lambda_sp"], guidance["lambda_syt"]) == (0, 0)

    @pytest.mark.parametrize("boxes_text", [
        WOMAN_MAN_BOXES.split("Frame 2:")[0] + "Background keyword: room\n",
    ], ids=["one_frame_boxes"])
    def test_bad_input_writes_nothing(self, tmp_path, small_run_args, capsys, boxes_text):
        argv = small_run_args("run")
        boxes = tmp_path / "bad_boxes.txt"
        boxes.write_text(boxes_text)
        argv[2] = str(boxes)
        assert main(argv) == 2
        errors = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("ERROR")]
        assert len(errors) == 1 and errors[0].startswith("ERROR kind=parse")
        assert not (tmp_path / "run").exists()

    def test_box_names_contradicting_the_prompt_are_one_error(self, tmp_path, small_run_args,
                                                              capsys):
        """Both boxes name the man, and the second sits where the dog's box belongs."""
        boxes = tmp_path / "two_men.txt"
        boxes.write_text(WOMAN_MAN_BOXES.replace("walking woman", "walking man"))
        argv = small_run_args("run")
        argv[2] = str(boxes)
        assert main(argv) == 2
        errors = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("ERROR")]
        assert len(errors) == 1 and errors[0].startswith("ERROR kind=parse")
        assert "do not match the prompt's subjects" in errors[0]
        assert not (tmp_path / "run").exists()

    def test_prints_and_records_warnings(self, tmp_path, small_run_args, capsys):
        """A clipped box (load warning), the 8 box frames resampled to the model's 2, the
        man's end boxes covering no cell centre at 4x4, and both boxes bound by position
        (`walking woman` names no prompt noun)."""
        boxes = tmp_path / "clipped.txt"
        boxes.write_text(WOMAN_MAN_BOXES.replace("[0, 70, 120, 200]", "[-30, 70, 150, 200]"))
        argv = small_run_args("run")
        argv[2] = str(boxes)
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        warned = [ln[len("warning: "):] for ln in lines if ln.startswith("warning: ")]
        assert warned == [
            "clipped box of subject 0 frame 0: [-30, 70, 150, 200] -> [0, 70, 120, 200]",
            "resampled 8 box frames to 2 model frames",
            "all-zero mask for subject 1 frame 0 (box [380, 120, 120, 180] at 4x4)",
            "all-zero mask for subject 1 frame 1 (box [380, 120, 120, 180] at 4x4)",
            "box 'walking woman' of subject 0 bound by position to the noun 'man'",
            "box 'jumping man' of subject 1 bound by position to the noun 'dog'",
        ]
        assert lines[-1].startswith("ok records=")
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["warnings"] == warned

    def test_pair_without_negatives_is_a_run_warning(self, tmp_path, small_run_args, capsys):
        """`man walking` leaves the pair no other token to push away: the run says so in its
        own warning list (stdout and manifest), and no Python warning escapes it."""
        boxes = tmp_path / "man.txt"
        boxes.write_text(re.sub(r", \{'id': 1[^}]*\}", "", WOMAN_MAN_BOXES)
                         .replace("walking woman", "walking man"))
        argv = small_run_args("run")
        argv[1:3] = ["man walking", str(boxes)]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:-1] == ["warning: resampled 8 box frames to 2 model frames",
                              "warning: pair man/walking has no negative tokens"]
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["warnings"] == [ln[len("warning: "):] for ln in lines[:-1]]

    def test_overflowing_latent_is_one_numeric_error(self, tmp_path, small_run_args, capsys,
                                                     recwarn):
        """A step size that drives the latent norms past float range writes nothing."""
        with open(tmp_path / "guide.cfg", "a") as f:
            f.write("lambda_sp = 1e300\n")
        assert main(small_run_args("run")) == 3
        assert capsys.readouterr().out.splitlines() == [
            "ERROR kind=numeric reason=step 1: latent norm past float range"]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "run").exists()


def corrupt_gradients(monkeypatch):
    """Route every gradcheck probe's input through the identity with a 1.5x gradient rule."""
    fd = gradcheck.fd_gradients

    def skew(t):
        return Tensor.node(np.array(t.data), (t,), lambda g: (1.5 * g,))

    monkeypatch.setattr(gradcheck, "fd_gradients",
                        lambda f, x0, step: fd(lambda x: f(skew(x)), x0, step))


class TestGradcheck:
    def test_stub_and_losses_pass(self, capsys):
        assert main(["gradcheck", "stub"]) == 0
        assert main(["gradcheck", "losses"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "worst_rel_err" in out

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [26, 27, 37])
    def test_near_zero_coordinates_pass(self, capsys, monkeypatch, seed):
        """Seeds whose worst relative error, on coordinates near zero, exceeds the tolerance."""
        assert main(["gradcheck", "all", "--seed", str(seed)]) == 0
        assert "FAIL" not in capsys.readouterr().out
        corrupt_gradients(monkeypatch)
        assert main(["gradcheck", "all", "--seed", str(seed)]) == 5

    def test_corrupted_gradient_detected(self, capsys, monkeypatch):
        corrupt_gradients(monkeypatch)
        assert main(["gradcheck", "stub"]) == 5
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "ERROR kind=gradcheck" in out


class TestAblate:
    def test_empty_grid_base_rows(self, tmp_path, capsys):
        (tmp_path / "model.cfg").write_text(MODEL_CFG)
        (tmp_path / "guide.cfg").write_text(GUIDE_CFG)
        assert main(["ablate", "--out", str(tmp_path / "abl"), "--seeds", "0,1",
                     "--model-config", str(tmp_path / "model.cfg"),
                     "--config", str(tmp_path / "guide.cfg")]) == 0
        assert "ok rows=2" in capsys.readouterr().out
        rows = (tmp_path / "abl" / "ablation.jsonl").read_text().splitlines()
        assert [json.loads(r)["axis"] for r in rows] == ["base", "base"]

    def test_sweep_with_no_rows(self, tmp_path, capsys):
        """Every variant skipped: no rows, an empty `ablation.jsonl` that reads back as none."""
        assert main(self._sweep_args(tmp_path, "t1 = 99\n")) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("skipping t1=99: ")
        assert out[-1].startswith("ok rows=0 ")
        text = (tmp_path / "abl" / "ablation.jsonl").read_text()
        assert text == "" and MetricsReport.from_jsonl(text).rows == []
        assert (tmp_path / "abl" / "ablation.txt").read_text() == "(no rows)\n"

    def test_grid_sweep(self, tmp_path, capsys):
        (tmp_path / "model.cfg").write_text(MODEL_CFG)
        (tmp_path / "guide.cfg").write_text(GUIDE_CFG)
        (tmp_path / "grid.txt").write_text("t1 = 1, 2\n")
        assert main(["ablate", "--grid", str(tmp_path / "grid.txt"),
                     "--out", str(tmp_path / "abl"), "--seeds", "0",
                     "--model-config", str(tmp_path / "model.cfg"),
                     "--config", str(tmp_path / "guide.cfg")]) == 0
        assert "ok rows=2" in capsys.readouterr().out
        table = (tmp_path / "abl" / "ablation.txt").read_text()
        assert "t1" in table and "mean_alignment_final" in table

    def test_non_integer_seeds_rejected(self, tmp_path, capsys):
        assert main(["ablate", "--seeds", "a,b", "--out", str(tmp_path / "abl")]) == 2
        errors = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("ERROR")]
        assert len(errors) == 1 and errors[0].startswith("ERROR kind=parse")

    def test_repeated_seeds_rejected(self, tmp_path, capsys):
        assert main(["ablate", "--seeds", "0,1,0", "--out", str(tmp_path / "abl")]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "ERROR kind=parse reason=--seeds must not repeat a seed, got '0,1,0'"]
        assert not (tmp_path / "abl").exists()

    @pytest.mark.parametrize("bad", ["--seeds", "--boxes", "--model-config", "--config"])
    def test_bad_input_writes_nothing(self, tmp_path, capsys, bad):
        (tmp_path / "bad.txt").write_text("bogus = 1\n")
        value = "0,x" if bad == "--seeds" else str(tmp_path / "bad.txt")
        assert main(["ablate", "--out", str(tmp_path / "abl"), bad, value]) == 2
        errors = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("ERROR")]
        assert len(errors) == 1 and errors[0].startswith("ERROR kind=parse")
        assert not (tmp_path / "abl").exists()

    def test_has_no_seed_option(self, tmp_path, capsys):
        assert main(["ablate", "--seed", "7", "--out", str(tmp_path / "abl")]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "ERROR kind=parse reason=unrecognized arguments: --seed 7"]
        assert not (tmp_path / "abl").exists()

    def test_input_error_of_a_run_writes_nothing(self, tmp_path, capsys):
        """A one-pair prompt cannot take the two default boxes: the first run fails on input."""
        assert main(["ablate", "--seeds", "0", "--out", str(tmp_path / "abl"),
                     "--prompt", "a man is walking"]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "ERROR kind=parse reason=2 box trajectories for 1 noun/verb pairs"]
        assert not (tmp_path / "abl").exists()

    def test_one_frame_model_ablates(self, tmp_path, capsys):
        """The default boxes take the model's frame count, one frame included."""
        (tmp_path / "model.cfg").write_text(MODEL_CFG.replace("frames = 2", "frames = 1"))
        (tmp_path / "guide.cfg").write_text(GUIDE_CFG)
        assert main(["ablate", "--seeds", "0", "--out", str(tmp_path / "abl"),
                     "--model-config", str(tmp_path / "model.cfg"),
                     "--config", str(tmp_path / "guide.cfg")]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("ok rows=1 ")
        row = json.loads((tmp_path / "abl" / "ablation.jsonl").read_text())
        assert row["axis"] == "base" and "error" not in row

    def test_prints_each_run_warning_once(self, tmp_path, capsys):
        """The default boxes bind by position; both seeds' runs say so, printed once."""
        (tmp_path / "model.cfg").write_text(MODEL_CFG)
        (tmp_path / "guide.cfg").write_text(GUIDE_CFG)
        assert main(["ablate", "--out", str(tmp_path / "abl"),
                     "--model-config", str(tmp_path / "model.cfg"),
                     "--config", str(tmp_path / "guide.cfg")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:-1] == POSITION_WARNINGS and out[-1].startswith("ok rows=2 ")

    def test_unknown_axis_rejected(self, tmp_path, capsys):
        (tmp_path / "grid.txt").write_text("momentum = 0.9\n")
        assert main(["ablate", "--grid", str(tmp_path / "grid.txt"),
                     "--out", str(tmp_path / "abl")]) == 2
        assert "unknown axis" in capsys.readouterr().out

    def _sweep_args(self, tmp_path, grid):
        (tmp_path / "model.cfg").write_text(MODEL_CFG)
        (tmp_path / "guide.cfg").write_text(GUIDE_CFG)
        (tmp_path / "grid.txt").write_text(grid)
        return ["ablate", "--grid", str(tmp_path / "grid.txt"), "--out", str(tmp_path / "abl"),
                "--seeds", "1,0", "--model-config", str(tmp_path / "model.cfg"),
                "--config", str(tmp_path / "guide.cfg")]

    def test_invalid_capture_level_is_skipped(self, tmp_path, capsys):
        assert main(self._sweep_args(tmp_path, "ca_capture = sideways, down\n")) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == ("skipping ca_capture=sideways: ca_capture level 'sideways' not in "
                          "levels ['down', 'mid', 'up']")
        assert out[-1].startswith("ok rows=2 ")

    def test_failed_run_is_a_row(self, tmp_path, capsys):
        assert main(self._sweep_args(tmp_path, "lambda_sp = 1e308, 10\n")) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == POSITION_WARNINGS  # before the first variant's runs, once each
        assert [ln.split(":")[0] for ln in out[2:-1]] == ["failed lambda_sp=1e+308 seed=1",
                                                          "failed lambda_sp=1e+308 seed=0"]
        assert out[-1].startswith("ok rows=4 ")
        rows = [json.loads(r) for r in (tmp_path / "abl" / "ablation.jsonl").read_text()
                .splitlines()]
        assert [("error" in r, r["value"], r["seed"]) for r in rows] == [
            (False, "10.0", 0), (False, "10.0", 1), (True, "1e+308", 0), (True, "1e+308", 1)]
        manifest = json.loads((tmp_path / "abl" / "manifest.json").read_text())
        assert manifest["complete"] is True

    def test_run_failing_in_a_free_step_is_a_row(self, tmp_path, capsys):
        """A run that overflows past its one guidance iteration is a row naming its step, and
        the sweep keeps every row."""
        argv = self._sweep_args(tmp_path, "lambda_sp = 1e308, 10\n")
        (tmp_path / "guide.cfg").write_text(GUIDE_CFG.replace("t1 = 2", "t1 = 1").replace(
            "iters_spatial_per_step = 2", "iters_spatial_per_step = 1"))
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("ok rows=4 ")
        rows = [json.loads(r) for r in (tmp_path / "abl" / "ablation.jsonl").read_text()
                .splitlines()]
        assert [(r["value"], r["seed"]) for r in rows] == [
            ("10.0", 0), ("10.0", 1), ("1e+308", 0), ("1e+308", 1)]
        assert ["error" in r for r in rows] == [False, False, True, True]
        assert all(r["error"].startswith("step 1: ") for r in rows[2:])

    def test_latent_past_float_range_is_the_verdict_generate_gives(self, tmp_path, capsys):
        """A latent norm past float range is an error row in a sweep, and the same error in
        `generate` on that config."""
        (tmp_path / "boxes.txt").write_text(serialize_boxes(static_two_box_prior(2)))
        (tmp_path / "syt.cfg").write_text("lambda_syt = 1e300\n")
        argv = self._sweep_args(tmp_path, "lambda_syt = 1e300\n")
        argv[argv.index("--config") + 1] = str(tmp_path / "syt.cfg")
        assert main(argv) == 0
        rows = [json.loads(r) for r in (tmp_path / "abl" / "ablation.jsonl").read_text()
                .splitlines()]
        reason = "step 6: latent norm past float range"  # the default t1 is 5
        assert [(r["seed"], r.get("error")) for r in rows] == [(0, reason), (1, reason)]
        capsys.readouterr()
        assert main(["generate", "a man is walking and a dog is running",
                     str(tmp_path / "boxes.txt"), "--out", str(tmp_path / "run"),
                     "--model-config", str(tmp_path / "model.cfg"),
                     "--config", str(tmp_path / "syt.cfg")]) == 3
        assert capsys.readouterr().out.splitlines() == [f"ERROR kind=numeric reason={reason}"]

    def test_interrupt_keeps_finished_rows(self, tmp_path, capsys, monkeypatch):
        """Ctrl-C while building the second variant's model: the first variant's rows stay."""
        import attnguide.cli as cli

        built = []

        def interrupting_model(cfg):
            if built:
                raise KeyboardInterrupt
            built.append(cfg)
            return ToyDenoiser(cfg)

        monkeypatch.setattr(cli, "ToyDenoiser", interrupting_model)
        assert main(self._sweep_args(tmp_path, "t1 = 2, 1\n")) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("ok rows=2 ")
        report = (tmp_path / "abl" / "ablation.jsonl").read_text().splitlines()
        assert [(r["axis"], r["value"], r["seed"]) for r in map(json.loads, report)] == [
            ("t1", "2", 0), ("t1", "2", 1)]
        assert "t1" in (tmp_path / "abl" / "ablation.txt").read_text()
        manifest = json.loads((tmp_path / "abl" / "manifest.json").read_text())
        assert manifest["config"]["axes"] == {"t1": ["2", "1"]}
        assert manifest["complete"] is False
        assert manifest["warnings"] == [w[len("warning: "):] for w in POSITION_WARNINGS]

    def test_manifest_records_a_sweep_whose_runs_all_fail(self, tmp_path, capsys):
        """Every run diverges, yet the sweep prints and records its inputs' warnings, and its
        manifest holds the prompt, both configs and the digests of every file option given."""
        assert main(self._sweep_args(tmp_path, "lambda_sp = 1e308\n")) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == POSITION_WARNINGS
        assert [ln.split(":")[0] for ln in out[2:-1]] == ["failed lambda_sp=1e+308 seed=1",
                                                          "failed lambda_sp=1e+308 seed=0"]
        manifest = json.loads((tmp_path / "abl" / "manifest.json").read_text())
        assert manifest["prompt"] == "a man is walking and a dog is running"
        assert manifest["warnings"] == [w[len("warning: "):] for w in POSITION_WARNINGS]
        assert manifest["seed"] == [1, 0]

        def as_json(cfg):
            return json.loads(json.dumps(asdict(cfg)))

        assert manifest["config"] == {
            "guidance": as_json(GuidanceConfig.from_file(tmp_path / "guide.cfg")),
            "model": as_json(ToyModelConfig.from_file(tmp_path / "model.cfg")),
            "axes": {"lambda_sp": ["1e+308"]}}
        assert manifest["input_digests"] == {
            name: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
            for name, file in (("config", "guide.cfg"), ("grid", "grid.txt"),
                               ("model_config", "model.cfg"))}


MAN = {"id": 0, "name": "walking man", "box": [0, 0, 288, 320]}
DOG = {"id": 1, "name": "running dog", "box": [288, 0, 288, 320]}


def _text_boxes(*frames):
    """A box file whose `Frame k:` lines hold the record lists `frames`, in a room."""
    return "".join(f"Frame {k}: {records!r}\n" for k, records in enumerate(frames, start=1)) \
        + "Background keyword: room\n"


# (file role, file contents): every one is a user input error and must exit 2.
BAD_INPUTS = {
    "model_unknown_key": ("model", "bogus = 3\n"),
    "model_bad_levels": ("model", "levels = down8\n"),
    "model_fractional_frames": ("model", "frames = 2.5\n"),
    "model_zero_level_grid": ("model", "levels = down:0, mid:2, up:4\n"),
    "model_zero_heads": ("model", "heads = 0\n"),  # a removed key, whatever its value
    "model_removed_key_latent_channels": ("model", "latent_channels = 2\n"),
    "model_negative_embed_dim": ("model", "embed_dim = -4\n"),
    "model_zero_latent_h": ("model", "latent_h = 0\n"),
    "model_levels_exceed_latent": ("model", "latent_h = 4\nlatent_w = 4\n"),
    "model_not_utf8": ("model", b"\xff\xfeframes = 2\n"),
    "model_total_steps": ("model", "total_steps = 12\n"),  # the guidance config's field
    "model_negative_seed": ("model", "seed = -1\n"),
    "model_duplicate_level_tags": ("model", "levels = down:8, down:4, up:8\nca_capture = down\n"),
    "model_huge_frames": ("model", "frames = 99999999999999999999\n"),
    "model_repeated_capture_tag": ("model", "ca_capture = down+down\n"),
    "guide_not_a_number": ("guide", "lambda_sp = abc\n"),
    "guide_non_finite": ("guide", "lambda_sp = nan\n"),
    "guide_removed_apply_spatial_to_verbs": ("guide", "apply_spatial_to_verbs = true\n"),
    "guide_zero_total_steps": ("guide", "total_steps = 0\nt1 = 0\nt2 = 0\n"),
    "guide_huge_total_steps": ("guide", "total_steps = 99999999999999999999\n"),
    "guide_negative_spatial_iters": ("guide", "iters_spatial_per_step = -3\n"),
    "guide_negative_syntax_iters": ("guide", "iters_syntax_per_step = -1\n"),
    "guide_huge_spatial_iters": ("guide", "iters_spatial_per_step = 1000000000\n"),
    "guide_syntax_iters_over_cap": ("guide", "iters_syntax_per_step = 101\n"),
    "guide_duplicate_key": ("guide", "lambda_sp = 0\nlambda_syt = 0\nlambda_sp = 30\n"),
    **{f"guide_removed_key_{key}": ("guide", f"{key} = {value}\n") for key, value in (
        ("lambda_fg", "1.0"), ("lambda_bg", "1.0"), ("neg_includes_verb", "false"),
        ("negatives_exclude_other_pairs", "false"), ("eps", "1e-08"))},
    "grid_not_an_integer": ("grid", "t1 = x\n"),
    "grid_not_utf8": ("grid", b"t1 = 1, \xe9\n"),
    "grid_duplicate_axis": ("grid", "t1 = 1, 3\nt1 = 5\n"),
    "grid_repeated_value": ("grid", "lambda_sp = 10, 10.0\n"),  # equal once parsed, as 3, 3
    "boxes_string_id": ("boxes", _text_boxes([{"id": "0", "name": "man", "box": [0, 0, 9, 9]}])),
    "boxes_missing_name": ("boxes", _text_boxes([{"id": 0, "box": [0, 0, 9, 9]}])),
    "boxes_bad_box_value": ("boxes", _text_boxes([{"id": 0, "name": "m", "box": [0, "w", 0, 9]}])),
    # past the 4,300 digits int() converts, as a box number and as a frame index
    "boxes_many_digit_integer": ("boxes", _text_boxes([MAN]).replace("288", "1" * 5000)),
    "boxes_text_many_digit_frame": ("boxes", f"Frame {'1' * 5000}: [{{'id': 0, 'name': 'm', "
                                             "'box': [0, 0, 9, 9]}]\nBackground keyword: room\n"),
    "boxes_deeply_nested": ("boxes", "Frame 1: " + "[" * 10000 + "]" * 10000
                                     + "\nBackground keyword: room\n"),
    "boxes_fractional_box": ("boxes", _text_boxes([{"id": 0, "name": "m", "box": [10.7, 0, 9, 9]}])),
    # in frame 2, where `False` would read as the id 0 and `True` as the number 1
    "boxes_boolean_box": ("boxes", _text_boxes([MAN], [dict(MAN, box=[0, 0, 9, True])])),
    "boxes_boolean_id": ("boxes", _text_boxes([MAN], [dict(MAN, id=False)])),
    "boxes_string_box": ("boxes", _text_boxes([{"id": 0, "name": "m", "box": ["5", 0, 9, 9]}])),
    "boxes_text_boolean_id": ("boxes", "Frame 1: [{'id': True, 'name': 'm', 'box': [0, 0, 9, 9]}]"
                                       "\nBackground keyword: room\n"),
    "boxes_text_boolean_box": ("boxes", "Frame 1: [{'id': 0, 'name': 'm', 'box': [True, 10, 100, "
                                        "100]}]\nBackground keyword: room\n"),
    "boxes_not_utf8": ("boxes", b"\xff\xfe" + WOMAN_MAN_BOXES.encode()),
    "boxes_text_number_name": ("boxes", "Frame 1: [{'id': 0, 'name': 5, 'box': [0, 0, 9, 9]}]"
                                        "\nBackground keyword: room\n"),
    "boxes_text_repeated_frame": ("boxes", "Frame 1: [{'id': 0, 'name': 'm', 'box': [0, 0, 9, 9]}]"
                                           "\nFrame 1: [{'id': 0, 'name': 'm', 'box': [0, 0, 9, 9]}]"
                                           "\nBackground keyword: room\n"),
    # `literal_eval` reads the two lists as a tuple
    "boxes_frame_not_a_list": ("boxes", f"Frame 1: [{MAN!r}], [1]\nBackground keyword: room\n"),
    "boxes_record_not_an_object": ("boxes", _text_boxes([5])),
    "boxes_background_only": ("boxes", "Background keyword: room\n"),
    "boxes_two_backgrounds": ("boxes", f"Frame 1: [{MAN!r}]\nBackground keyword: park\n"
                                       f"Frame 2: [{MAN!r}]\nBackground keyword: beach\n"),
    "boxes_subject_missing_from_frame": ("boxes", _text_boxes([MAN, DOG], [MAN])),
    "prompt_without_pairs": ("prompt", "and"),
    "prompt_punctuation_only": ("prompt", "!!! ???"),
    "prompt_copula_first": ("prompt", "is running"),  # the last-resort noun stops at "is"
    "rasterize_huge_grid": ("rasterize_grid", "100000x100000"),
    "rasterize_grid_over_cap": ("rasterize_grid", "65x65"),
    # argparse takes `-1x4` for an option: a usage error, which ends in the ERROR line too
    "rasterize_grid_negative": ("rasterize_grid", "-1x4"),
    # the velocity limit is the constant `boxes.MAX_STEP_PX`: the option is gone
    "validate_removed_max_step_px": ("validate_step", "60"),
    "generate_removed_max_step_px": ("generate_step", "60"),
}


@pytest.mark.parametrize("role,text", BAD_INPUTS.values(), ids=list(BAD_INPUTS))
def test_bad_input_is_one_parse_error(tmp_path, boxes_file, capsys, role, text):
    path = tmp_path / f"{role}.txt"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    out_dir = str(tmp_path / "out")
    argv = {
        "model": ["generate", TEMPLATE_PROMPT, boxes_file, "--out", out_dir,
                  "--model-config", str(path)],
        "guide": ["generate", TEMPLATE_PROMPT, boxes_file, "--out", out_dir,
                  "--config", str(path)],
        "grid": ["ablate", "--grid", str(path), "--out", out_dir],
        "boxes": ["parse-boxes", str(path)],
        "prompt": ["parse-prompt", text],
        "rasterize_grid": ["rasterize", boxes_file, "--grid", text],
        "validate_step": ["validate-boxes", boxes_file, "--max-step-px", text],
        "generate_step": ["generate", TEMPLATE_PROMPT, boxes_file, "--out", out_dir,
                          "--max-step-px", text],
    }[role]
    assert main(argv) == 2
    captured = capsys.readouterr()
    errors = [ln for ln in captured.out.splitlines() if ln.startswith("ERROR")]
    assert len(errors) == 1 and errors[0].startswith("ERROR kind=parse")
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["parse-boxes", "validate-boxes", "rasterize", "generate"])
def test_json_box_file_rejected(tmp_path, capsys, command):
    """A JSON box file fails at its first line, like any text the box generator does not
    write, and `generate` makes no run directory."""
    text = json.dumps({"frame_size": [576, 320], "frames": [[MAN]] * 2, "background": "room"})
    path = tmp_path / "boxes.json"
    path.write_text(text)
    out = tmp_path / "out"
    argv = {"parse-boxes": [command, str(path)], "validate-boxes": [command, str(path)],
            "rasterize": [command, str(path), "--grid", "4x4"],
            "generate": [command, TEMPLATE_PROMPT, str(path), "--out", str(out)]}[command]
    assert main(argv) == 2
    assert capsys.readouterr().out.splitlines() == [
        f"ERROR kind=parse reason=line 1: unrecognized line: {text!r}"]
    assert not out.exists()


WALKING = [{"id": 0, "name": "walking man", "box": [0, 0, 9, 9]}]
RUNNING = [{"id": 0, "name": "running dog", "box": [9, 0, 9, 9]}]  # the same id, renamed


@pytest.mark.parametrize("text,line,frame", [
    (_text_boxes(WALKING, RUNNING), 2, 2),
    # the line number counts the lines the parser skips
    ("Reasoning: the man walks.\n" + _text_boxes(WALKING, WALKING, RUNNING), 4, 3),
], ids=["text", "text_after_reasoning"])
def test_subject_renamed_between_frames_rejected(tmp_path, capsys, text, line, frame):
    """A subject binds to the prompt by its name, so one id has one name in every frame; the
    error names the renaming frame's source line."""
    path = tmp_path / "boxes.txt"
    path.write_text(text)
    assert main(["parse-boxes", str(path)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        f"ERROR kind=parse reason=line {line}: subject id 0 is named 'walking man' in frame 1 "
        f"and 'running dog' in frame {frame}"]


def _load_boxes(path):
    return parse_llm_boxes(read_text(path))


@pytest.mark.parametrize("text,load", [
    (WOMAN_MAN_BOXES, _load_boxes),
    ("lambda_sp = 10\nt1 = 3\n", GuidanceConfig.from_file),
    (MODEL_CFG, ToyModelConfig.from_file),
    ("t1 = 2, 3\nlambda_sp = 10\n", _parse_grid_file),
], ids=["boxes_text", "config", "model_config", "grid"])
def test_byte_order_mark_is_ignored(tmp_path, text, load):
    """Editors that save "UTF-8 with BOM" start the file with U+FEFF; it loads as without."""
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    assert load(marked) == load(plain)


def test_structured_boxes_with_quote_in_name(tmp_path, capsys):
    path = tmp_path / "boxes.txt"
    path.write_text(_text_boxes([{"id": 0, "name": "man's dog", "box": [0, 0, 9, 9]}]))
    assert main(["parse-boxes", str(path)]) == 0
    assert "'name': \"man's dog\"" in capsys.readouterr().out


class TestRender:
    def test_render_from_run_dir(self, tmp_path, small_run_args, capsys):
        assert main(small_run_args("run")) == 0
        out = tmp_path / "map.pgm"
        assert main(["render", str(tmp_path / "run"), "--token", "2",
                     "--step", "12", "--upscale", "2", "--out", str(out)]) == 0
        body = out.read_bytes()
        assert body.startswith(b"P5\n8 8\n255\n")
        # Without --upscale, each cell of the 4x4 capture grid is 8 px a side.
        assert main(["render", str(tmp_path / "run"), "--token", "2",
                     "--step", "12", "--out", str(out)]) == 0
        assert out.read_bytes().startswith(b"P5\n32 32\n255\n")

    def test_missing_step_rejected(self, tmp_path, small_run_args, capsys):
        assert main(small_run_args("run")) == 0
        assert main(["render", str(tmp_path / "run"), "--token", "2",
                     "--step", "7", "--out", str(tmp_path / "x.pgm")]) == 2
        assert "no CA snapshot" in capsys.readouterr().out

    def test_out_of_range_token_or_frame_rejected(self, tmp_path, small_run_args, capsys):
        assert main(small_run_args("run")) == 0
        capsys.readouterr()
        # The heatmaps are 4 px a side, and a side may not pass 65535 px.
        for option, index in (("--token", "99"), ("--token", "-1"), ("--frame", "99"),
                              ("--upscale", "0"), ("--upscale", "16384"),
                              ("--upscale", "1000000000000")):
            out = tmp_path / "x.pgm"
            argv = ["render", str(tmp_path / "run"), "--token", "2", "--step", "12",
                    "--out", str(out), option, index]
            assert main(argv) == 2
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 1 and lines[0].startswith("ERROR kind=parse")
            assert not out.exists()

    @pytest.mark.parametrize("body", [b"not an archive", b"", b"PK\x03\x04 cut short",
                                      b"\x93NUMPY", "one .npy array"])
    def test_unreadable_archive_rejected(self, tmp_path, capsys, body):
        (tmp_path / "run").mkdir()
        path = tmp_path / "run" / "ca_records.npz"
        if isinstance(body, bytes):
            path.write_bytes(body)
        else:
            with open(path, "wb") as fh:
                np.save(fh, np.zeros((2, 4, 16)))
        out = tmp_path / "x.pgm"
        assert main(["render", str(tmp_path / "run"), "--token", "2", "--step", "1",
                     "--out", str(out)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR kind=parse")
        assert "not an npz archive" in lines[0]
        assert not out.exists()

    def test_range_past_the_float_range(self, tmp_path, capsys):
        """A finite map from -1e308 to 1e308 scales without overflow: 0, 128 and 255."""
        (tmp_path / "run").mkdir()
        snapshot = np.full((1, 4, 3), 0.5)
        snapshot[0, 0, 1], snapshot[0, 3, 1] = -1e308, 1e308
        np.savez(tmp_path / "run" / "ca_records.npz", step1=snapshot)
        out = tmp_path / "x.pgm"
        assert main(["render", str(tmp_path / "run"), "--token", "1", "--step", "1",
                     "--upscale", "1", "--out", str(out)]) == 0
        assert out.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 128, 128, 255])

    def test_out_in_a_missing_directory_is_one_io_error(self, tmp_path, capsys):
        (tmp_path / "run").mkdir()
        np.savez(tmp_path / "run" / "ca_records.npz", step1=np.full((1, 4, 3), 0.5))
        out = tmp_path / "missing" / "x.pgm"
        assert main(["render", str(tmp_path / "run"), "--token", "1", "--step", "1",
                     "--out", str(out)]) == 4
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR kind=io reason=cannot write heatmap")
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("snapshot", [np.arange(4.0), np.array(["a", "b", "c", "d"]),
                                          np.zeros((1, 0, 1)), np.full((1, 4, 1), np.nan)],
                             ids=["one_axis", "strings", "no_pixels", "all_nan"])
    def test_malformed_snapshot_rejected(self, tmp_path, capsys, snapshot):
        (tmp_path / "run").mkdir()
        np.savez(tmp_path / "run" / "ca_records.npz", step1=snapshot)
        out = tmp_path / "x.pgm"
        assert main(["render", str(tmp_path / "run"), "--token", "0", "--step", "1",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR kind=parse")
        assert "Traceback" not in captured.err
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["generate", TEMPLATE_PROMPT, "BOXES", "--out", "OUT", "--seed", "-1"],
    ["ablate", "--seeds", "-1", "--out", "OUT"],
    ["gradcheck", "stub", "--seed", "-1"],
], ids=["generate", "ablate", "gradcheck"])
def test_negative_seed_is_one_parse_error(tmp_path, boxes_file, capsys, argv):
    argv = [{"BOXES": boxes_file, "OUT": str(tmp_path / "out")}.get(a, a) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    errors = [ln for ln in captured.out.splitlines() if ln.startswith("ERROR")]
    assert len(errors) == 1 and errors[0].startswith("ERROR kind=parse")
    assert "non-negative" in errors[0]
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "out").exists()


def _run_argv(command, out_dir, files):
    """`generate` or a one-seed `ablate` of the small model on the file options in `files`."""
    files = {k: str(v) for k, v in files.items()}
    options = ["--out", str(out_dir), "--model-config", files["model_config"],
               "--config", files["config"]]
    if command == "generate":
        return ["generate", TEMPLATE_PROMPT, files["boxes"], "--seed", "0", *options]
    return ["ablate", "--seeds", "0", "--boxes", files["boxes"], *options]


@pytest.mark.parametrize("command", ["generate", "ablate"])
def test_manifest_bytes_do_not_depend_on_where_the_inputs_sit(tmp_path, capsys, command):
    """The same boxes and configs under two directories give equal manifests, timestamps
    aside: the digests are keyed by option name, not by path."""
    records = []
    for where in ("a", "a_much_longer_directory_name"):
        inputs = tmp_path / where
        inputs.mkdir()
        files = {"boxes": inputs / "boxes.txt", "config": inputs / "guide.cfg",
                 "model_config": inputs / "model.cfg"}
        for name, text in (("boxes", WOMAN_MAN_BOXES), ("config", GUIDE_CFG),
                           ("model_config", MODEL_CFG)):
            files[name].write_text(text)
        assert main(_run_argv(command, inputs / "out", files)) == 0
        records.append(json.loads((inputs / "out" / "manifest.json").read_text()))
        del records[-1]["started_at"], records[-1]["finished_at"]
    assert records[0] == records[1]
    assert sorted(records[0]["input_digests"]) == ["boxes", "config", "model_config"]


@pytest.mark.parametrize("command", ["generate", "ablate"])
@pytest.mark.parametrize("occupant", ["file_inside", "file_as_out"])
def test_out_holding_files_is_refused(tmp_path, boxes_file, capsys, command, occupant):
    """A run directory holds one run: an --out that holds a file, or is one, exits 2 with one
    ERROR line before any sampling and is left as it was; an empty --out is used."""
    (tmp_path / "model.cfg").write_text(MODEL_CFG)
    (tmp_path / "guide.cfg").write_text(GUIDE_CFG)
    files = {"boxes": boxes_file, "config": tmp_path / "guide.cfg",
             "model_config": tmp_path / "model.cfg"}
    out_dir = tmp_path / "run"
    if occupant == "file_inside":
        out_dir.mkdir()
        (out_dir / "trace.jsonl").write_bytes(b"an earlier run's trace")
    else:
        out_dir.write_bytes(b"a file")
    before = sorted((p.relative_to(tmp_path), p.read_bytes()) for p in tmp_path.rglob("*")
                    if p.is_file())
    assert main(_run_argv(command, out_dir, files)) == 2
    assert capsys.readouterr().out.splitlines() == [
        f"ERROR kind=parse reason=--out {out_dir} exists and is not an empty directory"]
    assert sorted((p.relative_to(tmp_path), p.read_bytes()) for p in tmp_path.rglob("*")
                  if p.is_file()) == before
    (tmp_path / "empty").mkdir()
    assert main(_run_argv(command, tmp_path / "empty", files)) == 0
    assert (tmp_path / "empty" / "manifest.json").exists()


@pytest.mark.parametrize("command", ["generate", "ablate"])
def test_out_under_a_file_fails_before_the_run(tmp_path, boxes_file, capsys, monkeypatch,
                                               command):
    """An --out that no directory can hold exits 4 with one ERROR line, before sampling."""
    import attnguide.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("sampled for an --out that cannot be written")

    monkeypatch.setattr(cli, "run_guided_sampling", no_run)
    monkeypatch.setattr(cli, "run_ablation", no_run)
    (tmp_path / "model.cfg").write_text(MODEL_CFG)
    (tmp_path / "guide.cfg").write_text(GUIDE_CFG)
    files = {"boxes": boxes_file, "config": tmp_path / "guide.cfg",
             "model_config": tmp_path / "model.cfg"}
    (tmp_path / "afile").write_bytes(b"a file")
    out_dir = tmp_path / "afile" / "sub" / "run"
    assert main(_run_argv(command, out_dir, files)) == 4
    assert capsys.readouterr().out.splitlines() == [
        f"ERROR kind=io reason=--out {out_dir} lies under {tmp_path / 'afile'}, "
        "which is not a directory"]
    assert (tmp_path / "afile").read_bytes() == b"a file"


def test_module_entry_point_exits_with_the_error_code():
    """`python -m attnguide.cli` returns `main`'s exit code, after one ERROR line."""
    proc = subprocess.run([sys.executable, "-m", "attnguide.cli", "parse-prompt", "and"],
                          capture_output=True, text=True, env=_subprocess_env())
    assert proc.returncode == 2
    assert [ln.split(" reason=")[0] for ln in proc.stdout.splitlines()] == ["ERROR kind=parse"]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command,head", [
    (["rasterize", "--grid", "64x64"], b"subject=0 frame=0\n"),  # fails amid the masks
    (["parse-boxes"], b""),  # a few lines, which fail only as the buffer is flushed
], ids=["after_one_line", "before_any"])
def test_closed_stdout_exits_4_without_traceback(tmp_path, command, head):
    """A reader that goes once it has `head`, as `| head -1` does: the rest of the output
    meets a closed pipe, and with no ERROR line to print the exit code alone tells."""
    boxes = tmp_path / "boxes.txt"
    boxes.write_text("".join(f"Frame {k}: [{{'id': 0, 'name': 'man', 'box': [0, 0, 288, 320]}}]\n"
                             for k in range(1, 41)) + "Background keyword: room\n")
    # `rasterize` writes about 170 KB of masks, well past what the pipe buffers
    env = _subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as for any pipe
    read_fd, write_fd = os.pipe()
    reader = os.fdopen(read_fd, "rb", buffering=0)
    if not head:
        reader.close()
    proc = subprocess.Popen([sys.executable, "-m", "attnguide.cli", command[0], str(boxes),
                             *command[1:]], stdout=write_fd, stderr=subprocess.PIPE,
                            env=env)
    os.close(write_fd)
    if head:
        assert reader.readline() == head
        reader.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 4
    assert "Traceback" not in stderr and "Exception ignored" not in stderr, stderr
