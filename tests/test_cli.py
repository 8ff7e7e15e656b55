import json

import numpy as np
import pytest

from attnguide.cli import main

from conftest import DOG_CAT_BOXES, TEMPLATE_PROMPT, WOMAN_MAN_BOXES

MODEL_CFG = (
    "frames = 2\n"
    "latent_h = 4\n"
    "latent_w = 4\n"
    "levels = down:4, mid:2, up:4\n"
    "embed_dim = 8\n"
    "total_steps = 12\n"
)
GUIDE_CFG = (
    "total_steps = 12\n"
    "t1 = 2\n"
    "t2 = 4\n"
    "iters_spatial_per_step = 2\n"
    "iters_syntax_per_step = 1\n"
)


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
        path = tmp_path / "dogcat.txt"
        path.write_text(DOG_CAT_BOXES)
        assert main(["validate-boxes", str(path)]) == 0
        out = capsys.readouterr().out
        assert "violation kind=VELOCITY subject=0 frame=7" in out
        assert "violations=1" in out
        assert main(["validate-boxes", str(path), "--max-step-px", "130"]) == 0
        assert "violations=0" in capsys.readouterr().out

    def test_rasterize_stdout(self, boxes_file, capsys):
        assert main(["rasterize", boxes_file, "--grid", "4x4"]) == 0
        out = capsys.readouterr().out
        assert "subject=0 frame=0" in out
        assert any(set(line) <= {"0", "1"} and line for line in out.splitlines())

    def test_rasterize_npz(self, boxes_file, tmp_path, capsys):
        out = tmp_path / "masks.npz"
        assert main(["rasterize", boxes_file, "--grid", "4x4", "--out", str(out)]) == 0
        data = np.load(out)
        assert "s0_f0" in data and data["s0_f0"].shape == (4, 4)

    def test_rasterize_bad_grid(self, boxes_file, capsys):
        assert main(["rasterize", boxes_file, "--grid", "4by4"]) == 2


class TestGenerate:
    def test_end_to_end_outputs(self, tmp_path, small_run_args, capsys):
        assert main(small_run_args("run")) == 0
        out_dir = tmp_path / "run"
        assert "ok records=6" in capsys.readouterr().out

        trace = [json.loads(ln) for ln in (out_dir / "trace.jsonl").read_text().splitlines()]
        assert len(trace) == 6  # t1*iters_spatial + (t2-t1)*iters_syntax
        assert {r["loss"] for r in trace} == {"spatial", "syntax"}

        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["complete"] is True
        assert manifest["unguided"] is False
        assert manifest["seed"] == 0
        assert len(manifest["input_digests"]) == 2

        data = np.load(out_dir / "ca_records.npz")
        assert {"step1", "step2", "step4", "step12", "grid"} <= set(data.files)

        pgms = sorted(p.name for p in (out_dir / "heatmaps").glob("*.pgm"))
        assert "step1_tok2.pgm" in pgms and "step12_tok9.pgm" in pgms

        metrics = (out_dir / "metrics.jsonl").read_text()
        assert "mean_in_box_ratio_final" in metrics

    def test_byte_reproducible(self, tmp_path, small_run_args):
        assert main(small_run_args("a")) == 0
        assert main(small_run_args("b")) == 0
        for name in ("trace.jsonl", "metrics.jsonl", "metrics.txt", "latent_summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for pgm in sorted((tmp_path / "a" / "heatmaps").glob("*.pgm")):
            twin = tmp_path / "b" / "heatmaps" / pgm.name
            assert pgm.read_bytes() == twin.read_bytes()

    def test_velocity_violation_blocks_without_force(self, tmp_path, capsys):
        boxes = tmp_path / "dogcat.txt"
        boxes.write_text(DOG_CAT_BOXES)
        (tmp_path / "model.cfg").write_text(MODEL_CFG)
        (tmp_path / "guide.cfg").write_text(GUIDE_CFG)
        argv = ["generate", TEMPLATE_PROMPT, str(boxes), "--out", str(tmp_path / "run"),
                "--model-config", str(tmp_path / "model.cfg"),
                "--config", str(tmp_path / "guide.cfg")]
        assert main(argv) == 2
        assert "ERROR kind=validation" in capsys.readouterr().out
        assert main(argv + ["--force"]) == 0

    def test_unguided_flagged_in_manifest(self, tmp_path, boxes_file):
        (tmp_path / "model.cfg").write_text(MODEL_CFG)
        (tmp_path / "guide.cfg").write_text(GUIDE_CFG + "lambda_sp = 0\nlambda_syt = 0\n")
        assert main(["generate", TEMPLATE_PROMPT, boxes_file,
                     "--out", str(tmp_path / "run"),
                     "--model-config", str(tmp_path / "model.cfg"),
                     "--config", str(tmp_path / "guide.cfg")]) == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["unguided"] is True


class TestGradcheck:
    def test_stub_and_losses_pass(self, capsys):
        assert main(["gradcheck", "stub"]) == 0
        assert main(["gradcheck", "losses"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "worst_rel_err" in out

    def test_corrupted_gradient_detected(self, capsys):
        assert main(["gradcheck", "stub", "--corrupt-gradient"]) == 5
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
        rows = (tmp_path / "abl" / "ablation.jsonl").read_text().splitlines()[1:]
        assert all(json.loads(r)["axis"] == "base" for r in rows)

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

    def test_unknown_axis_rejected(self, tmp_path, capsys):
        (tmp_path / "grid.txt").write_text("momentum = 0.9\n")
        assert main(["ablate", "--grid", str(tmp_path / "grid.txt"),
                     "--out", str(tmp_path / "abl")]) == 2
        assert "unknown axis" in capsys.readouterr().out


def _structured(record=None, **overrides):
    """A two-frame JSON box prior holding `record` in each frame."""
    record = record or {"id": 0, "name": "walking man", "box": [0, 0, 288, 320]}
    obj = {"frame_size": [576, 320], "frames": [[record]] * 2, "background": "room"}
    obj.update(overrides)
    return json.dumps(obj)


# (file role, file contents): every one is a user input error and must exit 2.
BAD_INPUTS = {
    "model_unknown_key": ("model", "bogus = 3\n"),
    "model_bad_levels": ("model", "levels = down8\n"),
    "model_fractional_frames": ("model", "frames = 2.5\n"),
    "model_zero_heads": ("model", "heads = 0\n"),
    "model_negative_embed_dim": ("model", "embed_dim = -4\n"),
    "model_zero_latent_h": ("model", "latent_h = 0\n"),
    "model_levels_exceed_latent": ("model", "latent_h = 4\nlatent_w = 4\n"),
    "model_not_utf8": ("model", b"\xff\xfeframes = 2\n"),
    "guide_not_a_number": ("guide", "lambda_sp = abc\n"),
    "guide_non_finite": ("guide", "lambda_sp = nan\nalpha = inf\n"),
    "guide_bad_boolean": ("guide", "neg_includes_verb = maybe\n"),
    "grid_not_an_integer": ("grid", "t1 = x\n"),
    "grid_not_utf8": ("grid", b"t1 = 1, \xe9\n"),
    "boxes_string_id": ("boxes", _structured({"id": "0", "name": "man", "box": [0, 0, 9, 9]})),
    "boxes_missing_name": ("boxes", _structured({"id": 0, "box": [0, 0, 9, 9]})),
    "boxes_bad_box_value": ("boxes", _structured({"id": 0, "name": "m", "box": [0, "w", 0, 9]})),
    "boxes_bad_frame_size": ("boxes", _structured(frame_size="wide")),
    "boxes_bad_frames": ("boxes", _structured(frames=5)),
    "boxes_not_utf8": ("boxes", b"\xff\xfe" + WOMAN_MAN_BOXES.encode()),
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
    }[role]
    assert main(argv) == 2
    captured = capsys.readouterr()
    errors = [ln for ln in captured.out.splitlines() if ln.startswith("ERROR")]
    assert len(errors) == 1 and errors[0].startswith("ERROR kind=parse")
    assert "Traceback" not in captured.out + captured.err


def test_structured_boxes_with_quote_in_name(tmp_path, capsys):
    path = tmp_path / "boxes.json"
    path.write_text(_structured({"id": 0, "name": "man's dog", "box": [0, 0, 9, 9]}))
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

    def test_missing_step_rejected(self, tmp_path, small_run_args, capsys):
        assert main(small_run_args("run")) == 0
        assert main(["render", str(tmp_path / "run"), "--token", "2",
                     "--step", "7", "--out", str(tmp_path / "x.pgm")]) == 2
        assert "no CA snapshot" in capsys.readouterr().out
