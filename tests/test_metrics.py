import numpy as np
import pytest

from attnguide.autodiff import Tensor
from attnguide.boxes import MaskSet
from attnguide.denoiser import CAMapStack, ToyDenoiser
from attnguide.errors import ContractError, DegenerateAttentionError, InputError
from attnguide.guidance import (
    COSINE,
    KL_SYM,
    GuidanceConfig,
    in_box_ratios,
    loss_fg,
    run_guided_sampling,
)
from attnguide.metrics import (
    DEFAULT_ABLATION_AXES,
    MetricsReport,
    count_components,
    in_box_ratio,
    render_heatmap,
    run_ablation,
    summarize_run,
    verb_noun_alignment,
)
from attnguide.syntax import SyntaxPairs

from conftest import TEMPLATE_PROMPT, static_two_box_prior, tiny_model_config


def mask_set(mask, frames=1, key=0):
    mask = np.asarray(mask, dtype=float)
    return MaskSet(mask.shape[0], mask.shape[1], {(key, f): mask for f in range(frames)})


class TestInBoxRatio:
    def test_uniform_half_mask(self):
        ca = np.full((1, 4, 2), 0.5)
        masks = mask_set([[1.0, 1.0], [0.0, 0.0]])
        assert abs(in_box_ratio(ca, masks, 0, 0) - 0.5) <= 1e-12

    def test_all_mass_inside(self):
        A = np.zeros((1, 4, 1))
        A[0, :2, 0] = 0.5
        masks = mask_set([[1.0, 1.0], [0.0, 0.0]])
        assert in_box_ratio(A, masks, 0, 0) == 1.0

    def test_relates_to_loss_fg_by_square(self, rng):
        """loss_fg == frame-mean (1 - ratio)^2 for a single tracked noun."""
        for _ in range(100):
            A = rng.uniform(0.01, 1.0, size=(2, 4, 2))
            masks = mask_set(rng.integers(0, 2, size=(2, 2)).astype(float), frames=2)
            pairs = SyntaxPairs(pairs=[(0, 1)], negatives={(0, 1): frozenset()})
            expected = np.mean([
                (1.0 - in_box_ratio(A, masks, 0, f)) ** 2 for f in range(2)
            ])
            ca = CAMapStack(A=Tensor(A), grid_h=2, grid_w=2)
            got = loss_fg(ca, masks, pairs, include_verbs=False).item()
            assert abs(np.sqrt(got) - np.sqrt(expected)) <= 1e-12

    def test_zero_mass_rejected(self):
        ca = np.zeros((1, 4, 1))
        with pytest.raises(DegenerateAttentionError):
            in_box_ratio(ca, mask_set(np.ones((2, 2))), 0, 0)

    def test_all_frames_match_per_frame_form_bit_exactly(self, rng):
        A = rng.uniform(0.0, 1.0, size=(5, 64, 3))
        masks = MaskSet(8, 8, {(1, f): rng.integers(0, 2, size=(8, 8)).astype(float)
                               for f in range(5)})
        got = in_box_ratios(A, masks, 1)
        assert got.tolist() == [in_box_ratio(A, masks, 1, f) for f in range(5)]

    def test_all_frames_name_the_zero_mass_frame(self):
        A = np.full((3, 4, 1), 0.25)
        A[2] = 0.0
        with pytest.raises(DegenerateAttentionError, match="frame 2"):
            in_box_ratios(A, mask_set(np.ones((2, 2)), frames=3), 0)


class TestCountComponents:
    def test_two_blobs(self):
        grid = np.zeros((4, 4))
        grid[0, 0] = grid[3, 3] = 1.0
        ca = grid.reshape(1, 16, 1)
        assert count_components(ca, 0, 0) == 2

    def test_single_blob(self):
        grid = np.zeros((4, 4))
        grid[1:3, 1:3] = 1.0
        ca = grid.reshape(1, 16, 1)
        assert count_components(ca, 0, 0) == 1

    def test_diagonal_cells_are_separate(self):
        """4-connectivity: diagonally touching cells are distinct components."""
        grid = np.zeros((4, 4))
        grid[0, 0] = grid[1, 1] = 1.0
        ca = grid.reshape(1, 16, 1)
        assert count_components(ca, 0, 0) == 2

    def test_threshold_bounds(self):
        ca = np.ones((1, 16, 1))
        with pytest.raises(ContractError):
            count_components(ca, 0, 0, rel_threshold=1.0)
        with pytest.raises(ContractError):
            count_components(ca, 0, 0, rel_threshold=0.0)

    def test_raw_snapshot_array(self):
        """The [F, N, L] arrays in SamplingResult.ca_records are accepted as-is."""
        res = _small_run()
        values = res.ca_records[res.config.total_steps]
        noun = res.column_pairs.pairs[0][0]
        assert count_components(values, noun, 0) >= 1

    def test_non_square_pixel_count_rejected(self, tmp_path):
        ca = np.ones((1, 6, 1))
        with pytest.raises(ContractError, match="square"):
            count_components(ca, 0, 0)
        with pytest.raises(ContractError, match="square"):
            render_heatmap(ca, 0, 0, tmp_path / "x.pgm")


class TestAlignment:
    def test_identical_maps_zero(self):
        A = np.zeros((2, 4, 2))
        A[..., 0] = A[..., 1] = 0.25
        assert verb_noun_alignment(A, (0, 1)) <= 1e-12

    def test_cosine_kind(self, rng):
        A = rng.uniform(0.05, 1.0, size=(2, 4, 2))
        sym = verb_noun_alignment(A, (0, 1), kind=KL_SYM)
        cos = verb_noun_alignment(A, (0, 1), kind=COSINE)
        assert sym >= 0 and cos >= 0
        assert sym != cos


class TestRenderHeatmap:
    def test_pixel_exact_fixture(self, tmp_path):
        A = np.array([[0.0], [1.0], [0.5], [0.25]]).reshape(1, 4, 1)
        path = tmp_path / "map.pgm"
        render_heatmap(A, 0, 0, path)
        expected = b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64])
        assert path.read_bytes() == expected

    def test_constant_map_all_zeros(self, tmp_path):
        path = tmp_path / "flat.pgm"
        render_heatmap(np.full((1, 4, 1), 0.3), 0, 0, path)
        assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes(4)

    def test_upscale(self, tmp_path):
        A = np.array([[0.0], [1.0], [1.0], [0.0]]).reshape(1, 4, 1)
        path = tmp_path / "up.pgm"
        render_heatmap(A, 0, 0, path, upscale=2)
        body = path.read_bytes()
        assert body.startswith(b"P5\n4 4\n255\n")
        img = np.frombuffer(body[len(b"P5\n4 4\n255\n"):], dtype=np.uint8).reshape(4, 4)
        assert np.array_equal(img[:2, :2], np.zeros((2, 2)))
        assert np.array_equal(img[:2, 2:], np.full((2, 2), 255))

    def test_deterministic_bytes(self, tmp_path, rng):
        A = rng.uniform(size=(1, 16, 1))
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        render_heatmap(A, 0, 0, p1)
        render_heatmap(A, 0, 0, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_upscale(self, tmp_path):
        with pytest.raises(ContractError):
            render_heatmap(np.ones((1, 4, 1)), 0, 0, tmp_path / "x.pgm", upscale=0)


class TestReport:
    def test_jsonl_round_trip(self):
        rep = MetricsReport(config_echo={"seeds": [1, 2]})
        rep.add_row(axis="t1", value="3", seed=1, mean_in_box_ratio_final=0.5)
        rep.add_row(axis="t1", value="5", seed=1, mean_in_box_ratio_final=0.75)
        again = MetricsReport.from_jsonl(rep.to_jsonl())
        assert again.rows == rep.rows
        assert again.config_echo == rep.config_echo

    def test_empty_text_rejected(self):
        with pytest.raises(InputError):
            MetricsReport.from_jsonl("")

    def test_table_alignment(self):
        rep = MetricsReport()
        rep.add_row(axis="lambda_sp", value="10.0", seed=0)
        rep.add_row(axis="t1", value="3", seed=12)
        lines = rep.table().splitlines()
        assert len(lines) == 3
        assert len({len(ln) for ln in lines}) == 1  # padded to equal width
        assert lines[0].split() == ["axis", "seed", "value"]

    def test_empty_table(self):
        assert MetricsReport().table() == "(no rows)\n"


def _small_run(**cfg_overrides):
    model = ToyDenoiser(tiny_model_config(total_steps=8))
    cfg = GuidanceConfig(
        total_steps=8, t1=1, t2=3, iters_spatial_per_step=2,
        iters_syntax_per_step=1, **cfg_overrides
    )
    return run_guided_sampling(TEMPLATE_PROMPT, static_two_box_prior(2), cfg, model, seed=0)


class TestSummarize:
    def test_expected_keys_and_ranges(self):
        out = summarize_run(_small_run())
        for label in ("t1", "t2", "final"):
            assert 0.0 <= out[f"mean_in_box_ratio_{label}"] <= 1.0
            assert out[f"mean_alignment_{label}"] >= 0.0
            assert out[f"mean_components_{label}"] >= 1.0


class TestAblation:
    def _factory(self, base_overrides=None):
        def make(capture):
            overrides = dict(total_steps=8)
            overrides.update(base_overrides or {})
            if capture is not None:
                overrides["ca_capture"] = capture
            return ToyDenoiser(tiny_model_config(**overrides))

        return make

    def _base_config(self):
        return GuidanceConfig(total_steps=8, t1=1, t2=3,
                              iters_spatial_per_step=2, iters_syntax_per_step=1)

    def test_empty_grid_single_base_row_per_seed(self):
        rep = run_ablation({}, self._base_config(), [0, 1], TEMPLATE_PROMPT,
                           static_two_box_prior(2), self._factory())
        assert len(rep.rows) == 2
        assert all(r["axis"] == "base" for r in rep.rows)

    def test_row_count_axes_times_seeds(self):
        axes = {"t1": [1, 2]}
        rep = run_ablation(axes, self._base_config(), [0, 1], TEMPLATE_PROMPT,
                           static_two_box_prior(2), self._factory())
        assert len(rep.rows) == 4
        assert [(r["axis"], r["value"], r["seed"]) for r in rep.rows] == [
            ("t1", "1", 0), ("t1", "1", 1), ("t1", "2", 0), ("t1", "2", 1),
        ]

    def test_invalid_combo_skipped_with_log(self):
        logs = []
        axes = {"t1": [2, 7]}  # t1=7 violates t1 <= t2=3
        rep = run_ablation(axes, self._base_config(), [0], TEMPLATE_PROMPT,
                           static_two_box_prior(2), self._factory(), log=logs.append)
        assert len(rep.rows) == 1
        assert any("t1=7" in msg for msg in logs)

    def test_ca_capture_axis_routes_to_model(self):
        axes = {"ca_capture": ["down", "mid"]}
        rep = run_ablation(axes, self._base_config(), [0], TEMPLATE_PROMPT,
                           static_two_box_prior(2), self._factory())
        assert [r["value"] for r in rep.rows] == ["down", "mid"]
        assert rep.rows[0]["mean_alignment_final"] != rep.rows[1]["mean_alignment_final"]

    def test_default_axes_frozen(self):
        assert DEFAULT_ABLATION_AXES["t1"] == [1, 3, 5, 7]
        assert DEFAULT_ABLATION_AXES["lambda_sp"] == [10.0, 20.0, 30.0, 40.0]
        assert DEFAULT_ABLATION_AXES["distance"] == ["COSINE", "KL_SYM"]
        assert DEFAULT_ABLATION_AXES["contrastive_form"] == ["RATIO", "SUM"]
        assert sum(len(v) for v in DEFAULT_ABLATION_AXES.values()) == 28
