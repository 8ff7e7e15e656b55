import json
import tracemalloc

import numpy as np
import pytest

from attnguide.autodiff import Tensor
from attnguide.boxes import parse_llm_boxes
from attnguide.denoiser import ToyDenoiser, ToyModelConfig
from attnguide.errors import ContractError, DegenerateAttentionError, InputError
from attnguide.guidance import (
    GuidanceConfig,
    in_box_ratios,
    loss_fg,
    run_guided_sampling,
)
from attnguide.metrics import (
    DEFAULT_ABLATION_AXES,
    AblationInterrupted,
    MetricsReport,
    count_components,
    render_heatmap,
    run_ablation,
    summarize_run,
    verb_noun_alignment,
)
from attnguide.syntax import SyntaxPairs

from composites import in_box_ratio, kl_sym_oracle
from conftest import (
    MAN_DOG_BOXES,
    TEMPLATE_PROMPT,
    mask_set,
    static_two_box_prior,
    tiny_model_config,
)


class TestInBoxRatio:
    def test_uniform_half_mask(self):
        ca = np.full((1, 4, 2), 0.5)
        masks = mask_set([[1.0, 1.0], [0.0, 0.0]], frames=1)
        assert abs(in_box_ratio(ca, masks, 0, 0) - 0.5) <= 1e-12

    def test_all_mass_inside(self):
        A = np.zeros((1, 4, 1))
        A[0, :2, 0] = 0.5
        masks = mask_set([[1.0, 1.0], [0.0, 0.0]], frames=1)
        assert in_box_ratio(A, masks, 0, 0) == 1.0

    def test_relates_to_loss_fg_by_square(self, rng):
        """loss_fg == frame-mean (1 - ratio)^2 summed over the noun and its verb, both
        against the noun's mask."""
        for _ in range(100):
            A = rng.uniform(0.01, 1.0, size=(2, 4, 2))
            masks = mask_set(rng.integers(0, 2, size=(2, 2)).astype(float), frames=2)
            pairs = SyntaxPairs([(0, 1)], frozenset({0, 1}))
            expected = sum(np.mean([
                (1.0 - in_box_ratio(A, {t: masks[0]}, t, f)) ** 2 for f in range(2)
            ]) for t in (0, 1))
            got = loss_fg(Tensor(A), masks, pairs).item()
            assert abs(np.sqrt(got) - np.sqrt(expected)) <= 1e-12

    def test_zero_mass_rejected(self):
        ca = np.zeros((1, 4, 1))
        with pytest.raises(DegenerateAttentionError):
            in_box_ratio(ca, mask_set(np.ones((2, 2)), frames=1), 0, 0)

    def test_all_frames_match_per_frame_form_bit_exactly(self, rng):
        A = rng.uniform(0.0, 1.0, size=(5, 64, 3))
        masks = {t: np.stack([rng.integers(0, 2, size=(8, 8)).astype(float) for f in range(5)])
                 for t in (1, 2)}
        got = in_box_ratios(A, masks, [2, 1])
        assert got.tolist() == [[in_box_ratio(A, masks, t, f) for f in range(5)] for t in (2, 1)]

    def test_all_frames_name_the_zero_mass_frame(self):
        A = np.full((3, 4, 1), 0.25)
        A[2] = 0.0
        with pytest.raises(DegenerateAttentionError, match="frame 2"):
            in_box_ratios(A, mask_set(np.ones((2, 2)), frames=3), [0])


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
            render_heatmap(ca, 0, 0, tmp_path / "x.pgm", upscale=1)

    @staticmethod
    def count_drawn(*rows):
        """Components of a map drawn as rows of `#` (1.0) and `.` (0.0)."""
        grid = np.array([[float(c == "#") for c in row] for row in rows])
        return count_components(grid.reshape(1, grid.size, 1), 0, 0)

    def test_comb_joined_on_last_row(self):
        """Arms a row-by-row scan meets apart merge only on the last row."""
        assert self.count_drawn("#.#.#",
                                "#.#.#",
                                "#.#.#",
                                "#.#.#",
                                "#####") == 1
        assert self.count_drawn("#..#",
                                "#..#",
                                "#..#",
                                "####") == 1

    def test_ring_with_hole(self):
        assert self.count_drawn("#####",
                                "#...#",
                                "#...#",
                                "#...#",
                                "#####") == 1

    def test_spiral(self):
        assert self.count_drawn("#######",
                                "......#",
                                "#####.#",
                                "#...#.#",
                                "#.###.#",
                                "#.....#",
                                "#######") == 1

    def test_checkerboard_cells_are_separate(self):
        grid = np.indices((8, 8)).sum(axis=0) % 2 == 0
        assert count_components(grid.astype(float).reshape(1, 64, 1), 0, 0) == 32

    def test_one_cell_map(self):
        assert count_components(np.full((1, 1, 1), 0.3), 0, 0) == 1

    def test_constant_map_is_one_component(self):
        """Every cell of a constant map is at or above half its max."""
        assert count_components(np.full((1, 64, 1), 0.25), 0, 0) == 1


class TestAlignment:
    def test_identical_maps_zero(self):
        A = np.zeros((2, 4, 2))
        A[..., 0] = A[..., 1] = 0.25
        assert verb_noun_alignment(A, (0, 1)) <= 1e-12

    def test_is_frame_mean_kl_sym(self, rng):
        A = rng.uniform(0.05, 1.0, size=(2, 4, 2))
        expected = kl_sym_oracle(A[..., 0], A[..., 1]).mean()
        assert abs(verb_noun_alignment(A, (0, 1)) - expected) <= 1e-12

    @pytest.mark.parametrize("seed,shape,pair,expected", [
        (0, (2, 4, 3), (0, 1), "0x1.28ffb078fa9d8p+2"),
        (1, (8, 64, 16), (2, 4), "0x1.ed20c43cc81b6p+0"),
        # these two name the verb's column first
        (2, (3, 16, 8), (6, 1), "0x1.ead625a911ccep+0"),
        (3, (1, 9, 5), (4, 0), "0x1.5b4d937012229p+2"),
    ])
    def test_alignment_bytes(self, seed, shape, pair, expected):
        ca = np.random.default_rng(seed).uniform(0.0, 1.0, shape) ** 3
        assert verb_noun_alignment(ca, pair).hex() == expected

    @pytest.mark.kernel_bound
    def test_default_run_metrics_bytes(self):
        """The metrics row of `TestBitExactness.test_default_run_digest`'s run."""
        res = run_guided_sampling(TEMPLATE_PROMPT, parse_llm_boxes(MAN_DOG_BOXES),
                                  GuidanceConfig(), ToyDenoiser(ToyModelConfig()), seed=0)
        assert {k: v.hex() for k, v in summarize_run(res).items()} == {
            "mean_alignment_final": "0x1.83e3c4dc2a0c8p+2",
            "mean_alignment_t1": "0x1.639d5350e485bp+2",
            "mean_alignment_t2": "0x1.73b7115846394p+2",
            "mean_components_final": "0x1.4000000000000p+2",
            "mean_components_t1": "0x1.4000000000000p+2",
            "mean_components_t2": "0x1.6000000000000p+2",
            "mean_in_box_ratio_final": "0x1.f1109fd50a04bp-2",
            "mean_in_box_ratio_t1": "0x1.069979e49227cp-1",
            "mean_in_box_ratio_t2": "0x1.0b043d18a9f67p-1",
        }


class TestRenderHeatmap:
    def test_pixel_exact_fixture(self, tmp_path):
        A = np.array([[0.0], [1.0], [0.5], [0.25]]).reshape(1, 4, 1)
        path = tmp_path / "map.pgm"
        render_heatmap(A, 0, 0, path, upscale=1)
        expected = b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64])
        assert path.read_bytes() == expected

    def test_constant_map_all_zeros(self, tmp_path):
        path = tmp_path / "flat.pgm"
        render_heatmap(np.full((1, 4, 1), 0.3), 0, 0, path, upscale=1)
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
        render_heatmap(A, 0, 0, p1, upscale=1)
        render_heatmap(A, 0, 0, p2, upscale=1)
        assert p1.read_bytes() == p2.read_bytes()

    def test_upscale_repeats_each_cell(self, tmp_path, rng):
        A = rng.uniform(size=(1, 9, 1))
        render_heatmap(A, 0, 0, tmp_path / "one.pgm", upscale=1)
        render_heatmap(A, 0, 0, tmp_path / "up.pgm", upscale=3)
        cells = np.frombuffer(tmp_path.joinpath("one.pgm").read_bytes()[-9:], np.uint8)
        expected = np.repeat(np.repeat(cells.reshape(3, 3), 3, axis=0), 3, axis=1)
        assert tmp_path.joinpath("up.pgm").read_bytes() == b"P5\n9 9\n255\n" + expected.tobytes()

    def test_large_upscale_holds_one_row(self, tmp_path, rng):
        """A 2,048 px side from an 8x8 map: about 12.6 MB held when the whole image was."""
        tracemalloc.start()
        try:
            render_heatmap(rng.uniform(size=(1, 64, 1)), 0, 0, tmp_path / "big.pgm", upscale=256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tmp_path.joinpath("big.pgm").stat().st_size == len(b"P5\n2048 2048\n255\n") + 2048**2
        assert peak < 1_000_000

    def test_bad_upscale(self, tmp_path):
        with pytest.raises(ContractError):
            render_heatmap(np.ones((1, 4, 1)), 0, 0, tmp_path / "x.pgm", upscale=0)
        with pytest.raises(InputError, match="65535"):  # a 2 px map made 65,536 px a side
            render_heatmap(np.ones((1, 4, 1)), 0, 0, tmp_path / "x.pgm", upscale=32768)
        assert not (tmp_path / "x.pgm").exists()


class TestReport:
    def test_jsonl_round_trip(self):
        rep = MetricsReport([dict(axis="t1", value="3", seed=1, mean_in_box_ratio_final=0.5),
                             dict(axis="t1", value="5", seed=1, mean_in_box_ratio_final=0.75)])
        text = rep.to_jsonl()
        assert [json.loads(ln) for ln in text.splitlines()] == rep.rows  # one object per row
        assert MetricsReport.from_jsonl(text).rows == rep.rows

    def test_table_alignment(self):
        rep = MetricsReport([dict(axis="lambda_sp", value="10.0", seed=0),
                             dict(axis="t1", value="3", seed=12)])
        lines = rep.table().splitlines()
        assert len(lines) == 3
        assert len({len(ln) for ln in lines}) == 1  # padded to equal width
        assert lines[0].split() == ["axis", "seed", "value"]

    def test_empty_table(self):
        assert MetricsReport([]).table() == "(no rows)\n"


def _small_run(**cfg_overrides):
    model = ToyDenoiser(tiny_model_config())
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
            overrides = dict(base_overrides or {})
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

    def test_diverging_run_is_an_error_row(self):
        logs = []
        axes = {"lambda_sp": [1e308, 10.0]}  # a 1e308 step overflows the latent
        rep = run_ablation(axes, self._base_config(), [1, 0], TEMPLATE_PROMPT,
                           static_two_box_prior(2), self._factory(), log=logs.append)
        failed = [r for r in rep.rows if "error" in r]
        assert [(r["value"], r["seed"]) for r in failed] == [("1e+308", 0), ("1e+308", 1)]
        assert all(set(r) == {"axis", "value", "seed", "error"} for r in failed)
        assert all(r["error"].startswith("step 1 iteration 2: ") for r in failed)
        warned = [f"box '{side} subject' of subject {k} bound by position to the noun "
                  f"'{noun}'" for k, (side, noun) in enumerate([("left", "man"), ("right", "dog")])]
        # the first variant's input warnings come before its runs, and once for the sweep
        assert logs[:2] == [f"warning: {w}" for w in warned]
        assert [m.split(":")[0] for m in logs[2:]] == ["failed lambda_sp=1e+308 seed=1",
                                                        "failed lambda_sp=1e+308 seed=0"]
        assert rep.warnings == warned
        alone = run_ablation({"lambda_sp": [10.0]}, self._base_config(), [1, 0],
                             TEMPLATE_PROMPT, static_two_box_prior(2), self._factory())
        assert rep.rows[2:] == failed  # "10.0" sorts before "1e+308"
        assert MetricsReport(rows=rep.rows[:2]).to_jsonl() == MetricsReport(
            rows=alone.rows).to_jsonl()

    def test_misspelled_axis_raises(self):
        with pytest.raises(TypeError, match="lamda_sp"):
            run_ablation({"lamda_sp": [1.0]}, self._base_config(), [0], TEMPLATE_PROMPT,
                         static_two_box_prior(2), self._factory())

    def test_other_errors_abort(self):
        with pytest.raises(InputError, match="trajectories"):
            run_ablation({}, self._base_config(), [0], "a cat is sitting",
                         static_two_box_prior(2), self._factory())

    def test_interrupt_keeps_finished_rows(self):
        made = []

        def factory(capture):
            if made:
                raise KeyboardInterrupt
            made.append(capture)
            return self._factory()(capture)

        axes = {"t1": [2, 1]}
        with pytest.raises(AblationInterrupted) as exc:
            run_ablation(axes, self._base_config(), [1, 0], TEMPLATE_PROMPT,
                         static_two_box_prior(2), factory)
        assert isinstance(exc.value, KeyboardInterrupt)
        report = exc.value.report
        assert [(r["value"], r["seed"]) for r in report.rows] == [("2", 0), ("2", 1)]

    def test_default_axes_frozen(self):
        assert DEFAULT_ABLATION_AXES["t1"] == [1, 3, 5, 7]
        assert DEFAULT_ABLATION_AXES["lambda_sp"] == [10.0, 20.0, 30.0, 40.0]
        assert DEFAULT_ABLATION_AXES["distance"] == ["COSINE", "KL_SYM"]
        assert DEFAULT_ABLATION_AXES["contrastive_form"] == ["RATIO", "SUM"]
        assert sum(len(v) for v in DEFAULT_ABLATION_AXES.values()) == 28
