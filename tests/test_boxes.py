import numpy as np
import pytest

from attnguide.boxes import (
    DEGENERATE,
    VELOCITY,
    BoxTrajectory,
    SpatialPriorSet,
    parse_llm_boxes,
    rasterize_masks,
    resample_frames,
    serialize_boxes,
    validate_trajectories,
)
from attnguide.errors import BoxParseError, InputError

from conftest import DOG_CAT_BOXES, WOMAN_MAN_BOXES, one_subject_prior


class TestParse:
    def test_woman_man_example(self):
        prior = parse_llm_boxes(WOMAN_MAN_BOXES)
        assert prior.frame_count == 8
        assert len(prior.trajectories) == 2
        woman = prior.trajectories[0]
        assert woman.subject_id == 0
        assert woman.name == "walking woman"
        assert [b[0] for b in woman.boxes] == [0, 35, 70, 105, 140, 175, 210, 245]
        assert all(b[1:] == [70, 120, 200] for b in woman.boxes)
        assert prior.background_keyword == "room"

    def test_dog_cat_example(self):
        prior = parse_llm_boxes(DOG_CAT_BOXES)
        cat = prior.trajectories[1]
        assert cat.subject_id == 1
        assert all(b == [350, 200, 80, 60] for b in cat.boxes)
        assert prior.background_keyword == "garden"

    def test_empty_frame_list(self):
        prior = parse_llm_boxes("Frame 1: []\nBackground keyword: void\n")
        assert prior.trajectories == []
        assert prior.frame_count == 1

    def test_duplicate_id_within_frame(self):
        text = ("Frame 1: [{'id': 0, 'name': 'a', 'box': [0, 0, 5, 5]}, "
                "{'id': 0, 'name': 'b', 'box': [9, 9, 5, 5]}]\n"
                "Background keyword: x\n")
        with pytest.raises(BoxParseError, match="line 1.*duplicate id"):
            parse_llm_boxes(text)

    def test_missing_frame_index(self):
        text = ("Frame 1: [{'id': 0, 'name': 'a', 'box': [0, 0, 5, 5]}]\n"
                "Frame 3: [{'id': 0, 'name': 'a', 'box': [0, 0, 5, 5]}]\n"
                "Background keyword: x\n")
        with pytest.raises(BoxParseError, match="not consecutive"):
            parse_llm_boxes(text)

    def test_malformed_record_reports_line(self):
        text = ("Frame 1: [{'id': 0, 'name': 'a', 'box': [0, 0, 5, 5]}]\n"
                "Frame 2: [{'id': 0, 'nam\n"
                "Background keyword: x\n")
        with pytest.raises(BoxParseError, match="line 2"):
            parse_llm_boxes(text)

    def test_non_integer_box_entry(self):
        text = ("Frame 1: [{'id': 0, 'name': 'a', 'box': [0, 0, 5.5, 5]}]\n"
                "Background keyword: x\n")
        with pytest.raises(BoxParseError, match="four integers"):
            parse_llm_boxes(text)

    def test_missing_background(self):
        with pytest.raises(BoxParseError, match="Background"):
            parse_llm_boxes("Frame 1: []\n")

    def test_offscreen_box_clipped_with_warning(self):
        text = ("Frame 1: [{'id': 0, 'name': 'a', 'box': [560, 0, 50, 50]}]\n"
                "Background keyword: x\n")
        prior = parse_llm_boxes(text)
        assert prior.trajectories[0].boxes[0] == [560, 0, 16, 50]
        assert prior.load_warnings

    def test_round_trip(self):
        for text in (WOMAN_MAN_BOXES, DOG_CAT_BOXES):
            prior = parse_llm_boxes(text)
            again = parse_llm_boxes(serialize_boxes(prior))
            assert again == prior


class TestMake:
    """A prior checks its box counts and subject ids, and clips its boxes, when made."""

    @pytest.mark.parametrize("frames, boxes", [(8, 2), (2, 8)])
    def test_box_count_must_match_frames(self, frames, boxes):
        trajs = [BoxTrajectory(0, "a", [[0, 0, 5, 5]] * frames),
                 BoxTrajectory(1, "b", [[0, 0, 5, 5]] * boxes)]
        with pytest.raises(InputError, match=f"^subject id 1 has {boxes} boxes for {frames} "):
            SpatialPriorSet(frames, trajs, "x")

    def test_repeated_subject_id(self):
        trajs = [BoxTrajectory(0, name, [[0, 0, 5, 5]]) for name in ("a", "b")]
        with pytest.raises(InputError, match="^subject id 0 is repeated$"):
            SpatialPriorSet(1, trajs, "x")

    @pytest.mark.parametrize("frames", [0, -1])
    def test_needs_a_frame(self, frames):
        """A prior of no frames would serialize to text its own parser rejects."""
        with pytest.raises(InputError, match=f"^a prior needs at least one frame, got {frames}$"):
            SpatialPriorSet(frames, [], "x")

    def test_subjects_on_one_list_each_clip_their_own_boxes(self):
        """Each subject warns for its clipped boxes, and the caller's list is left as it was."""
        boxes = [[600, 0, 50, 50]] * 2
        prior = SpatialPriorSet(2, [BoxTrajectory(k, "s", boxes) for k in (0, 1)], "x")
        assert prior.load_warnings == [f"clipped box of subject {k} frame {f}: "
                                       "[600, 0, 50, 50] -> [576, 0, 0, 50]"
                                       for k in (0, 1) for f in (0, 1)]
        assert [t.boxes for t in prior.trajectories] == [[[576, 0, 0, 50]] * 2] * 2
        assert boxes == [[600, 0, 50, 50]] * 2

    def test_code_built_box_clipped_as_loading_clips(self):
        prior = one_subject_prior([[-20, 0, 288, 320]])
        assert prior.load_warnings == ["clipped box of subject 0 frame 0: "
                                       "[-20, 0, 288, 320] -> [0, 0, 268, 320]"]
        assert prior == parse_llm_boxes("Frame 1: [{'id': 0, 'name': 's', 'box': "
                                        "[-20, 0, 288, 320]}]\nBackground keyword: x\n")


class TestValidate:
    def test_dog_velocity_violation(self):
        prior = parse_llm_boxes(DOG_CAT_BOXES)
        violations = validate_trajectories(prior)
        velocity = [v for v in violations if v.kind == VELOCITY]
        assert len(velocity) == 1
        assert velocity[0].subject_id == 0
        assert velocity[0].frame == 7  # the 125px jump into the final frame

    def test_full_frame_static_box_clean(self):
        prior = one_subject_prior([[0, 0, 576, 320]] * 3)
        assert validate_trajectories(prior) == []

    def test_out_of_frame(self):
        """A box right of the frame is clipped to no width when made, so it is degenerate."""
        prior = one_subject_prior([[600, 0, 50, 50]])
        assert prior.trajectories[0].boxes == [[576, 0, 0, 50]]
        assert prior.load_warnings == ["clipped box of subject 0 frame 0: "
                                       "[600, 0, 50, 50] -> [576, 0, 0, 50]"]
        assert [v.kind for v in validate_trajectories(prior)] == [DEGENERATE]

    def test_degenerate(self):
        for box in ([10, 10, 0, 5], [300, 10, -50, 100], [10, 10, 5, -1]):
            prior = one_subject_prior([box])
            kinds = {v.kind for v in validate_trajectories(prior)}
            assert DEGENERATE in kinds


class TestResample:
    def test_identity(self):
        prior = parse_llm_boxes(WOMAN_MAN_BOXES)
        assert resample_frames(prior, 8) == prior

    def test_linear_midpoint(self):
        prior = one_subject_prior([[0, 10, 20, 30], [70, 10, 20, 30]])
        out = resample_frames(prior, 3)
        assert [b[0] for b in out.trajectories[0].boxes] == [0, 35, 70]

    def test_woman_to_sixteen_frames(self):
        prior = parse_llm_boxes(WOMAN_MAN_BOXES)
        out = resample_frames(prior, 16)
        xs = [b[0] for b in out.trajectories[0].boxes]
        expected = [int(round(245 * k / 15)) for k in range(16)]
        assert xs == expected
        assert xs[0] == 0 and xs[-1] == 245

    def test_too_few_frames_rejected(self):
        prior = one_subject_prior([[0, 0, 5, 5]])
        with pytest.raises(InputError):
            resample_frames(prior, 4)


class TestRasterize:
    def test_full_frame_all_ones(self):
        masks, _ = rasterize_masks(one_subject_prior([[0, 0, 576, 320]]), 4, 4)
        assert np.array_equal(masks[0][0], np.ones((4, 4)))

    def test_zero_area_all_zeros_with_warning(self):
        masks, warnings = rasterize_masks(one_subject_prior([[10, 10, 0, 0]]), 4, 4)
        assert not masks[0][0].any()
        assert warnings

    def test_half_open_column_oracle(self):
        # centers x = 32, 96, ..., 544 (step 64); 288 excluded by half-open rule
        masks, _ = rasterize_masks(one_subject_prior([[0, 0, 288, 320]]), 5, 9)
        m = masks[0][0]
        assert np.array_equal(m[:, :4], np.ones((5, 4)))
        assert np.array_equal(m[:, 4:], np.zeros((5, 5)))

    def test_monotonicity_200_random_pairs(self, rng):
        for _ in range(200):
            x, y = rng.integers(0, 500), rng.integers(0, 280)
            w, h = rng.integers(1, 576 - x), rng.integers(1, 320 - y)
            dx1, dy1 = rng.integers(0, x + 1), rng.integers(0, y + 1)
            dx2 = rng.integers(0, 576 - (x + w) + 1)
            dy2 = rng.integers(0, 320 - (y + h) + 1)
            small = rasterize_masks(one_subject_prior([[x, y, w, h]]), 8, 8)[0][0][0]
            big = rasterize_masks(
                one_subject_prior([[x - dx1, y - dy1, w + dx1 + dx2, h + dy1 + dy2]]), 8, 8
            )[0][0][0]
            assert np.all(small <= big)

    def test_adjacent_boxes_do_not_double_cover(self, rng):
        for _ in range(50):
            split = int(rng.integers(1, 575))
            left = rasterize_masks(one_subject_prior([[0, 0, split, 320]]), 8, 8)[0][0][0]
            right = rasterize_masks(
                one_subject_prior([[split, 0, 576 - split, 320]]), 8, 8)[0][0][0]
            assert np.all(left + right <= 1)

    def test_grid_precondition(self):
        with pytest.raises(InputError):
            rasterize_masks(one_subject_prior([[0, 0, 5, 5]]), 0, 4)
