"""Walkthrough: parsing box-prior text, validating trajectories, and
rasterizing per-frame masks onto an attention grid.

Run with:  python3 demos/box_priors.py
"""

from attnguide import (
    parse_llm_boxes,
    rasterize_masks,
    resample_frames,
    serialize_boxes,
    validate_trajectories,
)

BOX_TEXT = """\
Caption: A dog is running and a cat is sitting
Frame 1: [{'id': 0, 'name': 'running dog', 'box': [50, 80, 120, 100]}, {'id': 1, 'name': 'sitting cat', 'box': [350, 200, 80, 60]}]
Frame 2: [{'id': 0, 'name': 'running dog', 'box': [85, 80, 120, 100]}, {'id': 1, 'name': 'sitting cat', 'box': [350, 200, 80, 60]}]
Frame 3: [{'id': 0, 'name': 'running dog', 'box': [120, 80, 120, 100]}, {'id': 1, 'name': 'sitting cat', 'box': [350, 200, 80, 60]}]
Frame 4: [{'id': 0, 'name': 'running dog', 'box': [260, 80, 120, 100]}, {'id': 1, 'name': 'sitting cat', 'box': [350, 200, 80, 60]}]
Background keyword: garden
"""


def main():
    prior = parse_llm_boxes(BOX_TEXT)
    print(f"parsed {prior.frame_count} frames, "
          f"{len(prior.trajectories)} trajectories, "
          f"background {prior.background_keyword!r}\n")

    # The dog teleports 140px between the file's Frame 3 and Frame 4 -- the validator
    # flags it, counting frames from 0 as everything after loading does.
    for v in validate_trajectories(prior):
        print(f"violation: {v.kind} subject={v.subject_id} frame={v.frame} -- {v.message}")
    print()

    # Stretch the 4-frame prior to 8 frames by linear corner interpolation.
    eight = resample_frames(prior, 8)
    print("dog x after resampling to 8 frames:",
          [b[0] for b in eight.trajectory_by_id(0).boxes], "\n")

    # Rasterize to the 8x8 grid the guidance losses actually see.
    masks, _ = rasterize_masks(eight, 8, 8)
    for sid in (0, 1):
        print(f"subject {sid}, frame 0:")
        for row in masks[sid][0].astype(int):
            print("  " + "".join("#" if v else "." for v in row))
        print()

    # Serialization round-trips losslessly.
    assert parse_llm_boxes(serialize_boxes(prior)) == prior
    print("serialize -> parse round-trip: exact")


if __name__ == "__main__":
    main()
