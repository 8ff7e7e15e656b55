"""Bounding-box trajectory priors: parsing, validation, resampling, masks.

The text format is the LLM box-generator output: per-frame lines
``Frame k: [{'id': 0, 'name': ..., 'box': [x, y, w, h]}, ...]`` followed by
a ``Background keyword:`` line.  Coordinates are pixels of a 576x320 frame
(x rightward, y downward); boxes are stored as [x, y, w, h].
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import BoxParseError, InputError

# The box generator's frame, in pixels: its text format cannot state another.
FRAME_W, FRAME_H = 576, 320
# The limit on a box center's move between frames, in pixels.
MAX_STEP_PX = 60

OUT_OF_FRAME = "OUT_OF_FRAME"
VELOCITY = "VELOCITY"
DEGENERATE = "DEGENERATE"


@dataclass
class BoxTrajectory:
    subject_id: int
    name: str
    boxes: list  # per-frame [x, y, w, h]


@dataclass
class SpatialPriorSet:
    frame_count: int
    trajectories: list
    background_keyword: str
    load_warnings: list = field(default_factory=list, init=False)  # filled while loading


@dataclass
class Violation:
    kind: str
    subject_id: int
    frame: int
    message: str


_FRAME_RE = re.compile(r"^Frame\s+(\d+)\s*:\s*(\[.*\])\s*$")
_BACKGROUND_RE = re.compile(r"^Background keyword\s*:\s*(.+?)\s*$")


def _is_int(v):
    """Whether `v` is an int; a bool is not, though Python makes it one."""
    return isinstance(v, int) and not isinstance(v, bool)


def _check_record(rec, line_no):
    if not isinstance(rec, dict) or set(rec) != {"id", "name", "box"}:
        raise BoxParseError(f"record must have keys id/name/box, got {rec!r}", line_no)
    if not _is_int(rec["id"]):
        raise BoxParseError(f"id must be an integer, got {rec['id']!r}", line_no)
    if not isinstance(rec["name"], str):
        raise BoxParseError(f"name must be a string, got {rec['name']!r}", line_no)
    box = rec["box"]
    if not (isinstance(box, list) and len(box) == 4 and all(_is_int(v) for v in box)):
        raise BoxParseError(f"box must be four integers, got {box!r}", line_no)


def _clip_boxes(prior):
    for traj in prior.trajectories:
        for f, (x, y, w, h) in enumerate(traj.boxes):
            x2, y2 = min(max(x + w, 0), FRAME_W), min(max(y + h, 0), FRAME_H)
            xc, yc = min(max(x, 0), FRAME_W), min(max(y, 0), FRAME_H)
            clipped = [xc, yc, x2 - xc, y2 - yc]
            if clipped != [x, y, w, h]:
                prior.load_warnings.append(
                    f"clipped box of subject {traj.subject_id} frame {f}: "
                    f"{[x, y, w, h]} -> {clipped}"
                )
                traj.boxes[f] = clipped


def parse_llm_boxes(text):
    """Parse the box-generator text format (576x320 frames) into a SpatialPriorSet.

    Every line is read before any record is checked, so line errors are reported first.
    """
    frames, background = {}, None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("Reasoning:", "Caption:")):
            continue
        m = _BACKGROUND_RE.match(line)
        if m:
            if background is not None:
                raise BoxParseError("duplicate 'Background keyword:' line", line_no)
            background = m.group(1)
            continue
        m = _FRAME_RE.match(line)
        if m is None:
            raise BoxParseError(f"unrecognized line: {line!r}", line_no)
        try:
            k = int(m.group(1))
        except ValueError as exc:  # more digits than int() converts
            raise BoxParseError(f"bad frame index: {exc}", line_no) from None
        if k in frames:
            raise BoxParseError(f"duplicate frame index {k}", line_no)
        try:
            records = ast.literal_eval(m.group(2))
        except (ValueError, SyntaxError) as exc:
            raise BoxParseError(f"malformed record literal: {exc}", line_no) from exc
        frames[k] = (line_no, records)

    for k, (line_no, records) in frames.items():
        if not isinstance(records, list):
            raise BoxParseError(f"frame {k} payload must be a list", line_no)
        seen_ids = set()
        for rec in records:
            _check_record(rec, line_no)
            if rec["id"] in seen_ids:
                raise BoxParseError(f"duplicate id {rec['id']} within frame {k}", line_no)
            seen_ids.add(rec["id"])

    if not frames:
        raise BoxParseError("no 'Frame k:' lines found")
    if not background:
        raise BoxParseError("missing 'Background keyword:' line")
    expected = list(range(1, len(frames) + 1))
    if sorted(frames) != expected:
        raise BoxParseError(f"frame indices {sorted(frames)} are not consecutive from 1")

    by_id = [{rec["id"]: rec for rec in frames[k][1]} for k in expected]
    trajectories = []
    for sid in dict.fromkeys(sid for recs in by_id for sid in recs):
        for k, recs in enumerate(by_id, start=1):
            if sid not in recs:
                raise BoxParseError(f"subject id {sid} missing from frame {k}")
            if recs[sid]["name"] != by_id[0][sid]["name"]:  # it binds to the prompt by name
                raise BoxParseError(f"subject id {sid} is named {by_id[0][sid]['name']!r} in "
                                    f"frame 1 and {recs[sid]['name']!r} in frame {k}", frames[k][0])
        boxes = [list(recs[sid]["box"]) for recs in by_id]
        trajectories.append(BoxTrajectory(sid, by_id[0][sid]["name"], boxes))

    prior = SpatialPriorSet(len(expected), trajectories, background)
    _clip_boxes(prior)
    return prior


def serialize_boxes(prior):
    """Inverse of parse_llm_boxes (round-trips losslessly)."""
    lines = []
    for f in range(prior.frame_count):
        recs = ", ".join(
            "{'id': %d, 'name': %r, 'box': %s}" % (t.subject_id, t.name, t.boxes[f])
            for t in prior.trajectories
        )
        lines.append(f"Frame {f + 1}: [{recs}]")
    lines.append(f"Background keyword: {prior.background_keyword}")
    return "\n".join(lines) + "\n"


def static_two_box_prior(frames):
    """Disjoint static left/right boxes covering the full frame height."""
    return SpatialPriorSet(
        frame_count=frames,
        trajectories=[
            BoxTrajectory(0, "left subject", [[0, 0, 288, 320]] * frames),
            BoxTrajectory(1, "right subject", [[288, 0, 288, 320]] * frames),
        ],
        background_keyword="plain",
    )


# The benchmark parses and times box files by this name; it is the same function.
detect_and_parse = parse_llm_boxes


def validate_trajectories(prior):
    """Out-of-frame (loading clips boxes), velocity and degenerate-box checks."""
    violations = []
    for traj in prior.trajectories:
        prev_center = None
        for f, (x, y, w, h) in enumerate(traj.boxes):
            if x < 0 or y < 0 or x + w > FRAME_W or y + h > FRAME_H:
                violations.append(Violation(
                    OUT_OF_FRAME, traj.subject_id, f,
                    f"box {[x, y, w, h]} exceeds {FRAME_W}x{FRAME_H} frame",
                ))
            if w <= 0 or h <= 0:
                violations.append(Violation(
                    DEGENERATE, traj.subject_id, f, f"box {[x, y, w, h]} has no area",
                ))
            center = (x + w / 2.0, y + h / 2.0)
            if prev_center is not None:
                step = float(np.hypot(center[0] - prev_center[0], center[1] - prev_center[1]))
                if step > MAX_STEP_PX:
                    violations.append(Violation(
                        VELOCITY, traj.subject_id, f,
                        f"center moved {step:.1f}px between frames {f - 1} and {f} "
                        f"(limit {MAX_STEP_PX})",
                    ))
            prev_center = center
    return violations


def resample_frames(prior, target_F):
    """Linear per-corner interpolation of trajectories onto target_F frames."""
    if prior.frame_count < 2:
        raise InputError("resampling needs at least 2 source frames")
    if target_F < 2:
        raise InputError("target frame count must be at least 2")
    src = np.arange(prior.frame_count) / (prior.frame_count - 1)
    dst = np.arange(target_F) / (target_F - 1)
    out_trajs = []
    for traj in prior.trajectories:
        b = np.asarray(traj.boxes, dtype=np.float64)
        corners = np.stack([b[:, 0], b[:, 1], b[:, 0] + b[:, 2], b[:, 1] + b[:, 3]], axis=1)
        interp = np.stack([np.interp(dst, src, corners[:, c]) for c in range(4)], axis=1)
        rounded = np.rint(interp).astype(int)
        boxes = [
            [int(x1), int(y1), int(x2 - x1), int(y2 - y1)]
            for x1, y1, x2, y2 in rounded
        ]
        out_trajs.append(BoxTrajectory(traj.subject_id, traj.name, boxes))
    return SpatialPriorSet(target_F, out_trajs, prior.background_keyword)


def rasterize_masks(prior, grid_h, grid_w):
    """Binary masks at attention resolution via cell-center-in-box sampling.

    Returns ``(masks, warnings)``: ``{subject id: read-only [F, grid_h,
    grid_w] array}`` and a line per all-zero frame mask.  A cell is inside
    when its center lies in the half-open interval [x, x+w) x [y, y+h),
    which keeps adjacent boxes from double-covering shared edges.
    """
    if grid_h < 1 or grid_w < 1:
        raise InputError("grid dimensions must be >= 1")
    cx = (np.arange(grid_w) + 0.5) * (FRAME_W / grid_w)
    cy = (np.arange(grid_h) + 0.5) * (FRAME_H / grid_h)
    masks, warnings = {}, []
    for traj in prior.trajectories:
        stack = np.zeros((len(traj.boxes), grid_h, grid_w))
        for f, (x, y, w, h) in enumerate(traj.boxes):
            inside_x = (cx >= x) & (cx < x + w)
            inside_y = (cy >= y) & (cy < y + h)
            stack[f] = inside_y[:, None] & inside_x[None, :]
            if not stack[f].any():
                warnings.append(
                    f"all-zero mask for subject {traj.subject_id} frame {f} "
                    f"(box {[x, y, w, h]} at {grid_h}x{grid_w})"
                )
        stack.flags.writeable = False
        masks[traj.subject_id] = stack
    return masks, warnings
