"""Field template (world-space keypoints, meters) and image dimensions."""

from dataclasses import dataclass, field

import numpy as np

from .errors import UnknownKeypointId

FIELD_WIDTH_M = 105.0
FIELD_HEIGHT_M = 68.0


@dataclass(frozen=True)
class ImageDims:
    width_px: int
    height_px: int

    def __post_init__(self):
        if self.width_px <= 0 or self.height_px <= 0:
            raise ValueError(f"image dimensions must be positive, got {self}")

    def corners(self):
        """Image rectangle corners (0,0) (W,0) (W,H) (0,H)."""
        w, h = float(self.width_px), float(self.height_px)
        return np.array([[0.0, 0.0], [w, 0.0], [w, h], [0.0, h]])


@dataclass(frozen=True)
class FieldTemplate:
    """Named landmark positions on the playing surface, in meters.

    ids are arbitrary unique ints (whatever the upstream detector emits);
    everything numeric in this package works with canonical indices 0..N-1 in
    template order, translated through index_of / ids.
    """

    ids: np.ndarray
    positions: np.ndarray
    width_m: float = FIELD_WIDTH_M
    height_m: float = FIELD_HEIGHT_M
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=int)
        pos = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "positions", pos)
        if ids.ndim != 1 or pos.ndim != 2 or pos.shape != (ids.size, 2):
            raise ValueError(f"ids {ids.shape} and positions {pos.shape} do not line up")
        if ids.size < 4:
            raise ValueError("a usable template needs at least 4 keypoints")
        if len(set(ids.tolist())) != ids.size:
            raise ValueError("duplicate keypoint ids")
        if not np.all(np.isfinite(pos)):
            raise ValueError("non-finite keypoint position")
        if not all(np.isfinite(d) and d > 0 for d in (self.width_m, self.height_m)):
            raise ValueError("field dimensions must be finite and positive")
        if (pos[:, 0].min() < 0 or pos[:, 0].max() > self.width_m
                or pos[:, 1].min() < 0 or pos[:, 1].max() > self.height_m):
            raise ValueError("keypoint positions must lie within the field rectangle")
        object.__setattr__(self, "_index", {int(k): i for i, k in enumerate(ids)})

    @property
    def n(self):
        return self.ids.size

    def index_of(self, raw_ids):
        """Canonical indices for raw template ids.  Raises UnknownKeypointId."""
        out = np.empty(len(raw_ids), dtype=int)
        for i, k in enumerate(raw_ids):
            try:
                out[i] = self._index[int(k)]
            except KeyError:
                raise UnknownKeypointId(f"keypoint id {k} is not in the template") from None
        return out

    def corners(self):
        """Field rectangle corners (0,0) (W,0) (W,H) (0,H), meters."""
        return np.array([
            [0.0, 0.0],
            [self.width_m, 0.0],
            [self.width_m, self.height_m],
            [0.0, self.height_m],
        ])


def standard_soccer_template():
    """The usual 31 line-intersection landmarks of a 105 x 68 pitch.

    Corners, halfway line, center mark and circle extremes, both penalty and
    goal areas, penalty marks and arc tips.  ids are 0..30 in listing order.
    """
    w, h = FIELD_WIDTH_M, FIELD_HEIGHT_M
    cy = h / 2.0
    r = 9.15          # center circle and penalty arc radius
    pa_d, pa_w = 16.5, 40.32
    ga_d, ga_w = 5.5, 18.32
    pm = 11.0         # penalty mark distance from goal line

    pts = [
        (0.0, 0.0), (w, 0.0), (w, h), (0.0, h),              # field corners
        (w / 2.0, 0.0), (w / 2.0, h),                        # halfway line ends
        (w / 2.0, cy),                                       # center mark
        (w / 2.0, cy - r), (w / 2.0, cy + r),                # center circle verticals
        (w / 2.0 - r, cy), (w / 2.0 + r, cy),                # center circle horizontals
    ]
    for x0, sgn in ((0.0, 1.0), (w, -1.0)):
        pts += [
            (x0, cy - pa_w / 2.0), (x0 + sgn * pa_d, cy - pa_w / 2.0),
            (x0 + sgn * pa_d, cy + pa_w / 2.0), (x0, cy + pa_w / 2.0),
            (x0, cy - ga_w / 2.0), (x0 + sgn * ga_d, cy - ga_w / 2.0),
            (x0 + sgn * ga_d, cy + ga_w / 2.0), (x0, cy + ga_w / 2.0),
            (x0 + sgn * pm, cy),                             # penalty mark
            (x0 + sgn * (pm + r), cy),                       # penalty arc tip
        ]
    pts = np.array(pts)
    return FieldTemplate(ids=np.arange(len(pts)), positions=pts)
